"""Explicit construction: base factorizations and detachment of a plan.

Both constructions are depth-first exact-cover searches that assign blocks
(4-subsets, lam copies each) to color classes under per-class budgets:

  * every vertex has a remaining-degree budget per class,
  * for detachment, every class additionally has per-shape budgets
    (e_j, f_j, g_j, h_j by the number of old vertices in the block).

The search fills classes one at a time, tightest class first, choosing each
class's blocks in ascending item order (each bundle is enumerated exactly
once).  Class-level conflicts therefore surface while the class is being
built, not dozens of assignments later.  Symmetry breaking and pruning:

  * classes with identical initial budgets are interchangeable: a later
    member of such a group must start with a higher first block than the
    previous one, and when only one group remains, the next class is forced
    to start at the lowest unassigned block;
  * copies of one block are consumed in index order;
  * a class whose maximum remaining vertex budget exceeds its remaining
    block count (or with fewer than 4 usable vertices) is dead;
  * after every assignment, each incomplete class must retain enough
    compatible unassigned blocks at every vertex, and every unassigned
    block must still fit some class.

Sets of items are Python ints used as bitsets over item indices.  Static
masks give the items containing vertex v (``vmask[v]``) and the items of
shape t (``smask[t]``); ``free`` holds the unassigned items, and
``fit[j]`` the items whose size budget, shape budget and vertex budgets in
class j are all positive.  Assigning an item to class j clears its bit in
``free``; a budget of j crossing 0 removes ``vmask[v]`` or ``smask[t]`` from
``fit[j]``, and the size budget reaching 0 empties it.  ``_apply`` pushes
the old ``fit[j]`` and ``_undo`` pops it, so undoing needs no inverse
bookkeeping: only class j's budgets changed, and the saved mask is the one
they determine.

The per-node check computes ``fit[j] & free`` for every incomplete class
and compares each vertex budget with the popcount of that set at the
vertex; an unassigned item outside the union of these sets is an orphan.
A total-supply test (at least ``size_budget`` compatible items) would be
redundant: every class keeps sum_v vbudget[v] == 4 * size_budget (true of
the initial budgets, which are the degree laws of the base or the plan, and
kept by each assignment, which takes 4 vertex degrees and 1 block), and
every item has 4 vertices, so passing the per-vertex test means
4 * supply >= sum_v vbudget[v] = 4 * size_budget.  A node thus costs
O(classes × ground) big-int operations on masks of one bit per item,
and the search visits the same nodes in the same order as a full rescan of
the items would.

A node budget (at least 1) converts pathological instances into an
explicit SearchExhausted, which carries the number of nodes visited,
instead of nontermination; exhaustion is never interpreted as nonexistence.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import combinations

from .combinat import binomial
from .errors import InputError, SearchExhausted
from .factorization import (
    Block,
    EmbeddingCertificate,
    Factorization,
    is_valid_factorization,
    verify_certificate,
)
from .params import EmbeddingParams, color_counts, is_admissible
from .planner import AmalgamPlan, verify_plan

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass
class _ClassState:
    vbudget: list[int]  # 1-based; remaining degree per vertex
    shape_budget: list[int] | None  # indexed by old-vertex count 0..4
    size_budget: int
    group: int
    first_item: int = -1


class _CoverSearch:
    def __init__(self, ground: int, items: list[tuple[Block, int]],
                 classes: list[_ClassState], node_budget: int, m_old: int = 0):
        if node_budget < 1:
            raise InputError(f"node budget must be at least 1, got {node_budget}")
        self.ground = ground
        self.items = items
        self.classes = classes
        self.budget = node_budget
        self.nodes = 0
        self.m_old = m_old
        self.choice = [-1] * len(items)
        self.free = (1 << len(items)) - 1
        self.vmask = [0] * (ground + 1)
        self.smask = [0] * 5
        for i, (block, shape) in enumerate(items):
            for v in block:
                self.vmask[v] |= 1 << i
            self.smask[shape] |= 1 << i
        self.fit = []
        for cls in classes:
            fit = self.free if cls.size_budget else 0
            for v, b in enumerate(cls.vbudget):
                if b == 0:
                    fit &= ~self.vmask[v]
            for t, b in enumerate(cls.shape_budget or ()):
                if b == 0:
                    fit &= ~self.smask[t]
            self.fit.append(fit)
        self.saved_fit: list[int] = []  # fit[j] before each live _apply

    def _class_alive(self, cls: _ClassState) -> bool:
        if cls.size_budget == 0:
            return True
        positive = 0
        maxb = 0
        for b in cls.vbudget[1:]:
            if b > 0:
                positive += 1
                if b > maxb:
                    maxb = b
        if positive < 4 or maxb > cls.size_budget:
            return False
        if cls.shape_budget is not None:
            # blocks with >= 1 old vertex are the only ones consuming old degrees
            with_old = cls.size_budget - cls.shape_budget[0]
            old_max = max(cls.vbudget[1:self.m_old + 1], default=0)
            if old_max > with_old:
                return False
        return True

    def _supply_ok(self) -> bool:
        """Every incomplete class keeps, at every vertex, at least as many
        compatible unassigned blocks as its budget there, and every
        unassigned block still fits some incomplete class.  (The total
        count per class follows from the vertex counts; see the module
        docstring.)"""
        free, vmask = self.free, self.vmask
        union = 0
        for cls, fit in zip(self.classes, self.fit):
            if cls.size_budget == 0:
                continue
            avail = fit & free
            union |= avail
            for b, mask in zip(cls.vbudget, vmask):
                if b and b > (avail & mask).bit_count():
                    return False
        return not (free & ~union)

    def _apply(self, i: int, j: int) -> None:
        block, shape = self.items[i]
        cls = self.classes[j]
        fit = self.fit[j]
        self.saved_fit.append(fit)
        self.free &= ~(1 << i)
        for v in block:
            cls.vbudget[v] -= 1
            if cls.vbudget[v] == 0:
                fit &= ~self.vmask[v]
        if cls.shape_budget is not None:
            cls.shape_budget[shape] -= 1
            if cls.shape_budget[shape] == 0:
                fit &= ~self.smask[shape]
        cls.size_budget -= 1
        self.fit[j] = fit if cls.size_budget else 0
        self.choice[i] = j

    def _undo(self, i: int, j: int) -> None:
        """Take back the latest live ``_apply``, which was ``_apply(i, j)``."""
        block, shape = self.items[i]
        cls = self.classes[j]
        cls.size_budget += 1
        if cls.shape_budget is not None:
            cls.shape_budget[shape] += 1
        for v in block:
            cls.vbudget[v] += 1
        self.fit[j] = self.saved_fit.pop()
        self.free |= 1 << i
        self.choice[i] = -1

    def run(self, exhausted: str) -> None:
        """Assign every item.  Raises SearchExhausted, carrying ``nodes``, on
        a node-budget hit or, with message ``exhausted``, when the whole
        space has been searched without a full assignment."""
        items, classes, fits = self.items, self.classes, self.fit
        n_items = len(items)
        sys.setrecursionlimit(max(sys.getrecursionlimit(), n_items + 100))
        # tightest class first; stable, so group members stay consecutive
        order = sorted(range(len(classes)),
                       key=lambda j: (classes[j].size_budget, j))
        # items whose predecessor is a copy of the same block
        dup = sum(1 << i for i in range(1, n_items)
                  if items[i - 1][0] == items[i][0])

        def start_cursor(pos: int) -> int:
            """Canonical start for the class at fill position pos: past the
            first block of the previous same-group class."""
            j = order[pos]
            if pos > 0:
                prev = classes[order[pos - 1]]
                if prev.group == classes[j].group and prev.first_item >= 0:
                    return prev.first_item + 1
            return 0

        def single_group_left(pos: int) -> bool:
            groups = {classes[order[p]].group for p in range(pos, len(order))}
            return len(groups) <= 1

        def fill(pos: int, cursor: int, depth: int) -> bool:
            if depth == n_items:
                return True
            j = order[pos]
            cls = classes[j]
            if cls.size_budget == 0:
                return fill(pos + 1, start_cursor(pos + 1), depth)
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchExhausted(
                    f"node budget {self.budget} exhausted", complete=False,
                    nodes=self.nodes)
            empty = cls.first_item < 0
            forced = empty and single_group_left(pos)
            # unassigned items from the cursor on; copies are consumed in
            # index order
            free = self.free
            cand = free & ~(dup & (free << 1)) & -(1 << cursor)
            if forced:
                # interchangeable classes: the lowest unassigned block must
                # open the next bundle, or nothing does
                cand &= -cand
            cand &= fits[j]
            while cand:
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                self._apply(i, j)
                if empty:
                    cls.first_item = i
                ok = self._class_alive(cls) and self._supply_ok()
                if ok and fill(pos, i + 1, depth + 1):
                    return True
                self._undo(i, j)
                if empty:
                    cls.first_item = -1
            return False

        if not fill(0, start_cursor(0), 0):
            raise SearchExhausted(exhausted, complete=True, nodes=self.nodes)


def _seeded_items(blocks: list[Block], lam: int, seed: int,
                  shape_of=None) -> list[tuple[Block, int]]:
    """Block-copy items in search order: scarcest shape first (those carry the
    tightest per-class budgets), lexicographic within a shape; a nonzero seed
    shuffles instead."""
    shape = {b: (shape_of(b) if shape_of else 4) for b in blocks}
    if seed:
        order = sorted(blocks)
        random.Random(seed).shuffle(order)
    else:
        census = {t: sum(1 for b in blocks if shape[b] == t)
                  for t in set(shape.values())}
        order = sorted(blocks, key=lambda b: (census[shape[b]], b))
    items = []
    for block in order:
        items.extend([(block, shape[block])] * lam)
    return items


def generate_base(m: int, r: int, lam: int, seed: int = 0,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> Factorization:
    """An r-factorization of lam*K_m^4 found by backtracking exact cover."""
    if m < 4:
        raise InputError(f"m must be at least 4, got {m}")
    if m == 4 and (r < 2 or lam < 2):
        raise InputError("m = 4 requires lam >= 2 and r >= 2")
    if not is_admissible(m, r, lam):
        raise InputError(f"triple ({m}, {r}, {lam}) is not admissible")
    q = lam * binomial(m - 1, 3) // r
    size = r * m // 4
    classes = [
        _ClassState(vbudget=[0] + [r] * m, shape_budget=None,
                    size_budget=size, group=0)
        for _ in range(q)
    ]
    items = _seeded_items(list(combinations(range(1, m + 1), 4)), lam, seed)
    search = _CoverSearch(m, items, classes, node_budget)
    search.run(f"no {r}-factorization of {lam}*K_{m}^4 found"
               " (search space exhausted)")
    assigned: list[list[Block]] = [[] for _ in range(q)]
    for i, j in enumerate(search.choice):
        assigned[j].append(items[i][0])
    fact = Factorization(m, lam, r, assigned)
    if not is_valid_factorization(fact):
        raise RuntimeError("generated base fails verification")
    return fact


def detach(p: EmbeddingParams, base: Factorization, plan: AmalgamPlan,
           seed: int = 0,
           node_budget: int = DEFAULT_NODE_BUDGET) -> EmbeddingCertificate:
    """Expand a verified plan into an explicit certificate extending ``base``."""
    if not verify_plan(p, plan):
        raise InputError("plan fails verification; refusing to search")
    q, k = color_counts(p)
    if (base.ground_size != p.m or base.lam != p.lam or base.regularity != p.r
            or len(base.classes) != q):
        raise InputError("base does not match parameters")
    if not is_valid_factorization(base):
        raise InputError("base is not a valid factorization")

    m, n, r, s = p.m, p.n, p.r, p.s
    classes = []
    for j in range(k):
        old_budget = s - r if j < q else s
        vbudget = [0] + [old_budget] * m + [s] * (n - m)
        shapes = [plan.h[j], plan.g[j], plan.f[j], plan.e[j], 0]
        classes.append(_ClassState(
            vbudget=vbudget, shape_budget=shapes,
            size_budget=sum(shapes), group=0))
    signatures: dict[tuple, int] = {}
    for j, cls in enumerate(classes):
        sig = (tuple(cls.vbudget), tuple(cls.shape_budget))
        cls.group = signatures.setdefault(sig, j)

    blocks = [b for b in combinations(range(1, n + 1), 4) if b[3] > m]
    items = _seeded_items(blocks, p.lam, seed,
                          shape_of=lambda b: sum(1 for v in b if v <= m))
    search = _CoverSearch(n, items, classes, node_budget, m_old=m)
    search.run("no detachment found at this scale (search space exhausted);"
               " this does not certify nonexistence")

    outer_classes: list[list[Block]] = [list(base.classes[j]) for j in range(q)]
    outer_classes += [[] for _ in range(k - q)]
    for i, j in enumerate(search.choice):
        outer_classes[j].append(items[i][0])
    outer = Factorization(n, p.lam, s, outer_classes)
    cert = EmbeddingCertificate(inner=base, outer=outer)
    if not verify_certificate(cert):
        raise RuntimeError("detachment output fails verification")
    return cert
