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
    compatible unassigned blocks, in total and per vertex, and every
    unassigned block must still fit some class.

The last check runs at every node, so it reads counters instead of
rescanning the items.  Item i fits class j when j's size budget, its budget
for i's shape and its budget at each vertex of i are all positive;
``blocked[j][i]`` counts the ones of these that are exhausted.  Over the
unassigned items, ``supply[j]`` and ``vsupply[j][v]`` count those with
``blocked[j][i] == 0`` (at vertex v), ``nfit[i]`` counts the classes item i
fits, and ``orphans`` the unassigned items that fit none.  ``_apply`` and
``_undo`` keep these exact: assigning an item removes it from the supplies
(O(classes)), and a budget of class j crossing 0 revisits only the items
that need it (``by_vertex[v]``, ``by_shape[t]``, or every item for the
size budget).  The per-node check is then O(classes × ground) instead of
O(items × classes), and the search visits the same nodes in the same order
as a full rescan would.

A node budget (at least 1) converts pathological instances into an
explicit SearchExhausted, which carries the number of nodes visited,
instead of nontermination; exhaustion is never interpreted as nonexistence.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import combinations
from operator import gt

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
        self.assigned = [False] * len(items)
        # items to revisit when a vertex or shape budget of a class hits 0
        self.by_vertex: list[list[int]] = [[] for _ in range(ground + 1)]
        self.by_shape: list[list[int]] = [[] for _ in range(5)]
        for i, (block, shape) in enumerate(items):
            for v in block:
                self.by_vertex[v].append(i)
            self.by_shape[shape].append(i)
        # blocked[j][i]: exhausted budgets of class j that item i needs
        self.blocked = [
            [(cls.size_budget == 0)
             + (cls.shape_budget is not None and cls.shape_budget[shape] == 0)
             + sum(cls.vbudget[v] == 0 for v in block)
             for block, shape in items]
            for cls in classes]
        # supply over unassigned items that class j can still take
        self.supply = [row.count(0) for row in self.blocked]
        self.vsupply = [[0] * (ground + 1) for _ in classes]
        self.nfit = [0] * len(items)
        for row, vs in zip(self.blocked, self.vsupply):
            for i, b in enumerate(row):
                if not b:
                    self.nfit[i] += 1
                    for v in items[i][0]:
                        vs[v] += 1
        self.orphans = self.nfit.count(0)

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
        """Every unassigned block still fits somewhere, and every incomplete
        class keeps enough compatible unassigned blocks, in total and per
        vertex."""
        active = [j for j, cls in enumerate(self.classes) if cls.size_budget > 0]
        if not active:
            return True
        if self.orphans:
            return False
        for j in active:
            cls = self.classes[j]
            if self.supply[j] < cls.size_budget \
                    or any(map(gt, cls.vbudget, self.vsupply[j])):
                return False
        return True

    def _block(self, j: int, idxs) -> None:
        """A budget of class j hit 0: every item in idxs needs it."""
        row, vs, nfit = self.blocked[j], self.vsupply[j], self.nfit
        items, assigned = self.items, self.assigned
        lost = orphaned = 0
        for i in idxs:
            row[i] += 1
            if row[i] == 1:
                nfit[i] -= 1
                if not assigned[i]:
                    lost += 1
                    a, b, c, d = items[i][0]
                    vs[a] -= 1
                    vs[b] -= 1
                    vs[c] -= 1
                    vs[d] -= 1
                    if not nfit[i]:
                        orphaned += 1
        self.supply[j] -= lost
        self.orphans += orphaned

    def _unblock(self, j: int, idxs) -> None:
        """A budget of class j left 0: the inverse of _block."""
        row, vs, nfit = self.blocked[j], self.vsupply[j], self.nfit
        items, assigned = self.items, self.assigned
        gained = rescued = 0
        for i in idxs:
            row[i] -= 1
            if not row[i]:
                nfit[i] += 1
                if not assigned[i]:
                    gained += 1
                    a, b, c, d = items[i][0]
                    vs[a] += 1
                    vs[b] += 1
                    vs[c] += 1
                    vs[d] += 1
                    if nfit[i] == 1:
                        rescued += 1
        self.supply[j] += gained
        self.orphans -= rescued

    def _take(self, i: int, sign: int) -> None:
        """Item i leaves (sign -1) or rejoins (+1) the unassigned pool; it
        fits the class it is assigned to, so it is never an orphan here."""
        a, b, c, d = self.items[i][0]
        supply, vsupply = self.supply, self.vsupply
        for j, row in enumerate(self.blocked):
            if not row[i]:
                supply[j] += sign
                vs = vsupply[j]
                vs[a] += sign
                vs[b] += sign
                vs[c] += sign
                vs[d] += sign

    def _apply(self, i: int, j: int) -> None:
        block, shape = self.items[i]
        cls = self.classes[j]
        self._take(i, -1)
        self.assigned[i] = True
        for v in block:
            cls.vbudget[v] -= 1
            if cls.vbudget[v] == 0:
                self._block(j, self.by_vertex[v])
        if cls.shape_budget is not None:
            cls.shape_budget[shape] -= 1
            if cls.shape_budget[shape] == 0:
                self._block(j, self.by_shape[shape])
        cls.size_budget -= 1
        if cls.size_budget == 0:
            self._block(j, range(len(self.items)))
        self.choice[i] = j

    def _undo(self, i: int, j: int) -> None:
        block, shape = self.items[i]
        cls = self.classes[j]
        if cls.size_budget == 0:
            self._unblock(j, range(len(self.items)))
        cls.size_budget += 1
        if cls.shape_budget is not None:
            if cls.shape_budget[shape] == 0:
                self._unblock(j, self.by_shape[shape])
            cls.shape_budget[shape] += 1
        for v in block:
            if cls.vbudget[v] == 0:
                self._unblock(j, self.by_vertex[v])
            cls.vbudget[v] += 1
        self.assigned[i] = False
        self._take(i, +1)
        self.choice[i] = -1

    def run(self, exhausted: str) -> None:
        """Assign every item.  Raises SearchExhausted, carrying ``nodes``, on
        a node-budget hit or, with message ``exhausted``, when the whole
        space has been searched without a full assignment."""
        items, classes, assigned = self.items, self.classes, self.assigned
        n_items = len(items)
        sys.setrecursionlimit(max(sys.getrecursionlimit(), n_items + 100))
        # tightest class first; stable, so group members stay consecutive
        order = sorted(range(len(classes)),
                       key=lambda j: (classes[j].size_budget, j))

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
            blocked = self.blocked[j]
            for i in range(cursor, n_items):
                if assigned[i]:
                    continue
                if i > 0 and items[i - 1][0] == items[i][0] \
                        and not assigned[i - 1]:
                    continue  # copies are consumed in index order
                if blocked[i]:
                    if forced:
                        # interchangeable classes: the lowest unassigned block
                        # must open the next bundle, or nothing does
                        return False
                    continue
                self._apply(i, j)
                if empty:
                    cls.first_item = i
                ok = self._class_alive(cls) and self._supply_ok()
                if ok and fill(pos, i + 1, depth + 1):
                    return True
                self._undo(i, j)
                if empty:
                    cls.first_item = -1
                if forced:
                    return False
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
