"""Explicit construction by successive detachment with integral flows.

Both constructions start from an amalgam, in which whole vertex sets are
merged into single vertices of multiplicity, and split one vertex off at a
time.  An edge type (D, b, t) is a 4-multiset made of the set D of vertices
already detached plus b copies of the old amalgam beta and t copies of the
new amalgam alpha, |D| + b + t = 4 (D is a bitmask over vertex labels).
The state gives every class j a count x_j(type) of its edges of each type:

  * ``generate_base`` starts every class at (r*m/4) x (empty, 4, 0): all of
    lam*K_m^4 amalgamated into one vertex of multiplicity m (Baranyai's
    argument, 1975);
  * ``detach`` starts class j at e_j x (empty, 3, 1), f_j x (empty, 2, 2),
    g_j x (empty, 1, 3) and h_j x (empty, 0, 4): the plan read as a coloring
    of the two-vertex amalgam.  Base blocks never enter the state; they are
    copied into classes 1..q unchanged.

The old vertices 1..m are detached from beta first, then the new vertices
m+1..n from alpha.  Detaching v from an amalgam of multiplicity a chooses,
per class j and type with c copies of that amalgam (c = b or t), a number
y_j(type) in [0, x_j(type)] of edges that receive v; those become
(D + v, b - 1, t) or (D + v, b, t - 1), the rest keep their type.  Two sums
are fixed:

  * per type, sum_j y_j = sum_j x_j * c / a, the 4-sets of that type that
    contain v;
  * per class, sum_type y_j = deg_j(v): r in the base, s - r for an old
    vertex in an old-tier class (the base supplies the other r), s
    otherwise.

Why every step succeeds.  Two invariants hold by induction at an amalgam of
multiplicity a (and a' for the other amalgam):

  (I1) type (D, b, t) occurs lam * C(a, b) * C(a', t) times over all
       classes, for every D;
  (I2) class j has sum_type x_j * c = a * deg_j, c counting the copies of
       that amalgam: each of its a merged vertices has degree deg_j in j.

They hold at the start (the base's class size, or the plan's totals and
degree laws, which ``verify_plan`` checks).  By (I1) the per-type sum is
lam * C(a - 1, b - 1) * C(a', t) (or the same with the roles swapped), an
integer; by (I2) the fair point y = x * c / a has class sums exactly
deg_j, an integer; and 0 <= x * c / a <= x because c <= a wherever x > 0.
So the fair point lies in the transportation polytope given by the caps and
both sums.  Its constraint matrix is the incidence matrix of a bipartite
graph (classes against types), which is totally unimodular, so with
integral sums the polytope restricted to the box [floor, ceil] of the fair
point has an integral vertex.  The step finds one: every cell starts at
floor(x * c / a), a greedy pass then closes the row and column deficits
over the cells whose fair value is fractional (capacity 1 each), and BFS
augmenting paths finish the flow.  After the step, type (D, b, t) keeps
lam * C(a, b) * (1 - b/a) * C(a', t) = lam * C(a - 1, b) * C(a', t)
edges, the receivers number lam * C(a - 1, b - 1) * C(a', t), and each
class loses exactly deg_j of its incidence: (I1) and (I2) hold at a - 1.

When both amalgams are used up, every type is (D, 0, 0) with |D| = 4, so by
(I1) every 4-set occurs lam times, and every vertex received exactly its
degree in every class.  There is no search and no exhaustion: any valid
plan with any valid base yields a certificate in time polynomial in the
number of blocks.  The result is still checked by the verifier.

``seed`` permutes the order in which the old vertices, and then the new
vertices, are detached; seed 0 keeps the natural order.  Classes and types
are visited in a fixed order, so the output is a function of the inputs.
"""

from __future__ import annotations

import random
from collections import defaultdict
from math import comb

from .errors import InputError
from .factorization import (
    Block,
    EmbeddingCertificate,
    Factorization,
    is_valid_factorization,
    verify_certificate,
)
from .params import EmbeddingParams, color_counts, integers, is_admissible
from .planner import AmalgamPlan, verify_plan

EdgeType = tuple[int, int, int]  # (detached-vertex bitmask, b, t)


def _match(cells: list[list[tuple[EdgeType, int]]], a: int,
           row_need: list[int],
           col_need: dict[EdgeType, int]) -> list[set[EdgeType]]:
    """Cells (j, type) taken at most once, row_need[j] in row j and
    col_need[type] in each column; ``cells[j]`` lists row j's fractional
    cells as (type, x * c mod a).  ``row_need`` and ``col_need`` are used up.

    A greedy pass takes a cell when the running sum of fractional parts in
    its column crosses a multiple of a (systematic rounding of the fair
    point, column by column), a second one takes any cell still allowed,
    and BFS augmenting paths close what is left.
    """
    chosen: list[set[EdgeType]] = [set() for _ in cells]
    holders: dict[EdgeType, set[int]] = defaultdict(set)
    running: dict[EdgeType, int] = defaultdict(int)
    for j, row in enumerate(cells):
        for key, rem in row:
            if row_need[j] <= 0:
                break
            before = running[key]
            running[key] = before + rem
            if col_need[key] > 0 and (before + rem) // a > before // a:
                col_need[key] -= 1
                row_need[j] -= 1
                chosen[j].add(key)
                holders[key].add(j)
    for j, row in enumerate(cells):
        for key, _ in row:
            if row_need[j] <= 0:
                break
            if col_need[key] > 0 and key not in chosen[j]:
                col_need[key] -= 1
                row_need[j] -= 1
                chosen[j].add(key)
                holders[key].add(j)
    for start in range(len(cells)):
        while row_need[start] > 0:
            # alternate free cells (row -> column) and taken cells (column ->
            # row) until a column with spare need is reached
            via_row: dict[EdgeType, int] = {}
            via_col: dict[int, EdgeType | None] = {start: None}
            queue, end = [start], None
            for u in queue:
                for key, _ in cells[u]:
                    if key in via_row or key in chosen[u]:
                        continue
                    via_row[key] = u
                    if col_need[key] > 0:
                        end = key
                        break
                    for w in holders[key]:
                        if w not in via_col:
                            via_col[w] = key
                            queue.append(w)
                if end is not None:
                    break
            if end is None:
                raise RuntimeError("detachment step has no integral solution")
            col_need[end] -= 1
            row_need[start] -= 1
            key = end
            while key is not None:
                u = via_row[key]
                chosen[u].add(key)
                holders[key].add(u)
                key = via_col[u]
                if key is not None:
                    chosen[u].discard(key)
                    holders[key].discard(u)
    if any(row_need) or any(col_need.values()):
        raise RuntimeError("detachment step has no integral solution")
    return chosen


def _detach_vertex(classes: list[dict[EdgeType, int]], v: int, a: int,
                   from_beta: bool, degree: list[int]) -> None:
    """Split vertex v off the amalgam of multiplicity a (beta or alpha);
    class j receives v on exactly degree[j] of its edges."""
    slot = 1 if from_beta else 2
    # a column needs sum_j (x_j c mod a) / a cells beyond the floors
    rems: dict[EdgeType, int] = defaultdict(int)
    floors, cells, row_need = [], [], []
    for cls, deg in zip(classes, degree):
        start, frac = {}, []
        for key, x in cls.items():
            c = key[slot]
            if c:
                y, rem = divmod(x * c, a)
                if y:
                    start[key] = y
                    deg -= y
                if rem:
                    rems[key] += rem
                    frac.append((key, rem))
        floors.append(start)
        cells.append(frac)
        row_need.append(deg)
    col_need = {}
    for key, total in rems.items():
        share, rem = divmod(total, a)
        if rem:
            raise RuntimeError(f"edge type {key} has a non-integral share at vertex {v}")
        col_need[key] = share
    chosen = _match(cells, a, row_need, col_need)
    bit = 1 << v
    for cls, start, extra in zip(classes, floors, chosen):
        for key in extra:
            start[key] = start.get(key, 0) + 1
        for key, y in start.items():
            left = cls[key] - y
            if left:
                cls[key] = left
            else:
                del cls[key]
            d, b, t = key
            to = (d | bit, b - 1, t) if from_beta else (d | bit, b, t - 1)
            cls[to] = cls.get(to, 0) + y


def _blocks(cls: dict[EdgeType, int], n: int) -> tuple[Block, ...]:
    """The 4-sets of a fully detached class, with multiplicity."""
    out = []
    for (d, b, t), x in cls.items():
        if b or t:
            raise RuntimeError("detachment left an amalgamated edge")
        block = tuple(v for v in range(1, n + 1) if d >> v & 1)
        out.extend([block] * x)
    return tuple(out)


def _vertex_order(vertices: range, rng: random.Random | None) -> list[int]:
    order = list(vertices)
    if rng:
        rng.shuffle(order)
    return order


def generate_base(m: int, r: int, lam: int, seed: int = 0) -> Factorization:
    """An r-factorization of lam*K_m^4 by detaching m vertices from one amalgam."""
    m, r, lam = integers((m, r, lam))
    if not is_admissible(m, r, lam):
        raise InputError(f"triple ({m}, {r}, {lam}) is not admissible")
    q = lam * comb(m - 1, 3) // r
    classes = [{(0, 4, 0): r * m // 4} for _ in range(q)]
    rng = random.Random(seed) if seed else None
    for i, v in enumerate(_vertex_order(range(1, m + 1), rng)):
        _detach_vertex(classes, v, m - i, True, [r] * q)
    fact = Factorization(m, lam, r, [_blocks(cls, m) for cls in classes])
    if not is_valid_factorization(fact):
        raise RuntimeError("generated base fails verification")
    return fact


def detach(p: EmbeddingParams, base: Factorization, plan: AmalgamPlan,
           seed: int = 0) -> EmbeddingCertificate:
    """Expand a verified plan into an explicit certificate extending ``base``."""
    if not verify_plan(p, plan):
        raise InputError("plan fails verification; refusing to detach")
    q, k = color_counts(p)
    if (base.ground_size != p.m or base.lam != p.lam or base.regularity != p.r
            or len(base.classes) != q):
        raise InputError("base does not match parameters")
    if not is_valid_factorization(base):
        raise InputError("base is not a valid factorization")

    m, n, r, s = p.m, p.n, p.r, p.s
    classes = []
    for count, *quad in plan.rows:
        cls = {key: x for key, x in zip(((0, 3, 1), (0, 2, 2), (0, 1, 3), (0, 0, 4)), quad) if x}
        classes += (dict(cls) for _ in range(count))
    rng = random.Random(seed) if seed else None
    old_degree = [s - r] * q + [s] * (k - q)
    for i, v in enumerate(_vertex_order(range(1, m + 1), rng)):
        _detach_vertex(classes, v, m - i, True, old_degree)
    for i, v in enumerate(_vertex_order(range(m + 1, n + 1), rng)):
        _detach_vertex(classes, v, n - m - i, False, [s] * k)

    old_blocks = base.classes + ((),) * (k - q)
    outer = Factorization(n, p.lam, s, [
        old + _blocks(cls, n) for old, cls in zip(old_blocks, classes)])
    cert = EmbeddingCertificate(inner=base, outer=outer)
    if not verify_certificate(cert):
        raise RuntimeError("detachment output fails verification")
    return cert
