"""Explicit construction by successive detachment with integral flows.

Both constructions start from an amalgam, in which whole vertex sets are
merged into single vertices of multiplicity, and split one vertex off at a
time.  An edge type (D, b, t) is a 4-multiset made of the set D of vertices
already detached plus b copies of the old amalgam beta and t copies of the
new amalgam alpha, |D| + b + t = 4.
The state gives every class j a count x_j(type) of its edges of each type:

  * ``generate_base`` starts every class at (r*m/4) x (empty, 4, 0): all of
    lam*K_m^4 amalgamated into one vertex of multiplicity m (Baranyai's
    argument, 1975);
  * ``detach`` starts class j at e_j x (empty, 3, 1), f_j x (empty, 2, 2),
    g_j x (empty, 1, 3) and h_j x (empty, 0, 4): the plan read as a coloring
    of the two-vertex amalgam.  Base blocks never enter the state; they are
    copied into classes 1..q unchanged.

A type is stored as one int, D << 6 | b << 3 | t: b and t take three bits
each, and D holds the vertices of D in detach order as 8-bit fields (n is
at most 255, and a live key stays within 30 bits).  So c (below) is a
shift and a mask, and the type that receives v is
((key & -64) << 8) + (key & 63) + (v << 6) minus 8 (v leaves beta) or 1
(v leaves alpha).  A finished type (D, 0, 0) is key << 6 for the key of
its block as ``Factorization`` stores it, once its four fields are sorted,
and seed 0 detaches in ascending order, so they are.

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
point has an integral vertex.  The step finds one.  The scan moves every
cell's floor(x * c / a) edges as it reads them, and a cell whose fair
value is fractional may move one more (capacity 1 each), in its row's
order once all are chosen.  How those cells are chosen depends on a:

  * a <= 2: a cell's floor is x * c >> (a - 1) and it is odd when
    x * c & (a - 1).  At a = 1 no cell is odd, since the fair point is
    integral, and every cell with c = 1 moves whole.  At a = 2 every
    fractional part is 1/2.  By the two sums, a row has exactly twice its
    need of odd cells and a column an even number of them, so the bipartite
    graph of odd cells splits into closed trails.  They are walked with one
    current-arc pointer per row and per column, and the cells walked
    row -> column are taken: every row and every column takes exactly half
    of its odd cells, in one linear pass;
  * a >= 3: in the scan that sets the floors, systematic rounding per
    column takes a fractional cell where its column's running sum of
    fractional parts crosses a multiple of a, as far as its row's need
    allows.  A greedy pass then takes any cell still allowed in the rows
    left short, and Hopcroft-Karp phases finish the flow: one layered BFS
    from every short row, then disjoint shortest augmenting paths, each
    row and column keeping a current-arc pointer.

After the step, type (D, b, t) keeps
lam * C(a, b) * (1 - b/a) * C(a', t) = lam * C(a - 1, b) * C(a', t)
edges, the receivers number lam * C(a - 1, b - 1) * C(a', t), and each
class loses exactly deg_j of its incidence: (I1) and (I2) hold at a - 1.

A type that finishes, (D, 0, 0) with |D| = 4, leaves the state in the
step that finishes it, and key >> 6 is appended to its class's
``key_array`` (after the base's keys, copied as they are, in ``detach``):
the state holds only live types, and ``Factorization`` proves the arrays
by columns and sorts them.  When both amalgams are used up the state is
empty, so by (I1) every 4-set occurs lam times, and every vertex received
exactly its degree in every class.  There is no search and no exhaustion:
any valid plan with any valid base yields a certificate in time polynomial
in the number of blocks.  The result is still checked: the base once, on
entry, and on exit the outer system and its restriction to the base.

Cost.  A step scans the state once (its (class, type) entries), moving
the floors as it goes; at a <= 2 the trails and the odd cells they take
are all that is left.  At a >= 3 a phase costs at most one pass over the
fractional cells, and the phases number at most the longest shortest
augmenting path; most steps need none or one.  At (6,48,2,5,1), seed 0,
3,243 classes with up to 171k fractional cells in one step, the 54 steps
leave 14,534 units to 59 phases (the units of a phase are its short rows'
need when it starts): 44 steps need at most one, and the last few, where
a is small, up to 5 (a = 3).  The three a = 2 steps split 8, 338 and
30,360 odd cells by trails.

``seed`` permutes the order in which the old vertices, and then the new
vertices, are detached; seed 0 keeps the natural order, and any other
seed sorts the fields of each block once all are detached.  Classes, types
and the extra cells of a row are visited in a fixed order, so the output
is a function of the inputs.
"""

from __future__ import annotations

import random
from array import array
from collections import defaultdict
from collections.abc import Iterable
from bisect import bisect_right
from itertools import accumulate, chain, compress

from .errors import InputError
from .factorization import (
    MAX_GROUND_SIZE,
    ColorClass,
    EmbeddingCertificate,
    Factorization,
    factorization_issues,
    is_valid_factorization,
    key_array,
    restriction_issues,
)
from .params import EmbeddingParams, class_count, color_counts, integers
from .planner import AmalgamPlan, verify_plan

EdgeType = int  # D << 6 | b << 3 | t: D the fields of the detached vertices
_BETA, _ALPHA = 3, 0  # the shift that reads an amalgam's copy count c off a type
# the two amalgams at the start of ``detach``: (empty, 3, 1) ... (empty, 0, 4)
_PLAN_TYPES = (3 << 3 | 1, 2 << 3 | 2, 1 << 3 | 3, 0 << 3 | 4)


def _match(cells: list[list[EdgeType]], chosen: list[dict[EdgeType, int]],
           row_need: list[int], col_need: dict[EdgeType, int]) -> None:
    """Take row_need[j] more of row j's cells ``cells[j]`` and col_need[type]
    more in each column, each cell at most once, into ``chosen``, where
    chosen[j] maps each cell row j takes to its place in cells[j]; the cells
    already in ``chosen`` may move.  ``row_need`` and ``col_need`` are used
    up.  A greedy pass first takes any cell still allowed: the paths of
    length one, found without a phase's set-up.  Hopcroft-Karp phases of
    augmenting paths close what is left."""
    if not (col_need or any(row_need)):  # every need is met already
        return
    for j, need in enumerate(row_need):
        if need > 0:
            taken = chosen[j]
            for i, key in enumerate(cells[j]):
                if col_need[key] > 0 and key not in taken:
                    col_need[key] -= 1
                    taken[key] = i
                    need -= 1
                    if not need:
                        break
            row_need[j] = need
    short = [j for j, need in enumerate(row_need) if need > 0]
    if short:
        holders: dict[EdgeType, set[int]] = defaultdict(set)
        for j, taken in enumerate(chosen):
            for key in taken:
                holders[key].add(j)
    while short:
        _phase(cells, short, chosen, holders, row_need, col_need)
        short = [j for j in short if row_need[j] > 0]
    if any(row_need) or any(col_need.values()):
        raise RuntimeError("detachment step has no integral solution")


def _phase(cells: list[list[EdgeType]], short: list[int],
           chosen: list[dict[EdgeType, int]], holders: dict[EdgeType, set[int]],
           row_need: list[int], col_need: dict[EdgeType, int]) -> None:
    """One Hopcroft-Karp phase: a layered BFS from every short row, then
    disjoint shortest augmenting paths through the layers.  A path
    alternates a free cell (row -> column) and a taken cell (column -> row)
    and ends at a column with spare need; taking it moves one unit.

    The BFS stops at the first column with spare need, at depth ``last``:
    the paths end in row layer ``last`` at any such column, so that layer's
    columns need no levels.  Every cell has capacity 1, so a path saturates
    its cells and no arc is used twice in a phase; ``arc`` keeps each row's
    scan position and ``col_arc`` each column's, and a row or column found
    dead leaves the layers."""
    level = dict.fromkeys(short, 0)
    col_level: dict[EdgeType, int] = {}
    layer, depth, last = short, 0, -1
    while layer and last < 0:
        below = []
        for u in layer:
            taken = chosen[u]
            for key in cells[u]:
                if key in col_level or key in taken:
                    continue
                if col_need[key] > 0:
                    last = depth
                    break
                col_level[key] = depth
                for w in holders[key]:
                    if w not in level:
                        level[w] = depth + 1
                        below.append(w)
            if last >= 0:
                break
        layer, depth = below, depth + 1
    if last < 0:
        raise RuntimeError("detachment step has no integral solution")
    arc = dict.fromkeys(level, 0)
    col_arc: dict[EdgeType, list] = {}

    def advance(u: int) -> tuple[EdgeType, int | None] | None:
        """Row u's next live arc as (column, row below), the row None at a
        column with spare need; None, and u is dead, when it has none."""
        d, row, taken = level[u], cells[u], chosen[u]
        for i in range(arc[u], len(row)):
            key = row[i]
            if key in taken:
                continue
            if d == last:
                if col_need[key] > 0:
                    arc[u] = i
                    return key, None
            elif col_level.get(key) == d:
                ca = col_arc.get(key)
                if ca is None:
                    ca = col_arc[key] = [list(holders[key]), 0]
                ws = ca[0]
                for h in range(ca[1], len(ws)):
                    w = ws[h]
                    if level.get(w) == d + 1 and key in chosen[w]:
                        arc[u], ca[1] = i, h
                        return key, w
                col_level[key] = -1  # dead column
        level[u] = -1
        return None

    for start in short:
        while row_need[start] > 0:
            path, via = [start], []  # via[i] joins path[i] to path[i + 1]
            while path:
                step = advance(path[-1])
                if step is None:
                    path.pop()
                    if via:
                        via.pop()
                    continue
                key, w = step
                via.append(key)
                if w is None:
                    break
                path.append(w)
            if not path:
                break
            for w, key, old in zip(path, via, [None] + via):
                chosen[w][key] = arc[w]  # the place of key in w's row
                holders[key].add(w)
                if old is not None:
                    del chosen[w][old]
                    holders[old].discard(w)
            row_need[start] -= 1
            col_need[via[-1]] -= 1


def _share_error(key: EdgeType, v: int) -> RuntimeError:
    dbt = key >> 6, key >> 3 & 7, key & 7
    return RuntimeError(f"edge type {dbt} has a non-integral share at vertex {v}")


def _trails(cells: list[list[EdgeType]]) -> list[Iterable[EdgeType]]:
    """a <= 2: the odd cells, where x * c / a is fractional, form a
    bipartite graph of classes against types; each row's taken cells are
    returned in its order, none at all when there is no odd cell (as at
    a = 1).  By (I2) a row has exactly twice its need of odd cells, and by
    (I1) a column an even number; the scan checks both.  Closed trails are
    walked, one current-arc pointer per row and per column, and the cells
    walked row -> column are taken: each visit enters and leaves, so every
    row and every column takes exactly half of its odd cells."""
    if not any(cells):
        return []
    keys = list(chain.from_iterable(cells))  # the odd cells, row by row
    ends = list(accumulate(map(len, cells)))  # row j's cells end at ends[j]
    col_cells: dict[EdgeType, list[int]] = defaultdict(list)
    for e, key in enumerate(keys):
        col_cells[key].append(e)
    pos = [0] + ends[:-1]  # each row's current arc
    used, taken = bytearray(len(keys)), bytearray(len(keys))
    for first in range(len(cells)):  # each row, in order
        j = first
        while True:  # a trail runs out of cells only back at its first row
            e, end = pos[j], ends[j]
            while e < end and used[e]:
                e += 1
            pos[j] = e
            if e == end:
                break
            used[e] = taken[e] = 1
            arc = col_cells[keys[e]]  # its column's arc: the end of the list
            f = arc.pop()
            while used[f]:
                f = arc.pop()
            used[f] = 1
            j = bisect_right(ends, f)  # the row of cell f
    return [compress(keys[lo:hi], taken[lo:hi]) for lo, hi in zip([0] + ends, ends)]


def _detach_vertex(classes: list[dict[EdgeType, int]], blocks: list[array],
                   v: int, a: int, from_beta: bool, degree: list[int]) -> None:
    """Split vertex v off the amalgam of multiplicity a (beta or alpha);
    class j receives v on exactly degree[j] of its edges.  One scan moves
    every cell's floor and lists each row's fractional cells, and at a >= 3
    the ones that systematic rounding takes: a fractional cell is taken
    when the running sum of fractional parts in its column crosses a
    multiple of a, as far as its row's need allows, and ``_match`` closes
    the rest.  Each part is below a, so a column crosses exactly
    sum_j (x_j c mod a) / a times, its share: it needs again only the
    crossings a row dropped.  At a <= 2 ``_trails`` chooses instead, and
    the running sums serve only the check of each column's share.  The
    chosen cells then move one more edge each, in their row's order.  A
    type that finishes, (D, 0, 0), leaves ``classes[j]``, and key >> 6 goes
    to ``blocks[j]``."""
    shift = _BETA if from_beta else _ALPHA
    # the receivers gain v's 8-bit field after those of D and lose one copy
    # of the amalgam
    step = (v << 6) - (1 << shift)
    running: dict[EdgeType, int] = defaultdict(int)  # mod a, per column
    col_need: dict[EdgeType, int] = defaultdict(int)
    cells, chosen, row_need, skewed = [], [], [], False
    for cls, out, deg in zip(classes, blocks, degree):
        frac, picks = [], {}  # picks: a taken cell's place in frac
        for key, x in cls.copy().items():
            rem = x * (key >> shift & 7)
            if rem >= a:
                y = rem // a
                deg -= y
                rem -= y * a
                if x > y:
                    cls[key] = x - y
                else:
                    del cls[key]
                to = ((key & -64) << 8) + (key & 63) + step
                if to & 63:
                    cls[to] = y  # a new key: no type of cls has v in D yet
                elif y == 1:
                    out.append(to >> 6)
                else:
                    out.extend((to >> 6,) * y)
            if rem:
                frac.append(key)
                rem += running[key]
                if rem >= a:
                    rem -= a
                    if a > 2:
                        picks[key] = len(frac) - 1
                running[key] = rem
        cells.append(frac)
        if a <= 2:  # _trails chooses: the row needs exactly half its odd cells
            skewed |= 2 * deg != len(frac)
            continue
        if len(picks) > deg:
            for key in list(picks)[max(deg, 0):]:
                col_need[key] += 1
                del picks[key]
        chosen.append(picks)
        row_need.append(deg - len(picks))
    for key, rem in running.items():
        if rem:
            raise _share_error(key, v)
    if a <= 2:
        if skewed:
            raise RuntimeError("detachment step has no integral solution")
        moves = _trails(cells)
    else:
        _match(cells, chosen, row_need, col_need)
        moves = [sorted(extra, key=extra.__getitem__) for extra in chosen]
    for cls, out, keys in zip(classes, blocks, moves):
        for key in keys:
            if cls[key] > 1:
                cls[key] -= 1
            else:
                del cls[key]
            key = ((key & -64) << 8) + (key & 63) + step
            if key & 63:
                cls[key] = cls.get(key, 0) + 1
            else:
                out.append(key >> 6)


def _detach_all(classes: list[dict[EdgeType, int]], blocks: list[array],
                amalgams: list[tuple[range, bool, list[int]]], seed: int) -> list:
    """Detach every vertex of each amalgam in turn; ``amalgams`` lists
    (vertices, from_beta, degree).  A nonzero seed shuffles each amalgam's
    order, all with one generator, and then the fields of each finished
    key, in detach order, are sorted; the classes are returned."""
    rng = random.Random(seed) if seed else None
    for vertices, from_beta, degree in amalgams:
        order = list(vertices)
        if rng:
            rng.shuffle(order)
        for i, v in enumerate(order):
            _detach_vertex(classes, blocks, v, len(order) - i, from_beta, degree)
    if any(classes):
        raise RuntimeError("detachment left an amalgamated edge")
    if rng:
        return [list(map(sorted, ColorClass(out.tobytes()))) for out in blocks]
    return blocks


def generate_base(m: int, r: int, lam: int, seed: int = 0) -> Factorization:
    """An r-factorization of lam*K_m^4 by detaching m vertices from one amalgam."""
    m, r, lam = integers((m, r, lam))
    if m > MAX_GROUND_SIZE:  # a key's 8-bit fields hold no larger vertex
        raise InputError(f"m <= {MAX_GROUND_SIZE} required")
    q = class_count(m, r, lam)  # raises unless (m, r, lam) is admissible
    classes = [{4 << 3 | 0: r * m // 4} for _ in range(q)]  # (empty, 4, 0)
    blocks = [key_array() for _ in range(q)]
    blocks = _detach_all(classes, blocks, [(range(1, m + 1), True, [r] * q)], seed)
    fact = Factorization(m, lam, r, blocks)
    if not is_valid_factorization(fact):
        raise RuntimeError("generated base fails verification")
    return fact


def detach(p: EmbeddingParams, base: Factorization, plan: AmalgamPlan,
           seed: int = 0) -> EmbeddingCertificate:
    """Expand a verified plan into an explicit certificate extending ``base``."""
    if p.n > MAX_GROUND_SIZE:  # refused before any state or check of the plan
        raise InputError(f"n <= {MAX_GROUND_SIZE} required")
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
        cls = {key: x for key, x in zip(_PLAN_TYPES, quad) if x}
        classes += (dict(cls) for _ in range(count))
    blocks = [key_array(old) for old in base.classes]
    blocks += (key_array() for _ in range(k - q))
    blocks = _detach_all(classes, blocks, [(range(1, m + 1), True, [s - r] * q + [s] * (k - q)),
                                           (range(m + 1, n + 1), False, [s] * k)], seed)

    # the base was checked on entry and is immutable: check what is new
    outer = Factorization(n, p.lam, s, blocks)
    if factorization_issues(outer) or restriction_issues(base, outer):
        raise RuntimeError("detachment output fails verification")
    return EmbeddingCertificate(inner=base, outer=outer)
