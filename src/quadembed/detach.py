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

A type is stored as one int, D << 6 | b << 3 | t: b and t take three bits
each, and vertex v is bit v + 6.  So c (below) is a shift and a mask, the
type that receives v is the key plus 2^(v + 6) minus 8 (v leaves beta) or
minus 1 (v leaves alpha), and a finished type (D, 0, 0) decodes to its
block, sorted, by four lowest-set-bit extractions.

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
point has an integral vertex.  The step finds one.  Every cell starts at
floor(x * c / a), and a cell whose fair value is fractional may take one
more (capacity 1 each).  How those cells are chosen depends on a:

  * a <= 2: a cell starts at x * c >> (a - 1) and is odd when
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
step that finishes it, and the vertices of its block are appended to its
class's ``block_array`` (after the base blocks in ``detach``), so the state
holds only live types and a block takes 4 bytes (8 past n = 255), not an
80-byte tuple; ``Factorization`` checks those arrays by columns and stores
each as its sorted keys.  When both amalgams are used up the state is
empty, so by (I1) every 4-set occurs lam times, and every vertex received
exactly its degree in every class.  There is no search and no exhaustion: any valid plan with any
valid base yields a certificate in time polynomial in the number of
blocks.  The result is still checked: the base once, on entry, and on exit
the outer system and its restriction to the base.

Cost.  A step scans the state once (its (class, type) entries) and
updates the cells that receive v; at a <= 2 that is all.  At a >= 3 a
phase costs at most one pass over the fractional cells, and the phases
number at most the longest shortest augmenting path; most steps need none
or one.  At (6,48,2,5,1), seed 0, 3,243 classes with up to 171k fractional
cells in one step, the 54 steps leave 13,954 units to 59 phases (the units
of a phase are its short rows' need when it starts): 44 steps need at most
one, and the last few, where a is small, up to 6 (a = 3).  The three
a = 2 steps split 8, 338 and 30,360 odd cells by trails.

``seed`` permutes the order in which the old vertices, and then the new
vertices, are detached; seed 0 keeps the natural order.  Classes and types
are visited in a fixed order, so the output is a function of the inputs.
"""

from __future__ import annotations

import random
from array import array
from collections import defaultdict

from .errors import InputError
from .factorization import (
    EmbeddingCertificate,
    Factorization,
    block_array,
    factorization_issues,
    is_valid_factorization,
    restriction_issues,
)
from .params import EmbeddingParams, class_count, color_counts, integers
from .planner import AmalgamPlan, verify_plan

EdgeType = int  # d << 6 | b << 3 | t: detached-vertex bitmask d, then b and t
_BETA, _ALPHA = 3, 0  # the shift that reads an amalgam's copy count c off a type
# the two amalgams at the start of ``detach``: (empty, 3, 1) ... (empty, 0, 4)
_PLAN_TYPES = (3 << 3 | 1, 2 << 3 | 2, 1 << 3 | 3, 0 << 3 | 4)


def _match(cells: list[list[EdgeType]], chosen: list[set[EdgeType]],
           row_need: list[int], col_need: dict[EdgeType, int]) -> None:
    """Take row_need[j] more of row j's cells ``cells[j]`` and col_need[type]
    more in each column, each cell at most once, into ``chosen``; the cells
    already in ``chosen`` may move.  ``row_need`` and ``col_need`` are used
    up.  A greedy pass first takes any cell still allowed: the paths of
    length one, found without a phase's set-up.  Hopcroft-Karp phases of
    augmenting paths close what is left."""
    for j, need in enumerate(row_need):
        if need > 0:
            taken = chosen[j]
            for key in cells[j]:
                if col_need[key] > 0 and key not in taken:
                    col_need[key] -= 1
                    taken.add(key)
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
           chosen: list[set[EdgeType]], holders: dict[EdgeType, set[int]],
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
                chosen[w].add(key)
                holders[key].add(w)
                if old is not None:
                    chosen[w].discard(old)
                    holders[old].discard(w)
            row_need[start] -= 1
            col_need[via[-1]] -= 1


def _share_error(key: EdgeType, v: int) -> RuntimeError:
    dbt = key >> 6, key >> 3 & 7, key & 7
    return RuntimeError(f"edge type {dbt} has a non-integral share at vertex {v}")


def _halve(classes: list[dict[EdgeType, int]], v: int, a: int, shift: int,
           degree: list[int]) -> list[dict[EdgeType, int]]:
    """a <= 2: every cell starts at its floor, and the cells where x * c / a
    is fractional (odd cells) form a bipartite graph of classes against
    types.  At a = 1 there is no odd cell and every cell moves whole.  By
    (I2) a row has exactly twice its need of odd cells, and by (I1) a
    column an even number; both are checked first.  Closed trails are then
    walked, one current-arc pointer per row and per column, and the cells
    walked row -> column are taken: each visit enters and leaves, so every
    row and every column takes exactly half of its odd cells."""
    half = a - 1
    moves, ends, skewed = [], [], False
    keys, rows = [], []  # the odd cells, row by row: their column and row
    col_cells: dict[EdgeType, list[int]] = defaultdict(list)
    for cls, deg in zip(classes, degree):
        start, first_odd = {}, len(keys)
        for key, x in cls.items():
            rem = x * (key >> shift & 7)
            if rem > half:
                start[key] = y = rem >> half
                deg -= y
            if rem & half:
                col_cells[key].append(len(keys))
                keys.append(key)
                rows.append(len(moves))
        moves.append(start)
        ends.append(len(keys))
        # the row takes half of its odd cells, so they must be twice its need
        skewed |= 2 * deg != len(keys) - first_odd
    for key, cells in col_cells.items():
        if len(cells) & 1:
            raise _share_error(key, v)
    if skewed:
        raise RuntimeError("detachment step has no integral solution")
    pos = [0] + ends[:-1]  # each row's current arc
    used = bytearray(len(keys))
    for first in dict.fromkeys(rows):  # each row with odd cells, in order
        j = first
        while True:  # a trail runs out of cells only back at its first row
            e, end = pos[j], ends[j]
            while e < end and used[e]:
                e += 1
            pos[j] = e
            if e == end:
                break
            used[e] = 1
            key = keys[e]
            start = moves[j]
            start[key] = start.get(key, 0) + 1
            cells = col_cells[key]  # its arc: the end of the list
            f = cells.pop()
            while used[f]:
                f = cells.pop()
            used[f] = 1
            j = rows[f]
    return moves


def _round(classes: list[dict[EdgeType, int]], v: int, a: int, shift: int,
           degree: list[int]) -> list[dict[EdgeType, int]]:
    """a >= 3, the other regime: every cell starts at its floor.  A
    fractional cell is taken once more when the running sum of fractional
    parts in its column crosses a multiple of a (systematic rounding of the
    fair point, column by column), as far as its row's need allows;
    ``_match`` closes the rest.  Each part is below a, so a column crosses
    exactly sum_j (x_j c mod a) / a times, its share: it needs again only
    the crossings a row dropped."""
    running: dict[EdgeType, int] = defaultdict(int)  # mod a, per column
    col_need: dict[EdgeType, int] = defaultdict(int)
    moves, cells, chosen, row_need = [], [], [], []
    for cls, deg in zip(classes, degree):
        start, frac, picks = {}, [], []
        for key, x in cls.items():
            rem = x * (key >> shift & 7)
            if rem >= a:
                y = rem // a
                start[key] = y
                deg -= y
                rem -= y * a
            if rem:
                frac.append(key)
                rem += running[key]
                if rem >= a:
                    rem -= a
                    picks.append(key)
                running[key] = rem
        if len(picks) > deg:
            keep = max(deg, 0)
            for key in picks[keep:]:
                col_need[key] += 1
            del picks[keep:]
        moves.append(start)
        cells.append(frac)
        chosen.append(set(picks))
        row_need.append(deg - len(picks))
    for key, rem in running.items():
        if rem:
            raise _share_error(key, v)
    _match(cells, chosen, row_need, col_need)
    for start, extra in zip(moves, chosen):
        for key in extra:
            start[key] = start.get(key, 0) + 1
    return moves


def _detach_vertex(classes: list[dict[EdgeType, int]], blocks: list[bytearray | array],
                   v: int, a: int, from_beta: bool, degree: list[int]) -> None:
    """Split vertex v off the amalgam of multiplicity a (beta or alpha);
    class j receives v on exactly degree[j] of its edges.  A type that
    finishes, (D, 0, 0), leaves ``classes[j]`` and the vertices of its
    block go to ``blocks[j]``."""
    shift = _BETA if from_beta else _ALPHA
    if a <= 2:
        moves = _halve(classes, v, a, shift, degree)
    else:
        moves = _round(classes, v, a, shift, degree)
    # the receivers gain v in D and lose one copy of the amalgam
    step = (1 << (v + 6)) - (1 << shift)
    for cls, out, move in zip(classes, blocks, moves):
        for key, y in move.items():
            left = cls[key] - y
            if left:
                cls[key] = left
            else:
                del cls[key]
            key += step
            if key & 63:
                cls[key] = y  # a new key: no type of cls has v in D yet
            else:  # the four set bits of D, lowest first
                d = key >> 6
                v1 = d & -d
                d ^= v1
                v2 = d & -d
                d ^= v2
                v3 = d & -d
                out.extend((v1.bit_length() - 1, v2.bit_length() - 1,
                            v3.bit_length() - 1, (d ^ v3).bit_length() - 1) * y)


def _detach_all(classes: list[dict[EdgeType, int]], blocks: list[bytearray | array],
                amalgams: list[tuple[range, bool, list[int]]], seed: int) -> None:
    """Detach every vertex of each amalgam in turn; ``amalgams`` lists
    (vertices, from_beta, degree).  A nonzero seed shuffles each amalgam's
    order, all with one generator."""
    rng = random.Random(seed) if seed else None
    for vertices, from_beta, degree in amalgams:
        order = list(vertices)
        if rng:
            rng.shuffle(order)
        for i, v in enumerate(order):
            _detach_vertex(classes, blocks, v, len(order) - i, from_beta, degree)
    if any(classes):
        raise RuntimeError("detachment left an amalgamated edge")


def generate_base(m: int, r: int, lam: int, seed: int = 0) -> Factorization:
    """An r-factorization of lam*K_m^4 by detaching m vertices from one amalgam."""
    m, r, lam = integers((m, r, lam))
    q = class_count(m, r, lam)  # raises unless (m, r, lam) is admissible
    classes = [{4 << 3 | 0: r * m // 4} for _ in range(q)]  # (empty, 4, 0)
    blocks = [block_array(m) for _ in range(q)]
    _detach_all(classes, blocks, [(range(1, m + 1), True, [r] * q)], seed)
    fact = Factorization(m, lam, r, blocks)
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
        cls = {key: x for key, x in zip(_PLAN_TYPES, quad) if x}
        classes += (dict(cls) for _ in range(count))
    blocks = [block_array(n, old) for old in base.classes]
    blocks += (block_array(n) for _ in range(k - q))
    _detach_all(classes, blocks, [(range(1, m + 1), True, [s - r] * q + [s] * (k - q)),
                                  (range(m + 1, n + 1), False, [s] * k)], seed)

    # the base was checked on entry and is immutable: check what is new
    outer = Factorization(n, p.lam, s, blocks)
    if factorization_issues(outer) or restriction_issues(base, outer):
        raise RuntimeError("detachment output fails verification")
    return EmbeddingCertificate(inner=base, outer=outer)
