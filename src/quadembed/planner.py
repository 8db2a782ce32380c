"""Per-color planning of the amalgam coloring.

A plan assigns every color j a quadruple (e_j, f_j, g_j, h_j): how many
crossing subsets with exactly 3, 2, 1, 0 old vertices the class will carry.
The totals are forced by counting:

    e = lam (n-m) C(m,3)   f = lam C(m,2) C(n-m,2)
    g = lam m C(n-m,3)     h = lam C(n-m,4)

Planning happens in two interval-sum solves.  First the e_j are chosen
inside per-tier intervals that the sign regime of the integer tier table
(``bounds.tier_bounds``, ``bounds.sign_case``) picks, with no Fraction; the
threshold cases split further into three subcases by comparing e against
the floor/ceil threshold sums.  Then the f_j are chosen inside the surviving
per-color intervals [iota_ij, rho_ij].  The remaining counts are forced:

    g_j = 2 rho_ij - 2 f_j        h_j = f_j - iota_ij

which makes every class satisfy the degree laws

    3 e_j + 2 f_j + g_j           = m(s-r)   (old tier)   or  sm  (new tier)
    e_j + 2 f_j + 3 g_j + 4 h_j   = s(n-m)   (every color).

The general machinery can pick an e-coloring whose f-system is infeasible
(a parity effect: too many colors with sm + e_j odd when few {1 old, 3 new}
subsets exist).  On such a failure the planner solves for the e_j exactly
over the master range [max(iota_i, 0), floor(rho_i)], which holds the e_j of
every plan: the f-system is feasible exactly when sum_j max(iota_ij, 0) <= f
and at most K - 2f colors have 2 rho_ij odd, where K = sum_j 2 rho_ij is
fixed by e (see ``solve_e``).

Planning works on runs (count, value): ``count`` consecutive colors that
share a value.  Each tier's e_j come from one interval, so the e-system has
one run per tier, and each solve or bound evaluation turns a few runs into
a few more.  ``build_plan`` takes the tier table and the totals from p once
and hands them to ``plan_e``, ``plan_e_exact`` and ``plan_f``, which return
runs; ``extend_plan`` forces g_j and h_j once per run, and a plan is its rows
(count, e_j, f_j, g_j, h_j), which ``verify_plan`` re-checks in one pass
from p alone, independently of the table and runs that built them.  Only
``render_plan``, ``plan_to_json`` and ``detach`` write one entry per color.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from dataclasses import dataclass
from itertools import chain, repeat
from math import comb

from .bounds import AmalgamCase, per_color_bounds, sign_case, tier_bounds
from .errors import ConditionsFailed, InputError, PlanInfeasible
from .intervals import IntervalSystem
from .params import ConditionReport, EmbeddingParams, check_conditions, color_counts


# "general" for the case discipline, "fallback" for the exact master-range e-solve
PLANNING_PATHS = ("general", "fallback")


@dataclass(frozen=True)
class AmalgamPlan:
    """What planning chose: rows (count, e_j, f_j, g_j, h_j) in color order,
    none crossing the tier boundary q.  Case and subcase follow from params."""

    params: EmbeddingParams
    via: str  # one of PLANNING_PATHS
    rows: tuple[tuple[int, int, int, int, int], ...]
    # read-only views with one entry per color
    e, f, g, h = (property(lambda plan, i=i: tuple(chain.from_iterable(
        repeat(row[i], row[0]) for row in plan.rows))) for i in range(1, 5))

    @property
    def case(self) -> AmalgamCase:
        return sign_case(tier_bounds(self.params))

    @property
    def subcase(self) -> str | None:
        """The threshold subcase ("i", "ii" or "iii") on the general path, else None."""
        return _header(self.params, self.via)["subcase"]


def totals(p: EmbeddingParams) -> tuple[int, int, int, int]:
    """Crossing-subset totals (e, f, g, h) by shape."""
    m, n, lam = p.m, p.n, p.lam
    return (
        lam * (n - m) * comb(m, 3),
        lam * comb(m, 2) * comb(n - m, 2),
        lam * m * comb(n - m, 3),
        lam * comb(n - m, 4),
    )


def _e_intervals(tiers, e_total: int):
    """(case, subcase, old, new): the integer interval (lo, hi) of each tier's e_j.

    The one place that knows the case discipline, in integers from the tier
    table (count, c, d): floor(rho_i) = d // 3, rhop_i = c/2, iota_i = 2c - d.
    The pinned regimes 5.4 and 5.6 are 5.3 and 5.5 with rhop_1 < 0 read as 0,
    and a negative lower end iota_i reads as 0 in ``IntervalSystem``.  The
    threshold cases split into subcases by comparing e with the floor/ceil
    threshold sums.  Raises InputError when there is no regime.
    """
    case, subcase = sign_case(tiers), None
    (q, c1, d1), (new_colors, c2, d2) = tiers
    # floor and ceil of rhop_i, rhop_1 < 0 read as 0
    fl1, ce1 = (c1 // 2, -(-c1 // 2)) if c1 >= 0 else (0, 0)
    fl2, ce2 = c2 // 2, -(-c2 // 2)
    if case is AmalgamCase.FREE_RANGE:
        ranges = (2 * c1 - d1, d1 // 3), (2 * c2 - d2, d2 // 3)
    elif case not in (AmalgamCase.THRESHOLD_SPLIT, AmalgamCase.OLD_PINNED_THRESHOLD):
        ranges = (2 * c1 - d1, fl1), (2 * c2 - d2, fl2)
    elif e_total <= q * fl1 + new_colors * fl2:
        subcase, ranges = "i", ((0, fl1), (0, fl2))
    elif e_total >= q * ce1 + new_colors * ce2:
        subcase, ranges = "ii", ((ce1, d1 // 3), (ce2, d2 // 3))
    else:
        subcase, ranges = "iii", ((fl1, ce1), (fl2, ce2))
    return case, subcase, *ranges


def _solve(target: int, runs, name: str, where: str = "") -> list[tuple[int, int]]:
    """Solve one interval system; a malformed or infeasible one is PlanInfeasible."""
    try:
        system = IntervalSystem(target, runs)
    except InputError as exc:
        raise PlanInfeasible(f"{name} malformed{where}: {exc}") from exc
    xs = system.solve()
    if xs is None:
        raise PlanInfeasible(
            f"{name} infeasible{where} (target {target} outside"
            f" [{system.lower_bound()}, {system.upper_bound()}])"
        )
    return xs


def plan_e(tiers, e_total: int) -> list[tuple[int, int]]:
    """Runs (count, e_j) summing to ``e_total`` inside the intervals of the case discipline."""
    case, _, *intervals = _e_intervals(tiers, e_total)
    runs = [(count, *interval) for (count, _, _), interval in zip(tiers, intervals) if count]
    return _solve(e_total, runs, "e-system", f" for case {case.code}")


def plan_f(tiers, e_runs, f_total: int) -> list[tuple[int, int]]:
    """Runs (count, f_j) summing to ``f_total`` inside [iota_ij, rho_ij]; raises PlanInfeasible."""
    runs = [(count, iota, two_rho // 2)
            for count, _, iota, two_rho in per_color_bounds(tiers, e_runs)]
    return _solve(f_total, runs, "f-system")


def extend_plan(p: EmbeddingParams, tiers, e_runs, f_runs, via: str = "general") -> AmalgamPlan:
    """Force g_j and h_j from runs of e_j and f_j and check every plan invariant.

    The two run lists may split the colors at different places; g_j and h_j
    are forced once per piece of their common refinement, and equal
    neighbouring pieces make one row (never across q: see ``verify_plan``).
    """
    if via not in PLANNING_PATHS:
        raise InputError(f"unknown planning path {via!r}")
    bounds = per_color_bounds(tiers, e_runs)  # raises unless the e-runs cover the k colors
    k = tiers[0][0] + tiers[1][0]
    f_colors = sum(count for count, _ in f_runs if count > 0)
    if f_colors != k:
        raise InputError(f"expected {k} f-values, got {f_colors}")
    rows, f_iter, f_left = [], iter(f_runs), 0
    for count, e_j, iota, two_rho in bounds:
        while count > 0:
            while f_left <= 0:
                f_left, f_j = next(f_iter)
            g_j, h_j = two_rho - 2 * f_j, f_j - iota
            if g_j < 0:
                raise InputError(f"f_j={f_j} above rho_ij={two_rho}/2")
            if h_j < 0:
                raise InputError(f"f_j={f_j} below iota_ij={iota}")
            step = min(count, f_left)
            merged = rows.pop()[0] if rows and rows[-1][1:] == (e_j, f_j, g_j, h_j) else 0
            rows.append((merged + step, e_j, f_j, g_j, h_j))
            count -= step
            f_left -= step
    plan = AmalgamPlan(p, via, tuple(rows))
    if not verify_plan(p, plan):
        raise InputError("constructed plan fails independent verification")
    return plan


def verify_plan(p: EmbeddingParams, plan: AmalgamPlan) -> bool:
    """Recompute the four totals and both degree laws from the rows, from scratch.

    A row holds ``int`` entries, a count of at least 1, no negative entry and
    colors of one tier: old and new colors never share a quadruple, as their
    old-vertex degrees m(s - r) and sm differ.  The counts sum to k.
    """
    try:
        q, k = color_counts(p)
    except InputError:
        return False
    old_law, new_law, law = p.m * (p.s - p.r), p.s * p.m, p.s * (p.n - p.m)
    start = e = f = g = h = 0
    for row in plan.rows:
        if len(row) != 5:
            return False
        count, e_j, f_j, g_j, h_j = row
        # ints OR to a negative value exactly when one of them is negative
        if (not type(count) is type(e_j) is type(f_j) is type(g_j) is type(h_j) is int
                or count < 1 or e_j | f_j | g_j | h_j < 0 or start < q < start + count
                or 3 * e_j + 2 * f_j + g_j != (old_law if start < q else new_law)
                or e_j + 2 * f_j + 3 * g_j + 4 * h_j != law):
            return False
        e, f, g, h = e + count * e_j, f + count * f_j, g + count * g_j, h + count * h_j
        start += count
    return start == k and (e, f, g, h) == totals(p)


_TierFit = namedtuple("_TierFit", "values w lower odd splits cost")


def _tier_fit(count: int, c: int, d: int, total: int) -> _TierFit:
    """Balanced values y, y + 1 for ``count`` colors summing to ``total``.

    A color at e_j = v has iota_ij = c - 2v and 2 rho_ij = d - 3v.  Balanced
    values minimise the convex lower sum; the colors with 2 rho_ij odd all sit
    at w, and ``splits`` pairs of them may move to w - 1 and w + 1 inside the
    master range [max(2c - d, 0), floor(d/3)], each adding ``cost`` to it.
    """
    y, a = divmod(total, count) if count else (0, 0)
    w = y if (d + y) % 2 else y + 1
    odd = count - a if w == y else a
    phi = lambda v: max(c - 2 * v, 0)
    lower = (count - a) * phi(y) + a * phi(y + 1)
    splits = odd // 2 if max(2 * c - d, 0) <= w - 1 and w + 1 <= d // 3 else 0
    cost = phi(w - 1) + phi(w + 1) - 2 * phi(w)
    return _TierFit(Counter({y: count - a, y + 1: a}), w, lower, odd, splits, cost)


def solve_e(tiers: list[tuple[int, int, int]], e_total: int, f_total: int):
    """First e-list in the master range with a feasible f-system, as runs (count, e_j), or None.

    ``tiers`` holds (count, c, d) for the old and the new tier.  At a fixed
    tier sum, balanced values plus the fewest splits give the least lower sum
    for each odd count, so scanning the old-tier sum upwards and spending the
    cheaper splits first is exact.  Each tier's values come out ascending,
    one run per distinct value.
    A negative new-tier count (k < q: no plan exists) raises InputError.
    """
    (n1, c1, d1), (n2, c2, d2) = tiers
    if n2 < 0:
        raise InputError(f"new-tier color count k - q = {n2} is negative")
    odd_cap = n1 * d1 + n2 * d2 - 3 * e_total - 2 * f_total  # K - 2f
    for s1 in range(max(n1 * max(2 * c1 - d1, 0), e_total - n2 * (d2 // 3)),
                    min(n1 * (d1 // 3), e_total - n2 * max(2 * c2 - d2, 0)) + 1):
        fits = [_tier_fit(n1, c1, d1, s1), _tier_fit(n2, c2, d2, e_total - s1)]
        lower = sum(fit.lower for fit in fits)
        need = (max(sum(fit.odd for fit in fits) - odd_cap, 0) + 1) // 2
        for fit in sorted(fits, key=lambda fit: fit.cost):
            take = min(fit.splits, need)
            need -= take
            lower += take * fit.cost
            fit.values.update({fit.w: -2 * take, fit.w - 1: take, fit.w + 1: take})
        if need == 0 and lower <= f_total:
            return [(count, v) for fit in fits
                    for v, count in sorted(fit.values.items()) if count > 0]
    return None


def plan_e_exact(tiers, e_total: int, f_total: int) -> list[tuple[int, int]]:
    """``solve_e`` over the master range of ``tiers``; PlanInfeasible proves no plan exists."""
    e_runs = solve_e(tiers, e_total, f_total)
    if e_runs is None:
        raise PlanInfeasible("no e-multiset in the master range admits a feasible f-system")
    return e_runs


def build_plan(p: EmbeddingParams, report: ConditionReport | None = None,
               force_out_of_scope: bool = False) -> AmalgamPlan:
    """Full planning pipeline: general machinery, then the exact e-solve.

    Every tuple that passes N1-N8 is planned, in or out of scope; the scope
    (the report's ``theorem_case``) is only reported.  Every plan has its e_j in
    the master range, so a ``PlanInfeasible`` from the exact stage proves
    that no plan exists.  A tuple that fails N1-N8 raises ConditionsFailed.

    ``force_out_of_scope`` is ignored.  It stays only because the benchmark
    harness still passes it; the benchmark change of ROADMAP item 1 removes
    it.
    """
    report = report if report is not None else check_conditions(p)
    if not report.all_hold():
        raise ConditionsFailed("necessary conditions fail: " + ", ".join(report.failing()))
    tiers, (e_total, f_total, _, _) = tier_bounds(p), totals(p)
    try:
        e_runs, via = plan_e(tiers, e_total), "general"
        f_runs = plan_f(tiers, e_runs, f_total)
    except PlanInfeasible:
        e_runs, via = plan_e_exact(tiers, e_total, f_total), "fallback"
        f_runs = plan_f(tiers, e_runs, f_total)
    return extend_plan(p, tiers, e_runs, f_runs, via)


def _header(p: EmbeddingParams, via: str) -> dict:
    """The header fields of a plan for p made along ``via``; InputError if p has no bounds.

    Only the general path has a subcase: the one its e-intervals fire.
    """
    (q, _, _), (new_colors, _, _) = tiers = tier_bounds(p)
    case, subcase, _, _ = _e_intervals(tiers, totals(p)[0])
    return {"m": p.m, "n": p.n, "r": p.r, "s": p.s, "lambda": p.lam, "q": q,
            "k": q + new_colors, "case": case.code,
            "subcase": subcase if via == "general" else None, "via": via}


def _numbered_rows(plan: AmalgamPlan, q: int):
    """(first color, tier, count, e_j, f_j, g_j, h_j) per row; colors count from 1."""
    j = 1
    for count, *quad in plan.rows:
        yield (j, "old" if j <= q else "new", count, *quad)
        j += count


def render_plan(plan: AmalgamPlan) -> str:
    header = _header(plan.params, plan.via)
    lines = [" ".join("-" if x is None else str(x) for x in header.values())]
    for j, tier, count, *quad in _numbered_rows(plan, header["q"]):
        values = " ".join(map(str, quad))
        lines += (f"{i} {tier} {values}" for i in range(j, j + count))
    return "\n".join(lines) + "\n"


def plan_to_json(plan: AmalgamPlan) -> str:
    """The plan byte for byte as ``json.dumps(doc, indent=2)`` writes it,
    with doc the header fields and a "colors" list of one object per color.
    Only the header goes through ``json.dumps``; each row formats its colors
    itself, because with an indent ``json.dumps`` falls back to its pure
    Python encoder, 16x slower at k = 246,905."""
    header = _header(plan.params, plan.via)
    head = json.dumps(header, indent=2)  # ends "\n}"
    colors = []
    for j, tier, count, *quad in _numbered_rows(plan, header["q"]):
        body = "".join(f',\n      "{name}": {x}' for name, x in zip("efgh", quad))
        colors += (f'    {{\n      "j": {i},\n      "tier": "{tier}"{body}\n    }}'
                   for i in range(j, j + count))
    return head[:-2] + ',\n  "colors": [\n' + ",\n".join(colors) + "\n  ]\n}"
