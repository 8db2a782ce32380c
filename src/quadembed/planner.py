"""Per-color planning of the amalgam coloring.

A plan assigns every color j a quadruple (e_j, f_j, g_j, h_j): how many
crossing subsets with exactly 3, 2, 1, 0 old vertices the class will carry.
The totals are forced by counting:

    e = lam (n-m) C(m,3)   f = lam C(m,2) C(n-m,2)
    g = lam m C(n-m,3)     h = lam C(n-m,4)

Planning happens in two interval-sum solves.  First the e_j are chosen
inside per-tier intervals dictated by the case tag (see bounds.AmalgamCase);
the threshold cases split further into three subcases by comparing e against
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
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from dataclasses import dataclass
from math import ceil, comb, floor

from .bounds import AmalgamCase, global_bounds, per_color_bounds, sign_case, tier_bounds
from .errors import ConditionsFailed, InputError, PlanInfeasible
from .intervals import IntervalSystem
from .params import ConditionReport, EmbeddingParams, check_conditions, color_counts


# "general" for the case discipline, "fallback" for the exact master-range e-solve
PLANNING_PATHS = ("general", "fallback")


@dataclass(frozen=True)
class AmalgamPlan:
    """What planning chose; the case and subcase follow from the parameters."""

    params: EmbeddingParams
    via: str  # one of PLANNING_PATHS
    e: tuple[int, ...]
    f: tuple[int, ...]
    g: tuple[int, ...]
    h: tuple[int, ...]

    @property
    def case(self) -> AmalgamCase:
        return _e_intervals(self.params)[0]

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


def _e_intervals(p: EmbeddingParams):
    """(case, subcase, old, new): the integer interval (lo, hi) of each tier's e_j.

    The one place that knows the case discipline.  The threshold cases split
    into subcases by comparing e with the floor/ceil threshold sums.  With no
    new colors ``new`` is None.  Raises InputError when p has no bounds.
    """
    b = global_bounds(p)
    q, k = color_counts(p)
    case, subcase, e_total = sign_case(b), None, totals(p)[0]
    if case is AmalgamCase.FREE_RANGE:
        tiers = (0, b.rho1), (0, b.rho2)
    elif case is AmalgamCase.BOTH_FLOORS:
        tiers = (b.iota1, b.rhop1), (b.iota2, b.rhop2)
    elif case is AmalgamCase.NEW_FLOOR:
        tiers = (0, b.rhop1), (b.iota2, b.rhop2)
    elif case is AmalgamCase.OLD_PINNED_NEW_FLOOR:
        tiers = (0, 0), (b.iota2, b.rhop2)
    elif case is AmalgamCase.THRESHOLD_SPLIT:
        t_lo = q * floor(b.rhop1) + (k - q) * floor(b.rhop2)
        t_hi = q * ceil(b.rhop1) + (k - q) * ceil(b.rhop2)
        if e_total <= t_lo:
            subcase, tiers = "i", ((0, b.rhop1), (0, b.rhop2))
        elif e_total >= t_hi:
            subcase, tiers = "ii", ((ceil(b.rhop1), b.rho1), (ceil(b.rhop2), b.rho2))
        else:
            subcase, tiers = "iii", ((floor(b.rhop1), ceil(b.rhop1)),
                                     (floor(b.rhop2), ceil(b.rhop2)))
    else:  # OLD_PINNED_THRESHOLD
        t_lo = (k - q) * floor(b.rhop2)
        t_hi = (k - q) * ceil(b.rhop2)
        if e_total <= t_lo:
            subcase, tiers = "i", ((0, 0), (0, b.rhop2))
        elif e_total >= t_hi:
            subcase, tiers = "ii", ((0, b.rho1), (ceil(b.rhop2), b.rho2))
        else:
            subcase, tiers = "iii", ((0, 0), (floor(b.rhop2), ceil(b.rhop2)))
    # an integer e_j <= hi exactly when e_j <= floor(hi): floor once per tier;
    # with no new colors the tier-2 bounds are None and no color uses them
    old, new = [(lo, floor(hi)) if hi is not None else None for lo, hi in tiers]
    return case, subcase, old, new


def _solve(target: int, entries, name: str, where: str = "") -> list[int]:
    """Solve one interval system; a malformed or infeasible one is PlanInfeasible."""
    try:
        system = IntervalSystem(target, entries)
    except InputError as exc:
        raise PlanInfeasible(f"{name} malformed{where}: {exc}") from exc
    xs = system.solve()
    if xs is None:
        raise PlanInfeasible(
            f"{name} infeasible{where} (target {target} outside"
            f" [{system.lower_bound()}, {system.upper_bound()}])"
        )
    return xs


def plan_e(p: EmbeddingParams) -> list[int]:
    """Choose per-color e_j inside the intervals of the case discipline."""
    case, _, old, new = _e_intervals(p)
    q, k = color_counts(p)
    entries = [old] * q + [new] * (k - q)
    return _solve(totals(p)[0], entries, "e-system", f" for case {case.code}")


def plan_f(p: EmbeddingParams, e_list: list[int]) -> list[int]:
    """Choose per-color f_j inside [iota_ij, rho_ij]; raises PlanInfeasible."""
    entries = [(iota, two_rho // 2) for iota, two_rho in per_color_bounds(p, e_list)]
    return _solve(totals(p)[1], entries, "f-system")


def extend_plan(p: EmbeddingParams, e_list: list[int], f_list: list[int],
                via: str = "general") -> AmalgamPlan:
    """Force g_j and h_j from (e_j, f_j) and check every plan invariant."""
    if via not in PLANNING_PATHS:
        raise InputError(f"unknown planning path {via!r}")
    g_list, h_list = [], []
    for e_j, f_j, (iota, two_rho) in zip(e_list, f_list, per_color_bounds(p, e_list)):
        g_j = two_rho - 2 * f_j
        h_j = f_j - iota
        if g_j < 0:
            raise InputError(f"f_j={f_j} above rho for e_j={e_j}")
        if h_j < 0:
            raise InputError(f"f_j={f_j} below iota for e_j={e_j}")
        g_list.append(g_j)
        h_list.append(h_j)
    plan = AmalgamPlan(p, via, tuple(e_list), tuple(f_list), tuple(g_list), tuple(h_list))
    if not verify_plan(p, plan):
        raise InputError("constructed plan fails independent verification")
    return plan


def verify_plan(p: EmbeddingParams, plan: AmalgamPlan) -> bool:
    """Recompute the four totals and both degree laws from scratch."""
    try:
        q, k = color_counts(p)
    except InputError:
        return False
    cols = (plan.e, plan.f, plan.g, plan.h)
    if any(len(col) != k for col in cols):
        return False
    if any(x < 0 for col in cols for x in col):
        return False
    if tuple(sum(col) for col in cols) != totals(p):
        return False
    m, n, r, s = p.m, p.n, p.r, p.s
    for j in range(k):
        e_j, f_j, g_j, h_j = plan.e[j], plan.f[j], plan.g[j], plan.h[j]
        old_degree = 3 * e_j + 2 * f_j + g_j
        if old_degree != (m * (s - r) if j < q else s * m):
            return False
        if e_j + 2 * f_j + 3 * g_j + 4 * h_j != s * (n - m):
            return False
    return True


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
    """First e-list in the master range with a feasible f-system, or None.

    ``tiers`` holds (count, c, d) for the old and the new tier.  At a fixed
    tier sum, balanced values plus the fewest splits give the least lower sum
    for each odd count, so scanning the old-tier sum upwards and spending the
    cheaper splits first is exact.  Each tier's values come out ascending.
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
            return [v for fit in fits for v in sorted(fit.values.elements())]
    return None


def plan_e_exact(p: EmbeddingParams) -> list[int]:
    """``solve_e`` over the master range of p; PlanInfeasible proves no plan exists."""
    e_list = solve_e(tier_bounds(p), *totals(p)[:2])
    if e_list is None:
        raise PlanInfeasible("no e-multiset in the master range admits a feasible f-system")
    return e_list


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
    try:
        e_list, via = plan_e(p), "general"
        f_list = plan_f(p, e_list)
    except PlanInfeasible:
        e_list, via = plan_e_exact(p), "fallback"
        f_list = plan_f(p, e_list)
    return extend_plan(p, e_list, f_list, via)


def _header(p: EmbeddingParams, via: str) -> dict:
    """The header fields of a plan for p made along ``via``; InputError if p has no bounds.

    Only the general path has a subcase: the one its e-intervals fire.
    """
    q, k = color_counts(p)
    case, subcase, _, _ = _e_intervals(p)
    return {"m": p.m, "n": p.n, "r": p.r, "s": p.s, "lambda": p.lam, "q": q, "k": k,
            "case": case.code, "subcase": subcase if via == "general" else None,
            "via": via}


def render_plan(plan: AmalgamPlan) -> str:
    q, _ = color_counts(plan.params)
    header = _header(plan.params, plan.via).values()
    lines = [" ".join("-" if x is None else str(x) for x in header)]
    for j in range(len(plan.e)):
        tier = "old" if j < q else "new"
        lines.append(f"{j + 1} {tier} {plan.e[j]} {plan.f[j]} {plan.g[j]} {plan.h[j]}")
    return "\n".join(lines) + "\n"


def plan_to_json(plan: AmalgamPlan) -> str:
    q, _ = color_counts(plan.params)
    doc = {
        **_header(plan.params, plan.via),
        "colors": [
            {"j": j + 1, "tier": "old" if j < q else "new",
             "e": plan.e[j], "f": plan.f[j], "g": plan.g[j], "h": plan.h[j]}
            for j in range(len(plan.e))
        ],
    }
    return json.dumps(doc, indent=2)
