import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache
from hashlib import sha256
from itertools import combinations_with_replacement
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from quadembed import detach, generate_base, planner, verify_certificate
from quadembed.bounds import AmalgamCase, per_color_bounds, tier_bounds
from quadembed.errors import ConditionsFailed, InputError, PlanInfeasible
from quadembed.factorization import read_factorization
from quadembed.params import EmbeddingParams, check_conditions, class_count, color_counts
from quadembed.planner import (
    build_plan,
    extend_plan,
    plan_e,
    plan_e_exact,
    plan_f,
    plan_to_json,
    render_plan,
    solve_e,
    totals,
    verify_plan,
)

from conftest import FIXTURES, amalgamate, expand, fraction_bounds, runs, sweep_params


def tampered(plan, **cols):
    """``plan`` with the named columns replaced, given one entry per color."""
    e, f, g, h = (cols.get(name, getattr(plan, name)) for name in "efgh")
    return replace(plan, rows=tuple(runs(zip(e, f, g, h))))


def color_tiers(q, k):
    """The tier index of each color: the q old colors (0) first, then the new ones (1)."""
    return [0] * q + [1] * (k - q)


def test_totals_examples():
    assert totals(EmbeddingParams(6, 9, 2, 4, 1)) == (60, 45, 6, 0)
    assert totals(EmbeddingParams(8, 16, 1, 1, 1)) == (448, 784, 448, 70)
    # n = m + 1 leaves nothing with 3 or 4 new vertices
    e, f, g, h = totals(EmbeddingParams(8, 9, 5, 8, 1))
    assert (g, h) == (0, 0) and e == 56


def test_plan_e_examples():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    e_list = expand(plan_e(tier_bounds(p), totals(p)[0]))
    assert Counter(e_list[:5]) == {4: 5} and Counter(e_list[5:]) == {10: 2}
    assert build_plan(p).subcase is None

    p = EmbeddingParams(8, 16, 1, 1, 1)
    e_list = expand(plan_e(tier_bounds(p), totals(p)[0]))
    assert Counter(e_list[:35]) == {0: 35}
    assert Counter(e_list[35:]) == {0: 196, 2: 224}
    assert build_plan(p).subcase == "i"

    p = EmbeddingParams(5, 8, 4, 5, 1)
    assert expand(plan_e(tier_bounds(p), totals(p)[0])) == [0] + [5] * 6


def test_plan_f_forced_example():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    f_list = expand(plan_f(tier_bounds(p), runs([4] * 5 + [10] * 2), totals(p)[1]))
    assert f_list == [3] * 5 + [0] * 2


def test_plan_f_rejects_bad_e_choice():
    # valid e-system solution whose f-system is infeasible (lower bound 48 > 45)
    p = EmbeddingParams(6, 9, 2, 4, 1)
    with pytest.raises(PlanInfeasible):
        plan_f(tier_bounds(p), runs([4, 0, 0, 0, 0, 8, 6, 6, 6, 6, 6, 6, 6, 6]), totals(p)[1])


def test_malformed_e_system_is_plan_infeasible():
    # d_2 = -3 gives the new tier the upper end floor(rho_2) = -1: a malformed
    # system is PlanInfeasible, not InputError, so build_plan falls through
    # to the exact stage instead of refusing the tuple as bad input (exit 3)
    with pytest.raises(PlanInfeasible) as exc:
        plan_e([(1, 0, 3), (1, -1, -3)], 1)
    assert str(exc.value) == "e-system malformed for case 5.1: run 1: upper bound -1 is negative"


def test_equal_regularity_forces_zero_f_on_old_colors():
    p = EmbeddingParams(8, 16, 1, 1, 1)
    plan = build_plan(p)
    q, _ = color_counts(p)
    assert all(x == 0 for x in plan.e[:q])
    assert all(x == 0 for x in plan.f[:q])
    assert all(x == 0 for x in plan.g[:q])
    # old classes are filled by all-new subsets: h_j = s(n-m)/4
    assert all(x == p.s * (p.n - p.m) // 4 for x in plan.h[:q])


def test_extend_plan_examples():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    plan = extend_plan(p, tier_bounds(p), runs([4] * 5 + [10] * 2), runs([3] * 5 + [0] * 2))
    assert plan.g == (0,) * 7 and plan.h == (0,) * 7

    p = EmbeddingParams(6, 9, 2, 4, 1)
    plan = build_plan(p)
    assert sum(plan.g) == 6 and sum(plan.h) == 0


def test_verify_plan_catches_perturbation():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    plan = build_plan(p)
    assert verify_plan(p, plan)
    bumped = tampered(plan, f=(plan.f[0] + 1,) + plan.f[1:])
    assert not verify_plan(p, bumped)
    # (e, f, g, h) += (1, -1, -1, 1) on a one-color row keeps both degree
    # laws and every entry nonnegative; only the four totals reject it
    p = EmbeddingParams(12, 28, 5, 9, 2)
    plan = build_plan(p)
    assert plan.rows[2] == (1, 22, 17, 8, 16)
    bad = replace(plan, rows=(*plan.rows[:2], (1, 23, 16, 7, 17), *plan.rows[3:]))
    assert not verify_plan(p, bad)


def test_verify_plan_rejects_negative_entries():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    plan = build_plan(p)
    bad = tampered(plan, e=(-1,) + plan.e[1:])
    assert not verify_plan(p, bad)
    # (f, g, h) += (1, -2, 1) on color 1 and -= on color 2 keeps the totals
    # and both degree laws, so only the sign check rejects g_1 = -2
    shift = lambda col, d: (col[0] + d, col[1] - d) + col[2:]
    bad = tampered(plan, f=shift(plan.f, 1), g=shift(plan.g, -2), h=shift(plan.h, 1))
    assert min(bad.g) < 0 and not verify_plan(p, bad)


def test_verify_plan_rejects_non_int_entries():
    # equal values of another type: a float or Fraction column, a bool entry
    p = EmbeddingParams(6, 8, 2, 5, 1)
    plan = build_plan(p)
    assert plan.rows == ((5, 4, 3, 0, 0), (2, 10, 0, 0, 0))
    for bad in (tampered(plan, e=tuple(map(float, plan.e))),
                tampered(plan, f=tuple(map(Fraction, plan.f))),
                tampered(plan, h=(False,) + plan.h[1:]),
                replace(plan, rows=((5.0, 4, 3, 0, 0), (2, 10, 0, 0, 0)))):
        assert not verify_plan(p, bad), bad.rows


def test_verify_plan_rejects_malformed_rows():
    p = EmbeddingParams(6, 8, 2, 5, 1)  # q = 5, k = 7
    plan = build_plan(p)
    old, new = (4, 3, 0, 0), (10, 0, 0, 0)
    assert verify_plan(p, replace(plan, rows=((2, *old), (3, *old), (2, *new))))
    # the first two break only the count rule: right totals, right laws
    for rows in (
        ((3, *old), (0, *old), (2, *old), (2, *new)),  # a count-0 row
        ((4, *old), (-1, *old), (2, *old), (2, *new)),  # a negative count
        ((5, *old), (1, *new)),  # counts sum to k - 1
        ((5, *old), (3, *new)),  # counts sum to k + 1
        ((4, *old), (2, *old), (1, *new)),  # a row crossing q
    ):
        assert not verify_plan(p, replace(plan, rows=rows)), rows
    # a row of four entries, and a tuple with no color counts
    assert not verify_plan(p, replace(plan, rows=((5, 4, 3, 0), (2, 10, 0, 0, 0))))
    inadmissible = EmbeddingParams(5, 8, 2, 5, 1)
    assert not verify_plan(inadmissible, replace(plan, params=inadmissible))
    # an old and a new color never share a row: their old-vertex degrees
    # m(s - r) and sm differ when r >= 1, so the crossing rule rejects
    # nothing that a per-color check would accept (the totals reject the
    # last three as well)


def test_build_plan_gates():
    with pytest.raises(ConditionsFailed, match="necessary conditions fail: N6"):
        build_plan(EmbeddingParams(7, 10, 4, 6, 1))
    plan = build_plan(EmbeddingParams(8, 9, 5, 8, 1))  # out of scope
    assert plan.e == (8,) * 7 and plan.f == (0,) * 7
    assert verify_plan(EmbeddingParams(8, 9, 5, 8, 1), plan)


def test_build_plan_fallback_repairs_parity():
    # greedy e-choice leaves an odd color count exceeding the {1 old, 3 new}
    # supply; the exact parity-aware e-solve must find a workable multiset
    p = EmbeddingParams(12, 16, 1, 2, 2)
    plan = build_plan(p)
    assert plan.via == "fallback"
    assert verify_plan(p, plan)
    assert _embeds(p, plan)


def test_build_plan_derives_one_tier_table(monkeypatch):
    # build_plan derives the tier table and the totals once and hands them to
    # every stage, on either path; verify_plan recomputes (q, k) and the
    # totals from p on its own, so (q, k) and the totals are each taken twice
    # (once for planning, once in the re-check), with one class_count per
    # triple each time
    calls = Counter()

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name, fn in (("tier_bounds", tier_bounds), ("color_counts", color_counts),
                     ("class_count", class_count), ("totals", totals)):
        for module in [m for key, m in sys.modules.items() if key.startswith("quadembed")]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, count(name, fn))
    for tup, via in (((12, 28, 5, 9, 2), "general"), ((12, 16, 1, 2, 2), "fallback")):
        calls.clear()
        assert build_plan(EmbeddingParams(*tup)).via == via
        assert calls == {"tier_bounds": 1, "color_counts": 2, "class_count": 4, "totals": 2}


def test_build_plan_fallback_at_higher_multiplicity():
    p = EmbeddingParams(12, 16, 1, 2, 4)
    plan = build_plan(p)
    assert plan.via == "fallback"
    assert verify_plan(p, plan)
    assert _embeds(p, plan)


def _embeds(p, plan) -> bool:
    """Detach the plan onto a generated base and verify the certificate."""
    return verify_certificate(detach(p, generate_base(p.m, p.r, p.lam), plan))


def _multiset_lists(values: list[int], slots: int, total: int):
    """All length-``slots`` multisets over ``values`` with the given sum."""
    if slots == 0:
        if total == 0:
            yield []
        return
    if not values:
        return
    v, rest = values[0], values[1:]
    lo = min(rest) if rest else None
    hi = max(rest) if rest else None
    for count in range(slots, -1, -1):
        remaining = total - count * v
        left = slots - count
        if left == 0:
            if remaining == 0:
                yield [v] * count
            continue
        if lo is None or not (left * lo <= remaining <= left * hi):
            continue
        for tail in _multiset_lists(rest, left, remaining):
            yield [v] * count + tail


def _fallback_candidates(p, q: int, k: int, e_total: int):
    """e-multisets within the master range, parity-friendly values first."""
    sm = p.s * p.m

    def tier_values(iota, rho):
        lo, hi = max(iota, 0), floor(rho)
        vals = list(range(lo, hi + 1))
        return sorted(vals, key=lambda v: ((sm + v) % 2, v))

    (_, iota1, rho1, _), (_, iota2, rho2, _) = fraction_bounds(p)
    vals1 = tier_values(iota1, rho1)
    if k == q:
        for ms in _multiset_lists(vals1, q, e_total):
            yield ms
        return
    vals2 = tier_values(iota2, rho2)
    if not vals1 or not vals2:
        return
    lo2, hi2 = (k - q) * min(vals2), (k - q) * max(vals2)
    for s1 in range(max(q * min(vals1), e_total - hi2),
                    min(q * max(vals1), e_total - lo2) + 1):
        for ms1 in _multiset_lists(vals1, q, s1):
            for ms2 in _multiset_lists(vals2, k - q, e_total - s1):
                yield ms1 + ms2


@cache
def _f_interval(p, tier, e_j) -> tuple[int, int]:
    _, c, d = tier_bounds(p)[tier]  # iota = c - 2 e_j, 2 rho = d - 3 e_j
    return max(c - 2 * e_j, 0), (d - 3 * e_j) // 2


def _f_system_feasible(p, e_list, q, k) -> bool:
    """The interval criterion of the f-system: sum max(iota, 0) <= f <= sum floor(rho)."""
    lower = upper = 0
    for (tier, e_j), count in Counter(zip(color_tiers(q, k), e_list)).items():
        lo, hi = _f_interval(p, tier, e_j)
        lower += count * lo
        upper += count * hi
    return lower <= totals(p)[1] <= upper


ORACLE_CAP = 2_000  # candidates the reference enumerator may try per tuple


def test_exact_e_solve_agrees_with_enumerator():
    from conftest import sweep_params

    resolved = unresolved = 0
    for p in sweep_params(n_hi=12, r_hi=8, s_hi=8, lam_hi=2):
        q, k = color_counts(p)
        if p.s < p.r or k < q:
            continue
        tiers, (e_total, f_total, _, _) = tier_bounds(p), totals(p)
        candidates = _fallback_candidates(p, q, k, e_total)
        for tried, e_list in enumerate(candidates):
            if tried == ORACLE_CAP:
                found = None
                break
            if _f_system_feasible(p, e_list, q, k):
                found = True
                break
        else:
            found = False  # every candidate tried
        if found is None:
            unresolved += 1
            continue
        resolved += 1
        if not found:
            with pytest.raises(PlanInfeasible):
                plan_e_exact(tiers, e_total, f_total)
            continue
        e_runs = plan_e_exact(tiers, e_total, f_total)
        plan = extend_plan(p, tiers, e_runs, plan_f(tiers, e_runs, f_total))
        assert verify_plan(p, plan)
    assert (resolved, unresolved) == (151, 19)


def _brute_force_e(tiers, e_total, f_total) -> bool:
    """Some e-list in the master range whose f-system is feasible?"""
    lists = []
    for count, c, d in tiers:
        values = range(max(2 * c - d, 0), d // 3 + 1)
        by_sum: dict[int, list] = {}
        for ms in combinations_with_replacement(values, count):
            by_sum.setdefault(sum(ms), []).append(ms)
        lists.append(by_sum)
    for s1, old_lists in lists[0].items():
        for old in old_lists:
            for new in lists[1].get(e_total - s1, []):
                if _tiers_feasible(tiers, old, new, f_total):
                    return True
    return False


def _tiers_feasible(tiers, old, new, f_total) -> bool:
    lower = upper = 0
    for (_, c, d), values in zip(tiers, (old, new)):
        lower += sum(max(c - 2 * v, 0) for v in values)
        upper += sum((d - 3 * v) // 2 for v in values)
    return lower <= f_total <= upper


_tier = st.tuples(st.integers(-3, 12), st.integers(0, 17))  # (c, d): values in 0..5


@settings(max_examples=500)
@given(old=_tier, new=_tier, n1=st.integers(1, 5), n2=st.integers(0, 5),
       data=st.data())
def test_solve_e_matches_brute_force(old, new, n1, n2, data):
    tiers = [(n1, *old), (n2, *new)]
    lo = sum(n * max(2 * c - d, 0) for n, c, d in tiers)
    hi = sum(n * (d // 3) for n, c, d in tiers)
    e_total = data.draw(st.integers(max(min(lo, hi) - 2, 0), max(lo, hi) + 2))
    f_total = data.draw(st.integers(0, 60))
    got = solve_e(tiers, e_total, f_total)
    assert (got is not None) == _brute_force_e(tiers, e_total, f_total)
    if got is not None:
        got = expand(got)
        old_vals, new_vals = got[:n1], got[n1:]
        assert len(new_vals) == n2 and sum(got) == e_total
        for (_, c, d), values in zip(tiers, (old_vals, new_vals)):
            assert all(max(2 * c - d, 0) <= v <= d // 3 for v in values)
        assert _tiers_feasible(tiers, old_vals, new_vals, f_total)


def test_extend_plan_rejects_f_outside_its_interval():
    # f_j above rho_ij leaves g_j < 0, below iota_ij h_j < 0: verify_plan rejects both
    p = EmbeddingParams(6, 8, 2, 5, 1)
    with pytest.raises(InputError, match="independent verification"):
        extend_plan(p, tier_bounds(p), runs([4] * 5 + [10] * 2), runs([4] * 5 + [0] * 2))
    with pytest.raises(InputError, match="independent verification"):
        extend_plan(p, tier_bounds(p), runs([4] * 5 + [10] * 2), runs([2] * 5 + [0] * 2))


def test_extend_plan_raises_when_verification_fails(monkeypatch):
    monkeypatch.setattr(planner, "verify_plan", lambda p, plan: False)
    p = EmbeddingParams(6, 8, 2, 5, 1)
    with pytest.raises(InputError, match="independent verification"):
        extend_plan(p, tier_bounds(p), runs([4] * 5 + [10] * 2), runs([3] * 5 + [0] * 2))


def test_extend_plan_merges_runs_of_any_boundaries():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    tiers = tier_bounds(p)
    plan = extend_plan(p, tiers, [(2, 4), (3, 4), (2, 10)], [(1, 3)] * 5 + [(1, 0), (1, 0)])
    assert plan == extend_plan(p, tiers, [(5, 4), (2, 10)], [(5, 3), (2, 0)])
    assert plan.rows == ((5, 4, 3, 0, 0), (2, 10, 0, 0, 0))
    with pytest.raises(InputError, match="expected 7 f-values, got 6"):
        extend_plan(p, tiers, [(5, 4), (2, 10)], [(5, 3), (1, 0)])
    with pytest.raises(InputError, match="expected 7 f-values, got 8"):
        extend_plan(p, tiers, [(5, 4), (2, 10)], [(5, 3), (3, 0)])  # one color over


def test_extend_plan_rejects_unknown_path():
    # the header and the JSON name the path, so only a known one may be rendered
    p = EmbeddingParams(5, 8, 4, 5, 1)
    tiers, e_runs = tier_bounds(p), runs([0] + [5] * 6)
    with pytest.raises(InputError, match="unknown planning path 'sporadic'"):
        extend_plan(p, tiers, e_runs, plan_f(tiers, e_runs, totals(p)[1]), via="sporadic")


# one tuple for each (case, subcase, path) that plans in the desk box
PLANNED_CASES = {
    ("5.1", None, "general"): (5, 21, 4, 12, 1),
    ("5.2", None, "general"): (6, 8, 2, 5, 1),
    ("5.3", None, "general"): (5, 8, 4, 5, 1),
    ("5.4", None, "general"): (7, 12, 4, 5, 1),
    ("5.5", "i", "general"): (5, 11, 4, 12, 1),
    ("5.5", "ii", "general"): (8, 30, 1, 12, 2),
    ("5.5", "iii", "general"): (8, 29, 1, 12, 1),
    ("5.6", "i", "general"): (8, 16, 1, 1, 1),
    ("5.6", "ii", "general"): (5, 19, 4, 12, 1),
    ("5.6", "iii", "general"): (6, 22, 2, 10, 1),
    ("5.2", None, "fallback"): (12, 16, 1, 2, 2),
}


# sha256(render_plan(build_plan(p)))[:16] beyond the desk box (k <= 7,308):
# the header line and one line per row
LARGE_PLAN_DIGESTS = {
    (8, 116, 1, 1, 1): "2bfa6a7d78aceb04",  # k = 246,905
    (6, 48, 2, 5, 1): "4344e49f9b75f99b",
    (12, 28, 5, 9, 2): "4c27082b0047b8f5",
}


@pytest.mark.parametrize("tup, digest", LARGE_PLAN_DIGESTS.items())
def test_large_plans_render_their_pinned_digest(tup, digest):
    text = render_plan(build_plan(EmbeddingParams(*tup)))
    assert sha256(text.encode()).hexdigest()[:16] == digest


def test_each_case_subcase_and_path_plans():
    for (case, subcase, via), tup in PLANNED_CASES.items():
        plan = build_plan(EmbeddingParams(*tup))
        assert (plan.case.code, plan.subcase, plan.via) == (case, subcase, via), tup
        header = render_plan(plan).split("\n", 1)[0].split()
        assert header[7:] == [case, subcase or "-", via], tup


def test_plan_json_shape():
    import json
    p = EmbeddingParams(6, 8, 2, 5, 1)
    doc = json.loads(plan_to_json(build_plan(p)))
    assert list(doc) == ["m", "n", "r", "s", "lambda", "q", "k", "case", "subcase", "via",
                         "rows"]
    assert doc["case"] == "5.2" and doc["q"] == 5 and doc["k"] == 7
    assert doc["rows"] == [
        {"first": 1, "last": 5, "tier": "old", "e": 4, "f": 3, "g": 0, "h": 0},
        {"first": 6, "last": 7, "tier": "new", "e": 10, "f": 0, "g": 0, "h": 0},
    ]


def _expand_rows(plan, rows):
    """The columns e..h that rows (first, last, tier, e, f, g, h) give, one
    entry per color, after checking that the rows tile 1..k in order, that
    none crosses q and that each names its tier."""
    q, k = color_counts(plan.params)
    cols, j = ([], [], [], []), 1
    for first, last, tier, *quad in rows:
        assert first == j <= last and not first <= q < last, (first, last)
        assert tier == ("old" if first <= q else "new"), (first, tier)
        for col, x in zip(cols, quad):
            col += [x] * (last - first + 1)
        j = last + 1
    assert j == k + 1
    return tuple(map(tuple, cols))


def test_plan_text_and_json_rows_expand_back_to_the_plan():
    # every desk plan with k <= 100, one desk plan per (case, subcase,
    # path), and the large plans: the text rows and the JSON rows each give
    # back plan.e .. plan.h, under the same header
    import json
    small = [p for p in sweep_params(n_hi=30, r_hi=12, s_hi=12, lam_hi=2)
             if check_conditions(p).all_hold() and color_counts(p)[1] <= 100]
    assert len(small) == 311
    for p in [*small, *(EmbeddingParams(*tup) for tup in PLANNED_CASES.values()),
              *(EmbeddingParams(*tup) for tup in LARGE_PLAN_DIGESTS)]:
        plan = build_plan(p)
        columns = (plan.e, plan.f, plan.g, plan.h)
        header, *lines = render_plan(plan).splitlines()
        text_rows = [(int(first), int(last), tier, *map(int, quad))
                     for first, last, tier, *quad in map(str.split, lines)]
        assert all(len(row) == 7 for row in text_rows), p
        assert _expand_rows(plan, text_rows) == columns, p
        doc = json.loads(plan_to_json(plan))
        assert doc.pop("rows") == [dict(zip(("first", "last", "tier", *"efgh"), row))
                                   for row in text_rows], p
        assert ["-" if x is None else str(x) for x in doc.values()] == header.split(), p


def test_case_code_with_subcase():
    plan = build_plan(EmbeddingParams(8, 16, 1, 1, 1))
    assert plan.case is AmalgamCase.OLD_PINNED_THRESHOLD
    assert plan.subcase == "i"


def test_threshold_subcase_iii_pins_iota_to_units():
    from quadembed.params import TheoremCase
    from conftest import sweep_params

    found = {AmalgamCase.THRESHOLD_SPLIT: 0, AmalgamCase.OLD_PINNED_THRESHOLD: 0}
    for p in sweep_params(n_hi=30, r_hi=12, s_hi=12, lam_hi=1):
        rep = check_conditions(p)
        if not rep.all_hold() or rep.theorem_case is TheoremCase.OUT_OF_SCOPE:
            continue
        tiers, e_total = tier_bounds(p), totals(p)[0]
        case, subcase, _, _ = planner._e_intervals(tiers, e_total)
        if case not in found or subcase != "iii":
            continue
        e_runs = plan_e(tiers, e_total)
        found[case] += 1
        q, _ = color_counts(p)
        bounds = expand(per_color_bounds(tiers, e_runs))
        for j, (e_j, iota, _) in enumerate(bounds):
            if case is AmalgamCase.OLD_PINNED_THRESHOLD and j < q:
                continue  # an old color, pinned at 0, below its own threshold
            if case is AmalgamCase.THRESHOLD_SPLIT:
                assert iota in (-1, 0, 1), (p, j, e_j)
            else:
                assert iota in (-1, 1), (p, j, e_j)
    assert all(found.values()), found


def test_conditions_hold_exactly_when_an_e_list_exists():
    # existence on the desk grid: over every admissible tuple, N1-N8 hold
    # exactly when the exact e-solve finds an e-list, and each found e-list
    # extends to a verified plan.  Where the conditions fail, solve_e itself
    # returns None, so no plan exists there (every plan's e_j lie in the
    # master range it scans).  tier_bounds refuses s < r and k < q, and N2
    # fails on every tuple it refuses.
    tuples = found = refused = 0
    for p in sweep_params(30, 12, 12, 2):
        tuples += 1
        try:
            tiers = tier_bounds(p)
        except InputError:
            assert not check_conditions(p).verdicts["N2"].holds, p
            refused += 1
            continue
        f_total = totals(p)[1]
        e_runs = solve_e(tiers, totals(p)[0], f_total)
        assert check_conditions(p).all_hold() == (e_runs is not None), p
        if e_runs is not None:
            found += 1
            # raises unless it verifies
            extend_plan(p, tiers, e_runs, plan_f(tiers, e_runs, f_total), "fallback")
    assert (tuples, found, refused) == (5416, 1783, 2930)


def test_fixture_chain_amalgamates_to_verified_plans():
    # the necessity half on the fixture chain intro_6 < intro_8 < intro_9:
    # amalgamating the new vertices of each embedding gives a plan
    levels = {v: read_factorization(FIXTURES / f"intro_{v}.txt") for v in (6, 8, 9)}
    for m, n in ((6, 8), (8, 9), (6, 9)):
        inner, outer = levels[m], levels[n]
        p = EmbeddingParams(m, n, inner.regularity, outer.regularity, 1)
        plan = replace(build_plan(p), rows=amalgamate(inner, outer))
        assert verify_plan(p, plan), (m, n, plan.rows)


def test_exact_e_solve_rejects_fewer_outer_than_inner_colors():
    # tier_bounds refuses k < q, where no plan can exist (N2 fails)
    from conftest import sweep_params
    rejected = 0
    for p in sweep_params(30, 12, 12, 2):
        q, k = color_counts(p)
        if k >= q:
            continue
        assert not check_conditions(p).verdicts["N2"].holds, p
        with pytest.raises(InputError, match="negative"):
            tier_bounds(p)
        rejected += 1
    assert rejected == 627
