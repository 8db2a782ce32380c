from fractions import Fraction
from math import ceil, floor

import pytest

from quadembed.bounds import AmalgamCase, global_bounds, per_color_bounds, sign_case, tier_bounds
from quadembed.errors import InputError
from quadembed.params import EmbeddingParams, TheoremCase, check_conditions, color_counts

from conftest import expand, fraction_bounds, runs, sweep_params


def _floors(p):
    """(iota_i, floor(rhop_i), floor(rho_i)) of each tier that has colors."""
    return [x for count, iota, rho, rhop in fraction_bounds(p) if count
            for x in (iota, floor(rhop), floor(rho))]


def test_global_bounds_table_rows():
    assert _floors(EmbeddingParams(6, 8, 2, 5, 1)) == [4, 5, 6, 10, 10, 10]
    assert _floors(EmbeddingParams(8, 16, 1, 1, 1)) == [-4, -1, 0, 0, 2, 2]
    assert _floors(EmbeddingParams(9, 12, 4, 11, 1)) == [15, 19, 21, 33, 33, 33]


def test_global_bounds_single_tier_when_counts_match():
    p = EmbeddingParams(6, 8, 2, 7, 1)
    (q, *_), (new_colors, *_) = fraction_bounds(p)
    assert (q, new_colors) == (5, 0)
    assert _floors(p) == [8, 9, 10]


def test_global_bounds_is_the_checked_tier_table():
    # one function under two names: the benchmark calls and traces global_bounds
    assert global_bounds is tier_bounds


def test_global_bounds_rejects_bad_input():
    with pytest.raises(InputError):
        global_bounds(EmbeddingParams(6, 8, 5, 2, 1))  # s < r
    with pytest.raises(InputError, match="k - q = -21 is negative"):
        global_bounds(EmbeddingParams(8, 9, 1, 4, 1))  # k < q
    with pytest.raises(InputError):
        global_bounds(EmbeddingParams(5, 8, 2, 5, 1))  # inadmissible inner
    # the tier table that per-color bounds read raises on inadmissible input
    # too, even where 4 | rm would make iota integral: (8, 10, 2, 4, 1) has 2
    # not dividing C(9, 3)
    for p in (EmbeddingParams(5, 8, 2, 5, 1), EmbeddingParams(8, 10, 2, 4, 1)):
        with pytest.raises(InputError, match="not admissible"):
            tier_bounds(p)


def test_per_color_bounds_examples():
    # (e_j, iota_ij, 2 rho_ij) per color: the old tier first, then the new one
    bounds = expand(per_color_bounds(tier_bounds(EmbeddingParams(6, 8, 2, 5, 1)),
                                   runs([4] * 5 + [10] * 2)))
    assert bounds[0] == (4, 3, 2 * Fraction(3))
    bounds = expand(per_color_bounds(tier_bounds(EmbeddingParams(6, 9, 2, 4, 1)),
                                   runs([4] * 5 + [6] * 9)))
    assert bounds[0] == (4, -2, 2 * Fraction(0))
    assert bounds[5] == (6, 3, 2 * Fraction(3))


def test_per_color_bounds_rejects_negative_count():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    with pytest.raises(InputError, match="nonnegative"):
        per_color_bounds(tier_bounds(p), runs([4] * 5 + [-1, 10]))
    with pytest.raises(InputError, match="nonnegative"):
        per_color_bounds(tier_bounds(p), [(8, 4), (-1, 4)])
    with pytest.raises(InputError, match="expected 7 e-values, got 6"):
        per_color_bounds(tier_bounds(p), runs([4] * 6))


def test_per_color_bounds_splits_a_run_at_the_tier_boundary():
    # q = 5 old colors: one run of 7 becomes 5 old and 2 new, a count-0 run none
    p = EmbeddingParams(6, 8, 2, 5, 1)
    (_, c1, d1), (_, c2, d2) = tier_bounds(p)
    assert per_color_bounds(tier_bounds(p), [(3, 4), (0, 9), (4, 4)]) == [
        (3, 4, c1 - 8, d1 - 12), (2, 4, c1 - 8, d1 - 12), (2, 4, c2 - 8, d2 - 12)]


def test_sign_case_examples():
    def case(*tup):
        return sign_case(tier_bounds(EmbeddingParams(*tup)))

    assert case(6, 8, 2, 5, 1) is AmalgamCase.BOTH_FLOORS
    assert case(5, 8, 4, 5, 1) is AmalgamCase.NEW_FLOOR
    assert case(8, 16, 1, 1, 1) is AmalgamCase.OLD_PINNED_THRESHOLD
    assert case(16, 66, 1, 96, 1) is AmalgamCase.FREE_RANGE  # k = q = 455
    assert case(6, 8, 2, 5, 1).code == "5.2"
    # k = q with 2 c_1 < d_1 <= 3 c_1: tiers (5, 90, 186), (0, 99, 198), N1-N8 hold
    assert case(6, 12, 2, 33, 1) is AmalgamCase.NEW_FLOOR
    # k = q with rhop_1 = c_1 / 2 = 0: synthetic, as no admissible tuple with
    # n <= 80, r <= s <= 40, lam <= 4 has it
    assert sign_case([(5, 0, 4), (0, 0, 0)]) is AmalgamCase.NEW_FLOOR


def test_tier_bounds_names_only_the_failing_condition():
    # (4, 8, 2, 1, 2): s < r, while k - q = 69 > 0
    with pytest.raises(InputError) as exc:
        tier_bounds(EmbeddingParams(4, 8, 2, 1, 2))
    assert str(exc.value) == "bounds need s >= r, got r=2, s=1"
    # (8, 9, 1, 4, 1): s > r, k - q = -21
    with pytest.raises(InputError) as exc:
        tier_bounds(EmbeddingParams(8, 9, 1, 4, 1))
    assert str(exc.value) == "new-tier color count k - q = -21 is negative"


def _passing_in_scope(n_hi=25, r_hi=8, s_hi=8, lam_hi=2):
    for p in sweep_params(n_hi, r_hi, s_hi, lam_hi):
        rep = check_conditions(p)
        if rep.all_hold() and rep.theorem_case is not TheoremCase.OUT_OF_SCOPE:
            yield p


def test_bound_chain_invariants_over_sweep():
    seen_rs = False
    for p in _passing_in_scope(n_hi=60, r_hi=20, s_hi=20, lam_hi=3):
        (_, iota1, rho1, rhop1), (new_colors, iota2, rho2, rhop2) = fraction_bounds(p)
        assert rho1 >= 0
        assert iota1 <= rhop1 <= rho1
        if new_colors:
            assert iota2 > iota1
            assert rho2 > rho1
            assert rhop2 > rhop1
            assert iota2 <= rhop2 <= rho2
        # sign equivalences of the global parameters
        m, n, r, s = p.m, p.n, p.r, p.s
        assert (iota1 >= 0) == (n * s <= (2 * s - r) * m)
        assert (rhop1 >= 0) == (n * s <= (4 * s - 3 * r) * m)
        if new_colors:
            assert (iota2 >= 0) == (n <= 2 * m)
            assert (rhop2 >= 0) == (n <= 4 * m)
        if r == s:
            seen_rs = True
            assert rho1 == 0 and rhop1 < 0
            _, c, d = tier_bounds(p)[0]  # an old color: iota = c - 2e, 2 rho = d - 3e
            for e_j in range(0, 4):
                iota, two_rho = c - 2 * e_j, d - 3 * e_j
                assert iota < 0
                assert two_rho <= 0 and (two_rho == 0) == (e_j == 0)
    assert seen_rs, "sweep never exercised the r = s regime"


def test_per_color_equivalences_over_sweep():
    for p in _passing_in_scope(n_hi=20, r_hi=6, s_hi=6, lam_hi=1):
        q, k = color_counts(p)
        # index of the first color of each tier in an e-list
        tiers = [(j, *bounds) for j, (count, *bounds) in zip((0, q), fraction_bounds(p))
                 if count]
        for j, iota_i, rho_i, rhop_i in tiers:
            for e_j in range(0, floor(rho_i) + 3):
                _, iota, two_rho = expand(per_color_bounds(tier_bounds(p), runs([e_j] * k)))[j]
                assert (two_rho >= 0) == (e_j <= rho_i)
                assert (iota >= 0) == (e_j <= rhop_i)
                assert (two_rho >= 2 * iota) == (e_j >= iota_i)


def test_six_sign_patterns_partition_the_sweep():
    seen = set()
    for p in _passing_in_scope(n_hi=30, r_hi=10, s_hi=10, lam_hi=2):
        (_, iota1, _, rhop1), (new_colors, iota2, _, rhop2) = fraction_bounds(p)
        if not new_colors:
            continue
        patterns = {
            AmalgamCase.FREE_RANGE: iota2 <= 0 and rhop2 < 0,
            AmalgamCase.BOTH_FLOORS: 0 <= iota1 and 0 <= rhop1,
            AmalgamCase.NEW_FLOOR: iota1 < 0 <= iota2 and 0 <= rhop1,
            AmalgamCase.OLD_PINNED_NEW_FLOOR:
                iota1 < 0 < iota2 and rhop1 < 0 <= rhop2,
            AmalgamCase.THRESHOLD_SPLIT: iota2 < 0 and 0 <= rhop1,
            AmalgamCase.OLD_PINNED_THRESHOLD:
                iota2 <= 0 and rhop1 < 0 <= rhop2,
        }
        matches = [case for case, hit in patterns.items() if hit]
        assert len(matches) == 1, (p, matches)
        assert sign_case(tier_bounds(p)) is matches[0]
        seen.add(matches[0])
    assert AmalgamCase.BOTH_FLOORS in seen and AmalgamCase.NEW_FLOOR in seen


def _fraction_global_bounds(p):
    """The global bounds as Fraction formulas, written out independently."""
    sm, sn, rm = p.s * p.m, p.s * p.n, p.r * p.m
    old = (Fraction(sm) - Fraction(sn, 2) - Fraction(rm, 2), Fraction(sm - rm, 3),
           Fraction(sm, 2) - Fraction(sn, 8) - Fraction(3 * rm, 8))
    new = (Fraction(sm) - Fraction(sn, 2), Fraction(sm, 3),
           Fraction(sm, 2) - Fraction(sn, 8))
    return old, new


def _fraction_per_color(p, old, e_j):
    """(iota_ij, rho_ij) as Fraction formulas, written out independently."""
    sm, sn, rm = p.s * p.m, p.s * p.n, p.r * p.m
    if old:
        return (Fraction(sm) - Fraction(sn, 4) - 2 * e_j - Fraction(3 * rm, 4),
                Fraction(sm, 2) - Fraction(3 * e_j, 2) - Fraction(rm, 2))
    return (Fraction(sm) - Fraction(sn, 4) - 2 * e_j,
            Fraction(sm, 2) - Fraction(3 * e_j, 2))


def test_iota_integrality_over_sweep():
    checked = 0
    for p in _passing_in_scope(n_hi=20, r_hi=8, s_hi=8, lam_hi=2):
        (_, *got_old), (new_colors, *got_new) = fraction_bounds(p)
        assert all(isinstance(x, int) for row in global_bounds(p) for x in row)
        old, new = _fraction_global_bounds(p)
        assert tuple(got_old) == old
        assert new_colors >= 0 and tuple(got_new) == new
        q, k = color_counts(p)
        assert all(isinstance(x, int) for run in per_color_bounds(tier_bounds(p), runs([1] * k))
                   for x in run)
        # the integer tier form (c, d) and per_color_bounds against the
        # Fraction formula over the whole master range [max(iota_i, 0), floor(rho_i)]
        tiers = tier_bounds(p)
        assert [count for count, _, _ in tiers] == [q, k - q]
        for j, (count, c, d), (iota_i, rho_i, _) in zip((0, q), tiers, (old, new)):
            for e_j in range(max(int(iota_i), 0), floor(rho_i) + 1):
                iota, rho = _fraction_per_color(p, j == 0, e_j)
                assert (c - 2 * e_j, d - 3 * e_j) == (iota, 2 * rho)
                if count:  # color j is the tier's first
                    bounds = expand(per_color_bounds(tier_bounds(p), runs([e_j] * k)))[j]
                    assert all(isinstance(x, int) for x in bounds)
                    assert bounds == (e_j, iota, 2 * rho)
                checked += 1
    assert checked > 5_000
