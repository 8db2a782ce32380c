import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, strategies as st

from quadembed.errors import InputError
from quadembed.intervals import IntervalSystem


def test_two_tier_example_feasible():
    sys = IntervalSystem(60, [(0, 4)] * 5 + [(6, 8)] * 9)
    assert sys.lower_bound() == 54 and sys.upper_bound() == 92
    assert sys.feasible()
    xs = sys.solve()
    assert sys.satisfied_by(xs)


def test_forced_system_infeasible():
    entries = [(-2, 0)] + [(6, 6)] * 4 + [(-1, 0)] + [(3, 3)] * 8
    sys = IntervalSystem(45, entries)
    assert sys.lower_bound() == 48
    assert not sys.feasible()
    assert sys.solve() is None


def test_zero_target_all_slack():
    sys = IntervalSystem(0, [(-3, 5), (-1, 0), (0, 3)])
    assert sys.feasible()
    assert sys.solve() == [0, 0, 0]


def test_fill_decides_both_ways():
    # lower sum above the target: the starting fill already overshoots
    assert IntervalSystem(5, [(3, 4), (-2, 1), (3, 3)]).solve() is None
    # upper sum short of the target: a deficit is left at the top
    assert IntervalSystem(8, [(0, 2), (-1, 3), (1, 2)]).solve() is None
    assert IntervalSystem(7, [(0, 2), (-1, 3), (1, 2)]).solve() == [2, 3, 2]


def test_constructor_validation():
    with pytest.raises(InputError):
        IntervalSystem(5, [(0, -1)])
    with pytest.raises(InputError):
        IntervalSystem(5, [(3, 2)])
    with pytest.raises(InputError):
        IntervalSystem(-1, [(0, 2)])


@pytest.mark.parametrize("target, entries", [
    (3, [(0, Fraction(7, 2))]),   # a rational upper bound is floored by the caller
    (3, [(0, Fraction(4))]),      # even an integral Fraction
    (3, [(Fraction(1), 4)]),
    (3, [(0, 4.0)]),
    (3, [(0, True)]),
    (Fraction(3), [(0, 4)]),
    (3.0, [(0, 4)]),
])
def test_non_int_bounds_raise(target, entries):
    with pytest.raises(InputError, match="int"):
        IntervalSystem(target, entries)


def _random_system(rng: random.Random) -> IntervalSystem:
    n = rng.randint(1, 6)
    entries = []
    for _ in range(n):
        a = rng.randint(-10, 10)
        den = rng.choice((1, 2, 3))
        lo_num = max(a, 0) * den
        b = Fraction(rng.randint(lo_num, 10 * den), den)
        entries.append((a, floor(b)))
    return IntervalSystem(rng.randint(0, 30), entries)


def oracle_feasible(sys: IntervalSystem) -> bool:
    """Exhaustive enumeration of reachable sums, independent of the criterion."""
    sums = {0}
    for a, b in sys.entries:
        sums = {t + x for t in sums for x in range(max(a, 0), b + 1) if t + x <= sys.target}
        if not sums:
            return False
    return sys.target in sums


def test_oracle_agreement_seeded():
    rng = random.Random(202)
    agree_feasible = 0
    for _ in range(300):
        sys = _random_system(rng)
        assert sys.feasible() == oracle_feasible(sys)
        xs = sys.solve()
        assert (xs is not None) == sys.feasible()
        if xs is not None:
            agree_feasible += 1
            assert sys.satisfied_by(xs)
    assert agree_feasible > 50  # the generator hits both outcomes


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    entries = []
    for _ in range(n):
        a = draw(st.integers(-10, 10))
        den = draw(st.sampled_from((1, 2, 3)))
        b_num = draw(st.integers(max(a, 0) * den, 10 * den))
        entries.append((a, floor(Fraction(b_num, den))))
    return IntervalSystem(draw(st.integers(0, 30)), entries)


@given(systems())
def test_solve_matches_oracle(sys):
    assert sys.feasible() == oracle_feasible(sys)
    xs = sys.solve()
    assert (xs is not None) == sys.feasible()
    if xs is not None:
        assert sys.satisfied_by(xs)


@given(systems(), st.integers(0, 5), st.integers(0, 5))
def test_relaxation_monotonicity(sys, da, db):
    if not sys.feasible():
        return
    relaxed = IntervalSystem(
        sys.target, [(a - da, b + db) for a, b in sys.entries])
    assert relaxed.feasible()
