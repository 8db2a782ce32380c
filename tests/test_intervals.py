import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, strategies as st

from quadembed.errors import InputError
from quadembed.intervals import IntervalSystem

from conftest import expand, feasible, runs, satisfied_by


def test_two_tier_example_feasible():
    sys = IntervalSystem(60, runs([(0, 4)] * 5 + [(6, 8)] * 9))
    assert sys.lower_bound() == 54 and sys.upper_bound() == 92
    assert feasible(sys)
    xs = sys.solve()
    assert satisfied_by(sys, xs)


def test_forced_system_infeasible():
    entries = [(-2, 0)] + [(6, 6)] * 4 + [(-1, 0)] + [(3, 3)] * 8
    sys = IntervalSystem(45, runs(entries))
    assert sys.lower_bound() == 48
    assert not feasible(sys)
    assert sys.solve() is None


def test_zero_target_all_slack():
    sys = IntervalSystem(0, runs([(-3, 5), (-1, 0), (0, 3)]))
    assert feasible(sys)
    assert expand(sys.solve()) == [0, 0, 0]


def test_fill_decides_both_ways():
    # lower sum above the target: the starting fill already overshoots
    assert IntervalSystem(5, runs([(3, 4), (-2, 1), (3, 3)])).solve() is None
    # upper sum short of the target: a deficit is left at the top
    assert IntervalSystem(8, runs([(0, 2), (-1, 3), (1, 2)])).solve() is None
    assert expand(IntervalSystem(7, runs([(0, 2), (-1, 3), (1, 2)])).solve()) == [2, 3, 2]


def test_fill_splits_a_run_in_three():
    # two entries raised to b, one partial, two left at max(a, 0) = 0
    # (a run of count 0 stands for no entry and yields no run)
    assert IntervalSystem(7, [(5, -1, 3), (0, 2, 9)]).solve() == [(2, 3), (1, 1), (2, 0)]


def test_constructor_validation():
    with pytest.raises(InputError):
        IntervalSystem(5, [(1, 0, -1)])
    with pytest.raises(InputError):
        IntervalSystem(5, [(1, 3, 2)])
    with pytest.raises(InputError):
        IntervalSystem(-1, [(1, 0, 2)])
    with pytest.raises(InputError, match="count -1 is negative"):
        IntervalSystem(5, [(-1, 0, 2)])


@pytest.mark.parametrize("target, entries", [
    (3, [(1, 0, Fraction(7, 2))]),   # a rational upper bound is floored by the caller
    (3, [(1, 0, Fraction(4))]),      # even an integral Fraction
    (3, [(1, Fraction(1), 4)]),
    (3, [(1, 0, 4.0)]),
    (3, [(1, 0, True)]),
    (Fraction(3), [(1, 0, 4)]),
    (3.0, [(1, 0, 4)]),
    (3, [(True, 0, 4)]),
    (3, [(1.0, 0, 4)]),
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
    return IntervalSystem(rng.randint(0, 30), runs(entries))


def oracle_feasible(sys: IntervalSystem) -> bool:
    """Exhaustive enumeration of reachable sums, independent of the criterion."""
    sums = {0}
    for a, b in expand(sys.runs):
        sums = {t + x for t in sums for x in range(max(a, 0), b + 1) if t + x <= sys.target}
        if not sums:
            return False
    return sys.target in sums


def test_oracle_agreement_seeded():
    rng = random.Random(202)
    agree_feasible = 0
    for _ in range(300):
        sys = _random_system(rng)
        assert feasible(sys) == oracle_feasible(sys)
        xs = sys.solve()
        assert (xs is not None) == feasible(sys)
        if xs is not None:
            agree_feasible += 1
            assert satisfied_by(sys, xs)
    assert agree_feasible > 50  # the generator hits both outcomes


@st.composite
def systems(draw, max_count=3, max_target=30):
    """Runs with counts from 0, some with a == b or a < 0, and a target."""
    n = draw(st.integers(1, 4))
    entries = []
    for _ in range(n):
        count = draw(st.integers(0, max_count))
        a = draw(st.integers(-10, 10))
        den = draw(st.sampled_from((1, 2, 3)))
        b_num = draw(st.integers(max(a, 0) * den, 10 * den))
        b = draw(st.sampled_from((floor(Fraction(b_num, den)), max(a, 0))))
        entries.append((count, min(a, b), b))
    return IntervalSystem(draw(st.integers(0, max_target)), entries)


@given(systems())
def test_solve_matches_oracle(sys):
    assert feasible(sys) == oracle_feasible(sys)
    xs = sys.solve()
    assert (xs is not None) == feasible(sys)
    if xs is not None:
        assert satisfied_by(sys, xs)


def _entry_fill(target: int, entries) -> list[int] | None:
    """The fill one entry at a time: start at max(a, 0), raise in index order."""
    xs = [max(a, 0) for a, _ in entries]
    deficit = target - sum(xs)
    if deficit < 0:
        return None
    for i, (_, b) in enumerate(entries):
        take = min(b - xs[i], deficit)
        xs[i] += take
        deficit -= take
    return None if deficit else xs


@given(systems(max_count=20, max_target=300))
def test_run_fill_matches_entry_fill(sys):
    xs = sys.solve()
    assert (None if xs is None else expand(xs)) == _entry_fill(sys.target, expand(sys.runs))
    if xs is not None:
        assert all(count > 0 for count, _ in xs)
        assert len(xs) <= 3 * len(sys.runs)


@given(systems(), st.integers(0, 5), st.integers(0, 5))
def test_relaxation_monotonicity(sys, da, db):
    if not feasible(sys):
        return
    relaxed = IntervalSystem(
        sys.target, [(count, a - da, b + db) for count, a, b in sys.runs])
    assert feasible(relaxed)
