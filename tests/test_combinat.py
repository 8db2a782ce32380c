from hypothesis import given, strategies as st

from quadembed.combinat import binomial

from conftest import identity_a, identity_b, identity_c


def test_binomial_values():
    assert binomial(8, 4) == 70
    assert binomial(5, 3) == 10
    assert binomial(3, 4) == 0
    assert binomial(7, 0) == 1
    assert binomial(4, -1) == 0


def test_pascal_rule_exhaustive():
    for a in range(1, 201):
        for b in range(1, a + 1):
            assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


@given(st.integers(0, 500), st.integers(0, 500))
def test_binomial_symmetry(a, b):
    assert binomial(a, b) == binomial(a, a - b) if 0 <= b <= a else True


def test_identity_a_worked_example():
    # 126 = 15 + 60 + 45 + 6 + 0 for (m, n) = (6, 9)
    assert binomial(9, 4) == 126
    assert binomial(6, 4) == 15
    assert 3 * binomial(6, 3) == 60
    assert binomial(6, 2) * binomial(3, 2) == 45
    assert 6 * binomial(3, 3) == 6
    assert identity_a(6, 9)


def test_identity_b_worked_example():
    # 56 = 10 + 3*10 + 5*3 + 1 for (m, n) = (6, 9)
    assert identity_b(6, 9)
    assert binomial(8, 3) == 10 + 30 + 15 + 1


def test_identity_c_worked_example():
    # 6*(35 - 10) = 120 + 30 + 0 for (m, n) = (6, 8)
    assert identity_c(6, 8)
    assert 6 * (binomial(7, 3) - binomial(5, 3)) == 150


def test_identities_smallest_cases():
    assert identity_a(4, 5)
    assert identity_b(4, 5)


def test_identities_exhaustive_to_100():
    for m in range(1, 100):
        for n in range(m + 1, 101):
            assert identity_a(m, n)
            assert identity_b(m, n)
            assert identity_c(m, n)
