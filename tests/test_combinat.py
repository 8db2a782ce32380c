from math import comb

from conftest import identity_a, identity_b, identity_c


def test_binomial_values():
    assert comb(8, 4) == 70
    assert comb(5, 3) == 10
    assert comb(3, 4) == 0  # the package relies on C(a, b) = 0 for b > a
    assert comb(7, 0) == 1


def test_identity_a_worked_example():
    # 126 = 15 + 60 + 45 + 6 + 0 for (m, n) = (6, 9)
    assert comb(9, 4) == 126
    assert comb(6, 4) == 15
    assert 3 * comb(6, 3) == 60
    assert comb(6, 2) * comb(3, 2) == 45
    assert 6 * comb(3, 3) == 6
    assert identity_a(6, 9)


def test_identity_b_worked_example():
    # 56 = 10 + 3*10 + 5*3 + 1 for (m, n) = (6, 9)
    assert identity_b(6, 9)
    assert comb(8, 3) == 10 + 30 + 15 + 1


def test_identity_c_worked_example():
    # 6*(35 - 10) = 120 + 30 + 0 for (m, n) = (6, 8)
    assert identity_c(6, 8)
    assert 6 * (comb(7, 3) - comb(5, 3)) == 150


def test_identities_smallest_cases():
    assert identity_a(4, 5)
    assert identity_b(4, 5)


def test_identities_exhaustive_to_100():
    for m in range(1, 100):
        for n in range(m + 1, 101):
            assert identity_a(m, n)
            assert identity_b(m, n)
            assert identity_c(m, n)
