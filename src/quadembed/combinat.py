"""Exact combinatorial kernel: binomials and counting identities.

All arithmetic in this package is exact (arbitrary-precision integers and
``fractions.Fraction``).  The inequalities decided downstream are sharp at
many boundary tuples, so floating point is banned everywhere.

The three identities split the 4-subsets (resp. 3-subsets, resp. vertex
degrees over crossing subsets) of an n-set by how many points they share
with a fixed m-subset.  They are used as internal oracles: each must hold
for every 1 <= m < n.
"""

from __future__ import annotations

from math import comb

from .errors import InputError


def binomial(a: int, b: int) -> int:
    """C(a, b), with C(a, b) = 0 whenever b > a or b < 0."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def _require_pair(m: int, n: int) -> None:
    if not (1 <= m < n):
        raise InputError(f"need 1 <= m < n, got m={m}, n={n}")


def identity_a(m: int, n: int) -> bool:
    """C(n,4) counted by the number of points a 4-subset shares with [m]."""
    _require_pair(m, n)
    lhs = binomial(n, 4)
    rhs = (
        binomial(m, 4)
        + (n - m) * binomial(m, 3)
        + binomial(m, 2) * binomial(n - m, 2)
        + m * binomial(n - m, 3)
        + binomial(n - m, 4)
    )
    return lhs == rhs


def identity_b(m: int, n: int) -> bool:
    """C(n-1,3) counted by the number of points a 3-subset shares with [m-1]."""
    _require_pair(m, n)
    lhs = binomial(n - 1, 3)
    rhs = (
        binomial(m - 1, 3)
        + (n - m) * binomial(m - 1, 2)
        + (m - 1) * binomial(n - m, 2)
        + binomial(n - m, 3)
    )
    return lhs == rhs


def identity_c(m: int, n: int) -> bool:
    """Total degree of [m] over crossing 4-subsets, counted two ways."""
    _require_pair(m, n)
    lhs = m * (binomial(n - 1, 3) - binomial(m - 1, 3))
    rhs = (
        3 * (n - m) * binomial(m, 3)
        + 2 * binomial(m, 2) * binomial(n - m, 2)
        + m * binomial(n - m, 3)
    )
    return lhs == rhs
