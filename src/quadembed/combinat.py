"""Exact combinatorial kernel: the binomial coefficient.

All arithmetic in this package is exact (arbitrary-precision integers and
``fractions.Fraction``).  The inequalities decided downstream are sharp at
many boundary tuples, so floating point is banned everywhere.
"""

from __future__ import annotations

from math import comb


def binomial(a: int, b: int) -> int:
    """C(a, b), with C(a, b) = 0 whenever b > a or b < 0."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)
