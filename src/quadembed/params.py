"""Embedding parameters, admissibility, and the necessary-condition battery N1-N8.

A tuple (m, n, r, s, lam) asks whether an r-factorization of lam*K_m^4 can
be extended to an s-factorization of lam*K_n^4.  A triple (m, r, lam) is
admissible when 4 | rm and r | lam*C(m-1,3); admissibility of both triples
makes the color counts

    q = lam*C(m-1,3)/r        (inner colors, kappa1 = {1..q})
    k = lam*C(n-1,3)/s        (all colors, kappa2 = {q+1..k})

integers; ``check_conditions`` sets a report's q and k exactly when N1
holds, and builds its verdicts on their first read.  Each of the eight
necessary conditions is written once, as one integer inequality a >= b
(a <= b for N2 and N8; N2 also needs r <= s) over a positive denominator
den, with exact rational witnesses a/den and b/den built only when read.
The scope and the sign of k - q both come from the one integer
gap = r*C(n-1,3) - s*C(m-1,3).  The four composite condition ids eq2..eq5
used by the theorem statements are read off the N-verdicts:

    eq2 <-> N1 and N2      (divisibility + ratio window)
    eq3 <-> N3 and N5      (lower bound on n)
    eq4 <-> N6             eq5 <-> N7

N8 is evaluated only in the boundary regime k = q with m(s-r) != 0 mod 3;
elsewhere it is recorded as vacuously true.

Inputs excluded up front (rejected, never attempted): a parameter that is
not an integer, m < 4, n <= m, and m = 4 with lam < 2 or r < 2.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from operator import index
from typing import NamedTuple

from .errors import InputError

CONDITION_IDS = ("N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8")
COMPOSITE_IDS = ("eq2", "eq3", "eq4", "eq5")


class TheoremCase(enum.Enum):
    """Which sufficiency regime of the source paper a tuple falls into.

    STRICT_RATIO:  r*C(n-1,3) > s*C(m-1,3)  (k > q when admissible)
    EQUAL_RATIO:   r*C(n-1,3) = s*C(m-1,3)  and n >= 4m/3
    OUT_OF_SCOPE:  ratio reversed, or s > r with n < 4m/3 (the region the
                   paper leaves open)

    A report field only (``check`` and the ``sweep`` column); it gates
    nothing.  Planning runs on every
    tuple that passes N1-N8, and the exact e-solve decides whether a plan
    exists.
    """

    STRICT_RATIO = "strict-ratio"
    EQUAL_RATIO = "equal-ratio"
    OUT_OF_SCOPE = "out-of-scope"


def _divisibility(m: int, r: int, lam: int, b: int) -> tuple[bool, bool]:
    """The two admissibility checks of (m, r, lam), b = C(m-1,3): 4 | rm, r | lam*b."""
    return (r * m) % 4 == 0, (lam * b) % r == 0


def _class_count(r: int, lam: int, b: int) -> int:
    """lam*b/r for b = C(m-1,3), exact when (m, r, lam) is admissible."""
    return lam * b // r


def _binom(m: int, r: int, lam: int) -> int:
    """C(m-1,3) once m >= 4, r >= 1 and lam >= 1 are checked."""
    if m < 4 or r < 1 or lam < 1:
        raise InputError(f"need m >= 4, r >= 1, lam >= 1, got ({m}, {r}, {lam})")
    return comb(m - 1, 3)


def is_admissible(m: int, r: int, lam: int) -> bool:
    """4 | rm and r | lam*C(m-1,3)."""
    return all(_divisibility(m, r, lam, _binom(m, r, lam)))


def integers(values: tuple) -> tuple[int, ...]:
    """``values`` as plain ints by ``operator.index``: a bool becomes 0 or 1,
    and a float, Fraction or string raises InputError, even an integral one."""
    for x in values:
        if type(x) is not int:
            break
    else:
        return values
    try:
        return tuple(map(index, values))
    except TypeError:
        raise InputError(f"parameters must be integers, got {values}") from None


@dataclass(frozen=True)
class EmbeddingParams:
    """The tuple (m, n, r, s, lam); n > m >= 4, and if m = 4 then lam, r >= 2.
    Five ints are stored as given, other values by ``integers`` (a bool as an
    int; a float or string raises "must be integers") before the range checks,
    which run in this order: m >= 4, n > m, r, s, lam >= 1, the m = 4 case."""

    m: int
    n: int
    r: int
    s: int
    lam: int

    def __init__(self, m: int, n: int, r: int, s: int, lam: int):
        if not (type(m) is type(n) is type(r) is type(s) is type(lam) is int):
            m, n, r, s, lam = integers((m, n, r, s, lam))
        if m < 4:
            raise InputError(f"m must be at least 4, got {m}")
        if n <= m:
            raise InputError(f"need n > m, got n={n}, m={m}")
        if r < 1 or s < 1 or lam < 1:
            raise InputError("r, s, lam must be positive")
        if m == 4 and (lam < 2 or r < 2):
            raise InputError("m = 4 requires lam >= 2 and r >= 2")
        self.__dict__.update(m=m, n=n, r=r, s=s, lam=lam)


def class_count(m: int, r: int, lam: int, triple: str = "triple") -> int:
    """lam*C(m-1,3)/r, the classes of an r-factorization of lam*K_m^4;
    raises InputError unless (m, r, lam) is admissible."""
    b = _binom(m, r, lam)
    if not all(_divisibility(m, r, lam, b)):
        raise InputError(f"{triple} ({m}, {r}, {lam}) not admissible")
    return _class_count(r, lam, b)


def color_counts(p: EmbeddingParams) -> tuple[int, int]:
    """Exact (q, k); raises InputError unless both triples are admissible
    (the check that makes every bound in ``bounds`` integral where needed)."""
    return (class_count(p.m, p.r, p.lam, "inner triple"),
            class_count(p.n, p.s, p.lam, "outer triple"))


class Verdict(NamedTuple):
    """One condition as integers: ``holds`` decides a >= b (a <= b for N2,
    which also needs r <= s, and N8) over the positive denominator ``den``.
    The witnesses ``lhs`` = a/den and ``rhs`` = b/den are exact rationals,
    built only when read.  A vacuous verdict holds whatever a and b are.
    A tuple, not a dataclass: a report builds ten when first read."""

    holds: bool
    a: int
    b: int
    den: int = 1
    vacuous: bool = False

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.b, self.den)


def _at_least(a: int, b: int, den: int = 1, active: bool = True) -> Verdict:
    """The verdict a/den >= b/den, vacuously true when not ``active``."""
    return Verdict(not active or a >= b, a, b, den, not active)


@dataclass
class ConditionReport:
    """Per-condition verdicts with exact witness values, built on the first
    read of ``verdicts`` from bm = C(m-1,3), bn = C(n-1,3), gap = r*bn - s*bm
    and the four divisibility checks.  q and k are None exactly when N1 fails."""

    params: EmbeddingParams
    theorem_case: TheoremCase
    q: int | None
    k: int | None
    bm: int
    bn: int
    gap: int
    div: tuple[bool, bool, bool, bool]

    @cached_property
    def verdicts(self) -> dict[str, Verdict]:
        """N1-N8 and eq2-eq5, each condition written once."""
        p, bm, bn, gap = self.params, self.bm, self.bn, self.gap
        m, n, r, s = p.m, p.n, p.r, p.s
        cm3 = comb(m, 3)
        v: dict[str, Verdict] = {}
        v["N1"] = _at_least(sum(self.div), 4)
        # r <= s and s/r <= C(n-1,3)/C(m-1,3), over the denominator r*C(m-1,3)
        v["N2"] = Verdict(r <= s and gap >= 0, s * bm, r * bn, r * bm)
        v["N3"] = _at_least(n, 2 * m, active=s == r)
        v["N4"] = _at_least(3 * s * n, m * (4 * s - r), 3 * s)
        v["N5"] = _at_least(3 * n, 4 * m, 3, active=r < s and gap > 0)
        v["N6"] = _at_least(2 * r * (n - m) * cm3, (2 * m - n) * gap, 2 * r)
        n7 = 2 * (n - m) * cm3 + comb(m, 2) * comb(n - m, 2)
        v["N7"] = _at_least(4 * r * n7, (4 * m - n) * gap, 4 * r)
        # k = q with t = m(s-r) mod 3 nonzero: C(n-1,3)/s <= f + g/t, where
        # f = C(m,2)C(n-m,2) and g = m*C(n-m,3)
        t = (m * (s - r)) % 3
        if gap == 0 and t:
            a = t * bn
            b = s * (t * comb(m, 2) * comb(n - m, 2) + m * comb(n - m, 3))
            v["N8"] = Verdict(a <= b, a, b, t * s)
        else:
            v["N8"] = Verdict(True, bn, 0, s, vacuous=True)

        v["eq2"] = _at_least(v["N1"].a + v["N2"].holds, 5)
        # the lower bound on n in force: N3 when s = r, N5 inside the strict
        # window, none at the ratio boundary (so eq3 <-> N3 and N5 everywhere)
        v["eq3"] = (v["N3"] if s == r else v["N5"] if not v["N5"].vacuous
                    else Verdict(True, n, 0, vacuous=True))
        v["eq4"] = v["N6"]
        v["eq5"] = v["N7"]
        return v

    def all_hold(self) -> bool:
        return self.q is not None and all(self.verdicts[c].holds for c in CONDITION_IDS)

    def failing(self) -> list[str]:
        return [c for c in CONDITION_IDS if not self.verdicts[c].holds]

    def to_text(self) -> str:
        p = self.params
        lines = [
            f"m={p.m} n={p.n} r={p.r} s={p.s} lambda={p.lam}"
            f" q={self.q if self.q is not None else '-'}"
            f" k={self.k if self.k is not None else '-'}"
            f" regime={self.theorem_case.value}"
        ]
        for cid in CONDITION_IDS + COMPOSITE_IDS:
            v = self.verdicts[cid]
            mark = "pass" if v.holds else "FAIL"
            note = " (vacuous)" if v.vacuous else ""
            lines.append(f"{cid:<4} {mark}  lhs={v.lhs}  rhs={v.rhs}{note}")
        lines.append("all conditions hold" if self.all_hold()
                     else "failing: " + ", ".join(self.failing()))
        return "\n".join(lines)

    def to_json(self) -> str:
        p = self.params
        doc = {
            "params": {"m": p.m, "n": p.n, "r": p.r, "s": p.s, "lambda": p.lam},
            "q": self.q,
            "k": self.k,
            "theorem_case": self.theorem_case.value,
            "conditions": [
                {
                    "id": cid,
                    "holds": self.verdicts[cid].holds,
                    "lhs": str(self.verdicts[cid].lhs),
                    "rhs": str(self.verdicts[cid].rhs),
                    "vacuous": self.verdicts[cid].vacuous,
                }
                for cid in CONDITION_IDS + COMPOSITE_IDS
            ],
            "all_hold": self.all_hold(),
            "failing": self.failing(),
        }
        return json.dumps(doc, indent=2)


def check_conditions(p: EmbeddingParams) -> ConditionReport:
    """Scope, q and k of ``p`` in integers, its verdicts on first read;
    pure and deterministic."""
    m, n, r, s, lam = p.m, p.n, p.r, p.s, p.lam
    bm = comb(m - 1, 3)
    bn = comb(n - 1, 3)
    # r*C(n-1,3) - s*C(m-1,3): the sign of k - q, and the scope
    gap = r * bn - s * bm
    if gap < 0 or (s > r and 3 * n < 4 * m):
        case = TheoremCase.OUT_OF_SCOPE
    else:
        case = TheoremCase.STRICT_RATIO if gap else TheoremCase.EQUAL_RATIO
    div = _divisibility(m, r, lam, bm) + _divisibility(n, s, lam, bn)
    ok = all(div)
    return ConditionReport(p, case, _class_count(r, lam, bm) if ok else None,
                           _class_count(s, lam, bn) if ok else None, bm, bn, gap, div)
