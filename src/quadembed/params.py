"""Embedding parameters, admissibility, and the necessary-condition battery N1-N8.

A tuple (m, n, r, s, lam) asks whether an r-factorization of lam*K_m^4 can
be extended to an s-factorization of lam*K_n^4.  A triple (m, r, lam) is
admissible when 4 | rm and r | lam*C(m-1,3); admissibility of both triples
makes the color counts

    q = lam*C(m-1,3)/r        (inner colors, kappa1 = {1..q})
    k = lam*C(n-1,3)/s        (all colors, kappa2 = {q+1..k})

integers.  ``check_conditions`` evaluates eight necessary conditions exactly
(integer cross-multiplication; the report carries exact rationals) plus the
four composite condition ids eq2..eq5 used by the theorem statements:

    eq2 <-> N1 and N2      (divisibility + ratio window)
    eq3 <-> N3 and N5      (lower bound on n)
    eq4 <-> N6             eq5 <-> N7

N8 is evaluated only in the boundary regime k = q with m(s-r) != 0 mod 3;
elsewhere it is recorded as vacuously true.

Inputs excluded up front (rejected, never attempted): m < 4, n <= m, and
m = 4 with lam < 2 or r < 2.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction

from .combinat import binomial
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


def _divisibility(m: int, r: int, lam: int) -> tuple[bool, bool]:
    """The two admissibility checks of (m, r, lam): 4 | rm, r | lam*C(m-1,3)."""
    return (r * m) % 4 == 0, (lam * binomial(m - 1, 3)) % r == 0


def is_admissible(m: int, r: int, lam: int) -> bool:
    """4 | rm and r | lam*C(m-1,3)."""
    if m < 4 or r < 1 or lam < 1:
        raise InputError(f"need m >= 4, r >= 1, lam >= 1, got ({m}, {r}, {lam})")
    return all(_divisibility(m, r, lam))


@dataclass(frozen=True)
class EmbeddingParams:
    """The tuple (m, n, r, s, lam); n > m >= 4, and if m = 4 then lam, r >= 2."""

    m: int
    n: int
    r: int
    s: int
    lam: int

    def __post_init__(self):
        m, n, r, s, lam = self.m, self.n, self.r, self.s, self.lam
        if m < 4:
            raise InputError(f"m must be at least 4, got {m}")
        if n <= m:
            raise InputError(f"need n > m, got n={n}, m={m}")
        if r < 1 or s < 1 or lam < 1:
            raise InputError("r, s, lam must be positive")
        if m == 4 and (lam < 2 or r < 2):
            raise InputError("m = 4 requires lam >= 2 and r >= 2")

    @property
    def inner_admissible(self) -> bool:
        return is_admissible(self.m, self.r, self.lam)

    @property
    def outer_admissible(self) -> bool:
        return is_admissible(self.n, self.s, self.lam)

    def ratio_equal(self) -> bool:
        """s / r == C(n-1,3) / C(m-1,3), i.e. k == q for admissible tuples."""
        return self.s * binomial(self.m - 1, 3) == self.r * binomial(self.n - 1, 3)


def color_counts(p: EmbeddingParams) -> tuple[int, int]:
    """Exact (q, k); raises InputError unless both triples are admissible
    (the check that makes every bound in ``bounds`` integral where needed)."""
    if not p.inner_admissible:
        raise InputError(f"inner triple ({p.m}, {p.r}, {p.lam}) not admissible")
    if not p.outer_admissible:
        raise InputError(f"outer triple ({p.n}, {p.s}, {p.lam}) not admissible")
    return (p.lam * binomial(p.m - 1, 3) // p.r,
            p.lam * binomial(p.n - 1, 3) // p.s)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    lhs: Fraction
    rhs: Fraction
    vacuous: bool = False


@dataclass
class ConditionReport:
    """Per-condition verdicts with exact witness values."""

    params: EmbeddingParams
    verdicts: dict[str, Verdict]
    theorem_case: TheoremCase
    q: int | None = None
    k: int | None = None

    def all_hold(self) -> bool:
        return all(self.verdicts[c].holds for c in CONDITION_IDS)

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


def theorem_case(p: EmbeddingParams) -> TheoremCase:
    lhs = p.r * binomial(p.n - 1, 3)
    rhs = p.s * binomial(p.m - 1, 3)
    if lhs < rhs:
        return TheoremCase.OUT_OF_SCOPE
    if p.s > p.r and 3 * p.n < 4 * p.m:
        return TheoremCase.OUT_OF_SCOPE
    return TheoremCase.STRICT_RATIO if lhs > rhs else TheoremCase.EQUAL_RATIO


def check_conditions(p: EmbeddingParams) -> ConditionReport:
    """Evaluate N1-N8 and eq2-eq5 exactly; pure and deterministic."""
    m, n, r, s, lam = p.m, p.n, p.r, p.s, p.lam
    bm = binomial(m - 1, 3)
    bn = binomial(n - 1, 3)
    cm3 = binomial(m, 3)
    v: dict[str, Verdict] = {}

    div_checks = _divisibility(m, r, lam) + _divisibility(n, s, lam)
    v["N1"] = Verdict(all(div_checks), Fraction(sum(div_checks)), Fraction(4))

    ratio_ok = r <= s and s * bm <= r * bn
    v["N2"] = Verdict(ratio_ok, Fraction(s, r), Fraction(bn, bm))

    n3_active = s == r
    v["N3"] = Verdict(not n3_active or n >= 2 * m, Fraction(n), Fraction(2 * m),
                      vacuous=not n3_active)

    v["N4"] = Verdict(3 * n * s >= m * (4 * s - r), Fraction(n),
                      Fraction(m * (4 * s - r), 3 * s))

    n5_active = r < s and s * bm < r * bn
    v["N5"] = Verdict(not n5_active or 3 * n >= 4 * m, Fraction(n), Fraction(4 * m, 3),
                      vacuous=not n5_active)

    # gap = r*C(n-1,3) - s*C(m-1,3); both sides scaled by the positive factor r
    gap = r * bn - s * bm
    v["N6"] = Verdict(2 * r * (n - m) * cm3 >= (2 * m - n) * gap,
                      Fraction((n - m) * cm3), Fraction((2 * m - n) * gap, 2 * r))

    n7_lhs = 2 * (n - m) * cm3 + binomial(m, 2) * binomial(n - m, 2)
    v["N7"] = Verdict(4 * r * n7_lhs >= (4 * m - n) * gap,
                      Fraction(n7_lhs), Fraction((4 * m - n) * gap, 4 * r))

    n8_residue = (m * (s - r)) % 3
    n8_active = gap == 0 and n8_residue != 0
    if not n8_active:
        v["N8"] = Verdict(True, Fraction(bn, s), Fraction(0), vacuous=True)
    else:
        fn = binomial(m, 2) * binomial(n - m, 2)
        gn = m * binomial(n - m, 3)
        if n8_residue == 1:
            holds = bn <= s * (fn + gn)
            rhs = Fraction(fn + gn)
        else:
            holds = 2 * bn <= s * (2 * fn + gn)
            rhs = Fraction(2 * fn + gn, 2)
        v["N8"] = Verdict(holds, Fraction(bn, s), rhs)

    sub = div_checks + (ratio_ok,)
    v["eq2"] = Verdict(v["N1"].holds and v["N2"].holds,
                       Fraction(sum(sub)), Fraction(5))
    # lower bound on n: 2m when s = r, 4m/3 when s > r inside the strict-ratio
    # window; vacuous at the ratio boundary (so eq3 <-> N3 and N5 everywhere)
    if s == r:
        v["eq3"] = Verdict(n >= 2 * m, Fraction(n), Fraction(2 * m))
    elif s > r and gap > 0:
        v["eq3"] = Verdict(3 * n >= 4 * m, Fraction(n), Fraction(4 * m, 3))
    else:
        v["eq3"] = Verdict(True, Fraction(n), Fraction(0), vacuous=True)
    v["eq4"] = v["N6"]
    v["eq5"] = v["N7"]

    q = k = None
    if v["N1"].holds:
        q, k = color_counts(p)
    return ConditionReport(params=p, verdicts=v, theorem_case=theorem_case(p),
                           q=q, k=k)


def check_structural_facts(p: EmbeddingParams) -> bool:
    """Two facts about the boundary regime k = q; True unless a counterexample.

    When k = q: if m(s-r) != 0 mod 3 then n >= m+2, and if n = m+2 then
    s >= r+2.  Vacuously true for k > q or inadmissible tuples.  A False
    return would indicate an implementation (or transcription) bug.
    """
    if not (p.inner_admissible and p.outer_admissible) or not p.ratio_equal():
        return True
    ok = True
    if (p.m * (p.s - p.r)) % 3 != 0:
        ok = ok and p.n >= p.m + 2
    if p.n == p.m + 2:
        ok = ok and p.s >= p.r + 2
    return ok
