"""Global and per-color bound calculus for the amalgam coloring.

Six exact parameters govern how many crossing edges of each shape a color
class may carry (all with the abbreviations sm = s*m, sn = s*n, rm = r*m):

    iota1 = sm - sn/2 - rm/2        rho1 = (sm - rm)/3      rhop1 = sm/2 - sn/8 - 3rm/8
    iota2 = sm - sn/2               rho2 = sm/3             rhop2 = sm/2 - sn/8

The tier-2 values exist only when there are new colors (k > q).  Once a
color j is assigned its count e_j of {3 old, 1 new} subsets, the surviving
freedom for its {2 old, 2 new} count is the interval [iota_ij, rho_ij]:

    tier 1:  iota_1j = sm - sn/4 - 2 e_j - 3rm/4     rho_1j = sm/2 - (3/2) e_j - rm/2
    tier 2:  iota_2j = sm - sn/4 - 2 e_j             rho_2j = sm/2 - (3/2) e_j

Both are affine in e_j: iota_ij = c_i - 2 e_j and 2 rho_ij = d_i - 3 e_j
with c_1 = sm - sn/4 - 3rm/4, d_1 = sm - rm, c_2 = sm - sn/4, d_2 = sm
(``tier_bounds``).  ``per_color_bounds`` evaluates them on runs (count, e_j)
of equal e_j, once per run and tier, never once per color.
Admissibility of both triples gives 4 | rm and 4 | sn, so c_i, d_i, iota1
and iota2 are integers; only rho_ij, rho_i and rhop_i can be fractional,
and every bound here is computed from (c_i, d_i).  The global bounds are
read off the same rows, iota_i = 2 c_i - d_i, rho_i = d_i / 3 and
rhop_i = c_i / 2, so nothing here builds a Fraction (``global_bounds`` hands
the checked rows to the ``bounds`` report, which prints the ratios).

Sign equivalences tying the two levels together (i = 1, 2):

    rho_ij >= 0        <=>  e_j <= rho_i  = d_i / 3
    iota_ij >= 0       <=>  e_j <= rhop_i = c_i / 2
    rho_ij >= iota_ij  <=>  e_j >= iota_i = 2 c_i - d_i

The signs of (iota1, iota2, rhop1, rhop2) split the admissible space into
six regimes (case codes "5.1".."5.6"); ``sign_case`` reads them off (c_i, d_i).
"""

from __future__ import annotations

import enum

from .errors import InputError
from .params import EmbeddingParams, color_counts


class AmalgamCase(enum.Enum):
    """Sign regime of (iota1, iota2, rhop1, rhop2); value is the case code.

    FREE_RANGE            iota2 <= 0, rhop2 < 0           (n > 4m)
    BOTH_FLOORS           0 <= iota1, 0 <= rhop1          (n <= (2 - r/s) m)
    NEW_FLOOR             iota1 < 0 <= iota2, 0 <= rhop1
    OLD_PINNED_NEW_FLOOR  iota2 > 0, rhop1 < 0 <= rhop2
    THRESHOLD_SPLIT       iota2 < 0, 0 <= rhop1
    OLD_PINNED_THRESHOLD  iota2 <= 0, rhop1 < 0 <= rhop2

    With no new colors the classification collapses to the inner-tier signs:
    iota1 >= 0 -> BOTH_FLOORS, else rhop1 >= 0 -> NEW_FLOOR, else FREE_RANGE.
    """

    FREE_RANGE = "5.1"
    BOTH_FLOORS = "5.2"
    NEW_FLOOR = "5.3"
    OLD_PINNED_NEW_FLOOR = "5.4"
    THRESHOLD_SPLIT = "5.5"
    OLD_PINNED_THRESHOLD = "5.6"

    @property
    def code(self) -> str:
        return self.value


def tier_bounds(p: EmbeddingParams) -> list[tuple[int, int, int]]:
    """(count, c, d) for the old and the new tier; raises on inadmissible input.

    A color of the tier at e_j has iota_ij = c - 2 e_j and 2 rho_ij = d - 3 e_j.
    """
    q, k = color_counts(p)  # the admissibility check: 4 | rm and 4 | sn
    sm, sn4, rm = p.s * p.m, p.s * p.n // 4, p.r * p.m
    return [(q, sm - sn4 - 3 * rm // 4, sm - rm), (k - q, sm - sn4, sm)]


def global_bounds(p: EmbeddingParams) -> list[tuple[int, int, int]]:
    """The tier table of ``tier_bounds`` for the ``bounds`` report; needs s >= r, k >= q.

    Tier i's global bounds are iota_i = 2 c - d, rho_i = d / 3 and rhop_i = c / 2.
    """
    tiers = tier_bounds(p)
    if p.s < p.r:
        raise InputError(f"bounds need s >= r, got r={p.r}, s={p.s}")
    if tiers[1][0] < 0:
        raise InputError(f"new-tier color count k - q = {tiers[1][0]} is negative")
    return tiers


def per_color_bounds(tiers, e_runs) -> list[tuple[int, int, int, int]]:
    """(count, e_j, iota_ij, 2 rho_ij) per run (count, e_j) of ``e_runs``, from ``tiers``.

    The runs cover the q old colors, then the k - q new ones; a run that
    crosses the tier boundary q comes out as two, and a run of count 0 as none.
    """
    (q, c1, d1), (new_colors, c2, d2) = tiers
    out, start = [], 0
    for count, e_j in e_runs:
        if count < 0 or e_j < 0:
            raise InputError(f"run ({count}, {e_j}): count and e_j must be nonnegative")
        old = min(max(q - start, 0), count)
        if old:
            out.append((old, e_j, c1 - 2 * e_j, d1 - 3 * e_j))
        if count > old:
            out.append((count - old, e_j, c2 - 2 * e_j, d2 - 3 * e_j))
        start += count
    if start != q + new_colors:
        raise InputError(f"expected {q + new_colors} e-values, got {start}")
    return out


def sign_case(tiers: list[tuple[int, int, int]]) -> AmalgamCase:
    """The unique sign regime of the tier table: rhop_i and iota_i have the signs
    of c_i and 2 c_i - d_i.  InputError when s < r (d_1 < 0) or k < q."""
    (_, c1, d1), (new_colors, c2, d2) = tiers
    if d1 < 0:
        raise InputError(f"no sign regime: d_1 = {d1} is negative (s < r)")
    if new_colors < 0:
        raise InputError(f"no sign regime: k - q = {new_colors} is negative")
    if not new_colors:
        if 2 * c1 >= d1:
            return AmalgamCase.BOTH_FLOORS
        if c1 >= 0:
            return AmalgamCase.NEW_FLOOR
        return AmalgamCase.FREE_RANGE
    if c2 < 0:
        return AmalgamCase.FREE_RANGE
    if c1 >= 0:
        if 2 * c1 >= d1:
            return AmalgamCase.BOTH_FLOORS
        if 2 * c2 >= d2:
            return AmalgamCase.NEW_FLOOR
        return AmalgamCase.THRESHOLD_SPLIT
    if 2 * c2 > d2:
        return AmalgamCase.OLD_PINNED_NEW_FLOOR
    return AmalgamCase.OLD_PINNED_THRESHOLD

