"""The paper's table of sporadic cases: hand-picked e_j multisets for small tuples.

Each entry is keyed by (m, n, r, s) at multiplicity 1 and gives the counts
of {3 old, 1 new} subsets per color, in exponent notation "value^count",
for the old tier and (when present) the new tier.  The planner does not read
it (its exact e-solve covers every tuple); the table is kept for
``scripts/reproduce_sporadic_table.py`` and the acceptance suite.
"""

from __future__ import annotations

from .errors import InputError

# (m, n, r, s) -> (old-tier multiset, new-tier multiset or None)
REGISTRY: dict[tuple[int, int, int, int], tuple[str, str | None]] = {
    (5, 8, 4, 5): ("0^1", "5^6"),
    (6, 8, 2, 5): ("4^5", "10^2"),
    (6, 9, 2, 4): ("0^2,2^3", "6^9"),
    (6, 9, 2, 8): ("6^2,8^3", "12^2"),
    (8, 12, 1, 3): ("2^18,4^17", "6^20"),
    (8, 16, 1, 1): ("0^35", "0^196,2^224"),
    (8, 11, 5, 8): ("0^3,2^4", "20^8"),
    (8, 11, 5, 12): ("10^3,12^4", "30^3"),
    (8, 11, 7, 12): ("2^1,4^4", "30^5"),
    (9, 12, 4, 11): ("15^11,18^3", "33^1"),
    (9, 12, 8, 15): ("9^6,18^1", "45^4"),
    (12, 18, 1, 2): ("0^43,2^121,3^1", "6^150,7^25"),
    (12, 16, 3, 5): ("2^30,4^25", "20^36"),
    (12, 16, 3, 7): ("10^30,12^25", "28^10"),
    (14, 19, 2, 4): ("4^68,6^75", "18^61"),
    (14, 20, 2, 3): ("0^131,2^12", "12^180"),
    (16, 22, 1, 2): ("2^280,4^175", "10^210"),
    (28, 38, 1, 2): ("4^1035,6^1890", "18^960"),
    (5, 7, 4, 20): ("20^1", None),
    (6, 8, 2, 7): ("8^5", None),
    (6, 8, 10, 35): ("40^1", None),
}


def parse_multiset(text: str) -> list[int]:
    """Expand exponent notation: "0^2,2^3" -> [0, 0, 2, 2, 2]."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "^" in part:
            v, c = part.split("^")
            values.extend([int(v)] * int(c))
        elif part:
            values.append(int(part))
    if not values:
        raise InputError(f"empty multiset spec: {text!r}")
    return values


def lookup(m: int, n: int, r: int, s: int) -> tuple[list[int], list[int]] | None:
    """Expanded (old-tier, new-tier) e_j values, or None if not registered."""
    entry = REGISTRY.get((m, n, r, s))
    if entry is None:
        return None
    old_spec, new_spec = entry
    return parse_multiset(old_spec), parse_multiset(new_spec) if new_spec else []
