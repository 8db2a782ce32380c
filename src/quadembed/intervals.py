"""Integer interval-sum systems: nonnegative x_i with a_i <= x_i <= b_i, sum c.

The feasibility criterion is an averaging argument: writing
I = {i : a_i >= 0}, the system has a solution iff

    sum_{i in I} a_i  <=  c  <=  sum_i floor(b_i).

``solve`` follows the constructive proof: start at x_i = a_i on I and 0
elsewhere, then raise entries toward floor(b_i) in ascending index order
until the sum reaches c.  Ascending order is an arbitrary deterministic
choice; it makes planner output reproducible.

Upper bounds may be given as exact rationals; an integer x_i satisfies
x_i <= b_i exactly when x_i <= floor(b_i), so each b_i is floored once, at
construction, and the system is integer from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

from .errors import InputError


@dataclass(frozen=True)
class IntervalSystem:
    """Target c plus entries (a_i, b_i); requires c >= 0, b_i >= 0, a_i <= b_i."""

    target: int
    entries: tuple[tuple[int, int], ...]  # (a_i, floor(b_i))

    def __init__(self, target: int, entries):
        norm = []
        for i, (a, b) in enumerate(entries):
            if b < 0:
                raise InputError(f"entry {i}: upper bound {b} is negative")
            if a > b:
                raise InputError(f"entry {i}: lower bound {a} exceeds upper bound {b}")
            norm.append((int(a), floor(b)))
        if target < 0:
            raise InputError(f"target must be nonnegative, got {target}")
        object.__setattr__(self, "target", int(target))
        object.__setattr__(self, "entries", tuple(norm))

    def lower_bound(self) -> int:
        return sum(a for a, _ in self.entries if a >= 0)

    def upper_bound(self) -> int:
        return sum(b for _, b in self.entries)

    def feasible(self) -> bool:
        return self.lower_bound() <= self.target <= self.upper_bound()

    def solve(self) -> list[int] | None:
        """A solution vector, or None when infeasible."""
        if not self.feasible():
            return None
        xs = [max(a, 0) for a, _ in self.entries]
        deficit = self.target - sum(xs)
        for i, (_, b) in enumerate(self.entries):
            if deficit == 0:
                break
            room = b - xs[i]
            take = min(room, deficit)
            xs[i] += take
            deficit -= take
        if deficit:
            raise RuntimeError(f"interval solve left a deficit of {deficit}")
        return xs

    def satisfied_by(self, xs) -> bool:
        """Check a candidate vector against all three constraint families."""
        if len(xs) != len(self.entries):
            return False
        if any(x < 0 or x != int(x) for x in xs):
            return False
        if any(not (a <= x <= b) for x, (a, b) in zip(xs, self.entries)):
            return False
        return sum(xs) == self.target
