"""Integer interval-sum systems: nonnegative x_i with a_i <= x_i <= b_i, sum c.

The feasibility criterion is an averaging argument: writing
I = {i : a_i >= 0}, the system has a solution iff

    sum_{i in I} a_i  <=  c  <=  sum_i b_i.

Every bound is an ``int``; a caller with a rational upper bound floors it
first (an integer x_i <= b_i exactly when x_i <= floor(b_i)).

``solve`` follows the constructive proof, and its fill decides feasibility:
start at x_i = max(a_i, 0), then raise entries toward b_i in ascending index
order until the sum reaches c.  A start above c, or a shortfall left once
every entry is at b_i, means no solution.  Ascending order is an arbitrary
deterministic choice; it makes planner output reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class IntervalSystem:
    """Integer target c plus integer entries (a_i, b_i); c >= 0, b_i >= 0, a_i <= b_i."""

    target: int
    entries: tuple[tuple[int, int], ...]

    def __init__(self, target: int, entries):
        entries = tuple(entries)
        for i, (a, b) in enumerate(entries):
            if type(a) is not int or type(b) is not int:
                raise InputError(f"entry {i}: bounds ({a!r}, {b!r}) are not both int")
            if b < 0:
                raise InputError(f"entry {i}: upper bound {b} is negative")
            if a > b:
                raise InputError(f"entry {i}: lower bound {a} exceeds upper bound {b}")
        if type(target) is not int or target < 0:
            raise InputError(f"target must be a nonnegative int, got {target!r}")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "entries", entries)

    def lower_bound(self) -> int:
        return sum(a for a, _ in self.entries if a >= 0)

    def upper_bound(self) -> int:
        return sum(b for _, b in self.entries)

    def feasible(self) -> bool:
        return self.lower_bound() <= self.target <= self.upper_bound()

    def solve(self) -> list[int] | None:
        """A solution vector, or None when infeasible."""
        xs = [max(a, 0) for a, _ in self.entries]
        deficit = self.target - sum(xs)
        if deficit < 0:
            return None
        for i, (_, b) in enumerate(self.entries):
            if deficit == 0:
                break
            take = min(b - xs[i], deficit)
            xs[i] += take
            deficit -= take
        return None if deficit else xs

    def satisfied_by(self, xs) -> bool:
        """Check a candidate vector against all three constraint families."""
        if len(xs) != len(self.entries):
            return False
        if any(x < 0 or x != int(x) for x in xs):
            return False
        if any(not (a <= x <= b) for x, (a, b) in zip(xs, self.entries)):
            return False
        return sum(xs) == self.target
