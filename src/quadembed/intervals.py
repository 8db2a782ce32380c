"""Integer interval-sum systems: nonnegative x_i with a_i <= x_i <= b_i, sum c.

A system is held as runs (count, a, b): ``count`` consecutive entries that
share the interval [a, b].  The planner's intervals take a few values per
tier, so a system over k colors has a handful of runs, and every method
here works per run; no method expands the runs to k entries.

The feasibility criterion is an averaging argument: writing
I = {i : a_i >= 0}, the system has a solution iff

    sum_{i in I} a_i  <=  c  <=  sum_i b_i.

Every bound is an ``int``: the planner derives its bounds in integers from
the tier table (``bounds.tier_bounds``), and no caller holds a rational one.

``solve`` follows the constructive proof, and its fill decides feasibility:
start at x_i = max(a_i, 0), then raise entries toward b_i in ascending index
order until the sum reaches c.  A start above c, or a shortfall left once
every entry is at b_i, means no solution.  Ascending order is an arbitrary
deterministic choice; it makes planner output reproducible.  Within a run
of c entries the fill raises the first ones to b, at most one to a partial
value, and leaves the rest at max(a, 0), so the solution is runs
(count, x) too: each run of the system becomes at most three.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class IntervalSystem:
    """Integer target c plus runs (count, a_i, b_i); c >= 0, count >= 0, b_i >= 0, a_i <= b_i."""

    target: int
    runs: tuple[tuple[int, int, int], ...]

    def __init__(self, target: int, runs):
        runs = tuple(runs)
        for i, (count, a, b) in enumerate(runs):
            if type(count) is not int or type(a) is not int or type(b) is not int:
                raise InputError(f"run {i}: ({count!r}, {a!r}, {b!r}) are not all int")
            if count < 0:
                raise InputError(f"run {i}: count {count} is negative")
            if b < 0:
                raise InputError(f"run {i}: upper bound {b} is negative")
            if a > b:
                raise InputError(f"run {i}: lower bound {a} exceeds upper bound {b}")
        if type(target) is not int or target < 0:
            raise InputError(f"target must be a nonnegative int, got {target!r}")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "runs", runs)

    def lower_bound(self) -> int:
        return sum(count * a for count, a, _ in self.runs if a >= 0)

    def upper_bound(self) -> int:
        return sum(count * b for count, _, b in self.runs)

    def solve(self) -> list[tuple[int, int]] | None:
        """A solution as runs (count, x) in entry order, or None when infeasible."""
        deficit = self.target - self.lower_bound()
        if deficit < 0:
            return None
        xs = []
        for count, a, b in self.runs:
            a = max(a, 0)
            room = b - a
            if not deficit or not room:
                xs.append((count, a))
                continue
            full, rem = divmod(deficit, room)
            if full >= count:
                xs.append((count, b))
                deficit -= count * room
            else:
                part = 1 if rem else 0  # the entry left at a partial value, if any
                xs += [(full, b), (part, a + rem), (count - full - part, a)]
                deficit = 0
        return None if deficit else [(count, x) for count, x in xs if count]
