#!/usr/bin/env python3
"""Recompute every column of the sporadic-case table from scratch.

REGISTRY is transcribed from the source paper's table of sporadic cases:
for each tuple (m, n, r, s) at multiplicity 1, the hand-picked counts e_j of
{3 old, 1 new} subsets per color, in exponent notation "value^count", for
the old tier and (when present) the new tier.  The planner does not read
it; its exact e-solve covers every tuple.  tests/test_acceptance.py keeps
its own transcription of the same rows (SPORADIC_TABLE) as an oracle.

For each registered tuple: color counts, the six global bounds (floored),
the crossing-subset totals, the case tag, and a check that the registered
e_j multiset feeds a feasible follow-up system.  Exits 1 when a tuple fails
the necessary conditions or a row reads NO.

Usage: PYTHONPATH=src python scripts/reproduce_sporadic_table.py
"""

import sys

from quadembed.bounds import tier_bounds
from quadembed.errors import PlanInfeasible
from quadembed.params import EmbeddingParams, check_conditions
from quadembed.planner import build_plan, plan_f, totals


# (m, n, r, s) -> (old-tier multiset, new-tier multiset or None)
REGISTRY = {
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


def spec_runs(spec):
    """Exponent notation to runs (count, value): "0^2,2^3" -> [(2, 0), (3, 2)]; None -> []."""
    runs = []
    for part in spec.split(",") if spec else ():
        value, count = part.split("^")
        runs.append((int(count), int(value)))
    return runs


def fmt(x):
    return "NA" if x is None else str(x)


def main() -> int:
    header = ["m", "n", "r", "s", "q", "k", "k-q", "i1", "rp1", "r1",
              "i2", "rp2", "r2", "e", "f", "g", "case", "ej ok"]
    print(" ".join(f"{h:>5}" for h in header))
    failed = False
    for (m, n, r, s), (old_spec, new_spec) in sorted(REGISTRY.items()):
        p = EmbeddingParams(m, n, r, s, 1)
        rep = check_conditions(p)
        if not rep.all_hold():
            print(f"{(m, n, r, s)}: necessary conditions fail: "
                  + ", ".join(rep.failing()), file=sys.stderr)
            failed = True
            continue
        # floored global bounds per tier (count, c, d): iota = 2c - d,
        # floor(rho') = c // 2, floor(rho) = d // 3; NA for an empty new tier
        tiers = tier_bounds(p)
        floors = [x for count, c, d in tiers
                  for x in ((2 * c - d, c // 2, d // 3) if count else (None,) * 3)]
        e, f, g, _h = totals(p)
        plan = build_plan(p, rep)
        code = f"{plan.case.code}({plan.subcase})" if plan.subcase else plan.case.code
        e_runs = spec_runs(old_spec) + spec_runs(new_spec)
        feasible = sum(count * value for count, value in e_runs) == e
        if feasible:
            try:
                plan_f(tiers, e_runs, f)
            except PlanInfeasible:
                feasible = False
        failed = failed or not feasible
        row = [m, n, r, s, rep.q, rep.k, rep.k - rep.q,
               *map(fmt, floors),
               e, f, g, code, "yes" if feasible else "NO"]
        print(" ".join(f"{str(x):>5}" for x in row))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
