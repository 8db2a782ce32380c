#!/usr/bin/env python3
"""Recompute every column of the sporadic-case table from scratch.

For each registered tuple: color counts, the six global bounds (floored),
the crossing-subset totals, the case tag, and a check that the registered
e_j multiset feeds a feasible follow-up system.  Exits 1 when a tuple fails
the necessary conditions or a row reads NO.
"""

import sys

from quadembed.bounds import floors, global_bounds
from quadembed.errors import PlanInfeasible
from quadembed.params import EmbeddingParams, check_conditions
from quadembed.planner import build_plan, plan_f, totals
from quadembed.sporadic import REGISTRY, lookup


def fmt(x):
    return "NA" if x is None else str(x)


def main() -> int:
    header = ["m", "n", "r", "s", "q", "k", "k-q", "i1", "rp1", "r1",
              "i2", "rp2", "r2", "e", "f", "g", "case", "ej ok"]
    print(" ".join(f"{h:>5}" for h in header))
    failed = False
    for (m, n, r, s), _ in sorted(REGISTRY.items()):
        p = EmbeddingParams(m, n, r, s, 1)
        rep = check_conditions(p)
        if not rep.all_hold():
            print(f"{(m, n, r, s)}: necessary conditions fail: "
                  + ", ".join(rep.failing()), file=sys.stderr)
            failed = True
            continue
        b = global_bounds(p)
        e, f, g, _h = totals(p)
        plan = build_plan(p, rep)
        code = f"{plan.case.code}({plan.subcase})" if plan.subcase else plan.case.code
        old_vals, new_vals = lookup(m, n, r, s)
        feasible = sum(old_vals + new_vals) == e
        if feasible:
            try:
                plan_f(p, old_vals + new_vals)
            except PlanInfeasible:
                feasible = False
        failed = failed or not feasible
        row = [m, n, r, s, rep.q, rep.k, rep.k - rep.q,
               *map(fmt, floors(b).values()),
               e, f, g, code, "yes" if feasible else "NO"]
        print(" ".join(f"{str(x):>5}" for x in row))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
