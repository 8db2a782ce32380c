#!/usr/bin/env python3
"""Full pipeline demo for one tuple: conditions, bounds, plan, construction.

Usage: python scripts/run_pipeline.py m n r s lam [--seed S] [--out FILE]
"""

import argparse
import time

from quadembed.bounds import global_bounds, sign_case
from quadembed.detach import detach, generate_base
from quadembed.factorization import verify_certificate, write_factorization
from quadembed.params import EmbeddingParams, check_conditions
from quadembed.planner import build_plan, render_plan


def main() -> int:
    ap = argparse.ArgumentParser()
    for name in ("m", "n", "r", "s", "lam"):
        ap.add_argument(name, type=int)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    p = EmbeddingParams(args.m, args.n, args.r, args.s, args.lam)
    report = check_conditions(p)
    print(report.to_text())
    if not report.all_hold():
        return 1

    b = global_bounds(p)
    print(f"\ncase {sign_case(b).code}, bounds: iota1={b.iota1}"
          f" rhop1={b.rhop1} rho1={b.rho1} iota2={b.iota2}"
          f" rhop2={b.rhop2} rho2={b.rho2}\n")

    t0 = time.perf_counter()
    plan = build_plan(p, report)
    print(f"plan via {plan.via} in {time.perf_counter() - t0:.3f}s:")
    print(render_plan(plan))

    t0 = time.perf_counter()
    base = generate_base(p.m, p.r, p.lam, seed=args.seed)
    print(f"base factorization found in {time.perf_counter() - t0:.3f}s")

    t0 = time.perf_counter()
    cert = detach(p, base, plan, seed=args.seed)
    ok = verify_certificate(cert)
    print(f"detachment found in {time.perf_counter() - t0:.3f}s,"
          f" verified={ok}")
    if args.out:
        write_factorization(cert.outer, args.out)
        print(f"certificate written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
