"""Command-line surface.

Subcommands: check, bounds, plan, embed, verify, sweep.
Exit codes: 0 success, 1 condition or verification failure, 2 no plan
exists, 3 input error (including a command-line usage error).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from multiprocessing import Pool

from .bounds import floors, global_bounds, sign_case
from .detach import detach, generate_base
from .errors import FormatError, InputError, PlanInfeasible
from .factorization import (
    EmbeddingCertificate,
    certificate_issues,
    factorization_issues,
    read_factorization,
    render_factorization,
)
from .params import CONDITION_IDS, EmbeddingParams, TheoremCase, check_conditions
from .planner import build_plan, plan_to_json, render_plan

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NO_PLAN = 2
EXIT_INPUT = 3


@dataclass
class SweepSpec:
    """Finite parameter ranges plus filters for a sweep run."""

    m: tuple[int, int]
    n: tuple[int, int]
    r: tuple[int, int]
    s: tuple[int, int]
    lam: tuple[int, int]
    admissible_only: bool = False
    theorem_case: str | None = None
    jobs: int = 1

    def __post_init__(self):
        for name in ("m", "n", "r", "s", "lam"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InputError(f"empty range for {name}: {lo}..{hi}")
        if self.jobs < 1:
            raise InputError(f"--jobs must be at least 1, got {self.jobs}")


def _parse_range(text: str, default_lo: int) -> tuple[int, int]:
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo = int(lo_s) if lo_s else default_lo
            hi = int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise InputError(f"bad range {text!r} (want A..B, ..B or N)") from exc
    return lo, hi


def _params_from_args(args) -> EmbeddingParams:
    return EmbeddingParams(args.m, args.n, args.r, args.s, args.lam)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_check(args) -> int:
    p = _params_from_args(args)
    report = check_conditions(p)
    _emit(report.to_json() if args.format == "json" else report.to_text(), args.out)
    return EXIT_OK if report.all_hold() else EXIT_FAIL


def cmd_bounds(args) -> int:
    p = _params_from_args(args)
    b = global_bounds(p)
    fl = floors(b)
    case = sign_case(b).code
    if args.format == "json":
        doc = {
            "iota1": b.iota1, "rho1": str(b.rho1), "rhop1": str(b.rhop1),
            "iota2": b.iota2,
            "rho2": str(b.rho2) if b.two_tier else None,
            "rhop2": str(b.rhop2) if b.two_tier else None,
            "floors": fl,
            "case": case,
        }
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [
            f"iota1={b.iota1} rhop1={b.rhop1} rho1={b.rho1}",
            f"iota2={b.iota2} rhop2={b.rhop2} rho2={b.rho2}"
            if b.two_tier else "iota2=NA rhop2=NA rho2=NA",
            "floors: " + " ".join(f"{k}={v if v is not None else 'NA'}"
                                  for k, v in fl.items()),
            f"case={case}",
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_plan(args) -> int:
    p = _params_from_args(args)
    report = check_conditions(p)
    if not report.all_hold():
        print("necessary conditions fail:", ", ".join(report.failing()),
              file=sys.stderr)
        return EXIT_FAIL
    plan = build_plan(p, report)
    _emit(plan_to_json(plan) if args.format == "json" else render_plan(plan),
          args.out)
    return EXIT_OK


def cmd_embed(args) -> int:
    p = _params_from_args(args)
    report = check_conditions(p)
    if not report.all_hold():
        print("necessary conditions fail:", ", ".join(report.failing()),
              file=sys.stderr)
        return EXIT_FAIL
    if args.base:
        base = read_factorization(args.base)
    else:
        base = generate_base(p.m, p.r, p.lam, seed=args.seed)
    plan = build_plan(p, report)
    cert = detach(p, base, plan, seed=args.seed)
    text = render_factorization(cert.outer)
    if args.out:
        _emit(text, args.out)
        print(f"certificate written to {args.out}")
    else:
        _emit(text, None)
    return EXIT_OK


def cmd_verify(args) -> int:
    outer = read_factorization(args.file)
    if args.base:
        inner = read_factorization(args.base)
        issues = certificate_issues(EmbeddingCertificate(inner=inner, outer=outer))
    else:
        issues = factorization_issues(outer)
    if issues:
        for msg in issues:
            print(msg, file=sys.stderr)
        return EXIT_FAIL
    print("valid")
    return EXIT_OK


def _sweep_row(tup) -> dict:
    m, n, r, s, lam = tup
    row = {"m": m, "n": n, "r": r, "s": s, "lambda": lam, "status": "ok",
           "q": "", "k": "", "theorem_case": "",
           **{c: "" for c in CONDITION_IDS},
           "all_hold": "", "case": "", "subcase": "", "plan_found": "",
           "plan_ms": ""}
    try:
        p = EmbeddingParams(m, n, r, s, lam)
    except InputError:
        row["status"] = "excluded"
        return row
    report = check_conditions(p)
    for cid in CONDITION_IDS:
        row[cid] = int(report.verdicts[cid].holds)
    row["q"] = report.q if report.q is not None else ""
    row["k"] = report.k if report.k is not None else ""
    row["theorem_case"] = report.theorem_case.value
    row["all_hold"] = int(report.all_hold())
    if report.all_hold():
        t0 = time.perf_counter()
        try:
            plan = build_plan(p, report)
            row["plan_found"] = 1
            row["case"] = plan.case.code
            row["subcase"] = plan.subcase or ""
        except PlanInfeasible:
            row["plan_found"] = 0
        row["plan_ms"] = int((time.perf_counter() - t0) * 1000)
    return row


SWEEP_COLUMNS = ["m", "n", "r", "s", "lambda", "status", "q", "k",
                 "theorem_case", *CONDITION_IDS, "all_hold", "case",
                 "subcase", "plan_found", "plan_ms"]


def run_sweep(spec: SweepSpec) -> list[dict]:
    tuples = [
        (m, n, r, s, lam)
        for m in range(spec.m[0], spec.m[1] + 1)
        for n in range(max(spec.n[0], m + 1), spec.n[1] + 1)
        for r in range(spec.r[0], spec.r[1] + 1)
        for s in range(spec.s[0], spec.s[1] + 1)
        for lam in range(spec.lam[0], spec.lam[1] + 1)
    ]
    workers = min(spec.jobs, os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            rows = list(pool.imap(_sweep_row, tuples, chunksize=64))
    else:
        rows = [_sweep_row(t) for t in tuples]
    if spec.admissible_only:
        rows = [r for r in rows if r["status"] == "ok" and r["N1"] == 1]
    if spec.theorem_case:
        rows = [r for r in rows if r["theorem_case"] == spec.theorem_case]
    return rows


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        m=_parse_range(args.m, 4),
        n=_parse_range(args.n, 5),
        r=_parse_range(args.r, 1),
        s=_parse_range(args.s, 1),
        lam=_parse_range(args.lam, 1),
        admissible_only=args.admissible_only,
        theorem_case=args.theorem_case,
        jobs=args.jobs,
    )
    rows = run_sweep(spec)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _add_param_args(sub) -> None:
    for name in ("m", "n", "r", "s", "lam"):
        sub.add_argument(name, type=int)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadembed",
        description="Embeddings of regular 4-set systems: conditions, bounds,"
                    " plans, explicit certificates.")
    sp = ap.add_subparsers(dest="command", required=True)

    p_check = sp.add_parser("check", help="evaluate the necessary conditions")
    _add_param_args(p_check)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--out")
    p_check.set_defaults(func=cmd_check)

    p_bounds = sp.add_parser("bounds", help="print the bound calculus")
    _add_param_args(p_bounds)
    p_bounds.add_argument("--format", choices=("text", "json"), default="text")
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=cmd_bounds)

    p_plan = sp.add_parser("plan", help="compute a per-color plan")
    _add_param_args(p_plan)
    p_plan.add_argument("--format", choices=("text", "json"), default="text")
    p_plan.add_argument("--out")
    p_plan.set_defaults(func=cmd_plan)

    p_embed = sp.add_parser("embed", help="construct an explicit certificate")
    _add_param_args(p_embed)
    p_embed.add_argument("--out")
    p_embed.add_argument("--base", help="base factorization file (else generated)")
    p_embed.add_argument("--seed", type=int, default=0,
                         help="permutes the order in which vertices are"
                              " detached (0: natural order)")
    p_embed.set_defaults(func=cmd_embed)

    p_verify = sp.add_parser("verify", help="verify a certificate file")
    p_verify.add_argument("file")
    p_verify.add_argument("--base", help="inner factorization to check the"
                                         " embedding against")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sp.add_parser("sweep", help="CSV over a parameter box")
    p_sweep.add_argument("--m", default="4..10")
    p_sweep.add_argument("--n", default="..20")
    p_sweep.add_argument("--r", default="1..8")
    p_sweep.add_argument("--s", default="1..8")
    p_sweep.add_argument("--lam", default="1")
    p_sweep.add_argument("--admissible-only", action="store_true")
    p_sweep.add_argument("--theorem-case",
                         choices=[tc.value for tc in TheoremCase])
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means "no plan exists"
        if exc.code == 2:
            return EXIT_INPUT
        raise
    try:
        return args.func(args)
    except (InputError, FormatError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PlanInfeasible as exc:
        print(f"no plan exists: {exc}", file=sys.stderr)
        return EXIT_NO_PLAN


if __name__ == "__main__":
    sys.exit(main())
