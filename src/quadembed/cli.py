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
import sys
import time

from .bounds import global_bounds, sign_case
from .detach import detach, generate_base
from .errors import ConditionsFailed, FormatError, InputError, PlanInfeasible
from .factorization import (
    EmbeddingCertificate,
    certificate_issues,
    factorization_issues,
    read_factorization,
    render_factorization,
)
from .params import CONDITION_IDS, EmbeddingParams, check_conditions
from .planner import _header, build_plan, plan_to_json, render_plan

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NO_PLAN = 2
EXIT_INPUT = 3


def _parse_range(name: str, text: str, default_lo: int) -> range:
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
    if lo > hi:
        raise InputError(f"empty range for {name}: {lo}..{hi}")
    return range(lo, hi + 1)


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


def _ratio(num: int, den: int) -> str:
    """num/den as ``str(Fraction(num, den))`` writes it, for a prime den (2 or 3)."""
    return str(num // den) if num % den == 0 else f"{num}/{den}"


def _na(value) -> object:
    return "NA" if value is None else value


def cmd_bounds(args) -> int:
    tiers = global_bounds(_params_from_args(args))
    case = sign_case(tiers).code
    # tier i (count, c, d): iota_i = 2c - d, rho_i = d/3, rhop_i = c/2, all
    # None for the new tier when k = q (the old tier always has q > 0 colors)
    bounds, fl = {}, {}
    for i, (count, c, d) in enumerate(tiers, 1):
        iota, rho, rhop, rho_fl, rhop_fl = (
            (2 * c - d, _ratio(d, 3), _ratio(c, 2), d // 3, c // 2) if count else (None,) * 5)
        bounds |= {f"iota{i}": iota, f"rho{i}": rho, f"rhop{i}": rhop}
        fl |= {f"iota{i}": iota, f"rhop{i}_floor": rhop_fl, f"rho{i}_floor": rho_fl}
    if args.format == "json":
        _emit(json.dumps({**bounds, "floors": fl, "case": case}, indent=2), args.out)
    else:
        lines = [" ".join(f"{key}{i}={_na(bounds[f'{key}{i}'])}"
                          for key in ("iota", "rhop", "rho")) for i in (1, 2)]
        lines += ["floors: " + " ".join(f"{k}={_na(v)}" for k, v in fl.items()),
                  f"case={case}"]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_plan(args) -> int:
    plan = build_plan(_params_from_args(args))
    _emit(plan_to_json(plan) if args.format == "json" else render_plan(plan),
          args.out)
    return EXIT_OK


def cmd_embed(args) -> int:
    p = _params_from_args(args)
    plan = build_plan(p)
    if args.base:
        base = read_factorization(args.base)
    else:
        base = generate_base(p.m, p.r, p.lam, seed=args.seed)
    cert = detach(p, base, plan, seed=args.seed)
    _emit(render_factorization(cert.outer), args.out)
    if args.out:
        print(f"certificate written to {args.out}")
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


SWEEP_COLUMNS = ["m", "n", "r", "s", "lambda", "status", "q", "k",
                 "theorem_case", *CONDITION_IDS, "all_hold", "case",
                 "subcase", "plan_found", "plan_ms"]


def _sweep_row(tup) -> dict:
    m, n, r, s, lam = tup
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update({"m": m, "n": n, "r": r, "s": s, "lambda": lam, "status": "ok"})
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
        except PlanInfeasible:
            plan = None
        # planning time only: the case and subcase are derived afterwards
        row["plan_ms"] = f"{(time.perf_counter() - t0) * 1000:.3f}"
        row["plan_found"] = int(plan is not None)
        if plan is not None:
            header = _header(p, plan.via)
            row["case"], row["subcase"] = header["case"], header["subcase"] or ""
    return row


def run_sweep(ms: range, ns: range, rs: range, ss: range, lams: range) -> list[dict]:
    """One CSV row per tuple of the box, n running from max(n_lo, m + 1)."""
    return [_sweep_row((m, n, r, s, lam))
            for m in ms
            for n in range(max(ns.start, m + 1), ns.stop)
            for r in rs for s in ss for lam in lams]


def cmd_sweep(args) -> int:
    rows = run_sweep(_parse_range("m", args.m, 4), _parse_range("n", args.n, 5),
                     _parse_range("r", args.r, 1), _parse_range("s", args.s, 1),
                     _parse_range("lam", args.lam, 1))
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

    for name, func, help_text in (
            ("check", cmd_check, "evaluate the necessary conditions"),
            ("bounds", cmd_bounds, "print the bound calculus"),
            ("plan", cmd_plan, "compute a per-color plan")):
        sub = sp.add_parser(name, help=help_text)
        _add_param_args(sub)
        sub.add_argument("--format", choices=("text", "json"), default="text")
        sub.add_argument("--out")
        sub.set_defaults(func=func)

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
    except ConditionsFailed as exc:
        print(exc, file=sys.stderr)
        return EXIT_FAIL
    except (InputError, FormatError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PlanInfeasible as exc:
        print(f"no plan exists: {exc}", file=sys.stderr)
        return EXIT_NO_PLAN


if __name__ == "__main__":
    sys.exit(main())
