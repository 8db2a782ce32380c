#!/usr/bin/env python3
"""quadembed benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep|construct|verify --seed N
                         --seconds S --trace 0|1 [--scale full|toy]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Workloads (inputs and known answers in spec.json):

  sweep      the desk grid of ``quadembed sweep`` (101,088 tuples)
  construct  ``quadembed embed`` on a ladder of quick, hard and wall rungs,
             each under a wall-clock limit enforced with SIGALRM
  verify     ``quadembed verify`` on a seeded corpus of valid and tampered
             certificates, written by corpus.py before any clock starts

With --trace 0 the run repeats passes while --seconds lasts (at least one)
and reports the end-to-end metrics; it first times fresh interpreters
importing the package (setup_s).  With --trace 1 it runs one plain pass
and one pass with every public layer function wrapped in a span
(spans.py), and reports per-layer calls and seconds plus the tracing
overhead.  Every output is checked by code that shares nothing with the
program (checks.py).  Human-readable lines come first; the last line of
standard output is the JSON result.  Exit 2, with no result, when the
checkout holds no program or the corpus cannot be generated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_LAUNCHES = 6  # before the measured passes, and again after them
WORKLOADS = ("sweep", "construct", "verify")

clock = time.perf_counter


def time_imports(launches: int, probe: SpeedProbe) -> list[tuple[float, int]]:
    """(seconds, probe index) for each of ``launches`` fresh interpreters
    importing quadembed.cli, each launch right after a reference probe."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import quadembed.cli"]
    times = []
    for _ in range(launches):
        at = probe.probe()
        t0 = clock()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append((clock() - t0, at))
    return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_passes(workload, seconds: float) -> list[dict]:
    """Passes until the next one would overrun ``seconds``; at least one."""
    passes = []
    t0 = clock()
    while True:
        passes.append(workload.run_pass(first=not passes))
        if clock() - t0 + passes[-1]["next_s"] > seconds:
            return passes


def sweep_e2e(passes: list[dict]) -> tuple[dict, list[str]]:
    def figures(prefix: str):
        plan_ms = [t * 1000 for p in passes for t in p[f"{prefix}plan_s"]]
        rate = tuples / sum(p[f"{prefix}busy_s"] for p in passes)
        return rate, statistics.median(plan_ms), percentile(plan_ms, 0.99)

    tuples = sum(p["attempted"] for p in passes)
    samples = sum(len(p["plan_s"]) for p in passes)
    rate, p50, p99 = figures("ref_")
    raw_rate, raw_p50, raw_p99 = figures("")
    first = passes[0]
    lines = [
        f"sweep.tuples_per_s {rate:.1f} 1/s  (wall clock {raw_rate:.1f};"
        f" {tuples} tuples, {len(passes)} pass(es))",
        f"sweep.plan_p50_ms {p50:.3f} ms  (wall clock {raw_p50:.3f}; {samples} samples)",
        f"sweep.plan_p99_ms {p99:.3f} ms  (wall clock {raw_p99:.3f}; {samples} samples)",
        f"sweep.failed_share {first['failed'] / first['eligible']:.4f}"
        f"  ({first['failed']} of {first['eligible']} eligible tuples unplanned)",
        f"grid: {first['attempted']} tuples, {first['excluded']} excluded,"
        f" {first['eligible']} eligible; plans via {first['via']}",
    ]
    return {"ops_per_s": rate, "p50_ms": p50, "hard_ms": p99}, lines


def construct_e2e(passes: list[dict], limit: float) -> tuple[dict, list[str]]:
    quick = [x for p in passes for x in p["rungs"] if x["group"] == "quick"]
    done = [x for x in quick if x["outcome"] == "ok"]
    ladder = passes[0]["rungs"]
    hard = [x for x in ladder if x["group"] in ("hard", "wall")]

    def figures(key: str):
        rate = len(done) / sum(x[key] for x in quick)
        p50 = statistics.median(x[key] for x in quick) * 1000
        return rate, p50, math.exp(statistics.fmean(math.log(x[key]) for x in hard))

    rate, p50, geomean = figures("ref_seconds")
    raw_rate, raw_p50, raw_geomean = figures("seconds")
    rungs = {x["rung"] for x in ladder}
    missed = {x["rung"]: x["outcome"] for x in ladder if x["outcome"] != "ok"}
    lines = [
        f"construct.geomean_s {geomean:.4f} s  (wall clock {raw_geomean:.4f};"
        f" hard and wall rungs, timeouts at {limit} s)",
        f"construct.quick_per_s {rate:.2f} 1/s  (wall clock {raw_rate:.2f};"
        f" {len(done)} of {len(quick)} quick rung runs)",
        f"construct.quick_p50_ms {p50:.3f} ms  (wall clock {raw_p50:.3f})",
        f"construct.failed_share {len(missed) / len(rungs):.4f}  ({len(missed)} of"
        f" {len(rungs)} rungs: {', '.join(f'{r} {o}' for r, o in sorted(missed.items()))})",
    ] + [f"rung {x['rung']} {x['group']} {x['outcome']} {x['ref_seconds']:.4f} s"
         f"  (wall clock {x['seconds']:.4f})" for x in hard]
    return {"ops_per_s": rate, "p50_ms": p50, "hard_ms": geomean * 1000}, lines


def verify_e2e(passes: list[dict], hard_item: str) -> tuple[dict, list[str]]:
    items = [x for p in passes for x in p["items"]]

    def figures(key: str):
        rate = sum(x["blocks"] for x in items) / sum(x[key] for x in items)
        p50 = statistics.median(x[key] for x in items) * 1000
        hard = statistics.median(x[key] for x in items if x["item"] == hard_item) * 1000
        return rate, p50, hard

    rate, p50, hard = figures("ref_seconds")
    raw_rate, raw_p50, raw_hard = figures("seconds")
    wrong = sum(1 for x in items if x["wrong"])
    lines = [
        f"verify.blocks_per_s {rate:.0f} 1/s  (wall clock {raw_rate:.0f};"
        f" {len(items)} items, {len(passes)} pass(es))",
        f"verify.wrong_share {wrong / len(items):.4f}  ({wrong} of {len(items)} verdicts wrong)",
        f"verify.item_p50_ms {p50:.3f} ms  (wall clock {raw_p50:.3f})",
        f"verify.{hard_item}_ms {hard:.3f} ms  (wall clock {raw_hard:.3f})",
    ]
    return {"ops_per_s": rate, "p50_ms": p50, "hard_ms": hard}, lines


E2E_UNITS = {"ops_per_s": "1/s", "p50_ms": "ms", "hard_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer(tracer, traced: dict, plain: dict, spec: dict) -> dict:
    """Per-layer metrics from one traced pass, as name -> (value, unit)."""
    from spans import SPAN_NAMES

    own = tracer.self_times()
    rows = tracer.per_name(own)
    out = {}
    for span in SPAN_NAMES:
        if span.startswith("intervals."):
            continue
        row = rows[span]
        out[f"{span}.calls"] = (row["calls"], "count")
        out[f"{span}.total_s"] = (row["total_s"], "s")
        out[f"{span}.self_s"] = (row["self_s"], "s")
    init, solve = rows["intervals.IntervalSystem.init"], rows["intervals.IntervalSystem.solve"]
    out["intervals.IntervalSystem.calls"] = (init["calls"], "count")
    out["intervals.IntervalSystem.init_self_s"] = (init["self_s"], "s")
    out["intervals.IntervalSystem.solve_self_s"] = (solve["self_s"], "s")

    via = traced.get("via", {})
    for path in ("general", "sporadic", "fallback"):
        out[f"planner.via.{path}"] = (via.get(path, 0), "count")
    plans = sum(via.values())
    out["planner.plan_f_per_plan"] = (
        rows["planner.plan_f"]["calls"] / plans if plans else 0.0, "ratio")
    plan_s = rows["planner.build_plan"]["total_s"]
    out["planner.colors_per_s"] = (traced.get("colors", 0) / plan_s if plan_s else 0.0, "1/s")

    rungs = traced.get("rungs", [])
    ladder = spec["construct"]["ladder"]["full"]
    named = ["-".join(map(str, t)) for t in ladder["hard"] + ladder["wall"]]
    quick = {x["rung"] for x in rungs if x["group"] == "quick"}
    for fn in ("generate_base", "detach"):
        per_rung = tracer.per_group_self(f"detach.{fn}", own)
        for rung in named:
            out[f"detach.{fn}.s.{rung}"] = (per_rung.get(rung, 0.0), "s")
        out[f"detach.{fn}.s.quick"] = (sum(per_rung.get(r, 0.0) for r in quick), "s")
    for outcome, name in (("timeout", "timeouts"), ("exhausted", "exhausted")):
        out[f"detach.{name}"] = (sum(1 for x in rungs if x["outcome"] == outcome), "count")

    parsed = sum(x["bytes"] for x in traced.get("items", []))
    parse_s = rows["factorization.parse_factorization"]["total_s"]
    out["factorization.parse_mb_per_s"] = (parsed / 1e6 / parse_s if parse_s else 0.0, "MB/s")

    out["trace.untraced_s"] = (plain["ref_busy_s"], "s")
    out["trace.traced_s"] = (traced["ref_busy_s"], "s")
    out["trace.overhead_share"] = (traced["ref_busy_s"] / plain["ref_busy_s"] - 1, "ratio")
    out["trace.spans"] = (len(tracer.start), "count")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="quadembed benchmark, one run")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy: small inputs, for bench/selftest.py")
    args = ap.parse_args()

    if not (SRC / "quadembed" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'quadembed'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    # the first launch also writes bytecode caches, so it is not counted
    setup_probe = SpeedProbe("rational")
    setup_times = [] if args.trace else time_imports(SETUP_LAUNCHES + 1, setup_probe)[1:]

    corpus_dir = OUT / "corpus"
    if args.workload == "verify":
        gen = subprocess.run([sys.executable, str(HERE / "corpus.py"), "--seed",
                              str(args.seed), "--scale", args.scale, "--out",
                              str(corpus_dir)], cwd=ROOT)
        if gen.returncode != 0:
            print("bench: corpus generation failed", file=sys.stderr)
            return 2

    sys.path.insert(0, str(SRC))
    import quadembed

    if not Path(quadembed.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported {quadembed.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "sweep":
        workload = workloads.Sweep(spec, args.scale, args.seed)
    elif args.workload == "construct":
        workload = workloads.Construct(spec, args.scale, args.seed)
    else:
        manifest = json.loads((corpus_dir / "manifest.json").read_text(encoding="ascii"))
        workload = workloads.Verify(manifest, corpus_dir, args.seed)

    if args.trace:
        from spans import Tracer

        plain = workload.run_pass(first=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.run_pass(first=True, tracer=tracer)
        finally:
            tracer.uninstall()
        passes = [plain, traced]
        layer = per_layer(tracer, traced, plain, spec)
        tracer.write(OUT / f"trace-{args.workload}")
        lines = [f"{name} {value} {unit}" for name, (value, unit) in layer.items()]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer.items()}
    else:
        passes = run_passes(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += time_imports(SETUP_LAUNCHES, setup_probe)
        setup_probe.probe()
        setup_s = statistics.median(t * setup_probe.scale(at) for t, at in setup_times)
        raw_setup_s = statistics.median(t for t, _ in setup_times)
        if args.workload == "sweep":
            e2e, lines = sweep_e2e(passes)
        elif args.workload == "construct":
            e2e, lines = construct_e2e(passes, workload.limit)
        else:
            e2e, lines = verify_e2e(passes, workload.hard)
        e2e.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        lines += [f"setup_s {setup_s:.4f} s  (wall clock {raw_setup_s:.4f};"
                  f" median of {len(setup_times)} launches)",
                  f"peak_rss_mb {peak_rss_mb:.1f} MB",
                  f"reference {workload.probe.kernel} {workload.probe.median_s() * 1000:.3f} ms"
                  f" median over {len(workload.probe.times)} probes; scaled to"
                  f" {REF_S[workload.probe.kernel] * 1000:.3f} ms"]
        lines += [f"e2e {name} {value} {E2E_UNITS[name]}" for name, value in e2e.items()]
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in e2e.items()}

    defects = [d for p in passes for d in p["defects"]]
    for d in defects[:20]:
        print(f"bench: wrong output: {d}", file=sys.stderr)
    for line in lines:
        print(line)
    print(json.dumps({"correct": not defects,
                      "attempted": sum(p["attempted"] for p in passes),
                      "failed": sum(p["failed"] for p in passes),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
