#!/usr/bin/env python3
"""Self-test of the benchmark, at toy size (about half a minute).

    python3 bench/selftest.py

Checks that every workload, traced and untraced, exits 0 and prints as its
last line a correct result carrying exactly the metrics BENCHMARK.json
names, with their units; that the benchmark's own checkers reject a
tampered certificate and a tampered plan; and that a directory holding
only the benchmark exits non-zero without printing a result.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import certificate_defects, parse_certificate_text, plan_defects  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_runs(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            proc = run(ROOT, w["name"], trace)
            what = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                print(proc.stderr)
            expect(proc.returncode == 0, f"{what} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what} result keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{what} correct, attempted {result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{what} prints every {key} metric with its unit")


def check_checkers() -> None:
    text = (ROOT / "fixtures" / "intro_9.txt").read_text(encoding="ascii")
    inner = parse_certificate_text((ROOT / "fixtures" / "intro_8.txt").read_text(encoding="ascii"))
    outer = parse_certificate_text(text)
    expect(not certificate_defects(outer, inner), "checker accepts intro_9 over intro_8")
    ground, lam, reg, classes = outer
    moved = [list(c) for c in classes]
    moved[0][0], moved[1][0] = classes[1][0], classes[0][0]
    expect(bool(certificate_defects((ground, lam, reg, moved), inner)),
           "checker rejects intro_9 with two blocks swapped between classes")

    sys.path.insert(0, str(ROOT / "src"))
    from quadembed import EmbeddingParams, build_plan

    tup = (6, 9, 2, 4, 1)
    plan = build_plan(EmbeddingParams(*tup))
    cols = [list(plan.e), list(plan.f), list(plan.g), list(plan.h)]
    expect(not plan_defects(tup, *cols), "checker accepts the plan for 6 9 2 4 1")
    cols[1][0] += 1
    cols[1][-1] -= 1
    expect(bool(plan_defects(tup, *cols)),
           "checker rejects that plan with one f moved between colors")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "sweep", 0)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "benchmark alone, without the program, exits non-zero with no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_checkers()
    check_bare_directory()
    check_runs(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
