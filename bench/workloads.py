"""The three workloads, each a pass over inputs fixed by the seed.

Every pass calls the program's public functions in the order of the CLI
subcommand it stands for, through the module attributes (``planner.build_plan``
and not a local alias), so a ``Tracer`` that rebinds those attributes sees
every call.  Only the program's own work is inside the clock; the
benchmark's checks of each output run after it stops.

Each workload times the host reference (reference.py) between units of
work and returns every time twice: raw wall-clock seconds, and ``ref_``
seconds scaled to the reference host.
"""

from __future__ import annotations

import gc
import random
import signal
import sys
import time
from collections import Counter

import checks
from reference import SpeedProbe

from quadembed import bounds, factorization, params, planner
from quadembed.errors import FormatError, InputError, PlanInfeasible, SearchExhausted

detach_mod = sys.modules["quadembed.detach"]  # the package attribute is the function

clock = time.perf_counter
SWEEP_PROBE_EVERY = 200  # grid tuples between two reference probes


def label(tup) -> str:
    return "-".join(map(str, tup))


class Sweep:
    """``quadembed sweep`` over a grid, single process: EmbeddingParams and
    check_conditions on every tuple, global_bounds and build_plan on the
    tuples that pass every condition and are in scope."""

    def __init__(self, spec: dict, scale: str, seed: int):
        g = spec["sweep"]["grid"][scale]
        self.known = spec["sweep"]["known"][scale]
        self.tuples = [
            (m, n, r, s, lam)
            for m in range(g["m"][0], g["m"][1] + 1)
            for n in range(m + 1, g["n_max"] + 1)
            for r in range(g["r"][0], g["r"][1] + 1)
            for s in range(g["s"][0], g["s"][1] + 1)
            for lam in range(g["lam"][0], g["lam"][1] + 1)
        ]
        random.Random(seed).shuffle(self.tuples)
        self.probe = SpeedProbe("rational")

    def run_pass(self, first: bool, tracer=None) -> dict:
        gc.collect()
        out_of_scope = params.TheoremCase.OUT_OF_SCOPE
        plan_s, chunk_s, excluded, colors = [], [], 0, 0
        unplanned, defects, via, fallback = [], [], Counter(), []
        for i, tup in enumerate(self.tuples):
            if i % SWEEP_PROBE_EVERY == 0:
                at = self.probe.probe()
                chunk_s.append([0.0, at])
            if tracer:
                tracer.set_group(label(tup))
            t0 = clock()
            try:
                p = params.EmbeddingParams(*tup)
            except InputError:
                chunk_s[-1][0] += clock() - t0
                excluded += 1
                continue
            report = params.check_conditions(p)
            if not report.all_hold() or report.theorem_case is out_of_scope:
                chunk_s[-1][0] += clock() - t0
                continue
            bounds.global_bounds(p)
            t1 = clock()
            try:
                plan = planner.build_plan(p, report)
            except (PlanInfeasible, SearchExhausted):
                plan = None
            t2 = clock()
            chunk_s[-1][0] += t2 - t0
            plan_s.append((t2 - t1, at))
            if plan is None:
                unplanned.append(tup)
                continue
            colors += len(plan.e)
            via[plan.via] += 1
            if plan.via == "fallback":
                fallback.append(list(tup))
            bad = checks.plan_defects(tup, plan.e, plan.f, plan.g, plan.h)
            if bad:
                defects.append(f"{label(tup)}: {bad[0]}")
        n, eligible = len(self.tuples), len(plan_s)
        known = self.known
        for what, got, want in (("tuples", n, known["tuples"]),
                                ("excluded", excluded, known["excluded"]),
                                ("eligible", eligible, known["eligible"]),
                                ("fallback plans", sorted(fallback), sorted(known["fallback"]))):
            if got != want:
                defects.append(f"{what}: got {got}, known {want}")
        self.probe.probe()
        scale = self.probe.scale
        busy = sum(t for t, _ in chunk_s)
        return {"busy_s": busy, "ref_busy_s": sum(t * scale(at) for t, at in chunk_s),
                "next_s": busy, "attempted": n, "failed": len(unplanned),
                "defects": defects, "plan_s": [t for t, _ in plan_s],
                "ref_plan_s": [t * scale(at) for t, at in plan_s],
                "excluded": excluded, "eligible": eligible, "unplanned": unplanned,
                "via": dict(via), "colors": colors}


class RungTimeout(BaseException):
    """Raised by SIGALRM when a rung exceeds its wall-clock limit.

    A BaseException, so no ``except Exception`` in the program can swallow it.
    """


def _alarm(signum, frame):
    raise RungTimeout()


class Construct:
    """``quadembed embed`` per rung: check_conditions, generate_base,
    build_plan(force_out_of_scope=True), detach, verify_certificate,
    render_factorization.

    The first pass runs every hard and wall rung once, each after a round
    of all quick rungs, so the quick-rung figures sample the whole run and
    not one stretch of it; later passes repeat quick rounds while the
    run's time lasts."""

    def __init__(self, spec: dict, scale: str, seed: int):
        c = spec["construct"]
        ladder = c["ladder"][scale]
        self.limit = float(c["limit_s"] if scale == "full" else c["toy_limit_s"])
        self.search_seed = spec["search_seed"]["value"]
        rng = random.Random(seed)
        self.quick = [("quick", tuple(t)) for t in ladder["quick"]]
        rng.shuffle(self.quick)
        slow = ([("hard", tuple(t)) for t in ladder["hard"]]
                + [("wall", tuple(t)) for t in ladder["wall"]])
        rng.shuffle(slow)
        self.ladder = [rung for s in slow for rung in self.quick + [s]]
        self.probe = SpeedProbe("search")
        signal.signal(signal.SIGALRM, _alarm)

    def _embed(self, tup):
        seed = self.search_seed
        p = params.EmbeddingParams(*tup)
        report = params.check_conditions(p)
        if not report.all_hold():
            raise InputError("necessary conditions fail")
        base = detach_mod.generate_base(p.m, p.r, p.lam, seed=seed)
        plan = planner.build_plan(p, report, force_out_of_scope=True)
        cert = detach_mod.detach(p, base, plan, seed=seed)
        ok = factorization.verify_certificate(cert)
        return base, plan, ok, factorization.render_factorization(cert.outer)

    def _rung(self, group: str, tup, tracer) -> dict:
        if tracer:
            tracer.set_group(label(tup))
        depth = len(tracer.stack) if tracer else 0
        outcome, result = "ok", None
        gc.collect()
        at = self.probe.probe()
        t0 = clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit)
            try:
                result = self._embed(tup)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except RungTimeout:
            outcome = "timeout"
        except SearchExhausted:
            outcome = "exhausted"
        except (InputError, PlanInfeasible):
            outcome = "error"
        seconds = clock() - t0
        if tracer:
            tracer.close_open_spans(depth)
        defects = []
        if result is not None:
            base, plan, ok, text = result
            m, n, r, s, lam = tup
            try:
                outer = checks.parse_certificate_text(text)
                defects = checks.certificate_defects(outer, (m, lam, r, base.classes))
                if outer[:3] != (n, lam, s):
                    defects.append(f"header {outer[:3]}, want {(n, lam, s)}")
            except ValueError as exc:
                defects = [f"unreadable certificate: {exc}"]
            if defects or not ok:
                outcome = "unverified"
            if ok == bool(defects):
                defects.append("program verdict disagrees with the benchmark's check")
        return {"rung": label(tup), "group": group, "outcome": outcome,
                "seconds": self.limit if outcome == "timeout" else seconds,
                "probe": at, "defects": defects,
                "via": result[1].via if result else None,
                "colors": len(result[1].e) if result else 0}

    def run_pass(self, first: bool, tracer=None) -> dict:
        todo = self.ladder if first else self.quick
        rungs = [self._rung(group, tup, tracer) for group, tup in todo]
        self.probe.probe()
        for x in rungs:  # a timeout counts as the limit, unscaled
            at = x.pop("probe")
            x["ref_seconds"] = x["seconds"] * (
                1.0 if x["outcome"] == "timeout" else self.probe.scale(at))
        counted = [x for x in rungs if x["group"] != "wall"]
        defects = [f"{x['rung']}: {d}" for x in rungs for d in x["defects"]]
        quick_s = sum(x["seconds"] for x in rungs[:len(self.quick)])
        done = [x for x in rungs if x["outcome"] != "timeout"]
        return {"busy_s": sum(x["seconds"] for x in done),
                "ref_busy_s": sum(x["ref_seconds"] for x in done),
                "next_s": quick_s, "attempted": len(counted),
                "failed": sum(1 for x in counted if x["outcome"] != "ok"),
                "defects": defects, "rungs": rungs,
                "via": dict(Counter(x["via"] for x in rungs if x["via"])),
                "colors": sum(x["colors"] for x in rungs)}


class Verify:
    """``quadembed verify FILE [--base INNER]`` per corpus item:
    parse_factorization, then certificate_issues when an inner file is
    given, else factorization_issues."""

    def __init__(self, manifest: list[dict], corpus_dir, seed: int):
        self.items = []
        for entry in manifest:
            text = (corpus_dir / entry["file"]).read_text(encoding="ascii")
            inner = None
            if entry["inner"]:
                inner = (corpus_dir / entry["inner"]).read_text(encoding="ascii")
            self.items.append((entry, text, inner))
        random.Random(seed).shuffle(self.items)
        self.hard = max((entry for entry, _, _ in self.items if entry["known_valid"]),
                        key=lambda entry: entry["blocks"])["item"]
        self.probe = SpeedProbe("parse")

    def _verdict(self, text: str, inner_text: str | None) -> bool:
        outer = factorization.parse_factorization(text)
        if inner_text is None:
            return not factorization.factorization_issues(outer)
        inner = factorization.parse_factorization(inner_text)
        if len(inner.classes) > len(outer.classes):
            return False
        cert = factorization.EmbeddingCertificate(inner=inner, outer=outer)
        return not factorization.certificate_issues(cert)

    def run_pass(self, first: bool, tracer=None) -> dict:
        results, defects, failed = [], [], 0
        for entry, text, inner in self.items:
            if tracer:
                tracer.set_group(entry["item"])
            gc.collect()
            at = self.probe.probe()
            t0 = clock()
            try:
                verdict = self._verdict(text, inner)
            except (FormatError, InputError):
                verdict = None
            seconds = clock() - t0
            if verdict is None:
                failed += 1
            elif verdict != entry["known_valid"]:
                defects.append(f"{entry['item']}: verdict {verdict},"
                               f" known {entry['known_valid']}")
            if first and entry["checker_valid"] != entry["known_valid"]:
                defects.append(f"{entry['item']}: benchmark check disagrees with"
                               " the known verdict")
            results.append({"item": entry["item"], "seconds": seconds, "probe": at,
                            "blocks": entry["blocks"], "bytes": len(text) + len(inner or ""),
                            "wrong": verdict is not None and verdict != entry["known_valid"]})
        self.probe.probe()
        for x in results:
            x["ref_seconds"] = x["seconds"] * self.probe.scale(x.pop("probe"))
        busy = sum(x["seconds"] for x in results)
        return {"busy_s": busy, "ref_busy_s": sum(x["ref_seconds"] for x in results),
                "next_s": busy, "attempted": len(results),
                "failed": failed, "defects": defects, "items": results}
