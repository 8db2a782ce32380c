"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` rebinds every name through which a traced function is
reached: the defining module's attribute and each ``quadembed`` module
that imported it into its own globals (the planner holds its own
``per_color_bounds``, the detach module its own ``verify_plan`` and
``verify_certificate``).  ``IntervalSystem`` is traced by wrapping its
``__init__`` and ``solve`` on the class.  ``uninstall`` puts the originals
back.

A span is (start, end, parent span, name, group), where the group is the
grid tuple, rung or corpus item being worked on.  Spans live in flat
arrays in memory and are written once, at the end.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from functools import wraps
from pathlib import Path

# (layer, module, attribute): the public functions traced, per layer.
TRACED = (
    ("params", "quadembed.params", "check_conditions"),
    ("bounds", "quadembed.bounds", "global_bounds"),
    ("bounds", "quadembed.bounds", "per_color_bounds"),
    ("planner", "quadembed.planner", "build_plan"),
    ("planner", "quadembed.planner", "plan_e"),
    ("planner", "quadembed.planner", "plan_f"),
    ("planner", "quadembed.planner", "extend_plan"),
    ("planner", "quadembed.planner", "verify_plan"),
    ("detach", "quadembed.detach", "generate_base"),
    ("detach", "quadembed.detach", "detach"),
    ("factorization", "quadembed.factorization", "parse_factorization"),
    ("factorization", "quadembed.factorization", "factorization_issues"),
    ("factorization", "quadembed.factorization", "certificate_issues"),
    ("factorization", "quadembed.factorization", "verify_certificate"),
    ("factorization", "quadembed.factorization", "render_factorization"),
)
INTERVAL_METHODS = (("__init__", "intervals.IntervalSystem.init"),
                    ("solve", "intervals.IntervalSystem.solve"))
SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, _, attr in TRACED) + tuple(
    name for _, name in INTERVAL_METHODS)


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("H")
        self.group = array("i")
        self.stack: list[int] = []
        self.groups: list[str] = []
        self.current = -1
        self._undo: list[tuple[object, str, object]] = []

    def set_group(self, label: str) -> None:
        self.current = len(self.groups)
        self.groups.append(label)

    def _wrap(self, fn, nid: int):
        start, end, parent, name, group = (self.start, self.end, self.parent,
                                           self.name, self.group)
        stack, clock = self.stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            start.append(clock())
            end.append(0.0)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            group.append(self.current)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        importers = [mod for key, mod in sorted(sys.modules.items())
                     if key == "quadembed" or key.startswith("quadembed.")]
        for nid, (layer, modname, attr) in enumerate(TRACED):
            original = getattr(sys.modules[modname], attr)
            traced = self._wrap(original, nid)
            for mod in importers:
                if mod.__dict__.get(attr) is original:
                    self._rebind(mod, attr, traced)
        system = sys.modules["quadembed.intervals"].IntervalSystem
        for offset, (method, _) in enumerate(INTERVAL_METHODS):
            self._rebind(system, method,
                         self._wrap(system.__dict__[method], len(TRACED) + offset))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def close_open_spans(self, depth: int) -> None:
        """End spans left open when a timeout unwound past their wrappers,
        including one begun but not yet pushed when the signal arrived."""
        now = time.perf_counter()
        for idx in self.stack[depth:]:
            self.end[idx] = now
        del self.stack[depth:]
        if self.end and self.end[-1] == 0.0:
            self.end[-1] = now

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for d, p in zip(dur, self.parent):
            if p >= 0:
                own[p] -= d
        return own

    def per_name(self, own: list[float]) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s for every traced span name."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for nid, s, e, o in zip(self.name, self.start, self.end, own):
            row = out[SPAN_NAMES[nid]]
            row["calls"] += 1
            row["total_s"] += e - s
            row["self_s"] += o
        return out

    def per_group_self(self, span: str, own: list[float]) -> dict[str, float]:
        """Self seconds of one span name, summed per group label."""
        nid = SPAN_NAMES.index(span)
        out: dict[str, float] = {}
        for n, g, o in zip(self.name, self.group, own):
            if n == nid:
                label = self.groups[g] if g >= 0 else "-"
                out[label] = out.get(label, 0.0) + o
        return out

    def write(self, stem: Path) -> None:
        """``<stem>.json`` (names, groups, layout) and ``<stem>.bin`` (arrays)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = [("start", self.start), ("end", self.end), ("parent", self.parent),
                   ("name", self.name), ("group", self.group)]
        header = {"spans": len(self.start), "names": list(SPAN_NAMES),
                  "groups": self.groups,
                  "columns": [[col, arr.typecode, arr.itemsize] for col, arr in columns],
                  "layout": "each column in order, native byte order"}
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, arr in columns:
                arr.tofile(fh)
        stem.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")
