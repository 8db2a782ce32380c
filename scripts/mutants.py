"""Mutation check of verify_plan, the independent re-check of every plan,
of the planning layers' gate ``tier_bounds`` and the regime reader
``sign_case``, and of the lane test ``_less``; with ``--full``, of the
certificate parser's column reader and the certificate checks as well.

Each mutant changes one node of a target function:

- a comparison flips to its negation (``<`` to ``>=``, ``==`` to ``!=``,
  ``is`` to ``is not``, ``in`` to ``not in``), one operator of a chain at a time;
- ``and`` and ``or`` swap;
- ``+`` and ``-`` swap;
- an integer constant grows by one.

The mutated module is written with ``ast.unparse`` into a scratch copy of
``src/quadembed``, and the target's test file runs once per mutant against
that copy (``pytest -x``, so the first failing test kills it).  A mutant
that passes every test survives.  Every survivor must be listed in
``EQUIVALENT``, keyed by the name the run prints, with a one-line reason
why no test can tell it from the original.  An unlisted survivor, or a
listed mutant that a test now kills or that the function no longer
yields, fails the run (exit 1).  The unmutated module, unparsed the same
way, must pass first.

The toy mode runs ``TARGETS``: ``verify_plan`` with
``tests/test_planner.py``, ``tier_bounds`` and ``sign_case`` with
``tests/test_bounds.py``, and the lane test ``_less`` of the column proof
with ``tests/test_factorization.py``.  The full mode adds
``FULL_TARGETS``: the parser's batch reader ``_by_columns`` and its column
reader ``_columns``, the constructor's packer ``_packed``, the interleave
into key memory ``_append_keys`` that both use, the runs of keys ``_runs``
that the lane tests take, the one column proof ``_proved``, and the issue
finders ``factorization_issues`` and ``restriction_issues`` with their lane
tests ``_repeats`` and ``_restricted``, and ``certificate_issues``, which
joins them, each with ``tests/test_factorization.py``.

    python scripts/mutants.py [--full]

The script imports only the standard library; the tests it runs need
pytest and hypothesis.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadembed"

# (module, function, test file): each function with the tests that guard it
TARGETS = (("planner", "verify_plan", "tests/test_planner.py"),
           ("bounds", "tier_bounds", "tests/test_bounds.py"),
           ("bounds", "sign_case", "tests/test_bounds.py"),
           ("factorization", "_less", "tests/test_factorization.py"))
FULL_TARGETS = TARGETS + tuple(
    ("factorization", function, "tests/test_factorization.py")
    for function in ("_by_columns", "_columns", "_packed", "_append_keys", "_runs", "_proved",
                     "factorization_issues", "_repeats", "restriction_issues", "_restricted",
                     "certificate_issues"))

# mutant name -> why no test can kill it
EQUIVALENT = {
    "verify_plan+19: e_j | f_j | g_j | h_j < 0 -> e_j | f_j | g_j | h_j < 1":
        "it also rejects an all-zero row, which the law e + 2f + 3g + 4h = s(n - m) >= 1 rejects",
    "verify_plan+19: start + count -> start - count":
        "it drops the crossing check; a row crossing q puts more than q colors under the old"
        " law m(s - r) != sm, so its sum of 3e + 2f + g misses the one the totals fix",
    **dict.fromkeys((
        "factorization_issues+31: reg * (46 - n) > 30 * n -> reg * (46 - n) <= 30 * n",
        "factorization_issues+31: 46 - n -> 46 + n",
        "factorization_issues+31: 30 * n -> 31 * n",
        "factorization_issues+31: 46 - n -> 47 - n"),
        "the test only picks how the degrees are counted, per vertex or block by block,"
        " and both count the same degrees"),
    "factorization_issues+32: n + 1 -> n + 2":
        "it also counts vertex n + 1, which no field holds, so the extra degree is 0 < reg",
    "factorization_issues+34: n + 1 -> n + 2":
        "the extra slot, past vertex n, stays 0 < reg, so degrees.count(reg) is unchanged",
}

FLIPS = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAPS = {ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no function {name!r}")


def _sites(nodes: list[ast.AST]):
    """(index into ``nodes``, operator index) of each mutation."""
    for i, node in enumerate(nodes):
        if isinstance(node, ast.Compare):
            yield from ((i, j) for j, op in enumerate(node.ops) if type(op) in FLIPS)
        elif isinstance(node, (ast.BoolOp, ast.BinOp)) and type(node.op) in SWAPS:
            yield i, 0
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield i, 0


def _mutate(node: ast.AST, j: int) -> None:
    if isinstance(node, ast.Compare):
        node.ops[j] = FLIPS[type(node.ops[j])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()


def _window(before: str, after: str) -> str:
    """``before -> after``, cut to 60 characters around the first change."""
    if max(len(before), len(after)) > 60:
        i = next((i for i, (a, b) in enumerate(zip(before, after)) if a != b), 0)
        lo = max(i - 30, 0)
        before, after = (("..." if lo else "") + text[lo:lo + 60] + "..."
                         for text in (before, after))
    return f"{before} -> {after}"


def mutants(module: str, function: str):
    """(name, source) of every mutant of ``function`` in ``module``.

    The name is the function, the line counted from its ``def``, and the
    mutated expression (a constant's enclosing one) before and after.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    func = _function(tree, function)
    nodes = list(ast.walk(func))
    parents = {child: node for node in nodes for child in ast.iter_child_nodes(node)}
    for index, j in _sites(nodes):
        node = nodes[index]
        shown = parents[node] if isinstance(node, ast.Constant) else node
        mutated = copy.deepcopy(tree)
        copies = list(ast.walk(_function(mutated, function)))
        _mutate(copies[index], j)
        change = _window(ast.unparse(shown), ast.unparse(copies[nodes.index(shown)]))
        yield f"{function}+{node.lineno - func.lineno}: {change}", ast.unparse(mutated)


def _passes(package_copy: Path, module: str, source: str, tests: str) -> bool:
    """True when every test of ``tests`` passes with ``module`` replaced by ``source``."""
    (package_copy / "quadembed" / f"{module}.py").write_text(source)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "-o", f"pythonpath={package_copy}", tests],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600)
    return result.returncode == 0


def main(argv: list[str]) -> int:
    if argv not in ([], ["--full"]):
        print("usage: python scripts/mutants.py [--full]", file=sys.stderr)
        return 2
    targets = FULL_TARGETS if argv else TARGETS
    t0 = time.perf_counter()
    unexplained, stale, total = [], [], 0
    with tempfile.TemporaryDirectory() as tmp:
        package_copy = Path(tmp)
        shutil.copytree(PACKAGE, package_copy / "quadembed",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for module, function, tests in targets:
            original = (PACKAGE / f"{module}.py").read_text()
            if not _passes(package_copy, module, ast.unparse(ast.parse(original)), tests):
                print(f"{module}.{function}: the unmutated module fails {tests}")
                return 1
            made = set()
            for name, source in mutants(module, function):
                total += 1
                made.add(name)
                killed = not _passes(package_copy, module, source, tests)
                listed = name in EQUIVALENT
                print(f"{'killed' if killed else 'equivalent' if listed else 'SURVIVED':<10}"
                      f" {name}", flush=True)
                if killed == listed:
                    (stale if killed else unexplained).append(name)
            (package_copy / "quadembed" / f"{module}.py").write_text(original)
            for name in EQUIVALENT:
                if name.startswith(f"{function}+") and name not in made:
                    print(f"{'gone':<10} {name}")
                    stale.append(name)
    print(f"{total} mutants, {len(unexplained)} unexplained survivors,"
          f" {len(stale)} listed as equivalent but killed or no longer made,"
          f" {time.perf_counter() - t0:.0f} s")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
