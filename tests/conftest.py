import importlib.util
from collections import Counter
from fractions import Fraction
from itertools import chain, groupby
from math import comb
from pathlib import Path

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

from quadembed.bounds import tier_bounds
from quadembed.params import EmbeddingParams

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's certificate checker, which shares no code with the package
bench_checks = _load(ROOT / "bench" / "checks.py")


# Three counting identities of the paper, used as oracles for math.comb:
# each splits subsets of an n-set by how many points they share with a
# fixed m-subset, so each must hold for every 1 <= m < n.

def _require_pair(m: int, n: int) -> None:
    assert 1 <= m < n, f"need 1 <= m < n, got m={m}, n={n}"


def identity_a(m: int, n: int) -> bool:
    """C(n,4) counted by the number of points a 4-subset shares with [m]."""
    _require_pair(m, n)
    lhs = comb(n, 4)
    rhs = (
        comb(m, 4)
        + (n - m) * comb(m, 3)
        + comb(m, 2) * comb(n - m, 2)
        + m * comb(n - m, 3)
        + comb(n - m, 4)
    )
    return lhs == rhs


def identity_b(m: int, n: int) -> bool:
    """C(n-1,3) counted by the number of points a 3-subset shares with [m-1]."""
    _require_pair(m, n)
    lhs = comb(n - 1, 3)
    rhs = (
        comb(m - 1, 3)
        + (n - m) * comb(m - 1, 2)
        + (m - 1) * comb(n - m, 2)
        + comb(n - m, 3)
    )
    return lhs == rhs


def identity_c(m: int, n: int) -> bool:
    """Total degree of [m] over crossing 4-subsets, counted two ways."""
    _require_pair(m, n)
    lhs = m * (comb(n - 1, 3) - comb(m - 1, 3))
    rhs = (
        3 * (n - m) * comb(m, 3)
        + 2 * comb(m, 2) * comb(n - m, 2)
        + m * comb(n - m, 3)
    )
    return lhs == rhs


def admissible_regularities(v: int, lam: int, hi: int) -> list[int]:
    return [
        r for r in range(1, hi + 1)
        if (r * v) % 4 == 0 and (lam * comb(v - 1, 3)) % r == 0
    ]


def sweep_params(n_hi: int, r_hi: int, s_hi: int, lam_hi: int):
    """All admissible-triple tuples with 4 <= m < n <= n_hi, minus excluded inputs."""
    for lam in range(1, lam_hi + 1):
        for m in range(4, n_hi):
            rs = admissible_regularities(m, lam, r_hi)
            if not rs:
                continue
            for n in range(m + 1, n_hi + 1):
                ss = admissible_regularities(n, lam, s_hi)
                for r in rs:
                    if m == 4 and (r < 2 or lam < 2):
                        continue
                    for s in ss:
                        yield EmbeddingParams(m, n, r, s, lam)


def fraction_bounds(p: EmbeddingParams) -> list[tuple]:
    """Per tier (count, iota_i, rho_i, rhop_i) from the rows (count, c, d) of
    ``tier_bounds``: iota_i = 2c - d, rho_i = d/3, rhop_i = c/2 as Fractions."""
    return [(count, 2 * c - d, Fraction(d, 3), Fraction(c, 2))
            for count, c, d in tier_bounds(p)]


# Runs (count, *value): ``count`` consecutive entries sharing a value.  The
# planner and IntervalSystem take and return runs; the tests write entries
# out one by one and compare entry by entry.

def runs(entries) -> list[tuple]:
    """Entries to runs of equal consecutive entries; a tuple entry is spread."""
    out = []
    for value, group in groupby(entries):
        count = sum(1 for _ in group)
        out.append((count, *value) if isinstance(value, tuple) else (count, value))
    return out


def expand(runs) -> list:
    """Runs to entries: a bare value for (count, x), a tuple for (count, a, b, ...)."""
    out = []
    for count, *value in runs:
        out += [value[0] if len(value) == 1 else tuple(value)] * count
    return out


def feasible(system) -> bool:
    """The averaging criterion over the expanded entries of an IntervalSystem."""
    entries = expand(system.runs)
    lower = sum(a for a, _ in entries if a >= 0)
    return lower <= system.target <= sum(b for _, b in entries)


def satisfied_by(system, x_runs) -> bool:
    """Check a candidate solution, as runs, against all three constraint families."""
    entries, xs = expand(system.runs), expand(x_runs)
    if len(xs) != len(entries):
        return False
    if any(type(x) is not int or x < 0 for x in xs):
        return False
    if any(not (a <= x <= b) for x, (a, b) in zip(xs, entries)):
        return False
    return sum(xs) == system.target


def amalgamate(inner, outer) -> tuple[tuple[int, int, int, int, int], ...]:
    """The plan an embedding of ``inner`` in ``outer`` amalgamates to, as rows.

    Per outer class, the crossing blocks are counted by their number of old
    vertices: 3, 2, 1, 0 give e_j, f_j, g_j, h_j.  The old colors are the
    classes that hold inner blocks; they come first, in class order, and the
    rows (count, e_j, f_j, g_j, h_j) merge equal neighbours but never an old
    color with a new one.  This is the necessity half of existence: every
    embedding yields a plan.
    """
    m = inner.ground_size
    colors = []
    for cls in outer.classes:
        shapes = Counter(sum(v <= m for v in block) for block in cls if block[3] > m)
        new = all(block[3] > m for block in cls)
        colors.append((new, shapes[3], shapes[2], shapes[1], shapes[0]))
    colors.sort(key=lambda color: color[0])  # stable: old colors first
    return tuple((count, *quad) for count, _, *quad in runs(colors))


# Oracles for the issue finders of ``quadembed.factorization``, which read
# the stored keys: the same checks over the decoded classes, tuple by tuple,
# with a Counter for the cover and a slice for the restriction.

def tuple_factorization_issues(fact) -> list[str]:
    issues = []
    n, lam, reg = fact.ground_size, fact.lam, fact.regularity
    counts = Counter(chain.from_iterable(fact.classes))
    # a block's multiplicity takes few values, so take min() once per value
    covered = sum(min(count, lam) * blocks
                  for count, blocks in Counter(counts.values()).items())
    missing = lam * comb(n, 4) - covered
    extra = sum(map(len, fact.classes)) - covered
    if missing or extra:
        issues.append(f"not a {lam}-fold cover of all 4-subsets"
                      f" ({missing} missing, {extra} unexpected)")
    for i, cls in enumerate(fact.classes):
        if 4 * len(cls) != reg * n:
            issues.append(f"class {i + 1}: {len(cls)} blocks cannot give all {n}"
                          f" vertices degree {reg} (needs 4 * blocks = {reg * n})")
            continue
        degrees = [0] * (n + 1)
        for a, b, c, d in cls:
            degrees[a] += 1
            degrees[b] += 1
            degrees[c] += 1
            degrees[d] += 1
        if degrees.count(reg) != n:
            bad = [v for v in range(1, n + 1) if degrees[v] != reg]
            issues.append(f"class {i + 1}: vertices {bad} do not have degree {reg}")
    return issues


def tuple_restriction_issues(inner, outer) -> list[str]:
    m, q = inner.ground_size, len(inner.classes)
    if q > len(outer.classes):
        return ["inner system has more classes than outer"]
    issues = []
    for i, cls in enumerate(outer.classes):
        old = tuple(b for b in cls if b[3] <= m)
        if i < q:
            if old != tuple(inner.classes[i]):
                issues.append(f"outer class {i + 1} does not restrict to"
                              f" inner class {i + 1}")
        elif old:
            issues.append(f"new outer class {i + 1} contains {len(old)}"
                          f" inner 4-subsets")
    return issues
