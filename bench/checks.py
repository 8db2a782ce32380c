"""Output checks that share no code with the program under test.

Nothing here imports ``quadembed.factorization`` or the planner's
``verify_plan``: certificates are re-parsed from their text and re-checked
from raw 4-subsets, and plans are re-checked against the counting laws
derived from the parameters alone.  Every check returns a list of defect
strings (empty when the output is right) and never relies on ``assert``,
which ``python -O`` strips.
"""

from __future__ import annotations

from collections import Counter
from math import comb


def parse_certificate_text(text: str) -> tuple[int, int, int, list[list[tuple]]]:
    """(ground, lam, regularity, classes) from the certificate text format.

    Raises ValueError on any malformed line.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty certificate")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError("header needs 4 fields")
    ground, lam, reg, count = (int(x) for x in head)
    if len(lines) - 1 != count:
        raise ValueError(f"expected {count} class lines, got {len(lines) - 1}")
    classes = []
    for expected, ln in enumerate(lines[1:], start=1):
        prefix, sep, body = ln.partition(":")
        if not sep or int(prefix) != expected:
            raise ValueError(f"class line {expected} has a bad index")
        blocks = []
        for chunk in body.split(","):
            if not chunk.strip():
                continue
            block = tuple(sorted(int(x) for x in chunk.split()))
            if len(block) != 4:
                raise ValueError(f"class {expected}: {chunk.strip()!r} is not 4 vertices")
            blocks.append(block)
        classes.append(blocks)
    return ground, lam, reg, classes


def factorization_defects(ground: int, lam: int, reg: int,
                          classes: list[list[tuple]]) -> list[str]:
    """lam-fold cover of all 4-subsets of {1..ground}, every class reg-regular."""
    defects = []
    counts = Counter()
    for cls in classes:
        counts.update(cls)
    for block, c in counts.items():
        if len(set(block)) != 4 or block[0] < 1 or block[-1] > ground:
            defects.append(f"block {block} is not a 4-subset of 1..{ground}")
            break
        if c != lam:
            defects.append(f"block {block} covered {c} times, want {lam}")
            break
    if len(counts) != comb(ground, 4):
        defects.append(f"{len(counts)} distinct blocks, want {comb(ground, 4)}")
    for i, cls in enumerate(classes):
        degree = [0] * (ground + 1)
        for block in cls:
            for v in block:
                if 1 <= v <= ground:
                    degree[v] += 1
        if any(d != reg for d in degree[1:]):
            defects.append(f"class {i + 1} is not {reg}-regular")
            break
    return defects


def certificate_defects(outer: tuple, inner: tuple | None = None) -> list[str]:
    """Defects of an outer factorization and, given an inner one, of the
    nesting: outer class i restricted to {1..m} is inner class i, and every
    outer class past the inner ones avoids {1..m}."""
    defects = [f"outer: {d}" for d in factorization_defects(*outer)]
    if inner is None:
        return defects
    m, lam_in, _, inner_classes = inner
    defects += [f"inner: {d}" for d in factorization_defects(*inner)]
    ground, lam_out, _, outer_classes = outer
    if ground <= m or lam_in != lam_out or len(inner_classes) > len(outer_classes):
        defects.append("inner system does not fit inside the outer one")
        return defects
    for i, cls in enumerate(outer_classes):
        restricted = Counter(b for b in cls if b[3] <= m)
        want = Counter(inner_classes[i]) if i < len(inner_classes) else Counter()
        if restricted != want:
            defects.append(f"outer class {i + 1} does not restrict to"
                           f" {'inner class' if want else 'nothing'}")
    return defects


def shape_totals(m: int, n: int, lam: int) -> tuple[int, int, int, int]:
    """Crossing 4-subsets of {1..n} with exactly 3, 2, 1, 0 vertices in {1..m}."""
    return (lam * comb(m, 3) * (n - m), lam * comb(m, 2) * comb(n - m, 2),
            lam * m * comb(n - m, 3), lam * comb(n - m, 4))


def plan_defects(tup: tuple, e, f, g, h) -> list[str]:
    """Length k, nonnegativity, the four shape totals and both degree laws
    of a per-color plan for (m, n, r, s, lam)."""
    m, n, r, s, lam = tup
    q, k = lam * comb(m - 1, 3) // r, lam * comb(n - 1, 3) // s
    cols = (e, f, g, h)
    if any(len(col) != k for col in cols):
        return [f"plan has {[len(c) for c in cols]} colors, want {k}"]
    if any(x < 0 for col in cols for x in col):
        return ["negative count"]
    defects = []
    if tuple(sum(col) for col in cols) != shape_totals(m, n, lam):
        defects.append("shape totals differ from the crossing-subset census")
    for j in range(k):
        old = 3 * e[j] + 2 * f[j] + g[j]
        if old != (m * (s - r) if j < q else s * m):
            defects.append(f"color {j + 1}: old-vertex degree {old}")
            break
        if e[j] + 2 * f[j] + 3 * g[j] + 4 * h[j] != s * (n - m):
            defects.append(f"color {j + 1}: new-vertex degree law fails")
            break
    return defects
