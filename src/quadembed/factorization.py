"""Colored 4-set systems, embedding certificates, and their text format.

A Factorization is a multiset of 4-subsets of {1..ground_size} partitioned
into color classes.  It is *valid* when the union over classes covers every
4-subset exactly lam times and every vertex appears exactly ``regularity``
times in every class.

File format (line oriented, bit-exact round trip on the canonical form):

    <ground_size> <lam> <regularity> <class_count>
    1: 1 2 3 5, 1 2 4 6, 3 4 5 6
    2: ...

Blocks are sorted quadruples; within a class blocks are stored sorted, so
parse(render(x)) == x.

An EmbeddingCertificate pairs an inner factorization on {1..m} with an outer
one on {1..n}.  It is valid when both factorizations are valid and
restricting outer class i to 4-subsets of {1..m} reproduces inner class i
exactly, while the outer classes beyond the inner ones avoid {1..m}
entirely.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .combinat import binomial
from .errors import FormatError, InputError

Block = tuple[int, int, int, int]


def _canonical_block(block, ground_size: int, where: str = "") -> Block:
    b = tuple(sorted(int(x) for x in block))
    if len(b) != 4 or len(set(b)) != 4:
        raise InputError(f"{where}block {block} is not a 4-subset")
    if b[0] < 1 or b[3] > ground_size:
        raise InputError(f"{where}block {block} out of range 1..{ground_size}")
    return b


@dataclass
class Factorization:
    ground_size: int
    lam: int
    regularity: int
    classes: list[list[Block]]

    def __post_init__(self):
        if self.ground_size < 4 or self.lam < 1 or self.regularity < 1:
            raise InputError("ground_size >= 4, lam >= 1, regularity >= 1 required")
        self.classes = [
            sorted(_canonical_block(b, self.ground_size, f"class {i + 1}: ")
                   for b in cls)
            for i, cls in enumerate(self.classes)
        ]

    def block_counter(self) -> Counter:
        return Counter(b for cls in self.classes for b in cls)


def factorization_issues(fact: Factorization) -> list[str]:
    """Completeness and regularity defects, as human-readable strings.

    The cover is judged from the blocks present, never by listing all
    C(n, 4) subsets: each 4-subset of 1..n supplies min(count, lam) of the
    lam * C(n, 4) wanted copies and max(count - lam, 0) surplus ones, and a
    key that is not a sorted 4-subset of 1..n is surplus in full.  A key
    with a vertex outside 1..n (possible only when ``classes`` is changed
    after construction) is reported; degrees are read at 1..n alone.
    """
    issues = []
    n, lam = fact.ground_size, fact.lam
    covered = extra = 0
    outside = []
    for block, count in fact.block_counter().items():
        if len(block) == 4 and 1 <= block[0] < block[1] < block[2] < block[3] <= n:
            covered += min(count, lam)
            extra += max(count - lam, 0)
        else:
            extra += count
            if not all(1 <= v <= n for v in block):
                outside.append(block)
    missing = lam * binomial(n, 4) - covered
    if missing or extra:
        issues.append(f"not a {lam}-fold cover of all 4-subsets"
                      f" ({missing} missing, {extra} unexpected)")
    if outside:
        issues.append(f"blocks {sorted(outside)} have vertices outside 1..{n}")
    for i, cls in enumerate(fact.classes):
        degrees = Counter(chain.from_iterable(cls))
        bad = [v for v in range(1, n + 1) if degrees[v] != fact.regularity]
        if bad:
            issues.append(f"class {i + 1}: vertices {bad} do not have degree"
                          f" {fact.regularity}")
    return issues


def is_valid_factorization(fact: Factorization) -> bool:
    return not factorization_issues(fact)


@dataclass
class EmbeddingCertificate:
    inner: Factorization
    outer: Factorization


def certificate_issues(cert: EmbeddingCertificate) -> list[str]:
    issues = []
    inner, outer = cert.inner, cert.outer
    m = inner.ground_size
    if outer.ground_size <= m:
        issues.append("outer ground set not larger than inner")
    if inner.lam != outer.lam:
        issues.append("inner and outer multiplicities differ")
    issues += [f"inner: {msg}" for msg in factorization_issues(inner)]
    issues += [f"outer: {msg}" for msg in factorization_issues(outer)]

    q = len(inner.classes)
    if q > len(outer.classes):
        issues.append("inner system has more classes than outer")
        return issues

    # blocks inside 1..m, per outer class: a sorted key's last vertex decides
    old = {}
    for t, cls in enumerate(outer.classes):
        try:
            old[t] = [b for b in cls if b[3] <= m]
        except IndexError:
            issues.append(f"outer class {t + 1} has a key with fewer than 4 vertices")
    for i, cls in enumerate(inner.classes):
        if i in old and Counter(old[i]) != Counter(cls):
            issues.append(f"outer class {i + 1} does not restrict to inner class {i + 1}")
    for t, stray in old.items():
        if t >= q and stray:
            issues.append(f"new outer class {t + 1} contains {len(stray)}"
                          f" inner 4-subsets")
    return issues


def verify_certificate(cert: EmbeddingCertificate) -> bool:
    """Recompute completeness, regularity and restriction from raw subsets."""
    return not certificate_issues(cert)


def render_factorization(fact: Factorization) -> str:
    lines = [f"{fact.ground_size} {fact.lam} {fact.regularity} {len(fact.classes)}"]
    for i, cls in enumerate(fact.classes):
        body = ", ".join(" ".join(str(v) for v in block) for block in cls)
        lines.append(f"{i + 1}: {body}")
    return "\n".join(lines) + "\n"


def parse_factorization(text: str) -> Factorization:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FormatError("missing header", 1)
    head = lines[0].split()
    if len(head) != 4:
        raise FormatError(f"header needs 4 integers, got {len(head)} fields", 1)
    try:
        ground, lam, reg, count = (int(x) for x in head)
    except ValueError as exc:
        raise FormatError(f"bad header: {exc}", 1) from exc
    rows = [(i + 2, ln) for i, ln in enumerate(lines[1:]) if ln.strip()]
    if len(rows) != count:
        raise FormatError(f"expected {count} class lines, found {len(rows)}",
                          len(lines))
    classes = []
    for expected, (lineno, ln) in enumerate(rows, start=1):
        prefix, _, body = ln.partition(":")
        try:
            idx = int(prefix)
        except ValueError as exc:
            raise FormatError(f"bad class index {prefix!r}", lineno) from exc
        if idx != expected:
            raise FormatError(f"class index {idx}, expected {expected}", lineno)
        blocks = []
        for chunk in body.split(",") if body.strip() else []:
            parts = chunk.split()
            if not parts:
                raise FormatError("empty block entry", lineno)
            if len(parts) != 4:
                raise FormatError(f"block {' '.join(parts)!r} is not 4 vertices",
                                  lineno)
            try:
                block = tuple(int(x) for x in parts)
            except ValueError as exc:
                raise FormatError(f"non-integer vertex in {chunk!r}", lineno) from exc
            blocks.append(block)
        classes.append(blocks)
    try:
        return Factorization(ground, lam, reg, classes)
    except InputError as exc:
        raise FormatError(str(exc)) from exc


def write_factorization(fact: Factorization, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_factorization(fact))


def read_factorization(path) -> Factorization:
    with open(path, encoding="ascii") as fh:
        return parse_factorization(fh.read())


def crossing_profile(blocks, m: int) -> tuple[int, int, int, int]:
    """Counts of blocks with exactly 3, 2, 1, 0 vertices inside {1..m}."""
    shape = [0, 0, 0, 0, 0]
    for b in blocks:
        shape[sum(1 for v in b if v <= m)] += 1
    return shape[3], shape[2], shape[1], shape[0]
