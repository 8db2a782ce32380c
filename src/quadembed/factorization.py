"""Colored 4-set systems, embedding certificates, and their text format.

A Factorization is a multiset of 4-subsets of {1..ground_size} partitioned
into color classes.  It is *valid* when the union over classes covers every
4-subset exactly lam times and every vertex appears exactly ``regularity``
times in every class.

File format (line oriented, bit-exact round trip on the canonical form):

    <ground_size> <lam> <regularity> <class_count>
    1: 1 2 3 5, 1 2 4 6, 3 4 5 6
    2: ...

A Factorization is immutable and checked once, on construction: every
block becomes a sorted 4-subset of 1..ground_size and every class a sorted
tuple of blocks, so parse(render(x)) == x and the issue finders below never
meet a malformed block.  A bad block in a file is reported with the line of
its class.

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
from operator import index as index_of

from .combinat import binomial
from .errors import FormatError, InputError

Block = tuple[int, int, int, int]


class BlockError(InputError):
    """A block that is not 4 distinct integers in 1..n; ``index`` is the
    0-based position of its class, which a parser maps back to a line."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"class {index + 1}: {message}")


def _canonical_block(block, ground_size: int, index: int) -> Block:
    try:
        b = tuple(sorted(map(int, block)))
    except (TypeError, ValueError):
        raise BlockError(index, f"non-integer vertex in block {block}") from None
    if len(b) == 4 and 1 <= b[0] < b[1] < b[2] < b[3] <= ground_size:
        return b
    if len(b) != 4 or len(set(b)) != 4:
        raise BlockError(index, f"block {b} is not a 4-subset")
    raise BlockError(index, f"block {b} out of range 1..{ground_size}")


@dataclass(frozen=True)
class Factorization:
    """Immutable: ``classes`` is a tuple of classes, each a sorted tuple of
    sorted blocks, so every block is a 4-subset of 1..ground_size."""

    ground_size: int
    lam: int
    regularity: int
    classes: tuple[tuple[Block, ...], ...]

    def __post_init__(self):
        try:
            n, lam, reg = map(index_of, (self.ground_size, self.lam, self.regularity))
        except TypeError:
            raise InputError("ground_size, lam and regularity must be integers") from None
        if n < 4 or lam < 1 or reg < 1:
            raise InputError("ground_size >= 4, lam >= 1, regularity >= 1 required")
        object.__setattr__(self, "classes", tuple(
            tuple(sorted(_canonical_block(b, n, i) for b in cls))
            for i, cls in enumerate(self.classes)))


def factorization_issues(fact: Factorization) -> list[str]:
    """Completeness and regularity defects, as human-readable strings.

    The cover is judged from the blocks present, never by listing all
    C(n, 4) subsets: each 4-subset of 1..n supplies min(count, lam) of the
    lam * C(n, 4) wanted copies, and every other block is surplus.
    """
    issues = []
    n, lam, reg = fact.ground_size, fact.lam, fact.regularity
    counts = Counter(chain.from_iterable(fact.classes))
    covered = sum(min(count, lam) for count in counts.values())
    missing = lam * binomial(n, 4) - covered
    extra = sum(len(cls) for cls in fact.classes) - covered
    if missing or extra:
        issues.append(f"not a {lam}-fold cover of all 4-subsets"
                      f" ({missing} missing, {extra} unexpected)")
    for i, cls in enumerate(fact.classes):
        # degree reg at all n vertices needs 4 |cls| = reg n; a class of
        # another size has a vertex of the wrong degree, so skip its scan
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
        bad = [v for v in range(1, n + 1) if degrees[v] != reg]
        if bad:
            issues.append(f"class {i + 1}: vertices {bad} do not have degree {reg}")
    return issues


def is_valid_factorization(fact: Factorization) -> bool:
    return not factorization_issues(fact)


@dataclass(frozen=True)
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

    # both sides are sorted and a sorted block lies in 1..m when its last
    # vertex does, so the restriction of outer class i is a filter of it
    for i, cls in enumerate(outer.classes):
        old = tuple(b for b in cls if b[3] <= m)
        if i < q:
            if old != inner.classes[i]:
                issues.append(f"outer class {i + 1} does not restrict to"
                              f" inner class {i + 1}")
        elif old:
            issues.append(f"new outer class {i + 1} contains {len(old)}"
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
        # split lazily: Factorization converts each block as it is read,
        # and rejects an empty entry as a block that is not a 4-subset
        classes.append((chunk.split() for chunk in body.split(","))
                       if body.strip() else ())
    try:
        return Factorization(ground, lam, reg, classes)
    except BlockError as exc:
        raise FormatError(str(exc), rows[exc.index][0]) from exc
    except InputError as exc:
        raise FormatError(str(exc), 1) from exc


def write_factorization(fact: Factorization, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_factorization(fact))


def read_factorization(path) -> Factorization:
    with open(path, encoding="ascii") as fh:
        return parse_factorization(fh.read())
