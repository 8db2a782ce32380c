"""Colored 4-set systems, embedding certificates, and their text format.

A Factorization is a multiset of 4-subsets of {1..ground_size} partitioned
into color classes.  It is *valid* when the union over classes covers every
4-subset exactly lam times and every vertex appears exactly ``regularity``
times in every class.

File format (line oriented, bit-exact round trip on the canonical form):

    <ground_size> <lam> <regularity> <class_count>
    1: 1 2 3 5, 1 2 4 6, 3 4 5 6
    2: ...

A Factorization is immutable and checked once, on construction or by the
parser (below): every block becomes a sorted 4-subset of 1..ground_size and
every class a sorted tuple of blocks, so parse(render(x)) == x and the
issue finders below never meet a malformed block.  Vertices are integers in
the sense of ``operator.index``: a float, a Fraction or a string is
rejected, even when its value is integral, and an ``int`` subclass such as
``bool`` is stored as a plain ``int``.  The three header fields are
converted and stored the same way.

The constructor's check runs one class at a time.  A class whose blocks are
all tuples of four plain ``int`` vertices with 1 <= a < b < c < d <=
ground_size, which is what the construction hands over, is only sorted; any
other class goes block by block through ``_canonical_block``, which sorts
each block, converts its vertices and words the error.

The parser reads the labels of a line in the renderer's layout through a
table from "1".."N" to their integers.  N is at most ground_size and at
most the largest v with 8 * C(v, 4) <= file length, since a cover of the
4-subsets of 1..v takes that many characters; so the table is bounded by
the file, and only by its fourth root, not by the header.  A class line in the renderer's layout, "a b c d, a b c d, ..." with
a < b < c < d in each block (any blanks, any block order), is read by
columns: the body is cut into segments of whole blocks, each ending just
after the first comma at or past ``_SEGMENT`` characters, and each segment is
split once.  Its tokens 0, 4, 8, ... are the a column, and so on; the d
column goes through a second table of the labels "1,".."N,", except the
line's last token.  Three comparisons of columns then prove every block a
4-subset of 1..ground_size, so this is the class's only check.  Segments
are 64 KiB because the 385k tokens of a 1.1 MB line would take about 22 MB
at once, while a segment's take about 1.3 MB, little beside the blocks that
the parse keeps.

Any other line (a missing comma, an empty entry, "05", "x", "3.5", a label
above N, an unsorted block), and every line after it, is converted chunk by
chunk with ``int()``, and a chunk with a token that is not ASCII digits
("+1", "-1", "0_5", "٢"; "04" is 4) is passed on as its list of tokens.  The
constructor then checks the whole file, and reports a bad block with the
line of its class.

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
from math import comb
from operator import index as index_of, lt

from .errors import FormatError, InputError

Block = tuple[int, int, int, int]

_SEGMENT = 1 << 16  # characters per segment of a class line read by columns


class _Checked(tuple):
    """Classes that the parser has proved canonical; the constructor takes
    them as they are."""


class BlockError(InputError):
    """A block that is not 4 distinct integers in 1..n; ``index`` is the
    0-based position of its class, which a parser maps back to a line."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"class {index + 1}: {message}")


def _canonical_block(block, ground_size: int, index: int) -> Block:
    try:
        b = tuple(sorted(map(index_of, block)))
    except TypeError:
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
        if type(self.classes) is _Checked:
            classes = tuple(self.classes)
        else:
            classes = tuple(_canonical_class(tuple(c), n, i)
                            for i, c in enumerate(self.classes))
        for name, x in zip(self.__dataclass_fields__, (n, lam, reg, classes)):
            object.__setattr__(self, name, x)


def _canonical_class(cls: tuple, ground_size: int, index: int) -> tuple[Block, ...]:
    """Class ``index`` as a sorted tuple of sorted blocks; one pass shows
    whether it is that already, up to the order of its blocks."""
    if all(type(b) is tuple and len(b) == 4 and type(b[0]) is int
           and type(b[1]) is int and type(b[2]) is int and type(b[3]) is int
           and 1 <= b[0] < b[1] < b[2] < b[3] <= ground_size for b in cls):
        return tuple(sorted(cls))
    return tuple(sorted(_canonical_block(b, ground_size, index) for b in cls))


def factorization_issues(fact: Factorization) -> list[str]:
    """Completeness and regularity defects, as human-readable strings.

    The cover is judged from the blocks present, never by listing all
    C(n, 4) subsets: each 4-subset of 1..n supplies min(count, lam) of the
    lam * C(n, 4) wanted copies, and every other block is surplus.
    """
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
        if degrees.count(reg) != n:  # degrees[0] stays 0 < reg
            bad = [v for v in range(1, n + 1) if degrees[v] != reg]
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
    return issues + restriction_issues(inner, outer)


def restriction_issues(inner: Factorization, outer: Factorization) -> list[str]:
    """Restriction defects: outer class i restricted to the 4-subsets of
    1..m must be inner class i, and the outer classes beyond the inner ones
    must avoid 1..m."""
    m, q = inner.ground_size, len(inner.classes)
    if q > len(outer.classes):
        return ["inner system has more classes than outer"]
    # both sides are sorted and a sorted block lies in 1..m when its last
    # vertex does, so the restriction of outer class i is a filter of it
    issues = []
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
        body = ", ".join(map("%d %d %d %d".__mod__, cls))
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
    # a file that covers the 4-subsets of 1..v names C(v, 4) blocks of at
    # least 8 characters each, so a label above the last such v (or above
    # the header's ground size) only appears in a file that is no cover
    top = 0
    while top < ground and 8 * comb(top + 1, 4) <= len(text):
        top += 1
    label = {str(v): v for v in range(1, top + 1)}.__getitem__
    comma_label = {f"{v},": v for v in range(1, top + 1)}.__getitem__
    classes, by_columns = [], True
    for expected, (lineno, ln) in enumerate(rows, start=1):
        prefix, _, body = ln.partition(":")
        try:
            idx = int(prefix)
        except ValueError as exc:
            raise FormatError(f"bad class index {prefix!r}", lineno) from exc
        if idx != expected:
            raise FormatError(f"class index {idx}, expected {expected}", lineno)
        if by_columns:
            cls = _columns(body, label, comma_label)
            if cls is not None:
                classes.append(cls)
                continue
            by_columns = False
        # a blank body is an empty class; an empty entry in a body is the
        # block (), which Factorization rejects as not a 4-subset
        chunks = body.split(",") if body.strip() else ()
        classes.append([_int_block(c.split()) for c in chunks])
    if by_columns:
        classes = _Checked(classes)
    try:
        return Factorization(ground, lam, reg, classes)
    except BlockError as exc:
        raise FormatError(str(exc), rows[exc.index][0]) from exc
    except InputError as exc:
        raise FormatError(str(exc), 1) from exc


def _columns(body: str, label, comma_label) -> tuple[Block, ...] | None:
    """A class line's body in the renderer's layout as its sorted tuple of
    blocks, or None when the body is in any other layout."""
    if not body.strip():
        return ()
    blocks, start, end = [], 0, len(body)
    while start < end:
        cut = body.find(",", start + _SEGMENT) + 1 or end
        t = body[start:cut].split()
        start = cut
        if not t or len(t) % 4:
            return None
        try:
            a, b, c = (list(map(label, t[i::4])) for i in range(3))
            d = list(map(comma_label, t[3:-1:4]))
            d.append((comma_label if start < end else label)(t[-1]))
        except KeyError:
            return None
        if not (all(map(lt, a, b)) and all(map(lt, b, c)) and all(map(lt, c, d))):
            return None
        blocks += zip(a, b, c, d)
    blocks.sort()
    return tuple(blocks)


def _int_block(tokens: list[str]):
    """A chunk's vertices converted with ``int()`` when every token is ASCII
    digits; any other chunk stays a list of strings, which Factorization
    reports as non-integer."""
    if all(t.isascii() and t.isdigit() for t in tokens):
        return tuple(map(int, tokens))
    return tokens


def read_factorization(path) -> Factorization:
    with open(path, encoding="ascii") as fh:
        return parse_factorization(fh.read())
