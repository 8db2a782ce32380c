"""Colored 4-set systems, embedding certificates, and their text format.

A Factorization is a multiset of 4-subsets of {1..ground_size} partitioned
into color classes.  It is *valid* when the union over classes covers every
4-subset exactly lam times and every vertex appears exactly ``regularity``
times in every class.

File format (line oriented, bit-exact round trip on the canonical form):

    <ground_size> <lam> <regularity> <class_count>
    1: 1 2 3 5, 1 2 4 6, 3 4 5 6
    2: ...

Storage.  A block a < b < c < d is one 4-byte key (array typecode "I"),
((a << 8 | b) << 8 | c) << 8 | d, of four 8-bit fields, so the ground size
is at most 255 and a larger one is refused.  Keys compare as their blocks
do as tuples, and a class is stored as the bytes of its sorted keys in
native byte order: 4 bytes a block, none tracked by the cyclic garbage
collector.  The construction builds these keys field by field in a
``key_array``.  A key's fields are also read in place, as the bytes of the
class: in memory they run d c b a on a little-endian host and a b c d on a
big-endian one (``_LAST``).  The issue finders read that storage: the
cover from the keys (a set at lam = 1; else the sorted keys, each XORed
with the key lam places before it, as big ints, ``_repeats``), the
degrees of a class from its fields (by ``bytes.count`` per vertex when
the class is long and the vertices few, else four at a time), and the
restriction to 1..m from the field d, which masks the keys as big ints
(``_restricted``).  No result of the three depends on the byte order: the
fields are read through ``_LAST``, and the cover and the restriction
depend only on equality and AND.
``classes`` is a tuple of read-only ``ColorClass`` views, which decode a
class to its sorted 4-tuples when it is read and compare, hash and print
as that tuple; ``len()`` and indexing decode no more than they return.

A Factorization is immutable and checked once, on construction: every
block becomes a 4-subset of 1..ground_size stored as its key, and every
class the sorted bytes of its keys, so parse(render(x)) == x and the issue
finders below never meet a malformed block.  Vertices are integers in the
sense of ``operator.index``: a float, a Fraction or a string is rejected,
even when its value is integral, and an ``int`` subclass such as ``bool``
is stored as a plain ``int``.  The three header fields are converted and
stored the same way.  It is a frozen dataclass of those fields and the keys,
so it compares and hashes as they do, and ``classes`` is cached on first read.

A class enters the constructor in one form, an array of keys in the
class's own block order.  An array of such keys, which is what the
construction and the parser hand over, is taken as it is; any other class
(tuples, lists, ``ColorClass`` views) is packed into one when every block
has four integer vertices that fit a field.  One proof, ``_proved``, then
checks every class at once by columns, a run of ``_SEGMENT`` bytes of
keys at a time: the fields are read in memory order, and a range test of
the a and d columns and one lane test, ``_less``, of the columns a b c
against b c d prove every block a 4-subset of 1..ground_size.  The lane
test widens each byte to a 16-bit lane of a big int, where one
subtraction compares all of them at C speed.  If that fails,
each class is proved alone, and a class that fails alone, or that cannot
be packed, goes block by block through ``_canonical_block``, which sorts
each block, converts its vertices and words the error.  Each class is then
sorted.

The parser reads the labels of a line in the renderer's layout through a
table from "1".."N" to their integers, N the ground size, which is at most
255: a larger one is refused at the header.  Class lines in the renderer's
layout, "a b c d, a b c d, ..." (any blanks, any block order), are read by
columns in batches: the bodies of consecutive lines, at least ``_SEGMENT``
characters of lines, joined by ", " (a line that long is a batch of its
own, read in place).  A batch is cut into segments of whole blocks, each
ending just after the first comma at or past ``_SEGMENT`` characters, and
each segment is split once.  Its tokens 0, 4, 8, ... are the a column, and
so on; the d column goes through a second table of the labels "1,"..
"N,", the batch's last token with a comma added.  The four columns are
interleaved straight into the memory of the batch's keys, and each class
is a slice of them: a body holds one block more than its commas (none if
blank).  The parser compares no columns: a block it reads that is
unsorted or repeats a vertex fails the constructor's proof, and only its
class goes block by block.
Segments are 64 KiB so that the 366k tokens of a 1.1 MB line are never held
at once: parsing the two such lines of a 2.2 MB certificate peaks at 8.5 MB
(tracemalloc), against 45 MB as one segment, and keeps 0.7 MB of keys.

Any other line (a missing comma, an empty entry, "05", "x", "3.5", a label
above N) fails its batch, and the column path stops there: the lines of
that batch and every line after it are converted chunk by chunk with
``int()``, and a chunk with a token that is not ASCII digits ("+1", "-1",
"0_5", "٢"; "04" is 4) is passed on as its list of tokens.  The
constructor checks every class, and reports a bad block with its class's
line.  The four header fields follow the same rule: "06" is 6, and
"+6", "-1", "0_6" or "٦" is a bad header; so does a class index, one such
token before a colon.

An EmbeddingCertificate pairs an inner factorization on {1..m} with an outer
one on {1..n}.  It is valid when both factorizations are valid and
restricting outer class i to 4-subsets of {1..m} reproduces inner class i
exactly, while the outer classes beyond the inner ones avoid {1..m}
entirely.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, pairwise
from math import comb
from operator import index as index_of

from .errors import FormatError, InputError

Block = tuple[int, int, int, int]

MAX_GROUND_SIZE = 255  # the largest vertex that an 8-bit field holds
_SEGMENT = 1 << 16  # characters per segment of a class line read by columns
_LITTLE = sys.byteorder == "little"
# the memory slot of a key's last field, d; field k of a b c d is in slot _LAST ^ 3 ^ k
_LAST = 0 if _LITTLE else 3
# the key of four 1 fields: no block's key, and in 1..m for every m
_MARK = bytes([1, 1, 1, 1])
_BYTES = bytes(range(256))  # every byte value: _BYTES[lo:hi] deletes labels lo..hi - 1


def key_array(cls: ColorClass | None = None) -> array:
    """A new class as an array of keys, which ``Factorization`` takes as a
    class, starting with the keys of ``cls``; the construction appends to it."""
    return array("I") if cls is None else array("I", cls._keys)


def _flat(keys) -> bytes:
    """The fields of ``keys`` (a buffer of keys) block by block, a b c d,
    in key order."""
    if not _LITTLE:  # memory order is a b c d already
        return bytes(keys)
    keys = array("I", keys)
    keys.reverse()
    return bytes(keys)[::-1]


def _blocks(keys):
    """The blocks of ``keys`` as 4-tuples (a, b, c, d), in key order."""
    fields = iter(_flat(keys))
    return zip(fields, fields, fields, fields)


def _append_keys(keys: array, a, b, c, d) -> None:
    """Append to ``keys`` the keys of the blocks (a[i], b[i], c[i], d[i]),
    given as four columns of fields: the columns are interleaved straight
    into the keys' memory."""
    fields = bytearray(4 * len(a))
    fields[_LAST ^ 3::4], fields[_LAST ^ 2::4], fields[_LAST ^ 1::4], fields[_LAST::4] = a, b, c, d
    keys.frombytes(fields)


def _packed(cls) -> array | tuple:
    """Class ``cls`` as an array of keys, in its own block order: an array
    of keys is taken as it is, and any other class is packed when every
    block is four integers that fit a field.  A class that cannot be packed
    is returned as the tuple of its blocks."""
    if type(cls) is array and cls.typecode == "I":
        return cls
    cls = tuple(cls)
    try:
        if all(len(b) == 4 for b in cls):
            keys, fields = array("I"), bytearray(chain.from_iterable(cls))
            _append_keys(keys, fields[0::4], fields[1::4], fields[2::4], fields[3::4])
            return keys
    except (TypeError, ValueError):  # no len(), or a vertex no field holds
        pass
    return cls


def _runs(start: int, stop: int):
    """(lo, hi) of the runs of whole keys, ``_SEGMENT`` bytes or one key
    each, that cut bytes start..stop of a buffer of keys: the lane tests
    take one run at a time, so that their big ints stay small."""
    step = max(_SEGMENT - _SEGMENT % 4, 4)
    return ((lo, min(lo + step, stop)) for lo in range(start, stop, step))


def _less(x: bytes, y: bytes) -> bool:
    """Whether x[i] < y[i] at every i, for byte strings of one length, by
    lanes: each pair is a 16-bit lane of two big ints, and the lane
    0x8000 + x[i] - y[i] of their difference neither borrows nor carries,
    with bit 15 clear exactly when x[i] < y[i]."""
    high, low = bytearray(b"\0\x80") * len(x), bytearray(2 * len(x))
    high[0::2], low[0::2] = x, y
    lanes = int.from_bytes(high, "little") - int.from_bytes(low, "little")
    return 0x80 not in lanes.to_bytes(len(high), "little")[1::2]


def _proved(keys, ground_size: int) -> bool:
    """Whether ``keys``, a buffer of keys, are all blocks
    1 <= a < b < c < d <= ground_size, checked by columns, run by run: a
    range test of the a and d columns, and one lane test of a b c against
    b c d."""
    fields, top = bytes(keys), _BYTES[:ground_size + 1]
    for lo, hi in _runs(0, len(fields)):
        run = fields[lo:hi]
        a, b, c, d = (run[_LAST ^ 3 ^ k::4] for k in range(4))
        if 0 in a or d.translate(None, top) or not _less(a + b + c, b + c + d):
            return False
    return True


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


class ColorClass(Sequence):
    """One class, read-only: a view of its stored keys that decodes its
    blocks, sorted 4-tuples, when they are read.  It compares, hashes and
    prints as the tuple of its blocks."""

    __slots__ = ("_keys",)

    def __init__(self, keys: bytes):
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys) // 4

    def __getitem__(self, i):
        keys = memoryview(self._keys).cast("I")
        if isinstance(i, slice):
            return tuple(_blocks(keys[i].tobytes()))
        return tuple(_flat(array("I", [keys[i]])))

    def __iter__(self):
        return _blocks(self._keys)

    def __eq__(self, other):
        if isinstance(other, ColorClass):
            return self._keys == other._keys
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return ColorClass, (self._keys,)


@dataclass(frozen=True)
class Factorization:
    """Immutable: each class is stored as the bytes of its sorted keys, so
    every block is a 4-subset of 1..ground_size.  ``classes`` is a tuple of
    read-only ``ColorClass`` views, built on first read."""

    ground_size: int
    lam: int
    regularity: int
    _keys: tuple[bytes, ...]

    def __init__(self, ground_size: int, lam: int, regularity: int, classes):
        try:
            n, lam, reg = map(index_of, (ground_size, lam, regularity))
        except TypeError:
            raise InputError("ground_size, lam and regularity must be integers") from None
        if n < 4 or lam < 1 or reg < 1:
            raise InputError("ground_size >= 4, lam >= 1, regularity >= 1 required")
        if n > MAX_GROUND_SIZE:
            raise InputError(f"ground_size <= {MAX_GROUND_SIZE} required")
        classes = [_packed(cls) for cls in classes]
        if not (all(type(c) is array for c in classes) and _proved(b"".join(classes), n)):
            classes = [c if type(c) is array and _proved(c, n)
                       else _packed([_canonical_block(b, n, i) for b in
                                     (_blocks(c) if type(c) is array else c)])
                       for i, c in enumerate(classes)]
        keys = tuple(array("I", sorted(c)).tobytes() for c in classes)
        self.__dict__.update(ground_size=n, lam=lam, regularity=reg, _keys=keys)

    @cached_property
    def classes(self) -> tuple[ColorClass, ...]:
        return tuple(ColorClass(keys) for keys in self._keys)

    def __repr__(self) -> str:
        return (f"Factorization(ground_size={self.ground_size}, lam={self.lam},"
                f" regularity={self.regularity}, classes={self.classes!r})")

    def __reduce__(self):
        # unpickling goes through the constructor, which checks every block
        # again: each class travels as its array of keys
        return Factorization, (self.ground_size, self.lam, self.regularity,
                               [array("I", keys) for keys in self._keys])


def factorization_issues(fact: Factorization) -> list[str]:
    """Completeness and regularity defects, as human-readable strings.

    The cover is judged from the blocks present, never by listing all
    C(n, 4) subsets: each 4-subset of 1..n supplies min(count, lam) of the
    lam * C(n, 4) wanted copies, and every other block is surplus.
    """
    issues = []
    n, lam, reg = fact.ground_size, fact.lam, fact.regularity
    every = array("I", b"".join(fact._keys))
    blocks = len(every)
    if lam == 1:
        covered = len(set(every))
    else:
        # a sorted key is one of the first lam copies of itself exactly
        # when it differs from the key lam places before it
        covered = blocks - _repeats(array("I", sorted(every)).tobytes(), lam)
    missing = lam * comb(n, 4) - covered
    extra = blocks - covered
    if missing or extra:
        issues.append(f"not a {lam}-fold cover of all 4-subsets"
                      f" ({missing} missing, {extra} unexpected)")
    for i, cls in enumerate(fact._keys):
        # degree reg at all n vertices needs 4 |cls| = reg n; a class of
        # another size has a vertex of the wrong degree, so skip its scan
        count = len(cls) // 4
        if 4 * count != reg * n:
            issues.append(f"class {i + 1}: {count} blocks cannot give all {n}"
                          f" vertices degree {reg} (needs 4 * blocks = {reg * n})")
            continue
        # cls holds four fields per block, in any order
        if reg * (46 - n) > 30 * n:  # long classes on few vertices
            degrees = list(map(cls.count, range(n + 1)))
        else:
            degrees = [0] * (n + 1)
            vertices = iter(cls)
            for a, b, c, d in zip(vertices, vertices, vertices, vertices):
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
    must avoid 1..m.

    The first q outer classes, q the inner class count, are restricted in
    one pass, joined by ``_MARK``, and compared with the inner classes
    joined the same way; the new classes are checked by one deletion from
    their joined d column.  Only a side that fails is gone over class by
    class, to word its issues."""
    m, q = inner.ground_size, len(inner._keys)
    if q > len(outer._keys):
        return ["inner system has more classes than outer"]
    issues = []
    if _restricted(_MARK.join(outer._keys[:q]), m) != _MARK.join(inner._keys):
        issues += [f"outer class {i + 1} does not restrict to inner class {i + 1}"
                   for i, (cls, old) in enumerate(zip(outer._keys, inner._keys))
                   if _restricted(cls, m) != old]
    above = _BYTES[m + 1:]  # the labels of the new vertices
    if b"".join(outer._keys[q:])[_LAST::4].translate(None, above):
        for i, cls in enumerate(outer._keys[q:], start=q):
            count = len(cls[_LAST::4].translate(None, above))
            if count:
                issues.append(f"new outer class {i + 1} contains {count}"
                              f" inner 4-subsets")
    return issues


def _restricted(keys: bytes, m: int) -> bytes:
    """The keys of ``keys`` whose blocks lie in 1..m, in their order, so
    sorted keys restrict to sorted keys.  A block lies in 1..m when its
    field d does: its key's four bytes are masked with 0xff, any other
    key's with 0, by an AND of big ints, and the zero bytes are deleted.
    Every field is at least 1, so only whole masked keys vanish."""
    mask = bytearray(len(keys))
    mask[0::4] = mask[1::4] = mask[2::4] = mask[3::4] = keys[_LAST::4].translate(
        b"\xff" * (m + 1) + bytes(255 - m))
    kept = int.from_bytes(keys, "little") & int.from_bytes(mask, "little")
    return kept.to_bytes(len(keys), "little").translate(None, b"\0")


def _repeats(keys: bytes, lag: int) -> int:
    """How many of ``keys`` equal the key ``lag`` places before them, run
    by run.  Two equal keys XOR, as big ints, to four zero bytes, and an
    OR-fold of each 32-bit lane's four bytes into its low byte leaves a
    zero byte exactly there."""
    shift, count = 4 * lag, 0
    for lo, hi in _runs(shift, len(keys)):
        z = int.from_bytes(keys[lo:hi], "little") ^ int.from_bytes(
            keys[lo - shift:hi - shift], "little")
        z |= z >> 8
        z |= z >> 16
        count += z.to_bytes(hi - lo, "little")[::4].count(0)
    return count


def verify_certificate(cert: EmbeddingCertificate) -> bool:
    """Recompute completeness, regularity and restriction from raw subsets."""
    return not certificate_issues(cert)


def render_factorization(fact: Factorization) -> str:
    lines = [f"{fact.ground_size} {fact.lam} {fact.regularity} {len(fact._keys)}"]
    for i, cls in enumerate(fact._keys):
        fields = tuple(_flat(cls))
        body = ", ".join(["%d %d %d %d"] * (len(fields) // 4)) % fields
        lines.append(f"{i + 1}: {body}")
    return "\n".join(lines) + "\n"


def parse_factorization(text: str) -> Factorization:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FormatError("missing header", 1)
    head = lines[0].split()
    if len(head) != 4:
        raise FormatError(f"header needs 4 integers, got {len(head)} fields", 1)
    header = _int_block(head)
    if type(header) is not tuple:
        raise FormatError(f"bad header: non-integer field in {head}", 1)
    ground, lam, reg, count = header
    if ground > MAX_GROUND_SIZE:  # before the label tables, which run to ground
        raise FormatError(f"ground_size <= {MAX_GROUND_SIZE} required", 1)
    rows = [(i + 2, ln) for i, ln in enumerate(lines[1:]) if ln and not ln.isspace()]
    if len(rows) != count:
        raise FormatError(f"expected {count} class lines, found {len(rows)}",
                          len(lines))
    labels = range(1, ground + 1)
    label = {str(v): v for v in labels}.__getitem__
    comma_label = {f"{v},": v for v in labels}.__getitem__
    for expected, (lineno, ln) in enumerate(rows, start=1):
        colon = ln.find(":")
        if colon < 0:
            raise FormatError("class line has no ':' after its index", lineno)
        index = ln[:colon].strip()  # one token of ASCII digits, as a label
        if not (index.isascii() and index.isdigit()):
            raise FormatError(f"bad class index {ln[:colon]!r}", lineno)
        if (index.lstrip("0") or "0") != str(expected):
            raise FormatError(f"class index {index.lstrip('0') or 0}, expected {expected}", lineno)
    classes = _by_columns([ln for _, ln in rows], label, comma_label)
    # the rest chunk by chunk: a blank body is an empty class, an empty
    # entry the block (), no 4-subset
    classes += ([_int_block(c.split()) for c in body.split(",")] if body and not body.isspace()
                else [] for body in (ln.partition(":")[2] for _, ln in rows[len(classes):]))
    try:
        return Factorization(ground, lam, reg, classes)
    except BlockError as exc:
        raise FormatError(str(exc), rows[exc.index][0]) from exc
    except InputError as exc:
        raise FormatError(str(exc), 1) from exc


def _by_columns(lines: list[str], label, comma_label) -> list[array]:
    """The leading class lines read by columns in batches, as the module
    docstring says, up to the first batch that does not read by columns:
    each class as the array of its keys."""
    classes, starts, size = [], [0], 0
    for i, ln in enumerate(lines):
        if size >= _SEGMENT or i > starts[-1] and len(ln) >= _SEGMENT:
            starts.append(i)
        size = (size if i > starts[-1] else 0) + len(ln)
    for lo, hi in pairwise(starts + [len(lines)]):
        bodies = [ln.partition(":")[2] for ln in lines[lo:hi]]
        counts = [body.count(",") + 1 if body and not body.isspace() else 0 for body in bodies]
        keys = _columns(", ".join(compress(bodies, counts)), label, comma_label)
        if keys is None:
            break
        classes += (keys[start:stop] for start, stop in pairwise(accumulate(counts, initial=0)))
    return classes


def _columns(body: str, label, comma_label) -> array | None:
    """The non-blank bodies of a batch of class lines, joined by ", ", as
    the keys of their blocks, in block order, or None when they are in any
    other layout than the renderer's.  Each segment's four label columns
    are interleaved straight into the keys' memory."""
    keys, start, end = array("I"), 0, len(body)
    while start < end:
        cut = body.find(",", start + _SEGMENT) + 1 or end
        t = body[start:cut].split()
        start = cut
        if not t or len(t) % 4:
            return None
        if start == end:  # the line's last token is the one d without a comma
            t[-1] += ","
        try:
            a = bytearray(map(label, t[0::4]))
            b = bytearray(map(label, t[1::4]))
            c = bytearray(map(label, t[2::4]))
            d = bytearray(map(comma_label, t[3::4]))
        except KeyError:
            return None
        del t  # free the tokens before the keys grow, or the heap keeps their space
        _append_keys(keys, a, b, c, d)
    return keys


def _int_block(tokens: list[str]):
    """A chunk's vertices (or the header's fields) converted with ``int()``
    when every token is ASCII digits that ``int()`` converts; any other chunk
    stays a list of strings, which Factorization reports as non-integer."""
    if all(t.isascii() and t.isdigit() for t in tokens):
        try:
            return tuple(map(int, tokens))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    return tokens


def read_factorization(path) -> Factorization:
    with open(path, encoding="ascii") as fh:
        return parse_factorization(fh.read())
