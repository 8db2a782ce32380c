"""Colored 4-set systems, embedding certificates, and their text format.

A Factorization is a multiset of 4-subsets of {1..ground_size} partitioned
into color classes.  It is *valid* when the union over classes covers every
4-subset exactly lam times and every vertex appears exactly ``regularity``
times in every class.

File format (line oriented, bit-exact round trip on the canonical form):

    <ground_size> <lam> <regularity> <class_count>
    1: 1 2 3 5, 1 2 4 6, 3 4 5 6
    2: ...

Storage.  A block a < b < c < d is one key, ((a << w | b) << w | c) << w
| d, with fields of w = 8 bits up to ground size 255 (a 4-byte key, array
typecode "I") and of 16 bits up to 65,535 (8 bytes, "Q"); a larger ground
size is refused.  Keys compare as their blocks do as tuples, and a class is
stored as the bytes of its sorted keys in native byte order: 4 bytes a
block, none tracked by the cyclic garbage collector.  The construction
builds these keys field by field in a ``key_array``.  A key's fields are
also read in place, as the bytes (or 16-bit items) of the class: in memory
they run d c b a on a little-endian host and a b c d on a big-endian one
(``_LAST``).  The issue finders read that storage: the cover from the keys,
the degrees of a class from its fields (by ``bytes.count`` per vertex when
the class is long and the vertices few, else four at a time), and the
restriction to 1..m from the field d.  ``classes`` is a tuple of read-only
``ColorClass`` views, which decode a class to its sorted 4-tuples when it
is read and compare, hash and print as that tuple; ``len()`` and indexing
decode no more than they return.

A Factorization is immutable and checked once, on construction or by the
parser (below): every block becomes a 4-subset of 1..ground_size stored as
its key, and every class the sorted bytes of its keys, so parse(render(x))
== x and the issue finders below never meet a malformed block.  Vertices
are integers in the sense of ``operator.index``: a float, a Fraction or a
string is rejected, even when its value is integral, and an ``int``
subclass such as ``bool`` is stored as a plain ``int``.  The three header
fields are converted and stored the same way.

The constructor's check runs by columns.  A list of classes that are all
arrays of keys of its typecode, which is what the construction hands over,
is proved at once, the fields in memory order.  Otherwise each class is
proved alone: one given as its vertices, four per block, in a bytearray
(ground size up to 255) or an array of 16-bit items is read as it is, and
any other (keys too) is flattened into one when every block has four
integer vertices that fit a field.  Three comparisons of columns, with the
least a and the largest d, prove every block a 4-subset of
1..ground_size, and the keys are sorted.  A class that fails, or that
cannot be flattened, goes block by block through ``_canonical_block``,
which sorts each block, converts its vertices and words the error.

The parser reads the labels of a line in the renderer's layout through a
table from "1".."N" to their integers.  N is at most ground_size and at
most the largest v with 8 * C(v, 4) <= file length, since a cover of the
4-subsets of 1..v takes that many characters; so the table is bounded by
the file, and only by its fourth root, not by the header.  Class lines in
the renderer's layout, "a b c d, a b c d, ..." with a < b < c < d in each
block (any blanks, any block order), are read by columns in batches: the
bodies of consecutive lines, at least ``_SEGMENT`` characters of lines,
joined by ", " (a line that long is a batch of its own, read in place).  A
batch is cut into segments of whole blocks, each ending just after the
first comma at or past ``_SEGMENT`` characters, and each segment is split
once.  Its tokens 0, 4, 8, ... are the a column, and so on; the d column
goes through a second table of the labels "1,".."N,", the batch's last
token with a comma added.  Three comparisons of columns then prove every
block a 4-subset of 1..ground_size, so this is the only check, and the four
columns are interleaved straight into the batch's vertices, of which a body
holds one block more than its commas (none if blank); the constructor packs
a batch into keys at once and sorts each class.
Segments are 64 KiB so that the 366k tokens of a 1.1 MB line are never held
at once: parsing the two such lines of a 2.2 MB certificate peaks at 8.5 MB
(tracemalloc), against 45 MB as one segment, and keeps 0.7 MB of keys.

Any other line (a missing comma, an empty entry, "05", "x", "3.5", a label
above N, an unsorted block) fails its batch, and the column path stops
there: the lines of that batch and every line after it are converted chunk
by chunk with ``int()``, and a chunk with a token that is not ASCII digits
("+1", "-1", "0_5", "٢"; "04" is 4) is passed on as its list of tokens.  The
constructor then checks the whole file, and reports a bad block with its
class's line.  The four header fields follow the same rule: "06" is 6, and
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
from functools import partial
from itertools import accumulate, chain, compress, pairwise
from math import comb
from operator import index as index_of, lt, ne

from .errors import FormatError, InputError

Block = tuple[int, int, int, int]

MAX_GROUND_SIZE = 65535  # the largest vertex that a 16-bit field holds
_SEGMENT = 1 << 16  # characters per segment of a class line read by columns
# a key's typecode -> the type of a class given as its vertices, four per
# block; called on an iterable of vertices, it makes one
_VERTICES = {"I": bytearray, "Q": partial(array, "H")}
_LITTLE = sys.byteorder == "little"
_LAST = 0 if _LITTLE else 3  # the memory slot of a key's last field, d


def _key_code(ground_size: int) -> str:
    """The array typecode of the keys of blocks on 1..ground_size: 4-byte
    keys of 8-bit fields up to 255, 8-byte keys of 16-bit fields above."""
    return "I" if ground_size <= 255 else "Q"


def key_array(ground_size: int, cls: ColorClass | None = None) -> array:
    """A new class of blocks on 1..ground_size as an array of keys, which
    ``Factorization`` takes as a class, starting with the keys of ``cls``, a
    class on at most ground_size vertices; the construction appends to it."""
    code = _key_code(ground_size)
    if cls is None:
        return array(code)
    if cls._code == code:
        return array(code, cls._keys)
    return array(code, array("H", memoryview(cls._keys)).tobytes())  # 8-bit fields widened


def _fields(keys, code: str) -> bytes | array:
    """The fields of ``keys`` (a buffer of keys of typecode ``code``), four
    per key, in memory order: 8-bit ones as bytes, which iterate fastest,
    and 16-bit ones as an array."""
    if code == "I":
        return bytes(keys)  # bytes(x) is x itself when x is bytes
    fields = array("H")
    fields.frombytes(memoryview(keys).cast("B"))
    return fields


def _flat(keys, code: str) -> bytes | array:
    """The fields of ``keys`` block by block, a b c d, in key order."""
    if not _LITTLE:  # memory order is a b c d already
        return _fields(keys, code)
    keys = array(code, keys)
    keys.reverse()
    return _fields(keys, code)[::-1]


def _blocks(keys, code: str):
    """The blocks of ``keys`` as 4-tuples (a, b, c, d), in key order."""
    fields = iter(_flat(keys, code))
    return zip(fields, fields, fields, fields)


def _proved(fields, ground_size: int, reverse: bool = False) -> bool:
    """Whether ``fields``, four per block, a b c d (d c b a if ``reverse``),
    are blocks 1 <= a < b < c < d <= ground_size, checked by columns."""
    if len(fields) % 4:
        return False
    if not fields:
        return True
    a, b, c, d = fields[0::4], fields[1::4], fields[2::4], fields[3::4]
    if reverse:
        a, b, c, d = d, c, b, a
    return (min(a) >= 1 and max(d) <= ground_size and all(map(lt, a, b))
            and all(map(lt, b, c)) and all(map(lt, c, d)))


class _Checked(list):
    """Batches (vertices, blocks per class) the parser proved canonical: only packed and sorted."""


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


def _class_keys(cls, ground_size: int, code: str, index: int) -> bytes:
    """Class ``index`` as the bytes of its sorted keys, checked by columns
    or block by block, as the module docstring says."""
    vertices, fields = _VERTICES[code], None
    if type(cls) is array and cls.typecode == code:  # keys, read as their blocks
        cls = _blocks(cls, code)
    if (type(cls) is bytearray) if code == "I" else (type(cls) is array
                                                     and cls.typecode == "H"):
        fields = cls
    else:
        cls = tuple(cls)
        try:
            if all(len(b) == 4 for b in cls):
                fields = vertices(chain.from_iterable(cls))
        except (TypeError, ValueError, OverflowError):  # a vertex no field holds
            pass
    if fields is None or not _proved(fields, ground_size):
        if fields is cls:
            cls = [tuple(fields[i:i + 4]) for i in range(0, len(fields), 4)]
        fields = vertices(chain.from_iterable(
            _canonical_block(b, ground_size, index) for b in cls))
    return _sorted_keys(fields, code, [len(fields) // 4])[0]


def _sorted_keys(fields: bytearray | array, code: str, counts) -> list[bytes]:
    """The bytes of the sorted keys of each class i of ``counts[i]`` blocks,
    given as their vertices, four per block.  On a little-endian host a key's
    fields run d c b a in memory, so the vertices are reversed first; the
    slices from the end and the sort undo that reversal of the blocks."""
    keys = array(code, bytes(fields[::-1] if _LITTLE else fields))
    last = len(keys)
    return [array(code, sorted(keys[last - hi:last - lo] if _LITTLE else keys[lo:hi])).tobytes()
            for lo, hi in pairwise(accumulate(counts, initial=0))]


class ColorClass(Sequence):
    """One class, read-only: a view of its stored keys that decodes its
    blocks, sorted 4-tuples, when they are read.  It compares, hashes and
    prints as the tuple of its blocks."""

    __slots__ = ("_keys", "_code")

    def __init__(self, keys: bytes, code: str):
        self._keys, self._code = keys, code

    def __len__(self) -> int:
        return len(memoryview(self._keys).cast(self._code))

    def __getitem__(self, i):
        keys = memoryview(self._keys).cast(self._code)
        if isinstance(i, slice):
            return tuple(_blocks(keys[i].tobytes(), self._code))
        return tuple(_flat(array(self._code, [keys[i]]), self._code))

    def __iter__(self):
        return _blocks(self._keys, self._code)

    def __eq__(self, other):
        if type(other) is ColorClass and other._code == self._code:
            return self._keys == other._keys
        if isinstance(other, (ColorClass, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return ColorClass, (self._keys, self._code)


class Factorization:
    """Immutable: each class is stored as the bytes of its sorted keys, so
    every block is a 4-subset of 1..ground_size.  ``classes`` is a tuple of
    read-only ``ColorClass`` views, built on first read."""

    __slots__ = ("ground_size", "lam", "regularity", "_keys", "_code", "_view")

    def __init__(self, ground_size: int, lam: int, regularity: int, classes):
        try:
            n, lam, reg = map(index_of, (ground_size, lam, regularity))
        except TypeError:
            raise InputError("ground_size, lam and regularity must be integers") from None
        if n < 4 or lam < 1 or reg < 1:
            raise InputError("ground_size >= 4, lam >= 1, regularity >= 1 required")
        if n > MAX_GROUND_SIZE:
            raise InputError(f"ground_size <= {MAX_GROUND_SIZE} required")
        code = _key_code(n)
        if type(classes) is _Checked:
            keys = tuple(chain.from_iterable(
                _sorted_keys(fields, code, counts) for fields, counts in classes))
        elif (type(classes) is list
              and all(type(c) is array and c.typecode == code for c in classes)
              and _proved(_fields(b"".join(classes), code), n, _LITTLE)):  # keys, by columns
            keys = tuple(array(code, sorted(c)).tobytes() for c in classes)
        else:
            keys = tuple(_class_keys(c, n, code, i) for i, c in enumerate(classes))
        for name, x in zip(self.__slots__, (n, lam, reg, keys, code, None)):
            object.__setattr__(self, name, x)

    @property
    def classes(self) -> tuple[ColorClass, ...]:
        view = self._view
        if view is None:
            view = tuple(ColorClass(keys, self._code) for keys in self._keys)
            object.__setattr__(self, "_view", view)
        return view

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _state(self) -> tuple:
        return self.ground_size, self.lam, self.regularity, self._keys

    def __eq__(self, other):
        if type(other) is not Factorization:
            return NotImplemented
        return self._state() == other._state()

    def __hash__(self) -> int:
        return hash(self._state())

    def __repr__(self) -> str:
        return (f"Factorization(ground_size={self.ground_size}, lam={self.lam},"
                f" regularity={self.regularity}, classes={self.classes!r})")

    def __reduce__(self):
        # unpickling goes through the constructor, which checks every block
        # again: each class travels as its array of keys
        return Factorization, (self.ground_size, self.lam, self.regularity,
                               [array(self._code, keys) for keys in self._keys])


def factorization_issues(fact: Factorization) -> list[str]:
    """Completeness and regularity defects, as human-readable strings.

    The cover is judged from the blocks present, never by listing all
    C(n, 4) subsets: each 4-subset of 1..n supplies min(count, lam) of the
    lam * C(n, 4) wanted copies, and every other block is surplus.
    """
    issues = []
    n, lam, reg, code = fact.ground_size, fact.lam, fact.regularity, fact._code
    every = array(code, b"".join(fact._keys))
    blocks, size = len(every), every.itemsize
    if lam == 1:
        covered = len(set(every))
    else:
        # entry i of the sorted keys is one of the first lam copies of its
        # key exactly when i < lam or entry i - lam differs from it
        every = sorted(every)
        covered = min(lam, blocks) + sum(map(ne, every[lam:], every))
    missing = lam * comb(n, 4) - covered
    extra = blocks - covered
    if missing or extra:
        issues.append(f"not a {lam}-fold cover of all 4-subsets"
                      f" ({missing} missing, {extra} unexpected)")
    for i, cls in enumerate(fact._keys):
        # degree reg at all n vertices needs 4 |cls| = reg n; a class of
        # another size has a vertex of the wrong degree, so skip its scan
        count = len(cls) // size
        if 4 * count != reg * n:
            issues.append(f"class {i + 1}: {count} blocks cannot give all {n}"
                          f" vertices degree {reg} (needs 4 * blocks = {reg * n})")
            continue
        fields = _fields(cls, code)  # four per block, in any order
        if code == "I" and reg * (46 - n) > 30 * n:  # long classes on few vertices
            degrees = list(map(fields.count, range(n + 1)))
        else:
            degrees = [0] * (n + 1)
            vertices = iter(fields)
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
    must avoid 1..m."""
    m, q, code = inner.ground_size, len(inner._keys), outer._code
    if q > len(outer._keys):
        return ["inner system has more classes than outer"]
    # a block lies in 1..m when its last field d does, and the restriction
    # of a sorted class is a filter of it, so it stays sorted
    issues = []
    for i, cls in enumerate(outer._keys):
        last = _fields(cls, code)[_LAST::4]
        if i < q:
            old = array(code, compress(array(code, cls), map(m.__ge__, last))).tobytes()
            if (old != inner._keys[i] if inner._code == code
                    else ColorClass(old, code) != inner.classes[i]):
                issues.append(f"outer class {i + 1} does not restrict to"
                              f" inner class {i + 1}")
        elif last and min(last) <= m:
            count = sum(map(m.__ge__, last))
            issues.append(f"new outer class {i + 1} contains {count}"
                          f" inner 4-subsets")
    return issues


def verify_certificate(cert: EmbeddingCertificate) -> bool:
    """Recompute completeness, regularity and restriction from raw subsets."""
    return not certificate_issues(cert)


def render_factorization(fact: Factorization) -> str:
    lines = [f"{fact.ground_size} {fact.lam} {fact.regularity} {len(fact._keys)}"]
    for i, cls in enumerate(fact._keys):
        fields = tuple(_flat(cls, fact._code))
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
    rows = [(i + 2, ln) for i, ln in enumerate(lines[1:]) if ln and not ln.isspace()]
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
    for expected, (lineno, ln) in enumerate(rows, start=1):
        colon = ln.find(":")
        if colon < 0:
            raise FormatError("class line has no ':' after its index", lineno)
        index = ln[:colon].strip()  # one token of ASCII digits, as a label
        if not (index.isascii() and index.isdigit()):
            raise FormatError(f"bad class index {ln[:colon]!r}", lineno)
        if (index.lstrip("0") or "0") != str(expected):
            raise FormatError(f"class index {index.lstrip('0') or 0}, expected {expected}", lineno)
    classes = _by_columns([ln for _, ln in rows], label, comma_label, _key_code(ground))
    done = sum(len(counts) for _, counts in classes)
    if done < len(rows):
        # the classes read by columns one by one, then the rest chunk by chunk:
        # a blank body is an empty class, an empty entry the block (), no 4-subset
        classes = [fields[4 * lo:4 * hi] for fields, counts in classes
                   for lo, hi in pairwise(accumulate(counts, initial=0))]
        classes += [[_int_block(c.split()) for c in body.split(",")] if body and not body.isspace()
                    else [] for body in (ln.partition(":")[2] for _, ln in rows[done:])]
    try:
        return Factorization(ground, lam, reg, classes)
    except BlockError as exc:
        raise FormatError(str(exc), rows[exc.index][0]) from exc
    except InputError as exc:
        raise FormatError(str(exc), 1) from exc


def _by_columns(lines: list[str], label, comma_label, code: str) -> _Checked:
    """The batches (vertices, blocks per class) of the leading class lines,
    as the module docstring says, up to the first batch that does not read
    by columns."""
    def read(batch):
        bodies = [ln.partition(":")[2] for ln in batch]
        counts = [body.count(",") + 1 if body and not body.isspace() else 0 for body in bodies]
        fields = _columns(", ".join(compress(bodies, counts)), label, comma_label, code)
        return None if fields is None else (fields, counts)

    checked, starts, size = _Checked(), [0], 0
    for i, ln in enumerate(lines):
        if size >= _SEGMENT or i > starts[-1] and len(ln) >= _SEGMENT:
            starts.append(i)
        size = (size if i > starts[-1] else 0) + len(ln)
    for lo, hi in pairwise(starts + [len(lines)]):
        batch = read(lines[lo:hi])
        if batch is None:
            break
        checked.append(batch)
    return checked


def _columns(body: str, label, comma_label, code: str) -> bytearray | array | None:
    """The non-blank bodies of a batch of class lines, joined by ", ", as
    their vertices, four per block, for keys of typecode ``code``, or None
    when they are in any other layout than the renderer's.  Each segment's
    four label columns are interleaved straight into them."""
    vertices = _VERTICES[code]
    fields, start, end = vertices(), 0, len(body)
    while start < end:
        cut = body.find(",", start + _SEGMENT) + 1 or end
        t = body[start:cut].split()
        start = cut
        if not t or len(t) % 4:
            return None
        if start == end:  # the line's last token is the one d without a comma
            t[-1] += ","
        try:
            a = vertices(map(label, t[0::4]))
            b = vertices(map(label, t[1::4]))
            c = vertices(map(label, t[2::4]))
            d = vertices(map(comma_label, t[3::4]))
        except KeyError:
            return None
        if not (all(map(lt, a, b)) and all(map(lt, b, c)) and all(map(lt, c, d))):
            return None
        segment = vertices([0]) * len(t)
        del t  # free the tokens before the vertices grow, or the heap keeps their space
        segment[0::4], segment[1::4], segment[2::4], segment[3::4] = a, b, c, d
        fields += segment
    return fields


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
