import copy
import pickle
import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations
from math import comb
from operator import lt

import pytest
from hypothesis import example, given, strategies as st

from quadembed import factorization
from quadembed.detach import detach, generate_base
from quadembed.errors import FormatError, InputError
from quadembed.factorization import (
    ColorClass,
    EmbeddingCertificate,
    Factorization,
    certificate_issues,
    factorization_issues,
    is_valid_factorization,
    parse_factorization,
    read_factorization,
    render_factorization,
    restriction_issues,
    verify_certificate,
)
from quadembed.params import EmbeddingParams
from quadembed.planner import build_plan

from conftest import FIXTURES, tuple_factorization_issues, tuple_restriction_issues


def _intro(level):
    return read_factorization(FIXTURES / f"intro_{level}.txt")


def test_intro_fixtures_are_valid_factorizations():
    for level, reg, classes in ((6, 2, 5), (8, 5, 7), (9, 8, 7)):
        fact = _intro(level)
        assert fact.regularity == reg and len(fact.classes) == classes
        assert is_valid_factorization(fact)


def test_intro_nesting_certificates():
    assert verify_certificate(EmbeddingCertificate(inner=_intro(6), outer=_intro(8)))
    assert verify_certificate(EmbeddingCertificate(inner=_intro(8), outer=_intro(9)))


def test_blocks_are_canonicalized():
    fact = Factorization(6, 1, 1, [[(4, 3, 2, 1), (6, 5, 2, 1)]])
    assert fact.classes[0] == ((1, 2, 3, 4), (1, 2, 5, 6))
    # an int subclass is stored as a plain int
    fact = Factorization(6, 1, 1, [[(4, 3, 2, True)]])
    assert fact.classes == (((1, 2, 3, 4),),)
    assert {type(v) for v in fact.classes[0][0]} == {int}


def test_factorization_is_immutable():
    fact = _intro(6)
    with pytest.raises(AttributeError):
        fact.classes[0].append((1, 2, 3, 7))
    with pytest.raises(TypeError):
        fact.classes[0] = ()
    with pytest.raises(AttributeError):
        fact.classes = ()
    with pytest.raises(AttributeError):
        EmbeddingCertificate(inner=fact, outer=fact).outer = fact
    assert fact == _intro(6)


def test_rejects_degenerate_blocks():
    with pytest.raises(InputError):
        Factorization(6, 1, 1, [[(1, 2, 3, 3)]])
    with pytest.raises(InputError):
        Factorization(6, 1, 1, [[(1, 2, 3, 7)]])
    # sorted and in range: only a < b rejects it, in the one-pass check and
    # in the block-by-block one
    with pytest.raises(InputError) as err:
        Factorization(6, 1, 1, [[(1, 1, 2, 3)]])
    assert str(err.value) == "class 1: block (1, 1, 2, 3) is not a 4-subset"


def test_rejects_non_integer_header_fields():
    for header in ((6.5, 1, 1), (6, 1.0, 1), (6, 1, Fraction(1)), ("6", 1, 1)):
        with pytest.raises(InputError) as err:
            Factorization(*header, [[(1, 2, 3, 4)]])
        assert str(err.value) == "ground_size, lam and regularity must be integers"


def test_rejects_non_integral_vertices():
    # vertices go through operator.index, so an integral float, Fraction
    # or string is rejected like a non-integral one
    for vertex in (1.7, 2.0, Fraction(3), "3"):
        block = (vertex, 4, 5, 6)
        with pytest.raises(InputError) as err:
            Factorization(6, 1, 1, [[(1, 2, 3, 4)], [block]])
        assert str(err.value) == f"class 2: non-integer vertex in block {block}"


def _one_class_line(n):
    """Every 4-subset of 1..n in one class: a valid 1-fold cover."""
    blocks = list(combinations(range(1, n + 1), 4))
    return render_factorization(Factorization(n, 1, comb(n - 1, 3), [blocks]))


def _spy(monkeypatch, calls, *names):
    """Count the calls of the named functions of the factorization module
    in ``calls``; ``_columns`` is counted under "columns" when it reads a
    batch of class lines, with the blocks it reads under "column blocks",
    and under "columns declined" when it returns None."""
    for name in names:
        real = getattr(factorization, name)

        def counted(*args, name=name, real=real):
            if name != "_columns":
                calls[name] += 1
                return real(*args)
            result = real(*args)
            calls["columns" if result is not None else "columns declined"] += 1
            if result:
                calls["column blocks"] += len(result)
            return result
        monkeypatch.setattr(factorization, name, counted)


def test_canonical_classes_skip_the_block_by_block_path(monkeypatch):
    calls = Counter()
    p = EmbeddingParams(6, 8, 2, 5, 1)
    base, plan = generate_base(6, 2, 1), build_plan(p)
    cert = detach(p, base, plan)
    texts = [(FIXTURES / f"intro_{level}.txt").read_text() for level in (6, 8, 9)]
    texts.append(render_factorization(cert.outer))
    _spy(monkeypatch, calls, "_proved", "_canonical_block", "_columns")
    # the parser reads every block of a canonical file by columns, each file
    # under 64 KiB in one batch of all its class lines, and the constructor
    # proves all its classes with one call
    facts = [parse_factorization(text) for text in texts]
    assert facts[3] == cert.outer
    blocks = sum(len(cls) for f in facts for cls in f.classes)
    assert calls == {"columns": len(texts), "column blocks": blocks, "_proved": len(texts)}
    # with one character per segment every class line is a batch of its own
    calls.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorization, "_SEGMENT", 1)
        assert [parse_factorization(text) for text in texts] == facts
    assert calls == {"columns": sum(len(f.classes) for f in facts), "column blocks": blocks,
                     "_proved": len(texts)}
    for fact in facts:
        assert type(fact.classes) is tuple
        assert {type(cls) for cls in fact.classes} == {ColorClass}
        assert {type(keys) for keys in fact._keys} == {bytes}
        assert {type(b) for cls in fact.classes for b in cls} == {tuple}
        assert {type(v) for cls in fact.classes for b in cls for v in b} == {int}
    # classes read back from a factorization are packed, and the key arrays
    # that detach hands over are taken as they are: one proof of all the
    # classes, and none goes block by block
    calls.clear()
    assert [Factorization(f.ground_size, f.lam, f.regularity, f.classes)
            for f in facts] == facts
    assert calls == {"_proved": len(facts)}
    calls.clear()
    assert detach(p, base, plan) == cert
    assert calls == {"_proved": 1}
    # a respelled label declines the batch, and the chunk path's tuples are
    # packed and proved; an unsorted block, or one that repeats a vertex, is
    # read by columns, and once the proof of all the classes and that of its
    # class fail, only its class goes block by block
    calls.clear()
    assert parse_factorization("6 1 1 1\n1: 1 2 3 04\n").classes == (((1, 2, 3, 4),),)
    assert calls == {"columns declined": 1, "_proved": 1}
    calls.clear()
    assert parse_factorization("6 1 1 2\n1: 1 2 3 4\n2: 2 1 3 4\n").classes == (
        ((1, 2, 3, 4),), ((1, 2, 3, 4),))
    assert calls == {"columns": 1, "column blocks": 2, "_proved": 3, "_canonical_block": 1}
    calls.clear()
    with pytest.raises(FormatError) as err:
        parse_factorization("6 1 1 2\n1: 1 2 3 4\n2: 1 1 2 3\n")
    assert str(err.value) == "line 3: class 2: block (1, 1, 2, 3) is not a 4-subset"
    assert calls == {"columns": 1, "column blocks": 2, "_proved": 3, "_canonical_block": 1}
    # a class of tuples with a bad block goes block by block, which words
    # the error; so does one with a short block, which cannot be packed
    calls.clear()
    with pytest.raises(InputError) as err:
        Factorization(6, 1, 1, [[(1, 2, 3, 4), (0, 1, 2, 3)]])
    assert str(err.value) == "class 1: block (0, 1, 2, 3) out of range 1..6"
    assert calls == {"_proved": 2, "_canonical_block": 2}
    calls.clear()
    with pytest.raises(InputError) as err:
        Factorization(6, 1, 1, [[(1, 2, 3, 4), (1, 2, 3)]])
    assert str(err.value) == "class 1: block (1, 2, 3) is not a 4-subset"
    assert calls == {"_canonical_block": 2}
    # a flat buffer of vertices is no class: its items are not blocks
    for flat in (bytearray([1, 2, 3, 4]), array("H", [1, 2, 3, 4])):
        with pytest.raises(InputError) as err:
            Factorization(6, 1, 1, [flat])
        assert str(err.value) == "class 1: non-integer vertex in block 1"
    # key_array: empty, or copied from a class of another factorization,
    # and taken by a factorization on up to 255 vertices
    assert factorization.key_array() == array("I")
    keys = factorization.key_array(facts[0].classes[1])
    assert tuple(ColorClass(keys.tobytes())) == facts[0].classes[1]
    keys.append(((1 << 8 | 2) << 8 | 3) << 8 | 255)
    assert Factorization(255, 1, 1, [keys]).classes[0] == tuple(
        sorted([*facts[0].classes[1], (1, 2, 3, 255)]))


def _key(block, width=8):
    a, b, c, d = block
    return ((a << width | b) << width | c) << width | d


@pytest.mark.parametrize("n, code, width", [(6, "I", 8), (254, "I", 8)])
@pytest.mark.parametrize("bad", [(0, 1, 2, 3), (1, 2, 3, 3), (3, 2, 1, 7), (5, 6, 7, None),
                                 (2, 1, 3, 4), (1, 2, 3, 4)])
def test_key_arrays_are_checked_as_their_vertices_are(n, code, width, bad):
    # a class given as an array of keys gets the outcome of the same blocks
    # given as tuples: the same keys, unsorted fields sorted, or the same
    # BlockError for the same block, whether it comes alone or with a class
    # of tuples (None is n + 1: at n = 254, 255 is the largest vertex a
    # field holds)
    bad = tuple(n + 1 if v is None else v for v in bad)
    blocks = [(1, 2, 3, 4), bad, (2, 3, 4, 5)]
    keys = array(code, [_key(block, width) for block in blocks])
    outcomes = []
    for cls in (keys, blocks):
        for classes in ([cls], [[(1, 2, 5, 6)], cls]):
            try:
                outcomes.append(Factorization(n, 1, 1, classes)._keys[-1])
            except factorization.BlockError as exc:
                outcomes.append((exc.index == len(classes) - 1, str(exc).split(": ", 1)[1]))
    assert outcomes[:2] == outcomes[2:]
    assert outcomes[0] == outcomes[1]
    if 1 <= min(bad) and max(bad) <= n and len(set(bad)) == 4:
        assert outcomes[0] == array(code, sorted(
            _key(block, width) for block in map(sorted, blocks))).tobytes()
    else:
        assert outcomes[0][0] is True


@pytest.mark.parametrize("code, field, width", [("I", "B", 8)])
def test_keys_are_a_bijection_that_keeps_tuple_order(code, field, width):
    # every 4-subset of 1..n, n <= 20, shuffled, as the constructor stores
    # it: the sorted keys are the packed vertices of the blocks in the order
    # of combinations(), which is tuple order, all distinct, and decode back
    # to the blocks, in bulk and one by one; in memory a key's field d is in
    # slot _LAST of its four
    rng = random.Random(0)
    ground = 20
    for n in range(4, 21):
        blocks = list(combinations(range(1, n + 1), 4))
        shuffled = rng.sample(blocks, len(blocks))
        fact = Factorization(ground, 1, 1, [shuffled])
        keys = array(code, fact._keys[0])
        assert list(keys) == [_key(block, width) for block in blocks]
        assert len(set(keys)) == len(blocks)
        assert all(x < y for x, y in zip(keys, keys[1:]))
        assert list(array(field, fact._keys[0])[factorization._LAST::4]) == [
            d for *_, d in blocks]
        cls = fact.classes[0]
        assert list(cls) == blocks and len(cls) == len(blocks)
        assert [cls[i] for i in range(-len(blocks), len(blocks))] == blocks + blocks
        assert cls[1::3] == tuple(blocks[1::3])
    # the same keys as an array, in any order, are stored as they sort
    shuffled_keys = array(code, [_key(block, width) for block in shuffled])
    assert Factorization(ground, 1, 1, [shuffled_keys])._keys == (keys.tobytes(),)
    # classes packed and proved together, empty ones among them: each stores
    # its own sorted keys, in class order
    counts = [0, 1, 0, 2, 1000, 3, 0, len(blocks) - 1006, 0]
    ends = list(accumulate(counts, initial=0))
    parts = [shuffled[lo:hi] for lo, hi in zip(ends, ends[1:])]
    assert Factorization(ground, 1, 1, parts)._keys == tuple(
        array(code, sorted(_key(block, width) for block in part)).tobytes() for part in parts)


def test_ground_size_past_255_is_refused():
    # a block is four 8-bit fields, so a larger ground size is an input
    # error, in the constructor and at a file's header, and so is a larger
    # vertex
    for n in (256, 65536):
        with pytest.raises(InputError) as err:
            Factorization(n, 1, 1, [])
        assert str(err.value) == "ground_size <= 255 required"
    assert Factorization(255, 1, 1, [[(1, 2, 3, 255)]]).classes == (((1, 2, 3, 255),),)
    with pytest.raises(InputError) as err:
        Factorization(255, 1, 1, [[(1, 2, 3, 256)]])
    assert str(err.value) == "class 1: block (1, 2, 3, 256) out of range 1..255"
    with pytest.raises(FormatError) as err:
        parse_factorization("256 1 1 1\n1: 1 2 3 4\n")
    assert err.value.line == 1
    assert str(err.value) == "line 1: ground_size <= 255 required"


def test_classes_compare_hash_and_pickle_as_tuples(monkeypatch):
    fact = _intro(8)
    plain = tuple(tuple(cls) for cls in fact.classes)
    assert fact.classes == plain and plain == fact.classes
    assert hash(fact.classes) == hash(plain)
    assert repr(fact) == ("Factorization(ground_size=8, lam=1, regularity=5,"
                          f" classes={plain!r})")
    for copied in (pickle.loads(pickle.dumps(fact)), copy.deepcopy(fact),
                   Factorization(8, 1, 5, plain)):
        assert copied == fact and hash(copied) == hash(fact)
    assert pickle.loads(pickle.dumps(fact.classes)) == plain
    assert fact.classes[0] != list(plain[0]) and fact != plain
    # a view compares with a view by its keys: equal to the same class
    # read back, unequal to another class of as many blocks; it hashes as
    # its tuple
    views = parse_factorization(render_factorization(fact)).classes
    assert all(x == y for x, y in zip(views, fact.classes))
    assert len(views[0]) == len(views[1]) and views[0] != views[1]
    assert all(hash(view) == hash(tuple(view)) for view in views)
    # len() and indexing decode no more than they are asked for: record
    # how many keys each decoding takes
    decoded, real = [], factorization._flat
    monkeypatch.setattr(factorization, "_flat", lambda keys: (
        decoded.append(len(array("I", keys))) or real(keys)))
    fresh = _intro(8)
    assert len(fresh.classes) == 7 and len(fresh.classes[3]) == 10
    assert not decoded
    assert fresh.classes[3][-1] == plain[3][-1] and decoded == [1]
    assert fresh.classes[3][2:4] == plain[3][2:4] and decoded == [1, 2]


def _parse_memory(text):
    """The parse, its tracemalloc peak, and the memory still held after it."""
    tracemalloc.start()
    try:
        fact = parse_factorization(text)
        retained, peak = tracemalloc.get_traced_memory()
        return fact, peak, retained
    finally:
        tracemalloc.stop()


def test_parse_memory_is_bounded_by_the_file():
    # the header names 255 vertices, the most that a field holds; the
    # 43-byte file names six
    text = "255 1 1 3\n1: 1 2 3 4\n2: 1 2 3 5\n3: 1 2 3 6\n"
    assert len(text) == 43
    fact, peak, _ = _parse_memory(text)
    assert fact.classes == (((1, 2, 3, 4),), ((1, 2, 3, 5),), ((1, 2, 3, 6),))
    assert peak < 1_000_000
    # 200 kB that name no vertex take no memory in proportion to the file
    fact, peak, _ = _parse_memory("255 1 1 1\n1:" + " " * 200_000 + "\n")
    assert fact.classes == ((),)
    assert peak < 1_000_000
    # a 323 kB class line of 27,405 blocks is read in segments: its tokens
    # all at once would add over 6 MB to the blocks the parse keeps
    text = _one_class_line(30)
    assert len(text) > 320_000
    fact, peak, retained = _parse_memory(text)
    assert len(fact.classes[0]) == comb(30, 4)
    assert peak - retained < 4_000_000


def test_factorization_issues_reports_defects():
    blocks = [list(b) for b in combinations(range(1, 7), 4)]
    fact = Factorization(6, 1, 2, [blocks[0:3], blocks[3:6], blocks[6:9],
                                   blocks[9:12], blocks[12:15]])
    # arbitrary grouping is not 2-regular
    assert factorization_issues(fact) == [
        "class 1: vertices [1, 2, 3, 4, 5, 6] do not have degree 2",
        "class 2: vertices [1, 2, 3] do not have degree 2",
        "class 3: vertices [1, 2, 3] do not have degree 2",
        "class 4: vertices [1, 4] do not have degree 2",
        "class 5: vertices [1, 5, 6] do not have degree 2"]


def _enumerated_cover_issues(fact):
    """Reference for the cover check of factorization_issues: compare the
    block counts with a counter over every 4-subset of 1..n."""
    want = Counter()
    for block in combinations(range(1, fact.ground_size + 1), 4):
        want[block] = fact.lam
    got = Counter(b for cls in fact.classes for b in cls)
    if got == want:
        return []
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    return [f"not a {fact.lam}-fold cover of all 4-subsets"
            f" ({missing} missing, {extra} unexpected)"]


def test_cover_check_agrees_with_enumeration():
    rng = random.Random(0)
    verdicts = Counter()
    for n in range(4, 9):
        for lam in (1, 2, 3):
            full = [b for b in combinations(range(1, n + 1), 4)
                    for _ in range(lam)]
            for trial in range(12):
                blocks = list(full)
                if trial:
                    rng.shuffle(blocks)
                    del blocks[:rng.randrange(3)]  # missing copies
                    blocks += rng.choices(full, k=rng.randrange(3))  # surplus
                fact = Factorization(n, lam, 1, [blocks[0::2], blocks[1::2]])
                want = _enumerated_cover_issues(fact)
                got = [msg for msg in factorization_issues(fact)
                       if "cover" in msg]
                assert got == want, (n, lam, trial)
                verdicts[bool(want)] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 15


def test_round_trip_fixture_files():
    for level in (6, 8, 9):
        fact = _intro(level)
        assert parse_factorization(render_factorization(fact)) == fact


def test_format_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_factorization("6 1 2\n")
    assert "line 1" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_factorization("6 1 2 1\n2: 1 2 3 4\n")
    assert "line 2" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_factorization("6 1 2 1\n1: 1 2 3\n")
    assert "line 2" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_factorization("6 1 2 1\n1: 1 2 x 4\n")
    assert str(err.value) == ("line 2: class 1: non-integer vertex in block"
                              " ['1', '2', 'x', '4']")
    with pytest.raises(FormatError) as err:
        parse_factorization("6 1 2 2\n1: 1 2 3 4\n\n2: 1 2 3.5 4\n")
    assert str(err.value) == ("line 4: class 2: non-integer vertex in block"
                              " ['1', '2', '3.5', '4']")
    # a block Factorization rejects is reported at its class's line,
    # blank lines counted
    with pytest.raises(FormatError) as err:
        parse_factorization("6 1 2 2\n1: 1 2 3 4\n\n2: 1 2 3 9\n")
    assert str(err.value) == "line 4: class 2: block (1, 2, 3, 9) out of range 1..6"
    with pytest.raises(FormatError) as err:
        parse_factorization("6 1 2 2\n\n1: 1 2 3 4\n2: 1 2 5 2\n")
    assert str(err.value) == "line 4: class 2: block (1, 2, 2, 5) is not a 4-subset"
    with pytest.raises(FormatError) as err:
        # in the renderer's layout, read by columns: only the proof's a < b rejects it
        parse_factorization("6 1 1 1\n1: 1 1 2 3\n")
    assert str(err.value) == "line 2: class 1: block (1, 1, 2, 3) is not a 4-subset"
    with pytest.raises(FormatError) as err:
        parse_factorization("6 1 2 1\n1: 1 2 3 4, , 1 2 5 6\n")
    assert str(err.value) == "line 2: class 1: block () is not a 4-subset"
    # int() refuses more than sys.get_int_max_str_digits() digits; the chunk
    # keeps its tokens, so the block is reported as non-integer, not raised
    label = "1" * 5000
    with pytest.raises(FormatError) as err:
        parse_factorization(f"6 1 1 1\n1: 1 2 3 {label}\n")
    assert str(err.value) == ("line 2: class 1: non-integer vertex in block"
                              f" {['1', '2', '3', label]}")
    with pytest.raises(FormatError) as err:
        parse_factorization("3 1 2 0\n")
    assert "line 1" in str(err.value)
    with pytest.raises(FormatError):
        parse_factorization("")


@pytest.mark.parametrize("block", ["+1 2 3 5", "1 ٢ 3 5", "1 2 3 0_5"])
def test_chunk_path_rejects_non_ascii_digit_spellings(block):
    # int() reads each block as 1 2 3 5, the first block of intro_6; a label
    # is ASCII digits only, so the line goes to the chunk path and the block
    # is reported as non-integer at its line
    assert tuple(map(int, block.split())) == (1, 2, 3, 5)
    text = render_factorization(_intro(6))
    assert "\n1: 1 2 3 5," in text
    with pytest.raises(FormatError) as err:
        parse_factorization(text.replace("\n1: 1 2 3 5,", f"\n1: {block},"))
    assert err.value.line == 2
    assert str(err.value) == ("line 2: class 1: non-integer vertex in block"
                              f" {block.split()}")


@pytest.mark.parametrize("line, message", [
    ("+1: 1 2 3 4", "bad class index '+1'"),
    ("١: 1 2 3 4", "bad class index '١'"),
    ("1 1: 1 2 3 4", "bad class index '1 1'"),
    (": 1 2 3 4", "bad class index ''"),
    ("1", "class line has no ':' after its index"),
])
def test_class_index_follows_the_label_spelling_rule(line, message):
    # an index is one token of ASCII digits before a colon, as a label is
    # one of ASCII digits, though int() reads "+1" and "١" as 1
    with pytest.raises(FormatError) as err:
        parse_factorization(f"6 1 1 1\n{line}\n")
    assert err.value.line == 2
    assert str(err.value) == f"line 2: {message}"
    with pytest.raises(FormatError) as err:
        parse_factorization(f"6 1 1 2\n1: 1 2 3 4\n\n{line.replace('1', '2', 1)}\n")
    assert str(err.value) == "line 4: " + message.replace("1", "2", 1)
    # blanks around the index are blanks around a token, and a zero-padded
    # index is the number it spells, as a label or a header field is, even
    # past int()'s digit limit
    for index in (" 1 ", "\t1", "01", "0" * 5000 + "1"):
        assert parse_factorization(f"6 1 1 1\n{index}: 1 2 3 4\n").classes == (((1, 2, 3, 4),),)
    with pytest.raises(FormatError) as err:
        parse_factorization(f"6 1 1 1\n{'1' * 5000}: 1 2 3 4\n")
    assert str(err.value) == f"line 2: class index {'1' * 5000}, expected 1"


@pytest.mark.parametrize("header", ["+6 1 2 5", "0_6 1 2 5", "6 -1 2 5", "٦ 1 2 5",
                                    "6 1 2 +5", "6 1 2 5.0",
                                    pytest.param("1" * 5000 + " 1 2 5", id="5000 digits")])
def test_header_fields_follow_the_label_spelling_rule(header):
    # a header field is ASCII digits, as a class label is, though int()
    # reads "+6", "0_6", "-1" and "٦" as numbers
    text = render_factorization(_intro(6))
    assert text.startswith("6 1 2 5\n")
    with pytest.raises(FormatError) as err:
        parse_factorization(text.replace("6 1 2 5", header, 1))
    assert err.value.line == 1
    assert str(err.value) == f"line 1: bad header: non-integer field in {header.split()}"
    # zero-padded fields are the numbers they spell, as "04" is in a block
    assert parse_factorization(text.replace("6 1 2 5", "06 01 002 5", 1)) == _intro(6)


def test_certificate_negative_restriction():
    f6, f8 = _intro(6), _intro(8)
    # swap outer classes 1 and 2: each still covers and is regular, but
    # outer class i no longer restricts to inner class i
    f8 = Factorization(8, 1, 5, [f8.classes[1], f8.classes[0], *f8.classes[2:]])
    issues = certificate_issues(EmbeddingCertificate(inner=f6, outer=f8))
    assert issues == ["outer class 1 does not restrict to inner class 1",
                      "outer class 2 does not restrict to inner class 2"]
    # roles reversed: seven inner classes cannot sit in five outer ones
    issues = certificate_issues(EmbeddingCertificate(inner=_intro(8), outer=f6))
    assert issues[-1] == "inner system has more classes than outer"
    # intro_6 over itself restricts class by class, so only the sizes fail
    issues = certificate_issues(EmbeddingCertificate(inner=f6, outer=f6))
    assert issues == ["outer ground set not larger than inner"]
    # intro_6's classes as a 2-fold system: half of each 4-subset's copies
    issues = certificate_issues(EmbeddingCertificate(
        inner=Factorization(6, 2, 2, f6.classes), outer=_intro(8)))
    assert issues == ["inner and outer multiplicities differ",
                      "inner: not a 2-fold cover of all 4-subsets"
                      " (15 missing, 0 unexpected)"]


def test_certificate_swap_between_classes_fails():
    f6, f8 = _intro(6), _intro(8)
    classes = [list(c) for c in f8.classes]
    classes[0][0], classes[5][0] = classes[5][0], classes[0][0]
    tampered = Factorization(8, 1, 5, classes)
    cert = EmbeddingCertificate(inner=f6, outer=tampered)
    assert not verify_certificate(cert)
    # (1, 2, 3, 5) moves to class 6 and (1, 2, 3, 7) to class 1
    assert certificate_issues(cert) == [
        "outer: class 1: vertices [5, 7] do not have degree 5",
        "outer: class 6: vertices [5, 7] do not have degree 5",
        "outer class 1 does not restrict to inner class 1",
        "new outer class 6 contains 1 inner 4-subsets"]


@st.composite
def factorizations(draw):
    ground = draw(st.integers(4, 9))
    all_blocks = list(combinations(range(1, ground + 1), 4))
    n_classes = draw(st.integers(1, 3))
    classes = [
        draw(st.lists(st.sampled_from(all_blocks), min_size=0, max_size=6))
        for _ in range(n_classes)
    ]
    return Factorization(ground, draw(st.integers(1, 3)),
                         draw(st.integers(1, 8)), classes)


@given(factorizations())
def test_round_trip_random_structures(fact):
    assert parse_factorization(render_factorization(fact)) == fact


@st.composite
def respellings(draw):
    """A random factorization and a text of the same meaning that the
    renderer would not write: blanks and tabs around tokens, zero-padded
    labels, vertices and blocks shuffled, blank lines between classes."""
    fact = draw(factorizations())
    space = st.text(" \t", max_size=2)
    lines = [" ".join([draw(space) + field for field in (
        str(fact.ground_size), str(fact.lam), str(fact.regularity),
        str(len(fact.classes)))])]
    for i, cls in enumerate(fact.classes):
        chunks = []
        for block in draw(st.permutations(cls)):
            labels = [draw(st.sampled_from(["", "0", "00"])) + str(v)
                      for v in draw(st.permutations(block))]
            chunks.append(draw(space) + " ".join(labels) + draw(space))
        lines += [draw(space)] * draw(st.integers(0, 2))
        lines.append(f"{draw(space)}{i + 1}:{draw(space)}" + ",".join(chunks))
    return fact, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@given(respellings())
def test_parse_ignores_spelling(item):
    fact, text = item
    assert parse_factorization(text) == fact


def _splice(fact, at, cut, insert):
    text = render_factorization(fact)
    return text[:at] + insert + text[at + cut:]


NEAR_FORMAT = "0123456789 \t\n,:-x."


@given(st.one_of(st.text(), st.text(NEAR_FORMAT, max_size=80),
                 st.builds(_splice, factorizations(), st.integers(0, 200),
                           st.integers(0, 3), st.text(NEAR_FORMAT, max_size=3))))
def test_parse_raises_only_format_error(text):
    try:
        fact = parse_factorization(text)
    except FormatError:
        return
    assert parse_factorization(render_factorization(fact)) == fact


def _outcome(text):
    """The parse of ``text``, or its error's message and line."""
    try:
        return parse_factorization(text)
    except FormatError as exc:
        return str(exc), exc.line


def _chunk_path_outcome(text):
    """_outcome with every class line converted chunk by chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorization, "_columns", lambda *args: None)
        return _outcome(text)


def _segmented_outcome(text, segment, log=None):
    """_outcome with ``segment`` characters per segment; ``log``, when
    given, gets one entry per batch offered to the column path: the blocks
    it read, or None when it declined the batch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorization, "_SEGMENT", segment)
        if log is not None:
            real = factorization._columns

            def spy(*args):
                result = real(*args)
                log.append(None if result is None else len(result))
                return result
            mp.setattr(factorization, "_columns", spy)
        return _outcome(text)


@st.composite
def token_edits(draw):
    """A rendered factorization with one token of a class line dropped or
    doubled, its comma toggled, or its label swapped with the next one's:
    every label stays one the parser's table knows."""
    lines = render_factorization(draw(factorizations())).split("\n")
    at = draw(st.integers(1, len(lines) - 2))
    prefix, *tokens = lines[at].split(" ")
    if tokens == [""]:
        return "\n".join(lines)
    labels = [t.rstrip(",") for t in tokens]
    commas = [t[len(v):] for t, v in zip(tokens, labels)]
    j = draw(st.integers(0, len(tokens) - 1))
    edit = draw(st.sampled_from(["drop", "double", "comma", "swap"]))
    if edit == "drop":
        del labels[j], commas[j]
    elif edit == "double":
        labels.insert(j, labels[j])
        commas.insert(j, "")
    elif edit == "comma":
        commas[j] = "" if commas[j] else ","
    elif j + 1 < len(tokens):
        labels[j], labels[j + 1] = labels[j + 1], labels[j]
    lines[at] = " ".join([prefix] + [v + c for v, c in zip(labels, commas)])
    return "\n".join(lines)


@given(st.one_of(st.builds(_splice, factorizations(), st.integers(0, 200),
                           st.integers(0, 3), st.text(NEAR_FORMAT, max_size=3)),
                 token_edits(),
                 respellings().map(lambda item: item[1])),
       st.integers(1, 400), st.booleans())
# a bad line in the middle of a batch: the whole batch goes chunk by chunk
@example("6 1 1 3\n1: 1 2 3 4, 1 2 5 6\n2: 1 2 3 9\n3: 1 2 3 5\n", 400, True)
@example("6 1 1 3\n1: 1 2 3 4, 1 2 5 6\n2: 1 1 2 3\n3: 1 2 3 5\n", 400, True)
# a blank class inside a batch, with and without blanks after the colon
@example("6 1 1 4\n1: 1 2 3 4\n2: \n3:\n4: 1 2 3 5\n", 400, True)
# a line longer than a segment between two short ones: a batch of its own
@example("6 1 1 3\n1: 1 2 3 4\n2: 1 2 3 5, 1 2 3 6, 1 2 4 5\n3: 1 2 3 6\n", 20, True)
@example("6 1 1 1\n1: 1 2 3 5, 1 2 4 3\n", 4, True)
@example("6 1 1 1\n1: 1 2 3 5, 1 3 2 4\n", 4, True)
@example("6 1 1 1\n1: 1 2 3 5, 1 2 3 4,\n", 64, True)
@example("6 1 1 1\n1: 1 2 3 4, 5\n", 4, True)
@example("6 1 1 1\n1: 1 2 3 4, 3 5\n", 64, True)
def test_columns_agree_with_the_chunk_path(text, segment, pad):
    # trailing blank lines change no outcome; a segment of up to 400
    # characters makes batches of several class lines
    if pad:
        text += "\n" * 1008
    assert _segmented_outcome(text, segment) == _chunk_path_outcome(text)


def test_batches_are_runs_of_at_least_a_segment():
    # class lines of 10, 10, 10, 28, 10 and 3 characters, then blank lines;
    # each _columns call is logged with the blocks it read, or None when it
    # declines, and none follows a decline
    lines = ["1: 1 2 3 4", "2: 1 2 3 5", "3: 1 2 3 6", "4: 1 2 3 7, 1 2 3 8, 1 2 3 9",
             "5: 1 2 4 5", "6: "]
    head = "9 1 1 6\n"
    cases = [
        # a batch closes once it reaches 20 characters, and the 28-character
        # line is a batch of its own: lines 1-2, 3, 4, 5-6
        (20, lines, [2, 1, 3, 1]),
        # at 21, lines 1-3 (30 characters) make the first batch
        (21, lines, [3, 3, 1]),
        # a label defect (0 is no label) in the second line of batch 1-2
        # declines that batch: lines 1-6 go chunk by chunk, line 1 too
        (20, [lines[0], "2: 1 2 3 0", *lines[2:]], [None]),
        # so does a token defect (a block of three) or a comma defect (a
        # missing comma) in the 28-character line: lines 4-6 go chunk by chunk
        (20, [*lines[:3], "4: 1 2 3 7, 1 2 3 8, 1 2 9", *lines[4:]], [2, 1, None]),
        (20, [*lines[:3], "4: 1 2 3 7 1 2 3 8, 1 2 3 9", *lines[4:]], [2, 1, None]),
        # an unsorted block, or one that repeats a vertex, is read: only the
        # constructor's proof tells it from a canonical one
        (20, [*lines[:3], "4: 1 2 3 7, 1 2 3 8, 1 2 9 3", *lines[4:]], [2, 1, 3, 1]),
        (20, [*lines[:3], "4: 1 2 3 7, 1 2 3 8, 1 2 9 9", *lines[4:]], [2, 1, 3, 1]),
    ]
    for segment, class_lines, logged in cases:
        calls = []
        text = head + "\n".join(class_lines) + "\n" * 1008
        assert _segmented_outcome(text, segment, calls) == _chunk_path_outcome(text)
        assert calls == logged


def test_a_declined_batch_and_every_later_line_go_by_chunks():
    # 275 class lines of 100 blocks of 1..30 (the last one of 5), 324 KB in
    # five batches of at least 64 KiB; a label defect on the first, a middle
    # or the last class line declines the batch that holds it, and the
    # column path is offered no later batch, while an unsorted block or a
    # repeated vertex is read by columns like any block
    blocks = list(combinations(range(1, 31), 4))
    fact = Factorization(30, 1, 1, [blocks[i:i + 100] for i in range(0, len(blocks), 100)])
    lines = render_factorization(fact).split("\n")
    valid = []
    assert _segmented_outcome("\n".join(lines), factorization._SEGMENT, valid) == fact
    assert len(valid) == 5 and sum(valid) == len(blocks)
    # the class lines up to the end of each batch
    ends = list(accumulate(-(-count // 100) for count in valid))
    for at in (1, len(lines) // 2, len(fact.classes)):
        prefix, body = lines[at].split(": ", 1)
        a, b, c, d = body.split(",", 1)[0].split()
        rest = body[len(f"{a} {b} "):]
        declined = next(i for i, end in enumerate(ends) if at <= end)
        out_of_range = (f"line {at + 1}: class {at}: block {(0, int(b), int(c), int(d))}"
                        " out of range 1..30", at + 1)
        repeated = (f"line {at + 1}: class {at}: block {(int(b), int(b), int(c), int(d))}"
                    " is not a 4-subset", at + 1)
        declines = [*valid[:declined], None]
        # a zero-padded label, a vertex 0, an unsorted block, a repeated vertex
        for first, outcome, logged in ((f"0{a} {b}", fact, declines),
                                       (f"0 {b}", out_of_range, declines),
                                       (f"{b} {a}", fact, valid),
                                       (f"{b} {b}", repeated, valid)):
            text = "\n".join([*lines[:at], f"{prefix}: {first} {rest}", *lines[at + 1:]])
            log = []
            assert _segmented_outcome(text, factorization._SEGMENT, log) == outcome
            assert outcome == _chunk_path_outcome(text)
            assert log == logged


def test_columns_agree_with_the_chunk_path_at_a_segment_cut():
    text = _one_class_line(30)
    assert len(text) > 4 * factorization._SEGMENT  # five segments
    log = []
    assert _segmented_outcome(text, factorization._SEGMENT, log) == _chunk_path_outcome(text)
    assert log == [comb(30, 4)]  # the column path reads all five segments
    head, line, _ = text.split("\n")
    # block k ends at the line's first cut; offsets count from the body,
    # the part after "1:", as the parser's do
    body = line[2:]
    end = body.find(",", factorization._SEGMENT)
    start = body.rfind(",", 0, end) + 2
    block, rest = body[start:end], body[end + 2:]
    before = "1:" + body[:start]
    # each case with the blocks the column path reads of its line, or None
    cases = [
        # block k with three vertices
        (head, before + block.rsplit(" ", 1)[0] + ", " + rest, None),
        # block k's comma inside the token "d,e": the cut splits it, so the
        # column path reads the line
        (head, before + block + "," + rest, comb(30, 4)),
        # the line ends in ", " after block k; the rest of it becomes class
        # 2
        (head[:-1] + "2", before + block + ", \n2: " + rest, None),
    ]
    outcomes = []
    for new_head, new_line, logged in cases:
        changed = f"{new_head}\n{new_line}\n"
        # the segment size that cuts the line just after block k's comma
        at = new_line.index(",", len(before)) - 2
        assert new_line[2:].find(",", at) == at
        log = []
        outcomes.append(_segmented_outcome(changed, at, log))
        # a line the column path declines is its last: no line after it is
        # offered to it
        assert log == [logged]
        assert outcomes[-1] == _chunk_path_outcome(changed)
    a, b, c, _ = map(int, block.split())
    assert outcomes[0] == (f"line 2: class 1: block {(a, b, c)} is not a 4-subset", 2)
    assert outcomes[1] == _outcome(text)
    assert outcomes[2] == ("line 2: class 1: block () is not a 4-subset", 2)


@lru_cache(maxsize=None)
def _small_certificate(tup):
    p = EmbeddingParams(*tup)
    base = generate_base(p.m, p.r, p.lam)
    return base, detach(p, base, build_plan(p)).outer


@st.composite
def tampered_certificates(draw):
    """A certificate for lam 1, 2 or 3 with up to four edits: a block
    dropped, duplicated into some class, swapped with one of another class,
    or an inner block strayed into some outer class; an edit may hit the
    inner system too."""
    tup = draw(st.sampled_from([(6, 8, 2, 5, 1), (5, 8, 4, 5, 1), (4, 8, 2, 14, 2),
                                (4, 6, 3, 6, 3), (5, 6, 4, 10, 3)]))
    base, outer = _small_certificate(tup)
    systems = [[list(cls) for cls in fact.classes] for fact in (base, outer)]
    for _ in range(draw(st.integers(0, 4))):
        classes = systems[draw(st.sampled_from([0, 1, 1, 1]))]
        i = draw(st.integers(0, len(classes) - 1))
        j = draw(st.integers(0, len(classes) - 1))
        if not classes[i]:
            continue
        at = draw(st.integers(0, len(classes[i]) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "stray"]))
        if edit == "drop":
            del classes[i][at]
        elif edit == "duplicate":
            classes[j].append(classes[i][at])
        elif edit == "swap" and classes[j]:
            other = draw(st.integers(0, len(classes[j]) - 1))
            classes[i][at], classes[j][other] = classes[j][other], classes[i][at]
        elif edit == "stray":
            classes[j].append(draw(st.sampled_from(list(chain(*base.classes)))))
    inner, outer = (Factorization(fact.ground_size, fact.lam, fact.regularity, classes)
                    for fact, classes in zip((base, outer), systems))
    return inner, outer


@pytest.mark.parametrize("n, reg", [(8, 20), (8, 2), (40, 400), (44, 101), (255, 4)])
def test_degree_counts_agree_with_the_tuple_oracle_on_both_paths(n, reg):
    # a class of reg * n / 4 random blocks: its degrees are counted per
    # vertex with bytes.count where reg * (46 - n) > 30 * n, (8, 20) and
    # (40, 400), and block by block otherwise
    rng = random.Random(n * reg)
    blocks = [tuple(sorted(rng.sample(range(1, n + 1), 4))) for _ in range(reg * n // 4)]
    fact = Factorization(n, 1, reg, [blocks, blocks[::-1], blocks[1:] + blocks[:1]])
    issues = factorization_issues(fact)
    assert issues == tuple_factorization_issues(fact)
    assert sum("do not have degree" in issue for issue in issues) == 3


@given(st.one_of(tampered_certificates(),
                 st.tuples(factorizations(), factorizations())))
def test_issue_finders_agree_with_the_tuple_oracles(pair):
    inner, outer = pair
    for fact in pair:
        assert factorization_issues(fact) == tuple_factorization_issues(fact)
    assert restriction_issues(inner, outer) == tuple_restriction_issues(inner, outer)


_SEG = 9  # bytes a run of the lane tests below: two whole keys, 8 bytes


@st.composite
def byte_pairs(draw):
    """Two byte strings of one length, 0 to 3 * _SEG + 1 bytes, with
    x[i] < y[i] at every place but none, one or a few, where x[i] >= y[i]
    (equal pairs among them); 0, 1, 254 and 255 are drawn often."""
    edge = st.sampled_from([0, 1, 254, 255])
    size = draw(st.integers(0, 3 * _SEG + 1))
    pairs = []
    for _ in range(size):
        x = draw(st.one_of(edge.filter(lambda v: v < 255), st.integers(0, 254)))
        pairs.append((x, draw(st.one_of(st.sampled_from([x + 1, 255]), st.integers(x + 1, 255)))))
    for _ in range(draw(st.integers(0, 2)) if size else 0):
        x = draw(st.one_of(edge, st.integers(0, 255)))
        pairs[draw(st.integers(0, size - 1))] = (x, draw(st.one_of(st.just(x), edge.filter(
            lambda v: v <= x), st.integers(0, x))))
    return bytes(x for x, _ in pairs), bytes(y for _, y in pairs)


@given(byte_pairs())
@example((b"", b""))
@example((b"\x05", b"\x05"))
@example((b"\xff", b"\x00"))
@example((b"\x00\xfe", b"\x01\xff"))
@example((bytes(3 * _SEG + 1), bytes([1] * 3 * _SEG + [0])))
def test_lane_test_agrees_with_byte_comparison(pair):
    x, y = pair
    assert factorization._less(x, y) is all(map(lt, x, y))


@st.composite
def proof_cases(draw):
    """A ground size and 0 to 3 runs + 1 of blocks, runs of _SEG bytes of
    whole keys, all 4-subsets of 1..n but none, one or a few: blocks of any
    four fields, 0 and n + 1 drawn often."""
    n = draw(st.one_of(st.sampled_from([4, 5, 254, 255]), st.integers(4, 255)))
    vertices = st.integers(1, n)
    blocks = [tuple(sorted(draw(st.sets(vertices, min_size=4, max_size=4))))
              for _ in range(draw(st.integers(0, 3 * (_SEG // 4) + 1)))]
    field = st.one_of(st.sampled_from([0, 1, n, min(n + 1, 255), 255]), st.integers(0, 255))
    for _ in range(draw(st.integers(0, 2)) if blocks else 0):
        block = list(blocks[draw(st.integers(0, len(blocks) - 1))])
        block[draw(st.integers(0, 3))] = draw(field)
        blocks[draw(st.integers(0, len(blocks) - 1))] = tuple(block)
    return n, blocks


@given(proof_cases())
@example((6, [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (2, 2, 3, 6)]))
@example((6, [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 3)]))
@example((6, [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 7)]))
@example((6, [(1, 2, 3, 4), (0, 2, 3, 5)]))
def test_proof_agrees_with_the_blocks_run_by_run(case):
    # the one column proof of a buffer of keys, run by run of _SEG bytes
    # (two keys), and all at once in one run, is that of the blocks
    n, blocks = case
    keys = array("I", map(_key, blocks)).tobytes()
    want = all(1 <= a < b < c < d <= n for a, b, c, d in blocks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorization, "_SEGMENT", _SEG)
        assert factorization._proved(keys, n) is want
    assert factorization._proved(keys, n) is want


def test_restriction_agrees_with_the_tuple_oracle_block_by_block():
    # every inner block of an old outer class moved to every other old
    # class, and strayed into two new classes: the issues, one for one, are
    # the tuple oracle's.  Last, (1, 2, 3, 5) moved to the next class, where
    # it sorts first, leaves the restriction of the old classes, joined
    # without a mark, as it was
    rng = random.Random(35)
    moved = strayed = 0
    for tup in ((6, 8, 2, 5, 1), (5, 8, 4, 5, 1), (4, 8, 2, 14, 2), (4, 6, 3, 6, 3)):
        inner, outer = _small_certificate(tup)
        m, q = inner.ground_size, len(inner.classes)
        assert restriction_issues(inner, outer) == []
        base = [list(cls) for cls in outer.classes]
        for i in range(q):
            for block in [b for b in base[i] if b[3] <= m]:
                for j in [j for j in range(q) if j != i] + rng.sample(range(q, len(base)), 2):
                    classes = [list(cls) for cls in base]
                    classes[i].remove(block)
                    classes[j].append(block)
                    tampered = Factorization(outer.ground_size, outer.lam,
                                             outer.regularity, classes)
                    issues = restriction_issues(inner, tampered)
                    assert issues == tuple_restriction_issues(inner, tampered)
                    assert len(issues) == 2
                    moved += j < q
                    strayed += j >= q
    assert moved >= 50 and strayed >= 50
    inner = Factorization(6, 1, 1, [[(1, 2, 3, 4), (1, 2, 3, 5)], [(1, 2, 3, 6)]])
    outer = Factorization(8, 1, 1, [[(1, 2, 3, 4), (1, 7, 8, 2)], [(1, 2, 3, 5), (1, 2, 3, 6)],
                                    [(1, 2, 7, 8), (3, 4, 5, 6), (2, 3, 4, 5)]])
    assert restriction_issues(inner, outer) == tuple_restriction_issues(inner, outer) == [
        "outer class 1 does not restrict to inner class 1",
        "outer class 2 does not restrict to inner class 2",
        "new outer class 3 contains 2 inner 4-subsets"]
    # a stray block as the fifth key of the new classes, after four blocks
    # with every vertex above m, is found by its d field
    outer = Factorization(12, 1, 1, [[(1, 2, 3, 4)], [(5, 6, 7, v) for v in range(8, 12)],
                                     [(1, 2, 3, 4)]])
    inner = Factorization(4, 1, 1, [[(1, 2, 3, 4)]])
    assert restriction_issues(inner, outer) == tuple_restriction_issues(inner, outer) == [
        "new outer class 3 contains 1 inner 4-subsets"]


@pytest.mark.parametrize("segment", [_SEG, factorization._SEGMENT])
@pytest.mark.parametrize("tup", [(4, 8, 2, 14, 2), (4, 6, 3, 6, 3), (5, 6, 4, 10, 3)])
def test_repeated_cover_agrees_with_the_tuple_oracle(tup, segment):
    # lam 2 and 3: blocks dropped and duplicated, in every class and
    # across classes, with the sorted keys compared by runs of two keys
    # and in one run; so are systems of up to lam + 1 copies of one block
    rng = random.Random(sum(tup))
    _, outer = _small_certificate(tup)
    full = [list(cls) for cls in outer.classes]
    every = list(chain.from_iterable(full))
    verdicts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorization, "_SEGMENT", segment)
        for trial in range(40):
            classes = [list(cls) for cls in full]
            for _ in range(trial % 5):
                cls = rng.choice([c for c in classes if c])
                if rng.random() < 0.5:
                    del cls[rng.randrange(len(cls))]
                else:
                    rng.choice(classes).append(rng.choice(every))
            fact = Factorization(outer.ground_size, outer.lam, outer.regularity, classes)
            issues = factorization_issues(fact)
            assert issues == tuple_factorization_issues(fact)
            verdicts[any("cover" in issue for issue in issues)] += 1
        for count in range(outer.lam + 2):
            fact = Factorization(outer.ground_size, outer.lam, 1, [every[:1] * count])
            assert factorization_issues(fact) == tuple_factorization_issues(fact)
    assert verdicts[True] >= 25 and verdicts[False] >= 5
