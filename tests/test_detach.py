import importlib
import time
from array import array
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from hashlib import sha256
from unittest import mock

import pytest
from hypothesis import given, target
from hypothesis import strategies as st

from quadembed.detach import detach, generate_base
from quadembed.errors import InputError
from quadembed.factorization import (
    ColorClass,
    Factorization,
    is_valid_factorization,
    render_factorization,
    verify_certificate,
)
from quadembed.params import (
    EmbeddingParams,
    TheoremCase,
    check_conditions,
    color_counts,
)
from quadembed.planner import build_plan, totals

from conftest import amalgamate, bench_checks, sweep_params


def test_generate_base_small():
    base = generate_base(6, 2, 1)
    assert len(base.classes) == 5
    assert all(len(cls) == 3 for cls in base.classes)
    assert is_valid_factorization(base)


def test_generate_base_perfect_matchings():
    base = generate_base(8, 1, 1)
    assert len(base.classes) == 35
    for cls in base.classes:
        assert len(cls) == 2
        assert sorted(v for b in cls for v in b) == list(range(1, 9))


def test_generate_base_single_class():
    base = generate_base(5, 4, 1)
    assert len(base.classes) == 1 and len(base.classes[0]) == 5
    assert is_valid_factorization(base)


def test_generate_base_multiplicity_copies():
    base = generate_base(4, 2, 2)
    assert len(base.classes) == 1
    assert base.classes[0] == ((1, 2, 3, 4), (1, 2, 3, 4))
    assert is_valid_factorization(base)


def test_generate_base_rejects_excluded_inputs():
    with pytest.raises(InputError):
        generate_base(3, 1, 1)  # fewer than 4 points
    with pytest.raises(InputError):
        generate_base(4, 4, 1)  # 4 does not divide lam * C(3, 3) = 1
    with pytest.raises(InputError):
        generate_base(5, 2, 1)  # inadmissible


def test_generate_base_seeded_variation():
    assert is_valid_factorization(generate_base(6, 2, 1, seed=7))


def test_detach_small_instance():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    base = generate_base(6, 2, 1)
    plan = build_plan(p)
    cert = detach(p, base, plan)
    assert verify_certificate(cert)
    # per-class shapes match the plan exactly: blocks with 3, 2, 1, 0 old vertices
    assert amalgamate(base, cert.outer) == plan.rows


def test_detach_round_trip_amalgam_totals():
    p = EmbeddingParams(5, 8, 4, 5, 1)
    cert = detach(p, generate_base(5, 4, 1), build_plan(p))
    crossing = [b for cls in cert.outer.classes for b in cls if b[3] > 5]
    shapes = Counter(sum(v <= 5 for v in b) for b in crossing)
    assert (shapes[3], shapes[2], shapes[1], shapes[0]) == totals(p)


def test_detach_rejects_broken_plan():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    base = generate_base(6, 2, 1)
    plan = build_plan(p)
    (count, e_j, f_j, g_j, h_j), *rest = plan.rows
    bad = replace(plan, rows=((1, e_j, f_j + 1, g_j, h_j), (count - 1, e_j, f_j, g_j, h_j), *rest))
    with pytest.raises(InputError):
        detach(p, base, bad)
    # a float entry with the right value is no plan either: InputError, not a
    # TypeError from the construction
    floats = replace(plan, rows=tuple((row[0], float(row[1]), *row[2:]) for row in plan.rows))
    with pytest.raises(InputError):
        detach(p, base, floats)


def test_detach_rejects_mismatched_base():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    plan = build_plan(p)
    with pytest.raises(InputError):
        detach(p, generate_base(5, 4, 1), plan)


def test_ground_size_past_255_is_refused_on_entry(monkeypatch):
    # a key's fields are 8 bits: m or n past 255 is refused before the
    # class count, the plan check or any state; (6, 256, 2, 5, 1) passes
    # N1-N8 and plans, with k = 546,227 colors
    def unreached(*args):
        raise AssertionError("called before the refusal")
    monkeypatch.setattr(detach_module, "class_count", unreached)
    with pytest.raises(InputError) as err:
        generate_base(256, 1, 1)
    assert str(err.value) == "m <= 255 required"
    monkeypatch.undo()
    p = EmbeddingParams(6, 256, 2, 5, 1)
    base, plan = generate_base(6, 2, 1), build_plan(p)
    monkeypatch.setattr(detach_module, "verify_plan", unreached)
    with pytest.raises(InputError) as err:
        detach(p, base, plan)
    assert str(err.value) == "n <= 255 required"


def test_detach_class_sizes():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    cert = detach(p, generate_base(6, 2, 1), build_plan(p))
    q, k = color_counts(p)
    sizes = [len(cls) for cls in cert.outer.classes]
    assert sizes == [p.s * p.n // 4] * k


def test_detach_desk_scale_regression():
    # 14 colors, 111 blocks: once the wall of the exact-cover search
    p = EmbeddingParams(6, 9, 2, 4, 1)
    cert = detach(p, generate_base(6, 2, 1), build_plan(p))
    assert verify_certificate(cert)


def test_detach_deterministic_per_seed():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    base = generate_base(6, 2, 1)
    plan = build_plan(p)
    a = detach(p, base, plan, seed=3)
    b = detach(p, base, plan, seed=3)
    assert a.outer == b.outer
    assert verify_certificate(a)
    # the seed permutes the detachment order, so seeds differ
    assert detach(p, base, plan).outer != a.outer
    bases = [generate_base(8, 1, 1, seed=seed) for seed in (0, 0, 1)]
    assert bases[0] == bases[1] != bases[2]


# the package re-exports the function ``detach``, which shadows the submodule
detach_module = importlib.import_module("quadembed.detach")


def test_generate_base_raises_when_verification_fails(monkeypatch):
    monkeypatch.setattr(detach_module, "is_valid_factorization", lambda fact: False)
    with pytest.raises(RuntimeError, match="fails verification"):
        generate_base(6, 2, 1)


def test_detach_raises_when_verification_fails(monkeypatch):
    # the exit check: the outer system and its restriction to the base
    p = EmbeddingParams(6, 8, 2, 5, 1)
    base, plan = generate_base(6, 2, 1), build_plan(p)
    for name in ("factorization_issues", "restriction_issues"):
        with monkeypatch.context() as patch:
            patch.setattr(detach_module, name, lambda *facts: ["defect"])
            with pytest.raises(RuntimeError, match="fails verification"):
                detach(p, base, plan)


def test_state_left_amalgamated_raises(monkeypatch):
    # steps that move nothing leave every type amalgamated, and no block
    p = EmbeddingParams(6, 8, 2, 5, 1)
    base, plan = generate_base(6, 2, 1), build_plan(p)
    monkeypatch.setattr(detach_module, "_detach_vertex", lambda *args: None)
    with pytest.raises(RuntimeError, match="left an amalgamated edge"):
        generate_base(6, 2, 1)
    with pytest.raises(RuntimeError, match="left an amalgamated edge"):
        detach(p, base, plan)


def test_detach_rejects_invalid_base():
    # the base is checked once, on entry: one block moved to the next class
    # keeps the class count but breaks both classes' degrees
    p = EmbeddingParams(6, 8, 2, 5, 1)
    base = generate_base(6, 2, 1)
    (moved, *first), second, *rest = base.classes
    bad = Factorization(6, 1, 2, [first, [moved, *second], *rest])
    assert not is_valid_factorization(bad)
    with pytest.raises(InputError, match="not a valid factorization"):
        detach(p, bad, build_plan(p))




def _certificate(tup, seed=0):
    """The certificate of ``tup``, also checked by the benchmark's checker."""
    p = EmbeddingParams(*tup)
    base = generate_base(p.m, p.r, p.lam, seed=seed)
    cert = detach(p, base, build_plan(p), seed=seed)
    _assert_bench_checks(p, base, cert)
    return cert


def _assert_bench_checks(p, base, cert):
    """The benchmark's checker, which re-reads both texts and shares no code
    with the issue finders, finds no defect in the certificate of p."""
    inner, outer = (bench_checks.parse_certificate_text(render_factorization(fact))
                    for fact in (base, cert.outer))
    assert outer[:3] == (p.n, p.lam, p.s)
    assert bench_checks.certificate_defects(outer, inner) == [], p


@lru_cache(maxsize=None)
def _outer(tup, seed):
    return _certificate(tup, seed).outer


def _pack(detached, b, t):
    """An edge type as the construction stores it: the vertices of D in
    detach order, 8 bits each, then b and t in three bits each."""
    fields = 0
    for u in detached:
        fields = fields << 8 | u
    return fields << 6 | b << 3 | t


def _unpack(key):
    """(the vertices of D in detach order, b, t) of a packed edge type."""
    fields, detached = key >> 6, []
    while fields:
        detached.append(fields & 255)
        fields >>= 8
    return tuple(reversed(detached)), key >> 3 & 7, key & 7


def _receiver(key, v, from_beta):
    """The type that an edge of type ``key`` becomes when it receives v."""
    d, b, t = _unpack(key)
    return _pack(d + (v,), b - 1, t) if from_beta else _pack(d + (v,), b, t - 1)


def _amalgamate(fact, beta, alpha, detached):
    """The flow state of ``fact`` with the vertex sets beta and alpha merged
    and the other vertices detached in the order ``detached``: per class,
    the count of each edge type (D, b, t), packed."""
    state = []
    for cls in fact.classes:
        counts = Counter()
        for block in cls:
            counts[_pack([u for u in detached if u in block], sum(v in beta for v in block),
                         sum(v in alpha for v in block))] += 1
        state.append(dict(counts))
    return state


@st.composite
def step_cases(draw, least=1, most=None):
    """A regular factorization, two disjoint merged vertex sets, the vertex
    to detach from one of them, whose size a (the multiplicity) lies in
    [least, most], and the order in which the other vertices were detached,
    a shuffled one; every such state is reachable."""
    tup = draw(st.sampled_from([(6, 8, 2, 5, 1), (5, 8, 4, 5, 1),
                                (6, 9, 2, 4, 1), (4, 8, 2, 14, 2),
                                (5, 10, 4, 6, 2)]))
    fact = _outer(tup, draw(st.integers(0, 3)))
    n = fact.ground_size
    order = draw(st.permutations(range(1, n + 1)))
    a = draw(st.integers(least, min(most or n, n)))
    other = draw(st.integers(0, n - a))
    from_beta = not other or draw(st.booleans())
    ours, theirs = set(order[:a]), set(order[a:a + other])
    beta, alpha = (ours, theirs) if from_beta else (theirs, ours)
    v = draw(st.sampled_from(sorted(ours)))
    return fact, beta, alpha, v, from_beta, order[a + other:]


def _run_step(fact, beta, alpha, v, from_beta, detached):
    """(state before, state after, a, matching problems and answers); the
    keys of the types that finished are counted in the state after as
    (D, 0, 0) again."""
    before = _amalgamate(fact, beta, alpha, detached)
    after = [dict(cls) for cls in before]
    blocks = [array("I") for _ in after]
    a = len(beta if from_beta else alpha)
    matches = []
    real = detach_module._match

    def spy(cells, chosen, row_need, col_need):
        # the whole rounding problem: the needs count the cells already taken
        taken = Counter(key for keys in chosen for key in keys)
        problem = ([list(row) for row in cells],
                   [need + len(keys) for need, keys in zip(row_need, chosen)],
                   {key: col_need.get(key, 0) + taken[key]
                    for row in cells for key in row})
        real(cells, chosen, row_need, col_need)
        matches.append((problem, chosen))

    with mock.patch.object(detach_module, "_match", spy):
        detach_module._detach_vertex(after, blocks, v, a, from_beta,
                                     [fact.regularity] * len(after))
    for cls, out in zip(after, blocks):
        for key in out:  # a finished key is its type (D, 0, 0) without b and t
            cls[key << 6] = cls.get(key << 6, 0) + 1
    return before, after, a, matches


@given(step_cases())
def test_detachment_step_meets_sums_caps_and_box(case):
    fact, beta, alpha, v, from_beta, _ = case
    before, after, a, _ = _run_step(*case)
    fair, got = Counter(), Counter()
    for old, new in zip(before, after):
        row = 0
        for key, x in old.items():
            _, b, t = _unpack(key)
            c = b if from_beta else t
            y = new.get(_receiver(key, v, from_beta), 0) if c else 0
            assert 0 <= y <= x  # caps
            assert x * c // a <= y <= -(-x * c // a)  # [floor, ceil] box
            assert new.get(key, 0) == x - y
            fair[key] += x * c
            got[key] += y
            row += y
        assert row == fact.regularity  # row sum: v's degree in the class
        assert sum(new.values()) == sum(old.values())
    for key, total in fair.items():
        assert got[key] * a == total  # column sum: the type's fair share


def test_finished_keys_are_the_keys_of_their_blocks(monkeypatch):
    # a type that finishes leaves the state as its key: seed 0 detaches in
    # ascending order, so the key arrays handed to Factorization hold the
    # keys it stores for the blocks, base blocks first
    handed = []
    real = detach_module.Factorization
    monkeypatch.setattr(detach_module, "Factorization",
                        lambda *args: handed.append(args[3]) or real(*args))
    p = EmbeddingParams(5, 10, 4, 6, 2)
    base = generate_base(p.m, p.r, p.lam)
    cert = detach(p, base, build_plan(p))
    for fact, classes in zip((base, cert.outer), handed):
        assert {type(keys) for keys in classes} == {array}
        assert [array("I", sorted(keys)).tobytes() for keys in classes] == list(fact._keys)
    for keys, old in zip(handed[1], base.classes):
        assert tuple(ColorClass(keys[:len(old)].tobytes())) == old
    # one step: each finished key holds D's vertices in detach order, then v
    fact = _outer((5, 10, 4, 6, 2), 0)
    detached, blocks = [7, 3, 9, 1, 5, 2], [array("I") for _ in fact.classes]
    state = _amalgamate(fact, {4, 6, 8, 10}, set(), detached)
    detach_module._detach_vertex(state, blocks, 4, 4, True, [fact.regularity] * len(blocks))
    finished = [_unpack(key << 6)[0] for out in blocks for key in out]
    # by the column sums: as many as the blocks of 4 and three of D
    assert len(finished) == sum(4 in b and len(set(b) & set(detached)) == 3
                                for cls in fact.classes for b in cls) > 0
    for block in finished:
        assert block[-1] == 4 and list(block[:-1]) == [u for u in detached if u in block]


@given(step_cases(least=3))
def test_deficit_matching_agrees_with_max_flow(case):
    nx = pytest.importorskip("networkx")
    *_, matches = _run_step(*case)
    assert len(matches) == 1
    (cells, row_need, col_need), chosen = matches[0]
    graph = nx.DiGraph()
    graph.add_nodes_from(["source", "sink"])
    for j, row in enumerate(cells):
        graph.add_edge("source", ("row", j), capacity=row_need[j])
        for key in row:
            graph.add_edge(("row", j), ("col", key), capacity=1)
    for key, need in col_need.items():
        graph.add_edge(("col", key), "sink", capacity=need)
    need = sum(row_need)
    assert need == sum(col_need.values())
    assert nx.maximum_flow_value(graph, "source", "sink") == need
    taken = Counter()
    for j, (row, keys) in enumerate(zip(cells, chosen)):
        assert keys.keys() <= set(row)
        assert all(row[i] == key for key, i in keys.items())  # each cell's place
        assert len(keys) == row_need[j]
        taken.update(keys.keys())
    assert all(taken[key] == want for key, want in col_need.items())


@given(step_cases(most=2))
def test_small_multiplicity_steps_reach_max_flow_without_matching(case):
    # at a <= 2 the step rounds in one pass (whole cells at a = 1, closed
    # trails at a = 2), and what it takes on the fractional cells is a
    # maximum flow of the rounding problem
    fact, beta, alpha, v, from_beta, _ = case
    before, after, a, matches = _run_step(*case)
    assert a <= 2 and not matches
    cells, row_need, col_need, chosen = [], [], Counter(), []
    for old, new in zip(before, after):
        row, need, taken = [], fact.regularity, set()
        for key, x in old.items():
            _, b, t = _unpack(key)
            c = b if from_beta else t
            need -= x * c // a
            if x * c % a:
                row.append(key)
                col_need[key] += x * c % a
                if new.get(_receiver(key, v, from_beta), 0) > x * c // a:
                    taken.add(key)
        cells.append(row)
        row_need.append(need)
        chosen.append(taken)
    assert all(units % a == 0 for units in col_need.values())
    col_need = {key: units // a for key, units in col_need.items()}
    total = sum(map(len, chosen))
    assert total == sum(row_need) == sum(col_need.values())
    assert _max_flow(cells, row_need, col_need) == total
    assert [len(keys) for keys in chosen] == row_need
    assert Counter(key for keys in chosen for key in keys) == Counter(col_need)


@pytest.mark.parametrize("state, a, degree, message", [
    # a = 2, one odd cell in each of two columns: neither column can take half
    ([{_pack((), 1, 0): 1, _pack((), 1, 1): 1}], 2, [1], r"\(0, 1, 0\) has a non-integral"),
    # a = 2, two odd cells per column, but row 1 has one odd cell for a need
    # of 1, and then two odd cells for a need of 2
    ([{_pack((), 1, 0): 1}, {_pack((), 1, 0): 1}], 2, [1, 0], "no integral solution"),
    ([{_pack((), 1, 0): 1, _pack((), 1, 1): 1}] * 2, 2, [2, 0], "no integral solution"),
    # a = 1, the whole cells give v degree 1, not 2, and degree 2, not 1
    ([{_pack((), 1, 0): 1, _pack((2,), 0, 3): 1}], 1, [2], "no integral solution"),
    ([{_pack((), 1, 0): 1, _pack((), 1, 1): 1}], 1, [1], "no integral solution"),
])
def test_small_multiplicity_step_checks_its_sums(state, a, degree, message):
    with pytest.raises(RuntimeError, match=message):
        detach_module._detach_vertex([dict(cls) for cls in state], [array("I") for _ in state],
                                     1, a, True, degree)


@st.composite
def b_matching_cases(draw):
    """A b-matching instance for ``_match``: each row's cells (column keys,
    in row order), per-row and per-column totals, and a partial choice
    already taken within them.  The totals count a random set of cells, so
    most instances are feasible; moving one unit of one column's total to
    another column makes some infeasible."""
    n_rows, n_cols = draw(st.integers(1, 40)), draw(st.integers(1, 24))
    column = st.integers(0, n_cols - 1)
    cells = [draw(st.lists(column, unique=True, min_size=1, max_size=4))
             for _ in range(n_rows)]
    wanted = [draw(st.sets(st.sampled_from(row), min_size=1)) for row in cells]
    row_total = [len(keys) for keys in wanted]
    col_total = Counter(dict.fromkeys(range(n_cols), 0))
    col_total.update(key for keys in wanted for key in keys)
    if draw(st.booleans()):
        src, dst = draw(column), draw(column)
        if col_total[src]:
            col_total[src] -= 1
            col_total[dst] += 1
    # a maximal choice, rows in random order and cells last first: no cell
    # can be added to it, so every unit left needs an augmenting path
    room, taken = Counter(col_total), [set() for _ in cells]
    for j in draw(st.permutations(range(n_rows))):
        for key in reversed(cells[j]):
            if len(taken[j]) < row_total[j] and room[key]:
                taken[j].add(key)
                room[key] -= 1
    return cells, row_total, dict(col_total), taken


def _max_flow(cells, row_total, col_total):
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(["source", "sink"])
    for j, row in enumerate(cells):
        graph.add_edge("source", ("row", j), capacity=row_total[j])
        for key in row:
            graph.add_edge(("row", j), ("col", key), capacity=1)
    for key, need in col_total.items():
        graph.add_edge(("col", key), "sink", capacity=need)
    return nx.maximum_flow_value(graph, "source", "sink")


def _run_match(cells, row_total, col_total, taken):
    """``_match`` from the partial choice ``taken``; its final choice, each
    row's taken cells mapped to their places in the row."""
    chosen = [{key: row.index(key) for key in keys} for keys, row in zip(taken, cells)]
    row_need = [total - len(keys) for total, keys in zip(row_total, chosen)]
    held = Counter(key for keys in chosen for key in keys)
    col_need = {key: total - held[key] for key, total in col_total.items()}
    detach_module._match(cells, chosen, row_need, col_need)
    assert not any(row_need) and not any(col_need.values())
    return chosen


def _counting_phases():
    return mock.patch.object(detach_module, "_phase", wraps=detach_module._phase)


@given(b_matching_cases())
def test_match_agrees_with_max_flow(case):
    # _match called directly, with many deficit units: it closes them
    # exactly when the maximum flow meets every row total, and raises
    # otherwise, whatever the cells already taken
    cells, row_total, col_total, taken = case
    with _counting_phases() as phase:
        if _max_flow(cells, row_total, col_total) < sum(row_total):
            with pytest.raises(RuntimeError, match="no integral solution"):
                _run_match(*case)
            return
        chosen = _run_match(*case)
    target(float(phase.call_count), label="phases")
    for row, keys, total in zip(cells, chosen, row_total):
        assert keys.keys() <= set(row) and len(keys) == total
        assert all(row[i] == key for key, i in keys.items())
    got = Counter(key for keys in chosen for key in keys)
    assert all(got[key] == want for key, want in col_total.items())


def _chains(lengths):
    """Disjoint chains of rows and columns, each column wanted once.  In a
    chain of length L, row 0 may take column 0 only, and row i (1 <= i <= L)
    holds column i - 1 and may take column i; column L is spare, so the
    one augmenting path runs from row 0 through the whole chain."""
    cells, taken, want, col = [], [], [], 0
    for length in lengths:
        cells.append([col])
        taken.append(set())
        want.append({col})
        for i in range(1, length + 1):
            cells.append([col + i - 1, col + i])
            taken.append({col + i - 1})
            want.append({col + i})
        col += length + 1
    return cells, taken, want, col


def test_match_runs_one_phase_per_path_length():
    # a phase takes only the shortest augmenting paths, so chains of three
    # lengths need three phases
    cells, taken, want, n_cols = _chains((3, 1, 2))
    with _counting_phases() as phase:
        chosen = _run_match(cells, [1] * len(cells), dict.fromkeys(range(n_cols), 1), taken)
    assert [set(keys) for keys in chosen] == want
    assert phase.call_count == 3


def test_step_with_non_integral_share_raises():
    # 2 edges of type (0, 2, 0) at multiplicity 4 would give v 1 of them,
    # one edge gives v half a 4-set
    with pytest.raises(RuntimeError, match=r"\(0, 2, 0\) has a non-integral"):
        detach_module._detach_vertex([{_pack((), 2, 0): 1}], [array("I")], 1, 4, True, [0])


def test_every_small_tuple_embeds():
    # every tuple passing N1-N8 with n <= 10 and lam <= 2 (r and s range
    # over all admissible values), out-of-scope ones included
    count = out_of_scope = 0
    for p in sweep_params(10, 168, 168, 2):
        report = check_conditions(p)
        if not report.all_hold():
            continue
        count += 1
        out_of_scope += report.theorem_case is TheoremCase.OUT_OF_SCOPE
        base = generate_base(p.m, p.r, p.lam)
        plan = build_plan(p, report)
        cert = detach(p, base, plan)
        assert verify_certificate(cert), p
        _assert_bench_checks(p, base, cert)
        # the necessity half: the certificate amalgamates back to its plan
        assert amalgamate(base, cert.outer) == plan.rows, p
    assert (count, out_of_scope) == (196, 41)


@pytest.mark.parametrize("tup", [(6, 10, 2, 6, 1), (8, 12, 1, 3, 1),
                                 (9, 12, 4, 11, 1), (8, 11, 5, 8, 1),
                                 (5, 10, 4, 6, 2), (12, 16, 3, 5, 1)])
def test_former_search_walls_embed_quickly(tup):
    t0 = time.perf_counter()
    cert = _certificate(tup)
    assert time.perf_counter() - t0 < 2.0
    assert verify_certificate(cert)


# seed-0 detachment order and the SHA-256 prefix of the certificate: the
# construction visits classes, types and vertices in a fixed order, and the
# extra cells of a row in the row's order, never in the order of a set of
# int keys, so its output is the same in every process and on every platform
PINNED_CERTIFICATES = {
    (6, 8, 2, 5, 1): "e25d8b828ce46fc2",
    (5, 8, 8, 10, 2): "643ad01b15ce6a68",
    (6, 9, 2, 4, 1): "cf31cfd85577f265",
    (6, 8, 2, 7, 1): "43c729d6faa904ba",
    (4, 8, 2, 14, 2): "272d7ecba6fab6a6",
    (9, 10, 4, 6, 1): "95f73779a404e7d9",
}


@pytest.mark.parametrize("tup", sorted(PINNED_CERTIFICATES))
def test_search_order_pinned(tup, monkeypatch):
    order = []
    step = detach_module._detach_vertex

    def recorded(classes, blocks, v, a, from_beta, degree):
        order.append((v, a, from_beta))
        return step(classes, blocks, v, a, from_beta, degree)

    monkeypatch.setattr(detach_module, "_detach_vertex", recorded)
    p = EmbeddingParams(*tup)
    text = render_factorization(_certificate(tup).outer)
    base_order = [(v, p.m - i, True) for i, v in enumerate(range(1, p.m + 1))]
    assert order == base_order + base_order + [
        (v, p.n - v + 1, False) for v in range(p.m + 1, p.n + 1)]
    assert sha256(text.encode()).hexdigest()[:16] == PINNED_CERTIFICATES[tup]


@pytest.mark.parametrize("tup", [(6, 9, 2, 4, 1), (5, 10, 4, 6, 2)])
@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_order_permutes_each_amalgam(tup, seed, monkeypatch):
    # a nonzero seed shuffles each amalgam's vertices: generate_base's one
    # amalgam, then detach's old and new amalgams, each with a running down
    # from the amalgam's size to 1
    order = []
    step = detach_module._detach_vertex

    def recorded(classes, blocks, v, a, from_beta, degree):
        order.append((v, a, from_beta))
        return step(classes, blocks, v, a, from_beta, degree)

    monkeypatch.setattr(detach_module, "_detach_vertex", recorded)
    p = EmbeddingParams(*tup)
    assert verify_certificate(_certificate(tup, seed))
    old, new = range(1, p.m + 1), range(p.m + 1, p.n + 1)
    amalgams = [(old, True), (old, True), (new, False)]
    assert len(order) == p.m + p.n
    shuffled = False
    for vertices, from_beta in amalgams:
        steps, order = order[:len(vertices)], order[len(vertices):]
        assert sorted(v for v, _, _ in steps) == list(vertices)
        assert [a for _, a, _ in steps] == list(range(len(vertices), 0, -1))
        assert all(f is from_beta for *_, f in steps)
        shuffled |= [v for v, _, _ in steps] != list(vertices)
    assert shuffled
