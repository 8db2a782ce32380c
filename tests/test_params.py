import dataclasses
import hashlib
import json
import pickle
from fractions import Fraction
from itertools import chain

import pytest

from quadembed.cli import _sweep_row
from quadembed.detach import generate_base
from quadembed.errors import InputError
from quadembed.factorization import Factorization, parse_factorization, render_factorization
from quadembed.params import (
    CONDITION_IDS,
    EmbeddingParams,
    TheoremCase,
    check_conditions,
    class_count,
    color_counts,
    is_admissible,
)

from conftest import sweep_params


def test_is_admissible_examples():
    assert is_admissible(6, 2, 1)
    assert is_admissible(5, 4, 1)
    assert not is_admissible(5, 2, 1)  # 4 does not divide 10


def test_is_admissible_rejects_bad_args():
    # the range check fires before C(m-1,3) is taken (m = 0 would make comb
    # raise ValueError) and before divisibility, which (3, 1, 1) fails too
    for call in (is_admissible, class_count):
        for args in ((3, 1, 1), (0, 1, 1), (6, 0, 1)):
            with pytest.raises(InputError) as exc:
                call(*args)
            assert str(exc.value) == f"need m >= 4, r >= 1, lam >= 1, got {args}"
    with pytest.raises(InputError) as exc:
        class_count(5, 2, 1, "inner triple")
    assert str(exc.value) == "inner triple (5, 2, 1) not admissible"
    assert class_count(6, 2, 1) == 5


def test_color_counts_examples():
    assert color_counts(EmbeddingParams(6, 8, 2, 5, 1)) == (5, 7)
    assert color_counts(EmbeddingParams(8, 16, 1, 1, 1)) == (35, 455)
    q, k = color_counts(EmbeddingParams(4, 5, 4, 4, 4))
    assert q == 1 and k == 4


def test_color_counts_rejects_inadmissible():
    with pytest.raises(InputError):
        color_counts(EmbeddingParams(5, 8, 2, 5, 1))  # inner triple fails


def test_excluded_inputs_rejected():
    with pytest.raises(InputError):
        EmbeddingParams(4, 5, 1, 1, 1)  # m = 4 needs r, lam >= 2
    with pytest.raises(InputError):
        EmbeddingParams(3, 5, 1, 1, 1)
    with pytest.raises(InputError):
        EmbeddingParams(6, 6, 2, 2, 1)
    with pytest.raises(InputError):
        EmbeddingParams(6, 8, 0, 2, 1)


def test_params_constructor_contract():
    p = EmbeddingParams(7, 12, 3, 8, 2)
    assert EmbeddingParams(m=7, n=12, r=3, s=8, lam=2) == p
    assert hash(EmbeddingParams(7, 12, 3, 8, 2)) == hash(p)
    assert p != EmbeddingParams(7, 12, 3, 8, 1)
    assert dataclasses.replace(p, n=9) == EmbeddingParams(7, 9, 3, 8, 2)
    assert [f.name for f in dataclasses.fields(p)] == ["m", "n", "r", "s", "lam"]
    assert repr(p) == "EmbeddingParams(m=7, n=12, r=3, s=8, lam=2)"
    assert pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.m = 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        del p.lam
    assert p == EmbeddingParams(7, 12, 3, 8, 2)
    # the integer check comes first, then the range checks in this order
    for args, message in [
        ((6.0, 2, 0, 0, 0), "parameters must be integers, got (6.0, 2, 0, 0, 0)"),
        ((3, 2, 0, 0, 0), "m must be at least 4, got 3"),
        ((6, 6, 0, 0, 0), "need n > m, got n=6, m=6"),
        ((6, 8, 2, 5, 0), "r, s, lam must be positive"),
        ((4, 5, 1, 0, 1), "r, s, lam must be positive"),
        ((4, 5, 1, 1, 1), "m = 4 requires lam >= 2 and r >= 2"),
    ]:
        with pytest.raises(InputError) as err:
            EmbeddingParams(*args)
        assert str(err.value) == message, args


@pytest.mark.parametrize("spell", [float, lambda x: x + 0.5, Fraction, str],
                         ids=["integral-float", "float", "Fraction", "str"])
def test_non_integer_parameters_raise_input_error(spell):
    tup = (6, 8, 2, 5, 1)
    for i in range(5):
        with pytest.raises(InputError, match="must be integers"):
            EmbeddingParams(*tup[:i], spell(tup[i]), *tup[i + 1:])
    with pytest.raises(InputError, match="must be integers"):
        generate_base(6, 2, spell(1))


def test_bool_parameters_are_stored_as_int():
    p = EmbeddingParams(6, 8, 2, 5, True)
    assert p == EmbeddingParams(6, 8, 2, 5, 1) and type(p.lam) is int
    facts = [generate_base(6, 2, True), Factorization(4, True, True, [[(1, 2, 3, 4)]])]
    for fact, header in zip(facts, ("6 1 2 5", "4 1 1 1")):
        assert (type(fact.ground_size), type(fact.lam), type(fact.regularity)) == (int,) * 3
        text = render_factorization(fact)
        assert text.split("\n", 1)[0] == header
        assert parse_factorization(text) == fact


def test_remark_counterexample_n6():
    rep = check_conditions(EmbeddingParams(7, 10, 4, 6, 1))
    assert rep.failing() == ["N6"]
    v = rep.verdicts["N6"]
    assert v.lhs == 105 and v.rhs == 108
    assert rep.theorem_case is TheoremCase.STRICT_RATIO


def test_remark_counterexample_n7():
    rep = check_conditions(EmbeddingParams(10, 16, 6, 7, 1))
    assert rep.failing() == ["N7"]
    v = rep.verdicts["N7"]
    assert v.lhs == 2115 and v.rhs == 2142


def test_all_conditions_hold_for_figure_example():
    rep = check_conditions(EmbeddingParams(6, 8, 2, 5, 1))
    assert rep.all_hold()
    assert rep.q == 5 and rep.k == 7


def test_theorem_case_mapping():
    assert check_conditions(EmbeddingParams(6, 8, 2, 5, 1)).theorem_case \
        is TheoremCase.STRICT_RATIO
    assert check_conditions(EmbeddingParams(6, 8, 2, 7, 1)).theorem_case \
        is TheoremCase.EQUAL_RATIO
    # ratio equality but n < 4m/3: left open
    assert check_conditions(EmbeddingParams(8, 9, 5, 8, 1)).theorem_case \
        is TheoremCase.OUT_OF_SCOPE
    assert check_conditions(EmbeddingParams(6, 7, 2, 4, 1)).theorem_case \
        is TheoremCase.OUT_OF_SCOPE
    # ratio reversed (N2 fails)
    assert check_conditions(EmbeddingParams(8, 9, 1, 4, 1)).theorem_case \
        is TheoremCase.OUT_OF_SCOPE


def test_n8_active_case():
    # ratio equality with m(s-r) = 80 = 2 mod 3: the two-branch bound is live
    rep = check_conditions(EmbeddingParams(5, 7, 4, 20, 1))
    v = rep.verdicts["N8"]
    assert not v.vacuous and v.holds
    assert v.lhs == Fraction(1)
    assert rep.all_hold()


def test_n8_vacuous_when_ratio_strict():
    rep = check_conditions(EmbeddingParams(6, 8, 2, 5, 1))
    assert rep.verdicts["N8"].vacuous


def _grid():
    """Every tuple with 4 <= m < n <= 14, r, s <= 8, lam <= 2, admissible
    or not, excluded ones included."""
    return [(m, n, r, s, lam) for m in range(4, 14) for n in range(m + 1, 15)
            for r in range(1, 9) for s in range(1, 9) for lam in (1, 2)]


def _grid_params():
    for tup in _grid():
        try:
            yield EmbeddingParams(*tup)
        except InputError:
            pass


def test_composite_labels_match_over_small_sweep():
    for p in chain(sweep_params(n_hi=20, r_hi=8, s_hi=8, lam_hi=2), _grid_params()):
        rep = check_conditions(p)
        # all_hold before the verdicts are read, then against them
        assert rep.all_hold() == all(rep.verdicts[c].holds for c in CONDITION_IDS)
        v = rep.verdicts
        assert v["eq2"].holds == (v["N1"].holds and v["N2"].holds)
        assert v["eq3"].holds == (v["N3"].holds and v["N5"].holds)
        assert v["eq4"].holds == v["N6"].holds
        assert v["eq5"].holds == v["N7"].holds
        # each verdict is its witnesses' inequality, unless vacuous
        for cid in CONDITION_IDS:
            w = v[cid]
            assert w.den > 0
            if w.vacuous:
                assert w.holds
            elif cid == "N2":
                assert w.holds == (p.r <= p.s and w.lhs <= w.rhs)
            elif cid == "N8":
                assert w.holds == (w.lhs <= w.rhs)
            else:
                assert w.holds == (w.lhs >= w.rhs)
        admissible = is_admissible(p.m, p.r, p.lam) and is_admissible(p.n, p.s, p.lam)
        assert v["N1"].holds == admissible
        if admissible:
            assert (rep.q, rep.k) == color_counts(p)
        else:
            assert rep.q is None and rep.k is None


def test_reports_pinned_over_small_grid():
    # SHA-256 of every check report's text and JSON, inadmissible tuples
    # included; the value was computed when the witnesses were Fractions
    digest = hashlib.sha256()
    for p in _grid_params():
        rep = check_conditions(p)
        digest.update((rep.to_text() + rep.to_json()).encode())
    assert digest.hexdigest() == (
        "0ab8ef8ee6caf562071af242a8438f450fb7f22650900dfd709c9d56fc39476f")


def test_conditions_build_no_fraction(monkeypatch):
    rows = [_sweep_row(tup) for tup in _grid()]

    def no_fraction(*args):
        raise RuntimeError("a Fraction was built")

    monkeypatch.setattr("quadembed.params.Fraction", no_fraction)
    for p in _grid_params():
        rep = check_conditions(p)
        assert rep.all_hold() == (rep.failing() == [])
        assert isinstance(rep.theorem_case, TheoremCase)
    again = [_sweep_row(tup) for tup in _grid()]
    for row in rows + again:
        row.pop("plan_ms")
    assert again == rows
    assert sum(row["plan_found"] == 1 for row in rows) > 0
    with pytest.raises(RuntimeError):
        rep.verdicts["N4"].lhs  # the witnesses come from the stub


def test_failed_n1_answers_without_verdicts(monkeypatch):
    def no_verdict(*args, **kwargs):
        raise RuntimeError("a Verdict was built")

    monkeypatch.setattr("quadembed.params.Verdict", no_verdict)
    failed = 0
    for p in _grid_params():
        if is_admissible(p.m, p.r, p.lam) and is_admissible(p.n, p.s, p.lam):
            continue
        rep = check_conditions(p)
        assert rep.all_hold() is False
        assert rep.q is None and rep.k is None
        assert isinstance(rep.theorem_case, TheoremCase)
        failed += 1
    assert failed > 0
    with pytest.raises(RuntimeError):
        rep.verdicts  # built on first read, from the stub


def test_check_conditions_deterministic():
    p = EmbeddingParams(9, 12, 4, 11, 1)
    r1, r2 = check_conditions(p), check_conditions(p)
    assert r1.verdicts == r2.verdicts and r1.theorem_case == r2.theorem_case


def test_report_text_and_json():
    rep = check_conditions(EmbeddingParams(7, 10, 4, 6, 1))
    text = rep.to_text()
    assert "N6" in text and "FAIL" in text and "105" in text
    doc = json.loads(rep.to_json())
    assert doc["failing"] == ["N6"]
    assert doc["params"] == {"m": 7, "n": 10, "r": 4, "s": 6, "lambda": 1}
    n6 = next(c for c in doc["conditions"] if c["id"] == "N6")
    assert n6 == {"id": "N6", "holds": False, "lhs": "105", "rhs": "108",
                  "vacuous": False}
