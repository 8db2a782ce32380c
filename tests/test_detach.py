import importlib
from collections import Counter

import pytest

from quadembed.detach import detach, generate_base
from quadembed.errors import InputError, SearchExhausted
from quadembed.factorization import (
    crossing_profile,
    is_valid_factorization,
    verify_certificate,
)
from quadembed.params import EmbeddingParams, color_counts
from quadembed.planner import build_plan, totals


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
    assert base.classes[0] == [(1, 2, 3, 4), (1, 2, 3, 4)]
    assert is_valid_factorization(base)


def test_generate_base_rejects_excluded_inputs():
    with pytest.raises(InputError):
        generate_base(4, 4, 1)  # m = 4 with lam = 1 is excluded
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
    # per-class shapes match the plan exactly
    for j, cls in enumerate(cert.outer.classes):
        crossing = [b for b in cls if b[3] > 6]
        assert crossing_profile(crossing, 6) == \
            (plan.e[j], plan.f[j], plan.g[j], plan.h[j])


def test_detach_round_trip_amalgam_totals():
    p = EmbeddingParams(5, 8, 4, 5, 1)
    cert = detach(p, generate_base(5, 4, 1), build_plan(p))
    crossing = [b for cls in cert.outer.classes for b in cls if b[3] > 5]
    e, f, g, h = totals(p)
    assert crossing_profile(crossing, 5) == (e, f, g, h)


def test_detach_rejects_broken_plan():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    base = generate_base(6, 2, 1)
    plan = build_plan(p)
    bad = plan.__class__(p, plan.case, plan.subcase, plan.via,
                         plan.e, (plan.f[0] + 1,) + plan.f[1:],
                         plan.g, plan.h)
    with pytest.raises(InputError):
        detach(p, base, bad)


def test_detach_rejects_mismatched_base():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    plan = build_plan(p)
    with pytest.raises(InputError):
        detach(p, generate_base(5, 4, 1), plan)


def test_detach_node_budget_exhaustion():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    base = generate_base(6, 2, 1)
    plan = build_plan(p)
    with pytest.raises(SearchExhausted) as err:
        detach(p, base, plan, node_budget=3)
    assert not err.value.complete


def test_detach_class_sizes():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    cert = detach(p, generate_base(6, 2, 1), build_plan(p))
    q, k = color_counts(p)
    sizes = [len(cls) for cls in cert.outer.classes]
    assert sizes == [p.s * p.n // 4] * k


def test_detach_desk_scale_regression():
    # 14 colors, 111 blocks: thrashes under item-ordered search, quick under
    # class-sequential filling with scarce shapes placed first
    p = EmbeddingParams(6, 9, 2, 4, 1)
    cert = detach(p, generate_base(6, 2, 1), build_plan(p),
                  node_budget=500_000)
    assert verify_certificate(cert)


def test_detach_deterministic_per_seed():
    p = EmbeddingParams(6, 8, 2, 5, 1)
    base = generate_base(6, 2, 1)
    plan = build_plan(p)
    a = detach(p, base, plan, seed=3)
    b = detach(p, base, plan, seed=3)
    assert a.outer == b.outer
    assert verify_certificate(a)


# the package re-exports the function ``detach``, which shadows the submodule
detach_module = importlib.import_module("quadembed.detach")


def test_generate_base_raises_when_verification_fails(monkeypatch):
    monkeypatch.setattr(detach_module, "is_valid_factorization", lambda fact: False)
    with pytest.raises(RuntimeError, match="fails verification"):
        generate_base(6, 2, 1)


def test_detach_raises_when_verification_fails(monkeypatch):
    p = EmbeddingParams(6, 8, 2, 5, 1)
    base, plan = generate_base(6, 2, 1), build_plan(p)
    monkeypatch.setattr(detach_module, "verify_certificate", lambda cert: False)
    with pytest.raises(RuntimeError, match="fails verification"):
        detach(p, base, plan)
