import importlib
import random
from collections import Counter
from hashlib import sha256

import pytest

from quadembed.detach import detach, generate_base
from quadembed.errors import InputError, PlanInfeasible, SearchExhausted
from quadembed.factorization import (
    crossing_profile,
    is_valid_factorization,
    render_factorization,
    verify_certificate,
)
from quadembed.params import EmbeddingParams, check_conditions, color_counts
from quadembed.planner import build_plan, totals

from conftest import sweep_params


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
    assert err.value.nodes == 4


def test_complete_exhaustion_reports_nodes(monkeypatch):
    # with every supply check failing, the search closes after the first
    # node's candidates without finding a cover
    monkeypatch.setattr(detach_module._CoverSearch, "_supply_ok", lambda self: False)
    with pytest.raises(SearchExhausted) as err:
        generate_base(6, 2, 1)
    assert err.value.complete and err.value.nodes == 1


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


def _rescan_supply_ok(search) -> bool:
    """Reference for _CoverSearch._supply_ok: the full rescan of every
    unassigned item against every incomplete class that the counters
    replace."""
    items, classes = search.items, search.classes
    assigned = [j >= 0 for j in search.choice]

    def fits(cls, block, shape):
        if cls.size_budget == 0:
            return False
        if cls.shape_budget is not None and cls.shape_budget[shape] == 0:
            return False
        return all(cls.vbudget[v] > 0 for v in block)

    active = [j for j, cls in enumerate(classes) if cls.size_budget > 0]
    if not active:
        return True
    supply = {j: 0 for j in active}
    vsupply = {j: [0] * (search.ground + 1) for j in active}
    i = 0
    n = len(items)
    while i < n:
        if assigned[i]:
            i += 1
            continue
        block, shape = items[i]
        count = 1
        while i + count < n and not assigned[i + count] \
                and items[i + count][0] == block:
            count += 1
        fits_any = False
        for j in active:
            if fits(classes[j], block, shape):
                fits_any = True
                supply[j] += count
                row = vsupply[j]
                for v in block:
                    row[v] += count
        if not fits_any:
            return False
        i += count
    for j in active:
        cls = classes[j]
        if supply[j] < cls.size_budget:
            return False
        row = vsupply[j]
        for v in range(1, search.ground + 1):
            if cls.vbudget[v] > row[v]:
                return False
    return True


def test_supply_counters_agree_with_rescan(monkeypatch):
    checks = Counter()
    supply_ok = detach_module._CoverSearch._supply_ok

    def checked(self):
        got = supply_ok(self)
        assert got == _rescan_supply_ok(self), (self.nodes, self.choice)
        checks[got] += 1
        return got

    monkeypatch.setattr(detach_module._CoverSearch, "_supply_ok", checked)
    tuples = [p for p in sweep_params(8, 8, 12, 2)
              if check_conditions(p).all_hold()]
    assert len(tuples) == 29
    for p in tuples:
        for seed in range(3):
            try:
                base = generate_base(p.m, p.r, p.lam, seed=seed, node_budget=150)
                plan = build_plan(p, force_out_of_scope=True)
                detach(p, base, plan, seed=seed, node_budget=150)
            except (SearchExhausted, PlanInfeasible, InputError):
                pass
    # both verdicts occur, and often enough that the agreement means something
    assert checks[True] >= 1000 and checks[False] >= 1000
    assert sum(checks.values()) >= 16_000


class _Captured(Exception):
    pass


def _captured_search(monkeypatch, build):
    """The _CoverSearch that ``build`` sets up, before it runs."""
    seen = []

    def grab(self, *args):
        seen.append(self)
        raise _Captured

    monkeypatch.setattr(detach_module._CoverSearch, "run", grab)
    with pytest.raises(_Captured):
        build()
    monkeypatch.undo()
    return seen[0]


def _fit_masks(search):
    """fit[j] recomputed from class j's budgets: the items whose size
    budget, shape budget and vertex budgets in class j are all positive."""
    return [
        sum(1 << i for i, (block, shape) in enumerate(search.items)
            if cls.size_budget > 0
            and (cls.shape_budget is None or cls.shape_budget[shape] > 0)
            and all(cls.vbudget[v] > 0 for v in block))
        for cls in search.classes]


@pytest.mark.parametrize("instance", ["base", "detach"])
def test_supply_counters_survive_apply_undo(instance, monkeypatch):
    p = EmbeddingParams(6, 8, 2, 5, 1)
    if instance == "base":
        search = _captured_search(monkeypatch, lambda: generate_base(6, 2, 1))
    else:
        base, plan = generate_base(6, 2, 1), build_plan(p)
        search = _captured_search(monkeypatch, lambda: detach(p, base, plan))
    n = len(search.items)
    rng = random.Random(0)
    stack = []
    completed = reopened = 0
    for _ in range(400):
        moves = [(i, j) for j, fit in enumerate(search.fit)
                 for i in range(n) if (fit & search.free) >> i & 1]
        if moves and (not stack or rng.random() < 0.6):
            i, j = rng.choice(moves)
            search._apply(i, j)
            stack.append((i, j))
            completed += search.classes[j].size_budget == 0
        elif stack:
            i, j = stack.pop()
            reopened += search.classes[j].size_budget == 0
            search._undo(i, j)
        assert search.fit == _fit_masks(search)
        assert search.free == sum(1 << i for i, j in enumerate(search.choice)
                                  if j == -1)
    assert completed and reopened
    while stack:
        search._undo(*stack.pop())
    assert search.choice == [-1] * n
    assert search.free == (1 << n) - 1 and not search.saved_fit


# seed-0 search nodes (generate_base, detach) and the certificate's SHA-256
# prefix; the supply bookkeeping must not change the search order
PINNED_SEARCHES = {
    (6, 8, 2, 5, 1): ([15, 60], "99c9fd3a42e1ec0d"),
    (5, 8, 8, 10, 2): ([10, 6570], "bd17f9a4db2e8c1a"),
    (6, 9, 2, 4, 1): ([15, 3713], "3ea5b8bf6de7dba2"),
    (6, 8, 2, 7, 1): ([15, 12848], "0ee22da4939afeff"),
    (4, 8, 2, 14, 2): ([2, 14833], "77e6340bb3b1ae57"),
    (9, 10, 4, 6, 1): ([4679, 260], "588c5f980110f2ec"),
}


@pytest.mark.parametrize("tup", sorted(PINNED_SEARCHES))
def test_search_order_pinned(tup, monkeypatch):
    nodes = []
    run = detach_module._CoverSearch.run

    def counted(self, *args):
        try:
            return run(self, *args)
        finally:
            nodes.append(self.nodes)

    monkeypatch.setattr(detach_module._CoverSearch, "run", counted)
    p = EmbeddingParams(*tup)
    base = generate_base(p.m, p.r, p.lam)
    cert = detach(p, base, build_plan(p, force_out_of_scope=True))
    digest = sha256(render_factorization(cert.outer).encode()).hexdigest()
    assert (nodes, digest[:16]) == PINNED_SEARCHES[tup]
