"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is exact;
the only numeric slack is the stated wall-clock budget per criterion.
"""

import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from hashlib import sha256
from math import ceil, comb, floor

from quadembed.bounds import AmalgamCase, sign_case, tier_bounds
from quadembed.cli import main
from quadembed.factorization import (
    EmbeddingCertificate,
    Factorization,
    is_valid_factorization,
    read_factorization,
    verify_certificate,
)
from quadembed.intervals import IntervalSystem
from quadembed.params import EmbeddingParams, TheoremCase, check_conditions
from quadembed.planner import (
    _e_intervals,
    build_plan,
    extend_plan,
    plan_f,
    render_plan,
    solve_e,
    totals,
    verify_plan,
)

from conftest import (
    FIXTURES,
    expand,
    feasible,
    fraction_bounds,
    identity_a,
    identity_b,
    identity_c,
    runs,
    satisfied_by,
    sweep_params,
)


def _report(name: str, elapsed: float, budget: float, detail: str = ""):
    line = f"[acceptance] {name}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) {detail}"
    print(line)
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.2f}s"


def test_criterion_1_fixture_verification():
    t0 = time.perf_counter()
    f6 = read_factorization(FIXTURES / "intro_6.txt")
    f8 = read_factorization(FIXTURES / "intro_8.txt")
    f9 = read_factorization(FIXTURES / "intro_9.txt")
    assert is_valid_factorization(f9), "outer level not 8-regular/complete"
    assert verify_certificate(EmbeddingCertificate(inner=f8, outer=f9))
    assert verify_certificate(EmbeddingCertificate(inner=f6, outer=f8))
    _report("1 fixture-verification", time.perf_counter() - t0, 1.0)


def test_criterion_2_counterexample_reports():
    t0 = time.perf_counter()
    rep = check_conditions(EmbeddingParams(7, 10, 4, 6, 1))
    assert rep.failing() == ["N6"], rep.failing()
    rep = check_conditions(EmbeddingParams(10, 16, 6, 7, 1))
    assert rep.failing() == ["N7"], rep.failing()
    assert main(["check", "7", "10", "4", "6", "1", "--out", "/dev/null"]) == 1
    assert main(["check", "10", "16", "6", "7", "1", "--out", "/dev/null"]) == 1
    _report("2 counterexamples", time.perf_counter() - t0, 5.0)


# (m, n, r, s): q, k, k-q, iota1, |rhop1|, |rho1|, iota2, |rhop2|, |rho2|,
#               e, f, g, case, old-tier e_j, new-tier e_j
SPORADIC_TABLE = [
    (5, 8, 4, 5, 1, 7, 6, -5, 0, 1, 5, 7, 8, 30, 30, 5, "5.3", "0^1", "5^6"),
    (6, 8, 2, 5, 5, 7, 2, 4, 5, 6, 10, 10, 10, 40, 15, 0, "5.2", "4^5", "10^2"),
    (6, 9, 2, 4, 5, 14, 9, 0, 3, 4, 6, 7, 8, 60, 45, 6, "5.2", "0^2,2^3", "6^9"),
    (6, 9, 2, 8, 5, 7, 2, 6, 10, 12, 12, 15, 16, 60, 45, 6, "5.2", "6^2,8^3", "12^2"),
    (8, 12, 1, 3, 35, 55, 20, 2, 4, 5, 6, 7, 8, 224, 168, 32, "5.2", "2^18,4^17", "6^20"),
    (8, 16, 1, 1, 35, 455, 420, -4, -1, 0, 0, 2, 2, 448, 784, 448, "5.6(i)",
     "0^35", "0^196,2^224"),
    (8, 11, 5, 8, 7, 15, 8, 0, 6, 8, 20, 21, 21, 168, 84, 8, "5.2", "0^3,2^4", "20^8"),
    (8, 11, 5, 12, 7, 10, 3, 10, 16, 18, 30, 31, 32, 168, 84, 8, "5.2",
     "10^3,12^4", "30^3"),
    (8, 11, 7, 12, 5, 10, 5, 2, 10, 13, 30, 31, 32, 168, 84, 8, "5.2",
     "2^1,4^4", "30^5"),
    (9, 12, 4, 11, 14, 15, 1, 15, 19, 21, 33, 33, 33, 252, 108, 9, "5.2",
     "15^11,18^3", "33^1"),
    (9, 12, 8, 15, 7, 11, 4, 9, 18, 21, 45, 45, 45, 252, 108, 9, "5.2",
     "9^6,18^1", "45^4"),
    (12, 18, 1, 2, 165, 340, 175, 0, 3, 4, 6, 7, 8, 1320, 990, 240, "5.2",
     "0^43,2^121,3^1", "6^150,7^25"),
    (12, 16, 3, 5, 55, 91, 36, 2, 6, 8, 20, 20, 20, 880, 396, 48, "5.2",
     "2^30,4^25", "20^36"),
    (12, 16, 3, 7, 55, 65, 10, 10, 14, 16, 28, 28, 28, 880, 396, 48, "5.2",
     "10^30,12^25", "28^10"),
    (14, 19, 2, 4, 143, 204, 61, 4, 8, 9, 18, 18, 18, 1820, 910, 140, "5.2",
     "4^68,6^75", "18^61"),
    (14, 20, 2, 3, 143, 323, 180, -2, 3, 4, 12, 13, 14, 2184, 1365, 280, "5.3",
     "0^131,2^12", "12^180"),
    (16, 22, 1, 2, 455, 665, 210, 2, 4, 5, 10, 10, 10, 3360, 1800, 320, "5.2",
     "2^280,4^175", "10^210"),
    (28, 38, 1, 2, 2925, 3885, 960, 4, 8, 9, 18, 18, 18, 32760, 17010, 3360,
     "5.2", "4^1035,6^1890", "18^960"),
    (5, 7, 4, 20, 1, 1, 0, 20, 25, 26, None, None, None, 20, 10, 0, "5.2",
     "20^1", None),
    (6, 8, 2, 7, 5, 5, 0, 8, 9, 10, None, None, None, 40, 15, 0, "5.2",
     "8^5", None),
    (6, 8, 10, 35, 1, 1, 0, 40, 47, 50, None, None, None, 40, 15, 0, "5.2",
     "40^1", None),
]


def spec_runs(spec):
    """Exponent notation to runs (count, value): "0^2,2^3" -> [(2, 0), (3, 2)]; None -> []."""
    return [(int(count), int(value))
            for value, count in (part.split("^") for part in spec.split(","))] if spec else []


def test_criterion_3_sporadic_table_reproduction():
    t0 = time.perf_counter()
    assert len(SPORADIC_TABLE) == 21
    for row in SPORADIC_TABLE:
        (m, n, r, s, q, k, kq, i1, rp1, r1, i2, rp2, r2,
         e, f, g, case_code, ej_old, ej_new) = row
        p = EmbeddingParams(m, n, r, s, 1)
        rep = check_conditions(p)
        assert rep.all_hold(), (row, rep.failing())
        assert (rep.q, rep.k, rep.k - rep.q) == (q, k, kq), row
        (_, iota1, rho1, rhop1), (new_colors, iota2, rho2, rhop2) = fraction_bounds(p)
        assert (iota1, floor(rhop1), floor(rho1)) == (i1, rp1, r1), row
        if i2 is None:
            assert not new_colors, row
        else:
            assert (iota2, floor(rhop2), floor(rho2)) == (i2, rp2, r2), row
        te, tf, tg, _ = totals(p)
        assert (te, tf, tg) == (e, f, g), row

        tiers = tier_bounds(p)
        case, subcase, old, new = _e_intervals(tiers, te)
        code = f"{case.code}({subcase})" if subcase in ("i", "ii", "iii") \
            else case.code
        assert code == case_code, (row, code)

        old_runs, new_runs = spec_runs(ej_old), spec_runs(ej_new)
        old_vals, new_vals = expand(old_runs), expand(new_runs)
        assert len(old_vals) == q and len(new_vals) == k - q, row
        e_list = old_vals + new_vals
        assert sum(e_list) == e, row
        # each tier's e-values inside that tier's interval (new is None when k = q)
        for vals, tier in ((old_vals, old), (new_vals, new)):
            assert all(tier[0] <= v <= tier[1] for v in vals), row
        f_runs = plan_f(tiers, old_runs + new_runs, tf)  # raises if the follow-up system fails
        assert sum(expand(f_runs)) == f, row
        assert verify_plan(p, extend_plan(p, tiers, old_runs + new_runs, f_runs)), row
    _report("3 sporadic-table", time.perf_counter() - t0, 5.0,
            f"{len(SPORADIC_TABLE)} rows")


def test_sporadic_table_script_output():
    # the script keeps its own registry and spec parser; its table is pinned bytewise
    root = FIXTURES.parent
    run = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_sporadic_table.py")],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert run.returncode == 0, run.stderr
    assert sha256(run.stdout).hexdigest() == (
        "8b163ef175fd879942767473819d880e3630d10149ecf93f781fbf5911e314a4")


def test_criterion_4_lemma_property_suites():
    t0 = time.perf_counter()
    bad: dict[str, list] = {key: [] for key in (
        "identities", "A7", "N8-redundant", "L5.4", "facts",
        "L6.1", "L6.3", "L6.4", "L6.6", "rounding")}

    for m in range(1, 100):
        for n in range(m + 1, 101):
            if not (identity_a(m, n) and identity_b(m, n) and identity_c(m, n)):
                bad["identities"].append((m, n))

    # ratio-equality redundancy needs no admissibility at all
    for m in range(4, 60):
        bm = comb(m - 1, 3)
        for n in range(m + 1, 61):
            bn = comb(n - 1, 3)
            for r in range(1, 21):
                for s in range(r + 1, 21):
                    if s * bm != r * bn:
                        continue
                    fn = comb(m, 2) * comb(n - m, 2)
                    gn = m * comb(n - m, 3)
                    residue = (m * (s - r)) % 3
                    if residue == 1 and not bn <= s * (fn + gn):
                        bad["N8-redundant"].append((m, n, r, s))
                    if residue == 2 and not 2 * bn <= s * (2 * fn + gn):
                        bad["N8-redundant"].append((m, n, r, s))

    count = passing = 0
    for p in sweep_params(n_hi=60, r_hi=20, s_hi=20, lam_hi=3):
        count += 1
        m, n, r, s = p.m, p.n, p.r, p.s
        bm, bn = comb(m - 1, 3), comb(n - 1, 3)
        tup = (m, n, r, s, p.lam)

        # N5 implies N4, in the k >= q regime the dichotomy argument lives in
        if r * bn >= s * bm:
            n5 = not (r < s and s * bm < r * bn) or 3 * n >= 4 * m
            n4 = 3 * n * s >= m * (4 * s - r)
            if n5 and not n4:
                bad["A7"].append(tup)
        if s * bm == r * bn:
            if 3 * n >= 4 * m and 2 * s < 3 * r:
                bad["L5.4"].append(tup)
            if (m * (s - r)) % 3 != 0 and n < m + 2:
                bad["facts"].append(tup)
            if n == m + 2 and s < r + 2:
                bad["facts"].append(tup)

        rep = check_conditions(p)
        if not rep.all_hold() or rep.theorem_case is TheoremCase.OUT_OF_SCOPE:
            continue
        passing += 1
        q, k = rep.q, rep.k
        e, f, g, h = totals(p)
        (_, iota1, rho1, rhop1), (_, iota2, rho2, rhop2) = fraction_bounds(p)

        # an empty new tier (k = q) adds 0 to each sum
        lo = q * iota1 + (k - q) * iota2
        hi = q * floor(rho1) + (k - q) * floor(rho2)
        if not lo <= e <= hi:
            bad["L6.1"].append(tup)

        if k > q:
            if iota2 >= 0 and rhop1 >= 0 and \
                    e > q * floor(rhop1) + (k - q) * floor(rhop2):
                bad["L6.3"].append(tup)
            if iota2 > 0 and rhop1 < 0 and e > (k - q) * floor(rhop2):
                bad["L6.3"].append(tup)
            if iota2 <= 0 and rhop2 >= 0 and f < k:
                bad["L6.6"].append(tup)

        # colored-e lower bounds in closed form (sums of iota_ij)
        smq = s * m - s * n // 4
        if f < k * smq - 3 * q * (r * m // 4) - 2 * e:
            bad["L6.4"].append(tup)
        if f < (k - q) * smq - 2 * e:
            bad["L6.4"].append(tup)

        case = sign_case(tier_bounds(p))
        if case is AmalgamCase.THRESHOLD_SPLIT:
            if not (ceil(rhop1) <= rho1 and ceil(rhop2) <= rho2):
                bad["rounding"].append(tup)
        if case is AmalgamCase.OLD_PINNED_THRESHOLD:
            if not ceil(rhop2) <= rho2:
                bad["rounding"].append(tup)

    failures = {key: val for key, val in bad.items() if val}
    assert not failures, failures
    _report("4 lemma-suites", time.perf_counter() - t0, 300.0,
            f"{count} tuples, {passing} fully admissible")


def test_criterion_5_interval_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20260811)
    feasible_seen = infeasible_seen = 0
    for _ in range(1000):
        n_entries = rng.randint(1, 6)
        entries = []
        for _ in range(n_entries):
            a = rng.randint(-10, 10)
            den = rng.choice((1, 2, 3))
            b_num = rng.randint(max(a, 0) * den, 10 * den)
            entries.append((a, floor(Fraction(b_num, den))))
        system = IntervalSystem(rng.randint(0, 30), runs(entries))

        sums = {0}
        for a, b in entries:
            sums = {t + x for t in sums for x in range(max(a, 0), b + 1)
                    if t + x <= system.target}
            if not sums:
                break
        oracle = system.target in sums

        assert feasible(system) == oracle
        xs = system.solve()
        assert (xs is not None) == oracle
        if xs is not None:
            feasible_seen += 1
            assert satisfied_by(system, xs)
        else:
            infeasible_seen += 1
    assert feasible_seen and infeasible_seen
    _report("5 interval-oracle", time.perf_counter() - t0, 10.0,
            f"{feasible_seen} feasible / {infeasible_seen} infeasible")


def test_criterion_6_planner_completeness_desk_scale():
    # every tuple passing N1-N8 plans, in scope or not: within this box the
    # conditions are sufficient for a plan
    t0 = time.perf_counter()
    eligible = out_of_scope = 0
    failures = []
    rendered = sha256()  # every plan's text, in sweep order
    for p in sweep_params(n_hi=30, r_hi=12, s_hi=12, lam_hi=2):
        rep = check_conditions(p)
        if not rep.all_hold():
            continue
        eligible += 1
        out_of_scope += rep.theorem_case is TheoremCase.OUT_OF_SCOPE
        try:
            plan = build_plan(p, rep)
            if not verify_plan(p, plan):
                failures.append((p, "verify_plan false"))
            rendered.update(render_plan(plan).encode())
        except Exception as exc:  # noqa: BLE001 - collecting, not masking
            failures.append((p, repr(exc)))
    assert not failures, failures[:10]
    assert (eligible, out_of_scope) == (1783, 30)
    # the planner's output, byte for byte
    assert rendered.hexdigest() == \
        "8e49066f2d857a667cad92b39e2552554510a458a3ab0e0028ffd9e572a23643"
    _report("6 planner-completeness", time.perf_counter() - t0, 600.0,
            f"{eligible} tuples planned, {out_of_scope} out of scope")


def test_criterion_7_end_to_end_embeddings(tmp_path):
    # (12, 16, 1, 2, 2) plans by the exact e-solve (via fallback)
    for tup in ((6, 8, 2, 5, 1), (8, 9, 5, 8, 1), (5, 8, 4, 5, 1), (12, 16, 1, 2, 2)):
        t0 = time.perf_counter()
        cert_path = tmp_path / ("cert_%d_%d_%d_%d_%d.txt" % tup)
        args = [str(x) for x in tup]
        assert main(["embed", *args, "--out", str(cert_path)]) == 0
        assert main(["verify", str(cert_path)]) == 0
        outer = read_factorization(cert_path)
        assert is_valid_factorization(outer)
        _report(f"7 end-to-end {tup}", time.perf_counter() - t0, 600.0)


def test_equal_regularity_matches_the_literature(tmp_path, capsys):
    """lam <= 4 and r = s: a plan exists exactly when n >= 2m.

    At r = s the battery collapses.  N5 (active only for r < s) and N8
    (active only when r*C(n-1,3) = s*C(m-1,3)) are vacuous; N2 and N4
    (3sn >= m(4s - r), that is n >= m) hold; N3 reads n >= 2m; N6 holds
    once n >= 2m, since its right side (2m - n)*gap is then <= 0.  N7 is
    not reduced here: the scan shows it holds throughout n >= 2m.

    As recalled, and not checked against the text (the repository holds
    only the source paper's abstract): Bahmanian and Newman, Combinatorica
    38 (2018) 1309-1335, prove that for lam = 1, under a gcd hypothesis on
    m, n and 4, an r-factorization of K_m^4 extends to an r-factorization of
    K_n^4 exactly when both triples are admissible and n >= 2m.  The scan
    below covers every admissible tuple with lam <= 4, m <= 40, n <= 120
    and r = s <= 12, inside that hypothesis or not, and four tuples at
    n >= 2m are embedded end to end, (7, 18, 4, 4, 1) outside it.  A
    disagreement is a finding, not noise.
    """
    tuples, disagree = Counter(), 0
    for p in sweep_params(n_hi=120, r_hi=12, s_hi=12, lam_hi=4):
        if p.m > 40 or p.r != p.s:
            continue
        tuples[p.lam] += 1
        holds = check_conditions(p).all_hold()
        found = solve_e(tier_bounds(p), *totals(p)[:2]) is not None
        if holds != (p.n >= 2 * p.m) or found != (p.n >= 2 * p.m):
            disagree += 1
    assert ([tuples[lam] for lam in (1, 2, 3, 4)], disagree) == ([2458, 5256, 4091, 7725], 0)
    # (m, r, n >= 2m, the largest admissible n below 2m)
    for m, r, n, below in ((5, 4, 10, 9), (8, 1, 16, 12), (9, 4, 18, 17), (7, 4, 18, 13)):
        cert_path = tmp_path / f"cert_{m}_{n}_{r}.txt"
        assert main(["embed", *map(str, (m, n, r, r, 1)), "--out", str(cert_path)]) == 0
        assert main(["verify", str(cert_path)]) == 0
        assert main(["embed", *map(str, (m, below, r, r, 1))]) == 1
        assert capsys.readouterr().err.startswith("necessary conditions fail: N3")


def test_criterion_8_negative_controls():
    t0 = time.perf_counter()
    p = EmbeddingParams(6, 8, 2, 5, 1)
    plan = build_plan(p)
    assert verify_plan(p, plan)
    # every entry of every column, one at a time, up and down
    cols = (plan.e, plan.f, plan.g, plan.h)
    perturbed = 0
    for i in range(4):
        for j in range(len(cols[i])):
            for delta in (1, -1):
                entries = [list(col) for col in cols]
                entries[i][j] += delta
                tampered = replace(plan, rows=tuple(runs(zip(*entries))))
                assert not verify_plan(p, tampered), ("efgh"[i], j, delta)
                perturbed += 1
    assert perturbed == 56

    inner = read_factorization(FIXTURES / "intro_6.txt")
    outer = read_factorization(FIXTURES / "intro_8.txt")
    assert verify_certificate(EmbeddingCertificate(inner=inner, outer=outer))
    k = len(outer.classes)
    swaps = 0
    for a in range(k):
        for b in range(a + 1, k):
            for i in range(len(outer.classes[a])):
                for j in range(len(outer.classes[b])):
                    classes = [list(cls) for cls in outer.classes]
                    classes[a][i], classes[b][j] = classes[b][j], classes[a][i]
                    tampered = Factorization(8, 1, 5, classes)
                    cert = EmbeddingCertificate(inner=inner, outer=tampered)
                    assert not verify_certificate(cert), (a, b, i, j)
                    swaps += 1
    assert swaps == 21 * 100
    _report("8 negative-controls", time.perf_counter() - t0, 30.0,
            f"{perturbed} plan perturbations, {swaps} block swaps")
