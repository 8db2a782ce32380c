import csv
import io
import json
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from hashlib import sha256
from math import comb

import pytest
from hypothesis import given, strategies as st

from quadembed import cli, planner
from quadembed.bounds import sign_case, tier_bounds
from quadembed.cli import main
from quadembed.errors import PlanInfeasible
from quadembed.factorization import read_factorization, verify_certificate, EmbeddingCertificate
from quadembed.planner import build_plan, render_plan
from quadembed.params import EmbeddingParams

from conftest import FIXTURES


def test_check_pass_and_fail(capsys):
    assert main(["check", "6", "8", "2", "5", "1"]) == 0
    assert "all conditions hold" in capsys.readouterr().out
    assert main(["check", "7", "10", "4", "6", "1"]) == 1
    out = capsys.readouterr().out
    assert "N6" in out and "FAIL" in out


def test_check_rejected_input(capsys):
    assert main(["check", "4", "5", "1", "1", "1"]) == 3
    assert "input error" in capsys.readouterr().err


def test_check_json(capsys):
    assert main(["check", "10", "16", "6", "7", "1", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["failing"] == ["N7"]


def test_bounds_output(capsys):
    assert main(["bounds", "6", "8", "2", "5", "1"]) == 0
    out = capsys.readouterr().out
    assert "iota1=4" in out and "case=5.2" in out
    assert main(["bounds", "8", "9", "5", "8", "1"]) == 0  # out of scope
    assert "case=5.2" in capsys.readouterr().out
    assert main(["bounds", "8", "9", "1", "4", "1"]) == 3  # k < q
    assert "k - q = -21 is negative" in capsys.readouterr().err


def test_bounds_output_pinned(monkeypatch):
    # exit code, stdout and stderr of every `bounds` call on a small grid, in
    # both formats: the exit-0 rows, and the exit-3 rows of each input check
    monkeypatch.setattr(cli, "build_parser", cache(cli.build_parser))
    digest, codes = sha256(), {}
    for m in range(4, 11):
        for n in range(m + 1, 15):
            for r in range(1, 7):
                for s in range(1, 7):
                    for lam in (1, 2):
                        for fmt in ("text", "json"):
                            argv = ["bounds", *map(str, (m, n, r, s, lam)), "--format", fmt]
                            out, err = io.StringIO(), io.StringIO()
                            with redirect_stdout(out), redirect_stderr(err):
                                code = main(argv)
                            codes[code] = codes.get(code, 0) + 1
                            digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}"
                                          f"\0{err.getvalue()}\0".encode())
    assert codes == {0: 290, 3: 6766}
    assert digest.hexdigest() == (
        "7a0c5c92570f0858b529995d7b600afe245a02f1028d164f8026a18a89cf0cd8")


def test_plan_to_file(tmp_path):
    out = tmp_path / "plan.txt"
    assert main(["plan", "6", "8", "2", "5", "1", "--out", str(out)]) == 0
    assert out.read_text() == render_plan(build_plan(EmbeddingParams(6, 8, 2, 5, 1)))


def test_plan_exit_codes(capsys):
    for cmd in ("plan", "embed"):
        assert main([cmd, "7", "10", "4", "6", "1"]) == 1  # N6 fails
        assert capsys.readouterr().err == "necessary conditions fail: N6\n"
    assert main(["plan", "8", "9", "5", "8", "1"]) == 0   # out of scope
    assert capsys.readouterr().out == render_plan(build_plan(EmbeddingParams(8, 9, 5, 8, 1)))


def test_embed_then_verify(tmp_path, capsys):
    # 8 9 5 8 1 is out of scope (s > r with n < 4m/3)
    for tup in ("6 8 2 5 1", "8 9 5 8 1"):
        cert_path = tmp_path / f"{tup}.txt"
        assert main(["embed", *tup.split(), "--out", str(cert_path)]) == 0, tup
        assert main(["verify", str(cert_path)]) == 0, tup
    capsys.readouterr()


def test_embed_with_base_file(tmp_path, capsys):
    cert_path = tmp_path / "cert.txt"
    rc = main(["embed", "6", "8", "2", "5", "1",
               "--base", str(FIXTURES / "intro_6.txt"),
               "--out", str(cert_path)])
    assert rc == 0
    assert main(["verify", str(cert_path),
                 "--base", str(FIXTURES / "intro_6.txt")]) == 0
    outer = read_factorization(cert_path)
    inner = read_factorization(FIXTURES / "intro_6.txt")
    assert verify_certificate(EmbeddingCertificate(inner=inner, outer=outer))
    capsys.readouterr()


def test_embed_has_no_node_budget(capsys):
    # a usage error exits 3, so exit 2 keeps meaning "no plan exists"
    assert main(["embed", "6", "8", "2", "5", "1", "--node-budget", "3"]) == 3
    assert "unrecognized arguments: --node-budget" in capsys.readouterr().err


def test_help_exits_0(capsys):
    # only argparse's usage error, exit 2, is mapped to 3
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_embed_no_plan_exits_2(monkeypatch, capsys):
    def infeasible(*args, **kwargs):
        raise PlanInfeasible("no e-multiset fits")

    monkeypatch.setattr(cli, "build_plan", infeasible)
    assert main(["embed", "6", "8", "2", "5", "1"]) == 2
    assert "no plan exists: no e-multiset fits" in capsys.readouterr().err


def test_embed_seed_changes_certificate(tmp_path, capsys):
    texts = []
    for seed in ("0", "1"):
        out = tmp_path / f"cert_{seed}.txt"
        assert main(["embed", "6", "9", "2", "4", "1", "--seed", seed,
                     "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] != texts[1]
    capsys.readouterr()


def test_verify_fixture(capsys):
    assert main(["verify", str(FIXTURES / "intro_9.txt")]) == 0
    assert main(["verify", str(FIXTURES / "intro_9.txt"),
                 "--base", str(FIXTURES / "intro_8.txt")]) == 0
    capsys.readouterr()


def test_verify_detects_corruption(tmp_path, capsys):
    good = (FIXTURES / "intro_6.txt").read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(good.replace("1 2 3 5", "1 2 3 6", 1))
    assert main(["verify", str(bad)]) == 1
    assert "degree" in capsys.readouterr().err


def test_verify_format_error(tmp_path, capsys):
    f = tmp_path / "broken.txt"
    f.write_text("6 1 2 1\n1: 1 2 3\n")
    assert main(["verify", str(f)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["verify", "no-such-file.txt"]) == 3
    capsys.readouterr()


def test_verify_non_ascii_file(tmp_path, capsys):
    f = tmp_path / "accents.txt"
    f.write_bytes("6 1 2 5\n1: 1 2 3 \u00e9\n".encode("utf-8"))
    assert main(["verify", str(f)]) == 3
    assert capsys.readouterr().err.startswith("input error: ")


def test_verify_directory(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("input error: ")


def test_verify_large_header_without_blocks(tmp_path, capsys):
    # C(255, 4) is about 1.7e8: the cover check must not list the subsets
    f = tmp_path / "empty.txt"
    f.write_text("255 1 1 0\n")
    t0 = time.perf_counter()
    assert main(["verify", str(f)]) == 1
    assert time.perf_counter() - t0 < 5
    assert capsys.readouterr().err == (
        f"not a 1-fold cover of all 4-subsets ({comb(255, 4)} missing,"
        " 0 unexpected)\n")


def test_verify_huge_header_with_small_classes(tmp_path, capsys):
    # a class of the wrong size is reported by its size, without a scan
    # over the 255 vertices the header names, the most a field holds
    f = tmp_path / "small.txt"
    f.write_text("255 1 1 3\n1: 1 2 3 4\n2: 1 2 3 5\n3: 1 2 3 6\n")
    t0 = time.perf_counter()
    assert main(["verify", str(f)]) == 1
    assert time.perf_counter() - t0 < 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("not a 1-fold cover of all 4-subsets")
    assert lines[1:] == [
        f"class {i}: 1 blocks cannot give all 255 vertices degree 1"
        " (needs 4 * blocks = 255)" for i in (1, 2, 3)]


def test_verify_refuses_a_header_past_255(tmp_path, capsys):
    # a block is four 8-bit fields, so a larger ground size is an input
    # error at the header
    f = tmp_path / "wide.txt"
    for ground in (256, 2000000):
        f.write_text(f"{ground} 1 1 3\n1: 1 2 3 4\n2: 1 2 3 5\n3: 1 2 3 6\n")
        assert main(["verify", str(f)]) == 3
        assert capsys.readouterr().err == "input error: line 1: ground_size <= 255 required\n"


def test_embed_refuses_a_ground_size_past_255(tmp_path, capsys):
    # (6, 256, 2, 5, 1) passes N1-N8 and plans at once, k = 546,227 colors:
    # embed refuses it before any detachment state, and plan still prints it
    t0 = time.perf_counter()
    assert main(["embed", "6", "256", "2", "5", "1"]) == 3
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err == "input error: n <= 255 required\n"
    assert main(["plan", "6", "256", "2", "5", "1", "--out", str(tmp_path / "plan.txt")]) == 0


def test_plan_prints_one_line_per_row(capsys):
    # (6, 256, 2, 5, 1) has k = 546,227 colors in 4 rows: the header line
    # and one line "first last tier e f g h" per row
    assert main(["plan", "6", "256", "2", "5", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "6 256 2 5 1 5 546227 5.1 - general",
        "1 5 old 6 0 0 311",
        "6 502 new 10 0 0 310",
        "503 31627 new 0 15 0 305",
        "31628 546227 new 0 0 30 290",
    ]


FILE_BYTES = [bytes([c]) for c in b"0123456789 \t\n\r:,-x"] + [b"\xc3\xa9", b"\xff", b"\x00"]


@st.composite
def mutated(draw, name):
    """A fixture's bytes with a few spans cut or replaced, non-ASCII bytes included."""
    data = (FIXTURES / name).read_bytes()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        insert = b"".join(draw(st.lists(st.sampled_from(FILE_BYTES), max_size=4)))
        data = data[:at] + insert + data[at + draw(st.integers(0, 4)):]
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(mutated("intro_9.txt"), mutated("intro_8.txt"), mutated("intro_6.txt"))
def test_file_input_fuzz_exits_with_a_documented_code(fuzz_dir, outer, inner, base):
    paths = {}
    for name, data in (("outer", outer), ("inner", inner), ("base", base)):
        paths[name] = fuzz_dir / f"{name}.txt"
        paths[name].write_bytes(data)
    runs = (["verify", str(paths["outer"])],
            ["verify", str(paths["outer"]), "--base", str(paths["inner"])],
            ["embed", "6", "8", "2", "5", "1", "--base", str(paths["base"])])
    for argv in runs:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 3), argv


def test_out_under_regular_file_is_input_error(tmp_path, capsys):
    f = tmp_path / "plain.txt"
    f.write_text("")
    assert main(["check", "6", "8", "2", "5", "1",
                 "--out", str(f / "x.txt")]) == 3
    assert capsys.readouterr().err.startswith("input error: ")


def test_sweep_csv(capsys):
    assert main(["sweep", "--m", "6..6", "--n", "8..9", "--r", "2..2",
                 "--s", "4..8", "--lam", "1"]) == 0
    rows = csv.DictReader(io.StringIO(capsys.readouterr().out))
    by_key = {(r["m"], r["n"], r["r"], r["s"]): r for r in rows}
    hit = by_key[("6", "8", "2", "5")]
    assert hit["all_hold"] == "1" and hit["plan_found"] == "1"
    assert float(hit["plan_ms"]) > 0  # microsecond resolution, not whole ms
    assert hit["case"] == "5.2" and hit["theorem_case"] == "strict-ratio"
    miss = by_key[("6", "8", "2", "4")]
    assert miss["N1"] == "0" and miss["all_hold"] == "0"
    table_row = by_key[("6", "9", "2", "4")]
    assert table_row["plan_found"] == "1" and table_row["q"] == "5" \
        and table_row["k"] == "14"
    assert main(["sweep", "--m", "8", "--n", "9", "--r", "5", "--s", "8",
                 "--lam", "1"]) == 0
    (scope_row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert scope_row["theorem_case"] == "out-of-scope"
    assert scope_row["plan_found"] == "1" and scope_row["case"] == "5.2"


def test_sweep_row_derives_one_table_past_the_plan(monkeypatch):
    # build_plan plans from one tier table; the row's case and subcase come
    # from one header, which derives one more, on either planning path
    calls = Counter()

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name, fn in (("tier_bounds", tier_bounds), ("totals", planner.totals),
                     ("_e_intervals", planner._e_intervals), ("sign_case", sign_case)):
        for module in [m for key, m in sys.modules.items() if key.startswith("quadembed")]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, count(name, fn))
    for tup, case, subcase in (((12, 28, 5, 9, 2), "5.5", "i"), ((12, 16, 1, 2, 2), "5.2", "")):
        calls.clear()
        build_plan(EmbeddingParams(*tup))
        planning = calls.copy()
        calls.clear()
        row = cli._sweep_row(tup)
        assert (row["case"], row["subcase"]) == (case, subcase)
        assert calls == planning + Counter(["tier_bounds", "totals", "_e_intervals", "sign_case"])


def test_sweep_row_without_a_plan(monkeypatch):
    # a tuple that passes every condition but gets no plan keeps its
    # planning time and leaves the case and subcase empty
    def infeasible(p, report=None):
        raise PlanInfeasible("no plan")

    monkeypatch.setattr(cli, "build_plan", infeasible)
    row = cli._sweep_row((6, 8, 2, 5, 1))
    assert row["all_hold"] == 1 and row["plan_found"] == 0
    assert row["case"] == row["subcase"] == ""
    assert float(row["plan_ms"]) >= 0


def test_sweep_excluded_status(capsys):
    assert main(["sweep", "--m", "4..4", "--n", "5..5", "--r", "1..1",
                 "--s", "1..1", "--lam", "1"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["status"] == "excluded"


def test_sweep_bad_range(capsys):
    assert main(["sweep", "--m", "xx"]) == 3
    capsys.readouterr()
    assert main(["sweep", "--m", "5..4"]) == 3
    assert capsys.readouterr().err == "input error: empty range for m: 5..4\n"
    # sweep has no worker pool and no row filters
    for extra in (("--jobs", "2"), ("--admissible-only",),
                  ("--theorem-case", "strict-ratio")):
        assert main(["sweep", "--m", "6", "--n", "8", *extra]) == 3
        assert "unrecognized arguments" in capsys.readouterr().err

