import dataclasses
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gainspec import (
    bounds, cli, corpus, gains, parse_gain_graph, serialize_gain_graph, spectra,
)
from gainspec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_tight_square(capsys, tmp_path):
    path = tmp_path / "k22.ugg"
    assert main(["generate", "knn", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["m"] == 4
    assert doc["energy"] == pytest.approx(4.0, abs=1e-9)
    assert doc["mu"] == 2
    assert doc["numerically_tight"] and doc["structurally_extremal"]
    assert doc["consistent"] and doc["balanced"]
    assert len(doc["switching_witness_angles"]) == 4


def test_analyze_chorded_hexagon_reports_gap(capsys, tmp_path):
    path = tmp_path / "c6t.ugg"
    main(["generate", "c6tilde", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["gap"] > 1.0
    assert not doc["numerically_tight"] and not doc["structurally_extremal"]
    assert doc["consistent"]


def test_analyze_text_format(capsys, tmp_path):
    path = tmp_path / "p.ugg"
    main(["generate", "path", "4", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "text")
    assert code == 0
    assert "energy: 4.472135955" in out
    assert "consistent: True" in out


def test_analyze_unbalanced_reports_cycle(capsys, tmp_path):
    path = tmp_path / "c4rot.ugg"
    path.write_text("ugg 4\n0 1 1.0471975511965976\n1 2 0\n2 3 0\n0 3 0\n")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    assert not doc["balanced"]
    assert sorted(doc["violating_cycle"]) == [0, 1, 2, 3]
    re, im = doc["violating_cycle_gain"]
    assert math.hypot(re, im) == pytest.approx(1.0)
    assert doc["switching_witness_angles"] is None


def test_analyze_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.ugg"
    path.write_text("ugg 3\n1 1 0.5\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err and out == ""


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.ugg"))
    assert code == 2 and "nope.ugg" in err


def test_analyze_non_unit_angle_is_fine(capsys, tmp_path):
    path = tmp_path / "wrap.ugg"
    path.write_text("ugg 2\n0 1 97.5\n")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["energy"] == pytest.approx(2.0, abs=1e-9)


def test_lemmas_default_sized_down(capsys):
    code, out, err = run_cli(
        capsys, "lemmas", "--seed", "7", "--trials", "30", "--nmax", "6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["total_violations"] == 0
    assert {entry["lemma"] for entry in doc["lemmas"]} == {
        "edge_cut_monotonicity",
        "pendant_strictness",
        "chorded_hexagon_energy",
        "perfect_matching_necessity",
        "nonbipartite_strictness",
        "tight_subgraph_propagation",
        "balance_regularity_necessity",
    }
    assert all(entry["instances"] > 0 for entry in doc["lemmas"])
    assert err == ""


def test_lemmas_zero_trials_warns(capsys):
    code, out, err = run_cli(capsys, "lemmas", "--trials", "0")
    assert code == 0
    doc = json.loads(out)
    assert all(entry["instances"] == 0 for entry in doc["lemmas"])
    assert err.count("zero instances") == len(doc["lemmas"])


def test_lemmas_rejects_negative_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "--trials", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--trials" in captured.err


@pytest.mark.parametrize("nmax", ["-3", "0", "1"])
def test_lemmas_rejects_nmax_below_two(capsys, nmax):
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "--nmax", nmax])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--nmax" in captured.err


def test_lemma_corpus_order_needs_no_list_of_orders():
    # an order list up to nmax would be petabytes here
    orders = [phi.graph.n for phi in corpus.random_gain_corpus(0, 3, 10**15)]
    assert orders == [2, 3, 4]
    orders = [phi.graph.n for phi in corpus.random_gain_corpus(0, 7, 4)]
    assert orders == [2, 3, 4, 2, 3, 4, 2]


def test_lemmas_accepts_a_huge_nmax(capsys):
    code, out, _ = run_cli(
        capsys, "lemmas", "--trials", "1", "--nmax", "1000000000000000"
    )
    assert code == 0 and json.loads(out)["ok"]


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "lemma_suite_report", exhausted)
    code, out, err = run_cli(capsys, "lemmas", "--trials", "1")
    assert code == 2 and out == ""
    assert err == "gainspec: out of memory\n"


def test_generate_knn_content(capsys):
    code, out, _ = run_cli(capsys, "generate", "knn", "3")
    assert code == 0
    phi = parse_gain_graph(out)
    assert phi.graph.n == 6 and phi.graph.m == 9
    assert all(z == 1.0 for z in phi.forward.values())


def test_generate_deterministic(capsys):
    _, first, _ = run_cli(capsys, "generate", "gnp", "8", "0.5", "--seed", "1")
    _, second, _ = run_cli(capsys, "generate", "gnp", "8", "0.5", "--seed", "1")
    assert first == second
    _, third, _ = run_cli(capsys, "generate", "gnp", "8", "0.5", "--seed", "2")
    assert first != third


# sha256 of what ``generate`` wrote when it built, switched and formatted one
# edge at a time in Python; the array build, the array switch and the
# chunked writer keep every byte
GENERATED_SHA256 = {
    "extremal-union 300,200 --switched --isolated 5 --seed 1": "a52ad3fa01b5f75a48d707e0f984141a3ec57529d4e5c0cee4c4059d3265c6d9",
    "extremal-union 3,2 --switched --isolated 5 --seed 1": "db3c2f988fc60087478962e72b492d59294b5950b971c30fbd4d83c659927898",
    "extremal-union 20,12,1 --switched --isolated 3 --seed 7": "ed9372cfd9e1deea2118302409c2c39135e62346fd6daceca5bc3a529c9ecd94",
    "knn 0": "cde6ea3100aa32ad28633989446de02fe2eeb8e0c28d081c7e889ad5272ba5e6",
    "knn 40": "2823582a905a24446032d6a9911d338221d57207f012953be01ce0e2159521c0",
    "complete 0": "a41b033be7f3cb6b003df4e9a5fe2094ede68083db64bb30039611ac692d4e9b",
    "complete 5": "d19f911cac300e724b4fded35194a7444c14c333478d1a50c02f8f2c34c081e5",
    "complete 40": "7a3120f745ef2b2261115392a2e5ba05663a9cdb781d41f59eff4423fea1d0eb",
    "cycle 3": "a6407baffb5bb3f5d4453fb91a3ec88b202d76043529e95f1421337c3961d388",
    "cycle 50": "b329873a808636132f3bdfad68c4a205da6b807814e35f6f0b22bad9771374f3",
    "path 0": "6a2185c7f59bd100c3243bb1c9fca3cc9c0c1d6fd657299519644e7dc026fc7a",
    "path 1": "df87343dfcafb525ed57962e2918e353fd4a29a89b23a79dbdf1fd74385cc11b",
    "path 50": "f4b96533760f41cbf46201d68cfbad48ca512171327bb7a724d702de026282a0",
    "star 0": "a0e99cc85a55e182d3bba85455ddaff0b9aa0a1a74d5508a269ba0b32bcab0ba",
    "star 40": "78ddf0d0197778b81cba36ecf0cb1d8509eddb88508f5ccdac448e624e873452",
    "complete_bipartite 3 0": "a078292206da2e2f3a44971616bca7fe76da55388fd470925c678811ca13b635",
    "complete_bipartite 7 40": "534f3e1200765d8bd7951a3f57b4f811c8adf3c21537bac3110d91b74790aba6",
    "c6tilde": "72b890a5ad6b55da68fc583f7bb9ee71bff7bd9f7d1f4154ea7a842237c1d835",
    "gnp 60 0.1 --seed 3": "ba276b9ef4f610b5944069be63d97f05ac370571b7914fdba60f007a4e58c21e",
}


@pytest.mark.parametrize("argv", GENERATED_SHA256)
def test_generate_writes_the_recorded_bytes(capsys, tmp_path, argv):
    path = tmp_path / "generated.ugg"
    code, _, _ = run_cli(capsys, "generate", *argv.split(), "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "generate", *argv.split())
    assert code == 0 and out.encode() == path.read_bytes()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GENERATED_SHA256[argv]


@pytest.mark.parametrize("argv", [
    ["extremal-union", "40,30", "--switched"], ["complete", "60"], ["knn", "40"],
    ["cycle", "50"], ["path", "50"],
])
def test_generate_builds_no_graph_from_pairs_and_no_view(capsys, monkeypatch, argv):
    from gainspec import GainGraph, Graph

    def refuse(*args, **kwargs):
        raise AssertionError("generate built a graph from pairs, or an edge or gain view")

    monkeypatch.setattr(Graph, "__new__", refuse)
    monkeypatch.setattr(Graph, "edges", property(refuse))
    monkeypatch.setattr(GainGraph, "forward", property(refuse))
    code, out, err = run_cli(capsys, "generate", *argv)
    assert code == 0 and out.startswith("# gainspec generate") and err == ""


def test_generate_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GAINSPEC_SEED", "11")
    _, via_env, _ = run_cli(capsys, "generate", "gnp", "6", "0.5")
    monkeypatch.delenv("GAINSPEC_SEED")
    _, via_flag, _ = run_cli(capsys, "generate", "gnp", "6", "0.5", "--seed", "11")
    assert via_env == via_flag


@pytest.mark.parametrize("argv", [["generate", "knn", "2"], ["lemmas"]])
def test_bad_seed_env_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("GAINSPEC_SEED", "x")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "gainspec: bad GAINSPEC_SEED value 'x'\n"


def test_generate_extremal_union_analyzes_tight(capsys, tmp_path):
    path = tmp_path / "eu.ugg"
    code, _, _ = run_cli(
        capsys,
        "generate", "extremal-union", "2,2", "--switched", "--seed", "7",
        "--isolated", "2", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 10
    assert doc["numerically_tight"] and doc["structurally_extremal"]
    assert abs(doc["gap"]) <= 1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "knn", "3"],
        ["generate", "cycle", "5"],
        ["generate", "path", "6"],
        ["generate", "c6tilde"],
        ["generate", "gnp", "7", "0.5", "--seed", "3"],
        ["generate", "extremal-union", "2,1", "--switched", "--seed", "5"],
    ],
)
def test_every_generated_fixture_round_trips(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    phi = parse_gain_graph(out)
    again = parse_gain_graph(serialize_gain_graph(phi))
    assert again.graph == phi.graph
    assert all(
        abs(again.forward[e] - phi.forward[e]) <= 1e-12 for e in phi.graph.edges
    )


def test_generate_bad_inputs(capsys):
    code, _, err = run_cli(capsys, "generate", "dodecahedron")
    assert code == 2 and "unknown kind" in err
    code, _, err = run_cli(capsys, "generate", "knn")
    assert code == 2 and "parameter" in err
    code, _, err = run_cli(capsys, "generate", "extremal-union", "2,0")
    assert code == 2

    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extremal-union", "2,x"], "bad block list '2,x', expected like 2,2,1"),
        (["gnp", "5"], "gnp takes 2 parameter(s), got 1"),
        (["extremal-union"], "extremal-union takes 1 parameter(s), got 0"),
    ],
)
def test_generate_parameter_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, "generate", *argv)
    assert code == 2 and out == ""
    assert err == f"gainspec: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["knn", "2", "--isolated", "3", "--switched"],
        ["gnp", "5", "0.5", "--switched"],
        ["c6tilde", "--isolated", "1"],
    ],
)
def test_generate_rejects_extremal_union_flags_elsewhere(capsys, argv):
    code, out, err = run_cli(capsys, "generate", *argv)
    assert code == 2 and out == "" and "extremal-union only" in err


def test_double_triangle(capsys, tmp_path):
    src = tmp_path / "c3.ugg"
    out_path = tmp_path / "c3x2.ugg"
    main(["generate", "cycle", "3", "--out", str(src)])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "double", str(src), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["energy"] == pytest.approx(4.0, abs=1e-9)
    assert doc["double_energy"] == pytest.approx(8.0, abs=1e-9)
    assert doc["ok"]
    doubled = parse_gain_graph(out_path.read_text())
    assert doubled.graph.n == 6 and doubled.graph.m == 6


@pytest.mark.parametrize("target", ["missing/x.ugg", "."])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, target):
    out_path = tmp_path / target
    code, out, err = run_cli(capsys, "generate", "knn", "2", "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("gainspec: [Errno ") and str(out_path) in err
    src = tmp_path / "k2.ugg"
    src.write_text("ugg 2\n0 1 1.25\n")
    code, out, err = run_cli(capsys, "double", str(src), "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("gainspec: [Errno ") and str(out_path) in err


def test_double_single_edge(capsys, tmp_path):
    src = tmp_path / "k2.ugg"
    src.write_text("ugg 2\n0 1 1.25\n")
    code, out, err = run_cli(capsys, "double", str(src))
    assert code == 0
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["double_energy"] == pytest.approx(4.0, abs=1e-9)
    doubled = parse_gain_graph(out)
    assert doubled.graph.m == 2


def test_double_empty_graph(capsys, tmp_path):
    src = tmp_path / "empty.ugg"
    src.write_text("ugg 3\n")
    code, out, err = run_cli(capsys, "double", str(src))
    assert code == 0
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["double_energy"] == 0.0


def test_double_size_limit(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(spectra, "DENSE_MAX_ORDER", 64)
    src = tmp_path / "c33.ugg"
    main(["generate", "cycle", "33", "--out", str(src)])
    capsys.readouterr()
    code, _, err = run_cli(capsys, "double", str(src))
    assert code == 2 and "limit" in err


def test_double_checks_inputs_above_order_32(capsys, tmp_path):
    src = tmp_path / "c33.ugg"
    main(["generate", "cycle", "33", "--out", str(src)])
    capsys.readouterr()
    code, out, err = run_cli(capsys, "double", str(src))
    assert code == 0
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["double_n"] == 66 and doc["ok"]
    assert parse_gain_graph(out).graph.n == 66


def test_double_refuses_inputs_above_half_the_dense_limit(capsys, tmp_path):
    limit = spectra.DENSE_MAX_ORDER
    n = limit // 2 + 1
    src = tmp_path / "big.ugg"
    src.write_text(f"ugg {n}\n0 1 0\n")
    code, out, err = run_cli(capsys, "double", str(src))
    assert code == 2 and out == ""
    assert err == f"gainspec: order {2 * n} exceeds the dense limit {limit}\n"


def test_double_text_report_without_out_is_one_stderr_line(capsys, tmp_path):
    src = tmp_path / "c5.ugg"
    main(["generate", "cycle", "5", "--out", str(src)])
    capsys.readouterr()
    code, out, err = run_cli(capsys, "double", str(src), "--format", "text")
    assert code == 0
    assert parse_gain_graph(out).graph.n == 10
    assert err.startswith("{n: 5, m: 5, energy: ") and err.endswith(", ok: True}\n")
    assert err.count("\n") == 1


def test_analysis_report_solves_and_checks_balance_once(monkeypatch):
    phi = corpus.extremal_union([2, 1], isolated=1, switch_seed=3)
    calls = {"eigh": 0, "is_balanced": 0}
    real_eigh, real_is_balanced = np.linalg.eigh, gains.is_balanced

    def counting_eigh(a, *args, **kwargs):
        calls["eigh"] += 1
        return real_eigh(a, *args, **kwargs)

    def counting_is_balanced(psi):
        calls["is_balanced"] += 1
        return real_is_balanced(psi)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    # bounds binds the name itself, so patch it in both modules
    monkeypatch.setattr(gains, "is_balanced", counting_is_balanced)
    monkeypatch.setattr(bounds, "is_balanced", counting_is_balanced)
    doc = cli.analysis_report(phi)
    assert calls == {"eigh": 1, "is_balanced": 1}
    assert doc["balanced"] and doc["structurally_extremal"] and doc["consistent"]
    assert doc["energy"] == pytest.approx(sum(abs(v) for v in doc["eigenvalues"]))


def test_double_solves_its_input_once(capsys, monkeypatch, tmp_path):
    src = tmp_path / "c3.ugg"
    main(["generate", "cycle", "3", "--out", str(src)])
    capsys.readouterr()
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape[-1])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    code, _, err = run_cli(capsys, "double", str(src))
    assert code == 0
    # the triangle, the K2 factor and the double, once each
    assert sorted(calls) == [2, 3, 6]
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["energy"] == pytest.approx(4.0, abs=1e-9) and doc["double_n"] == 6


def test_analyze_refuses_order_above_dense_limit(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(spectra, "DENSE_MAX_ORDER", 8)
    src = tmp_path / "big.ugg"
    src.write_text("ugg 9\n0 1 0\n")
    code, out, err = run_cli(capsys, "analyze", str(src))
    assert code == 2 and out == "" and "limit" in err


@pytest.mark.parametrize("command", ["analyze", "double"])
def test_invalid_utf8_is_a_parse_error(capsys, tmp_path, command):
    path = tmp_path / "latin1.ugg"
    path.write_bytes(b"# caf\xc3\xa9\nugg 3\n0 1 0.5\n1 2 0.\xff25\n")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err == f"gainspec: {path}: line 4: invalid UTF-8 byte 0xff\n"


def test_analyze_exits_1_with_a_complete_report_on_a_failed_check(
    capsys, monkeypatch, tmp_path
):
    path = tmp_path / "k22.ugg"
    main(["generate", "knn", "2", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "analyze", str(path))
    passed = json.loads(out)
    assert code == 0 and passed["consistent"]

    real_report = bounds.bound_report
    monkeypatch.setattr(
        bounds, "bound_report",
        lambda phi: dataclasses.replace(real_report(phi), consistent=False),
    )
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1 and err == ""
    assert json.loads(out) == {**passed, "consistent": False}


def test_double_exits_1_with_a_complete_report_on_a_failed_check(
    capsys, monkeypatch, tmp_path
):
    src, dst = tmp_path / "c3.ugg", tmp_path / "c3x2.ugg"
    main(["generate", "cycle", "3", "--out", str(src)])
    capsys.readouterr()
    real_check = spectra.kronecker_spectrum_check
    monkeypatch.setattr(
        spectra, "kronecker_spectrum_check",
        lambda phi, h: dataclasses.replace(real_check(phi, h), spectrum_ok=False),
    )
    code, out, err = run_cli(capsys, "double", str(src), "--out", str(dst))
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert set(doc) == {
        "n", "m", "energy", "double_n", "double_energy",
        "expected_double_energy", "spectrum_deviation", "ok",
    }
    assert doc["ok"] is False and doc["n"] == 3 and doc["double_n"] == 6
    assert parse_gain_graph(dst.read_text()).graph.n == 6


def test_lemmas_exits_1_with_a_complete_report_on_a_violation(capsys, monkeypatch):
    real_suite = bounds.run_lemma_suite

    def one_violation(**kwargs):
        reports = real_suite(**kwargs)
        reports[0].violate("forced")
        return reports

    monkeypatch.setattr(bounds, "run_lemma_suite", one_violation)
    code, out, err = run_cli(capsys, "lemmas", "--seed", "1", "--trials", "20")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["ok"] is False and doc["total_violations"] == 1
    assert [e["lemma"] for e in doc["lemmas"]] == list(bounds.LEMMA_ORDER)
    assert doc["lemmas"][0]["violations"] == ["forced"]
    assert all(e["instances"] > 0 for e in doc["lemmas"])


# numpy is the only runtime dependency; these stay test-only.
TEST_ONLY_MODULES = ("numpy.ma", "scipy", "networkx", "mpmath", "sympy", "hypothesis")

_COMMANDS_IN_ONE_PROCESS = """
import contextlib, io, sys
from gainspec.cli import main
canonical, loose, out, *test_only = sys.argv[1:]
runs = [
    ["generate", "extremal-union", "2,1", "--switched", "--out", canonical],
    ["analyze", canonical],
    ["analyze", loose],
    ["double", canonical, "--out", out],
    ["lemmas", "--seed", "1", "--trials", "20"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(*sorted(m for m in sys.modules
              if any(m == t or m.startswith(t + ".") for t in test_only)))
"""


def test_commands_import_no_test_only_module(tmp_path):
    loose = tmp_path / "loose.ugg"
    loose.write_text("ugg 4\n2 3 0.5\n0  1 1.25\n1 2 -3\n")  # off the bulk parse
    canonical, out = tmp_path / "canonical.ugg", tmp_path / "double.ugg"
    proc = subprocess.run(
        [sys.executable, "-c", _COMMANDS_IN_ONE_PROCESS,
         str(canonical), str(loose), str(out), *TEST_ONLY_MODULES],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("text", ["ugg 3\n\n", "ugg 3\n\n\n"])
def test_analyze_of_a_blank_body_writes_no_warning(tmp_path, text):
    # an edgeless graph; in its own process, so the default warning filters apply
    path = tmp_path / "blank.ugg"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "gainspec", "analyze", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert (report["n"], report["m"]) == (3, 0)


def test_analyze_of_a_975_block_union_is_consistent(capsys, tmp_path):
    # n = 3905: 975 K_{t,t} blocks with t = 1, 2, 3, switched, 5 isolated vertices
    path = tmp_path / "blocks.ugg"
    parts = ",".join(["1,2,3"] * 325)
    assert main(["generate", "extremal-union", parts, "--switched", "--isolated", "5",
                 "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["mu"]) == (3905, 1950)
    assert doc["consistent"] is True
    assert doc["numerically_tight"] and doc["structurally_extremal"]
