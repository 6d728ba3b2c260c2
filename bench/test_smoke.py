"""Toy-size smoke test of the benchmark; it never gates on timings.

    python3 -m pytest bench/test_smoke.py

Runs every workload at toy size (extremal-union 3,2; gnp 40 0.05; lemmas
--trials 10) with tracing off and on, and checks that every metric listed in
BENCHMARK.json is emitted with its unit and that the output checks ran and
passed.  It also shows that the checks reject wrong output, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from workloads import (
    WORKLOADS, AnalyzeReference, ChildResult, analyze_reference, check_analyze,
    check_lemmas, load_golden,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_and_checks_pass(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2     # the timed command and its set-up ran
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "failed_ratio: 0/" in proc.stdout


def test_checks_reject_wrong_output():
    text = subprocess.run(
        [sys.executable, "-m", "gainspec", "generate", *WORKLOADS["analyze_extremal"].toy,
         "--seed", "1"],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True, text=True, check=True,
    ).stdout
    ref = analyze_reference(text)
    assert (ref.n, ref.m, ref.mu) == (15, 13, 5)
    good = {"n": 15, "m": 13, "mu": 5, "energy": ref.energy, "consistent": True,
            "numerically_tight": True, "structurally_extremal": True}

    def verdict(doc: dict, ref: AnalyzeReference = ref, code: int = 0) -> list[str]:
        return check_analyze(ChildResult(0.0, 0.0, code, json.dumps(doc), ""), ref, 5)

    assert verdict(good) == []
    assert verdict({**good, "energy": ref.energy + 1e-6})
    assert verdict({**good, "mu": 4})
    assert verdict({**good, "structurally_extremal": False})
    assert verdict(good, replace(ref, m=12))
    assert verdict(good, code=1)

    golden = load_golden(WORKLOADS["lemmas_sweep"].toy, 1)
    assert golden is not None
    doc = {"ok": True, "total_violations": 0,
           "lemmas": [dict(entry, skips=0, violations=[]) for entry in golden]}

    def lemmas(d: dict) -> list[str]:
        return check_lemmas(ChildResult(0.0, 0.0, 0, json.dumps(d), ""), golden)

    assert lemmas(doc) == []
    shifted = json.loads(json.dumps(doc))
    shifted["lemmas"][1]["worst_margin"] += 1e-6
    assert lemmas(shifted)
    fewer = json.loads(json.dumps(doc))
    fewer["lemmas"][0]["instances"] -= 1
    assert lemmas(fewer)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "lemmas_sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
