"""The lemma suite reproduces the recorded golden reports in
bench/golden_lemmas.json: the same instances and skip reasons, and worst
margins within 1e-9, as the benchmark requires of ``gainspec lemmas``."""

import json
from pathlib import Path

import pytest

from gainspec.bounds import run_lemma_suite

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden_lemmas.json").read_text(
        encoding="utf-8"
    )
)


def _mismatches(seed: int, trials: int, nmax: int) -> list[str]:
    want = GOLDEN[f"--trials {trials} --nmax {nmax}"][str(seed)]
    got = run_lemma_suite(seed=seed, trials=trials, nmax=nmax)
    if [(r.lemma, r.instances, dict(r.skip_reasons)) for r in got] != [
        (w["lemma"], w["instances"], w["skip_reasons"]) for w in want
    ]:
        return [f"seed {seed}: instances or skip reasons differ"]
    return [
        f"seed {seed}: {r.lemma} worst margin {r.worst_margin!r} != {w['worst_margin']!r}"
        for r, w in zip(got, want)
        if (r.worst_margin is None) != (w["worst_margin"] is None)
        or (r.worst_margin is not None
            and abs(r.worst_margin - w["worst_margin"]) > 1e-9)
    ]


@pytest.mark.parametrize("seed", range(4))
def test_full_sweep_matches_golden(seed):
    assert _mismatches(seed, 1000, 16) == []


def test_toy_sweeps_match_golden():
    assert [m for seed in range(100) for m in _mismatches(seed, 10, 16)] == []
