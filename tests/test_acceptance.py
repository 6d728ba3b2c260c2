"""Acceptance suite: every quantitative exit criterion, one test each.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output on failure) and asserts the criterion at its stated
tolerance.  Tolerances are pinned here and nowhere else:

    gap floor            -1e-6
    sufficiency gap       1e-8
    4-cycle coefficients  1e-8   (equality branch at 1e-9 on Re(ab))
    closed-form floor     4 - 1e-12
    Kronecker multisets   1e-7
    balance witness       1e-9
    eigenvalue sums       1e-8 * n   /   1e-7 * n
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys

import numpy as np

from conftest import (
    all_simple_cycles,
    balanced_by_all_cycles,
    char_poly,
    four_cycle_energy,
    four_cycle_gain_graph,
    matching_oracle,
    petersen,
    structured_perturbations,
)
from gainspec import (
    adjacency,
    all_ones,
    bound_report,
    chorded_six_cycle,
    complete_bipartite,
    complete_graph,
    energy,
    gnp_graph,
    is_balanced,
    kronecker_spectrum_check,
    maximum_matching,
    random_gain_graph,
    random_switching,
    spectrum,
    switch,
    unit_from_angle,
)
from gainspec.corpus import extremal_union, part_multisets, random_gain_corpus

CORPUS_SEED = 20240
CORPUS = random_gain_corpus(CORPUS_SEED, count=1000, nmax=10)


def _finish(label: str, violations: list[str]) -> None:
    print(f"{'PASS' if not violations else 'FAIL'} {label}")
    assert not violations, f"{label}: {violations[:5]} (+{max(len(violations) - 5, 0)} more)"


def test_criterion_1_bound_universality():
    violations = []
    for k, phi in enumerate(CORPUS):
        g = bound_report(phi).gap
        if g < -1e-6:
            violations.append(f"instance {k}: gap {g:.3e}")
    _finish("criterion 1: energy >= 2*mu on 1000 random gain graphs", violations)


def test_criterion_2_sufficiency_exactness():
    rng = random.Random(CORPUS_SEED + 1)
    violations = []
    for parts in part_multisets(6):
        for isolated in range(4):
            for _ in range(20):
                phi = extremal_union(parts, isolated=isolated, switch_seed=rng)
                rep = bound_report(phi)
                if abs(rep.energy - 2 * rep.mu) > 1e-8:
                    violations.append(
                        f"{parts}+{isolated}K1: |E - 2mu| = "
                        f"{abs(rep.energy - 2 * rep.mu):.3e}"
                    )
                if not rep.structurally_extremal:
                    violations.append(f"{parts}+{isolated}K1: not extremal")
    _finish(
        "criterion 2: switched complete-bipartite unions attain the bound exactly",
        violations,
    )


def test_criterion_3_biconditional():
    violations = []
    instances = CORPUS + structured_perturbations(CORPUS_SEED + 2, 200)
    for k, phi in enumerate(instances):
        rep = bound_report(phi)
        if rep.numerically_tight != rep.structurally_extremal:
            violations.append(
                f"instance {k}: tight={rep.numerically_tight} "
                f"extremal={rep.structurally_extremal} gap={rep.gap:.3e}"
            )
    _finish(
        "criterion 3: numerically tight <=> structurally extremal on "
        f"{len(instances)} instances",
        violations,
    )


def test_criterion_4_four_cycle_closed_form():
    rng = random.Random(CORPUS_SEED + 3)
    violations = []
    samples = [
        (unit_from_angle(rng.uniform(0, 2 * math.pi)),
         unit_from_angle(rng.uniform(0, 2 * math.pi)))
        for _ in range(100)
    ]
    # exactly representable conjugate pairs exercise the equality branch
    exact = [(1 + 0j, 1 + 0j), (1j, -1j), (-1 + 0j, -1 + 0j), (-1j, 1j)]
    minimum = math.inf
    for a, b in samples + exact:
        x = (a * b).real
        coeffs = char_poly(adjacency(four_cycle_gain_graph(a, b)))
        expected = np.array([1.0, 0.0, -4.0, 0.0, 2.0 - 2.0 * x])
        if np.max(np.abs(coeffs - expected)) > 1e-8:
            violations.append(f"charpoly off by {np.max(np.abs(coeffs - expected)):.2e}")
        closed = four_cycle_energy(a, b)
        solved = energy(four_cycle_gain_graph(a, b))
        if abs(closed - solved) > 1e-8:
            violations.append(f"closed form vs eigensolver: {abs(closed - solved):.2e}")
        minimum = min(minimum, closed)
        if (abs(closed - 4.0) <= 1e-8) != (abs(x - 1.0) <= 1e-9):
            violations.append(f"equality mismatch at x={x!r}: energy={closed!r}")
    if minimum < 4.0 - 1e-12:
        violations.append(f"minimum {minimum!r} fell below 4")
    _finish("criterion 4: 4-cycle characteristic polynomial and energy closed form",
            violations)


def test_criterion_5_lemma_suite_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "gainspec", "lemmas",
         "--seed", "42", "--trials", "200", "--nmax", "10"],
        capture_output=True,
        text=True,
        timeout=280,
    )
    violations = []
    if proc.returncode != 0:
        violations.append(f"exit code {proc.returncode}: {proc.stderr[:400]}")
    else:
        doc = json.loads(proc.stdout)
        if doc["total_violations"] != 0:
            violations.append(f"{doc['total_violations']} lemma violations")
        lemmas = {entry["lemma"]: entry for entry in doc["lemmas"]}
        expected = {
            "edge_cut_monotonicity",
            "pendant_strictness",
            "chorded_hexagon_energy",
            "perfect_matching_necessity",
            "nonbipartite_strictness",
            "tight_subgraph_propagation",
            "balance_regularity_necessity",
        }
        if set(lemmas) != expected:
            violations.append(f"lemma set mismatch: {sorted(lemmas)}")
        for name, entry in lemmas.items():
            if entry["instances"] == 0:
                violations.append(f"{name} ran zero instances")
            # skips must be surfaced, never silent
            if entry["skips"] != sum(entry["skip_reasons"].values()):
                violations.append(f"{name} under-reports skips")
        if lemmas.get("chorded_hexagon_energy", {}).get("instances") != 500:
            violations.append("chorded hexagon sweep must run 500 instances")
    _finish("criterion 5: lemma sweep CLI exits 0 with zero violations and "
            "no silent skips", violations)


def test_criterion_6_kronecker_identity():
    rng = random.Random(CORPUS_SEED + 6)
    violations = []
    doubles_checked = 0
    for k in range(50):
        gn = rng.randrange(2, 7)
        hn = rng.randrange(1, 36 // gn + 1)
        g = gnp_graph(gn, rng.choice((0.3, 0.5, 0.8)), rng)
        h = gnp_graph(hn, rng.choice((0.3, 0.5, 0.8)), rng)
        phi = random_gain_graph(g, rng)
        check = kronecker_spectrum_check(phi, h)
        if check.spectrum_deviation > 1e-7:
            violations.append(
                f"pair {k}: multiset deviation {check.spectrum_deviation:.2e}"
            )
        double = kronecker_spectrum_check(phi, complete_graph(2))
        doubles_checked += 1
        if double.doubling_ok is not True:
            violations.append(f"pair {k}: energy doubling failed")
    assert doubles_checked == 50
    _finish("criterion 6: product spectra are pairwise eigenvalue products; "
            "doubles double the energy", violations)


def test_criterion_7_matching_correctness():
    rng = random.Random(CORPUS_SEED + 7)
    violations = []
    for k in range(500):
        g = gnp_graph(rng.randrange(0, 9), rng.choice((0.3, 0.5, 0.8)), rng)
        got, want = maximum_matching(g).mu, matching_oracle(g)
        if got != want:
            violations.append(f"random {k}: blossom {got} != oracle {want}")
    fixtures = [(petersen(), 5), (chorded_six_cycle(), 3)]
    fixtures += [(complete_bipartite(t, t), t) for t in range(1, 6)]
    for g, expected in fixtures:
        if maximum_matching(g).mu != expected:
            violations.append(f"fixture n={g.n}: mu != {expected}")
        if g.n <= 12 and matching_oracle(g) != expected:
            violations.append(f"fixture n={g.n}: oracle != {expected}")
    _finish("criterion 7: blossom matching equals the exhaustive oracle", violations)


def test_criterion_8_balance_correctness():
    rng = random.Random(CORPUS_SEED + 8)
    violations = []
    for k in range(300):
        g = gnp_graph(rng.randrange(1, 9), rng.choice((0.3, 0.5, 0.8)), rng)
        if k % 2 == 0:
            phi = random_gain_graph(g, rng)
        else:
            phi = switch(all_ones(g), random_switching(g.n, rng))
        cert = is_balanced(phi)
        if cert.balanced != balanced_by_all_cycles(phi):
            violations.append(f"instance {k}: verdict disagrees with cycle oracle")
        if cert.balanced:
            restored = switch(phi, cert.witness)
            worst = max(
                (abs(z - 1.0) for z in restored.forward.values()), default=0.0
            )
            if worst > 1e-9:
                violations.append(f"instance {k}: witness leaves gain off by {worst:.2e}")
        else:
            if abs(cert.violation_gain - 1.0) <= 1e-9:
                violations.append(f"instance {k}: violating cycle gain too close to 1")
            cyc = cert.violating_cycle
            if cyc not in all_simple_cycles(phi.graph) and tuple(
                sorted(cyc)
            ) not in {tuple(sorted(c)) for c in all_simple_cycles(phi.graph)}:
                violations.append(f"instance {k}: witness cycle is not a cycle")
    _finish("criterion 8: balance verdicts match the all-cycles oracle with "
            "verifying witnesses", violations)


def test_criterion_9_spectral_sanity():
    rng = random.Random(CORPUS_SEED + 9)
    violations = []
    for k in range(150):
        g = gnp_graph(rng.randrange(1, 11), rng.choice((0.3, 0.5, 0.8)), rng)
        phi = random_gain_graph(g, rng)
        spec = spectrum(phi)  # raises internally on sanity failure as well
        n, m = g.n, g.m
        if abs(float(np.sum(spec.eigenvalues))) > 1e-8 * n:
            violations.append(f"instance {k}: eigenvalue sum off")
        if abs(float(np.sum(spec.eigenvalues**2)) - 2.0 * m) > 1e-7 * n:
            violations.append(f"instance {k}: eigenvalue square sum off")
    _finish("criterion 9: eigenvalue sums match trace and Frobenius norm on "
            "every solve", violations)
