import dataclasses
import gc
import itertools
import math
import random
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import disjoint_union
from gainspec import (
    GainGraph,
    all_ones,
    bound_report,
    check_balance_lemma,
    check_c6tilde_lemma,
    check_edge_cut_lemma,
    check_nonbipartite_lemma,
    check_pendant_lemma,
    check_perfect_matching_lemma,
    check_subgraph_lemma,
    chorded_six_cycle,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_graph,
    induced_gain_subgraph,
    is_extremal_structure,
    path_graph,
    random_gain_graph,
    random_switching,
    run_lemma_suite,
    set_gain,
    spectrum,
    star_graph,
    switch,
    unit_from_angle,
)
from gainspec.bounds import (
    LEMMA_ORDER,
    SUBGRAPH,
    LemmaReport,
    edge_set_is_star,
    is_chorded_hexagon,
    is_four_path,
)
from gainspec.corpus import component_split, extremal_union, part_multisets
from gainspec.graphs import Graph

from conftest import equal_sided_blocks_bruteforce


def test_bound_report_tight_case():
    rep = bound_report(all_ones(complete_bipartite(2, 2)))
    assert rep.energy == pytest.approx(4.0, abs=1e-9)
    assert rep.mu == 2
    assert rep.gap == pytest.approx(0.0, abs=1e-9)
    assert rep.numerically_tight and rep.structurally_extremal and rep.consistent


def test_bound_report_four_path():
    rep = bound_report(all_ones(path_graph(4)))
    assert rep.energy == pytest.approx(2 * math.sqrt(5), abs=1e-9)
    assert rep.mu == 2
    assert rep.gap == pytest.approx(2 * math.sqrt(5) - 4, abs=1e-9)
    assert not rep.numerically_tight and not rep.structurally_extremal
    assert rep.consistent


def test_bound_report_perturbed_square():
    phi = set_gain(all_ones(complete_bipartite(2, 2)), 0, 2, 1j)
    rep = bound_report(phi)
    assert rep.energy == pytest.approx(5.226251859505505, abs=1e-9)
    assert rep.gap > 1.0
    assert not rep.structurally_extremal and rep.consistent


@pytest.mark.parametrize("t", [2, 3])
def test_gap_near_balance_agrees_with_a_50_digit_oracle(t):
    # K_{t,t}(delta): one gain of K_{t,t} turned by delta.  The oracle solves
    # the stored matrix to 50 digits; the tight verdict is only judged where
    # the exact gap clears GAP_TIGHT_TOL by more than the gap's own error.
    mpmath = pytest.importorskip("mpmath")
    from gainspec.bounds import GAP_TIGHT_TOL
    from gainspec.spectra import adjacency

    for delta in (10.0**e for e in range(-12, -2)):
        phi = set_gain(all_ones(complete_bipartite(t, t)), 0, t, unit_from_angle(delta))
        report = bound_report(phi)
        with mpmath.workdps(50):
            a = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row]
                               for row in adjacency(phi).tolist()])
            values = mpmath.eighe(a, eigvals_only=True)
            mp_gap = float(mpmath.fsum(abs(x) for x in values) - 2 * report.mu)
        assert report.mu == t
        assert abs(report.gap - mp_gap) <= 1e-12
        if abs(mp_gap - GAP_TIGHT_TOL) > 1e-12:
            assert report.numerically_tight == (mp_gap <= GAP_TIGHT_TOL)


def test_extremal_structure_examples():
    g = disjoint_union(
        disjoint_union(complete_bipartite(3, 3), complete_bipartite(1, 1)),
        empty_graph(2),
    )
    assert is_extremal_structure(all_ones(g))
    assert not is_extremal_structure(all_ones(complete_bipartite(1, 2)))
    # a balanced hexagon is bipartite with equal sides but too few edges
    hexagon = all_ones(cycle_graph(6))
    assert not is_extremal_structure(switch(hexagon, random_switching(6, 3)))
    assert is_extremal_structure(all_ones(empty_graph(4)))
    assert not is_extremal_structure(all_ones(complete_graph(3)))


def test_extremal_structure_is_switching_invariant():
    rng = random.Random(5)
    candidates = [
        extremal_union([2, 1], isolated=1),
        all_ones(cycle_graph(6)),
        random_gain_graph(complete_bipartite(2, 2), rng),
        all_ones(chorded_six_cycle()),
    ]
    for phi in candidates:
        verdict = is_extremal_structure(phi)
        for _ in range(5):
            zeta = random_switching(phi.graph.n, rng)
            assert is_extremal_structure(switch(phi, zeta)) == verdict


def test_edge_set_is_star():
    assert edge_set_is_star([(0, 1)])
    assert edge_set_is_star([(0, 1), (1, 2), (1, 5)])
    assert not edge_set_is_star([(0, 1), (2, 3)])
    assert not edge_set_is_star([(0, 1), (0, 2), (1, 2)])  # triangle
    assert not edge_set_is_star([])


def test_is_four_path():
    assert is_four_path(path_graph(4))
    assert is_four_path(Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)]))
    assert not is_four_path(cycle_graph(4))
    assert not is_four_path(star_graph(3))
    assert not is_four_path(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]))


def test_is_chorded_hexagon():
    assert is_chorded_hexagon(chorded_six_cycle())
    # a relabeled copy still matches
    perm = [3, 5, 0, 2, 4, 1]
    relabeled = Graph.from_edges(
        6, [(perm[u], perm[v]) for u, v in chorded_six_cycle().edges]
    )
    assert is_chorded_hexagon(relabeled)
    assert not is_chorded_hexagon(cycle_graph(6))
    # short chord creates a triangle: right size, wrong parity
    short_chord = Graph.from_edges(
        6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 2)]
    )
    assert not is_chorded_hexagon(short_chord)
    # complete bipartite K_{2,3} plus a pendant: 7 edges, wrong degrees
    k23_pendant = Graph.from_edges(
        6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5)]
    )
    assert not is_chorded_hexagon(k23_pendant)


def test_is_chorded_hexagon_exhaustive():
    # every labelled copy of the chorded six-cycle, by vertex permutation
    copies = {
        frozenset(tuple(sorted((p[u], p[v]))) for u, v in chorded_six_cycle().edges)
        for p in itertools.permutations(range(6))
    }
    assert len(copies) == 180
    pairs = list(itertools.combinations(range(6), 2))
    seven_edge = list(itertools.combinations(pairs, 7))
    assert len(seven_edge) == 6435
    for edges in seven_edge:
        expected = frozenset(edges) in copies
        assert is_chorded_hexagon(Graph.from_edges(6, edges)) == expected, edges


def test_extremal_structure_exhaustive_small():
    checked = 0
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            g = Graph.from_edges(n, edges)
            assert is_extremal_structure(all_ones(g)) == (
                equal_sided_blocks_bruteforce(g)
            ), (n, edges)
            checked += 1
    assert checked == 1100


def test_lemma_report_mechanics():
    a = LemmaReport("x")
    a.record(0.5)
    a.skip("why")
    b = LemmaReport("x")
    b.record(0.25)
    b.violate("boom")
    a.merge(b)
    assert a.instances == 2 and a.skips == 1 and a.worst_margin == 0.25
    assert not a.ok
    with pytest.raises(ValueError):
        a.merge(LemmaReport("y"))


def test_edge_cut_lemma_fixed_cases():
    rep = check_edge_cut_lemma([(bound_report(all_ones(complete_graph(2))), {0})])
    assert rep.ok and rep.instances == 1
    assert rep.worst_margin == pytest.approx(2.0, abs=1e-9)  # strict star drop

    rep = check_edge_cut_lemma(
        [(bound_report(all_ones(complete_bipartite(2, 2))), {0, 1})]
    )
    assert rep.ok
    assert rep.worst_margin == pytest.approx(4.0, abs=1e-9)

    # empty cut: energy unchanged, monotonicity holds with margin 0
    rep = check_edge_cut_lemma([(bound_report(all_ones(cycle_graph(4))), set())])
    assert rep.ok and rep.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_edge_cut_lemma_random_sweep():
    rng = random.Random(7)
    rep = LemmaReport("edge_cut_monotonicity")
    for _ in range(60):
        g = gnp_graph(rng.randrange(2, 10), rng.choice((0.3, 0.5, 0.8)), rng)
        phi = random_gain_graph(g, rng)
        vs = rng.sample(range(g.n), rng.randint(0, g.n))
        rep.merge(check_edge_cut_lemma([(bound_report(phi), vs)]))
    assert rep.ok and rep.instances == 60


def test_pendant_lemma():
    rep = check_pendant_lemma([bound_report(all_ones(path_graph(3)))])
    assert rep.ok and rep.worst_margin == pytest.approx(
        2 * math.sqrt(2) - 2, abs=1e-9
    )
    rep = check_pendant_lemma([bound_report(all_ones(star_graph(4)))])
    assert rep.ok and rep.worst_margin == pytest.approx(2.0, abs=1e-9)

    # preconditions produce skips, never passes
    rep = check_pendant_lemma([bound_report(all_ones(cycle_graph(4)))])
    assert rep.instances == 0 and rep.skips == 1
    rep = check_pendant_lemma(
        [bound_report(all_ones(disjoint_union(path_graph(2), path_graph(2))))]
    )
    assert rep.instances == 0 and rep.skip_reasons["not connected"] == 1
    rep = check_pendant_lemma([bound_report(all_ones(path_graph(2)))])
    assert rep.instances == 0 and rep.skips == 1


def test_pendant_lemma_random_trees():
    from gainspec.corpus import random_tree

    rng = random.Random(11)
    rep = LemmaReport("pendant_strictness")
    for _ in range(40):
        tree = random_tree(rng.randrange(3, 10), rng)
        rep.merge(check_pendant_lemma([bound_report(random_gain_graph(tree, rng))]))
    assert rep.ok and rep.instances == 40
    assert rep.worst_margin > 1e-8


def test_c6tilde_lemma_sweep():
    rep = check_c6tilde_lemma(13, 120)
    assert rep.ok and rep.instances == 120
    assert rep.worst_margin > 1e-8


def test_perfect_matching_lemma():
    members = [all_ones(complete_bipartite(t, t)) for t in range(1, 5)]
    members.append(all_ones(path_graph(4)))  # not tight: vacuous
    rep = check_perfect_matching_lemma(map(bound_report, members))
    assert rep.ok and rep.instances == 5

    rep = check_perfect_matching_lemma(
        [bound_report(all_ones(disjoint_union(path_graph(2), empty_graph(1))))]
    )
    assert rep.ok and rep.instances == 1 and not rep.skips and rep.worst_margin == 0.0


@pytest.mark.parametrize("isolated", [0, 2])
def test_perfect_matching_lemma_flags_an_unmatched_vertex(isolated):
    # A tight report must match every vertex of positive degree, whether or
    # not the graph also has isolated vertices, which need no matching edge.
    rep = bound_report(extremal_union([2], isolated=isolated))
    assert rep.numerically_tight and rep.mu == 2
    lemma = check_perfect_matching_lemma([rep])
    assert lemma.ok and lemma.instances == 1
    lemma = check_perfect_matching_lemma([dataclasses.replace(rep, mu=1)])
    assert lemma.instances == 1 and len(lemma.violations) == 1
    assert "lacks a perfect matching" in lemma.violations[0]


def test_nonbipartite_lemma():
    rep = check_nonbipartite_lemma(
        [bound_report(all_ones(cycle_graph(3))), bound_report(all_ones(cycle_graph(5)))]
    )
    assert rep.ok and rep.instances == 2
    assert rep.worst_margin == pytest.approx(2.0, abs=1e-9)  # triangle: 4 - 2*1

    rng = random.Random(17)
    members = []
    while len(members) < 25:
        g = gnp_graph(rng.randrange(3, 10), 0.6, rng)
        members.append(random_gain_graph(g, rng))
    rep = check_nonbipartite_lemma(map(bound_report, members))
    assert rep.ok
    assert rep.instances + rep.skips == 25


def test_subgraph_lemma():
    # tight union: tightness propagates to a component split
    phi = all_ones(disjoint_union(complete_bipartite(2, 2), complete_bipartite(1, 1)))
    rep = check_subgraph_lemma([(bound_report(phi), {4, 5})])
    assert rep.ok and rep.instances == 1

    # inside one tight block: an edge plus its complement split additively
    phi = all_ones(complete_bipartite(3, 3))
    rep = check_subgraph_lemma([(bound_report(phi), {0, 3})])
    assert rep.ok and rep.instances == 1

    # non-tight instances pass vacuously
    rep = check_subgraph_lemma([(bound_report(all_ones(chorded_six_cycle())), {0, 1})])
    assert rep.ok

    # non-additive split records a skip: C4 minus opposite vertices
    rep = check_subgraph_lemma([(bound_report(all_ones(cycle_graph(4))), {0, 2})])
    assert rep.instances == 0 and rep.skips == 1


def _subgraph_lemma_from_scratch(cases):
    """``check_subgraph_lemma`` with both sides of every split matched anew
    and each tight side solved alone."""
    from gainspec.bounds import GAP_TIGHT_TOL
    from gainspec.graphs import induced_subgraph
    from gainspec.matching import maximum_matching

    report = LemmaReport(SUBGRAPH)
    for rep, vs in cases:
        g = rep.phi.graph
        phi1 = induced_gain_subgraph(rep.phi, vs)
        g2, _ = induced_subgraph(g, set(range(g.n)) - set(vs))
        mu1 = maximum_matching(phi1.graph).mu
        if rep.mu != mu1 + maximum_matching(g2).mu:
            report.skip("matching number not additive over the split")
        elif not rep.numerically_tight:
            report.record(rep.gap)
        else:
            sub_gap = spectrum(phi1).energy - 2.0 * mu1
            report.record(sub_gap)
            if sub_gap > GAP_TIGHT_TOL:
                report.violate("tight graph has non-tight induced subgraph "
                               f"(gap {sub_gap:.3e})")
            if is_four_path(phi1.graph):
                report.violate("tight graph splits off a 4-path")
            if is_chorded_hexagon(phi1.graph):
                report.violate("tight graph splits off a chorded six-cycle")
    return report


def test_subgraph_lemma_reads_mu_from_the_report_as_a_fresh_matching_would():
    # mu(G[S]) and mu(G[V-S]) are read off the report's matching when it does
    # not cross the split, and matched anew when it does
    rng = random.Random(31)
    cases = []
    pools = [p for p in part_multisets(6) if 2 * sum(p) <= 12]
    while len(cases) < 400:
        if len(cases) % 3:
            n = rng.randint(1, 12)
            phi = random_gain_graph(gnp_graph(n, rng.random(), rng), rng)
        else:
            parts = rng.choice(pools)
            phi = extremal_union(parts, isolated=rng.randint(0, 12 - 2 * sum(parts)),
                                 switch_seed=rng)
        rep, n = bound_report(phi), phi.graph.n
        cases.append((rep, rng.sample(range(n), rng.randint(0, n))))
        whole = component_split(phi.graph, rng)
        if whole is not None:
            cases.append((rep, whole))
    # edited reports: a wrong mu makes no split additive; a P4 called tight
    # splits off itself, a 4-path of gap 0.47, while {1, 2} of it is crossed
    # and not additive
    rep = cases[0][0]
    cases.append((dataclasses.replace(rep, mu=rep.mu + 1), range(rep.phi.graph.n)))
    p4 = dataclasses.replace(bound_report(all_ones(path_graph(4))), numerically_tight=True)
    cases += [(p4, {0, 1, 2, 3}), (p4, {1, 2})]

    got = check_subgraph_lemma(cases)
    want = _subgraph_lemma_from_scratch(cases)
    assert (got.instances, got.skip_reasons, got.worst_margin, got.violations) == (
        want.instances, want.skip_reasons, want.worst_margin, want.violations)
    assert got.instances > 150 and got.skips > 50 and len(got.violations) == 2


def test_balance_lemma():
    rng = random.Random(19)
    members = []
    for t in range(1, 5):
        members.append(
            switch(
                all_ones(complete_bipartite(t, t)),
                random_switching(2 * t, rng),
            )
        )
    # a rotated edge breaks tightness: vacuous but counted
    members.append(
        set_gain(all_ones(complete_bipartite(3, 3)), 0, 3, unit_from_angle(math.pi / 4))
    )
    rep = check_balance_lemma(map(bound_report, members))
    assert rep.ok and rep.instances == 5

    rep = check_balance_lemma(
        [bound_report(all_ones(cycle_graph(3))), bound_report(all_ones(empty_graph(1)))]
    )
    assert rep.instances == 0 and rep.skips == 2


def test_part_multisets():
    parts = part_multisets(6)
    assert len(parts) == 29  # p(1) + ... + p(6)
    assert all(sum(p) <= 6 for p in parts)
    assert (3, 2, 1) in parts and (6,) in parts


def test_sufficiency_families_are_tight():
    rng = random.Random(23)
    for parts in [(1,), (2, 1), (3, 3), (2, 2, 1)]:
        for isolated in (0, 2):
            phi = extremal_union(parts, isolated=isolated, switch_seed=rng)
            rep = bound_report(phi)
            assert abs(rep.energy - 2 * rep.mu) <= 1e-8
            assert rep.structurally_extremal and rep.consistent


def test_biconditional_on_random_corpus():
    rng = random.Random(29)
    for _ in range(80):
        g = gnp_graph(rng.randrange(2, 9), rng.choice((0.3, 0.5, 0.8)), rng)
        rep = bound_report(random_gain_graph(g, rng))
        assert rep.gap >= -1e-6
        assert rep.consistent


def test_run_lemma_suite_smoke_and_determinism():
    reports = run_lemma_suite(seed=1, trials=40, nmax=6)
    assert [r.lemma for r in reports] == [
        "edge_cut_monotonicity",
        "pendant_strictness",
        "chorded_hexagon_energy",
        "perfect_matching_necessity",
        "nonbipartite_strictness",
        "tight_subgraph_propagation",
        "balance_regularity_necessity",
    ]
    assert all(r.ok for r in reports)
    assert all(r.instances > 0 for r in reports)
    again = run_lemma_suite(seed=1, trials=40, nmax=6)
    for a, b in zip(reports, again):
        assert (a.instances, a.skips, a.worst_margin) == (
            b.instances,
            b.skips,
            b.worst_margin,
        )


def test_run_lemma_suite_skips_extremal_unions_without_a_split():
    # seed 0 draws one-component extremal unions, which have no proper split
    reports = {r.lemma: r for r in run_lemma_suite(seed=0, trials=16, nmax=6)}
    subgraph = reports["tight_subgraph_propagation"]
    assert subgraph.skip_reasons["single component, no proper split"] == 4
    assert subgraph.ok and subgraph.instances > 0


@pytest.mark.parametrize("trials", [-1, -5])
def test_run_lemma_suite_rejects_negative_trials(trials):
    with pytest.raises(ValueError, match=f"trials must be >= 0, got {trials}"):
        run_lemma_suite(seed=1, trials=trials, nmax=6)


@pytest.mark.parametrize("trials", [-1, -5])
def test_chorded_hexagon_checker_rejects_negative_trials(trials):
    with pytest.raises(ValueError, match=f"trials must be >= 0, got {trials}"):
        check_c6tilde_lemma(1, trials)


@pytest.mark.parametrize("nmax", [1, 0, -3])
def test_run_lemma_suite_rejects_nmax_below_two(nmax):
    with pytest.raises(ValueError, match=f"nmax must be >= 2, got {nmax}"):
        run_lemma_suite(seed=1, trials=4, nmax=nmax)


def test_run_lemma_suite_analyses_each_instance_once(monkeypatch):
    from gainspec import bounds, matching, spectra

    # keep every argument alive so that no id is reused
    solved, matched = [], []
    real_adjacency, real_matching = spectra.adjacency, matching.maximum_matching

    def counting_adjacency(phi):
        solved.append(phi)
        return real_adjacency(phi)

    def counting_matching(g):
        matched.append(g)
        return real_matching(g)

    monkeypatch.setattr(spectra, "adjacency", counting_adjacency)
    # bounds binds the name itself, so patch it in both modules
    monkeypatch.setattr(matching, "maximum_matching", counting_matching)
    monkeypatch.setattr(bounds, "maximum_matching", counting_matching)
    run_lemma_suite(seed=1, trials=40, nmax=6)
    assert solved and matched
    assert len({id(phi) for phi in solved}) == len(solved)
    assert len({id(g) for g in matched}) == len(matched)


def test_run_lemma_suite_analyses_each_drawn_instance_once(monkeypatch):
    from gainspec import bounds

    # keep every argument alive so that no id is reused
    analysed = []
    real_report = bounds._report

    def counting_report(phi, spec):
        analysed.append(phi)
        return real_report(phi, spec)

    monkeypatch.setattr(bounds, "_report", counting_report)
    run_lemma_suite(seed=1, trials=40, nmax=6)
    # 40 base instances, 5 extremal unions, 40 trees, 11 balance extras
    assert len(analysed) == 96
    assert len({id(phi) for phi in analysed}) == len(analysed)


def test_derived_instances_are_built_and_solved_once(monkeypatch):
    from gainspec import bounds

    # an empty cut reuses the solve bound_report already verified
    rep = bound_report(all_ones(cycle_graph(4)))
    solves = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        solves.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    lemma = check_edge_cut_lemma([(rep, set())])
    assert solves == [] and lemma.ok and lemma.worst_margin == 0.0

    # the report's matching {03, 14, 25} stays on the sides of {0, 3}: no
    # side is matched; it crosses {0, 4} (K_{1,1} | K_{2,2}): each side is
    # matched once, and the subgraph gap reuses mu1
    rep = bound_report(all_ones(complete_bipartite(3, 3)))
    matched = []
    real_matching = bounds.maximum_matching

    def counting_matching(g):
        matched.append(g)
        return real_matching(g)

    monkeypatch.setattr(bounds, "maximum_matching", counting_matching)
    lemma = check_subgraph_lemma([(rep, {0, 3})])
    assert matched == []
    assert lemma.ok and lemma.instances == 1
    assert lemma.worst_margin == pytest.approx(0.0, abs=1e-9)
    lemma = check_subgraph_lemma([(rep, {0, 4})])
    assert [g.n for g in matched] == [2, 4]
    assert lemma.ok and lemma.instances == 1 and lemma.worst_margin == 0.0

    # C4's matching {01, 23} crosses {1, 2}, yet 1 + 1 = 2 is additive
    rep = bound_report(all_ones(cycle_graph(4)))
    matched.clear()
    lemma = check_subgraph_lemma([(rep, {1, 2})])
    assert [g.n for g in matched] == [2, 2]
    assert lemma.ok and lemma.instances == 1 and lemma.skips == 0


def test_lemma_suite_agrees_on_both_spectrum_paths(monkeypatch):
    from gainspec import graphs

    dense = run_lemma_suite(seed=1, trials=40, nmax=6)
    monkeypatch.setattr(graphs, "ARRAY_MIN_ORDER", 0)
    structured = run_lemma_suite(seed=1, trials=40, nmax=6)
    for a, b in zip(dense, structured, strict=True):
        assert (a.lemma, a.instances, a.skip_reasons) == (
            b.lemma,
            b.instances,
            b.skip_reasons,
        )
        assert b.ok and b.worst_margin == pytest.approx(a.worst_margin, abs=1e-9)


def test_lemma_suite_stays_on_the_small_graph_paths(monkeypatch):
    # Every lemma-suite graph has at most nmax vertices, below
    # graphs.ARRAY_MIN_ORDER: the sweep takes no array pass (CSR adjacency,
    # balance screen, per-component blocks) and solves no block by SVD, where
    # the array paths would cost it per-call overhead.  Every graph's
    # adjacency is built, by the BFS behind the balance check if not before,
    # and every block solved is its graph's whole n x n matrix.
    from gainspec import graphs, spectra

    adjacency = Graph.__dict__["_adjacency"].func
    real_svd = np.linalg.svd
    real_blocks = spectra._blocks
    orders, factored, blocks = [], [], []

    def counting_adjacency(g):
        orders.append(g.n)
        return adjacency(g)

    def counting_svd(b, *args, **kwargs):
        factored.append(b.shape)
        return real_svd(b, *args, **kwargs)

    def whole_matrix_blocks(phi):
        for bipartite, stack, charge in real_blocks(phi):
            blocks.append(phi.graph.n)
            assert not bipartite and stack.shape == (1, phi.graph.n, phi.graph.n)
            assert charge is None and stack[0].tobytes() == spectra.adjacency(phi).tobytes()
            yield bipartite, stack, charge

    monkeypatch.setattr(Graph, "_adjacency", property(counting_adjacency))
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(spectra, "_blocks", whole_matrix_blocks)
    run_lemma_suite(seed=1, trials=40, nmax=16)
    assert orders and max(orders) < graphs.ARRAY_MIN_ORDER
    assert blocks and factored == []


def test_subgraph_lemma_judges_every_extremal_split_visit():
    # every visit counts, the repeats of an (extremal, split) pair included
    subgraph = run_lemma_suite(seed=1, trials=40, nmax=6)[LEMMA_ORDER.index(SUBGRAPH)]
    assert (subgraph.instances, subgraph.skips) == (39, 1)


def _report_fields(reports):
    # worst_margin compared as a float: equal means equal bits here
    return [
        (r.lemma, r.instances, dict(r.skip_reasons), r.violations, r.worst_margin)
        for r in reports
    ]


@pytest.mark.parametrize(
    "seed, trials, nmax", [(0, 200, 10), (1, 200, 10), (2, 200, 10), (3, 200, 10),
                           (1, 300, 16)]
)
def test_lemma_suite_does_not_depend_on_batching(monkeypatch, seed, trials, nmax):
    from gainspec import bounds

    batched = _report_fields(run_lemma_suite(seed=seed, trials=trials, nmax=nmax))
    real_eigh = np.linalg.eigh

    def one_at_a_time(a, *args, **kwargs):
        if a.ndim == 2:
            return real_eigh(a, *args, **kwargs)
        pairs = [real_eigh(m, *args, **kwargs) for m in a]
        return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", one_at_a_time)
        assert _report_fields(run_lemma_suite(seed, trials, nmax)) == batched
    # a window of one step draws, solves and judges each instance alone
    monkeypatch.setattr(bounds, "_WINDOW", 1)
    assert _report_fields(run_lemma_suite(seed, trials, nmax)) == batched


def test_corpus_iterator_draws_the_corpus_list():
    from gainspec.corpus import iter_random_gain_corpus, random_gain_corpus

    def key(phi):
        return phi.graph.n, phi.graph.edges, dict(phi.forward)

    for seed, count, nmax in [(0, 0, 5), (3, 50, 7), (11, 130, 16), (5, 9, 2)]:
        listed = random_gain_corpus(seed, count, nmax)
        drawn = iter_random_gain_corpus(seed, count, nmax)
        assert list(map(key, listed)) == list(map(key, drawn))
        assert len(listed) == count


def test_lemma_suite_batches_its_solves(monkeypatch):
    # one LAPACK call per matrix would make calls == matrices
    real_eigh = np.linalg.eigh
    calls, matrices = [], []

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        matrices.append(1 if a.ndim == 2 else a.shape[0])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    run_lemma_suite(seed=1, trials=200, nmax=10)
    assert sum(matrices) > 1000
    assert len(calls) < sum(matrices) / 4


def test_lemma_suite_lapack_call_count_is_pinned(monkeypatch):
    # The benchmark's sweep: every window solves its graphs in one stack per
    # order, so a change to the batching moves this count.  Every graph is
    # below graphs.ARRAY_MIN_ORDER, so its one block is its complex
    # adjacency matrix: no real stack reaches LAPACK.
    real_eigh, real_svd = np.linalg.eigh, np.linalg.svd
    calls = Counter()

    def counting_eigh(a, *args, **kwargs):
        calls["eigh", a.dtype.name] += 1
        return real_eigh(a, *args, **kwargs)

    def counting_svd(b, *args, **kwargs):
        calls["svd", b.dtype.name] += 1
        return real_svd(b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    run_lemma_suite(seed=1, trials=1000, nmax=16)
    assert calls == {("eigh", "complex128"): 470}


def test_lemma_suite_sorts_no_spectrum_row(monkeypatch):
    # Below graphs.ARRAY_MIN_ORDER a row is one Hermitian block, which LAPACK
    # returns ascending, so spectra_of has nothing to sort in the sweep.
    from gainspec import spectra

    real_eigh, real_sort = np.linalg.eigh, np.sort
    calls = {"eigh": 0, "sort": 0}

    def counting_eigh(a, *args, **kwargs):
        calls["eigh"] += 1
        return real_eigh(a, *args, **kwargs)

    def counting_sort(a, *args, **kwargs):
        calls["sort"] += sys._getframe(1).f_code is spectra.spectra_of.__code__
        return real_sort(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np, "sort", counting_sort)
    run_lemma_suite(seed=1, trials=1000, nmax=16)
    assert calls == {"eigh": 470, "sort": 0}
    # a row of several blocks is still sorted
    spectra.spectra_of([extremal_union([20, 16], isolated=3)])
    assert calls["sort"] == 1


def test_lemma_suite_leaves_no_gain_graphs_alive(monkeypatch):
    from gainspec import bounds

    def live():
        gc.collect()
        return sum(isinstance(obj, GainGraph) for obj in gc.get_objects())

    before = live()
    first = _report_fields(run_lemma_suite(seed=1, trials=300, nmax=16))
    assert live() == before
    assert _report_fields(run_lemma_suite(seed=1, trials=300, nmax=16)) == first

    # and when a run raises while a window holds its derived instances
    def fail(*args, **kwargs):
        assert live() > before
        raise RuntimeError("stop")

    monkeypatch.setattr(bounds, "check_balance_lemma", fail)
    with pytest.raises(RuntimeError, match="stop"):
        run_lemma_suite(seed=1, trials=300, nmax=16)
    assert live() == before


def _mixed_reports(seed, count=72):
    # random gain graphs of orders 2-11 between extremal unions, which are tight
    rng = random.Random(seed)
    pool = part_multisets(5)
    reps = []
    for k in range(count):
        if k % 4 == 3:
            phi = extremal_union(rng.choice(pool), isolated=rng.randrange(3),
                                 switch_seed=rng)
        else:
            g = gnp_graph(2 + k % 10, rng.choice((0.3, 0.5, 0.8)), rng)
            phi = random_gain_graph(g, rng)
        reps.append(bound_report(phi))
    return rng, reps


def _one_case_at_a_time(check, lemma, cases):
    merged = LemmaReport(lemma)
    for case in cases:
        merged.merge(check([case]))
    return merged


def _same_report(a, b):
    return (a.instances, dict(a.skip_reasons), a.violations, a.worst_margin.hex()) == (
        b.instances, dict(b.skip_reasons), b.violations, b.worst_margin.hex())


def test_edge_cut_lemma_over_a_stream_is_its_cases_merged():
    rng, reps = _mixed_reports(31)
    cases = []
    for k, rep in enumerate(reps):
        n = rep.phi.graph.n
        vs = [set(), [rng.randrange(n)], rng.sample(range(n), rng.randint(0, n))][k % 3]
        cases.append((rep, vs))
    whole = check_edge_cut_lemma(cases)
    assert _same_report(whole, _one_case_at_a_time(
        check_edge_cut_lemma, "edge_cut_monotonicity", cases))
    assert whole.ok and whole.instances == len(cases) > 64
    assert whole.worst_margin == 0.0  # the empty cuts


def test_subgraph_lemma_over_a_stream_is_its_cases_merged():
    from gainspec.corpus import component_split

    rng, reps = _mixed_reports(37)
    cases, extremal_splits = [], 0
    for rep in reps:
        g = rep.phi.graph
        inside = component_split(g, rng) if rep.structurally_extremal else None
        extremal_splits += inside is not None
        cases.append((rep, inside or rng.sample(range(g.n), rng.randint(0, g.n))))
    # C4 minus opposite vertices: not additive
    cases.append((bound_report(all_ones(cycle_graph(4))), {0, 2}))
    whole = check_subgraph_lemma(cases)
    assert _same_report(whole, _one_case_at_a_time(
        check_subgraph_lemma, "tight_subgraph_propagation", cases))
    assert whole.ok and whole.instances + whole.skips == len(cases) > 64
    assert whole.skip_reasons["matching number not additive over the split"] > 1
    assert extremal_splits > 8


def test_pendant_lemma_over_a_stream_is_its_reports_merged():
    from gainspec.corpus import random_tree

    rng = random.Random(41)
    members = []
    for k in range(72):
        if k % 6 == 5:
            g = [cycle_graph(4), path_graph(2), complete_graph(3)][k % 3]
            members.append(bound_report(all_ones(g)))
        else:
            tree = random_tree(3 + k % 9, rng)
            members.append(bound_report(random_gain_graph(tree, rng)))
    members.append(
        bound_report(all_ones(disjoint_union(path_graph(2), path_graph(2))))
    )
    whole = check_pendant_lemma(members)
    assert _same_report(whole, _one_case_at_a_time(
        check_pendant_lemma, "pendant_strictness", members))
    assert whole.ok and whole.instances == 60 and whole.skips == 13


def test_lemma_suite_judges_through_every_checker(monkeypatch):
    from gainspec import bounds

    active, entered, solving = [], set(), set()

    def entering(name, check):
        def wrapper(*args, **kwargs):
            entered.add(name)
            active.append(name)
            try:
                return check(*args, **kwargs)
            finally:
                active.pop()
        return wrapper

    for name in dir(bounds):
        if name.startswith("check_") and name.endswith("_lemma"):
            monkeypatch.setattr(bounds, name, entering(name, getattr(bounds, name)))
    real_eigh = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        solving.update(active)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    run_lemma_suite(seed=1, trials=40, nmax=6)
    assert len(entered) == len(LEMMA_ORDER) == 7
    assert {"check_edge_cut_lemma", "check_subgraph_lemma"} <= solving
