import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from gainspec import (
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
    disjoint_union,
    empty_graph,
    gnp_graph,
    is_extremal_structure,
    path_graph,
    random_gain_graph,
    random_switching,
    run_lemma_suite,
    set_gain,
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
from gainspec.corpus import extremal_union, part_multisets
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
    rep = check_edge_cut_lemma(bound_report(all_ones(complete_graph(2))), {0})
    assert rep.ok and rep.instances == 1
    assert rep.worst_margin == pytest.approx(2.0, abs=1e-9)  # strict star drop

    rep = check_edge_cut_lemma(bound_report(all_ones(complete_bipartite(2, 2))), {0, 1})
    assert rep.ok
    assert rep.worst_margin == pytest.approx(4.0, abs=1e-9)

    # empty cut: energy unchanged, monotonicity holds with margin 0
    rep = check_edge_cut_lemma(bound_report(all_ones(cycle_graph(4))), set())
    assert rep.ok and rep.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_edge_cut_lemma_random_sweep():
    rng = random.Random(7)
    rep = LemmaReport("edge_cut_monotonicity")
    for _ in range(60):
        g = gnp_graph(rng.randrange(2, 10), rng.choice((0.3, 0.5, 0.8)), rng)
        phi = random_gain_graph(g, rng)
        vs = rng.sample(range(g.n), rng.randint(0, g.n))
        check_edge_cut_lemma(bound_report(phi), vs, rep)
    assert rep.ok and rep.instances == 60


def test_pendant_lemma():
    rep = check_pendant_lemma(bound_report(all_ones(path_graph(3))))
    assert rep.ok and rep.worst_margin == pytest.approx(
        2 * math.sqrt(2) - 2, abs=1e-9
    )
    rep = check_pendant_lemma(bound_report(all_ones(star_graph(4))))
    assert rep.ok and rep.worst_margin == pytest.approx(2.0, abs=1e-9)

    # preconditions produce skips, never passes
    rep = check_pendant_lemma(bound_report(all_ones(cycle_graph(4))))
    assert rep.instances == 0 and rep.skips == 1
    rep = check_pendant_lemma(
        bound_report(all_ones(disjoint_union(path_graph(2), path_graph(2))))
    )
    assert rep.instances == 0 and rep.skip_reasons["not connected"] == 1
    rep = check_pendant_lemma(bound_report(all_ones(path_graph(2))))
    assert rep.instances == 0 and rep.skips == 1


def test_pendant_lemma_random_trees():
    from gainspec.corpus import random_tree

    rng = random.Random(11)
    rep = LemmaReport("pendant_strictness")
    for _ in range(40):
        tree = random_tree(rng.randrange(3, 10), rng)
        check_pendant_lemma(bound_report(random_gain_graph(tree, rng)), rep)
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
    rep = check_subgraph_lemma(bound_report(phi), {4, 5})
    assert rep.ok and rep.instances == 1

    # inside one tight block: an edge plus its complement split additively
    phi = all_ones(complete_bipartite(3, 3))
    rep = check_subgraph_lemma(bound_report(phi), {0, 3})
    assert rep.ok and rep.instances == 1

    # non-tight instances pass vacuously
    rep = check_subgraph_lemma(bound_report(all_ones(chorded_six_cycle())), {0, 1})
    assert rep.ok

    # non-additive split records a skip: C4 minus opposite vertices
    rep = check_subgraph_lemma(bound_report(all_ones(cycle_graph(4))), {0, 2})
    assert rep.instances == 0 and rep.skips == 1


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
    real_report = bounds.bound_report

    def counting_report(phi):
        analysed.append(phi)
        return real_report(phi)

    monkeypatch.setattr(bounds, "bound_report", counting_report)
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
    lemma = check_edge_cut_lemma(rep, set())
    assert solves == [] and lemma.ok and lemma.worst_margin == 0.0

    # a tight split matches each side once; the subgraph gap reuses mu1
    rep = bound_report(all_ones(complete_bipartite(3, 3)))
    matched = []
    real_matching = bounds.maximum_matching

    def counting_matching(g):
        matched.append(g)
        return real_matching(g)

    monkeypatch.setattr(bounds, "maximum_matching", counting_matching)
    lemma = check_subgraph_lemma(rep, {0, 3})
    assert len(matched) == 2
    assert lemma.ok and lemma.instances == 1
    assert lemma.worst_margin == pytest.approx(0.0, abs=1e-9)


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
    # graphs.ARRAY_MIN_ORDER: the sweep builds no edge arrays and solves no
    # block by SVD, where the array paths would cost it per-call overhead.
    edge_array = Graph.__dict__["_edge_array"].func
    real_svd = np.linalg.svd
    built, factored = [], []

    def counting_edge_array(g):
        built.append(g.n)
        return edge_array(g)

    def counting_svd(b, *args, **kwargs):
        factored.append(b.shape)
        return real_svd(b, *args, **kwargs)

    monkeypatch.setattr(Graph, "_edge_array", property(counting_edge_array))
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    run_lemma_suite(seed=1, trials=40, nmax=16)
    assert built == [] and factored == []


def test_subgraph_lemma_judges_each_split_once(monkeypatch):
    from gainspec import bounds

    # keep every report alive so that no id is reused
    pairs, solved, matched = [], [], []
    current = []
    real_check, real_energy = bounds.check_subgraph_lemma, bounds.energy
    real_matching = bounds.maximum_matching

    def counting_check(rep, vs, report=None):
        current.append((rep, frozenset(vs)))
        pairs.append(current[-1])
        try:
            return real_check(rep, vs, report)
        finally:
            current.pop()

    def counting_energy(phi):
        solved.extend(current)
        return real_energy(phi)

    def counting_matching(g):
        matched.extend(current)
        return real_matching(g)

    monkeypatch.setattr(bounds, "check_subgraph_lemma", counting_check)
    monkeypatch.setattr(bounds, "energy", counting_energy)
    monkeypatch.setattr(bounds, "maximum_matching", counting_matching)
    reports = run_lemma_suite(seed=1, trials=40, nmax=6)
    keys = [(id(rep), vs) for rep, vs in pairs]
    assert len(set(keys)) == len(keys)
    assert len(matched) == 2 * len(keys)
    solved_keys = [(id(rep), vs) for rep, vs in solved]
    assert solved and len(set(solved_keys)) == len(solved_keys)
    # every visit still counts: the totals judging each visit gave
    subgraph = reports[LEMMA_ORDER.index(SUBGRAPH)]
    assert len(keys) < subgraph.instances + subgraph.skips
    assert (subgraph.instances, subgraph.skips) == (39, 1)
