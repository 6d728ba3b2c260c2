import random

import pytest

from gainspec import matching

from conftest import disjoint_union, matching_oracle, petersen
from gainspec import (
    Graph,
    chorded_six_cycle,
    complete_bipartite,
    cycle_graph,
    delete_edges,
    empty_graph,
    gnp_graph,
    MatchingResult,
    maximum_matching,
    path_graph,
    star_graph,
)


def test_fixture_matching_numbers():
    assert maximum_matching(path_graph(4)).mu == 2
    assert maximum_matching(star_graph(4)).mu == 1
    assert maximum_matching(petersen()).mu == 5
    assert maximum_matching(chorded_six_cycle()).mu == 3
    assert maximum_matching(empty_graph(5)).mu == 0


def test_oracle_matches_on_fixtures():
    for g in (path_graph(4), star_graph(4), petersen(), chorded_six_cycle()):
        assert matching_oracle(g) == maximum_matching(g).mu


def test_result_invariants_and_determinism():
    rng = random.Random(3)
    for _ in range(40):
        g = gnp_graph(rng.randrange(0, 9), rng.choice((0.3, 0.5, 0.8)), rng)
        res = maximum_matching(g)
        assert res.matched_edges <= g.edges
        touched = [v for e in res.matched_edges for v in e]
        assert len(touched) == len(set(touched))
        assert res.saturated == frozenset(touched)
        assert res.mu == len(res.matched_edges)
        assert res == maximum_matching(g)


def test_blossom_handles_odd_structures():
    # triangle with a tail: the blossom case bipartite augmenting misses
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    assert maximum_matching(g).mu == 2 == matching_oracle(g)
    # two triangles joined by a bridge: perfect matching exists
    g = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )
    assert maximum_matching(g).mu == 3 == matching_oracle(g)


def test_blossom_agrees_with_oracle_randomly():
    rng = random.Random(5)
    for _ in range(150):
        g = gnp_graph(rng.randrange(0, 9), rng.choice((0.3, 0.5, 0.8)), rng)
        assert maximum_matching(g).mu == matching_oracle(g)


def test_perfect_matching():
    for g, perfect in (
        (complete_bipartite(3, 3), True),
        (cycle_graph(5), False),
        (chorded_six_cycle(), True),
        (empty_graph(0), True),
        (empty_graph(2), False),
    ):
        assert (2 * maximum_matching(g).mu == g.n) == perfect
    # the explicit matching {01, 23, 45} certifies it
    m = {(0, 1), (2, 3), (4, 5)}
    assert m <= chorded_six_cycle().edges


@pytest.mark.parametrize("n", range(1, 8))
def test_matching_number_formulas(n):
    assert maximum_matching(complete_bipartite(n, n)).mu == n
    assert maximum_matching(path_graph(n)).mu == n // 2
    if n >= 3:
        assert maximum_matching(cycle_graph(n)).mu == n // 2


def test_additivity_over_components():
    rng = random.Random(7)
    for _ in range(20):
        a = gnp_graph(rng.randrange(0, 6), 0.5, rng)
        b = gnp_graph(rng.randrange(0, 6), 0.5, rng)
        assert (
            maximum_matching(disjoint_union(a, b)).mu
            == maximum_matching(a).mu + maximum_matching(b).mu
        )


def test_edge_deletion_monotonicity():
    rng = random.Random(11)
    for _ in range(25):
        g = gnp_graph(rng.randrange(2, 9), 0.6, rng)
        if not g.edges:
            continue
        mu = maximum_matching(g).mu
        edge = sorted(g.edges)[rng.randrange(g.m)]
        mu_less = maximum_matching(delete_edges(g, [edge])).mu
        assert mu - 1 <= mu_less <= mu


def test_oracle_size_limit():
    with pytest.raises(ValueError):
        matching_oracle(empty_graph(13))


def test_blossom_agrees_with_networkx_beyond_oracle_range():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    cases = [(n, p) for n in (13, 17, 24, 31) for p in (0.3, 0.5, 0.8)]
    cases += [(n, p) for n in (60, 101, 200) for p in (2.5 / n, 6.0 / n, 0.3)]
    for n, p in cases:
        g = gnp_graph(n, p, rng)
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges)
        expected = len(nx.max_weight_matching(ref, maxcardinality=True))
        assert maximum_matching(g).mu == expected, (n, p)


def test_an_isolated_root_starts_no_alternating_search(monkeypatch):
    real = matching._alternating_bfs
    roots = []

    def counting(root, adj, match):
        roots.append(root)
        return real(root, adj, match)

    monkeypatch.setattr(matching, "_alternating_bfs", counting)
    # the greedy seed matches 0-1 and leaves 2 exposed; 3..7 have no neighbour
    result = maximum_matching(Graph.from_edges(8, [(0, 1), (1, 2)]))
    assert roots == [2] and result.mu == 1
    roots.clear()
    assert maximum_matching(empty_graph(40)).mu == 0 and roots == []


def test_matching_result_keeps_its_own_frozen_sets():
    edges = {(0, 1)}
    result = MatchingResult(edges)
    edges.add((2, 3))
    assert result.matched_edges == frozenset({(0, 1)})
    assert result.mu == 1 and result.saturated == frozenset({0, 1})
    assert type(result.matched_edges) is frozenset
    assert hash(result) == hash(MatchingResult(frozenset({(0, 1)})))
