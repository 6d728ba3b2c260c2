import copy
import math
import pickle
import random
import re
from collections import deque

import numpy as np
import pytest

from conftest import disjoint_union, has_odd_cycle_bruteforce
from gainspec import (
    Graph,
    bipartition,
    chorded_six_cycle,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    delete_edges,
    edge_cut,
    empty_graph,
    gains,
    gnp_graph,
    graphs,
    induced_subgraph,
    is_connected,
    kronecker_graph,
    named_graph,
    path_graph,
    pendant_vertices,
    star_graph,
)
from gainspec.corpus import extremal_union, ktt_union_graph, random_tree


def test_construction_validates():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(-1, frozenset())
    # vertices are integers: a bool or a float is neither an endpoint nor n
    for n, edges in [(3, {(0, True)}), (3, {(0, 1.5)}), (2.5, frozenset()),
                     (True, frozenset())]:
        with pytest.raises(ValueError):
            Graph(n, edges)
    # a member that is not a pair is refused as one, not by a TypeError
    with pytest.raises(ValueError, match="^edges must be pairs of integer vertices$"):
        Graph(3, [1, 2])
    # the array constructor takes distinct edges in ascending order only
    for us, vs in [([1, 0], [2, 3]), ([0, 0], [1, 1]), ([0], [0]), ([0], [4])]:
        with pytest.raises(ValueError):
            Graph.from_arrays(4, us, vs)
    # duplicates collapse, orientation normalizes
    g = Graph.from_edges(3, [(1, 0), (0, 1)])
    assert g.edges == {(0, 1)}


@pytest.mark.parametrize("edges", [[[0, 1]], [(0, 1.0)], [("0", "1")]])
def test_a_malformed_edge_gets_the_one_edge_error(edges):
    # a list pair, a float or a string endpoint: not a TypeError, and not the
    # array constructor's error about arrays the caller never passed
    with pytest.raises(ValueError, match="^edges must be pairs of integer vertices$"):
        Graph(3, edges)


@pytest.mark.parametrize(
    "g, n, m",
    [
        (complete_bipartite(3, 3), 6, 9),
        (chorded_six_cycle(), 6, 7),
        (path_graph(4), 4, 3),
        (cycle_graph(5), 5, 5),
        (star_graph(4), 5, 4),
        (complete_graph(4), 4, 6),
        (empty_graph(0), 0, 0),
    ],
)
def test_named_sizes(g, n, m):
    assert g.n == n and g.m == m


def test_named_graph_dispatch():
    assert named_graph("path", 4) == path_graph(4)
    assert named_graph("c6tilde") == chorded_six_cycle()
    with pytest.raises(ValueError):
        named_graph("cycle", 2)
    with pytest.raises(ValueError):
        named_graph("moebius", 5)
    with pytest.raises(ValueError):
        named_graph("path")


def test_induced_subgraph_pair():
    c4 = cycle_graph(4)
    sub, relabel = induced_subgraph(c4, {0, 1})
    assert sub == Graph.from_edges(2, [(0, 1)])
    assert relabel == {0: 0, 1: 1}

    sub, _ = induced_subgraph(c4, set())
    assert sub == empty_graph(0)

    with pytest.raises(ValueError):
        induced_subgraph(c4, {0, 7})


@pytest.mark.parametrize("v", [-1, 4])
def test_neighbors_and_degree_refuse_a_vertex_out_of_range(v):
    g = path_graph(4)
    with pytest.raises(ValueError, match=f"vertex {v} out of range for n=4"):
        g.neighbors(v)
    with pytest.raises(ValueError, match=f"vertex {v} out of range for n=4"):
        g.degree(v)
    assert g.neighbors(3) == (2,) and g.degree(0) == 1


@pytest.mark.parametrize(
    "vs", [[0, True], [True], [1, True], [1.0, 2.0], [1.5], [np.True_]]
)
def test_vertex_sets_refuse_bool_and_non_integer_vertices(vs):
    g = path_graph(4)
    with pytest.raises(ValueError, match="is not an integer"):
        induced_subgraph(g, vs)
    with pytest.raises(ValueError, match="is not an integer"):
        gains.induced_gain_subgraph(gains.all_ones(g), vs)
    with pytest.raises(ValueError, match="is not an integer"):
        edge_cut(g, vs)


def test_vertex_sets_take_numpy_integers():
    g = path_graph(4)
    vs = np.array([1, 2])
    assert induced_subgraph(g, vs)[0] == induced_subgraph(g, [1, 2])[0]
    assert edge_cut(g, vs) == edge_cut(g, [1, 2]) == {(0, 1), (2, 3)}


def test_per_vertex_accessors_refuse_bool_and_non_integer_vertices():
    g = path_graph(4)
    phi = gains.all_ones(g)
    calls = [
        lambda: g.degree(True),
        lambda: g.neighbors(True),
        lambda: g.has_edge(True, 2),
        lambda: phi.gain(True, 2),
        lambda: phi.gain(0.0, 1.0),
        lambda: gains.set_gain(phi, True, 2, 1j),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="is not an integer"):
            call()
    # integers out of range keep their answers, numpy integers are vertices
    assert not g.has_edge(-1, 0) and not g.has_edge(2, 4) and not g.has_edge(9, 2)
    with pytest.raises(ValueError, match=r"^\(0, 9\) is not an edge$"):
        phi.gain(0, 9)
    v = np.int64(1)
    assert g.degree(v) == 2 and g.neighbors(v) == (0, 2) and g.has_edge(v, 2)
    assert phi.gain(v, np.int64(2)) == 1


def test_induced_subgraph_of_chorded_hexagon():
    # {v1, v2, v5, v6} = {0, 1, 4, 5} keeps the chord {1, 4}: a 4-cycle,
    # with edges (in relabeled vertices) 01, 12, 23, 03
    sub, _ = induced_subgraph(chorded_six_cycle(), {0, 1, 4, 5})
    assert sub == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # {v6, v1, v2, v3} = {5, 0, 1, 2} avoids the chord: the 4-path 3-0-1-2
    sub, _ = induced_subgraph(chorded_six_cycle(), {5, 0, 1, 2})
    assert sub.m == 3
    assert sorted(sub.degree(v) for v in range(4)) == [1, 1, 2, 2]


def test_induced_subgraph_full_identity():
    rng = random.Random(5)
    for _ in range(20):
        g = gnp_graph(rng.randrange(9), 0.5, rng)
        assert induced_subgraph(g, range(g.n))[0] == g


def test_components():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert components(g) == [(0, 1), (2, 3)]
    assert components(complete_bipartite(3, 3)) == [(0, 1, 2, 3, 4, 5)]
    assert components(empty_graph(3)) == [(0,), (1,), (2,)]
    assert is_connected(complete_bipartite(3, 3))
    assert not is_connected(empty_graph(2))
    assert is_connected(empty_graph(0))


def test_bipartition_basics():
    bip = bipartition(cycle_graph(4))
    assert bip.is_bipartite
    assert bip.side[0] != bip.side[1] and bip.side[0] == bip.side[2]

    assert not bipartition(cycle_graph(3)).is_bipartite

    bip = bipartition(chorded_six_cycle())
    assert bip.is_bipartite
    x, y = ([v for v in bip.components[0] if bip.side[v] == s] for s in (0, 1))
    assert {len(x), len(y)} == {3}


def test_bipartition_against_odd_cycle_oracle():
    rng = random.Random(7)
    for _ in range(60):
        g = gnp_graph(rng.randrange(1, 9), rng.choice((0.3, 0.5, 0.8)), rng)
        assert bipartition(g).is_bipartite == (not has_odd_cycle_bruteforce(g))


def reference_bfs(g):
    """Visiting order and tree parents of a plain queue BFS, roots and
    neighbours ascending, on adjacency rebuilt from the edge set."""
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    order, parent, seen = [], [-1] * g.n, [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in sorted(nbrs[u]):
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    queue.append(w)
    return tuple(order), tuple(parent)


@pytest.mark.parametrize("array_min_order", [0, math.inf], ids=["arrays", "loops"])
def test_traversal_against_networkx_on_the_graph_atlas(monkeypatch, array_min_order):
    nx = pytest.importorskip("networkx")
    monkeypatch.setattr(graphs, "ARRAY_MIN_ORDER", array_min_order)
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for h in atlas:
        g = Graph.from_edges(h.number_of_nodes(), h.edges())
        bip = bipartition(g)
        assert list(bip.components) == sorted(
            tuple(sorted(c)) for c in nx.connected_components(h)
        )
        for comp, exists in zip(bip.components, bip.exists, strict=True):
            block = h.subgraph(comp)
            assert exists == nx.is_bipartite(block)
            if exists:
                assert all(bip.side[u] != bip.side[v] for u, v in block.edges)
        # balance witnesses and violating cycles are read off this forest
        assert g._forest[:2] == reference_bfs(g)


def test_edge_cut():
    assert edge_cut(Graph.from_edges(2, [(0, 1)]), {0}) == {(0, 1)}
    k22 = complete_bipartite(2, 2)
    assert edge_cut(k22, {0, 1}) == k22.edges
    c6 = cycle_graph(6)
    assert edge_cut(c6, {0, 1, 2}) == {(2, 3), (0, 5)}
    assert edge_cut(c6, set()) == frozenset()


def test_edge_cut_separates():
    rng = random.Random(11)
    for _ in range(40):
        g = gnp_graph(rng.randrange(2, 9), 0.5, rng)
        vs = set(rng.sample(range(g.n), rng.randint(0, g.n)))
        cut = edge_cut(g, vs)
        rest = delete_edges(g, cut)
        for comp in components(rest):
            inside = [v in vs for v in comp]
            assert all(inside) or not any(inside)


def test_delete_edges():
    assert delete_edges(Graph.from_edges(2, [(0, 1)]), [(0, 1)]) == empty_graph(2)
    p4 = delete_edges(cycle_graph(4), [(0, 3)])
    assert p4 == path_graph(4)
    # removing the chord reverts to the plain six-cycle
    assert delete_edges(chorded_six_cycle(), [(1, 4)]) == cycle_graph(6)
    with pytest.raises(ValueError):
        delete_edges(cycle_graph(4), [(0, 2)])


def test_delete_edges_counts_each_cut_pair_once_and_names_the_non_edges():
    # a pair given in both orientations, or twice, is one edge of the cut
    c4 = cycle_graph(4)
    assert delete_edges(c4, [(0, 1), (1, 0), (0, 1)]) == delete_edges(c4, [(0, 1)])
    for cut, named in (([(0, 1), (2, 0)], "[(0, 2)]"), ([(1, 1), (3, 2), (3, 1)],
                                                         "[(1, 1), (1, 3)]")):
        with pytest.raises(ValueError, match=rf"^not edges of the graph: {re.escape(named)}$"):
            delete_edges(c4, cut)


def test_has_edge_builds_no_adjacency_and_agrees_with_the_edges():
    from gainspec import fileio

    rng = random.Random(53)
    for n in (10, 40):
        g = gnp_graph(n, 0.3, rng)
        text = fileio.serialize_gain_graph(gains.all_ones(g))
        assert fileio._parse_canonical(text) is not None
        parsed = fileio.parse_gain_graph(text).graph
        for u in range(-1, n + 1):
            for v in range(-1, n + 1):
                assert parsed.has_edge(u, v) == ((min(u, v), max(u, v)) in g.edges)
        assert "_adjacency" not in parsed.__dict__


def test_pendant_vertices():
    assert pendant_vertices(path_graph(4)) == {0, 3}
    assert pendant_vertices(cycle_graph(4)) == frozenset()
    assert pendant_vertices(star_graph(4)) == {1, 2, 3, 4}


def test_disjoint_union_offsets():
    g = disjoint_union(Graph.from_edges(2, [(0, 1)]), Graph.from_edges(2, [(0, 1)]))
    assert g == Graph.from_edges(4, [(0, 1), (2, 3)])


def test_ktt_union_graph_numbers_like_chained_disjoint_unions():
    for parts, isolated in (([], 0), ([], 3), ([1], 0), ([3, 1, 2], 2), ([4, 4], 1)):
        chained = empty_graph(0)
        for t in parts:
            chained = disjoint_union(chained, complete_bipartite(t, t))
        chained = disjoint_union(chained, empty_graph(isolated))
        assert ktt_union_graph(parts, isolated) == chained
    for parts, isolated in (([2, 0], 0), ([2], -1)):
        with pytest.raises(ValueError):
            ktt_union_graph(parts, isolated)


def test_kronecker_graph_small_cases():
    k2 = complete_graph(2)
    assert kronecker_graph(k2, k2) == Graph.from_edges(4, [(0, 3), (1, 2)])
    # triangle times an edge is the six-cycle 0-3-4-1-2-5-0
    prod = kronecker_graph(cycle_graph(3), k2)
    assert prod == Graph.from_edges(
        6, [(0, 3), (0, 5), (1, 2), (1, 4), (2, 5), (3, 4)]
    )
    assert all(prod.degree(v) == 2 for v in range(6))
    assert kronecker_graph(empty_graph(0), cycle_graph(5)) == empty_graph(0)
    assert kronecker_graph(empty_graph(3), k2) == empty_graph(6)


def test_kronecker_with_edge_doubles_edges_and_is_bipartite():
    rng = random.Random(13)
    k2 = complete_graph(2)
    for _ in range(30):
        g = gnp_graph(rng.randrange(1, 8), 0.5, rng)
        prod = kronecker_graph(g, k2)
        assert prod.m == 2 * g.m
        assert bipartition(prod).is_bipartite


def test_kronecker_double_connectivity_characterization():
    rng = random.Random(17)
    k2 = complete_graph(2)
    checked_both = set()
    for _ in range(80):
        g = gnp_graph(rng.randrange(1, 8), rng.choice((0.3, 0.5, 0.8)), rng)
        expected = is_connected(g) and not bipartition(g).is_bipartite
        assert is_connected(kronecker_graph(g, k2)) == expected
        checked_both.add(expected)
    assert checked_both == {True, False}


def test_gnp_determinism_and_range():
    a = gnp_graph(8, 0.5, random.Random(3))
    b = gnp_graph(8, 0.5, random.Random(3))
    assert a == b
    with pytest.raises(ValueError):
        gnp_graph(4, 1.5, random.Random(0))


def test_gnp_and_random_tree_check_their_counts():
    for bad in (5.0, True, -1):
        with pytest.raises(ValueError, match="G\\(n, p\\) needs an integer n >= 0"):
            gnp_graph(bad, 0.5, random.Random(0))
    for bad in (2.5, 0, False):
        with pytest.raises(ValueError, match="a tree needs at least one vertex"):
            random_tree(bad, random.Random(0))
    assert gnp_graph(np.int64(4), 1.0, random.Random(0)) == complete_graph(4)
    assert random_tree(np.int64(1), random.Random(0)) == empty_graph(1)


def _relabelling_cases():
    rng = random.Random(23)
    yield gains.random_gain_graph(ktt_union_graph([1] * 2048), rng)
    yield extremal_union([1, 2, 3] * 325, isolated=5, switch_seed=4)
    yield gains.random_gain_graph(gnp_graph(1000, 0.002, rng), rng)
    for n in (32, 47, 64, 100, 150, 225, 300):
        p = rng.choice((0.5, 1.0, 2.0, 4.0)) / n
        yield gains.random_gain_graph(gnp_graph(n, p, rng), rng)


@pytest.mark.parametrize("phi", _relabelling_cases())
def test_one_relabelling_of_every_component_equals_one_per_component(phi):
    comps = components(phi.graph)
    parts = list(graphs._induced(phi.graph, comps))
    assert len(parts) == len(comps)
    for comp, (sub, e) in zip(comps, parts):
        want = gains.induced_gain_subgraph(phi, comp)
        assert np.array_equal(sub.us, want.graph.us)
        assert np.array_equal(sub.vs, want.graph.vs) and sub.n == want.graph.n
        assert phi.gains[e].tobytes() == want.gains.tobytes()
    assert sum(len(e) for _, e in parts) == phi.graph.m


def test_relabelling_of_several_sets_keeps_each_in_sorted_order():
    g = chorded_six_cycle()
    (a, ea), (b, eb), (c, ec) = graphs._induced(g, [{4, 1, 5}, [0, 3], []])
    assert (a, b, c) == (induced_subgraph(g, [1, 4, 5])[0],
                         induced_subgraph(g, [0, 3])[0], empty_graph(0))
    assert [(g.us[i], g.vs[i]) for i in ea] == [(1, 4), (4, 5)]
    assert len(eb) == len(ec) == 0
    with pytest.raises(ValueError, match="^vertex sets must be disjoint$"):
        graphs._induced(g, [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="out of range"):
        graphs._induced(g, [[0], [6]])


def _induced_forms(g, sets):
    """Each part of ``graphs._induced(g, sets)`` as plain values, or the
    error it raises."""
    try:
        parts = list(graphs._induced(g, sets))
    except ValueError as err:
        return str(err)
    return [(sub.n, sub.us.tolist(), sub.vs.tolist(), e.dtype, e.tolist())
            for sub, e in parts]


def test_induced_loop_path_equals_the_array_path(monkeypatch):
    # below ARRAY_MIN_ORDER the sets and edges are grouped by Python loops;
    # at 0 every order takes the argsort path
    rng = random.Random(29)
    errors = 0
    for _ in range(300):
        n = rng.randrange(32)
        g = gnp_graph(n, rng.random(), rng)
        label = [rng.randrange(5) for _ in range(n)]
        k = rng.randint(1, 4)  # a label from k on is in no set
        sets = [[v for v in range(n) if label[v] == i] for i in range(k)]
        if n and rng.random() < 0.2:  # one vertex in two sets
            v = rng.randrange(n)
            sets[rng.randrange(len(sets))].append(v)
            sets.append([v])
        loops = _induced_forms(g, sets)
        with monkeypatch.context() as m:
            m.setattr(graphs, "ARRAY_MIN_ORDER", 0)
            assert _induced_forms(g, sets) == loops
        errors += isinstance(loops, str)
    assert 0 < errors < 300


@pytest.mark.parametrize("n", [5, graphs.ARRAY_MIN_ORDER + 3])
def test_graph_endpoints_cannot_be_made_writable(n):
    g = path_graph(n)
    copies = [g, pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)]
    for h in copies:
        for arr in (h.us, h.vs):
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.flags.writeable = True
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 99
    assert all(h == path_graph(n) and h.us[0] == 0 for h in copies)
