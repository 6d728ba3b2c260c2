"""The edge-array path of the O(m) graph passes, the endpoint and gain
arrays behind it, and the one validating constructor of each value that
every producer goes through.

Under the ``array_paths`` fixture adjacency and the balance scan run on the
arrays at every size; each result is compared with the loop form, computed
on a fresh copy of the same graph with the order switch out of reach.  The
graph and gain tests collected below run again under the fixture, against
their oracles.
"""

import math
import pickle
import random
from types import MappingProxyType

import numpy as np
import pytest

from conftest import disjoint_union
from gainspec import (
    GainGraph,
    Graph,
    all_ones,
    complete_bipartite,
    cycle_graph,
    delete_gain_edges,
    fileio,
    gain_graph,
    gnp_graph,
    graphs,
    induced_gain_subgraph,
    is_balanced,
    kronecker,
    parse_gain_graph,
    random_gain_graph,
    random_switching,
    serialize_gain_graph,
    set_gain,
    spectra,
    switch,
    unit_from_angle,
)
from gainspec.corpus import ktt_union_graph
from gainspec.gains import gain_angle
from test_gains import (  # noqa: F401
    test_balance_is_switching_invariant,
    test_balanced_witness_switches_to_all_ones,
    test_is_balanced_matches_oracles,
    test_is_balanced_trivial_cases,
    test_is_balanced_unbalanced_witness,
)
from test_graphs import (  # noqa: F401
    test_bipartition_against_odd_cycle_oracle,
    test_bipartition_basics,
    test_components,
    test_kronecker_double_connectivity_characterization,
    test_kronecker_with_edge_doubles_edges_and_is_bipartite,
)

pytestmark = pytest.mark.usefixtures("array_paths")


def fresh(phi):
    """An equal gain graph with nothing cached, built by the public constructors."""
    return GainGraph(Graph(phi.graph.n, phi.graph.edges), dict(phi.forward))


def forms(phi):
    g = phi.graph
    cert = is_balanced(phi)
    witness = cert.witness.values if cert.witness else None
    return (
        g._adjacency,
        g._bipartition,
        (cert.balanced, witness, cert.violating_cycle, cert.violation_gain),
    )


def loop_forms(phi):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "ARRAY_MIN_ORDER", math.inf)
        return forms(fresh(phi))


def switched(g, rng):
    return switch(all_ones(g), random_switching(g.n, rng))


def rotate_edge(phi, k, delta):
    """``phi`` with the gain of its k-th edge (ascending order) turned by delta."""
    u, v = sorted(phi.graph.edges)[k % phi.graph.m]
    return set_gain(phi, u, v, phi.gain(u, v) * unit_from_angle(delta))


def _cases():
    rng = random.Random(11)
    blocks = disjoint_union(complete_bipartite(30, 30), complete_bipartite(20, 20))
    dense = gnp_graph(100, 1.0, rng)  # 4950 edges
    cases = {
        "balanced K_tt union": switched(blocks, rng),
        "balanced dense": switched(dense, rng),
        "balanced sparse": switched(gnp_graph(400, 0.01, rng), rng),
        "random gains": random_gain_graph(gnp_graph(80, 0.3, rng), rng),
        "all ones odd cycle": all_ones(cycle_graph(301)),
        "forest": switched(graphs.path_graph(300), rng),
    }
    for delta in (1e-3, 0.5, math.pi):
        cases[f"K_tt union perturbed by {delta:g}"] = rotate_edge(
            cases["balanced K_tt union"], 777, delta
        )
        cases[f"dense perturbed by {delta:g}"] = rotate_edge(cases["balanced dense"], 4000, delta)
    # Near BALANCE_TOL: the array screen flags both edges, and the scalar
    # test fails the first and passes the second, as the loop does.
    for delta in (1.5e-9, 0.7e-9):
        cases[f"dense perturbed by {delta:g}"] = rotate_edge(cases["balanced dense"], 4000, delta)
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("source", ["generated", "parsed"])
def test_array_forms_equal_loop_forms(name, source):
    phi = CASES[name]
    if source == "parsed":
        phi = parse_gain_graph(serialize_gain_graph(phi))
    else:
        phi = fresh(phi)
    assert forms(phi) == loop_forms(phi)


def test_perturbed_graphs_report_the_loop_cycle():
    for delta in (1e-3, 1.5e-9):
        phi = CASES[f"dense perturbed by {delta:g}"]
        cert = is_balanced(fresh(phi))
        assert not cert.balanced
        assert cert.violating_cycle == loop_forms(phi)[2][2]
    assert is_balanced(fresh(CASES["dense perturbed by 7e-10"])).balanced


def test_edge_and_gain_arrays_are_sorted_aligned_and_read_only():
    phi = CASES["random gains"]
    for psi in (fresh(phi), parse_gain_graph(serialize_gain_graph(phi))):
        us, vs = psi.graph.us, psi.graph.vs
        z = psi.gains
        assert list(zip(us.tolist(), vs.tolist())) == sorted(psi.graph.edges)
        assert z.tolist() == [psi.forward[e] for e in sorted(psi.graph.edges)]
        for a in (us, vs, z):
            with pytest.raises(ValueError):
                a[0] = 0


def test_component_spectrum_is_the_same_from_either_array_source():
    phi = CASES["K_tt union perturbed by 0.5"]
    parsed = parse_gain_graph(serialize_gain_graph(phi))
    blocks = list(spectra._blocks(parsed))
    assert [b.shape for _, b in blocks] == [(30, 30), (20, 20)]
    for (kind, block), (fresh_kind, fresh_block) in zip(
        blocks, spectra._blocks(fresh(parsed)), strict=True
    ):
        assert kind == fresh_kind and block.shape == fresh_block.shape
        assert block.tobytes() == fresh_block.tobytes()


# ---------------------------------------------------------------------------
# Producers.  Each builds its value through the one validating constructor,
# which keeps owned, read-only arrays.
# ---------------------------------------------------------------------------


def _public(n, forward):
    """The gain graph of a dict of forward gains, built from Python pairs."""
    return GainGraph(Graph(n, list(forward)), dict(forward))


def _producers():
    """(name, build, expected, held) for every producer of graphs and gain
    graphs.  ``build()`` makes a value from what its caller holds in
    ``held``; ``expected`` is the same value built from Python pairs."""
    rng = random.Random(3)
    phi = random_gain_graph(gnp_graph(12, 0.5, rng), rng)
    g, fwd = phi.graph, dict(phi.forward)
    ones = _public(g.n, dict.fromkeys(fwd, 1.0))
    edges = sorted(g.edges, reverse=True)
    us, vs, z = g.us.copy(), g.vs.copy(), phi.gains.copy()
    store = dict(reversed(list(fwd.items())))
    cut = sorted(g.edges)[::3]
    keep = [0, 2, 3, 5, 8, 9, 11]
    relabel = {old: new for new, old in enumerate(keep)}
    a, b = cut[0]
    zeta = random_switching(g.n, rng)
    draws = random.Random(5)
    h = graphs.path_graph(3)
    kg = graphs.kronecker_graph(g, h)
    parts = [2, 1]
    text = serialize_gain_graph(phi)

    yield "Graph", lambda: Graph(g.n, edges), ones, [edges]
    flipped = [(v, u) for u, v in edges]
    yield "from_edges", lambda: Graph.from_edges(g.n, flipped), ones, [flipped]
    yield "from_arrays", lambda: Graph.from_arrays(g.n, us, vs), ones, [us, vs]
    yield "GainGraph", lambda: GainGraph(g, store), _public(g.n, fwd), [store, phi]
    yield "from_gains", lambda: GainGraph.from_gains(g, z), _public(g.n, fwd), [z, phi]
    yield "all_ones", lambda: all_ones(g), ones, [g]
    yield "gain_graph", lambda: gain_graph(g, store), _public(g.n, fwd), [store, phi]
    yield "set_gain", lambda: set_gain(phi, b, a, 1j), _public(
        g.n, {**fwd, (a, b): (1j).conjugate()}), [phi]
    yield "switch", lambda: switch(phi, zeta), _public(g.n, {
        (u, v): zeta(u).conjugate() * w * zeta(v) for (u, v), w in fwd.items()}), [phi]
    yield "random_gain_graph", lambda: random_gain_graph(g, 5), _public(g.n, {
        e: unit_from_angle(draws.uniform(0.0, 2.0 * math.pi)) for e in sorted(fwd)}), [g]
    yield "kronecker", lambda: kronecker(phi, h), _public(kg.n, {
        (i, j): fwd[(i // h.n, j // h.n)] for i, j in sorted(kg.edges)}), [phi, h]
    yield "delete_gain_edges", lambda: delete_gain_edges(phi, cut), _public(g.n, {
        e: w for e, w in fwd.items() if e not in set(cut)}), [phi, cut]
    yield "induced_gain_subgraph", lambda: induced_gain_subgraph(phi, keep), _public(
        len(keep), {(relabel[u], relabel[v]): w for (u, v), w in fwd.items()
                    if u in relabel and v in relabel}), [phi, keep]
    yield "ktt_union_graph", lambda: all_ones(ktt_union_graph(parts, 2)), _public(
        8, dict.fromkeys([(0, 2), (0, 3), (1, 2), (1, 3), (4, 5)], 1.0)), [parts]
    yield "pickle", lambda: pickle.loads(pickle.dumps(phi)), _public(g.n, fwd), [phi]
    yield "bulk parse", lambda: parse_gain_graph(text), fileio._parse_lines(text), [text]
    yield "line parse", lambda: fileio._parse_lines(text), _public(g.n, {
        e: unit_from_angle(float(f"{gain_angle(w):.17g}")) for e, w in fwd.items()}), [text]


def _arrays(value):
    """The arrays a graph or gain graph holds, by identity."""
    if isinstance(value, GainGraph):
        return {id(a): a for a in (value.graph.us, value.graph.vs, value.gains)}
    return {id(value.us): value.us, id(value.vs): value.vs}


@pytest.mark.parametrize("name", [name for name, *_ in _producers()])
def test_producers_keep_owned_read_only_arrays(name):
    build, expected, held = next(case for n, *case in _producers() if n == name)
    made = build()
    own = _arrays(made)
    for arr in own.values():
        assert not arr.flags.writeable
        assert isinstance(arr.base, bytes)  # immutable memory
        with pytest.raises(ValueError, match="WRITEABLE"):
            arr.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            arr[:1] = 0
    # A gain graph may hold the very graph it was given, an immutable value;
    # no other array it holds shares memory with one its caller holds.
    for source in held:
        theirs = _arrays(source) if isinstance(source, (Graph, GainGraph)) else {}
        for key, arr in own.items():
            assert key in theirs or not any(
                np.shares_memory(arr, a) for a in theirs.values())
    snapshot = pickle.dumps(made)
    for source in held:  # the caller changes what it passed in
        if isinstance(source, np.ndarray):
            source[:] = 0
        elif isinstance(source, (list, dict)):
            source.clear()
    assert pickle.dumps(made) == snapshot
    graph = made.graph if isinstance(made, GainGraph) else made
    assert graph == expected.graph and graph.us.dtype == graph.vs.dtype == np.intp
    if isinstance(made, GainGraph):
        assert made.gains.tobytes() == expected.gains.tobytes()
        assert list(made.forward.items()) == list(expected.forward.items())
        assert isinstance(made.forward, MappingProxyType)
        assert all(made.forward is not s.forward for s in held if isinstance(s, GainGraph))
        with pytest.raises(TypeError):
            made.forward[(0, 1)] = 1.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph(-1, frozenset()),
        lambda: Graph(3, frozenset({(1, 1)})),
        lambda: Graph(3, frozenset({(1, 0)})),
        lambda: Graph(3, frozenset({(0, 3)})),
        lambda: Graph(3, frozenset({(-1, 2)})),
        lambda: GainGraph(graphs.path_graph(3), {(0, 1): 1.0}),
        lambda: GainGraph(graphs.path_graph(2), {(0, 1): 1.0, (0, 2): 1.0}),
        lambda: GainGraph(graphs.path_graph(2), {(0, 1): 1.0 + 1e-9}),
        lambda: Graph.from_arrays(4, [1, 0], [2, 3]),
        lambda: Graph.from_arrays(4, [0, 0], [1, 1]),
        lambda: Graph.from_arrays(4, [0.0], [1.0]),
        lambda: Graph.from_arrays(4, [False], [True]),
        lambda: GainGraph.from_gains(graphs.path_graph(2), [1.0, 1.0]),
        lambda: Graph(3, [1, 2]),
        lambda: ktt_union_graph([True]),
        lambda: complete_bipartite(2.0, 1),
    ],
)
def test_public_constructors_keep_every_check(build):
    with pytest.raises(ValueError):
        build()
