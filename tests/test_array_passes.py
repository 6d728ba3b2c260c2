"""The edge-array path of the O(m) graph passes, the cached arrays behind
it, and the trusted constructors that skip re-checking copied values.

Under the ``array_paths`` fixture adjacency and the balance scan run on the
arrays at every size; each result is compared with the loop form, computed
on a fresh copy of the same graph with the order switch out of reach.  The
graph and gain tests collected below run again under the fixture, against
their oracles.
"""

import math
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
        us, vs = psi.graph._edge_array
        z = psi._gain_array
        assert list(zip(us.tolist(), vs.tolist())) == sorted(psi.graph.edges)
        assert z.tolist() == [psi.forward[e] for e in sorted(psi.graph.edges)]
        for a in (us, vs, z):
            with pytest.raises(ValueError):
                a[0] = 0


def test_component_spectrum_is_the_same_from_either_array_source():
    phi = CASES["K_tt union perturbed by 0.5"]
    parsed = parse_gain_graph(serialize_gain_graph(phi))
    assert np.array_equal(
        spectra._component_eigenvalues(parsed), spectra._component_eigenvalues(fresh(parsed))
    )


# ---------------------------------------------------------------------------
# Trusted constructors.
# ---------------------------------------------------------------------------


def _producers():
    rng = random.Random(3)
    phi = random_gain_graph(gnp_graph(12, 0.5, rng), rng)
    cut = sorted(phi.graph.edges)[::3]
    keep = [0, 2, 3, 5, 8, 9, 11]
    h = graphs.path_graph(3)
    yield (
        delete_gain_edges(phi, cut),
        GainGraph(graphs.delete_edges(phi.graph, cut),
                  {e: z for e, z in phi.forward.items() if e not in set(cut)}),
        phi,
    )
    g2, relabel = graphs.induced_subgraph(phi.graph, keep)
    yield (
        induced_gain_subgraph(phi, keep),
        GainGraph(g2, {(relabel[u], relabel[v]): z for (u, v), z in phi.forward.items()
                       if u in relabel and v in relabel}),
        phi,
    )
    kg = graphs.kronecker_graph(phi.graph, h)
    yield (
        kronecker(phi, h),
        GainGraph(kg, {(i, j): phi.forward[(i // h.n, j // h.n)] for i, j in kg.edges}),
        phi,
    )
    text = serialize_gain_graph(phi)
    yield parse_gain_graph(text), fileio._parse_lines(text), phi


@pytest.mark.parametrize("made, public, source", list(_producers()))
def test_trusted_producers_equal_public_construction(made, public, source):
    assert made.graph == public.graph
    assert set(made.forward.items()) == set(public.forward.items())
    assert isinstance(made.forward, MappingProxyType)
    assert made.forward is not source.forward
    with pytest.raises(TypeError):
        made.forward[next(iter(made.forward))] = 1.0


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
    ],
)
def test_public_constructors_keep_every_check(build):
    with pytest.raises(ValueError):
        build()
