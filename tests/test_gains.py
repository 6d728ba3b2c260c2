import cmath
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_simple_cycles,
    balanced_by_all_cycles,
    balanced_by_dfs_basis,
    gain_of_closed_walk,
)
from gainspec import (
    SwitchingFunction,
    all_ones,
    bipartite_double,
    chorded_six_cycle,
    complete_graph,
    cycle_gain,
    cycle_graph,
    delete_gain_edges,
    empty_graph,
    gain_graph,
    gnp_graph,
    induced_gain_subgraph,
    is_balanced,
    kronecker,
    kronecker_graph,
    path_graph,
    random_gain_graph,
    random_switching,
    set_gain,
    switch,
    unit,
    unit_from_angle,
)
from gainspec.gains import GainGraph
from gainspec.graphs import Graph

angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)


def test_unit_normalizes_and_rejects():
    z = unit(complex(1.0 + 4e-7, 0.0))
    assert abs(abs(z) - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        unit(0.5 + 0.0j)
    with pytest.raises(ValueError):
        unit(0.0j)


def test_all_ones():
    k2 = complete_graph(2)
    phi = all_ones(k2)
    assert phi.gain(0, 1) == 1.0 and phi.gain(1, 0) == 1.0
    assert all_ones(empty_graph(4)).forward == {}
    assert is_balanced(all_ones(cycle_graph(3))).balanced


def test_set_gain_inverse_pairs():
    phi = all_ones(complete_graph(2))
    phi = set_gain(phi, 0, 1, 1j)
    assert phi.gain(1, 0) == -1j
    phi = set_gain(phi, 1, 0, -1.0 + 0.0j)
    assert phi.gain(0, 1) == -1.0 + 0.0j  # -1 is its own inverse
    with pytest.raises(ValueError):
        set_gain(all_ones(path_graph(3)), 0, 2, 1j)
    with pytest.raises(ValueError):
        set_gain(phi, 0, 1, 0.5 + 0.0j)


def test_gain_graph_constructor_accepts_either_orientation():
    g = Graph.from_edges(2, [(0, 1)])
    phi = gain_graph(g, {(1, 0): 1j})
    assert cmath.isclose(phi.gain(0, 1), -1j)
    with pytest.raises(ValueError):
        gain_graph(g, {})  # missing an edge
    with pytest.raises(ValueError):
        gain_graph(g, {(0, 1): 1.0, (1, 0): 1j})  # inconsistent orientations


def test_gain_graph_record_rejects_non_unit_values():
    from gainspec import GainGraph

    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        GainGraph(g, {(0, 1): 0.5 + 0.0j})


NAN_GAIN = complex(math.nan, 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda g: unit(NAN_GAIN),
        lambda g: GainGraph(g, {(0, 1): NAN_GAIN}),
        lambda g: gain_graph(g, {(1, 0): NAN_GAIN}),
        lambda g: set_gain(all_ones(g), 0, 1, NAN_GAIN),
        lambda g: SwitchingFunction((1.0 + 0.0j, NAN_GAIN)),
    ],
    ids=["unit", "GainGraph", "gain_graph", "set_gain", "SwitchingFunction"],
)
def test_nan_gain_is_rejected(build):
    # abs(NaN - 1) > tol is False: every modulus check must fail NaN instead
    with pytest.raises(ValueError):
        build(Graph.from_edges(2, [(0, 1)]))


def test_orientation_inverse_invariant_random():
    rng = random.Random(23)
    for _ in range(30):
        phi = random_gain_graph(gnp_graph(rng.randrange(2, 9), 0.6, rng), rng)
        for u, v in phi.graph.edges:
            assert abs(phi.gain(u, v) * phi.gain(v, u) - 1.0) <= 1e-12


def test_cycle_gain_basic():
    assert cycle_gain(all_ones(cycle_graph(4)), [0, 1, 2, 3]) == 1.0
    phi = set_gain(all_ones(cycle_graph(3)), 0, 1, 1j)
    assert cmath.isclose(cycle_gain(phi, [0, 1, 2, 0]), 1j)
    # the closing vertex may be included or left implicit
    assert cycle_gain(phi, [0, 1, 2]) == cycle_gain(phi, [0, 1, 2, 0])


def test_cycle_gain_of_four_cycle_pattern():
    # gains 1, a, 1, b around a 4-cycle multiply to a*b
    a, b = unit_from_angle(0.9), unit_from_angle(-2.2)
    phi = gain_graph(
        cycle_graph(4),
        {(0, 1): 1.0, (1, 2): a, (2, 3): 1.0, (0, 3): b.conjugate()},
    )
    assert cmath.isclose(cycle_gain(phi, [0, 1, 2, 3]), a * b)


def test_cycle_gain_rejects_non_cycles():
    phi = all_ones(cycle_graph(4))
    with pytest.raises(ValueError):
        cycle_gain(phi, [0, 1])
    with pytest.raises(ValueError):
        cycle_gain(phi, [0, 1, 2])  # 0-2 is not an edge
    with pytest.raises(ValueError):
        cycle_gain(phi, [0, 1, 2, 1])


@given(st.lists(angles, min_size=3, max_size=8))
@settings(deadline=None)
def test_cycle_gain_reversal_conjugates(theta_list):
    k = len(theta_list)
    phi = gain_graph(
        cycle_graph(k),
        {
            tuple(sorted((i, (i + 1) % k))): (
                unit_from_angle(t)
                if i < (i + 1) % k
                else unit_from_angle(t).conjugate()
            )
            for i, t in enumerate(theta_list)
        },
    )
    forward = cycle_gain(phi, list(range(k)))
    backward = cycle_gain(phi, list(reversed(range(k))))
    assert cmath.isclose(forward, backward.conjugate(), abs_tol=1e-12)


def test_switch_identity_and_cancellation():
    phi = set_gain(all_ones(complete_graph(2)), 0, 1, 1j)
    same = switch(phi, SwitchingFunction.identity(2))
    assert same.gain(0, 1) == phi.gain(0, 1)
    cancel = switch(phi, SwitchingFunction((1.0 + 0.0j, -1j)))
    assert cmath.isclose(cancel.gain(0, 1), 1.0, abs_tol=1e-15)


def test_switch_rejects_a_function_of_the_wrong_length():
    with pytest.raises(ValueError, match="must cover every vertex"):
        switch(all_ones(complete_graph(3)), SwitchingFunction.identity(2))


@given(st.lists(angles, min_size=4, max_size=7), st.data())
@settings(deadline=None, max_examples=60)
def test_switching_preserves_cycle_gains(zeta_angles, data):
    k = len(zeta_angles)
    rng = random.Random(data.draw(st.integers(0, 2**20)))
    phi = random_gain_graph(cycle_graph(k), rng)
    zeta = SwitchingFunction.from_angles(zeta_angles)
    before = cycle_gain(phi, list(range(k)))
    after = cycle_gain(switch(phi, zeta), list(range(k)))
    assert cmath.isclose(before, after, abs_tol=1e-9)


def test_switching_preserves_all_cycle_gains_random_graphs():
    rng = random.Random(31)
    for _ in range(15):
        g = gnp_graph(rng.randrange(3, 8), 0.6, rng)
        phi = random_gain_graph(g, rng)
        zeta = random_switching(g.n, rng)
        switched = switch(phi, zeta)
        for cyc in all_simple_cycles(g):
            assert abs(
                gain_of_closed_walk(phi, cyc) - gain_of_closed_walk(switched, cyc)
            ) <= 1e-9


def test_is_balanced_trivial_cases():
    assert is_balanced(all_ones(cycle_graph(5))).balanced
    # trees are always balanced, whatever the gains
    tree = set_gain(all_ones(complete_graph(2)), 0, 1, 1j)
    cert = is_balanced(tree)
    assert cert.balanced
    assert all(abs(z) == pytest.approx(1.0) for z in cert.witness.values)


def test_is_balanced_unbalanced_witness():
    phi = set_gain(all_ones(cycle_graph(4)), 0, 1, unit_from_angle(math.pi / 3))
    cert = is_balanced(phi)
    assert not cert.balanced
    assert cert.witness is None
    assert sorted(cert.violating_cycle) == [0, 1, 2, 3]
    assert cmath.isclose(
        cert.violation_gain, unit_from_angle(math.pi / 3), abs_tol=1e-12
    ) or cmath.isclose(
        cert.violation_gain, unit_from_angle(-math.pi / 3), abs_tol=1e-12
    )
    assert abs(cert.violation_gain - 1.0) > 1e-9


def test_balanced_witness_switches_to_all_ones():
    rng = random.Random(37)
    for _ in range(25):
        g = gnp_graph(rng.randrange(2, 9), 0.6, rng)
        phi = switch(all_ones(g), random_switching(g.n, rng))  # balanced by construction
        cert = is_balanced(phi)
        assert cert.balanced
        restored = switch(phi, cert.witness)
        assert all(abs(z - 1.0) <= 1e-9 for z in restored.forward.values())


def test_is_balanced_matches_oracles():
    rng = random.Random(41)
    seen = set()
    for _ in range(60):
        g = gnp_graph(rng.randrange(2, 8), rng.choice((0.3, 0.5, 0.8)), rng)
        if rng.random() < 0.5:
            phi = random_gain_graph(g, rng)
        else:
            phi = switch(all_ones(g), random_switching(g.n, rng))
        verdict = is_balanced(phi).balanced
        seen.add(verdict)
        assert verdict == balanced_by_all_cycles(phi)
        assert verdict == balanced_by_dfs_basis(phi)
    assert seen == {True, False}


def test_balance_is_switching_invariant():
    rng = random.Random(43)
    for _ in range(20):
        g = gnp_graph(rng.randrange(2, 8), 0.5, rng)
        phi = random_gain_graph(g, rng)
        zeta = random_switching(g.n, rng)
        assert is_balanced(phi).balanced == is_balanced(switch(phi, zeta)).balanced


def test_kronecker_gain_inheritance():
    phi = set_gain(all_ones(complete_graph(2)), 0, 1, 1j)
    prod = kronecker(phi, complete_graph(2))
    assert prod.graph.edges == {(0, 3), (1, 2)}
    assert prod.gain(0, 3) == 1j and prod.gain(1, 2) == 1j


def test_kronecker_of_all_ones_is_all_ones():
    rng = random.Random(47)
    for _ in range(10):
        g = gnp_graph(rng.randrange(1, 6), 0.5, rng)
        h = gnp_graph(rng.randrange(1, 6), 0.5, rng)
        prod = kronecker(all_ones(g), h)
        assert prod.graph == kronecker_graph(g, h)
        assert prod.forward == all_ones(kronecker_graph(g, h)).forward


def test_bipartite_double_of_triangle_is_plain_hexagon():
    doubled = bipartite_double(all_ones(cycle_graph(3)))
    assert doubled.graph == Graph.from_edges(
        6, [(0, 3), (0, 5), (1, 2), (1, 4), (2, 5), (3, 4)]
    )
    assert all(z == 1.0 for z in doubled.forward.values())
    assert is_balanced(doubled).balanced


def test_random_gain_graph_deterministic():
    g = chorded_six_cycle()
    a = random_gain_graph(g, 99)
    b = random_gain_graph(g, 99)
    assert a.forward == b.forward
    assert random_gain_graph(g, 100).forward != a.forward


def test_random_gain_angles_cover_the_circle():
    g = complete_graph(2)
    rng = random.Random(51)
    buckets = [0] * 8
    for _ in range(1000):
        z = random_gain_graph(g, rng).gain(0, 1)
        buckets[int((cmath.phase(z) % (2 * math.pi)) / (2 * math.pi) * 8)] += 1
    assert all(b > 0 for b in buckets)


def test_delete_gain_edges_and_induced_keep_gains():
    phi = random_gain_graph(chorded_six_cycle(), 7)
    pruned = delete_gain_edges(phi, [(1, 4)])
    assert pruned.graph == cycle_graph(6)
    assert all(pruned.forward[e] == phi.forward[e] for e in pruned.graph.edges)

    sub = induced_gain_subgraph(phi, [0, 1, 4, 5])
    assert sub.graph.m == 4
    # relabeling 0,1,4,5 -> 0,1,2,3; chord (1,4) -> (1,2)
    assert sub.forward[(1, 2)] == phi.forward[(1, 4)]


def test_gains_are_immutable_after_construction():
    phi = all_ones(cycle_graph(4))
    with pytest.raises(TypeError):
        phi.forward[(0, 1)] = 2j

    store = {e: 1.0 + 0.0j for e in cycle_graph(4).edges}
    psi = GainGraph(cycle_graph(4), store)
    store[(0, 1)] = 1j
    assert psi.gain(0, 1) == 1.0
    assert dict(pickle.loads(pickle.dumps(psi)).forward) == dict(psi.forward)
