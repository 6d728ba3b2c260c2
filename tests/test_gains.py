import ast
import cmath
import copy
import functools
import math
import pickle
import random
import struct
from pathlib import Path

import numpy as np
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
    chorded_six_cycle,
    complete_graph,
    cycle_gain,
    cycle_graph,
    delete_gain_edges,
    empty_graph,
    gain_graph,
    gnp_graph,
    graphs,
    induced_gain_subgraph,
    is_balanced,
    is_connected,
    kronecker,
    kronecker_graph,
    path_graph,
    random_gain_graph,
    random_switching,
    set_gain,
    spectrum,
    switch,
    unit,
    unit_from_angle,
)
from gainspec.gains import BALANCE_TOL, GainGraph
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
        lambda g, z: unit(z),
        lambda g, z: GainGraph(g, {(0, 1): z}),
        lambda g, z: gain_graph(g, {(1, 0): z}),
        lambda g, z: set_gain(all_ones(g), 0, 1, z),
        lambda g, z: SwitchingFunction((1.0 + 0.0j, z)),
    ],
    ids=["unit", "GainGraph", "gain_graph", "set_gain", "SwitchingFunction"],
)
def test_nan_gain_is_rejected(build):
    # abs(NaN - 1) > tol is False: every modulus check must fail NaN instead.
    # From order ARRAY_MIN_ORDER GainGraph.from_gains checks on the array, so
    # both of its branches see NaN and an infinite gain.
    for n in (2, graphs.ARRAY_MIN_ORDER):
        for z in (NAN_GAIN, complex(math.inf, 0.0)):
            with pytest.raises(ValueError):
                build(Graph.from_edges(n, [(0, 1)]), z)


def test_orientation_inverse_invariant_random():
    rng = random.Random(23)
    for _ in range(30):
        phi = random_gain_graph(gnp_graph(rng.randrange(2, 9), 0.6, rng), rng)
        for u, v in phi.graph.edges:
            assert abs(phi.gain(u, v) * phi.gain(v, u) - 1.0) <= 1e-12


@pytest.mark.parametrize("u, v", [(0, 0), (0, 2), (2, 0), (0, 5)])
def test_gain_of_a_non_edge_names_the_pair(u, v):
    phi = all_ones(path_graph(3))
    with pytest.raises(ValueError, match=rf"^\({u}, {v}\) is not an edge$"):
        phi.gain(u, v)


def test_gain_reads_the_arrays_of_a_bulk_parsed_graph():
    from gainspec import fileio

    rng = random.Random(29)
    phi = random_gain_graph(gnp_graph(40, 0.3, rng), rng)
    text = fileio.serialize_gain_graph(phi)
    assert fileio._parse_canonical(text) is not None
    parsed = fileio.parse_gain_graph(text)
    g = parsed.graph
    assert g.n >= 32
    parsed.gain(g.us[7], g.vs[7])
    parsed.gain(g.vs[7], g.us[7])
    cycle = next((a, b, c) for a, b in zip(g.us.tolist(), g.vs.tolist())
                 for c in set(g.neighbors(a)) & set(g.neighbors(b)))
    cycle_gain(parsed, cycle)
    with pytest.raises(ValueError, match="is not an edge"):
        parsed.gain(0, 0)
    assert "forward" not in parsed.__dict__


def test_cycle_gain_builds_no_adjacency_of_a_bulk_parsed_graph():
    from gainspec import fileio

    text = fileio.serialize_gain_graph(all_ones(complete_graph(40)))
    assert fileio._parse_canonical(text) is not None
    parsed = fileio.parse_gain_graph(text)
    assert cycle_gain(parsed, [0, 1, 2]) == 1.0
    assert "_adjacency" not in parsed.graph.__dict__
    assert "forward" not in parsed.__dict__


def test_cycle_gain_names_the_missing_edge():
    with pytest.raises(ValueError, match=r"^\(3, 0\) is not an edge$"):
        cycle_gain(all_ones(path_graph(4)), [0, 1, 2, 3])


def test_gain_is_bit_equal_to_the_forward_view():
    rng = random.Random(31)
    graphs = [chorded_six_cycle(), gnp_graph(12, 0.5, rng), gnp_graph(50, 0.2, rng)]
    for phi in map(lambda g: random_gain_graph(g, rng), graphs):
        for (u, v), z in phi.forward.items():
            assert type(phi.gain(u, v)) is complex
            assert _bits(phi.gain(u, v)) == _bits(z)
            assert _bits(phi.gain(v, u)) == _bits(z.conjugate())


def _bits(z):
    return struct.pack("2d", z.real, z.imag)


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


def test_switching_function_refuses_what_is_not_its_vertex():
    zeta = SwitchingFunction((1.0 + 0.0j, 1j))
    assert zeta(1) == zeta(np.int64(1)) == 1j
    for v in (-1, True, 2, 1.0):
        with pytest.raises(ValueError, match="is not an integer|out of range"):
            zeta(v)


def test_switching_function_keeps_its_own_tuple():
    values = [1, 1j]
    zeta = SwitchingFunction(values)
    values.append(3)
    assert zeta.values == (1 + 0j, 1j) and type(zeta.values) is tuple
    assert all(type(z) is complex for z in zeta.values)
    with pytest.raises(ValueError, match="out of range"):
        zeta(2)


def test_random_switching_checks_its_count():
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError, match="switching needs an integer vertex count"):
            random_switching(bad, 0)
    assert len(random_switching(np.int64(3), 0).values) == 3


@pytest.mark.parametrize("n", [5, 31, 32, 200])
def test_switch_is_bit_equal_to_the_per_edge_complex_product(n):
    rng = random.Random(n)
    signed_zeros = [complex(1, -0.0), complex(-0.0, 1), complex(-1, 0.0),
                    complex(-1, -0.0), complex(0.0, -1), complex(-0.0, -1)]

    def draw():
        if rng.random() < 0.3:
            return rng.choice(signed_zeros)
        return unit_from_angle(rng.uniform(0.0, 2.0 * math.pi))

    g = gnp_graph(n, 0.5, rng)
    phi = GainGraph.from_gains(g, [draw() for _ in range(g.m)])
    zeta = SwitchingFunction(tuple(draw() for _ in range(n)))
    edges = zip(g.us.tolist(), g.vs.tolist(), phi.gains.tolist())
    expected = [zeta.values[u].conjugate() * z * zeta.values[v] for u, v, z in edges]
    got = switch(phi, zeta).gains
    assert got.view(np.float64).tobytes() == np.array(expected).view(np.float64).tobytes()


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


@pytest.mark.parametrize("n, drift", [(3, 9e-13), (40, 1e-13)])
def test_gains_off_the_circle_within_tolerance_are_balanced(n, drift):
    # The constructor accepts a modulus within UNIT_TOL of 1, on both sides of
    # the size switch; a switching value that multiplied those moduli along
    # a tree path would leave the unit circle and be refused.
    from gainspec import bound_report

    phi = GainGraph.from_gains(path_graph(n), [1.0 + drift] * (n - 1))
    cert = is_balanced(phi)
    assert cert.balanced
    restored = switch(phi, cert.witness)
    assert np.max(np.abs(restored.gains - 1.0)) <= BALANCE_TOL
    assert bound_report(phi).balance.balanced


def test_one_tree_switching_serves_balance_and_spectrum(monkeypatch):
    real = GainGraph.__dict__["_switching"].func
    calls = []

    def counting(phi):
        calls.append(phi.graph.n)
        return real(phi)

    counted = functools.cached_property(counting)
    counted.__set_name__(GainGraph, "_switching")
    monkeypatch.setattr(GainGraph, "_switching", counted)
    from gainspec import bound_report

    for phi in (switch(all_ones(complete_graph(40)), random_switching(40, 3)),
                random_gain_graph(gnp_graph(12, 0.5, random.Random(4)), 4)):
        report = bound_report(phi)
        assert calls == [phi.graph.n] and report.balance.balanced == (phi.graph.n == 40)
        calls.clear()
        if report.balance.balanced:
            assert report.balance.witness.values == phi._switching


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


@pytest.mark.parametrize("n", [12, 40])
def test_violation_gain_is_the_cycle_gain_of_the_violating_cycle(n):
    # random gains, and nearly balanced ones: a switched all-ones graph with
    # one gain turned, by as little as the balance tolerance allows
    rng = random.Random(59 + n)
    certified = 0
    for turn in (3e-9, 1e-6, 1e-2, 2.0) * 5:
        g = gnp_graph(n, 0.3, rng)
        nearly = switch(all_ones(g), random_switching(n, rng))
        k = rng.randrange(g.m)
        u, v = g.us[k].item(), g.vs[k].item()
        nearly = set_gain(nearly, u, v, nearly.gain(u, v) * unit_from_angle(turn))
        for phi in (random_gain_graph(g, rng), nearly):
            cert = is_balanced(phi)
            if not cert.balanced:
                certified += 1
                expected = cycle_gain(phi, cert.violating_cycle)
                assert _bits(cert.violation_gain) == _bits(expected)
    assert certified >= 30


def test_reff_spectral_balance_oracle():
    # For connected G, lambda_1(A(Phi)) <= lambda_1(A(G)), with equality iff
    # Phi is balanced (N. Reff, Linear Algebra Appl. 2012).
    rng = random.Random(61)
    seen = set()
    for _ in range(120):
        n = rng.randrange(4, 46)
        g = gnp_graph(n, rng.uniform(min(1.0, 2.0 * math.log(n) / n), 1.0), rng)
        if not is_connected(g):
            continue
        if rng.random() < 0.5:
            phi = switch(all_ones(g), random_switching(n, rng))
        else:
            phi = random_gain_graph(g, rng)
        drop = spectrum(all_ones(g)).eigenvalues[0] - spectrum(phi).eigenvalues[0]
        balanced = is_balanced(phi).balanced
        seen.add(balanced)
        if balanced:
            assert abs(drop) <= 1e-9 * n
        else:
            assert drop > 1e-6
    assert seen == {True, False}


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
    doubled = kronecker(all_ones(cycle_graph(3)), complete_graph(2))
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


@pytest.mark.parametrize("n", [5, 40])
def test_gain_arrays_cannot_be_made_writable(n):
    phi = random_gain_graph(cycle_graph(n), n)
    gains = phi.gains.tobytes()
    copies = [phi, pickle.loads(pickle.dumps(phi)), copy.copy(phi), copy.deepcopy(phi)]
    for psi in copies:
        with pytest.raises(ValueError, match="WRITEABLE"):
            psi.gains.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            psi.gains[0] = 99.0
    assert all(psi.gains.tobytes() == gains for psi in copies)


def test_the_package_keeps_no_global_memo():
    # views live on immutable values as cached properties (a graph's
    # adjacency and BFS forest, a gain graph's forward mapping and tree
    # switching); a functools
    # memo would keep its arguments alive past a run
    import gainspec

    memos = {"lru_cache", "cache"}
    found = []
    for path in sorted(Path(gainspec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                names = {node.attr}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names & memos]
    assert found == []


def test_analysis_stores_nothing_on_a_gain_graph(monkeypatch):
    # a spectrum, report or check is returned to the caller; every gain
    # graph, passed in or built during the run, keeps only its own fields
    from gainspec import (bound_report, kronecker_spectrum_check, run_lemma_suite,
                          spectra_of, spectrum)

    built = []
    real = GainGraph.from_gains.__func__

    def recording(cls, graph, gains):
        built.append(real(cls, graph, gains))
        return built[-1]

    monkeypatch.setattr(GainGraph, "from_gains", classmethod(recording))
    rng = random.Random(7)
    phis = [
        random_gain_graph(cycle_graph(5), rng),
        random_gain_graph(gnp_graph(40, 0.1, rng), rng),
        all_ones(empty_graph(3)),
    ]
    for phi in phis:
        bound_report(phi)
        spectrum(phi)
        kronecker_spectrum_check(phi, complete_graph(2))
    spectra_of(phis)
    run_lemma_suite(seed=1, trials=40, nmax=6)
    assert len(built) > 200
    fields = {"graph", "gains", "forward", "_switching"}
    assert [sorted(vars(phi)) for phi in built if set(vars(phi)) - fields] == []
