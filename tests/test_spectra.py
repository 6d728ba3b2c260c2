import copy
import math
import pickle
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    adjacency_oracle,
    char_poly,
    disjoint_union,
    energy_oracle,
    exact_energy_bracket,
    filled,
    four_cycle_energy,
    four_cycle_gain_graph,
)
from gainspec import (
    Graph,
    SwitchingFunction,
    adjacency,
    all_ones,
    chorded_six_cycle,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    eigenvalues,
    empty_graph,
    energy,
    gnp_graph,
    graphs,
    induced_gain_subgraph,
    kronecker_spectrum_check,
    maximum_matching,
    path_graph,
    random_gain_graph,
    random_switching,
    set_gain,
    spectra,
    spectrum,
    switch,
    unit_from_angle,
)
from gainspec.corpus import extremal_union, ktt_union_graph, random_tree

# frozen by the numeric oracle: energy of the all-ones chorded six-cycle
CHORDED_HEXAGON_ENERGY = 7.656854249492381


def test_adjacency_entries():
    k2 = complete_graph(2)
    assert np.array_equal(adjacency(all_ones(k2)), np.array([[0, 1], [1, 0]]))
    phi = set_gain(all_ones(k2), 0, 1, 1j)
    assert np.array_equal(adjacency(phi), np.array([[0, 1j], [-1j, 0]]))
    assert np.array_equal(adjacency(all_ones(empty_graph(3))), np.zeros((3, 3)))


def test_eigenvalues_small_exact():
    spec = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert spec.eigenvalues == pytest.approx([1.0, -1.0])
    spec = eigenvalues(np.array([[0, 1j], [-1j, 0]]))
    assert spec.eigenvalues == pytest.approx([1.0, -1.0])
    assert spec.energy == pytest.approx(2.0)


def test_eigenvalues_k33_spectrum():
    spec = spectrum(all_ones(complete_bipartite(3, 3)))
    assert spec.eigenvalues == pytest.approx([3, 0, 0, 0, 0, -3], abs=1e-9)
    assert spec.energy == pytest.approx(6.0, abs=1e-9)


def test_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))


def test_eigenvalues_sorted_descending():
    rng = random.Random(3)
    for _ in range(20):
        phi = random_gain_graph(gnp_graph(rng.randrange(1, 10), 0.5, rng), rng)
        vals = spectrum(phi).eigenvalues
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


def test_empty_graph_spectrum():
    spec = spectrum(all_ones(empty_graph(0)))
    assert spec.energy == 0.0 and len(spec.eigenvalues) == 0


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_energy_of_balanced_complete_bipartite(t):
    assert energy(all_ones(complete_bipartite(t, t))) == pytest.approx(
        2.0 * t, abs=1e-9
    )


def test_energy_of_four_path():
    assert energy(all_ones(path_graph(4))) == pytest.approx(
        2.0 * math.sqrt(5.0), abs=1e-12
    )


def test_energy_of_chorded_hexagon_exceeds_six():
    e = energy(all_ones(chorded_six_cycle()))
    assert e == pytest.approx(CHORDED_HEXAGON_ENERGY, abs=1e-9)
    assert e > 6.0


def test_energy_matches_independent_oracle():
    rng = random.Random(5)
    for _ in range(25):
        phi = random_gain_graph(gnp_graph(rng.randrange(2, 10), 0.6, rng), rng)
        assert energy(phi) == pytest.approx(energy_oracle(phi), abs=1e-9)


def test_spectral_switching_invariance():
    rng = random.Random(7)
    for _ in range(20):
        g = gnp_graph(rng.randrange(2, 10), 0.5, rng)
        phi = random_gain_graph(g, rng)
        switched = switch(phi, random_switching(g.n, rng))
        a = spectrum(phi).eigenvalues
        b = spectrum(switched).eigenvalues
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-8


def test_char_poly_trivial():
    assert char_poly(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx([1, 0, -1])
    assert char_poly(np.zeros((2, 2))) == pytest.approx([1, 0, 0])
    with pytest.raises(ValueError):
        char_poly(np.zeros((13, 13)))


def test_char_poly_of_gained_four_cycle():
    rng = random.Random(11)
    for _ in range(30):
        a = unit_from_angle(rng.uniform(0, 2 * math.pi))
        b = unit_from_angle(rng.uniform(0, 2 * math.pi))
        coeffs = char_poly(adjacency(four_cycle_gain_graph(a, b)))
        expected = [1.0, 0.0, -4.0, 0.0, 2.0 - 2.0 * (a * b).real]
        assert coeffs == pytest.approx(expected, abs=1e-8)


def test_char_poly_roots_are_eigenvalues():
    rng = random.Random(13)
    for _ in range(15):
        phi = random_gain_graph(gnp_graph(rng.randrange(1, 9), 0.6, rng), rng)
        a = adjacency(phi)
        roots = np.sort(np.roots(char_poly(a)).real)
        vals = np.sort(spectrum(phi).eigenvalues)
        assert np.max(np.abs(roots - vals), initial=0.0) <= 1e-6


T4 = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)


def _t4_gains(g, seed, units=T4):
    rng = random.Random(seed)
    return spectra.GainGraph.from_gains(g, np.array([rng.choice(units) for _ in range(g.m)]))


def _t4_switched_union(parts, isolated, seed):
    rng = random.Random(seed)
    phi = all_ones(ktt_union_graph(parts, isolated))
    return switch(phi, SwitchingFunction(tuple(rng.choice(T4) for _ in range(phi.graph.n))))


# (gain graph, its matching number if it is extremal, whether its component
# blocks are real)
_EXACT_CASES = {
    "T_4 gnp 12": lambda: (_t4_gains(gnp_graph(12, 0.5, random.Random(1)), 1), None, False),
    "T_4 gnp 20": lambda: (_t4_gains(gnp_graph(20, 0.15, random.Random(2)), 2), None, False),
    "T_2 gnp 24": lambda: (_t4_gains(gnp_graph(24, 0.3, random.Random(3)), 3, T4[::2]),
                           None, True),
    "T_4 gnp 32": lambda: (_t4_gains(gnp_graph(32, 0.3, random.Random(4)), 4), None, False),
    "switched T_4 K_tt union 24": lambda: (_t4_switched_union((2, 3, 4), 6, 5), 9, True),
    "switched T_4 K_tt union 32": lambda: (_t4_switched_union((1, 2, 3, 5), 10, 7), 11, True),
}


@pytest.mark.parametrize("case", sorted(_EXACT_CASES))
def test_energy_lies_in_its_exact_bracket(monkeypatch, case):
    phi, mu, real = _EXACT_CASES[case]()
    low, high = exact_energy_bracket(phi)
    energies = [eigenvalues(adjacency(phi)).energy]
    for order in (0, math.inf):  # block by block, then the whole matrix
        with monkeypatch.context() as m:
            m.setattr(graphs, "ARRAY_MIN_ORDER", order)
            if order == 0:
                assert _dtypes(phi) == ({"d"} if real else {"D"})
            energies.append(spectrum(phi).energy)
    for e in energies:
        assert low - 1e-10 * e <= e <= high + 1e-10 * e
    if mu is not None:
        assert maximum_matching(phi.graph).mu == mu and low <= 2 * mu <= high


def test_four_cycle_energy_anchor_values():
    assert four_cycle_energy(1.0 + 0.0j, 1.0 + 0.0j) == 4.0
    assert four_cycle_energy(1j, 1j) == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)
    # x = 0 instance, e.g. a quarter turn against gain 1
    assert four_cycle_energy(1j, 1.0 + 0.0j) == pytest.approx(
        5.226251859505505, abs=1e-9
    )


def test_four_cycle_energy_conjugate_pairs_hit_the_floor():
    # exactly representable units give exactly 4
    for a in (1.0 + 0.0j, -1.0 + 0.0j, 1j, -1j):
        assert four_cycle_energy(a, a.conjugate()) == 4.0
    # for arbitrary angles, rounding in Re(a*conj(a)) costs at most ~1e-7
    rng = random.Random(17)
    for _ in range(50):
        a = unit_from_angle(rng.uniform(0, 2 * math.pi))
        assert four_cycle_energy(a, a.conjugate()) == pytest.approx(4.0, abs=1e-7)


def test_four_cycle_energy_rejects_non_unit():
    with pytest.raises(ValueError):
        four_cycle_energy(0.5 + 0.0j, 1.0 + 0.0j)


@given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
@settings(deadline=None)
def test_four_cycle_energy_closed_form_properties(ta, tb):
    a, b = unit_from_angle(ta), unit_from_angle(tb)
    e = four_cycle_energy(a, b)
    assert e >= 4.0 - 1e-12
    # energy behaves like 4 + 2*sqrt((1-x)/2) near x = 1, so an ulp of x is
    # worth ~2e-8 of energy there; 1e-7 covers that worst case
    assert e == pytest.approx(energy(four_cycle_gain_graph(a, b)), abs=1e-7)


def test_kronecker_spectrum_check_triangle_doubling():
    check = kronecker_spectrum_check(all_ones(cycle_graph(3)), complete_graph(2))
    assert check.ok and check.spectrum_ok and check.doubling_ok
    assert check.double_energy == pytest.approx(8.0, abs=1e-9)
    assert check.expected_double_energy == pytest.approx(8.0, abs=1e-9)


def test_kronecker_spectrum_check_edgeless_factor():
    check = kronecker_spectrum_check(
        random_gain_graph(cycle_graph(4), 3), empty_graph(1)
    )
    assert check.ok
    assert check.spectrum_deviation == 0.0
    assert check.doubling_ok is None  # K1 is not the doubling factor


def test_kronecker_spectrum_check_random_doubles():
    rng = random.Random(19)
    for _ in range(10):
        phi = random_gain_graph(cycle_graph(5), rng)
        check = kronecker_spectrum_check(phi, complete_graph(2))
        assert check.ok
        assert check.double_energy == pytest.approx(2 * energy(phi), abs=1e-7)


def test_kronecker_spectrum_check_size_limit(monkeypatch):
    monkeypatch.setattr(spectra, "DENSE_MAX_ORDER", 64)
    with pytest.raises(ValueError):
        kronecker_spectrum_check(all_ones(cycle_graph(33)), complete_graph(2))


def test_kronecker_spectrum_check_is_bounded_by_the_dense_limit(monkeypatch):
    limit = spectra.DENSE_MAX_ORDER
    k2 = complete_graph(2)
    at_limit = kronecker_spectrum_check(all_ones(empty_graph(limit // 2)), k2)
    assert at_limit.ok and at_limit.product.graph.n == limit

    def unbuilt(*args):
        raise AssertionError("the product was built")

    monkeypatch.setattr(spectra, "kronecker", unbuilt)
    n = limit // 2 + 1
    message = f"^order {2 * n} exceeds the dense limit {limit}$"
    with pytest.raises(ValueError, match=message):
        kronecker_spectrum_check(all_ones(empty_graph(n)), k2)


@given(
    st.integers(17, 100),
    st.sampled_from((0.0, 0.03, 0.1, 0.3)),
    st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=25)
def test_bipartite_double_energy_matches_the_oracle_above_order_12(n, p, seed):
    # the factor lies on both sides of graphs.ARRAY_MIN_ORDER; the double of
    # order 34 to 200 is solved one bipartite block at a time
    rng = random.Random(seed)
    phi = random_gain_graph(gnp_graph(n, p, rng), rng)
    check = kronecker_spectrum_check(phi, complete_graph(2))
    assert check.ok
    assert abs(check.double_energy - 2 * energy_oracle(phi)) <= 1e-7


def test_spectrum_sanity_checks_run_on_every_solve():
    # the checks live inside spectrum(); a representative sweep must pass
    rng = random.Random(23)
    for _ in range(30):
        phi = random_gain_graph(gnp_graph(rng.randrange(1, 11), 0.5, rng), rng)
        spec = spectrum(phi)
        n, m = phi.graph.n, phi.graph.m
        assert abs(float(np.sum(spec.eigenvalues))) <= 1e-8 * max(n, 1)
        assert abs(float(np.sum(spec.eigenvalues**2)) - 2 * m) <= 1e-7 * max(n, 1)


def _with_entries(entries):
    a = np.zeros((2, 2), dtype=complex)
    for (i, j), z in entries.items():
        a[i, j] = z
    return a


@pytest.mark.parametrize(
    "a",
    [
        np.full((2, 2), math.nan),
        _with_entries({(0, 1): math.nan, (1, 0): math.nan}),
        _with_entries({(0, 1): math.inf, (1, 0): math.inf}),
        _with_entries({(0, 0): -math.inf}),
        _with_entries({(0, 1): complex(1.0, math.nan), (1, 0): 1.0}),
    ],
    ids=["all-nan", "nan-pair", "inf-pair", "minus-inf-diagonal", "nan-imaginary"],
)
def test_eigenvalues_rejects_non_finite_entries(a):
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues(a)


def test_adjacency_agrees_with_oracle_builder():
    rng = random.Random(29)
    for _ in range(10):
        phi = random_gain_graph(gnp_graph(rng.randrange(1, 9), 0.7, rng), rng)
        assert np.array_equal(adjacency(phi), adjacency_oracle(phi))


def test_spectra_are_read_only():
    from gainspec import bound_report, graphs

    t = (graphs.ARRAY_MIN_ORDER + 1) // 2
    rep = bound_report(all_ones(complete_bipartite(2, 2)))
    built = [
        rep.spectrum,  # one dense solve through eigenvalues()
        spectrum(all_ones(complete_bipartite(t, t))),  # one solve per component
        spectrum(all_ones(empty_graph(3))),  # edgeless: no solve
        eigenvalues(np.zeros((0, 0))),
    ]
    for spec in built:
        with pytest.raises(ValueError, match="read-only"):
            spec.eigenvalues[:] = 99.0
    assert list(rep.spectrum.eigenvalues) == pytest.approx([2, 0, 0, -2], abs=1e-12)
    assert rep.energy == rep.spectrum.energy


def test_a_spectrum_keeps_its_own_copy():
    # no array a Spectrum holds can be made writable, and none aliases or
    # freezes an array its caller still holds
    from gainspec import Spectrum, spectra_of

    phis = [all_ones(complete_bipartite(2, 2)), all_ones(complete_bipartite(1, 3))]
    for spec in spectra_of(phis) + [spectrum(all_ones(complete_bipartite(20, 20)))]:
        assert isinstance(spec.eigenvalues.base, bytes)  # immutable memory
        with pytest.raises(ValueError, match="WRITEABLE"):
            spec.eigenvalues.flags.writeable = True
    assert list(spectrum(phis[0]).eigenvalues) == pytest.approx([2, 0, 0, -2], abs=1e-12)
    stack = np.array([[3.0, -3.0], [1.0, -1.0]])
    spec = Spectrum(stack[0], 6.0)
    stack[0, 0] = 99.0
    assert stack.flags.writeable and list(spec.eigenvalues) == [3.0, -3.0]


def test_eigenvalues_cannot_be_made_writable():
    from gainspec import Spectrum

    specs = [spectrum(all_ones(complete_bipartite(2, 2))),
             spectrum(all_ones(complete_bipartite(20, 20))),
             Spectrum(np.array([1.0, -1.0]), 2.0)]
    copies = specs + [f(s) for s in specs
                      for f in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy)]
    for spec in copies:
        values = spec.eigenvalues.tobytes()
        with pytest.raises(ValueError, match="WRITEABLE"):
            spec.eigenvalues.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            spec.eigenvalues[0] = 99.0
        assert spec.eigenvalues.tobytes() == values


@pytest.mark.parametrize(
    "round_trip",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_arrays_stay_read_only_after_a_round_trip(round_trip):
    from gainspec import bound_report

    phi = extremal_union([3, 2], isolated=1, switch_seed=7)
    rep = bound_report(phi)
    graph, psi, spec, rep2 = map(round_trip, (phi.graph, phi, rep.spectrum, rep))
    assert graph == phi.graph and dict(psi.forward) == dict(phi.forward)
    assert np.array_equal(spec.eigenvalues, rep.spectrum.eigenvalues)
    assert rep2 == rep
    arrays = [
        graph.us, graph.vs, psi.gains, psi.graph.us, psi.graph.vs,
        spec.eigenvalues, rep2.spectrum.eigenvalues,
        rep2.phi.graph.us, rep2.phi.graph.vs, rep2.phi.gains,
    ]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[:] = 0


def test_edgeless_graph_costs_no_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("an edgeless spectrum reached LAPACK")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    monkeypatch.setattr(np.linalg, "svd", no_solve)
    for n in (5, 40):
        spec = spectrum(all_ones(empty_graph(n)))
        assert np.array_equal(spec.eigenvalues, np.zeros(n)) and spec.energy == 0.0
        assert not np.signbit(spec.eigenvalues).any()


# ---------------------------------------------------------------------------
# The per-component path against the dense oracle eigenvalues(adjacency(phi)).
# ---------------------------------------------------------------------------


def _assert_matches_dense(phi):
    n = phi.graph.n
    spec, dense = spectrum(phi), eigenvalues(adjacency(phi))
    assert np.all(np.diff(spec.eigenvalues) <= 0.0)
    assert np.max(np.abs(spec.eigenvalues - dense.eigenvalues), initial=0.0) <= 1e-9 * n
    assert abs(spec.energy - dense.energy) <= 1e-9 * max(n, 1)


@pytest.mark.usefixtures("array_paths")
def test_structured_path_matches_dense_on_forests():
    rng = random.Random(31)
    for n in (1, 2, 3, 8, 25, 60, 120, 200):
        tree = random_tree(n, rng)
        forest = Graph.from_edges(n, (e for e in tree.edges if rng.random() < 0.8))
        _assert_matches_dense(random_gain_graph(forest, rng))


@pytest.mark.usefixtures("array_paths")
@pytest.mark.parametrize("s, t", [(1, 1), (1, 6), (2, 3), (3, 2), (5, 12), (70, 30)])
def test_structured_path_matches_dense_on_complete_bipartite(s, t):
    # s != t leaves |s - t| kernel vectors on the larger side
    _assert_matches_dense(random_gain_graph(complete_bipartite(s, t), s * 100 + t))


@pytest.mark.usefixtures("array_paths")
def test_structured_path_matches_dense_on_switched_extremal_unions():
    rng = random.Random(37)
    for parts, isolated in (([1], 0), ([3, 1], 2), ([5, 3, 3, 1], 4), ([40, 25], 7)):
        phi = extremal_union(parts, isolated=isolated, switch_seed=rng)
        _assert_matches_dense(phi)
        assert spectrum(phi).energy == pytest.approx(2.0 * sum(parts), abs=1e-9)


@pytest.mark.usefixtures("array_paths")
def test_structured_path_matches_dense_on_mixed_graphs():
    rng = random.Random(41)
    mixed = disjoint_union(
        disjoint_union(cycle_graph(7), complete_bipartite(4, 6)),
        disjoint_union(complete_graph(5), empty_graph(3)),
    )
    graphs = [mixed, complete_graph(25), cycle_graph(9), chorded_six_cycle()]
    graphs += [gnp_graph(n, p, rng) for n, p in
               ((30, 0.05), (80, 0.03), (150, 0.015), (200, 0.01), (200, 0.05))]
    for g in graphs:
        _assert_matches_dense(random_gain_graph(g, rng))


_sizes = st.integers(0, 100)
_density = st.sampled_from((0.0, 0.01, 0.03, 0.1))


@given(_sizes, _sizes, _density, st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=25)
def test_energy_and_mu_are_additive_over_components(n1, n2, p, seed):
    rng = random.Random(seed)
    g = disjoint_union(gnp_graph(n1, p, rng), gnp_graph(n2, p, rng))
    phi = random_gain_graph(g, rng)
    left = induced_gain_subgraph(phi, range(n1))
    right = induced_gain_subgraph(phi, range(n1, g.n))
    assert energy(phi) == pytest.approx(
        energy(left) + energy(right), abs=1e-9 * max(g.n, 1)
    )
    mu = maximum_matching(g).mu
    assert mu == maximum_matching(left.graph).mu + maximum_matching(right.graph).mu


@given(st.integers(1, 200), _density, st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=25)
def test_spectrum_is_switching_invariant_up_to_order_200(n, p, seed):
    rng = random.Random(seed)
    phi = random_gain_graph(gnp_graph(n, p, rng), rng)
    switched = switch(phi, random_switching(n, rng))
    a, b = spectrum(phi).eigenvalues, spectrum(switched).eigenvalues
    assert np.max(np.abs(a - b), initial=0.0) <= 1e-9 * n


@pytest.mark.usefixtures("array_paths")
def test_svd_residual_guard_fires_on_perturbed_vectors(monkeypatch):
    real_svd = np.linalg.svd

    def perturbed(b, *args, **kwargs):
        u, s, vh = real_svd(b, *args, **kwargs)
        return u, s, vh + 1e-6

    monkeypatch.setattr(np.linalg, "svd", perturbed)
    with pytest.raises(RuntimeError, match="singular value residual"):
        spectrum(random_gain_graph(complete_bipartite(3, 4), 43))


@pytest.mark.usefixtures("array_paths")
def test_svd_residual_guard_checks_kernel_vectors(monkeypatch):
    real_svd = np.linalg.svd
    shapes = []

    def wrong_kernel(b, *args, **kwargs):
        u, s, vh = real_svd(b, *args, **kwargs)
        shapes.append(b.shape)
        vh = vh.copy()
        vh[:, 2] = vh[:, 0]  # a unit vector, but not in the kernel of B
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", wrong_kernel)
    with pytest.raises(RuntimeError, match="singular value residual"):
        spectrum(random_gain_graph(complete_bipartite(2, 3), 47))
    assert shapes == [(1, 2, 3)]


# ---------------------------------------------------------------------------
# The batched verified solver.
# ---------------------------------------------------------------------------


def _random_graphs(orders, rng):
    return [
        random_gain_graph(gnp_graph(n, rng.choice((0.2, 0.5, 0.9)), rng), rng)
        for n in orders
    ]


def _assert_bitwise_dense(phis, specs):
    assert len(specs) == len(phis)
    for phi, spec in zip(phis, specs):
        dense = eigenvalues(adjacency(phi))
        assert spec.eigenvalues.tobytes() == dense.eigenvalues.tobytes()
        assert spec.energy == dense.energy


@pytest.mark.parametrize("n", range(1, 32))
def test_batch_equals_one_dense_solve_per_graph(n):
    phis = _random_graphs([n] * 5, random.Random(n))
    phis.append(random_gain_graph(complete_graph(n), n))
    _assert_bitwise_dense(phis, spectra.spectra_of(phis))


def test_mixed_order_batch_equals_one_dense_solve_per_graph():
    rng = random.Random(53)
    phis = _random_graphs([rng.randrange(1, 32) for _ in range(120)], rng)
    phis += [phis[7], phis[7]]  # a repeated graph gets its spectrum each time
    _assert_bitwise_dense(phis, spectra.spectra_of(phis))


def test_batch_solves_each_order_once_and_stores_nothing(monkeypatch):
    rng = random.Random(59)
    phis = _random_graphs([3, 5, 3, 5, 5, 4], rng)
    phis.append(all_ones(empty_graph(6)))
    real_eigh = np.linalg.eigh
    shapes = []

    def counting_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    specs = spectra.spectra_of(phis)
    # a stack per order; the lone matrix of order 4 is a stack of one
    assert sorted(shapes) == [(1, 4, 4), (2, 3, 3), (3, 5, 5)]
    # nothing is kept: a second batch solves again, to the same bits
    again = spectra.spectra_of(phis)
    assert len(shapes) == 6 and again is not specs
    for first, second in zip(specs, again):
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.energy == second.energy


def test_empty_batch_and_edgeless_graphs_cost_no_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("reached LAPACK")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    assert spectra.spectra_of([]) == []
    (spec,) = spectra.spectra_of([all_ones(empty_graph(7))])
    assert np.array_equal(spec.eigenvalues, np.zeros(7)) and spec.energy == 0.0


def _stack(count, n, seed):
    rng = random.Random(seed)
    return np.stack([adjacency(phi) for phi in _random_graphs([n] * count, rng)])


def test_stack_with_a_non_finite_matrix_is_rejected():
    stack = _stack(4, 5, 61)
    stack[2, 1, 3] = complex(math.nan, 0.0)
    with pytest.raises(ValueError, match="^matrix 2 of 4: matrix has a non-finite entry$"):
        spectra._eigh(stack)


def test_stack_with_a_non_hermitian_matrix_is_rejected():
    stack = _stack(4, 5, 67)
    stack[3, 0, 1] += 1e-9
    with pytest.raises(ValueError, match="^matrix 3 of 4: matrix is not Hermitian"):
        spectra._eigh(stack)


@pytest.mark.parametrize("k", [0, 2, 5])
def test_corrupt_eigenvectors_name_the_matrix(monkeypatch, k):
    real_eigh = np.linalg.eigh

    def corrupt(a, *args, **kwargs):
        vals, vecs = real_eigh(a, *args, **kwargs)
        vecs = vecs.copy()
        vecs[k] = vecs[k][:, ::-1]  # unit vectors, but paired with the wrong values
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", corrupt)
    phis = _random_graphs([6] * 6, random.Random(71))
    with pytest.raises(RuntimeError, match=f"^matrix {k} of 6: eigensolver residual"):
        spectra.spectra_of(phis)


@pytest.mark.usefixtures("array_paths")
def test_per_component_path_stacks_blocks_of_one_shape(monkeypatch):
    rng = random.Random(73)
    g = empty_graph(0)
    for block in [complete_bipartite(2, 3)] * 4 + [cycle_graph(3)] * 3 + [
        complete_bipartite(3, 2),
        cycle_graph(5),
        empty_graph(2),
    ]:
        g = disjoint_union(g, block)
    phi = random_gain_graph(g, rng)
    real_eigh, real_svd = np.linalg.eigh, np.linalg.svd
    calls = []

    def counting(solver):
        def call(a, *args, **kwargs):
            calls.append((solver.__name__, a.shape))
            return solver(a, *args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigh", counting(real_eigh))
    monkeypatch.setattr(np.linalg, "svd", counting(real_svd))
    spec = spectrum(phi)
    assert sorted(calls) == [
        ("eigh", (1, 5, 5)), ("eigh", (3, 3, 3)), ("svd", (1, 3, 2)), ("svd", (4, 2, 3)),
    ]
    _assert_matches_dense(phi)

    # one block at a time gives the same values, bit for bit
    def one_at_a_time(solver):
        def call(a, *args, **kwargs):
            if a.ndim == 2:
                return solver(a, *args, **kwargs)
            parts = [solver(block, *args, **kwargs) for block in a]
            return tuple(np.stack(xs) for xs in zip(*parts))

        return call

    monkeypatch.setattr(np.linalg, "eigh", one_at_a_time(real_eigh))
    monkeypatch.setattr(np.linalg, "svd", one_at_a_time(real_svd))
    fresh = random_gain_graph(g, random.Random(73))
    assert spectrum(fresh).eigenvalues.tobytes() == spec.eigenvalues.tobytes()
    assert spectrum(fresh).energy == spec.energy


def test_per_component_blocks_are_the_induced_adjacency_matrices(monkeypatch):
    g = empty_graph(0)
    for block in [complete_bipartite(2, 3)] * 4 + [cycle_graph(3)] * 3 + [
        complete_bipartite(3, 2),
        cycle_graph(5),
        empty_graph(2),
    ]:
        g = disjoint_union(g, block)
    phi = random_gain_graph(g, random.Random(73))
    assert g.n >= graphs.ARRAY_MIN_ORDER
    real_eigh, real_svd = np.linalg.eigh, np.linalg.svd
    solved = []

    def recording(solver, name):
        def call(a, *args, **kwargs):
            solved.append((name, a.copy()))
            return solver(a, *args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigh", recording(real_eigh, "eigh"))
    monkeypatch.setattr(np.linalg, "svd", recording(real_svd, "svd"))
    spectrum(phi)
    bip = g._bipartition
    expected = {}
    for comp, bipartite in zip(bip.components, bip.exists):
        if len(comp) > 1:
            block = adjacency(induced_gain_subgraph(phi, comp))
            if bipartite:
                half = np.array([bip.side[v] == 1 for v in comp])
                block = block[np.ix_(~half, half)]
            expected.setdefault(("svd" if bipartite else "eigh", block.shape), []).append(block)
    assert len(solved) == len(expected) == 4
    for name, stack in solved:
        blocks = expected[name, stack.shape[1:]]
        assert stack.shape[0] == len(blocks)
        for got, want in zip(stack, blocks):
            assert got.tobytes() == want.tobytes()


def test_per_component_blocks_come_from_one_relabelling(monkeypatch):
    real = graphs._grouped
    calls = []

    def counting(g, sets):
        calls.append(g.n)
        return real(g, sets)

    monkeypatch.setattr(graphs, "_grouped", counting)
    rng = random.Random(41)
    for phi in [extremal_union([1, 2, 3] * 20, isolated=5, switch_seed=2),
                random_gain_graph(gnp_graph(200, 1.2 / 200, rng), rng)]:
        assert len(graphs.components(phi.graph)) > 10 and phi.graph.n >= 32
        spec = spectrum(phi)
        assert calls == [phi.graph.n]
        calls.clear()
        dense = eigenvalues(adjacency(phi))
        np.testing.assert_allclose(spec.eigenvalues, dense.eigenvalues, atol=1e-9)


def test_per_component_solve_copies_no_lone_block():
    import tracemalloc

    rng = random.Random(97)
    g = gnp_graph(400, 0.05, rng)
    assert graphs.is_connected(g) and not graphs.bipartition(g).is_bipartite
    phi = random_gain_graph(g, rng)
    tracemalloc.start()
    try:
        spectrum(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block, its eigenvectors, the residual product and LAPACK's work
    # space; one more copy of the block would pass the bound
    assert peak < 4.5 * 16 * g.n**2


@pytest.mark.usefixtures("array_paths")
def test_svd_residual_guard_names_the_block_in_a_stack(monkeypatch):
    real_svd = np.linalg.svd

    def wrong_kernel(b, *args, **kwargs):
        u, s, vh = real_svd(b, *args, **kwargs)
        vh = vh.copy()
        vh[1, 2] = vh[1, 0]  # block 1: a unit vector, but not in the kernel
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", wrong_kernel)
    g = disjoint_union(complete_bipartite(2, 3), complete_bipartite(2, 3))
    with pytest.raises(RuntimeError, match="^matrix 1 of 2: singular value residual"):
        spectrum(random_gain_graph(g, 79))


# ---------------------------------------------------------------------------
# A stack of one gives LAPACK's bits for its matrix.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 31, 40])
def test_eigh_of_a_stack_of_one_is_the_matrix_solve(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (x + x.conj().T) / 2
        assert spectra._eigh(a[None])[0].tobytes() == np.linalg.eigh(a)[0].tobytes()
    a = adjacency(random_gain_graph(gnp_graph(n, 0.5, random.Random(n)), n))
    assert spectra._eigh(a[None])[0].tobytes() == np.linalg.eigh(a)[0].tobytes()


@pytest.mark.parametrize(
    "p, q", [(1, 1), (1, 4), (4, 1), (3, 3), (2, 7), (9, 5), (20, 20)]
)
def test_svd_of_a_stack_of_one_is_the_matrix_solve(p, q):
    rng = np.random.default_rng(100 * p + q)
    for _ in range(3):
        b = np.exp(2j * np.pi * rng.random((p, q))) * (rng.random((p, q)) < 0.6)
        b[0, 0] = 1.0  # a nonzero block, as a component with edges has
        assert (
            spectra._singular_values(b[None])[0].tobytes()
            == np.linalg.svd(b)[1].tobytes()
        )


def test_mixed_batch_takes_both_paths(monkeypatch):
    rng = random.Random(83)
    small = _random_graphs([3, 7, 7, 12, 31], rng)
    large = [
        random_gain_graph(gnp_graph(n, p, rng), rng)
        for n, p in [(32, 0.1), (45, 0.3), (64, 0.05)]
    ]
    large.append(
        switch(all_ones(disjoint_union(complete_bipartite(20, 20), cycle_graph(5))),
               random_switching(45, 89))
    )
    assert max(phi.graph.n for phi in small) < graphs.ARRAY_MIN_ORDER
    assert min(phi.graph.n for phi in large) >= graphs.ARRAY_MIN_ORDER
    phis = small[:2] + large + small[2:] + [large[1]]
    real_grouped = graphs._grouped
    split = []

    def counting(g, sets):
        split.append(g)
        return real_grouped(g, sets)

    # a graph yields component blocks when _blocks splits it by component
    monkeypatch.setattr(graphs, "_grouped", counting)
    specs = spectra.spectra_of(phis)
    assert {id(g) for g in split} == {id(phi.graph) for phi in large}
    for phi, spec in zip(phis, specs):
        fresh = spectrum(pickle.loads(pickle.dumps(phi)))
        assert spec.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert spec.energy == fresh.energy


def test_batch_makes_one_lapack_call_per_kind_and_shape(monkeypatch):
    # Blocks of different graphs share stacks: the two switched unions of
    # K_20,20 and K_16,16 bring two blocks of each shape, and the K5 and
    # C31 components of a graph of order 36 share the stacks of the small
    # graphs of orders 5 and 31.  The all-ones union has eigenvalues -0.0,
    # which must keep their places in a batch.  Balanced components go as
    # real blocks, the rest as complex ones, and only blocks of one kind,
    # dtype and shape share a stack.
    rng = random.Random(29)
    small = _random_graphs([5, 5, 9, 31], rng)
    large = [extremal_union([20, 16], switch_seed=s) for s in (1, 2)] + [
        random_gain_graph(gnp_graph(40, 0.1, rng), rng),
        extremal_union([3, 2, 3, 9], isolated=3),
        random_gain_graph(disjoint_union(complete_graph(5), cycle_graph(31)), rng),
        all_ones(empty_graph(40)),
    ]
    phis = small[:2] + large[:2] + small[2:] + large[2:]
    real_eigh, real_svd = np.linalg.eigh, np.linalg.svd
    calls = []

    def counting_eigh(a, *args, **kwargs):
        calls.append((False, a.dtype.char, a.shape[1:]))
        return real_eigh(a, *args, **kwargs)

    def counting_svd(b, *args, **kwargs):
        calls.append((True, b.dtype.char, b.shape[1:]))
        return real_svd(b, *args, **kwargs)

    kinds = [(bipartite, stack.dtype.char, stack.shape[1:])
             for phi in phis for bipartite, stack, _ in map(filled, spectra._blocks(phi))
             for _ in stack]
    assert min(phi.graph.n for phi in large) >= graphs.ARRAY_MIN_ORDER
    assert kinds.count((True, "d", (20, 20))) == 2 and kinds.count((False, "D", (5, 5))) == 3
    assert kinds.count((False, "D", (31, 31))) == 2 and kinds.count((True, "d", (3, 3))) == 2
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", counting_eigh)
        m.setattr(np.linalg, "svd", counting_svd)
        specs = spectra.spectra_of(phis)
    assert sorted(calls) == sorted(set(kinds))
    for phi, spec in zip(phis, specs, strict=True):
        solo = spectrum(pickle.loads(pickle.dumps(phi)))
        assert spec.eigenvalues.tobytes() == solo.eigenvalues.tobytes()
        assert spec.energy == solo.energy


def test_analysis_sorts_an_in_memory_gain_graph_once(monkeypatch):
    # The edges are sorted at construction only: analysing a gain graph
    # sorts none, and the Kronecker check sorts only to build its product.
    from gainspec import bound_report, kronecker

    real_sort = np.lexsort
    sorts = []

    def counting_sort(keys, *args, **kwargs):
        sorts.append(len(keys[0]))
        return real_sort(keys, *args, **kwargs)

    rng = random.Random(5)
    phis = [extremal_union([20, 16], isolated=3, switch_seed=1),
            random_gain_graph(gnp_graph(40, 0.2, rng), rng)]
    h = complete_graph(2)
    monkeypatch.setattr(np, "lexsort", counting_sort)
    for phi in phis:
        bound_report(phi)
        assert sorts == []
    for phi in phis:
        kronecker(phi, h)
        built = sorts[:]
        sorts.clear()
        kronecker_spectrum_check(phi, h)
        assert sorts == built and set(built) == {2 * phi.graph.m}
        sorts.clear()


# ---------------------------------------------------------------------------
# Large Hermitian blocks go to LAPACK's MRRR driver zheevr.
# ---------------------------------------------------------------------------


needs_zheevr = pytest.mark.skipif(
    spectra._zheevr() is None, reason="numpy ships no OpenBLAS with zheevr here"
)


def _connected_nonbipartite(n, seed):
    rng = random.Random(seed)
    g = gnp_graph(n, 8.0 / n, rng)
    assert graphs.is_connected(g) and not graphs.bipartition(g).is_bipartite
    return random_gain_graph(g, rng)


def _counting_zheevr(calls, corrupt=None):
    """A binding that records each call's order and, for the matrices whose
    call number is in ``corrupt``, pairs the vectors with the wrong values."""
    real = spectra._zheevr()

    def call(*args):
        info = real(*args)
        if len(calls) in (corrupt or ()):
            z = args[14]
            z[:] = z[::-1].copy()  # rows are the conjugated vectors
        calls.append(args[4])
        return info

    return lambda: call


def test_numpy_openblas_provides_zheevr():
    # so a numpy upgrade that moves the library or renames the symbol fails
    # here instead of making every large solve silently slower
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if not (sys.platform.startswith("linux") and lapack.get("name") == "scipy-openblas"
            and "USE64BITINT" in lapack.get("openblas configuration", "")):
        pytest.skip("numpy is not built on the 64-bit-integer scipy-openblas wheel")
    assert spectra._zheevr() is not None


@needs_zheevr
@pytest.mark.parametrize("n, seed", [(256, 0), (400, 1), (775, 0)])
def test_large_blocks_are_solved_by_mrrr_within_1e_12(monkeypatch, n, seed):
    phi = _connected_nonbipartite(n, seed)
    calls = []
    monkeypatch.setattr(spectra, "_zheevr", _counting_zheevr(calls))
    spec = spectrum(phi)  # the trace and Frobenius checks pass
    assert calls == [n]
    a = adjacency(phi)
    reference = np.linalg.eigvalsh(a)[::-1]
    assert np.max(np.abs(spec.eigenvalues - reference)) <= 1e-12 * np.linalg.norm(a, 2)
    assert spec.energy == pytest.approx(np.sum(np.abs(reference)), rel=1e-12)


@needs_zheevr
def test_only_the_block_of_order_256_and_more_takes_mrrr(monkeypatch):
    phi = random_gain_graph(
        disjoint_union(_connected_nonbipartite(300, 2).graph,
                       _connected_nonbipartite(40, 1).graph), 3)
    calls, shapes = [], []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(spectra, "_zheevr", _counting_zheevr(calls))
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    spectrum(phi)
    assert calls == [300] and shapes == [(1, 40, 40)]


def _large_stack(count):
    x = np.random.default_rng(count).standard_normal((count, 256, 512)).view(complex)
    return x + x.conj().swapaxes(1, 2)


@needs_zheevr
@pytest.mark.parametrize("k", [0, 2])
def test_corrupt_mrrr_vectors_name_the_matrix(monkeypatch, k):
    stack = _large_stack(3)
    monkeypatch.setattr(spectra, "_zheevr", _counting_zheevr([], corrupt={k}))
    with pytest.raises(RuntimeError, match=f"^matrix {k} of 3: eigensolver residual"):
        spectra._eigh(stack)


@needs_zheevr
@pytest.mark.parametrize("info, found", [(1, 256), (-6, 256), (0, 255)])
def test_a_failed_zheevr_call_names_the_matrix(monkeypatch, info, found):
    real, calls = spectra._zheevr(), []

    def failing(*args):  # the second matrix fails
        calls.append(args[4])
        if len(calls) < 2:
            return real(*args)
        args[12]._obj.value = found
        return info

    monkeypatch.setattr(spectra, "_zheevr", lambda: failing)
    with pytest.raises(RuntimeError, match=f"^matrix 1 of 2: zheevr returned info {info} "
                                           f"with {found} of 256 eigenpairs$"):
        spectra._eigh(_large_stack(2))


def test_without_the_binding_a_large_block_gets_eighs_bits(monkeypatch):
    # the 775-vertex non-bipartite component of `generate gnp 1000 0.002 --seed 1`
    rng = random.Random(1)
    phi = random_gain_graph(gnp_graph(1000, 0.002, rng), rng)
    comp = max(graphs.components(phi.graph), key=len)
    assert len(comp) == 775
    a = adjacency(induced_gain_subgraph(phi, comp))
    monkeypatch.setattr(spectra, "_zheevr", lambda: None)
    assert spectra._eigh(a[None])[0].tobytes() == np.linalg.eigh(a)[0].tobytes()


# ---------------------------------------------------------------------------
# Large sparse matrices are checked from their nonzero entries.
# ---------------------------------------------------------------------------


def _component_775():
    """The 775-vertex non-bipartite component of `generate gnp 1000 0.002
    --seed 1`, 0.31% of its adjacency matrix nonzero."""
    rng = random.Random(1)
    phi = random_gain_graph(gnp_graph(1000, 0.002, rng), rng)
    comp = max(graphs.components(phi.graph), key=len)
    assert len(comp) == 775
    return induced_gain_subgraph(phi, comp)


def _sparse_300(seed=5):
    a = adjacency(random_gain_graph(gnp_graph(300, 0.01, random.Random(seed)), seed))
    assert np.count_nonzero(a) <= spectra._SPARSE_MAX_DENSITY * a.size
    return a


def _eigh_from_nonzeros(stack):
    """``_eigh`` of a stack handed all its nonzeros, as ``spectra_of``
    hands a sparse one its plans' entries; a NaN or an infinity is nonzero."""
    return spectra._eigh(stack, None, np.nonzero(stack))


def _recording_residuals(monkeypatch):
    """Record which residual check each ``_eigh`` call takes."""
    taken = []
    for name in ("_dense_residuals", "_nonzero_residuals"):
        def record(*args, _name=name, _real=getattr(spectra, name)):
            taken.append(_name)
            return _real(*args)

        monkeypatch.setattr(spectra, name, record)
    return taken


def test_a_large_sparse_block_is_checked_from_its_nonzeros(monkeypatch):
    taken = _recording_residuals(monkeypatch)
    phi = _component_775()
    spec = spectrum(phi)
    assert taken == ["_nonzero_residuals"]
    reference = np.linalg.eigvalsh(adjacency(phi))[::-1]
    np.testing.assert_allclose(spec.eigenvalues, reference, atol=1e-11)


def _random_dense_union(count):
    """``count`` components of order 256, about 10% of each block nonzero."""
    rng = random.Random(count)
    return _gain_union(*(random_gain_graph(gnp_graph(256, 0.1, rng), rng) for _ in range(count)))


@pytest.mark.parametrize(
    "build",
    [lambda: _random_dense_union(3), lambda: all_ones(complete_graph(300))],
    ids=["random-dense-stack", "all-ones-K300"],
)
def test_dense_large_blocks_keep_the_blas_product(monkeypatch, build):
    taken = _recording_residuals(monkeypatch)
    phi = build()
    ((_, stack, _),) = map(filled, spectra._blocks(phi))
    assert np.count_nonzero(stack) > spectra._SPARSE_MAX_DENSITY * stack.size
    spectrum(phi)
    assert taken == ["_dense_residuals"]


def test_small_and_bipartite_blocks_never_reach_the_nonzero_check(monkeypatch):
    # below _MRRR_MIN_ORDER every stack keeps the dense checks, however sparse
    taken = _recording_residuals(monkeypatch)
    phi = random_gain_graph(cycle_graph(255), 3)  # odd: one Hermitian block
    ((bipartite, stack, _),) = map(filled, spectra._blocks(phi))
    assert not bipartite and stack.shape[1] < spectra._MRRR_MIN_ORDER
    assert np.count_nonzero(stack) <= spectra._SPARSE_MAX_DENSITY * stack.size
    spectrum(phi)
    spectrum(extremal_union([150, 140], switch_seed=2))  # singular values only
    assert taken == ["_dense_residuals"]


def _set(a, entries):
    a = a.copy()
    for (i, j), z in entries.items():
        a[i, j] = z
    return a


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 1): math.nan, (1, 0): math.nan},
        {(2, 7): math.inf, (7, 2): math.inf},
        {(4, 4): -math.inf},
        {(5, 6): complex(1.0, math.nan), (6, 5): 1.0},
        {(5, 6): complex(0.0, math.nan)},
    ],
    ids=["nan-pair", "inf-pair", "minus-inf-diagonal", "nan-imaginary",
         "nan-imaginary-lone"],
)
def test_sparse_non_finite_entries_are_rejected(entries):
    with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
        _eigh_from_nonzeros(_set(_sparse_300(), entries)[None])


def test_sparse_asymmetry_is_rejected():
    a = _sparse_300()
    i, j = map(int, np.argwhere(a != 0)[0])
    zi, zj = map(int, np.argwhere(a == 0)[1])
    for entries in ({(i, j): a[i, j] + 1e-9}, {(zi, zj): 1e-9}, {(zj, zi): 1e-9j}):
        with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
            _eigh_from_nonzeros(_set(a, entries)[None])
    # the same entries, half the tolerance off, pass
    _eigh_from_nonzeros(_set(a, {(zi, zj): 0.5 * spectra.HERMITIAN_TOL})[None])


@needs_zheevr
def test_corrupt_mrrr_vectors_of_a_sparse_matrix_are_rejected(monkeypatch):
    a = _sparse_300()
    calls = []
    monkeypatch.setattr(spectra, "_zheevr", _counting_zheevr(calls, corrupt={0}))
    taken = _recording_residuals(monkeypatch)
    with pytest.raises(RuntimeError, match="^eigensolver residual .* exceeds 1e-08"):
        _eigh_from_nonzeros(a[None])
    assert calls == [300] and taken == ["_nonzero_residuals"]


@needs_zheevr
def test_a_stack_of_sparse_components_names_the_matrix(monkeypatch):
    phi = random_gain_graph(
        disjoint_union(_connected_nonbipartite(300, 2).graph,
                       _connected_nonbipartite(300, 4).graph), 3)
    ((_, stack, charge),) = map(filled, spectra._blocks(phi))
    assert stack.shape == (2, 300, 300) and stack.dtype == complex and charge is None
    assert np.count_nonzero(stack) <= spectra._SPARSE_MAX_DENSITY * stack.size
    monkeypatch.setattr(spectra, "_zheevr", _counting_zheevr([], corrupt={1}))
    taken = _recording_residuals(monkeypatch)
    with pytest.raises(RuntimeError, match="^matrix 1 of 2: eigensolver residual"):
        spectrum(phi)
    assert taken == ["_nonzero_residuals"]
    i, j = map(int, np.argwhere(stack[1] != 0)[0])
    for value, error in [(math.nan, "matrix has a non-finite entry"),
                         (stack[1, i, j] + 1e-9, "matrix is not Hermitian")]:
        bad = stack.copy()
        bad[1, i, j] = value
        with pytest.raises(ValueError, match=f"^matrix 1 of 2: {error}"):
            _eigh_from_nonzeros(bad)


def test_nonzero_residuals_equal_the_dense_product():
    # arbitrary vectors and values, so every residual is far from 0; a
    # diagonal entry, empty rows, a partial last chunk (300 = 9 * 32 + 12),
    # and vectors as eigh (columns) and zheevr (transposed rows) give them
    a, b = _sparse_300(), _sparse_300(seed=6)
    b[7, 7] = 2.5
    stack = np.stack([a, b])
    assert (np.count_nonzero(stack, axis=2) == 0).any()
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((2, 300))
    vecs = rng.standard_normal((2, 300, 600)).view(complex)
    at = np.nonzero(stack)
    nonzeros = at, stack[at]
    for v in (vecs, np.ascontiguousarray(vecs.swapaxes(1, 2)).swapaxes(1, 2)):
        np.testing.assert_allclose(
            spectra._nonzero_residuals(nonzeros, vals, v),
            spectra._dense_residuals(stack, vals, v), rtol=1e-12)


def test_an_all_zero_large_matrix_passes_the_dense_checks(monkeypatch):
    taken = _recording_residuals(monkeypatch)
    spec = eigenvalues(np.zeros((300, 300)))
    assert taken == ["_dense_residuals"]
    assert spec.eigenvalues.tobytes() == np.zeros(300).tobytes() and spec.energy == 0.0


def test_a_large_sparse_block_peaks_below_three_and_a_half_matrices():
    import tracemalloc

    phi = _component_775()
    n = phi.graph.n
    tracemalloc.start()
    try:
        spectrum(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block, the solver's copy of it and the eigenvectors; the residual
    # adds chunk buffers only, where a dense A V would add a fourth matrix
    assert peak < 3.5 * 16 * n**2


def _order_400(m, seed=0):
    """A connected non-bipartite gain graph of order 400 with m edges: a
    Hamiltonian cycle, the chord (0, 2) and random edges, random gains."""
    rng = random.Random(seed)
    edges = {(v, v + 1) for v in range(399)} | {(0, 399), (0, 2)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(400), 2))))
    return random_gain_graph(Graph.from_edges(400, edges), seed)


@pytest.mark.parametrize("m, check", [(2400, "_nonzero_residuals"),
                                      (2401, "_dense_residuals")])
def test_the_nonzero_check_takes_blocks_up_to_three_percent_nonzero(monkeypatch, m, check):
    # 2 * 2400 nonzeros are exactly 3% of 400 * 400 entries
    taken = _recording_residuals(monkeypatch)
    spectrum(_order_400(m))
    assert taken == [check]


@needs_zheevr
def test_stacks_are_filled_one_at_a_time():
    import tracemalloc

    phi = _gain_union(_connected_nonbipartite(400, 1), _connected_nonbipartite(300, 2))
    phi.graph._bipartition, phi._switching  # the graph's, not the solve's
    tracemalloc.start()
    try:
        spectrum(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # solving the order-400 block peaks near 3.1 of its matrices (the block,
    # zheevr's copy, the eigenvectors and the residual buffers); holding the
    # filled order-300 block through that solve would add 0.56 more
    assert peak < 3.35 * 16 * 400**2


def test_block_plans_allocate_no_block():
    import tracemalloc

    g = _connected_nonbipartite(1000, 1).graph
    phi = random_gain_graph(g, 1)
    phi.graph._bipartition, phi._switching
    tracemalloc.start()
    try:
        plans = list(spectra._blocks(phi))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ((bipartite, dtype, shape, entries, charge),) = plans
    assert (bipartite, dtype, shape, charge) == (False, complex, (1, 1000, 1000), None)
    assert all(np.ndim(x) <= 1 for x in entries)
    # the edge arrays and their temporaries: about 100 bytes per edge, where
    # the block alone is 16 MB
    assert peak < 0.05 * 16 * g.n**2


# ---------------------------------------------------------------------------
# Components that switch to real gains are solved in real arithmetic.
# ---------------------------------------------------------------------------


def _gain_union(*phis):
    """The disjoint union of gain graphs, each shifted past the ones before;
    its edges, ascending, are theirs in turn, so the gains concatenate."""
    g = empty_graph(0)
    for phi in phis:
        g = disjoint_union(g, phi.graph)
    return spectra.GainGraph.from_gains(g, np.concatenate([phi.gains for phi in phis]))


def _signed(g, seed):
    return spectra.GainGraph.from_gains(
        g, np.random.default_rng(seed).choice([-1.0, 1.0], g.m))


def _turned(phi, u, v, angle):
    return set_gain(phi, u, v, phi.gain(u, v) * unit_from_angle(angle))


def _forced_complex(phi, seed):
    """A copy of ``phi`` whose cached tree switching is a random unit one,
    under which no component's gains switch to real ones: every block is
    solved complex."""
    psi = pickle.loads(pickle.dumps(phi))
    psi.__dict__["_switching"] = np.exp(
        2j * np.pi * np.random.default_rng(seed).random(phi.graph.n))
    return psi


def _dtypes(phi):
    return {stack.dtype.char for _, stack, _ in map(filled, spectra._blocks(phi))}


def _mixed_unions(rng):
    """Balanced, signed and unbalanced components, bipartite and not, as
    they are and switched."""
    mixed = _gain_union(
        extremal_union([6], switch_seed=2),                                # balanced K_6,6
        random_gain_graph(complete_bipartite(4, 5), rng),                  # unbalanced, bipartite
        switch(all_ones(cycle_graph(7)), random_switching(7, 3)),          # balanced odd cycle
        random_gain_graph(complete_graph(5), rng),                         # unbalanced K5
        _turned(all_ones(cycle_graph(9)), 0, 1, math.pi),                  # signed, unbalanced
        random_gain_graph(random_tree(8, rng), rng),                       # a tree: balanced
        switch(_signed(complete_bipartite(3, 4), 4), random_switching(7, 5)),
        random_gain_graph(cycle_graph(6), rng),                            # unbalanced even cycle
    )
    return [mixed, switch(mixed, random_switching(mixed.graph.n, 9))]


_REAL_SWITCHABLE = {
    "switched extremal unions": lambda rng: [
        extremal_union([40, 25], isolated=7, switch_seed=3),
        extremal_union([5, 3, 3, 1], isolated=8, switch_seed=5),
        extremal_union([300, 200], isolated=5, switch_seed=1),
    ],
    "signed": lambda rng: [
        _signed(gnp_graph(60, 0.1, rng), 2),
        _signed(complete_graph(33), 1),
        switch(_signed(complete_graph(33), 1), random_switching(33, 6)),
        switch(_signed(complete_bipartite(14, 18), 7), random_switching(32, 8)),
    ],
    "mixed": _mixed_unions,
}


@pytest.mark.parametrize("case", sorted(_REAL_SWITCHABLE))
def test_real_path_matches_a_forced_complex_solve(case):
    for phi in _REAL_SWITCHABLE[case](random.Random(101)):
        assert phi.graph.n >= graphs.ARRAY_MIN_ORDER and "d" in _dtypes(phi)
        reference = _forced_complex(phi, 0)
        assert _dtypes(reference) == {"D"}
        if case == "mixed":
            assert _dtypes(phi) == {"d", "D"}
        spec, expected = spectrum(phi), spectrum(reference)
        norm = np.max(np.abs(expected.eigenvalues))
        assert np.max(np.abs(spec.eigenvalues - expected.eigenvalues)) <= 1e-12 * norm
        assert abs(spec.energy - expected.energy) <= 1e-12 * norm * phi.graph.n


def _k20_turned(angle):
    # BFS from 0 takes (0, v) for every v of the other side, then (20, u):
    # (1, 21) is not a tree edge, so its switched gain is e^{i angle}
    return _turned(extremal_union([20], switch_seed=11), 1, 21, angle)


@pytest.mark.parametrize("angle, dtype", [(0.0, "d"), (1e-13, "d"), (-1e-13, "d"),
                                          (1e-11, "D"), (-1e-11, "D")])
def test_switched_gains_within_the_hermitian_tolerance_take_the_real_path(
    monkeypatch, angle, dtype
):
    phi = _k20_turned(angle)
    (bipartite, stack, charge), = map(filled, spectra._blocks(phi))
    assert bipartite and stack.shape == (1, 20, 20) and stack.dtype.char == dtype
    if dtype == "d":
        # E = A - Z R Z^H is the turned edge's i sin(angle), and rounding
        assert abs(charge[0] - abs(angle)) <= 1e-14
    else:
        assert charge is None
    solved = []
    real_svd = np.linalg.svd

    def recording(b, *args, **kwargs):
        solved.append(b.dtype.char)
        return real_svd(b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    spec = spectrum(phi)
    assert solved == [dtype]
    assert spec.energy == pytest.approx(40.0, abs=1e-9)


def _charged_stacks():
    """Each stack of the real blocks of a balanced K_20,20 and a signed K_40,
    each with one gain turned by 1e-13, with the dense A, Z and R of its one
    block."""
    k20 = _k20_turned(1e-13)
    k40 = _turned(switch(_signed(complete_graph(40), 12), random_switching(40, 13)),
                  1, 3, 1e-13)
    for phi in (k20, k40):
        (bipartite, stack, charge), = map(filled, spectra._blocks(phi))
        a, z = adjacency(phi), np.diag(phi._switching)
        if bipartite:
            side0 = np.array(graphs.bipartition(phi.graph).side) == 0
            a, z = a[np.ix_(side0, ~side0)], (z[np.ix_(side0, side0)], z[np.ix_(~side0, ~side0)])
        else:
            z = (z, z)
        yield stack, charge, a, z


def test_real_blocks_are_the_switched_real_parts_and_charge_a_minus_z_r_zh():
    for stack, charge, a, (zr, zc) in _charged_stacks():
        assert stack.dtype == float and stack.shape[0] == 1 and charge.shape == (1,)
        switched = zr.conj().T @ a @ zc
        assert np.max(np.abs(stack[0] - switched.real)) <= 1e-15
        e = a - zr @ stack[0] @ zc.conj().T
        assert charge[0] == pytest.approx(np.linalg.norm(e), rel=1e-6)
        assert charge[0] >= 0.9e-13  # the turned gain's |Im|, at least


def test_a_charge_beyond_the_residual_tolerance_is_refused():
    x = np.random.default_rng(17).standard_normal((2, 6, 6))
    stack = x + x.swapaxes(1, 2)
    b = np.random.default_rng(19).standard_normal((2, 4, 7))
    for solve, block, text in ((spectra._eigh, stack, "eigensolver residual"),
                               (spectra._singular_values, b, "singular value residual")):
        norms = np.linalg.norm(block, 2, axis=(1, 2))
        solve(block, np.array([0.0, 0.5 * spectra.RESIDUAL_TOL * norms[1]]))
        with pytest.raises(RuntimeError, match=f"^matrix 1 of 2: {text}"):
            solve(block, np.array([0.0, 1.5 * spectra.RESIDUAL_TOL * norms[1]]))


def test_a_real_block_far_from_a_is_refused_by_its_charge(monkeypatch):
    # with the tolerance widened, a gain turned by 0.3 still sends the block
    # to the real path; R then misses A by |E| ~ 0.3, and the residual check,
    # charged with it, refuses the solve before any sum check runs
    monkeypatch.setattr(spectra, "HERMITIAN_TOL", 0.5)
    phi = _k20_turned(0.3)
    assert _dtypes(phi) == {"d"}
    with pytest.raises(RuntimeError, match="^singular value residual .* exceeds 1e-08"):
        spectrum(phi)


def _signed_unions(count, block):
    return _gain_union(*(switch(_signed(block, s), random_switching(block.n, s + 50))
                         for s in range(count)))


@pytest.mark.parametrize("k", [0, 3, 6])
def test_corrupt_real_eigenvectors_name_the_matrix(monkeypatch, k):
    phi = _signed_unions(7, complete_graph(5))
    real_eigh = np.linalg.eigh

    def corrupt(a, *args, **kwargs):
        assert a.dtype == float and a.shape == (7, 5, 5)
        vals, vecs = real_eigh(a, *args, **kwargs)
        vecs = vecs.copy()
        vecs[k] = vecs[k][:, ::-1]  # unit vectors, but paired with the wrong values
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", corrupt)
    with pytest.raises(RuntimeError, match=f"^matrix {k} of 7: eigensolver residual"):
        spectrum(phi)


@pytest.mark.parametrize("k", [0, 4])
def test_corrupt_real_singular_vectors_name_the_matrix(monkeypatch, k):
    phi = _signed_unions(5, complete_bipartite(3, 4))
    real_svd = np.linalg.svd

    def wrong_kernel(b, *args, **kwargs):
        assert b.dtype == float and b.shape == (5, 3, 4)
        u, s, vh = real_svd(b, *args, **kwargs)
        vh = vh.copy()
        vh[k, 3] = vh[k, 0]  # a unit vector, but not in the kernel of B
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", wrong_kernel)
    with pytest.raises(RuntimeError, match=f"^matrix {k} of 5: singular value residual"):
        spectrum(phi)


def test_many_components_are_scattered_without_per_block_objects(monkeypatch):
    n = 4096
    matching = all_ones(Graph.from_arrays(n, np.arange(0, n, 2), np.arange(1, n, 2)))
    rng = random.Random(103)
    small = _gain_union(*(random_gain_graph(g, rng) for g in
                          [cycle_graph(3), complete_bipartite(2, 2), path_graph(4)] * 20))
    expected = [eigenvalues(adjacency(small)), None]

    def unbuilt(*args, **kwargs):
        raise AssertionError("a block built a graph or gain graph")

    monkeypatch.setattr(Graph, "from_arrays", unbuilt)
    monkeypatch.setattr(spectra.GainGraph, "from_gains", unbuilt)
    for phi, reference in zip((small, matching), expected):
        assert len(graphs.components(phi.graph)) >= 60 and phi.graph.n >= 32
        spec = spectrum(phi)
        if reference is None:
            assert np.array_equal(np.abs(spec.eigenvalues), np.ones(n))
        else:
            np.testing.assert_allclose(spec.eigenvalues, reference.eigenvalues, atol=1e-12)


def test_switched_extremal_spectrum_peaks_below_the_complex_blocks():
    import tracemalloc

    # 12.6 MB was the tracemalloc peak when every block was cut from the
    # complex adjacency of its component (the 600 x 600 one alone is 5.8 MB);
    # the real blocks, scattered one group of components at a time, peak
    # near 8.3 MB, most of it the scatter's temporaries over K_300,300's edges
    phi = extremal_union([300, 200], isolated=5, switch_seed=1)
    phi.graph._forest  # the BFS is the graph's, not the solve's
    tracemalloc.start()
    try:
        spectrum(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
