import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adjacency_oracle, energy_oracle
from gainspec import (
    Graph,
    adjacency,
    all_ones,
    char_poly,
    chorded_six_cycle,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    eigenvalues,
    empty_graph,
    energy,
    four_cycle_energy,
    four_cycle_gain_graph,
    gnp_graph,
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
from gainspec.corpus import extremal_union, random_tree

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


@pytest.mark.parametrize(
    "round_trip",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_arrays_stay_read_only_after_a_round_trip(round_trip):
    from gainspec import bound_report

    phi = extremal_union([3, 2], isolated=1, switch_seed=7)
    phi._gain_array  # caches phi.graph._edge_array as well
    rep = bound_report(phi)
    graph, psi, spec, rep2 = map(round_trip, (phi.graph, phi, rep.spectrum, rep))
    assert graph == phi.graph and dict(psi.forward) == dict(phi.forward)
    assert np.array_equal(spec.eigenvalues, rep.spectrum.eigenvalues)
    assert rep2 == rep
    arrays = [
        *graph._edge_array, psi._gain_array, *psi.graph._edge_array,
        spec.eigenvalues, rep2.spectrum.eigenvalues,
        *rep2.phi.graph._edge_array, rep2.phi._gain_array,
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
        vh[2] = vh[0]  # a unit vector, but not in the kernel of B
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", wrong_kernel)
    with pytest.raises(RuntimeError, match="singular value residual"):
        spectrum(random_gain_graph(complete_bipartite(2, 3), 47))
    assert shapes == [(2, 3)]
