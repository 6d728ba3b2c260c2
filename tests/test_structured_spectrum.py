"""The spectrum, energy and bound-report tests again, with ``spectrum`` on
its per-component path at every order.

Most of those tests use graphs below ``graphs.ARRAY_MIN_ORDER``, where
``spectrum`` takes one dense solve; collected here, they run under the
``array_paths`` fixture instead.
"""

import numpy as np
import pytest

from gainspec import all_ones, complete_bipartite, spectrum
from test_acceptance import (  # noqa: F401
    test_criterion_1_bound_universality,
    test_criterion_2_sufficiency_exactness,
    test_criterion_3_biconditional,
    test_criterion_6_kronecker_identity,
    test_criterion_9_spectral_sanity,
)
from test_bounds import (  # noqa: F401
    test_balance_lemma,
    test_biconditional_on_random_corpus,
    test_bound_report_four_path,
    test_bound_report_perturbed_square,
    test_bound_report_tight_case,
    test_c6tilde_lemma_sweep,
    test_edge_cut_lemma_fixed_cases,
    test_edge_cut_lemma_random_sweep,
    test_nonbipartite_lemma,
    test_pendant_lemma,
    test_pendant_lemma_random_trees,
    test_perfect_matching_lemma,
    test_run_lemma_suite_smoke_and_determinism,
    test_subgraph_lemma,
    test_sufficiency_families_are_tight,
)
from test_spectra import (  # noqa: F401
    test_char_poly_roots_are_eigenvalues,
    test_eigenvalues_k33_spectrum,
    test_eigenvalues_sorted_descending,
    test_empty_graph_spectrum,
    test_energy_matches_independent_oracle,
    test_energy_of_balanced_complete_bipartite,
    test_energy_of_chorded_hexagon_exceeds_six,
    test_energy_of_four_path,
    test_four_cycle_energy_closed_form_properties,
    test_kronecker_spectrum_check_edgeless_factor,
    test_kronecker_spectrum_check_random_doubles,
    test_kronecker_spectrum_check_triangle_doubling,
    test_spectral_switching_invariance,
    test_spectrum_sanity_checks_run_on_every_solve,
)

pytestmark = pytest.mark.usefixtures("array_paths")


def test_fixture_selects_the_per_component_path(monkeypatch):
    def no_dense_solve(*args, **kwargs):
        raise AssertionError("K_{2,2} went to the dense solver")

    monkeypatch.setattr(np.linalg, "eigh", no_dense_solve)
    assert spectrum(all_ones(complete_bipartite(2, 2))).energy == pytest.approx(4.0)
