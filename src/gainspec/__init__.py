"""Complex unit gain graphs: spectra, energy, matching number, balance, and
an executable check of the energy lower bound 2*mu(G)."""

from .graphs import (
    Bipartition,
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
    gnp_graph,
    induced_subgraph,
    is_connected,
    kronecker_graph,
    named_graph,
    path_graph,
    pendant_vertices,
    star_graph,
)
from .gains import (
    BalanceCertificate,
    GainGraph,
    SwitchingFunction,
    all_ones,
    cycle_gain,
    delete_gain_edges,
    gain_graph,
    induced_gain_subgraph,
    is_balanced,
    kronecker,
    random_gain_graph,
    random_switching,
    set_gain,
    switch,
    unit,
    unit_from_angle,
)
from .spectra import (
    KroneckerCheck,
    Spectrum,
    adjacency,
    eigenvalues,
    energy,
    kronecker_spectrum_check,
    spectra_of,
    spectrum,
)
from .matching import (
    MatchingResult,
    maximum_matching,
)
from .bounds import (
    BoundReport,
    LemmaReport,
    bound_report,
    check_balance_lemma,
    check_c6tilde_lemma,
    check_edge_cut_lemma,
    check_nonbipartite_lemma,
    check_pendant_lemma,
    check_perfect_matching_lemma,
    check_subgraph_lemma,
    is_extremal_structure,
    run_lemma_suite,
)
from .fileio import (
    GainGraphParseError,
    load_gain_graph,
    parse_gain_graph,
    save_gain_graph,
    serialize_gain_graph,
)

__version__ = "0.1.0"
