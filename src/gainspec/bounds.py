"""The energy lower bound 2*mu(G) as executable checks.

``bound_report`` is the single analysis pass over one gain graph: energy,
matching number, the gap between them, whether the bound is numerically
attained (gap <= 1e-6), and whether the graph has the exact structure that
attains it (balanced gains on a disjoint union of equal-sided complete
bipartite blocks plus isolated vertices).  The two verdicts must always
agree; ``consistent`` records that.  The report also carries the gain
graph, the spectrum and the balance certificate it was computed from.

The ``check_*`` functions stress the supporting inequalities on the
``BoundReport`` of single instances or corpora and accumulate into
``LemmaReport`` values: instance counts, violations (always expected empty),
skip reasons for inputs that fail a precondition, and the worst margin
observed.  ``run_lemma_suite`` drives all of them over seeded corpora,
analysing each instance once.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import corpus, gains, graphs
from .gains import BalanceCertificate, GainGraph, is_balanced
from .graphs import Graph, bipartition, edge_cut, induced_subgraph, is_connected
from .matching import maximum_matching
from .spectra import Spectrum, energy, spectrum

GAP_TIGHT_TOL = 1e-6     # "numerically tight" threshold on energy - 2*mu
STRICT_MARGIN = 1e-8     # strict inequalities must clear this


@dataclass(frozen=True)
class BoundReport:
    """One analysis pass over ``phi``: the spectrum, the matching number and
    the balance certificate are each computed once, and both verdicts (and
    every lemma checker) read from them."""

    energy: float
    mu: int
    gap: float
    numerically_tight: bool
    structurally_extremal: bool
    consistent: bool
    spectrum: Spectrum = field(compare=False, repr=False)
    balance: BalanceCertificate = field(compare=False, repr=False)
    phi: GainGraph = field(compare=False, repr=False)


def _equal_sided_blocks(g: Graph) -> bool:
    """The structural half of ``is_extremal_structure``, without balance.

    A two-coloured component on 2t vertices, all of degree t, is K_{t,t}: a
    vertex's t neighbours fill the other side, so both sides have t vertices.
    """
    bip = bipartition(g)
    return all(
        len(comp) == 1
        or (bip.exists[k] and all(2 * g.degree(v) == len(comp) for v in comp))
        for k, comp in enumerate(bip.components)
    )


def is_extremal_structure(phi: GainGraph) -> bool:
    """Balanced, and every component is a single vertex or an equal-sided
    complete bipartite graph (sides t, t with exactly t^2 edges)."""
    return is_balanced(phi).balanced and _equal_sided_blocks(phi.graph)


def bound_report(phi: GainGraph) -> BoundReport:
    spec = spectrum(phi)
    mu = maximum_matching(phi.graph).mu
    cert = is_balanced(phi)
    g = spec.energy - 2.0 * mu
    tight = g <= GAP_TIGHT_TOL
    extremal = cert.balanced and _equal_sided_blocks(phi.graph)
    return BoundReport(
        energy=spec.energy,
        mu=mu,
        gap=g,
        numerically_tight=tight,
        structurally_extremal=extremal,
        consistent=tight == extremal,
        spectrum=spec,
        balance=cert,
        phi=phi,
    )


# ---------------------------------------------------------------------------
# Structure predicates for the fixed forbidden/target shapes.
# ---------------------------------------------------------------------------


def edge_set_is_star(edges: Iterable[tuple[int, int]]) -> bool:
    """True iff the edges are nonempty and all share a common vertex."""
    edges = list(edges)
    if not edges:
        return False
    common = set(edges[0])
    for u, v in edges[1:]:
        common &= {u, v}
        if not common:
            return False
    return True


def is_four_path(g: Graph) -> bool:
    """Exact test for the 4-vertex path."""
    return (
        g.n == 4
        and g.m == 3
        and sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]
        and is_connected(g)
    )


def is_chorded_hexagon(g: Graph) -> bool:
    """Exact test for the six-cycle with one long chord.

    Degree sequence {3,3,2,2,2,2} with 7 edges, the degree-3 pair adjacent,
    connected and bipartite.  Deleting that chord leaves a 2-regular graph
    on 6 vertices, a six-cycle or two triangles; bipartiteness excludes the
    triangles and forces the chord to join opposite vertices.
    """
    if g.n != 6 or g.m != 7:
        return False
    degs = sorted((g.degree(v), v) for v in range(6))
    if [d for d, _ in degs] != [2, 2, 2, 2, 3, 3]:
        return False
    a, b = degs[4][1], degs[5][1]
    if not g.has_edge(a, b) or not is_connected(g):
        return False
    return bipartition(g).is_bipartite


# ---------------------------------------------------------------------------
# Lemma reports.
# ---------------------------------------------------------------------------


@dataclass
class LemmaReport:
    """Accumulator for one lemma sweep.

    ``worst_margin`` is the smallest distance-to-failure observed; what the
    margin measures is documented on each checker.
    """

    lemma: str
    instances: int = 0
    violations: list[str] = field(default_factory=list)
    skip_reasons: Counter = field(default_factory=Counter)
    worst_margin: float | None = None

    @property
    def skips(self) -> int:
        return sum(self.skip_reasons.values())

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, margin: float) -> None:
        self.instances += 1
        if self.worst_margin is None or margin < self.worst_margin:
            self.worst_margin = margin

    def violate(self, message: str) -> None:
        self.violations.append(message)

    def skip(self, reason: str) -> None:
        self.skip_reasons[reason] += 1

    def merge(self, other: "LemmaReport") -> None:
        if other.lemma != self.lemma:
            raise ValueError("cannot merge reports for different lemmas")
        self.instances += other.instances
        self.violations.extend(other.violations)
        self.skip_reasons.update(other.skip_reasons)
        if other.worst_margin is not None:
            if self.worst_margin is None or other.worst_margin < self.worst_margin:
                self.worst_margin = other.worst_margin


EDGE_CUT = "edge_cut_monotonicity"
PENDANT = "pendant_strictness"
CHORDED_HEXAGON = "chorded_hexagon_energy"
PERFECT_MATCHING = "perfect_matching_necessity"
NONBIPARTITE = "nonbipartite_strictness"
SUBGRAPH = "tight_subgraph_propagation"
BALANCE = "balance_regularity_necessity"

LEMMA_ORDER = (
    EDGE_CUT,
    PENDANT,
    CHORDED_HEXAGON,
    PERFECT_MATCHING,
    NONBIPARTITE,
    SUBGRAPH,
    BALANCE,
)


def check_edge_cut_lemma(
    rep: BoundReport, vs: Iterable[int], report: LemmaReport | None = None
) -> LemmaReport:
    """Deleting an edge cut never raises the energy; a star cut strictly
    lowers it.  Margin: energy drop."""
    report = report or LemmaReport(EDGE_CUT)
    cut = edge_cut(rep.phi.graph, vs)
    drop = 0.0  # an empty cut leaves the matrix unchanged: reuse the solve
    if cut:
        drop = rep.energy - energy(gains.delete_gain_edges(rep.phi, cut))
    report.record(drop)
    if drop < -STRICT_MARGIN:
        report.violate(f"energy rose by {-drop:.3e} after deleting a cut")
    elif cut and edge_set_is_star(cut) and drop <= STRICT_MARGIN:
        report.violate(f"star cut failed strictness (drop {drop:.3e})")
    return report


def check_pendant_lemma(
    rep: BoundReport, report: LemmaReport | None = None
) -> LemmaReport:
    """Connected with a pendant vertex (n >= 3) forces a strictly positive
    gap.  Margin: the gap."""
    report = report or LemmaReport(PENDANT)
    g = rep.phi.graph
    if g.n < 3:
        report.skip("fewer than 3 vertices")
        return report
    if not is_connected(g):
        report.skip("not connected")
        return report
    if not graphs.pendant_vertices(g):
        report.skip("no pendant vertex")
        return report
    margin = rep.gap
    report.record(margin)
    if margin <= STRICT_MARGIN:
        report.violate(f"pendant instance has gap {margin:.3e}")
    return report


def check_c6tilde_lemma(
    seed: int | random.Random, trials: int, report: LemmaReport | None = None
) -> LemmaReport:
    """Every gain assignment on the chorded six-cycle has energy > 6.
    Margin: energy - 6."""
    report = report or LemmaReport(CHORDED_HEXAGON)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    g = graphs.chorded_six_cycle()
    if maximum_matching(g).mu != 3:
        report.violate("chorded six-cycle must have matching number 3")
        return report
    for _ in range(trials):
        phi = gains.random_gain_graph(g, rng)
        margin = energy(phi) - 6.0
        report.record(margin)
        if margin <= STRICT_MARGIN:
            report.violate(f"energy only 6 + {margin:.3e}")
    return report


def check_perfect_matching_lemma(
    members: Iterable[BoundReport], report: LemmaReport | None = None
) -> LemmaReport:
    """A tight gain graph without isolated vertices has a perfect matching,
    applied to G minus its isolated vertices: those add only zero eigenvalues
    and no matching edge, so a tight instance matches every vertex of
    positive degree.  Margin: smallest gap seen (tight members drive it to
    ~0)."""
    report = report or LemmaReport(PERFECT_MATCHING)
    for rep in members:
        g = rep.phi.graph
        report.record(rep.gap)
        covered = sum(1 for v in range(g.n) if g.degree(v))
        if rep.numerically_tight and 2 * rep.mu != covered:
            report.violate(
                f"tight instance (gap {rep.gap:.3e}) lacks a perfect matching"
            )
    return report


def check_nonbipartite_lemma(
    members: Iterable[BoundReport], report: LemmaReport | None = None
) -> LemmaReport:
    """Connected non-bipartite underlying graphs have strictly positive gap.
    Margin: the gap."""
    report = report or LemmaReport(NONBIPARTITE)
    for rep in members:
        if not is_connected(rep.phi.graph):
            report.skip("not connected")
            continue
        if bipartition(rep.phi.graph).is_bipartite:
            report.skip("bipartite")
            continue
        margin = rep.gap
        report.record(margin)
        if margin <= STRICT_MARGIN:
            report.violate(f"non-bipartite instance has gap {margin:.3e}")
    return report


def check_subgraph_lemma(
    rep: BoundReport, vs: Iterable[int], report: LemmaReport | None = None
) -> LemmaReport:
    """When the matching number splits additively across an induced subgraph
    and its complement, tightness propagates to the subgraph, which then
    cannot be the 4-path or the chorded six-cycle.  Margin: the subgraph gap
    for tight instances, the full gap otherwise."""
    report = report or LemmaReport(SUBGRAPH)
    inside = set(vs)
    vs = sorted(inside)
    g = rep.phi.graph
    phi1 = gains.induced_gain_subgraph(rep.phi, vs)
    g1 = phi1.graph
    g2, _ = induced_subgraph(g, [v for v in range(g.n) if v not in inside])
    mu1 = maximum_matching(g1).mu
    if rep.mu != mu1 + maximum_matching(g2).mu:
        report.skip("matching number not additive over the split")
        return report
    if not rep.numerically_tight:
        report.record(rep.gap)
        return report
    sub_gap = energy(phi1) - 2.0 * mu1
    report.record(sub_gap)
    if sub_gap > GAP_TIGHT_TOL:
        report.violate(
            f"tight graph has non-tight induced subgraph (gap {sub_gap:.3e})"
        )
    if is_four_path(g1):
        report.violate("tight graph splits off a 4-path")
    if is_chorded_hexagon(g1):
        report.violate("tight graph splits off a chorded six-cycle")
    return report


def check_balance_lemma(
    members: Iterable[BoundReport], report: LemmaReport | None = None
) -> LemmaReport:
    """Tight connected bipartite gain graphs are balanced and equal-sided
    complete bipartite.  Margin: smallest gap seen."""
    report = report or LemmaReport(BALANCE)
    for rep in members:
        g = rep.phi.graph
        if g.n < 2:
            report.skip("fewer than 2 vertices")
            continue
        if not is_connected(g):
            report.skip("not connected")
            continue
        if not bipartition(g).is_bipartite:
            report.skip("not bipartite")
            continue
        report.record(rep.gap)
        if rep.numerically_tight:
            if not rep.balance.balanced:
                report.violate(f"tight instance (gap {rep.gap:.3e}) is unbalanced")
            if not rep.structurally_extremal:
                report.violate(
                    f"tight instance (gap {rep.gap:.3e}) is not an equal-sided "
                    "complete bipartite block"
                )
    return report


# ---------------------------------------------------------------------------
# The full suite over seeded corpora.
# ---------------------------------------------------------------------------

# The chorded-hexagon sweep is cheap (fixed 6-vertex graph), so it runs at
# 5/2 of the base trial count: 500 instances for the default 200 trials.
C6_TRIAL_FACTOR = (5, 2)


def run_lemma_suite(
    seed: int = 42, trials: int = 200, nmax: int = 10
) -> list[LemmaReport]:
    """Run every lemma sweep over seeded corpora; deterministic in seed.
    Each instance gets one ``bound_report``, judged by every lemma visiting it.
    A negative ``trials`` raises ``ValueError``."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    master = random.Random(seed)

    def sub_rng() -> random.Random:
        return random.Random(master.randrange(2**32))

    base = corpus.random_gain_corpus(master.randrange(2**32), trials, nmax)
    rng_extremal = sub_rng()
    extremal: list[BoundReport] = []
    parts_pool = corpus.part_multisets(6)
    for k in range(max(trials // 8, 1) if trials else 0):
        parts = parts_pool[k % len(parts_pool)]
        phi = corpus.extremal_union(
            parts, isolated=rng_extremal.randrange(3), switch_seed=rng_extremal
        )
        extremal.append(bound_report(phi))

    reports = {name: LemmaReport(name) for name in LEMMA_ORDER}
    rng_cut, rng_tree, rng_c6, rng_split, rng_bal = (sub_rng() for _ in range(5))
    # each extremal report comes up about trials / (2 * len(extremal)) times
    # and can draw the same split again: judge each distinct pair once
    splits: dict[tuple[int, tuple[int, ...]], LemmaReport] = {}

    # len(base) == trials: base instance k is step k of every base sweep.
    for k, phi in enumerate(base):
        rep = bound_report(phi)
        n = phi.graph.n
        if k % 3 == 0 and n:
            vs: Sequence[int] = [rng_cut.randrange(n)]  # singleton: star cut
        else:
            vs = rng_cut.sample(range(n), rng_cut.randint(0, n))
        check_edge_cut_lemma(rep, vs, reports[EDGE_CUT])
        check_perfect_matching_lemma([rep], reports[PERFECT_MATCHING])
        check_nonbipartite_lemma([rep], reports[NONBIPARTITE])
        if extremal and k % 2 == 0:
            j = (k // 2) % len(extremal)
            split = corpus.component_split(extremal[j].phi.graph, rng_split)
            if split is None:
                reports[SUBGRAPH].skip("single component, no proper split")
            else:
                if (j, split) not in splits:
                    splits[j, split] = check_subgraph_lemma(extremal[j], split)
                reports[SUBGRAPH].merge(splits[j, split])
        else:
            vs = rng_split.sample(range(n), rng_split.randint(0, n))
            check_subgraph_lemma(rep, vs, reports[SUBGRAPH])
        check_balance_lemma([rep], reports[BALANCE])

    for k in range(trials):
        n = 3 + k % max(nmax - 2, 1)
        tree = corpus.random_tree(n, rng_tree)
        check_pendant_lemma(
            bound_report(gains.random_gain_graph(tree, rng_tree)), reports[PENDANT]
        )

    check_c6tilde_lemma(
        rng_c6,
        trials * C6_TRIAL_FACTOR[0] // C6_TRIAL_FACTOR[1],
        reports[CHORDED_HEXAGON],
    )

    check_perfect_matching_lemma(extremal, reports[PERFECT_MATCHING])

    balance_extras: list[GainGraph] = []
    for t in range(1, min(4, max(nmax // 2, 1)) + 1):
        for _ in range(3):
            balance_extras.append(
                corpus.extremal_union([t], switch_seed=rng_bal)
            )
        phi = gains.all_ones(graphs.complete_bipartite(t, t))
        if t >= 2:
            balance_extras.append(
                gains.set_gain(phi, 0, t, gains.unit_from_angle(0.25 * math.pi))
            )
    if trials:
        check_balance_lemma(map(bound_report, balance_extras), reports[BALANCE])

    return [reports[name] for name in LEMMA_ORDER]
