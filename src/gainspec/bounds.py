"""The energy lower bound 2*mu(G) as executable checks.

``bound_report`` is the single analysis pass over one gain graph: energy,
matching number, the gap between them, whether the bound is numerically
attained (gap <= 1e-6), and whether the graph has the exact structure that
attains it (balanced gains on a disjoint union of equal-sided complete
bipartite blocks plus isolated vertices).  The two verdicts must always
agree; ``consistent`` records that.  The report also carries the gain
graph, the spectrum, the balance certificate and the maximum matching it was
computed from.

The ``check_*`` functions stress the supporting inequalities.  Each returns
a fresh ``LemmaReport`` named for its lemma: instance counts, violations
(always expected empty), skip reasons for inputs that fail a precondition,
and the worst margin observed.  Every checker but ``check_c6tilde_lemma``,
which draws its own instances, takes a stream of ``BoundReport`` values or
of (report, vertex set) cases; the edge-cut and subgraph checkers build and
solve their derived instances a window at a time, each spectrum a returned
value.  The subgraph checker reads the matching numbers of a split's two
sides off the report's matching when no matched edge crosses the split.
``run_lemma_suite`` analyses each drawn instance once, hands each window of
reports to every checker, and folds what they return with
``LemmaReport.merge``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TypeVar

from . import corpus, gains, graphs
from .gains import BalanceCertificate, GainGraph, is_balanced
from .graphs import Graph, bipartition, edge_cut, is_connected
from .matching import MatchingResult, maximum_matching
from .spectra import Spectrum, spectra_of, spectrum

GAP_TIGHT_TOL = 1e-6     # "numerically tight" threshold on energy - 2*mu
STRICT_MARGIN = 1e-8     # strict inequalities must clear this

# Steps in one window of the lemma suite.  A window's instances are drawn,
# solved in one batch per order, then judged, so memory follows the window,
# not the trial count.  `lemmas --seed 23 --trials 1000 --nmax 16` makes 470
# `np.linalg.eigh` calls at 128 steps and 902 at 64; its peak RSS
# (`ru_maxrss`, one BLAS thread) is 35.6 MB at 128, 34.8 MB at 64 and
# 37.4 MB at 256.
_WINDOW = 128

T = TypeVar("T")


def _windows(items: Iterable[T]) -> Iterator[list[T]]:
    """``items`` in consecutive lists of ``_WINDOW``."""
    it = iter(items)
    while window := list(itertools.islice(it, _WINDOW)):
        yield window


@dataclass(frozen=True)
class BoundReport:
    """One analysis pass over ``phi``: the spectrum, the maximum matching
    and the balance certificate are each computed once, and both verdicts
    (and every lemma checker) read from them.  ``matching`` is the matching
    whose size is ``mu``; restricted to the two sides of a split that none
    of its edges crosses, it is a maximum matching of each."""

    energy: float
    mu: int
    gap: float
    numerically_tight: bool
    structurally_extremal: bool
    consistent: bool
    spectrum: Spectrum = field(compare=False, repr=False)
    balance: BalanceCertificate = field(compare=False, repr=False)
    phi: GainGraph = field(compare=False, repr=False)
    matching: MatchingResult = field(compare=False, repr=False)


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
    return _report(phi, spectrum(phi))


def _report(phi: GainGraph, spec: Spectrum) -> BoundReport:
    """``bound_report`` of ``phi``, whose spectrum is ``spec``."""
    matching = maximum_matching(phi.graph)
    mu = matching.mu
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
        matching=matching,
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
    """The result of one lemma sweep; ``merge`` folds in another sweep of
    the same lemma.

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
    cases: Iterable[tuple[BoundReport, Iterable[int]]]
) -> LemmaReport:
    """Deleting an edge cut never raises the energy; a star cut strictly
    lowers it.  Each case is a report and the vertex set whose cut is
    deleted.  A window's remainders of non-empty cuts are solved in one
    batch; an empty cut deletes nothing and drops exactly 0.0, unsolved.
    Margin: energy drop."""
    report = LemmaReport(EDGE_CUT)
    for window in _windows(cases):
        cuts = [(rep, edge_cut(rep.phi.graph, vs)) for rep, vs in window]
        solved = iter(spectra_of(gains.delete_gain_edges(rep.phi, cut)
                                 for rep, cut in cuts if cut))
        for rep, cut in cuts:
            drop = rep.energy - next(solved).energy if cut else 0.0
            report.record(drop)
            if drop < -STRICT_MARGIN:
                report.violate(f"energy rose by {-drop:.3e} after deleting a cut")
            elif cut and edge_set_is_star(cut) and drop <= STRICT_MARGIN:
                report.violate(f"star cut failed strictness (drop {drop:.3e})")
    return report


def check_pendant_lemma(members: Iterable[BoundReport]) -> LemmaReport:
    """Connected with a pendant vertex (n >= 3) forces a strictly positive
    gap.  Margin: the gap."""
    report = LemmaReport(PENDANT)
    for rep in members:
        g = rep.phi.graph
        if g.n < 3:
            report.skip("fewer than 3 vertices")
            continue
        if not is_connected(g):
            report.skip("not connected")
            continue
        if not graphs.pendant_vertices(g):
            report.skip("no pendant vertex")
            continue
        margin = rep.gap
        report.record(margin)
        if margin <= STRICT_MARGIN:
            report.violate(f"pendant instance has gap {margin:.3e}")
    return report


def check_c6tilde_lemma(seed: int | random.Random, trials: int) -> LemmaReport:
    """Every gain assignment on the chorded six-cycle has energy > 6.
    Margin: energy - 6."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    report = LemmaReport(CHORDED_HEXAGON)
    rng = gains._rng(seed)
    g = graphs.chorded_six_cycle()
    if maximum_matching(g).mu != 3:
        report.violate("chorded six-cycle must have matching number 3")
        return report
    for window in _windows(gains.random_gain_graph(g, rng) for _ in range(trials)):
        for spec in spectra_of(window):
            margin = spec.energy - 6.0
            report.record(margin)
            if margin <= STRICT_MARGIN:
                report.violate(f"energy only 6 + {margin:.3e}")
    return report


def check_perfect_matching_lemma(members: Iterable[BoundReport]) -> LemmaReport:
    """A tight gain graph without isolated vertices has a perfect matching,
    applied to G minus its isolated vertices: those add only zero eigenvalues
    and no matching edge, so a tight instance matches every vertex of
    positive degree.  Margin: smallest gap seen (tight members drive it to
    ~0)."""
    report = LemmaReport(PERFECT_MATCHING)
    for rep in members:
        g = rep.phi.graph
        report.record(rep.gap)
        covered = sum(1 for v in range(g.n) if g.degree(v))
        if rep.numerically_tight and 2 * rep.mu != covered:
            report.violate(
                f"tight instance (gap {rep.gap:.3e}) lacks a perfect matching"
            )
    return report


def check_nonbipartite_lemma(members: Iterable[BoundReport]) -> LemmaReport:
    """Connected non-bipartite underlying graphs have strictly positive gap.
    Margin: the gap."""
    report = LemmaReport(NONBIPARTITE)
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
    cases: Iterable[tuple[BoundReport, Iterable[int]]]
) -> LemmaReport:
    """When the matching number splits additively across an induced subgraph
    and its complement, tightness propagates to the subgraph, which then
    cannot be the 4-path or the chorded six-cycle.  Each case is a report
    and the vertex set S that induces the subgraph.  When no edge of the
    report's maximum matching M crosses the split, the sides' matching
    numbers are the counts of M's edges in S and in V - S, with no matching
    run: those parts match the sides and |M| = mu(G) >= mu(G[S]) +
    mu(G[V - S]), so neither side can do better.  Otherwise each side is
    matched.  A window's subgraphs of tight, additive cases are solved in
    one batch.  Margin: the subgraph gap for tight instances, the full gap
    otherwise."""
    report = LemmaReport(SUBGRAPH)
    for window in _windows(cases):
        splits, tight = [], []
        for rep, vs in window:
            inside = set(vs)
            g = rep.phi.graph
            outside = [v for v in range(g.n) if v not in inside]
            sides = graphs._induced(g, [inside, outside])
            g1, e1 = next(sides)
            matched = rep.matching.matched_edges
            if any((u in inside) != (v in inside) for u, v in matched):
                mu1 = maximum_matching(g1).mu
                mu2 = maximum_matching(next(sides)[0]).mu
            else:  # M restricts to maximum matchings of both sides
                mu1 = sum(u in inside for u, _ in matched)
                mu2 = len(matched) - mu1
            additive = rep.mu == mu1 + mu2
            splits.append((rep, g1, mu1, additive))
            if additive and rep.numerically_tight:
                tight.append(GainGraph.from_gains(g1, rep.phi.gains[e1]))
        tight_spectra = iter(spectra_of(tight))
        for rep, g1, mu1, additive in splits:
            if not additive:
                report.skip("matching number not additive over the split")
            elif not rep.numerically_tight:
                report.record(rep.gap)
            else:
                sub_gap = next(tight_spectra).energy - 2.0 * mu1
                report.record(sub_gap)
                if sub_gap > GAP_TIGHT_TOL:
                    report.violate("tight graph has non-tight induced subgraph "
                                   f"(gap {sub_gap:.3e})")
                if is_four_path(g1):
                    report.violate("tight graph splits off a 4-path")
                if is_chorded_hexagon(g1):
                    report.violate("tight graph splits off a chorded six-cycle")
    return report


def check_balance_lemma(members: Iterable[BoundReport]) -> LemmaReport:
    """Tight connected bipartite gain graphs are balanced and equal-sided
    complete bipartite.  Margin: smallest gap seen."""
    report = LemmaReport(BALANCE)
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


def _reports(phis: Iterable[GainGraph]) -> Iterator[BoundReport]:
    """``bound_report`` of each gain graph, solved a window at a time."""
    for window in _windows(phis):
        yield from map(_report, window, spectra_of(window))


def run_lemma_suite(
    seed: int = 42, trials: int = 200, nmax: int = 10
) -> list[LemmaReport]:
    """Run every lemma sweep over seeded corpora; deterministic in seed.
    Each instance gets one ``bound_report``, judged by every lemma visiting it.
    A negative ``trials`` or an ``nmax`` below 2 raises ``ValueError``.

    The base sweeps run in windows of ``_WINDOW`` steps: a window analyses
    its instances in one batch, draws their cut and split cases (an
    extremal union's split on even steps), calls each checker once and
    merges its report into that lemma's; the checkers solve their own
    derived instances, so nothing derived outlives its window.  No draw
    depends on a solve (cut sets, splits, trees and gains come from their
    own streams), so the instances and the reports do not depend on the
    window."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if nmax < 2:
        raise ValueError(f"nmax must be >= 2, got {nmax}")
    master = random.Random(seed)

    def sub_rng() -> random.Random:
        return random.Random(master.randrange(2**32))

    base = corpus.iter_random_gain_corpus(master.randrange(2**32), trials, nmax)
    rng_extremal = sub_rng()
    parts_pool = corpus.part_multisets(6)
    unions = [
        corpus.extremal_union(
            parts_pool[k % len(parts_pool)],
            isolated=rng_extremal.randrange(3),
            switch_seed=rng_extremal,
        )
        for k in range(max(trials // 8, 1) if trials else 0)
    ]
    extremal = list(_reports(unions))

    reports = {name: LemmaReport(name) for name in LEMMA_ORDER}
    rng_cut, rng_tree, rng_c6, rng_split, rng_bal = (sub_rng() for _ in range(5))

    # base instance k is step k of every base sweep
    for window in _windows(enumerate(base)):
        reps = list(_reports(phi for _, phi in window))
        cuts, splits = [], []
        for (k, _), rep in zip(window, reps):
            n = rep.phi.graph.n
            if k % 3 == 0:
                cuts.append((rep, [rng_cut.randrange(n)]))  # singleton: star cut
            else:
                cuts.append((rep, rng_cut.sample(range(n), rng_cut.randint(0, n))))
            if extremal and k % 2 == 0:
                owner = extremal[(k // 2) % len(extremal)]
                inside = corpus.component_split(owner.phi.graph, rng_split)
                if inside is None:
                    reports[SUBGRAPH].skip("single component, no proper split")
                else:
                    splits.append((owner, inside))
            else:
                inside = rng_split.sample(range(n), rng_split.randint(0, n))
                splits.append((rep, inside))
        reports[EDGE_CUT].merge(check_edge_cut_lemma(cuts))
        reports[PERFECT_MATCHING].merge(check_perfect_matching_lemma(reps))
        reports[NONBIPARTITE].merge(check_nonbipartite_lemma(reps))
        reports[SUBGRAPH].merge(check_subgraph_lemma(splits))
        reports[BALANCE].merge(check_balance_lemma(reps))

    trees = (
        gains.random_gain_graph(
            corpus.random_tree(3 + k % max(nmax - 2, 1), rng_tree), rng_tree
        )
        for k in range(trials)
    )
    reports[PENDANT].merge(check_pendant_lemma(_reports(trees)))
    reports[CHORDED_HEXAGON].merge(check_c6tilde_lemma(
        rng_c6, trials * C6_TRIAL_FACTOR[0] // C6_TRIAL_FACTOR[1]
    ))
    reports[PERFECT_MATCHING].merge(check_perfect_matching_lemma(extremal))

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
        reports[BALANCE].merge(check_balance_lemma(_reports(balance_extras)))

    return [reports[name] for name in LEMMA_ORDER]
