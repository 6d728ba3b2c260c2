"""Seeded instance generators for sweeps and fixtures.

Random graphs are G(n, p) with p cycling through {0.3, 0.5, 0.8} and
n cycling through 2..nmax, carrying uniform random edge gains.  The
"extremal" family is a disjoint union of equal-sided complete bipartite
blocks plus isolated vertices, all-ones gains, optionally hit with a random
switching (which preserves balance and the spectrum).
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

from . import gains, graphs
from .gains import GainGraph
from .graphs import Graph

DEFAULT_EDGE_PROBS = (0.3, 0.5, 0.8)


def random_gain_corpus(seed: int, count: int, nmax: int) -> list[GainGraph]:
    """``count`` random gain graphs on 2..nmax vertices, deterministic in seed."""
    rng = random.Random(seed)
    sizes = list(range(2, max(nmax, 2) + 1))
    corpus = []
    for k in range(count):
        n = sizes[k % len(sizes)]
        p = DEFAULT_EDGE_PROBS[(k // len(sizes)) % len(DEFAULT_EDGE_PROBS)]
        g = graphs.gnp_graph(n, p, rng)
        corpus.append(gains.random_gain_graph(g, rng))
    return corpus


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform-ish random tree: vertex i attaches to a random earlier vertex."""
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    return Graph.from_edges(n, ((rng.randrange(i), i) for i in range(1, n)))


def ktt_union_graph(parts: Sequence[int], isolated: int = 0) -> Graph:
    """Disjoint union of complete bipartite blocks with sides parts[j],
    plus ``isolated`` extra vertices, numbered as chained ``disjoint_union``
    calls number them."""
    edges: list[tuple[int, int]] = []
    n = 0
    for t in parts:
        if t < 1:
            raise ValueError("block sides must be positive")
        edges.extend((n + i, n + t + j) for i in range(t) for j in range(t))
        n += 2 * t
    if isolated < 0:
        raise ValueError(f"vertex count must be nonnegative, got {isolated}")
    return Graph(n + isolated, frozenset(edges))


def extremal_union(
    parts: Sequence[int],
    isolated: int = 0,
    switch_seed: int | random.Random | None = None,
) -> GainGraph:
    """All-ones gains on ``ktt_union_graph``, optionally randomly switched."""
    phi = gains.all_ones(ktt_union_graph(parts, isolated))
    if switch_seed is None:
        return phi
    zeta = gains.random_switching(phi.graph.n, switch_seed)
    return gains.switch(phi, zeta)


def part_multisets(total_max: int) -> list[tuple[int, ...]]:
    """All nonempty multisets of positive integers with sum <= total_max,
    each in nonincreasing order."""
    found: list[tuple[int, ...]] = []

    def extend(prefix: list[int], remaining: int, cap: int) -> None:
        if prefix:
            found.append(tuple(prefix))
        for t in range(min(cap, remaining), 0, -1):
            extend(prefix + [t], remaining - t, t)

    extend([], total_max, total_max)
    return sorted(found)


def structured_perturbations(seed: int, count: int) -> list[GainGraph]:
    """Near-miss and off-family instances: equal-sided complete bipartite
    blocks with one gain rotated by e^{i pi/4}, even cycles, the chorded
    six-cycle, short paths, and odd cycles, with randomized gains."""
    rng = random.Random(seed)
    rot = gains.unit_from_angle(0.25 * math.pi)
    out: list[GainGraph] = []
    while len(out) < count:
        kind = len(out) % 5
        if kind == 0:
            t = rng.choice((2, 3))
            phi = gains.all_ones(graphs.complete_bipartite(t, t))
            u, v = sorted(phi.graph.edges)[rng.randrange(phi.graph.m)]
            out.append(gains.set_gain(phi, u, v, rot))
        elif kind == 1:
            out.append(gains.random_gain_graph(graphs.cycle_graph(6), rng))
        elif kind == 2:
            out.append(gains.random_gain_graph(graphs.chorded_six_cycle(), rng))
        elif kind == 3:
            out.append(gains.random_gain_graph(graphs.path_graph(4), rng))
        else:
            k = rng.choice((3, 5, 7, 9))
            out.append(gains.random_gain_graph(graphs.cycle_graph(k), rng))
    return out


def without_isolated(phi: GainGraph) -> GainGraph:
    """Drop degree-0 vertices (relabeling the rest); ``phi`` itself when
    there are none."""
    keep = [v for v in range(phi.graph.n) if phi.graph.degree(v) > 0]
    if len(keep) == phi.graph.n:
        return phi
    return gains.induced_gain_subgraph(phi, keep)


def component_subsets(g: Graph, rng: random.Random) -> Iterable[frozenset[int]]:
    """A random nonempty, proper union of whole components (if any exist)."""
    comps = graphs.components(g)
    if len(comps) < 2:
        return []
    k = rng.randrange(1, len(comps))
    chosen = rng.sample(range(len(comps)), k)
    return [frozenset(v for i in chosen for v in comps[i])]
