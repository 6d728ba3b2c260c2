"""Seeded instance generators for sweeps and fixtures.

Random graphs are G(n, p) with p cycling through {0.3, 0.5, 0.8} and
n cycling through 2..nmax, carrying uniform random edge gains.  The
"extremal" family is a disjoint union of equal-sided complete bipartite
blocks plus isolated vertices, all-ones gains, optionally hit with a random
switching (which preserves balance and the spectrum).
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

import numpy as np

from . import gains, graphs
from .gains import GainGraph
from .graphs import Graph

DEFAULT_EDGE_PROBS = (0.3, 0.5, 0.8)


def random_gain_corpus(seed: int, count: int, nmax: int) -> list[GainGraph]:
    """``count`` random gain graphs on 2..nmax vertices, deterministic in seed."""
    return list(iter_random_gain_corpus(seed, count, nmax))


def iter_random_gain_corpus(seed: int, count: int, nmax: int) -> Iterator[GainGraph]:
    """The graphs of ``random_gain_corpus``, drawn one at a time."""
    rng = random.Random(seed)
    span = max(nmax, 2) - 1  # the number of orders in 2..nmax
    for k in range(count):
        n = 2 + k % span
        p = DEFAULT_EDGE_PROBS[(k // span) % len(DEFAULT_EDGE_PROBS)]
        g = graphs.gnp_graph(n, p, rng)
        yield gains.random_gain_graph(g, rng)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform-ish random tree: vertex i attaches to a random earlier vertex."""
    n = graphs._count(n, "a tree needs at least one vertex", 1)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def ktt_union_graph(parts: Sequence[int], isolated: int = 0) -> Graph:
    """Disjoint union of complete bipartite blocks with sides parts[j],
    plus ``isolated`` extra vertices, numbered block by block (side 0
    first), isolated vertices last."""
    us, vs = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    n = 0
    for t in parts:
        t = graphs._count(t, "block sides must be positive integers", 1)
        u, v = graphs._biclique(n, t, t)
        us.append(u)
        vs.append(v)
        n += 2 * t
    isolated = graphs._count(isolated, "isolated vertices need an integer count >= 0")
    return Graph.from_arrays(n + isolated, np.concatenate(us), np.concatenate(vs))


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


def component_split(g: Graph, rng: random.Random) -> tuple[int, ...] | None:
    """The sorted vertices of a random nonempty, proper union of whole
    components; ``None`` for a graph with fewer than two components."""
    comps = graphs.components(g)
    if len(comps) < 2:
        return None
    k = rng.randrange(1, len(comps))
    chosen = rng.sample(range(len(comps)), k)
    return tuple(sorted(v for i in chosen for v in comps[i]))
