"""Undirected simple graphs and the structural operations used throughout.

Vertices are dense integers 0..n-1 and edges are unordered pairs stored as
(u, v) with u < v.  All named constructions fix a canonical vertex numbering
(documented on each constructor) so that downstream spectra and file fixtures
are reproducible.  Graph values are immutable; every operation returns a new
value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable

import numpy as np

Edge = tuple[int, int]
EdgeArrays = tuple[np.ndarray, np.ndarray]

# The one size switch.  From this order on, adjacency lists and the balance
# scan run on the cached endpoint arrays and ``spectra.spectrum`` solves one
# component at a time; below it Python loops and one dense solve are cheaper.
# Measured, one BLAS thread, adjacency + BFS + balance + spectrum of a fresh
# balanced gain graph, loops -> arrays: G(16, .8) 219 -> 391 us, G(32, .8)
# 896 -> 601 us, K_{32,32} 2826 -> 1501 us; forests break even near n = 64.
# Every lemma-suite graph (n <= 16) stays below it.
ARRAY_MIN_ORDER = 32


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a frozenset of (u, v), u < v."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing each pair to (min, max). Duplicates collapse."""
        return cls(n, frozenset(_normalize_edge(u, v) for u, v in edges))

    @classmethod
    def _trusted(cls, n: int, edges: frozenset[Edge], ends: EdgeArrays) -> "Graph":
        """A graph whose producer has already made every check of
        ``__post_init__`` on these values; ``ends`` becomes ``_edge_array``."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        g.__dict__["_edge_array"] = ends
        return g

    def __reduce__(self):
        # Rebuild, not restore ``__dict__``: a cached array would come back writeable.
        return (Graph, (self.n, self.edges))

    @cached_property
    def _edge_array(self) -> EdgeArrays:
        """Read-only endpoint arrays (us, vs) in ascending (u, v) order."""
        return _ascending_edges(self.edges, self.n)[1]

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        if self.n < ARRAY_MIN_ORDER:
            nbrs: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            return tuple(tuple(sorted(a)) for a in nbrs)
        # CSR by one stable sort on the source vertex.  The reversed copies
        # come first, so each list holds its lower neighbours before its
        # higher ones, and both runs are ascending because the edges are.
        us, vs = self._edge_array
        src = np.concatenate((vs, us))
        dst = np.concatenate((us, vs))[np.argsort(src, kind="stable")].tolist()
        stops = np.cumsum(np.bincount(src, minlength=self.n)).tolist()
        return tuple(
            tuple(dst[a:b]) for a, b in zip(chain((0,), stops), stops)
        )

    @cached_property
    def _forest(self) -> tuple[tuple, ...]:
        """One BFS: the visiting order, each vertex's tree parent (-1 at roots)
        and side of a two-coloring, the components as sorted tuples, and
        whether each is bipartite.  Roots and neighbours are taken in
        ascending order, so every component is rooted at its lowest-numbered
        vertex.  Every edge is scanned from both ends, so a component is
        bipartite iff no scan meets a neighbour on its own side."""
        parent = [-1] * self.n
        side = [-1] * self.n
        order: list[int] = []
        comps: list[tuple[int, ...]] = []
        exists: list[bool] = []
        for root in range(self.n):
            if side[root] != -1:
                continue
            side[root] = 0
            head = start = len(order)
            order.append(root)
            proper = True
            while head < len(order):
                u = order[head]
                head += 1
                flip = side[u] ^ 1
                for w in self._adjacency[u]:
                    if side[w] == -1:
                        side[w] = flip
                        parent[w] = u
                        order.append(w)
                    elif side[w] != flip:
                        proper = False
            comps.append(tuple(sorted(order[start:])))
            exists.append(proper)
        return tuple(order), tuple(parent), tuple(side), tuple(comps), tuple(exists)

    @cached_property
    def _bipartition(self) -> "Bipartition":
        """Components and two-coloring, as ``_forest`` found them."""
        _, _, side, comps, exists = self._forest
        return Bipartition(comps, exists, side)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    @property
    def m(self) -> int:
        return len(self.edges)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _ascending_edges(pairs: Collection[Edge], n: int) -> tuple[np.ndarray, EdgeArrays]:
    """The permutation that sorts the pairs (u, v), u < v < n, into
    ascending order, and their read-only endpoint arrays in that order."""
    ends = np.fromiter(chain.from_iterable(pairs), np.intp, 2 * len(pairs))
    us, vs = ends[0::2], ends[1::2]
    # Any graph whose n-length lists fit in memory has n * n < 2**63.
    order = np.argsort(us * n + vs)
    return order, (_read_only(us[order]), _read_only(vs[order]))


def _check_vertices(g: Graph, vs: Iterable[int]) -> None:
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring produced by BFS, with a per-component feasibility flag.

    ``side`` assigns 0/1 to every vertex (the assignment is only a proper
    two-coloring on components whose ``exists`` flag is True).
    """

    components: tuple[tuple[int, ...], ...]
    exists: tuple[bool, ...]
    side: tuple[int, ...]

    @property
    def is_bipartite(self) -> bool:
        return all(self.exists)


def induced_subgraph(g: Graph, vs: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by ``vs``, relabeled to 0..|vs|-1 in sorted order.

    Returns the graph and the old->new vertex relabeling map.
    """
    kept = sorted(set(vs))
    _check_vertices(g, kept)
    relabel = {old: new for new, old in enumerate(kept)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in g.edges
        if u in relabel and v in relabel
    ]
    return Graph.from_edges(len(kept), edges), relabel


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    return list(g._bipartition.components)


def is_connected(g: Graph) -> bool:
    return len(g._bipartition.components) <= 1


def bipartition(g: Graph) -> Bipartition:
    """BFS two-coloring per component; a component fails iff it has an odd cycle."""
    return g._bipartition


def edge_cut(g: Graph, vs: Iterable[int]) -> frozenset[Edge]:
    """All edges with exactly one endpoint in ``vs``."""
    inside = set(vs)
    _check_vertices(g, inside)
    return frozenset(e for e in g.edges if (e[0] in inside) != (e[1] in inside))


def delete_edges(g: Graph, cut: Iterable[tuple[int, int]]) -> Graph:
    """Same vertex set, edges minus ``cut``. Raises if ``cut`` contains a non-edge."""
    drop = frozenset(_normalize_edge(u, v) for u, v in cut)
    stray = drop - g.edges
    if stray:
        raise ValueError(f"not edges of the graph: {sorted(stray)}")
    return Graph(g.n, g.edges - drop)


def pendant_vertices(g: Graph) -> frozenset[int]:
    """Vertices of degree exactly 1."""
    return frozenset(v for v in range(g.n) if g.degree(v) == 1)


# ---------------------------------------------------------------------------
# Named constructions.  Canonical numbering:
#   path_graph(n):            0-1-...-(n-1)
#   cycle_graph(n):           0-1-...-(n-1)-0
#   complete_graph(n):        all pairs
#   complete_bipartite(s, t): sides {0..s-1} and {s..s+t-1}
#   star_graph(t):            center 0, leaves 1..t
#   chorded_six_cycle():      cycle 0-1-2-3-4-5-0 plus the chord {1, 4}
# ---------------------------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def path_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("path needs n >= 0")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("complete graph needs n >= 0")
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(s: int, t: int) -> Graph:
    if s < 0 or t < 0:
        raise ValueError("complete bipartite sides must be nonnegative")
    return Graph.from_edges(s + t, ((i, s + j) for i in range(s) for j in range(t)))


def star_graph(t: int) -> Graph:
    """Star with t leaves: complete_bipartite(1, t)."""
    if t < 0:
        raise ValueError("star needs t >= 0 leaves")
    return complete_bipartite(1, t)


def chorded_six_cycle() -> Graph:
    """Six-cycle 0-1-2-3-4-5-0 with the extra chord {1, 4}."""
    return Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(1, 4)])


# Every named construction: its constructor and its number of parameters.
NAMED_GRAPHS = {
    "knn": (lambda t: complete_bipartite(t, t), 1),
    "cycle": (cycle_graph, 1),
    "path": (path_graph, 1),
    "complete": (complete_graph, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "star": (star_graph, 1),
    "c6tilde": (chorded_six_cycle, 0),
}


def named_graph(kind: str, *params: int) -> Graph:
    """Dispatch on a construction name of ``NAMED_GRAPHS``; knn t is K_{t,t}."""
    if kind not in NAMED_GRAPHS:
        raise ValueError(f"unknown kind {kind!r}")
    build, arity = NAMED_GRAPHS[kind]
    if len(params) != arity:
        raise ValueError(f"{kind} takes {arity} parameter(s), got {len(params)}")
    return build(*params)


def kronecker_graph(g: Graph, h: Graph) -> Graph:
    """Tensor (Kronecker) product: (v, u) ~ (v', u') iff vv' in E(g) and uu' in E(h).

    Vertex (v, u) is numbered v * h.n + u.
    """
    m = h.n
    edges = []
    for gv, gw in g.edges:
        for hu, hw in h.edges:
            edges.append((gv * m + hu, gw * m + hw))
            edges.append((gv * m + hw, gw * m + hu))
    return Graph.from_edges(g.n * m, edges)


def gnp_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi G(n, p); pairs are sampled in lexicographic order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)
