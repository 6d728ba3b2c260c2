"""Undirected simple graphs and the structural operations used throughout.

Vertices are dense integers 0..n-1; a graph stores its edges (u, v), u < v,
as two read-only endpoint arrays in ascending order, and ``edges`` is a
frozenset view built on first use.  All named constructions fix a canonical
vertex numbering (documented on each constructor) so that downstream spectra
and file fixtures are reproducible.  Graph values are immutable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

Edge = tuple[int, int]

# The one size switch.  From this order on, the constructors' checks, adjacency
# lists and the balance scan run on the arrays and ``spectra.spectrum`` solves
# by component; below it Python loops and one dense solve are cheaper.
# Measured, one BLAS thread, adjacency + BFS + balance + spectrum of a fresh
# balanced gain graph, loops -> arrays: G(16, .8) 219 -> 391 us, G(32, .8)
# 896 -> 601 us, K_{32,32} 2826 -> 1501 us; forests break even near n = 64.
# Every lemma-suite graph (n <= 16) stays below it.
ARRAY_MIN_ORDER = 32


def _frozen(a: np.ndarray, dtype: type) -> np.ndarray:
    """A 1-D copy of ``a`` as ``dtype`` that no one can make writable: it
    views an immutable ``bytes`` copy, so numpy refuses to set its
    WRITEABLE flag."""
    return np.frombuffer(np.asarray(a, dtype=dtype).tobytes(), dtype=dtype)


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Simple undirected graph on the vertices 0..n-1.  Its edges (u, v),
    u < v, are the pairs (us[i], vs[i]) of two read-only intp arrays,
    strictly ascending in (u, v)."""

    n: int
    us: np.ndarray
    vs: np.ndarray

    def __new__(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        """The graph of these integer pairs (u, v), u < v, in any order; duplicates
        collapse.  A bool, which numpy reads as an int, is refused here."""
        try:  # an unhashable, unordered or unsized member raises TypeError here
            pairs = sorted(dict.fromkeys(edges))
            flat = list(chain.from_iterable(pairs))
            ok = set(map(len, pairs)) <= {2} and all(
                issubclass(t, (int, np.integer)) and t is not bool
                for t in set(map(type, flat)))
        except TypeError:
            ok = False
        if not ok:
            raise ValueError("edges must be pairs of integer vertices")
        ends = np.array(flat) if flat else np.empty(0, dtype=np.intp)
        return cls.from_arrays(n, ends[0::2], ends[1::2])

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing each pair to (min, max). Duplicates collapse."""
        return cls(n, (_normalize_edge(u, v) for u, v in edges))

    @classmethod
    def from_arrays(cls, n: int, us: np.ndarray, vs: np.ndarray) -> "Graph":
        """The graph whose edges are the pairs (us[i], vs[i]).  Every graph is
        built here: n a nonnegative integer, integer endpoints 0 <= u < v < n,
        strictly ascending in (u, v), kept in its own read-only copies."""
        n = _count(n, "vertex count must be a nonnegative integer")
        us, vs = np.asarray(us), np.asarray(vs)
        if (us.dtype.kind not in "iu" or vs.dtype.kind not in "iu"
                or us.ndim != 1 or us.shape != vs.shape):
            raise ValueError("edge endpoints must be two integer arrays of one length")
        us, vs = _frozen(us, np.intp), _frozen(vs, np.intp)
        if n < ARRAY_MIN_ORDER:  # below the size switch one loop beats the array calls
            ul, vl = us.tolist(), vs.tolist()
            ok = all(map(tuple.__lt__, zip(ul, vl), zip(ul[1:], vl[1:]))) and all(
                map(int.__lt__, ul, vl)) and (not ul or ul[0] >= 0 and max(vl) < n)
        else:
            rise = (us[1:] > us[:-1]) | ((us[1:] == us[:-1]) & (vs[1:] > vs[:-1]))
            ok = rise.all() and (us[:1] >= 0).all() and ((us < vs) & (vs < n)).all()
        if not ok:
            raise ValueError(f"edges must be distinct pairs 0 <= u < v < {n}, ascending")
        g = object.__new__(cls)
        g.__dict__.update(n=n, us=us, vs=vs)
        return g

    def __reduce__(self):
        # Rebuild through the constructor, so a copy's arrays are read-only too.
        return (Graph.from_arrays, (self.n, self.us, self.vs))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.us, other.us)
                and np.array_equal(self.vs, other.vs))

    def __hash__(self) -> int:
        return hash((self.n, self.us.tobytes(), self.vs.tobytes()))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edges as a frozenset of pairs (u, v), u < v."""
        return frozenset(_pairs(self))

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        # Either way each list holds its lower neighbours, then its higher
        # ones, and both runs are ascending because the edges are.
        if self.n < ARRAY_MIN_ORDER:
            nbrs: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in _pairs(self):
                nbrs[u].append(v)
                nbrs[v].append(u)
            return tuple(map(tuple, nbrs))
        # CSR by one stable sort on the source vertex, reversed copies first.
        src = np.concatenate((self.vs, self.us))
        order = np.argsort(src, kind="stable")
        dst = np.concatenate((self.us, self.vs))[order].tolist()
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
        """The neighbours of vertex v, ascending; a bool, a non-integer or
        an integer outside 0..n-1 raises ``ValueError``."""
        # a plain int in range needs no more; anything else gets the full check
        if type(v) is not int or not 0 <= v < self.n:
            _check_vertices(self, [v])
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        inside = _is_vertex(self.n, u), _is_vertex(self.n, v)
        try:  # by the binary search of ``gain``, so no adjacency list is built
            return all(inside) and _edge_index(self, u, v) >= 0
        except ValueError:  # a non-edge
            return False

    @property
    def m(self) -> int:
        return len(self.us)


def _pairs(g: Graph) -> Iterator[Edge]:
    """The edges (u, v) of ``g``, ascending, as tuples of Python ints."""
    return zip(g.us.tolist(), g.vs.tolist())


def _is_vertex(n: int, v: int) -> bool:
    """Whether ``v`` is in 0..n-1; a bool or a non-integer raises ``ValueError``."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"vertex {v!r} is not an integer")
    return 0 <= v < n


def _count(k: int, message: str, least: int = 0) -> int:
    """``k`` as an int, once it is checked to be an integer (not a bool) that
    is at least ``least``; anything else raises ``ValueError`` with ``message``."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < least:
        raise ValueError(f"{message}, got {k!r}")
    return int(k)


def _check_vertices(g: Graph, vs: Iterable[int]) -> set[int]:
    """The set of ``vs``, once each member is checked to be a vertex of ``g``:
    an integer, not a bool, in 0..n-1."""
    vs = list(vs)
    for v in vs:
        if not _is_vertex(g.n, v):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    return set(vs)


def _edge_index(g: Graph, u: int, v: int) -> int:
    """The index of the edge {u, v} in the arrays of ``g``, found by binary
    search; a non-edge raises ``ValueError`` naming the pair."""
    if all((_is_vertex(g.n, u), _is_vertex(g.n, v))):
        a, b = _normalize_edge(u, v)
        lo, hi = g.us.searchsorted((a, a + 1)).tolist()
        i = lo + int(g.vs[lo:hi].searchsorted(b))
        if i < hi and g.vs[i] == b:
            return i
    raise ValueError(f"({u}, {v}) is not an edge")


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
    kept = sorted(_check_vertices(g, vs))
    return next(_induced(g, [kept]))[0], {old: new for new, old in enumerate(kept)}


def _induced(g: Graph, sets: Iterable[Iterable[int]]) -> Iterator[tuple[Graph, np.ndarray]]:
    """Per disjoint vertex set, ``induced_subgraph``'s graph and the indices of
    its edges in ``g``, from one pass that gives every vertex its set and rank
    there and one pass that groups the edges by set: a walk over them below
    the size switch, one stable sort from it on.  Monotone ranks keep each
    set's edges ascending.  Checked at the call, built as each is drawn."""
    sets = [sorted(_check_vertices(g, part)) for part in sets]
    if g.n < ARRAY_MIN_ORDER:
        group, rank = [len(sets)] * g.n, [0] * g.n
        for k, kept in enumerate(sets):
            for r, v in enumerate(kept):
                if group[v] < len(sets):
                    raise ValueError("vertex sets must be disjoint")
                group[v], rank[v] = k, r
        # per set: its edges' two ranked ends and their indices in g; the
        # last bucket takes the edges between vertices of no set
        found = [([], [], []) for _ in range(len(sets) + 1)]
        for i, (u, v) in enumerate(_pairs(g)):
            if group[u] == group[v]:
                ru, rv, e = found[group[u]]
                ru.append(rank[u])
                rv.append(rank[v])
                e.append(i)
        return ((Graph.from_arrays(len(kept), np.array(ru, np.intp), np.array(rv, np.intp)),
                 np.array(e, np.intp)) for kept, (ru, rv, e) in zip(sets, found))
    flat = np.fromiter(chain.from_iterable(sets), np.intp)
    labels = np.repeat(np.arange(len(sets)), np.fromiter(map(len, sets), np.intp))
    group, rank = np.full(g.n, len(sets)), np.zeros(g.n, np.intp)
    group[flat], rank[flat] = labels, np.arange(len(flat)) - labels.searchsorted(labels)
    if np.count_nonzero(group < len(sets)) != len(flat):
        raise ValueError("vertex sets must be disjoint")
    key = group[g.us]  # an edge not inside one set goes to a last bucket, len(sets)
    key[key != group[g.vs]] = len(sets)
    order = np.argsort(key, kind="stable")
    stops = np.cumsum(np.bincount(key, minlength=len(sets))).tolist()
    edges = [order[a:b] for a, b in zip([0] + stops, stops)]
    return ((Graph.from_arrays(len(kept), rank[g.us[e]], rank[g.vs[e]]), e)
            for kept, e in zip(sets, edges))


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
    inside = _check_vertices(g, vs)
    return frozenset(e for e in _pairs(g) if (e[0] in inside) != (e[1] in inside))


def delete_edges(g: Graph, cut: Iterable[tuple[int, int]]) -> Graph:
    """Same vertex set, edges minus ``cut``. Raises if ``cut`` contains a non-edge."""
    return _deleted(g, cut)[0]


def _deleted(g: Graph, cut: Iterable[tuple[int, int]]) -> tuple[Graph, np.ndarray]:
    """``delete_edges``, and the mask of the edges of ``g`` it keeps, from one
    pass: every cut pair is an edge iff it drops one edge per distinct pair."""
    drop = frozenset(_normalize_edge(u, v) for u, v in cut)
    keep = np.fromiter((e not in drop for e in _pairs(g)), bool, g.m)
    if g.m - np.count_nonzero(keep) != len(drop):
        raise ValueError(f"not edges of the graph: {sorted(drop.difference(_pairs(g)))}")
    return Graph.from_arrays(g.n, g.us[keep], g.vs[keep]), keep


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
    return Graph(n, ())


def _biclique(first: int, s: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending endpoint arrays of the complete bipartite graph between
    the sides first..first+s-1 and first+s..first+s+t-1."""
    return (np.repeat(np.arange(first, first + s), t),
            np.tile(np.arange(first + s, first + s + t), s))


def path_graph(n: int) -> Graph:
    n = _count(n, "path needs an integer n >= 0")
    us = np.arange(max(n - 1, 0))
    return Graph.from_arrays(n, us, us + 1)


def cycle_graph(n: int) -> Graph:
    n = _count(n, "cycle needs an integer n >= 3", 3)
    # (0, 1), (0, n-1), then (i, i+1) for i = 1..n-2
    us = np.concatenate(([0], np.arange(n - 1)))
    vs = np.concatenate(([1, n - 1], np.arange(2, n)))
    return Graph.from_arrays(n, us, vs)


def complete_graph(n: int) -> Graph:
    n = _count(n, "complete graph needs an integer n >= 0")
    return Graph.from_arrays(n, *np.triu_indices(n, 1))


def complete_bipartite(s: int, t: int) -> Graph:
    s, t = (_count(k, "complete bipartite sides must be nonnegative integers")
            for k in (s, t))
    return Graph.from_arrays(s + t, *_biclique(0, s, t))


def star_graph(t: int) -> Graph:
    """Star with t leaves: complete_bipartite(1, t)."""
    return complete_bipartite(1, _count(t, "star needs an integer t >= 0 leaves"))


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
    return Graph.from_arrays(g.n * h.n, *_kronecker_edges(g, h)[:2])


def _kronecker_edges(g: Graph, h: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of ``kronecker_graph(g, h)``, ascending, and their source edges in g."""
    low, high = (g.us * h.n)[:, None], (g.vs * h.n)[:, None]
    us = np.concatenate((low + h.us, low + h.vs), axis=1).ravel()
    vs = np.concatenate((high + h.vs, high + h.us), axis=1).ravel()
    source = np.repeat(np.arange(g.m), 2 * h.m)
    order = np.lexsort((vs, us))
    return us[order], vs[order], source[order]


def gnp_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi G(n, p); pairs are sampled in lexicographic order."""
    n = _count(n, "G(n, p) needs an integer n >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)
