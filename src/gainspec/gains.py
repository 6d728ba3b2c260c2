"""Unit-modulus complex gains on graph edges, switching, and balance.

A gain assignment maps each ordered edge (u, v) to a complex number of
modulus 1, with gain(v, u) the inverse (= conjugate) of gain(u, v).  Only
the forward orientation (u < v) is stored; the other direction is derived,
so the inverse invariant holds exactly.  Gains are renormalized to unit
modulus at construction, which keeps repeated products from drifting.

Balance: a gain graph is balanced when every cycle has gain 1, equivalently
when some per-vertex switching turns every edge gain into 1.  ``is_balanced``
decides this by propagating a switching function along a BFS spanning tree
and testing the non-tree edges, and returns a verifiable certificate either
way.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .graphs import Edge, Graph, _read_only
from . import graphs

UNIT_INPUT_TOL = 1e-6   # how far from |z| = 1 an input may be before we refuse
UNIT_TOL = 1e-12        # how far from |z| = 1 a stored gain or switching value may be
BALANCE_TOL = 1e-9      # |gain - 1| threshold for balance decisions


def unit(z: complex) -> complex:
    """Renormalize ``z`` to exact unit modulus; reject inputs far from the circle."""
    z = complex(z)
    r = abs(z)
    if not abs(r - 1.0) <= UNIT_INPUT_TOL:
        raise ValueError(f"gain must have modulus 1, got |z| = {r}")
    return z / r


def unit_from_angle(theta: float) -> complex:
    """e^{i theta}."""
    return complex(math.cos(theta), math.sin(theta))


@dataclass(frozen=True, eq=False)
class GainGraph:
    """A graph together with a unit gain per forward edge (u, v), u < v."""

    graph: Graph
    forward: Mapping[Edge, complex]

    def __post_init__(self) -> None:
        # A read-only copy: neither the caller's dict nor the attribute can
        # change a gain after validation.
        object.__setattr__(self, "forward", MappingProxyType(dict(self.forward)))
        if set(self.forward) != self.graph.edges:
            missing = self.graph.edges - set(self.forward)
            extra = set(self.forward) - self.graph.edges
            raise ValueError(
                f"gains must cover the edge set exactly "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        for e, z in self.forward.items():
            if not abs(abs(z) - 1.0) <= UNIT_TOL:
                raise ValueError(f"gain on {e} has modulus {abs(z)!r}, not 1")

    @classmethod
    def _trusted(
        cls, graph: Graph, forward: dict[Edge, complex], gains: np.ndarray | None = None
    ) -> "GainGraph":
        """A gain graph over a fresh dict that no one else holds, whose keys
        are exactly ``graph.edges`` and whose values were already checked to
        be unit gains; ``gains``, if given, becomes ``_gain_array``."""
        phi = object.__new__(cls)
        object.__setattr__(phi, "graph", graph)
        object.__setattr__(phi, "forward", MappingProxyType(forward))
        if gains is not None:
            phi.__dict__["_gain_array"] = gains
        return phi

    def __reduce__(self):
        # A mapping proxy does not pickle; rebuild from a plain dict instead.
        return (GainGraph, (self.graph, dict(self.forward)))

    @cached_property
    def _gain_array(self) -> np.ndarray:
        """Read-only forward gains aligned with ``graph._edge_array``, in
        ascending (u, v) order.  Sorting the forward keys needs no lookup
        per edge, and fills the graph's array too when it has none."""
        order, ends = graphs._ascending_edges(self.forward, self.graph.n)
        self.graph.__dict__.setdefault("_edge_array", ends)
        gains = np.fromiter(self.forward.values(), complex, len(order))
        return _read_only(gains[order])

    def gain(self, u: int, v: int) -> complex:
        """Gain of the ordered edge (u, v); the reverse orientation conjugates."""
        if u < v:
            return self.forward[(u, v)]
        z = self.forward[(v, u)]
        return z.conjugate()


def gain_graph(g: Graph, forward: Mapping[tuple[int, int], complex]) -> GainGraph:
    """Build a gain graph from per-edge values keyed by either orientation."""
    store: dict[Edge, complex] = {}
    for (u, v), z in forward.items():
        key = (u, v) if u < v else (v, u)
        val = unit(z) if u < v else unit(z).conjugate()
        if key in store and abs(store[key] - val) > 1e-12:
            raise ValueError(f"conflicting gains for edge {key}")
        store[key] = val
    return GainGraph(g, store)


def all_ones(g: Graph) -> GainGraph:
    """Every ordered edge carries gain 1."""
    return GainGraph._trusted(g, dict.fromkeys(g.edges, 1.0 + 0.0j))


def set_gain(phi: GainGraph, u: int, v: int, z: complex) -> GainGraph:
    """New gain graph with gain(u, v) = z (and gain(v, u) = conj(z))."""
    if not phi.graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    z = unit(z)
    store = dict(phi.forward)
    if u < v:
        store[(u, v)] = z
    else:
        store[(v, u)] = z.conjugate()
    return GainGraph(phi.graph, store)


def cycle_gain(phi: GainGraph, cycle: Iterable[int]) -> complex:
    """Product of gains along a closed vertex sequence.

    Accepts v1..vk or v1..vk v1; needs k >= 3 distinct vertices with
    consecutive (and wrap-around) adjacency.
    """
    seq = list(cycle)
    if len(seq) >= 2 and seq[0] == seq[-1]:
        seq = seq[:-1]
    if len(seq) < 3:
        raise ValueError("a cycle needs at least 3 distinct vertices")
    if len(set(seq)) != len(seq):
        raise ValueError("cycle vertices must be distinct")
    total = 1.0 + 0.0j
    for a, b in zip(seq, seq[1:] + seq[:1]):
        if not phi.graph.has_edge(a, b):
            raise ValueError(f"({a}, {b}) is not an edge; sequence is not a cycle")
        total *= phi.gain(a, b)
    return total


@dataclass(frozen=True, eq=False)
class SwitchingFunction:
    """A unit complex value per vertex."""

    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        for z in self.values:
            if not abs(abs(z) - 1.0) <= UNIT_TOL:
                raise ValueError("switching values must have unit modulus")

    def __call__(self, v: int) -> complex:
        return self.values[v]

    @classmethod
    def identity(cls, n: int) -> "SwitchingFunction":
        return cls((1.0 + 0.0j,) * n)

    @classmethod
    def from_angles(cls, angles: Iterable[float]) -> "SwitchingFunction":
        return cls(tuple(unit_from_angle(t) for t in angles))


def random_switching(n: int, seed: int | random.Random) -> SwitchingFunction:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return SwitchingFunction.from_angles(
        rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)
    )


def switch(phi: GainGraph, zeta: SwitchingFunction) -> GainGraph:
    """Replace each gain(u, v) by zeta(u)^-1 * gain(u, v) * zeta(v)."""
    if len(zeta.values) != phi.graph.n:
        raise ValueError("switching function must cover every vertex")
    values = zeta.values
    store = {
        (u, v): values[u].conjugate() * z * values[v]
        for (u, v), z in phi.forward.items()
    }
    return GainGraph(phi.graph, store)


@dataclass(frozen=True, eq=False)
class BalanceCertificate:
    """Outcome of a balance check, with a verifiable witness.

    Balanced: ``witness`` switches every gain to 1 (within BALANCE_TOL).
    Unbalanced: ``violating_cycle`` is a closed vertex sequence whose gain
    ``violation_gain`` differs from 1 by more than BALANCE_TOL.
    """

    balanced: bool
    witness: SwitchingFunction | None = None
    violating_cycle: tuple[int, ...] | None = None
    violation_gain: complex | None = None


def is_balanced(phi: GainGraph) -> BalanceCertificate:
    """Spanning-tree balance test with certificate.

    Per component, rooted at its lowest-numbered vertex: set zeta(root) = 1
    and propagate zeta(v) = zeta(u) * gain(v, u) along BFS tree edges, which
    switches every tree edge to gain exactly 1.  The graph is balanced iff
    every non-tree edge then also switches to 1; the switched value of a
    non-tree edge equals the gain of its fundamental cycle.  On failure the
    witness cycle is rebuilt from the first failing non-tree edge plus the
    tree path between its endpoints.
    """
    g = phi.graph
    order, parent = g._forest[:2]
    zeta: list[complex] = [1.0 + 0.0j] * g.n
    for w in order:
        u = parent[w]
        if u != -1:
            zeta[w] = zeta[u] * phi.gain(w, u)

    # Non-tree edges (u, v), u < v, in ascending order, so the witness is
    # deterministic; from the size switch on, only the array screen's suspects.
    if g.n < graphs.ARRAY_MIN_ORDER:
        edges: Iterable[Edge] = (
            (u, v)
            for u in range(g.n)
            for v in g.neighbors(u)
            if u < v and parent[v] != u and parent[u] != v
        )
    else:
        edges = _suspect_edges(phi, parent, zeta)
    for u, v in edges:
        switched = zeta[u].conjugate() * phi.forward[u, v] * zeta[v]
        if abs(switched - 1.0) > BALANCE_TOL:
            cyc = _fundamental_cycle(parent, u, v)
            return BalanceCertificate(
                balanced=False,
                violating_cycle=cyc,
                violation_gain=cycle_gain(phi, cyc),
            )
    return BalanceCertificate(
        balanced=True, witness=SwitchingFunction(tuple(zeta))
    )


def _suspect_edges(
    phi: GainGraph, parent: Sequence[int], zeta: Sequence[complex]
) -> Iterator[Edge]:
    """Non-tree edges, ascending, whose switched gain computed on the arrays
    misses 1 by more than BALANCE_TOL / 2.  Array and scalar arithmetic may
    round differently in the last bits, so this only screens: the caller
    decides each suspect with the scalar test, and an edge that fails it
    misses 1 by far more than the rounding on the arrays."""
    us, vs = phi.graph._edge_array
    par = np.fromiter(parent, np.intp, len(parent))
    z = np.fromiter(zeta, complex, len(zeta))
    switched = z[us].conj() * phi._gain_array * z[vs]
    suspect = np.abs(switched - 1.0) > BALANCE_TOL / 2
    suspect &= (par[vs] != us) & (par[us] != vs)
    hits = np.flatnonzero(suspect)
    return zip(map(int, us[hits]), map(int, vs[hits]))


def _fundamental_cycle(parent: Sequence[int], u: int, v: int) -> tuple[int, ...]:
    """Closed vertex sequence: tree path meet..u, then edge u-v, then v..meet."""
    anc_u = [u]
    x = u
    while parent[x] != -1:
        x = parent[x]
        anc_u.append(x)
    index_u = {w: i for i, w in enumerate(anc_u)}
    path_v = [v]
    y = v
    while y not in index_u:
        y = parent[y]
        path_v.append(y)
    meet = path_v.pop()  # == y, first common ancestor
    return tuple(reversed(anc_u[: index_u[meet] + 1])) + tuple(path_v)


def kronecker(phi: GainGraph, h: Graph) -> GainGraph:
    """Tensor product with a plain graph; gains are inherited from the first factor.

    The ordered product edge (v, u) -> (v', u') carries gain(v, v'); since
    vertex (v, u) is numbered v * h.n + u, the forward gain of a product edge
    is exactly the forward gain of its first-factor edge.
    """
    kg = graphs.kronecker_graph(phi.graph, h)
    m = h.n
    store = {(i, j): phi.forward[(i // m, j // m)] for i, j in kg.edges}
    return GainGraph._trusted(kg, store)


def random_gain_graph(g: Graph, seed: int | random.Random) -> GainGraph:
    """Uniform random angle on each edge; deterministic for a fixed seed."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    store = {
        e: unit_from_angle(rng.uniform(0.0, 2.0 * math.pi))
        for e in sorted(g.edges)
    }
    return GainGraph(g, store)


def delete_gain_edges(phi: GainGraph, cut: Iterable[tuple[int, int]]) -> GainGraph:
    """Remove edges (keeping all vertices); surviving gains are unchanged."""
    g2 = graphs.delete_edges(phi.graph, cut)
    return GainGraph._trusted(g2, {e: phi.forward[e] for e in g2.edges})


def induced_gain_subgraph(phi: GainGraph, vs: Iterable[int]) -> GainGraph:
    """Gain graph induced on a vertex subset, relabeled like the graph op."""
    g2, relabel = graphs.induced_subgraph(phi.graph, vs)
    # relabeling is monotone, so forward keys stay forward
    store = {
        (relabel[u], relabel[v]): z
        for (u, v), z in phi.forward.items()
        if u in relabel and v in relabel
    }
    return GainGraph._trusted(g2, store)


def gain_angle(z: complex) -> float:
    """Angle of a unit gain in (-pi, pi]."""
    return cmath.phase(z)
