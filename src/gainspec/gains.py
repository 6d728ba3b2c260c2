"""Unit-modulus complex gains on graph edges, switching, and balance.

A gain assignment maps each ordered edge (u, v) to a complex number of
modulus 1, with gain(v, u) the inverse (= conjugate) of gain(u, v).  A gain
graph stores one read-only array of the gains of its edges (u, v), u < v,
aligned with the graph's endpoint arrays; ``gain`` finds an edge there by
binary search, and ``forward`` is a mapping view built on first use.  The
other direction is derived, so the inverse invariant holds exactly.  A
stored gain has modulus 1 within ``UNIT_TOL``; products along a path would
compound that drift, so the tree switching renormalizes each value it forms.

Balance: a gain graph is balanced when every cycle has gain 1, equivalently
when some per-vertex switching turns every edge gain into 1.  ``is_balanced``
decides this with the tree switching, propagated along a BFS spanning tree
and cached on the gain graph, by testing the non-tree edges, and returns a
verifiable certificate either way.  ``spectra`` reads the same switching to
solve a component whose gains it turns real in real arithmetic.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graphs import Edge, Graph
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


@dataclass(frozen=True, eq=False, init=False)
class GainGraph:
    """A graph together with a unit gain per forward edge (u, v), u < v:
    ``gains[i]`` belongs to the edge (graph.us[i], graph.vs[i])."""

    graph: Graph
    gains: np.ndarray

    def __new__(cls, graph: Graph, forward: Mapping[Edge, complex]) -> "GainGraph":
        """The gain graph with gain ``forward[(u, v)]`` on each edge (u, v), u < v."""
        pairs = list(graphs._pairs(graph))
        if len(forward) != len(pairs) or not all(map(forward.__contains__, pairs)):
            raise ValueError(f"gains must cover the edge set exactly (missing "
                             f"{sorted(graph.edges - set(forward))}, extra "
                             f"{sorted(set(forward) - graph.edges)})")
        return cls.from_gains(graph, [forward[e] for e in pairs])

    @classmethod
    def from_gains(cls, graph: Graph, gains: Sequence[complex]) -> "GainGraph":
        """The gain graph with ``gains[i]`` on the edge (graph.us[i], graph.vs[i]).
        Every gain graph is built here: one gain per edge, each of modulus 1
        within 1e-12, kept in its own read-only copy."""
        gains = np.asarray(gains, dtype=complex)
        if gains.shape != (graph.m,):
            raise ValueError(f"expected {graph.m} gains, got shape {gains.shape}")
        gains = graphs._frozen(gains, complex)
        if not (all(abs(abs(z) - 1.0) <= UNIT_TOL for z in gains.tolist())
                if graph.n < graphs.ARRAY_MIN_ORDER
                else (np.abs(np.abs(gains) - 1.0) <= UNIT_TOL).all()):
            raise ValueError(f"every gain must have modulus 1 within {UNIT_TOL}")
        phi = object.__new__(cls)
        phi.__dict__.update(graph=graph, gains=gains)
        return phi

    def __reduce__(self):
        # Rebuild through the constructor, so a copy's array is read-only too.
        return (GainGraph.from_gains, (self.graph, self.gains))

    @cached_property
    def forward(self) -> Mapping[Edge, complex]:
        """A read-only mapping of each edge (u, v), u < v, ascending, to its gain."""
        pairs = graphs._pairs(self.graph)
        return MappingProxyType(dict(zip(pairs, self.gains.tolist())))

    @cached_property
    def _switching(self) -> tuple[complex, ...]:
        """The tree switching, one value per vertex: 1 at each root of
        ``graph._forest`` and zeta(w) = zeta(u) * gain(w, u) for w's BFS tree
        parent u, each value renormalized to unit modulus, so that the
        moduli of the gains do not compound along a tree path.  It switches
        every tree edge's gain into that gain's modulus.  ``is_balanced`` and
        ``spectra._blocks`` read it."""
        g = self.graph
        order, parent = g._forest[:2]
        # lift[w] = gain(w, parent(w)), 1 at roots
        if g.n < graphs.ARRAY_MIN_ORDER:
            lift = [1.0 + 0.0j] * g.n
            for u, v, z in zip(g.us.tolist(), g.vs.tolist(), self.gains.tolist()):
                if parent[v] == u:
                    lift[v] = z.conjugate()
                elif parent[u] == v:
                    lift[u] = z
        else:
            par = np.fromiter(parent, np.intp, g.n)
            down, up = par[g.vs] == g.us, par[g.us] == g.vs
            lifts = np.ones(g.n, dtype=complex)
            lifts[g.vs[down]] = self.gains[down].conj()
            lifts[g.us[up]] = self.gains[up]
            lift = lifts.tolist()
        zeta = [1.0 + 0.0j] * g.n
        for w in order:
            u = parent[w]
            if u != -1:
                z = zeta[u] * lift[w]
                zeta[w] = z / abs(z)
        return tuple(zeta)

    def gain(self, u: int, v: int) -> complex:
        """Gain of the ordered edge (u, v); the reverse orientation conjugates.
        A non-edge raises ``ValueError``."""
        z = self.gains[graphs._edge_index(self.graph, u, v)].item()
        return z if u < v else z.conjugate()


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
    return GainGraph.from_gains(g, np.ones(g.m, dtype=complex))


def set_gain(phi: GainGraph, u: int, v: int, z: complex) -> GainGraph:
    """New gain graph with gain(u, v) = z (and gain(v, u) = conj(z))."""
    i, z = graphs._edge_index(phi.graph, u, v), unit(z)
    gains = phi.gains.copy()
    gains[i] = z if u < v else z.conjugate()
    return GainGraph.from_gains(phi.graph, gains)


def cycle_gain(phi: GainGraph, cycle: Iterable[int]) -> complex:
    """Product of gains along a closed vertex sequence.

    Accepts v1..vk or v1..vk v1; needs k >= 3 distinct vertices with
    consecutive (and wrap-around) adjacency; a missing edge raises
    ``ValueError`` naming the pair.
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
        total *= phi.gain(a, b)
    return total


@dataclass(frozen=True, eq=False)
class SwitchingFunction:
    """A unit complex value per vertex."""

    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(map(complex, self.values)))
        for z in self.values:
            if not abs(abs(z) - 1.0) <= UNIT_TOL:
                raise ValueError("switching values must have unit modulus")

    def __call__(self, v: int) -> complex:
        """The value at vertex v; a bool, a non-integer or an integer outside
        0..n-1 raises ``ValueError``."""
        if not graphs._is_vertex(len(self.values), v):
            raise ValueError(f"vertex {v} out of range for n={len(self.values)}")
        return self.values[v]

    @classmethod
    def identity(cls, n: int) -> "SwitchingFunction":
        return cls((1.0 + 0.0j,) * n)

    @classmethod
    def from_angles(cls, angles: Iterable[float]) -> "SwitchingFunction":
        return cls(tuple(unit_from_angle(t) for t in angles))


def _rng(seed: int | random.Random) -> random.Random:
    """``seed`` itself when it is a generator, else a generator seeded by it."""
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_switching(n: int, seed: int | random.Random) -> SwitchingFunction:
    n = graphs._count(n, "switching needs an integer vertex count >= 0")
    rng = _rng(seed)
    return SwitchingFunction.from_angles(
        rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)
    )


def switch(phi: GainGraph, zeta: SwitchingFunction) -> GainGraph:
    """Replace each gain(u, v) by zeta(u)^-1 * gain(u, v) * zeta(v)."""
    if len(zeta.values) != phi.graph.n:
        raise ValueError("switching function must cover every vertex")
    values = np.array(zeta.values, dtype=complex)
    # conj(zeta(u)) * gain * zeta(v) in real parts, multiplied and added in the
    # order CPython's complex product uses, so each gain is the one
    # ``zeta(u).conjugate() * z * zeta(v)`` gives to the last bit; numpy's
    # complex product rounds differently
    ar, ai = values.real[phi.graph.us], -values.imag[phi.graph.us]
    br, bi = values.real[phi.graph.vs], values.imag[phi.graph.vs]
    zr, zi = phi.gains.real, phi.gains.imag
    pr, pi = ar * zr - ai * zi, ar * zi + ai * zr
    switched = np.empty(phi.graph.m, dtype=complex)
    switched.real, switched.imag = pr * br - pi * bi, pr * bi + pi * br
    return GainGraph.from_gains(phi.graph, switched)


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

    Switch by ``phi._switching``, which turns every BFS tree edge's gain into
    its modulus.  The graph is balanced iff every edge then switches to 1
    within ``BALANCE_TOL``; the switched value of a non-tree edge equals the
    gain of its fundamental cycle.  On failure the witness cycle is rebuilt
    from the first failing edge, which is not a tree edge, plus the tree
    path between its endpoints, and its gain is ``cycle_gain`` of it.
    """
    g = phi.graph
    parent = g._forest[1]
    zeta = phi._switching
    # ``rest`` holds the edges (u, v, gain), u < v, ascending, that the
    # scalar test decides, so the witness is deterministic
    if g.n < graphs.ARRAY_MIN_ORDER:
        rest = zip(g.us.tolist(), g.vs.tolist(), phi.gains.tolist())
    else:
        zs = np.array(zeta)
        # only suspects, whose switched gain on the arrays misses 1 by more than
        # BALANCE_TOL / 2; the scalar test decides each, as the products may differ
        switched = zs[g.us].conj() * phi.gains * zs[g.vs]
        hits = np.flatnonzero(np.abs(switched - 1.0) > BALANCE_TOL / 2)
        rest = zip(g.us[hits].tolist(), g.vs[hits].tolist(), phi.gains[hits].tolist())
    for u, v, z in rest:
        switched = zeta[u].conjugate() * z * zeta[v]
        if abs(switched - 1.0) > BALANCE_TOL:
            cyc = _fundamental_cycle(parent, u, v)
            return BalanceCertificate(
                balanced=False, violating_cycle=cyc, violation_gain=cycle_gain(phi, cyc)
            )
    return BalanceCertificate(balanced=True, witness=SwitchingFunction(zeta))


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
    us, vs, source = graphs._kronecker_edges(phi.graph, h)
    kg = Graph.from_arrays(phi.graph.n * h.n, us, vs)
    return GainGraph.from_gains(kg, phi.gains[source])


def random_gain_graph(g: Graph, seed: int | random.Random) -> GainGraph:
    """Uniform random angle per edge, drawn in ascending edge order; seeded."""
    rng = _rng(seed)
    return GainGraph.from_gains(
        g, [unit_from_angle(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(g.m)]
    )


def delete_gain_edges(phi: GainGraph, cut: Iterable[tuple[int, int]]) -> GainGraph:
    """Remove edges (keeping all vertices); surviving gains are unchanged."""
    sub, keep = graphs._deleted(phi.graph, cut)
    return GainGraph.from_gains(sub, phi.gains[keep])


def induced_gain_subgraph(phi: GainGraph, vs: Iterable[int]) -> GainGraph:
    """Gain graph induced on a vertex subset, relabeled like the graph op."""
    # relabeling is monotone, so forward edges stay forward
    sub, e = next(graphs._induced(phi.graph, [vs]))
    return GainGraph.from_gains(sub, phi.gains[e])


def gain_angle(z: complex) -> float:
    """Angle of a unit gain in (-pi, pi]."""
    return cmath.phase(z)
