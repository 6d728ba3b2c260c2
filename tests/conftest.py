"""Shared brute-force oracles, kept independent of the package internals,
the fixture that puts every graph on the large-graph paths, and one that
keeps an exported GAINSPEC_SEED out of every test.

Every oracle here recomputes from first principles (fresh adjacency
matrices, exhaustive enumeration, the Faddeev-LeVerrier recurrence, closed
forms) so the package's own routines are never on both sides of an
assertion.  Only public ``gainspec`` names are used.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from gainspec import (
    GainGraph,
    Graph,
    all_ones,
    chorded_six_cycle,
    complete_bipartite,
    cycle_graph,
    gain_graph,
    graphs,
    path_graph,
    random_gain_graph,
    set_gain,
    spectra,
    unit,
    unit_from_angle,
)

CHAR_POLY_MAX_N = 12
ORACLE_MAX_N = 12

# pytest puts src/ on sys.path (pyproject.toml); CLI subprocesses need it too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(autouse=True)
def no_seed_override(monkeypatch):
    """Commands run without ``--seed`` take the default seed, whatever
    GAINSPEC_SEED the shell exports; tests of the override set it."""
    monkeypatch.delenv("GAINSPEC_SEED", raising=False)


@pytest.fixture
def array_paths(monkeypatch):
    """Build adjacency and scan balance on the edge arrays, and solve every
    spectrum component by component, whatever the order."""
    monkeypatch.setattr(graphs, "ARRAY_MIN_ORDER", 0)


def adjacency_oracle(phi: GainGraph) -> np.ndarray:
    """Adjacency built edge by edge from the public gain accessor."""
    n = phi.graph.n
    a = np.zeros((n, n), dtype=complex)
    for u, v in phi.graph.edges:
        a[u, v] = phi.gain(u, v)
        a[v, u] = phi.gain(v, u)
    return a


def energy_oracle(phi: GainGraph) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(adjacency_oracle(phi)))))


def all_simple_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple cycle exactly once, as a vertex tuple starting at its
    smallest vertex. Exponential; fine for n <= 8."""
    cycles = []

    def extend(path: list[int], on_path: set[int]) -> None:
        last = path[-1]
        for w in g.neighbors(last):
            if w == path[0] and len(path) >= 3 and path[1] < last:
                cycles.append(tuple(path))
            elif w > path[0] and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(path, on_path)
                on_path.remove(w)
                path.pop()

    for start in range(g.n):
        extend([start], {start})
    return cycles


def gain_of_closed_walk(phi: GainGraph, cycle: tuple[int, ...]) -> complex:
    total = 1.0 + 0.0j
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        total *= phi.gain(a, b)
    return total


def balanced_by_all_cycles(phi: GainGraph, tol: float = 1e-9) -> bool:
    """Definition-level oracle: every simple cycle has gain 1."""
    return all(
        abs(gain_of_closed_walk(phi, c) - 1.0) <= tol
        for c in all_simple_cycles(phi.graph)
    )


def balanced_by_dfs_basis(phi: GainGraph, tol: float = 1e-9) -> bool:
    """Cycle-space oracle on a DFS forest (a different tree than the
    package's BFS): all fundamental cycle gains are 1."""
    g = phi.graph
    pot: list[complex] = [1.0 + 0.0j] * g.n
    seen = [False] * g.n
    tree: set[tuple[int, int]] = set()
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for w in reversed(g.neighbors(u)):
                if not seen[w]:
                    seen[w] = True
                    pot[w] = pot[u] * phi.gain(u, w)
                    tree.add((u, w) if u < w else (w, u))
                    stack.append(w)
    for u, v in g.edges - frozenset(tree):
        fundamental = pot[u] * phi.gain(u, v) * pot[v].conjugate()
        if abs(fundamental - 1.0) > tol:
            return False
    return True


def has_odd_cycle_bruteforce(g: Graph) -> bool:
    return any(len(c) % 2 == 1 for c in all_simple_cycles(g))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def equal_sided_blocks_bruteforce(g: Graph) -> bool:
    """Every component is one vertex, or some split of it into halves X|Y
    has edge set exactly X x Y.  Tries every halving; fine for n <= 6."""
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        root[find(u)] = find(v)
    comps: dict[int, set[int]] = {}
    for v in range(g.n):
        comps.setdefault(find(v), set()).add(v)
    for comp in comps.values():
        if len(comp) == 1:
            continue
        inside = {e for e in g.edges if e[0] in comp}
        half, odd = divmod(len(comp), 2)
        if odd or not any(
            inside == {tuple(sorted((x, y))) for x in xs for y in comp - set(xs)}
            for xs in itertools.combinations(sorted(comp), half)
        ):
            return False
    return True


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; vertices of ``h`` are shifted up by ``g.n``."""
    shifted = ((u + g.n, v + g.n) for u, v in h.edges)
    return Graph(g.n + h.n, g.edges | frozenset(shifted))


def char_poly(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda I - A), leading coefficient first.

    Computed by the Faddeev-LeVerrier recurrence, independently of the
    eigensolver; for Hermitian input the coefficients are real (checked to
    1e-8).  Intended for desk-scale verification, so n <= 12.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if a.size and np.max(np.abs(a - a.conj().T)) > spectra.HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    n = a.shape[0]
    if n > CHAR_POLY_MAX_N:
        raise ValueError(f"char_poly supports n <= {CHAR_POLY_MAX_N}, got {n}")
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    if n and np.max(np.abs(coeffs.imag)) > 1e-8:
        raise RuntimeError("characteristic polynomial is not real within 1e-8")
    return coeffs.real


def four_cycle_gain_graph(a: complex, b: complex) -> GainGraph:
    """The 4-cycle 0-1-2-3-0 with gains gain(0,1)=1, gain(1,2)=a,
    gain(2,3)=1, gain(3,0)=b."""
    a, b = unit(a), unit(b)
    return gain_graph(
        cycle_graph(4),
        {(0, 1): 1.0, (1, 2): a, (2, 3): 1.0, (0, 3): b.conjugate()},
    )


def four_cycle_energy(a: complex, b: complex) -> float:
    """Closed-form energy of the 4-cycle above, as a function of x = Re(a*b):

        2*sqrt(2 + sqrt(2 + 2x)) + 2*sqrt(2 - sqrt(2 + 2x))

    which is >= 4 with equality exactly at x = 1.  x is clamped to [-1, 1]
    to guard the inner square root against rounding overshoot.
    """
    a, b = unit(a), unit(b)
    x = min(1.0, max(-1.0, (a * b).real))
    s = np.sqrt(2.0 + 2.0 * x)
    return float(2.0 * np.sqrt(2.0 + s) + 2.0 * np.sqrt(max(0.0, 2.0 - s)))


def matching_oracle(g: Graph) -> int:
    """Exact matching number by exhaustive include/exclude over edges,
    memoized on the saturated-vertex bitmask (n <= 12)."""
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"oracle supports n <= {ORACLE_MAX_N}, got {g.n}")
    edges = sorted(g.edges)
    memo: dict[tuple[int, int], int] = {}

    def best_from(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        key = (i, used)
        cached = memo.get(key)
        if cached is not None:
            return cached
        u, v = edges[i]
        result = best_from(i + 1, used)
        if not used & (1 << u) and not used & (1 << v):
            result = max(
                result, 1 + best_from(i + 1, used | (1 << u) | (1 << v))
            )
        memo[key] = result
        return result

    return best_from(0, 0)


def structured_perturbations(seed: int, count: int) -> list[GainGraph]:
    """Near-miss and off-family instances: equal-sided complete bipartite
    blocks with one gain rotated by e^{i pi/4}, even cycles, the chorded
    six-cycle, short paths, and odd cycles, with randomized gains."""
    rng = random.Random(seed)
    rot = unit_from_angle(0.25 * math.pi)
    out: list[GainGraph] = []
    while len(out) < count:
        kind = len(out) % 5
        if kind == 0:
            t = rng.choice((2, 3))
            phi = all_ones(complete_bipartite(t, t))
            u, v = sorted(phi.graph.edges)[rng.randrange(phi.graph.m)]
            out.append(set_gain(phi, u, v, rot))
        elif kind == 1:
            out.append(random_gain_graph(cycle_graph(6), rng))
        elif kind == 2:
            out.append(random_gain_graph(chorded_six_cycle(), rng))
        elif kind == 3:
            out.append(random_gain_graph(path_graph(4), rng))
        else:
            k = rng.choice((3, 5, 7, 9))
            out.append(random_gain_graph(cycle_graph(k), rng))
    return out


# A failing hypothesis property makes its plugin import this module, which
# imports libcst, which warns on import; with warnings as errors that ends
# the run in INTERNALERROR instead of reporting the failure.  Importing it
# once here, with that warning silenced, reports failures as failures.  The
# plugin skips its patch output when libcst is absent, and so does this.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401
