"""Shared brute-force oracles, kept independent of the package internals,
and the fixture that puts every graph on the large-graph paths.

Every oracle here recomputes from first principles (fresh adjacency
matrices, exhaustive enumeration) so the package's own routines are never on
both sides of an assertion.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from gainspec import GainGraph, Graph, graphs

# pytest puts src/ on sys.path (pyproject.toml); CLI subprocesses need it too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


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
