"""Maximum matching on general graphs.

``maximum_matching`` implements Edmonds' blossom algorithm (alternating BFS
with blossom contraction via base pointers, O(V^3)), which is correct on
non-bipartite graphs where augmenting-path search alone fails.  Roots and
neighbors are scanned in ascending index order, so the returned edge set is
deterministic; only the matching number itself is canonical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Edge, Graph


@dataclass(frozen=True)
class MatchingResult:
    """A matching, kept as its edges; ``mu`` and ``saturated`` are read off them."""

    matched_edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matched_edges", frozenset(self.matched_edges))
        seen: set[int] = set()
        for u, v in self.matched_edges:
            if u in seen or v in seen:
                raise ValueError("matched edges share a vertex")
            seen.update((u, v))

    @property
    def mu(self) -> int:
        return len(self.matched_edges)

    @property
    def saturated(self) -> frozenset[int]:
        return frozenset(v for e in self.matched_edges for v in e)


def _alternating_bfs(
    root: int, adj: tuple[tuple[int, ...], ...], match: list[int]
) -> tuple[int, list[int]]:
    """Grow an alternating tree from an exposed root, contracting blossoms.

    Returns (exposed endpoint of an augmenting path, parent links), or
    (-1, parents) when no augmenting path exists from this root.
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_queue[root] = True
    queue = deque([root])

    def lowest_common_base(a: int, b: int) -> int:
        on_path = [False] * n
        x = a
        while True:
            x = base[x]
            on_path[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if on_path[y]:
                return y
            y = parent[match[y]]

    def contract_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if base[v] == base[w] or match[v] == w:
                continue
            if w == root or (match[w] != -1 and parent[match[w]] != -1):
                # even-even edge: contract the blossom around its stem
                stem = lowest_common_base(v, w)
                in_blossom = [False] * n
                contract_path(v, stem, w, in_blossom)
                contract_path(w, stem, v, in_blossom)
                for u in range(n):
                    if in_blossom[base[u]]:
                        base[u] = stem
                        if not in_queue[u]:
                            in_queue[u] = True
                            queue.append(u)
            elif parent[w] == -1:
                parent[w] = v
                if match[w] == -1:
                    return w, parent
                if not in_queue[match[w]]:
                    in_queue[match[w]] = True
                    queue.append(match[w])
    return -1, parent


def maximum_matching(g: Graph) -> MatchingResult:
    """Maximum cardinality matching via the blossom algorithm."""
    n, adj = g.n, g._adjacency
    match = [-1] * n
    # deterministic greedy seed, lowest indices first
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for root in range(n):
        if match[root] != -1 or not adj[root]:  # an isolated root starts no path
            continue
        exposed, parent = _alternating_bfs(root, adj, match)
        if exposed == -1:
            continue
        v = exposed
        while v != -1:
            pv = parent[v]
            nxt = match[pv]
            match[v] = pv
            match[pv] = v
            v = nxt
    return MatchingResult(frozenset((v, match[v]) for v in range(n) if match[v] > v))
