"""Coupling topologies.

Supported layouts: linear chains, rectangular grids, and rows of
heavy-hex cells.  A heavy-hex row consists of two horizontal rails of
4C+1 qubits joined by C+1 bridge qubits every fourth column, plus one
pendant qubit above and below each cell's midpoint (where the lattice
would continue), so the maximum degree is 3 even for a single cell.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

from .errors import DomainError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Topology:
    """Undirected, connected coupling graph; frozen, so its cached ``hops`` cannot go stale."""

    num_qubits: int
    edges: frozenset[Edge]
    _adj: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise DomainError("topology needs at least one qubit")
        canon = set()
        for a, b in self.edges:
            if a == b:
                raise DomainError(f"self-coupling ({a}, {b}) not allowed")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise DomainError(f"edge ({a}, {b}) outside qubit range")
            canon.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(canon))
        adj: dict[int, list[int]] = {q: [] for q in range(self.num_qubits)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "_adj", {q: tuple(sorted(ns)) for q, ns in adj.items()})
        if len(self.distances_from(0)) != self.num_qubits:
            raise DomainError("topology must be connected")

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adj[q]

    def coupled(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def shortest_path(self, src: int, targets) -> list[int]:
        """BFS path, both ends included, to the nearest of ``targets``; smallest-index ties."""
        if src in targets:
            return [src]
        parent = {src: src}
        frontier = deque([src])
        while frontier:
            cur = frontier.popleft()
            for nb in self._adj[cur]:
                if nb not in parent:
                    parent[nb] = cur
                    if nb in targets:
                        path = [nb]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    frontier.append(nb)
        raise DomainError(f"no path from {src} to {sorted(targets)}")

    def distances_from(self, src: int) -> dict[int, int]:
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            cur = frontier.popleft()
            for nb in self._adj[cur]:
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    frontier.append(nb)
        return dist

    @functools.cached_property
    def hops(self) -> list[list[int]]:
        """All-pairs hop counts, built on first read: ``hops[a][b]`` is the distance from a to b."""
        n = self.num_qubits
        return [[row[q] for q in range(n)] for row in map(self.distances_from, range(n))]


def build_topology(kind: str, size) -> Topology:
    """Construct a named topology.

    ``linear`` takes a qubit count, ``grid`` takes (rows, cols), and
    ``heavy-hex`` takes a cell count.
    """
    if kind == "linear":
        n = int(size)
        if n < 1:
            raise DomainError("linear topology needs >= 1 qubit")
        return Topology(n, frozenset((i, i + 1) for i in range(n - 1)))
    if kind == "grid":
        rows, cols = (int(size[0]), int(size[1]))
        if rows < 1 or cols < 1:
            raise DomainError("grid dimensions must be >= 1")
        edges = set()
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                if c + 1 < cols:
                    edges.add((q, q + 1))
                if r + 1 < rows:
                    edges.add((q, q + cols))
        return Topology(rows * cols, frozenset(edges))
    if kind in ("heavy-hex", "heavy_hex"):
        return _heavy_hex(int(size))
    raise DomainError(f"unknown topology kind {kind!r}")


def _heavy_hex(cells: int) -> Topology:
    if cells < 1:
        raise DomainError("heavy-hex needs >= 1 cell")
    cols = 4 * cells + 1
    top = list(range(cols))
    bottom = list(range(cols, 2 * cols))
    nxt = 2 * cols
    edges = set()
    for rail in (top, bottom):
        edges.update((rail[i], rail[i + 1]) for i in range(cols - 1))
    for j in range(cells + 1):  # bridges every fourth column
        bridge = nxt
        nxt += 1
        edges.add((top[4 * j], bridge))
        edges.add((bridge, bottom[4 * j]))
    for j in range(cells):  # pendant qubits at the cell midpoints
        above = nxt
        nxt += 1
        edges.add((above, top[4 * j + 2]))
        below = nxt
        nxt += 1
        edges.add((below, bottom[4 * j + 2]))
    return Topology(nxt, frozenset(edges))

