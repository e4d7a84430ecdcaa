"""Oriented tangle graphs, walk scoring, and an exhaustive walk oracle.

Nodes of a tangle carry two orientations (forward strand and reverse
complement).  Oriented-vertex ids pack node and orientation as
``2 * node + o`` with ``o == 0`` for the positive orientation, so the
low bit toggles under reverse complement.  Edge sets are closed under
reverse complement: whenever ``(a, b)`` is an edge, so is
``(flip(b), flip(a))``.

The cost of a walk is the squared mismatch between each node's target
weight and the number of visits summed over both orientations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import DomainError, GenerationError, SizeCapError

Walk = tuple[int, ...]

ORACLE_SEQUENCE_CAP = 10_000_000


def flip(a: int) -> int:
    """Reverse-complement an oriented-vertex id (toggle the low bit)."""
    return a ^ 1


@dataclass
class OrientedGraph:
    """Vertex-weighted oriented graph with a reverse-complement-closed edge set.

    Attributes:
        node_count: number of underlying nodes N; oriented ids live in [0, 2N).
        weights: per-node non-negative integer target visit counts.
        edges: set of ordered oriented-vertex pairs.
    """

    node_count: int
    weights: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    _succ: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.node_count < 1:
            raise DomainError(f"node_count must be >= 1, got {self.node_count}")
        self.weights = tuple(int(w) for w in self.weights)
        if len(self.weights) != self.node_count:
            raise DomainError(
                f"expected {self.node_count} weights, got {len(self.weights)}"
            )
        if any(w < 0 for w in self.weights):
            raise DomainError("weights must be non-negative")
        edges = frozenset((int(a), int(b)) for a, b in self.edges)
        top = 2 * self.node_count
        for a, b in sorted(edges):
            if not (0 <= a < top and 0 <= b < top):
                raise DomainError(f"edge ({a}, {b}) outside oriented-id range [0, {top})")
            if (flip(b), flip(a)) not in edges:
                raise DomainError(
                    f"edge ({a}, {b}) lacks its reverse complement ({flip(b)}, {flip(a)})"
                )
        self.edges = edges
        succ: dict[int, list[int]] = {a: [] for a in range(top)}
        for a, b in edges:
            succ[a].append(b)
        self._succ = {a: tuple(sorted(bs)) for a, bs in succ.items()}

    @property
    def num_oriented(self) -> int:
        return 2 * self.node_count

    def successors(self, a: int) -> tuple[int, ...]:
        return self._succ[a]

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self.edges


def is_valid_walk(g: OrientedGraph, walk: Walk) -> bool:
    """True iff every consecutive pair of steps is an edge of ``g``."""
    if len(walk) < 1:
        return False
    if any(not (0 <= s < g.num_oriented) for s in walk):
        return False
    return all(g.has_edge(a, b) for a, b in zip(walk, walk[1:]))


def walk_cost(g: OrientedGraph, walk: Walk) -> int:
    """Squared-error cost of a walk against the node weights.

    Visits are counted per node over both orientations; the walk does not
    need to be edge-valid (infeasible decodes are scored the same way).
    """
    visits = [0] * g.node_count
    for s in walk:
        if not (0 <= s < g.num_oriented):
            raise DomainError(f"step id {s} outside [0, {g.num_oriented})")
        visits[s >> 1] += 1
    return sum((c - w) ** 2 for c, w in zip(visits, g.weights))


def default_walk_length(g: OrientedGraph) -> int:
    """Walk length implied by the weights: total desired visits over all nodes."""
    total = sum(g.weights)
    if total == 0:
        raise DomainError("degenerate instance: all node weights are zero")
    return total


@dataclass(frozen=True)
class WalkOracleResult:
    """Outcome of the exhaustive walk search."""

    min_cost: int | None  # None when no valid walk exists
    walks: tuple[Walk, ...]

    @property
    def found(self) -> bool:
        return self.min_cost is not None


def enumerate_optimal_walks(
    g: OrientedGraph, T: int, sequence_cap: int = ORACLE_SEQUENCE_CAP
) -> WalkOracleResult:
    """Brute-force oracle: score every valid length-T walk.

    Returns the minimum cost and all walks attaining it, in lexicographic
    order.  Refuses when the raw search space (2N)^T exceeds the cap.
    """
    if T < 1:
        raise DomainError(f"walk length must be >= 1, got {T}")
    if sequence_cap < 1:
        raise DomainError(f"enumeration cap must be >= 1, got {sequence_cap}")
    if g.num_oriented**T > sequence_cap:
        raise SizeCapError(
            f"(2N)^T = {g.num_oriented ** T} exceeds enumeration cap {sequence_cap}"
        )

    best: list[Walk] = []
    best_cost: int | None = None
    visits = [0] * g.node_count
    prefix: list[int] = []

    def extend(depth: int):
        nonlocal best_cost
        if depth == T:
            cost = sum((c - w) ** 2 for c, w in zip(visits, g.weights))
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best.clear()
            if cost == best_cost:
                best.append(tuple(prefix))
            return
        candidates = range(g.num_oriented) if depth == 0 else g.successors(prefix[-1])
        for s in candidates:
            prefix.append(s)
            visits[s >> 1] += 1
            extend(depth + 1)
            visits[s >> 1] -= 1
            prefix.pop()

    extend(0)
    return WalkOracleResult(best_cost, tuple(best))


def generate_tangle(
    seed: int,
    n_nodes: int,
    max_weight: int = 2,
    edge_density: float = 0.25,
) -> OrientedGraph:
    """Deterministic synthetic tangle with a planted zero-cost walk.

    A ground-truth walk visiting every node between 1 and ``max_weight``
    times is generated first; its consecutive pairs become edges and its
    per-node visit counts become the weights, so the optimum of the
    resulting instance is exactly 0 at length ``default_walk_length``.
    Additional edges are sprinkled in with probability ``edge_density``
    and the whole set is closed under reverse complement.
    """
    if n_nodes < 1:
        raise DomainError(f"n_nodes must be >= 1, got {n_nodes}")
    if max_weight < 1:
        raise DomainError(f"max_weight must be >= 1, got {max_weight}")
    if not 0.0 <= edge_density <= 1.0:
        raise DomainError(f"edge_density must lie in [0, 1], got {edge_density}")

    rng = random.Random(seed * 1_000_003)
    counts = [rng.randint(1, max_weight) for _ in range(n_nodes)]
    nodes = [v for v, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(nodes)
    steps = tuple(2 * v + rng.randint(0, 1) for v in nodes)

    edges = set()
    for a, b in zip(steps, steps[1:]):
        edges.add((a, b))
        edges.add((flip(b), flip(a)))
    top = 2 * n_nodes
    for a in range(top):
        for b in range(top):
            if rng.random() < edge_density:
                edges.add((a, b))
                edges.add((flip(b), flip(a)))

    g = OrientedGraph(n_nodes, tuple(counts), frozenset(edges))
    if len(steps) > 1 and not is_valid_walk(g, steps):
        raise GenerationError(
            f"internal: the planted walk is not valid for seed={seed}, n_nodes={n_nodes}"
        )
    return g


def graph_to_dict(g: OrientedGraph) -> dict:
    return {
        "n": g.node_count,
        "weights": list(g.weights),
        "edges": sorted([a, b] for a, b in g.edges),
    }


def graph_from_dict(data: dict) -> OrientedGraph:
    """Build a graph from the JSON schema, with per-entry diagnostics."""
    if not isinstance(data, dict):
        raise DomainError(f"graph JSON must be an object, got {type(data).__name__}")
    for key in ("n", "weights", "edges"):
        if key not in data:
            raise DomainError(f"graph JSON missing required key {key!r}")
    n = data["n"]
    if type(n) is not int or n < 1:
        raise DomainError(f"graph JSON field 'n' must be a positive integer, got {n!r}")
    for key in ("weights", "edges"):
        if not isinstance(data[key], list):
            raise DomainError(f"graph JSON field {key!r} must be a list, got {data[key]!r}")
    weights = data["weights"]
    for i, w in enumerate(weights):
        if type(w) is not int or w < 0:
            raise DomainError(f"weights[{i}] = {w!r} is not a non-negative integer")
    edges = []
    for i, pair in enumerate(data["edges"]):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise DomainError(f"edges[{i}] = {pair!r} is not a pair")
        a, b = pair
        if not (type(a) is int and type(b) is int):
            raise DomainError(f"edges[{i}] = {pair!r} has non-integer endpoints")
        if not (0 <= a < 2 * n and 0 <= b < 2 * n):
            raise DomainError(f"edges[{i}] = {pair!r} outside oriented-id range [0, {2 * n})")
        edges.append((a, b))
    edge_set = set(edges)
    for i, (a, b) in enumerate(edges):
        if (flip(b), flip(a)) not in edge_set:
            raise DomainError(
                f"edges[{i}] = [{a}, {b}]: reverse complement [{flip(b)}, {flip(a)}] missing"
            )
    return OrientedGraph(n, tuple(weights), frozenset(edge_set))

