"""Weighted-CNF export of the layout-search problem.

The formula places logical qubits on physical qubits across ``d + 1``
segments separated by SWAP layers.  Hard clauses enforce a valid
placement per segment (each logical on exactly one physical, no physical
shared) and coupling-respecting movement between segments (a qubit stays
or crosses one coupling edge, and crossings pair up as swaps).  One soft
clause per interaction (order capped) rewards layouts placing its
logical qubits on a connected physical set in some segment, which is
exactly what parity collection needs to run without extra conduits.

The text is in the classic ``p wcnf`` format, for an external MAX-SAT
solver; the package does not read solver models back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .errors import DomainError
from .topology import Topology

DEFAULT_MAX_ORDER = 6


@dataclass
class WcnfMeta:
    """Variable numbering and bookkeeping needed to interpret a model."""

    num_segments: int
    num_logical: int
    num_physical: int
    interactions: list[tuple[int, ...]]
    considered: list[int]  # indices of interactions small enough to encode
    num_vars: int
    top_weight: int
    placement_vars: dict[tuple[int, int, int], int]  # (segment, logical, physical)
    aux_vars: dict[tuple[int, int, tuple[int, ...]], int] = field(default_factory=dict)


@dataclass
class WcnfProblem:
    text: str
    meta: WcnfMeta


def _connected_sets(topo: Topology, size: int) -> list[tuple[int, ...]]:
    """All connected physical-qubit sets of the given size, sorted."""
    found: set[tuple[int, ...]] = set()
    frontier: set[frozenset[int]] = {frozenset([q]) for q in range(topo.num_qubits)}
    for _ in range(size - 1):
        grown: set[frozenset[int]] = set()
        for s in frontier:
            for q in s:
                for nb in topo.neighbors(q):
                    if nb not in s:
                        grown.add(s | {nb})
        frontier = grown
    for s in frontier:
        found.add(tuple(sorted(s)))
    return sorted(found)


def export_wcnf(
    interactions: Iterable[Iterable[int]],
    topo: Topology,
    swap_depth: int = 0,
    max_order: int = DEFAULT_MAX_ORDER,
) -> WcnfProblem:
    """Encode the segmented layout search as weighted CNF text."""
    if swap_depth < 0:
        raise DomainError("swap depth must be >= 0")
    interactions = [tuple(sorted(set(i))) for i in interactions]
    logicals = sorted({q for i in interactions for q in i})
    num_logical = (max(logicals) + 1) if logicals else 0
    if num_logical > topo.num_qubits:
        raise DomainError("more logical qubits than physical qubits")
    segments = swap_depth + 1

    var = 0
    placement: dict[tuple[int, int, int], int] = {}
    for s in range(segments):
        for l in range(num_logical):
            for p in range(topo.num_qubits):
                var += 1
                placement[(s, l, p)] = var

    hard: list[list[int]] = []
    phys = range(topo.num_qubits)
    for s in range(segments):
        for l in range(num_logical):
            hard.append([placement[(s, l, p)] for p in phys])
            for p, q in itertools.combinations(phys, 2):
                hard.append([-placement[(s, l, p)], -placement[(s, l, q)]])
        for p in phys:
            for l, m in itertools.combinations(range(num_logical), 2):
                hard.append([-placement[(s, l, p)], -placement[(s, m, p)]])
    for s in range(segments - 1):
        for l in range(num_logical):
            for p in phys:
                stay_or_hop = [placement[(s + 1, l, p)]] + [
                    placement[(s + 1, l, q)] for q in topo.neighbors(p)
                ]
                hard.append([-placement[(s, l, p)]] + stay_or_hop)
        # A hop across (p, q) must swap with the occupant of q.
        for l, m in itertools.permutations(range(num_logical), 2):
            for p in phys:
                for q in topo.neighbors(p):
                    hard.append(
                        [
                            -placement[(s, l, p)],
                            -placement[(s + 1, l, q)],
                            -placement[(s, m, q)],
                            placement[(s + 1, m, p)],
                        ]
                    )

    aux: dict[tuple[int, int, tuple[int, ...]], int] = {}
    soft: list[tuple[int, list[int]]] = []
    considered = [i for i, inter in enumerate(interactions) if 2 <= len(inter) <= max_order]
    sets_by_size = {
        size: _connected_sets(topo, size)
        for size in sorted({len(interactions[i]) for i in considered})
    }
    aux_defs: list[list[int]] = []
    for i in considered:
        inter = interactions[i]
        reward: list[int] = []
        for s in range(segments):
            for cset in sets_by_size[len(inter)]:
                var += 1
                aux[(i, s, cset)] = var
                reward.append(var)
                for l in inter:
                    aux_defs.append([-var] + [placement[(s, l, p)] for p in cset])
        soft.append((1, reward))
    hard.extend(aux_defs)

    top = len(soft) + 1
    lines = [f"p wcnf {var} {len(hard) + len(soft)} {top}"]
    for clause in hard:
        lines.append(f"{top} " + " ".join(str(x) for x in clause) + " 0")
    for weight, clause in soft:
        lines.append(f"{weight} " + " ".join(str(x) for x in clause) + " 0")

    meta = WcnfMeta(
        num_segments=segments,
        num_logical=num_logical,
        num_physical=topo.num_qubits,
        interactions=interactions,
        considered=considered,
        num_vars=var,
        top_weight=top,
        placement_vars=placement,
        aux_vars=aux,
    )
    return WcnfProblem("\n".join(lines) + "\n", meta)

