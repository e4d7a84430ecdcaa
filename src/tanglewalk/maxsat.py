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
solver.  To read a solver's model back: with ``L`` logical qubits (one
more than the largest index in any interaction) and ``P`` physical
qubits, variable ``1 + (s*L + l)*P + p`` is true when logical ``l`` sits
on physical ``p`` in segment ``s``.  The auxiliary variables follow, one
per (interaction, segment, connected set) in that nesting order: the
interactions of 2 to ``max_order`` qubits in input order, the segments
in order, and the connected sets of the interaction's size sorted.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import DomainError
from .topology import Topology

DEFAULT_MAX_ORDER = 6


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
) -> str:
    """Encode the segmented layout search as weighted CNF text."""
    if swap_depth < 0:
        raise DomainError("swap depth must be >= 0")
    interactions = [tuple(sorted(set(i))) for i in interactions]
    num_logical = max((q + 1 for i in interactions for q in i), default=0)
    if num_logical > topo.num_qubits:
        raise DomainError("more logical qubits than physical qubits")
    segments = swap_depth + 1
    phys = range(topo.num_qubits)

    def placed(s: int, l: int, p: int) -> int:
        return 1 + (s * num_logical + l) * topo.num_qubits + p

    hard: list[list[int]] = []
    for s in range(segments):
        for l in range(num_logical):
            hard.append([placed(s, l, p) for p in phys])
            for p, q in itertools.combinations(phys, 2):
                hard.append([-placed(s, l, p), -placed(s, l, q)])
        for p in phys:
            for l, m in itertools.combinations(range(num_logical), 2):
                hard.append([-placed(s, l, p), -placed(s, m, p)])
    for s in range(segments - 1):
        for l in range(num_logical):
            for p in phys:
                stay_or_hop = [placed(s + 1, l, p)] + [
                    placed(s + 1, l, q) for q in topo.neighbors(p)
                ]
                hard.append([-placed(s, l, p)] + stay_or_hop)
        # A hop across (p, q) must swap with the occupant of q.
        for l, m in itertools.permutations(range(num_logical), 2):
            for p in phys:
                for q in topo.neighbors(p):
                    hard.append(
                        [
                            -placed(s, l, p),
                            -placed(s + 1, l, q),
                            -placed(s, m, q),
                            placed(s + 1, m, p),
                        ]
                    )

    var = segments * num_logical * topo.num_qubits
    considered = [inter for inter in interactions if 2 <= len(inter) <= max_order]
    sets_by_size = {size: _connected_sets(topo, size) for size in {len(i) for i in considered}}
    soft: list[list[int]] = []
    for inter in considered:
        reward: list[int] = []
        for s in range(segments):
            for cset in sets_by_size[len(inter)]:
                var += 1
                reward.append(var)
                hard.extend([-var] + [placed(s, l, p) for p in cset] for l in inter)
        soft.append(reward)

    top = len(soft) + 1
    lines = [f"p wcnf {var} {len(hard) + len(soft)} {top}"]
    lines += [f"{top} " + " ".join(map(str, clause)) + " 0" for clause in hard]
    lines += ["1 " + " ".join(map(str, clause)) + " 0" for clause in soft]
    return "\n".join(lines) + "\n"
