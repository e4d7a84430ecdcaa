"""Build logical QAOA circuits and compile them to coupling-limited topologies.

Two compile strategies are provided.  Both take the logical circuits
``qaoa_circuit`` emits, RY and diagonal gates (RZ, RZZ, MULTIRZ) only; a
CX or SWAP in the input is a ``DomainError``.

* ``compile_naive``: every multi-qubit Z rotation becomes a CX ladder,
  a rotation, and the inverse ladder; non-adjacent operands are routed
  with shortest-path SWAPs that permute the layout permanently.
* ``compile_parity``: rotations are planned over Steiner trees of their
  physical supports.  CX networks collect the parity of the rotated set
  into a coupled pair (executed as one RZZ), conduit qubits are cancelled
  with sandwich CXs, and each rotation's network is mirrored so the run
  stays diagonal.  Rotations are ordered to maximise shared network
  prefixes, which a commutation-aware peephole pass then cancels between
  consecutive rotations.  No SWAPs are inserted: parity collection reaches
  across the topology, so no interaction is ever left non-local, and
  the layout is the same at the end as at the start.

Neither compiler checks itself: both return through ``verify_equivalence``
and raise ``TanglewalkError("internal: ...")`` on an output it rejects.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import PLAIN_GATES, CircuitIR, Gate, metrics, verify_equivalence
from .errors import DomainError, TanglewalkError
from .ising import IsingPolynomial
from .qaoa import QaoaSchedule, _checked_prior
from .topology import Topology

EXHAUSTIVE_LAYOUT_CAP = 5040  # candidate assignments tried exhaustively
ORDER_CAP = 8  # rotations ordered by exhaustive permutation search


@dataclass(frozen=True)
class CompiledCircuit:
    """Topology-respecting circuit plus layout maps and size metrics."""

    circuit: CircuitIR
    initial_layout: dict[int, int]
    final_layout: dict[int, int]
    method: str

    def __post_init__(self):
        if self.circuit.has_multirz:
            raise DomainError("compiled circuits may not contain MULTIRZ gates")

    @functools.cached_property
    def metrics(self) -> dict:
        """``circuits.metrics`` of ``circuit``, taken on first read."""
        return metrics(self.circuit)


def cost_layer_gates(h: IsingPolynomial, gamma: float) -> list[Gate]:
    """Diagonal gates implementing exp(-i gamma (H - constant))."""
    gates = []
    for qubits, coeff in sorted(h.terms.items()):
        theta = 2 * gamma * coeff
        if len(qubits) == 1:
            gates.append(Gate("RZ", qubits, theta))
        else:
            gates.append(Gate("MULTIRZ", qubits, theta))
    return gates


def qaoa_circuit(
    h: IsingPolynomial, schedule: QaoaSchedule, prior: Sequence[float]
) -> CircuitIR:
    """Logical warm-started LR-QAOA circuit for a diagonal cost Hamiltonian.

    Ry rotations prepare the biased product state; each layer applies the
    cost phase (one MULTIRZ per Z term, the constant being a global
    phase) and then the rotated mixer, emitted per qubit as the gate
    sequence Ry(-phi), Rz(-2 beta), Ry(phi).
    """
    n = h.num_qubits
    phi = _checked_prior(h, prior)
    circ = CircuitIR(n)
    for q in range(n):
        circ.append("RY", (q,), float(phi[q]))
    for beta, gamma in zip(schedule.betas, schedule.gammas):
        circ.extend(cost_layer_gates(h, gamma))
        for q in range(n):
            circ.append("RY", (q,), float(-phi[q]))
            circ.append("RZ", (q,), float(-2 * beta))
            circ.append("RY", (q,), float(phi[q]))
    return circ


# ---------------------------------------------------------------------------
# Layout bookkeeping and naive compilation


def _route_adjacent(topo: Topology, l2p: dict, p2l: dict, moving: int, target: int, out: list):
    """SWAP ``moving`` along a shortest path until coupled, updating ``l2p`` and its inverse."""
    while not topo.coupled(l2p[moving], l2p[target]):
        here, step = topo.shortest_path(l2p[moving], {l2p[target]})[:2]
        out.append(Gate("SWAP", (here, step)))
        other = p2l.get(step)  # the logical qubit moved back, or None
        p2l[here], p2l[step], l2p[moving] = other, moving, step
        if other is not None:
            l2p[other] = here


def compile_naive(
    circ: CircuitIR, topo: Topology, layout_seed: int | None = None
) -> CompiledCircuit:
    """Baseline: CX ladders for every rotation, shortest-path SWAP routing."""
    _check_input(circ, topo)
    initial_layout = _initial_layout(circ, topo, layout_seed)
    l2p, p2l = dict(initial_layout), {p: q for q, p in initial_layout.items()}
    out: list[Gate] = []
    for g in circ.gates:
        if g.name in ("RY", "RZ"):
            out.append(Gate(g.name, (l2p[g.qubits[0]],), g.theta))
        elif len(g.qubits) == 2:  # RZZ, or a two-qubit MULTIRZ
            a, b = g.qubits
            _route_adjacent(topo, l2p, p2l, a, b, out)
            out.append(Gate("RZZ", (l2p[a], l2p[b]), g.theta))
        else:
            # CX ladder over logical pairs (none for a one-qubit MULTIRZ);
            # each leg is routed at its current positions, so the mirror
            # stays correct even when routing for a later leg has moved
            # qubits in between.
            order = sorted(g.qubits, key=lambda q: l2p[q])
            ladder = list(zip(order, order[1:]))
            for prev, cur in ladder:
                _route_adjacent(topo, l2p, p2l, prev, cur, out)
                out.append(Gate("CX", (l2p[prev], l2p[cur])))
            out.append(Gate("RZ", (l2p[order[-1]],), g.theta))
            for prev, cur in reversed(ladder):
                _route_adjacent(topo, l2p, p2l, prev, cur, out)
                out.append(Gate("CX", (l2p[prev], l2p[cur])))
    compiled = CompiledCircuit(
        CircuitIR(topo.num_qubits, out),
        initial_layout=initial_layout,
        final_layout=l2p,
        method="naive",
    )
    return _verified(circ, compiled)


def _check_fits(circ: CircuitIR, topo: Topology):
    if topo.num_qubits < circ.num_qubits:
        raise DomainError(
            f"topology has {topo.num_qubits} qubits, circuit needs {circ.num_qubits}"
        )


def _check_input(circ: CircuitIR, topo: Topology):
    """Both compilers take the gates ``qaoa_circuit`` emits: RY and diagonal gates."""
    _check_fits(circ, topo)
    for g in circ.gates:
        if g.name in PLAIN_GATES:
            raise DomainError(
                f"cannot compile {g.name} on {g.qubits}: the compilers take RY and "
                "diagonal gates only"
            )


def _verified(circ: CircuitIR, compiled: CompiledCircuit) -> CompiledCircuit:
    """``compiled``, once ``verify_equivalence`` proves that it acts as ``circ`` does.

    ``circ`` has passed ``_check_input``, so an RY the verifier cannot pair,
    like an unequal circuit, is a compiler defect, not a bad input.
    """
    try:
        equal = verify_equivalence(circ, compiled)
    except DomainError as exc:
        raise TanglewalkError(f"internal: {compiled.method} output: {exc}") from exc
    if not equal:
        raise TanglewalkError(f"internal: {compiled.method} output does not act as its input")
    return compiled


def _initial_layout(circ: CircuitIR, topo: Topology, seed: int | None) -> dict[int, int]:
    if seed is None:
        return {q: q for q in range(circ.num_qubits)}
    if seed < 0:
        raise DomainError(f"layout seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(topo.num_qubits)[: circ.num_qubits]
    return {q: int(order[q]) for q in range(circ.num_qubits)}


# ---------------------------------------------------------------------------
# Parity-network compilation


def _steiner_tree(topo: Topology, terminals: frozenset[int]) -> dict[int, list[int]]:
    """Deterministic approximate Steiner tree as an adjacency dict.

    Takahashi & Matsuyama's heuristic (Math. Japonica 24, 1980): starting
    from the smallest terminal, repeatedly join the missing terminal
    nearest the tree, the smaller one on equal distances, along
    ``Topology.shortest_path``.  Each missing terminal's distance to the
    tree is kept and lowered through ``Topology.hops`` from the nodes each
    path adds, so a step searches for one path only.
    """
    hops = topo.hops
    terms = sorted(terminals)
    tree_nodes = {terms[0]}
    adj: dict[int, list[int]] = {terms[0]: []}
    missing = {t: hops[t][terms[0]] for t in terms[1:]}
    while missing:
        _, t = min((d, t) for t, d in missing.items())
        path = topo.shortest_path(t, tree_nodes)
        # Only the last node was in the tree, so every edge is new.
        for a, b in zip(path, path[1:]):
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        added = path[:-1]
        tree_nodes.update(added)
        for node in added:
            missing.pop(node, None)
        for other in missing:
            row = hops[other]
            missing[other] = min(missing[other], min(row[node] for node in added))
    return {node: sorted(nbrs) for node, nbrs in adj.items()}


def _collect_gates(
    adj: dict[int, list[int]], root: int, members: frozenset[int], banned: int
) -> list[tuple[int, int]]:
    """CX network, as (control, target) pairs, folding every member parity into ``root``.

    Member children contribute one CX toward the parent; conduit children
    are sandwiched (CX before and after their own collection) so their
    resident value cancels out of the accumulated parity.  The subtree
    excludes ``banned``'s side; its leaves are all terminals, so members.
    """
    gates: list[tuple[int, int]] = []

    def rec(node: int, parent: int):
        for child in adj[node]:
            if child == parent:
                continue
            if child in members:
                rec(child, node)
                gates.append((child, node))
            else:
                gates.append((child, node))
                rec(child, node)
                gates.append((child, node))

    rec(root, banned)
    return gates


def _plan_rotation(
    topo: Topology, support: frozenset[int]
) -> tuple[tuple[tuple[int, int], ...], tuple[int, int]]:
    """Collect the parity of a 2+ qubit support onto one Steiner-tree edge for an RZZ.

    Returns the parity-collection network as CX (control, target) pairs,
    mirrored after the rotation when emitted, and the RZZ's edge (u, v).
    For a tree of V nodes, c of them conduits (outside the support), every
    edge touching the support costs 2(V-2+c)+1 two-qubit gates and every
    single-qubit RZ root 2(V-1+c), so any such edge is cheapest; the
    largest (u, v), u < v, is taken.
    """
    adj = _steiner_tree(topo, support)
    u, v = max((a, b) for a in adj for b in adj[a] if a < b and (a in support or b in support))
    network: list[tuple[int, int]] = []
    if u not in support:
        network.append((u, v))
    elif v not in support:
        network.append((v, u))
    network += _collect_gates(adj, u, support, v)
    network += _collect_gates(adj, v, support, u)
    return tuple(network), (u, v)


def _shared_prefix(a: Sequence, b: Sequence) -> int:
    count = 0
    for x, y in zip(a, b):
        if x != y:
            break
        count += 1
    return count


def _order_plans(networks: list[tuple[tuple[int, int], ...]]) -> list[int]:
    """Order rotations to maximise shared network prefixes between neighbours.

    Up to ``ORDER_CAP`` networks, every permutation is scored.  Beyond it a
    chain grows greedily from network 0 at whichever end gains the longest
    shared prefix, the smaller index on ties and the tail when both ends
    tie.  The networks form a trie, each node listing (in index order) the
    networks that pass through it, so a chain end's best partner is the
    first unplaced network at the deepest node on the end's own path that
    still has one; a pointer per node skips placed networks.
    """
    m = len(networks)
    if m <= 1:
        return list(range(m))
    if m <= ORDER_CAP:
        overlap = [[_shared_prefix(a, b) for b in networks] for a in networks]
        best_order, best_score = None, -1
        for perm in itertools.permutations(range(m)):
            score = sum(overlap[a][b] for a, b in zip(perm, perm[1:]))
            if score > best_score:
                best_order, best_score = perm, score
        return list(best_order)

    parent, depth, children, members = [0], [0], [{}], [[]]
    ends = []  # the trie node at which each network ends
    for i, network in enumerate(networks):
        node = 0
        members[0].append(i)
        for gate in network:
            child = children[node].get(gate)
            if child is None:
                child = children[node][gate] = len(parent)
                parent.append(node)
                depth.append(depth[node] + 1)
                children.append({})
                members.append([])
            node = child
            members[node].append(i)
        ends.append(node)
    first = [0] * len(parent)  # members[node][first[node]] is its first unplaced network
    placed = [False] * m

    def best_partner(end: int) -> tuple[int, int]:
        """(shared prefix, index) of the unplaced network sharing most with ``end``."""
        node = ends[end]
        while True:
            listed, k = members[node], first[node]
            while k < len(listed) and placed[listed[k]]:
                k += 1
            first[node] = k
            if k < len(listed):
                return depth[node], listed[k]
            node = parent[node]  # the root lists every network, so this ends

    placed[0] = True
    chain = collections.deque([0])
    head = tail = best_partner(0)
    for _ in range(m - 1):
        # A best partner stays best until it is placed, since placing others
        # only removes candidates; once placed, it is the new end itself.
        if placed[head[1]]:
            head = best_partner(chain[0])
        if placed[tail[1]]:
            tail = best_partner(chain[-1])
        if (head[0], -head[1]) > (tail[0], -tail[1]):
            chain.appendleft(head[1])
            placed[head[1]] = True
        else:
            chain.append(tail[1])
            placed[tail[1]] = True
    return list(chain)


def _cancel_adjacent_cx(gates: list[tuple]) -> list[tuple]:
    """Remove CX pairs separated only by gates they commute with (to fixpoint).

    ``gates`` holds CX (control, target) pairs and RZZ (u, v, theta)
    triples.  Passes run from the front.  Each CX looks ahead for an equal
    CX past the gates it commutes with: CXs whose control is not its
    target and whose target is not its control, and RZZs off its target.
    The pair is deleted and the pass backs up one gate.  Passes repeat
    until one deletes nothing.  The list is linked through ``nxt``/``prv``
    with node n as the sentinel at both ends, so a deletion is O(1).
    """
    n = len(gates)
    first = [g[0] for g in gates]
    second = [g[1] for g in gates]
    is_cx = [len(g) == 2 for g in gates]
    index = list(range(n + 1))  # both links share these int objects
    nxt = index[1:] + index[:1]
    prv = index[n:] + index[:n]

    def unlink(k: int):
        nxt[prv[k]] = nxt[k]
        prv[nxt[k]] = prv[k]

    changed = True
    while changed:
        changed = False
        i = nxt[n]
        while i != n:
            if not is_cx[i]:
                i = nxt[i]
                continue
            control, target = first[i], second[i]
            j = nxt[i]
            while j != n:
                a, b = first[j], second[j]
                if is_cx[j]:
                    if a == control:
                        if b == target:
                            break  # the inverse: cancel
                    elif a == target or b == control:
                        j = n
                        break
                elif a == target or b == target:
                    j = n
                    break
                j = nxt[j]
            if j == n:
                i = nxt[i]
                continue
            unlink(j)
            unlink(i)
            i = prv[i] if prv[i] != n else nxt[n]
            changed = True
    out = []
    k = nxt[n]
    while k != n:
        out.append(gates[k])
        k = nxt[k]
    return out


def _compile_diagonal_run(gates: list[Gate], topo: Topology, layout: dict[int, int]) -> list[Gate]:
    out: list[Gate] = []  # one-qubit terms as bare RZs, then the networks
    networks: list[tuple[tuple[int, int], ...]] = []
    rotations: list[tuple[int, int, float]] = []
    for g in gates:
        phys = tuple(sorted(layout[q] for q in g.qubits))
        if len(phys) == 1:
            out.append(Gate("RZ", phys, g.theta))
        else:
            network, (u, v) = _plan_rotation(topo, frozenset(phys))
            networks.append(network)
            rotations.append((u, v, g.theta))
    emitted: list[tuple] = []
    for idx in _order_plans(networks):
        emitted += networks[idx]
        emitted.append(rotations[idx])
        emitted += reversed(networks[idx])
    cx: dict[tuple[int, int], Gate] = {}  # Gates are immutable: one per distinct CX
    for g in _cancel_adjacent_cx(emitted):
        if len(g) == 3:
            out.append(Gate("RZZ", g[:2], g[2]))
        else:
            if g not in cx:
                cx[g] = Gate("CX", g)
            out.append(cx[g])
    return out


def compile_parity(
    circ: CircuitIR,
    topo: Topology,
    layout: dict[int, int] | None = None,
) -> CompiledCircuit:
    """Parity-network compilation of a circuit of RY and diagonal gates.

    Maximal runs of diagonal gates are compiled together so CX networks
    cancel between rotations; each RY is placed on its mapped qubit.  No
    qubit ever moves, so ``final_layout`` is the initial layout.
    ``layout`` pins the placement, otherwise a search minimises the spread
    of rotation supports.  The result is always the parity plan;
    ``compile_naive`` is the separate baseline.
    """
    _check_input(circ, topo)
    if layout is None:
        layout = search_layout(circ, topo)
    elif set(layout) != set(range(circ.num_qubits)):
        raise DomainError("layout must place every logical qubit of the circuit")
    elif len(set(layout.values())) != len(layout):
        raise DomainError("layout maps two logical qubits to one physical qubit")
    elif any(not 0 <= p < topo.num_qubits for p in layout.values()):
        raise DomainError("layout targets a physical qubit outside the topology")
    out: list[Gate] = []
    for is_ry, gates in itertools.groupby(circ.gates, key=lambda g: g.name == "RY"):
        if is_ry:
            out.extend(Gate("RY", (layout[g.qubits[0]],), g.theta) for g in gates)
        else:
            out.extend(_compile_diagonal_run(list(gates), topo, layout))
    compiled = CompiledCircuit(
        CircuitIR(topo.num_qubits, out),
        initial_layout=dict(layout),
        final_layout=dict(layout),
        method="parity",
    )
    return _verified(circ, compiled)


# ---------------------------------------------------------------------------
# Layout search


def rotation_supports(circ: CircuitIR) -> list[frozenset[int]]:
    """Logical qubit sets of all multi-qubit Z rotations in a circuit."""
    return [
        frozenset(g.qubits)
        for g in circ.gates
        if g.name in ("RZZ", "MULTIRZ") and len(g.qubits) >= 2
    ]


def search_layout(circ: CircuitIR, topo: Topology) -> dict[int, int]:
    """Placement minimising pairwise distance inside rotation supports.

    The objective, the sum over supports of the distances between their
    placed qubits, is the quadratic-assignment cost
    sum_{a<b} w_ab * dist(p_a, p_b), where w_ab counts the supports that
    hold both a and b.  Tries every injective assignment when the candidate
    count is small, otherwise greedy placement by interaction affinity
    followed by pairwise-improvement passes; each trial move is scored by
    its O(n) change over the weights of the one or two moved qubits
    (Taillard 1991).  Deterministic throughout.
    """
    _check_fits(circ, topo)
    n_log, n_phys = circ.num_qubits, topo.num_qubits
    supports = rotation_supports(circ)
    if not supports:
        return {q: q for q in range(n_log)}
    dist = topo.hops
    affinity = [[0] * n_log for _ in range(n_log)]
    for sup in supports:
        for a in sup:
            for b in sup:
                if a != b:
                    affinity[a][b] += 1
    pairs = [
        (a, b, affinity[a][b])
        for a in range(n_log)
        for b in range(a + 1, n_log)
        if affinity[a][b]
    ]
    neighbours = [[(b, w) for b, w in enumerate(row) if w] for row in affinity]

    def objective(assign: Sequence[int] | dict[int, int]) -> int:
        return sum(w * dist[assign[a]][assign[b]] for a, b, w in pairs)

    count = 1
    for k in range(n_log):
        count *= n_phys - k
        if count > EXHAUSTIVE_LAYOUT_CAP:
            break
    if count <= EXHAUSTIVE_LAYOUT_CAP:
        # min keeps the first of equal scores, in permutation order.
        perm = min(itertools.permutations(range(n_phys), n_log), key=objective)
        return {q: perm[q] for q in range(n_log)}

    order = sorted(range(n_log), key=lambda q: (-sum(affinity[q]), q))
    eccentricity = [max(dist[p]) for p in range(n_phys)]
    centre = min(range(n_phys), key=lambda p: (eccentricity[p], p))
    assign: dict[int, int] = {order[0]: centre}
    used = {centre}
    for q in order[1:]:
        best_p, best_cost = None, None
        for p in range(n_phys):
            if p in used:
                continue
            cost = sum(w * dist[p][assign[b]] for b, w in neighbours[q] if b in assign)
            if best_cost is None or (cost, p) < (best_cost, best_p):
                best_p, best_cost = p, cost
        assign[q] = best_p
        used.add(best_p)

    best = min([assign, {q: q for q in range(n_log)}], key=objective)
    holder_of = {p: q for q, p in best.items()}
    for _ in range(3):  # pairwise improvement passes
        improved = False
        spots = sorted(set(best.values()) | set(range(min(n_phys, n_log + 4))))
        for qa in range(n_log):
            for spot in spots:
                holder = holder_of.get(spot)
                if holder == qa:
                    continue
                # qa moves old -> spot and holder spot -> old; their mutual
                # distance is unchanged.
                old = best[qa]
                delta = sum(
                    w * (dist[spot][best[c]] - dist[old][best[c]])
                    for c, w in neighbours[qa]
                    if c != holder
                )
                if holder is not None:
                    delta += sum(
                        w * (dist[old][best[c]] - dist[spot][best[c]])
                        for c, w in neighbours[holder]
                        if c != qa
                    )
                if delta < 0:
                    best[qa] = spot
                    holder_of[spot] = qa
                    if holder is None:
                        del holder_of[old]
                    else:
                        best[holder] = old
                        holder_of[old] = holder
                    improved = True
        if not improved:
            break
    return best
