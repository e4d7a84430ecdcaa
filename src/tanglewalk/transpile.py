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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuits import PLAIN_GATES, CircuitIR, Gate, _parity_replay, metrics
from .errors import DomainError, TanglewalkError
from .ising import IsingPolynomial
from .qaoa import QaoaSchedule, _checked_prior
from .topology import Topology

EXHAUSTIVE_LAYOUT_CAP = 5040  # candidate assignments tried exhaustively
ORDER_CAP = 8  # rotations ordered by exhaustive permutation search


@dataclass
class CompiledCircuit:
    """Topology-respecting circuit plus layout maps and size metrics."""

    circuit: CircuitIR
    initial_layout: dict[int, int]
    final_layout: dict[int, int]
    method: str
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.circuit.has_multirz:
            raise DomainError("compiled circuits may not contain MULTIRZ gates")
        if not self.metrics:
            self.metrics = metrics(self.circuit)


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
    phi = 2 * np.arcsin(np.sqrt(_checked_prior(h, prior)))
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


class _Placement:
    """Mutable logical <-> physical assignment."""

    def __init__(self, layout: dict[int, int]):
        self.l2p = dict(layout)
        self.p2l: dict[int, int] = {p: l for l, p in self.l2p.items()}

    def swap_physical(self, a: int, b: int):
        la, lb = self.p2l.pop(a, None), self.p2l.pop(b, None)
        if la is not None:
            self.l2p[la] = b
            self.p2l[b] = la
        if lb is not None:
            self.l2p[lb] = a
            self.p2l[a] = lb


def _route_adjacent(topo: Topology, place: _Placement, moving: int, target: int, out: list[Gate]):
    """SWAP the qubit holding ``moving`` along a shortest path until coupled."""
    while not topo.coupled(place.l2p[moving], place.l2p[target]):
        path = topo.shortest_path(place.l2p[moving], {place.l2p[target]})
        out.append(Gate("SWAP", (path[0], path[1])))
        place.swap_physical(path[0], path[1])


def compile_naive(
    circ: CircuitIR, topo: Topology, layout_seed: int | None = None
) -> CompiledCircuit:
    """Baseline: CX ladders for every rotation, shortest-path SWAP routing."""
    _check_input(circ, topo)
    initial_layout = _initial_layout(circ, topo, layout_seed)
    place = _Placement(initial_layout)
    out: list[Gate] = []
    for g in circ.gates:
        if g.name in ("RY", "RZ"):
            out.append(Gate(g.name, (place.l2p[g.qubits[0]],), g.theta))
        elif len(g.qubits) == 2:  # RZZ, or a two-qubit MULTIRZ
            a, b = g.qubits
            _route_adjacent(topo, place, a, b, out)
            out.append(Gate("RZZ", (place.l2p[a], place.l2p[b]), g.theta))
        else:
            # CX ladder over logical pairs (none for a one-qubit MULTIRZ);
            # each leg is routed at its current positions, so the mirror
            # stays correct even when routing for a later leg has moved
            # qubits in between.
            order = sorted(g.qubits, key=lambda q: place.l2p[q])
            ladder = list(zip(order, order[1:]))
            for prev, cur in ladder:
                _route_adjacent(topo, place, prev, cur, out)
                out.append(Gate("CX", (place.l2p[prev], place.l2p[cur])))
            out.append(Gate("RZ", (place.l2p[order[-1]],), g.theta))
            for prev, cur in reversed(ladder):
                _route_adjacent(topo, place, prev, cur, out)
                out.append(Gate("CX", (place.l2p[prev], place.l2p[cur])))
    return CompiledCircuit(
        CircuitIR(topo.num_qubits, out),
        initial_layout=initial_layout,
        final_layout=dict(place.l2p),
        method="naive",
    )


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


def _initial_layout(circ: CircuitIR, topo: Topology, seed: int | None) -> dict[int, int]:
    if seed is None:
        return {q: q for q in range(circ.num_qubits)}
    rng = np.random.default_rng(seed)
    order = rng.permutation(topo.num_qubits)[: circ.num_qubits]
    return {q: int(order[q]) for q in range(circ.num_qubits)}


# ---------------------------------------------------------------------------
# Parity-network compilation


def _steiner_tree(topo: Topology, terminals: frozenset[int]) -> dict[int, list[int]]:
    """Deterministic approximate Steiner tree as an adjacency dict."""
    terms = sorted(terminals)
    tree_nodes = {terms[0]}
    adj: dict[int, list[int]] = {terms[0]: []}
    for _ in terms[1:]:
        missing = [t for t in terms if t not in tree_nodes]
        if not missing:
            break
        best_path = None
        for t in missing:
            path = topo.shortest_path(t, tree_nodes)
            if best_path is None or (len(path), path) < (len(best_path), best_path):
                best_path = path
        for a, b in zip(best_path, best_path[1:]):
            adj.setdefault(a, [])
            adj.setdefault(b, [])
            if b not in adj[a]:
                adj[a].append(b)
                adj[b].append(a)
            tree_nodes.add(a)
            tree_nodes.add(b)
    return {node: sorted(nbrs) for node, nbrs in adj.items()}


def _collect_gates(
    adj: dict[int, list[int]], root: int, members: frozenset[int], banned: int
) -> list[Gate]:
    """CX network folding every member parity of the subtree into ``root``.

    Member children contribute one CX toward the parent; conduit children
    are sandwiched (CX before and after their own collection) so their
    resident value cancels out of the accumulated parity.  The subtree
    excludes ``banned``'s side; its leaves are all terminals, so members.
    """
    gates: list[Gate] = []

    def rec(node: int, parent: int):
        for child in adj[node]:
            if child == parent:
                continue
            if child in members:
                rec(child, node)
                gates.append(Gate("CX", (child, node)))
            else:
                gates.append(Gate("CX", (child, node)))
                rec(child, node)
                gates.append(Gate("CX", (child, node)))

    rec(root, banned)
    return gates


@dataclass(frozen=True)
class _RotationPlan:
    network: tuple[Gate, ...]  # parity-collection CXs (mirrored after the rotation)
    rotation: Gate

    def emit(self) -> list[Gate]:
        return list(self.network) + [self.rotation] + list(reversed(self.network))


def _plan_rotation(topo: Topology, support: frozenset[int], theta: float) -> _RotationPlan:
    """Collect the parity of a 2+ qubit support onto one Steiner-tree edge for an RZZ.

    For a tree of V nodes, c of them conduits (outside the support), every
    edge touching the support costs 2(V-2+c)+1 two-qubit gates and every
    single-qubit RZ root 2(V-1+c), so any such edge is cheapest; the
    largest (u, v), u < v, is taken.
    """
    adj = _steiner_tree(topo, support)
    u, v = max((a, b) for a in adj for b in adj[a] if a < b and (a in support or b in support))
    network: list[Gate] = []
    if u not in support:
        network.append(Gate("CX", (u, v)))
    elif v not in support:
        network.append(Gate("CX", (v, u)))
    network += _collect_gates(adj, u, support, v)
    network += _collect_gates(adj, v, support, u)
    return _RotationPlan(tuple(network), Gate("RZZ", (u, v), theta))


def _order_plans(plans: list[_RotationPlan]) -> list[int]:
    """Order rotations to maximise shared network prefixes between neighbours.

    Each network is a row of gate ids (padded, with a validity mask), and a
    plan's prefix overlaps with all plans are computed only when it becomes
    a chain end, so memory is O(m*L) for m networks of at most L gates.
    """
    m = len(plans)
    if m <= 1:
        return list(range(m))
    gate_ids: dict[Gate, int] = {}
    # At least one column, so that column 0 exists when every network is empty.
    ids = np.full((m, max(len(p.network) for p in plans) or 1), -1)
    valid = np.zeros(ids.shape, dtype=bool)
    for i, plan in enumerate(plans):
        k = len(plan.network)
        ids[i, :k] = [gate_ids.setdefault(g, len(gate_ids)) for g in plan.network]
        valid[i, :k] = True

    def overlap_row(i: int) -> np.ndarray:
        row = np.zeros(m, dtype=int)
        # Only networks opening with plan i's first gate can overlap it.
        same = np.flatnonzero(valid[:, 0] & (ids[:, 0] == ids[i, 0]))
        row[same] = np.cumprod((ids[same] == ids[i]) & valid[same], axis=1).sum(axis=1)
        return row

    if m <= ORDER_CAP:
        overlap = [overlap_row(i).tolist() for i in range(m)]
        best_order, best_score = None, -1
        for perm in itertools.permutations(range(m)):
            score = sum(overlap[a][b] for a, b in zip(perm, perm[1:]))
            if score > best_score:
                best_order, best_score = perm, score
        return list(best_order)
    # Greedy chain growth: extend whichever end gains the most overlap.
    # argmax picks the first maximum, i.e. the smallest index among ties.
    remaining = np.ones(m, dtype=bool)
    remaining[0] = False
    chain = [0]
    head_row = tail_row = overlap_row(0)
    for _ in range(m - 1):
        h = int(np.argmax(np.where(remaining, head_row, -1)))
        t = int(np.argmax(np.where(remaining, tail_row, -1)))
        if (head_row[h], -h) > (tail_row[t], -t):
            chain.insert(0, h)
            remaining[h] = False
            head_row = overlap_row(h)
        else:
            chain.append(t)
            remaining[t] = False
            tail_row = overlap_row(t)
    return chain


def _commutes_with_cx(gate: Gate, control: int, target: int) -> bool:
    touched = set(gate.qubits)
    if not touched & {control, target}:
        return True
    if gate.name in ("RZ", "RZZ", "MULTIRZ") and target not in touched:
        return True  # diagonal gates commute through the control
    if gate.name == "CX":
        c2, t2 = gate.qubits
        return t2 != control and c2 != target
    return False


def _cancel_adjacent_cx(gates: list[Gate]) -> list[Gate]:
    """Remove CX pairs separated only by gates they commute with (to fixpoint)."""
    out = list(gates)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(out):
            g = out[i]
            if g.name != "CX":
                i += 1
                continue
            control, target = g.qubits
            cancelled = False
            for j in range(i + 1, len(out)):
                other = out[j]
                if other == g:
                    del out[j]
                    del out[i]
                    i = max(i - 1, 0)
                    cancelled = True
                    changed = True
                    break
                if not _commutes_with_cx(other, control, target):
                    break
            if not cancelled:
                i += 1
    return out


def _verify_diagonal_run(gates: list[Gate], expected: list[tuple[int, float]], n: int):
    """Exact self-check of a compiled diagonal run via GF(2) parity replay.

    Each emitted rotation must fire on exactly the parity of the cost term
    it implements, and the CX network must restore the identity so the run
    stays diagonal.  Raises rather than silently emitting a wrong circuit.
    """
    identity = [1 << q for q in range(n)]
    forms = list(identity)
    realized = _parity_replay(gates, forms)
    if forms != identity:
        raise TanglewalkError("internal: parity network does not restore the identity")
    if sorted(realized) != sorted(expected):
        raise TanglewalkError("internal: compiled rotations do not match the cost terms")


def _compile_diagonal_run(gates: list[Gate], topo: Topology, layout: dict[int, int]) -> list[Gate]:
    singles: list[Gate] = []
    plans: list[_RotationPlan] = []
    expected: list[tuple[int, float]] = []
    for g in gates:
        phys = tuple(sorted(layout[q] for q in g.qubits))
        expected.append((sum(1 << q for q in phys), g.theta))
        if len(phys) == 1:
            singles.append(Gate("RZ", phys, g.theta))
        else:
            plans.append(_plan_rotation(topo, frozenset(phys), g.theta))
    emitted: list[Gate] = []
    for idx in _order_plans(plans):
        emitted.extend(plans[idx].emit())
    out = singles + _cancel_adjacent_cx(emitted)
    _verify_diagonal_run(out, expected, topo.num_qubits)
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
    return CompiledCircuit(
        CircuitIR(topo.num_qubits, out),
        initial_layout=dict(layout),
        final_layout=dict(layout),
        method="parity",
    )


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
    dist = [topo.distances_from(p) for p in range(n_phys)]
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
    eccentricity = [max(dist[p].values()) for p in range(n_phys)]
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
