"""Independent oracles used by the tests.

Nothing here may call back into the production code paths it checks:
polynomial scans walk all assignments directly, and the circuit oracles
multiply explicitly built dense matrices (scipy expm for the mixer).
Two oracles check ``verify_equivalence``'s contract by pushing every
embedded logical basis state through both circuits:
``basis_phase_equivalent`` as concrete wire bits plus a phase, for
CX/SWAP/diagonal circuits, and ``dense_equivalent`` as amplitudes, one
k-qubit gate matrix at a time, for circuits with RY;
``popcount_phase_error`` evaluates one segment's residues per mask, state
by state over their support, for ``_is_global_phase``.  The compiler oracles
at the end are the original full-rescan layout search, greedy plan
ordering, candidate-ranking parity planner and list-rescanning CX
canceller, kept as the reference the fast paths must match, and
``old_metrics``, the gate census as it was; they share
only the ``Gate`` record with the package and build their plans as
``RotationPlan``s, which the tests compare with the compiler's
(control, target) and (u, v, theta) tuples.  The simulator oracle at the very end is
``simulate`` as it was before its in-place mixer, kept as the reference
the in-place kernels must match bit for bit, with the product state as a
chain of ``np.kron`` (``kron_product_state``) and ``old_mix_layer``, the
mixer layer as one pass over the whole state per qubit, before cache
blocking.  ``half_split_table_phase`` and ``half_split_simulate`` are the
phase and ``simulate`` as they were before their buffers shrank to chunk
size: the phase gathered in two halves of the state, the squares taken
beside it.  ``p_opt`` sums the optimal
mass of a distribution in the order ``sweep`` must reproduce, and
``run_record_to_dict`` is ``RunRecord.to_dict`` as it was written out
field by field, the reference for the JSON of ``dataclasses.asdict``.
``OldIsingPolynomial`` and ``old_to_ising`` are the Ising term store and
substitution as they were before both polynomial types shared one term
store, the reference ``to_ising`` must match in key order and bits.
``old_walsh_hadamard`` is the transform as one in-place stride loop,
before its low bits took constant-geometry passes.
"""

from __future__ import annotations

import cmath
import collections
import itertools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from tanglewalk.circuits import Gate
from tanglewalk.errors import DomainError, SizeCapError
from tanglewalk.ising import diagonal
from tanglewalk.qaoa import _mixer_matrix

try:
    from scipy.linalg import expm
except ImportError:  # pragma: no cover
    expm = None


def all_assignments(num_vars: int) -> np.ndarray:
    """(2^n, n) matrix of bit rows, LSB-first columns."""
    idx = np.arange(1 << num_vars)
    return ((idx[:, None] >> np.arange(num_vars)) & 1).astype(np.int8)


def brute_force_energies(poly) -> np.ndarray:
    """Evaluate a BinaryPolynomial on every assignment, index-aligned."""
    bits = all_assignments(poly.num_vars)
    values = np.zeros(1 << poly.num_vars)
    for mono, coeff in poly.terms.items():
        if mono:
            values += coeff * bits[:, list(mono)].prod(axis=1)
        else:
            values += coeff
    return values


def evaluate(poly, x):
    """p(x) of a BinaryPolynomial, summing ``poly.terms`` in dict order."""
    total = 0
    for mono, coeff in poly.terms.items():
        if all(x[v] for v in mono):
            total += coeff
    return total


def ising_terms(pairs) -> dict:
    """Z terms of summed (qubits, coeff) pairs, keyed by sorted qubits, zero sums dropped."""
    terms = {}
    for qubits, coeff in pairs:
        key = tuple(sorted(qubits))
        terms[key] = terms.get(key, 0) + coeff
    return {key: coeff for key, coeff in terms.items() if coeff}


def ising_energy(h, x) -> float:
    """Energy of a computational-basis state given as a bit vector, term by term."""
    if len(x) != h.num_qubits:
        raise DomainError(f"expected {h.num_qubits} bits, got {len(x)}")
    total = h.constant
    for qubits, coeff in h.terms.items():
        z = 1
        for q in qubits:
            z *= 1 - 2 * x[q]
        total += coeff * z
    return total


def qubo_terms_direct(g, layout, lam1, lam2, x) -> float:
    """Unexpanded evaluation of the three QUBO contributions for one assignment."""
    one_hot = 0.0
    for t in range(1, layout.T + 1):
        s = sum(x[layout.var(t, a)] for a in range(2 * layout.N))
        one_hot += (s - 1) ** 2
    edge = 0.0
    for t in range(1, layout.T):
        hits = sum(x[layout.var(t, a)] * x[layout.var(t + 1, b)] for a, b in g.edges)
        edge += 1 - hits
    freq = 0.0
    for v in range(layout.N):
        visits = sum(
            x[layout.var(t, 2 * v + o)] for t in range(1, layout.T + 1) for o in (0, 1)
        )
        freq += (visits - g.weights[v]) ** 2
    return lam1 * one_hot + lam2 * edge + freq


# ---------------------------------------------------------------------------
# Dense-matrix circuit oracle (explicit kron products, expm mixers)

I2 = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def kron_chain(factors) -> np.ndarray:
    """Tensor product with qubit 0 as the least-significant index bit."""
    out = np.eye(1)
    for f in factors:  # qubit q ends up q positions from the bottom
        out = np.kron(f, out)
    return out


def dense_cost_matrix(h) -> np.ndarray:
    """H as an explicit dense diagonal matrix built from kron'd Z factors."""
    n = h.num_qubits
    mat = h.constant * np.eye(1 << n)
    for qubits, coeff in h.terms.items():
        factors = [PAULI_Z if q in qubits else I2 for q in range(n)]
        mat = mat + coeff * kron_chain(factors)
    return mat


def parity_energies(h) -> np.ndarray:
    """Basis energies term by term: one popcount parity pass per Z term."""
    bits = all_assignments(h.num_qubits)
    energies = np.full(1 << h.num_qubits, float(h.constant))
    for qubits, coeff in h.terms.items():
        parity = bits[:, list(qubits)].sum(axis=1) & 1
        energies += coeff * (1 - 2 * parity)
    return energies


def dense_gate_matrix(gate, n) -> np.ndarray:
    """Explicit 2^n x 2^n unitary of one gate (RZ/RZZ/MULTIRZ/RY/CX/SWAP)."""
    if gate.name in ("RZ", "RZZ", "MULTIRZ"):
        z = kron_chain([PAULI_Z if q in gate.qubits else I2 for q in range(n)])
        return np.diag(np.exp(-0.5j * gate.theta * np.diag(z)))
    if gate.name == "RY":
        c, s = np.cos(gate.theta / 2), np.sin(gate.theta / 2)
        ry = np.array([[c, -s], [s, c]])
        return kron_chain([ry if q == gate.qubits[0] else I2 for q in range(n)])
    mat = np.zeros((1 << n, 1 << n))
    for src in range(1 << n):
        bits = [(src >> q) & 1 for q in range(n)]
        a, b = gate.qubits
        if gate.name == "CX":
            bits[b] ^= bits[a]
        else:  # SWAP
            bits[a], bits[b] = bits[b], bits[a]
        mat[sum(bit << q for q, bit in enumerate(bits)), src] = 1.0
    return mat


def dense_circuit_unitary(circ) -> np.ndarray:
    """Product of the per-gate dense matrices, first gate applied first."""
    unitary = np.eye(1 << circ.num_qubits, dtype=complex)
    for gate in circ.gates:
        unitary = dense_gate_matrix(gate, circ.num_qubits) @ unitary
    return unitary


# ---------------------------------------------------------------------------
# Circuit-equivalence oracles.  Each reads two CircuitIR or CompiledCircuit
# objects by attribute only and pushes every logical basis state, embedded
# under the initial layout, through both circuits.  verify_equivalence's
# contract: the outputs at the final layouts agree up to one global phase,
# and every other wire ends at |0>.

_LocalGate = collections.namedtuple("_LocalGate", "name qubits theta")


def _physical(obj):
    """(gates, wire count, initial layout, final layout) of either circuit kind."""
    circ = getattr(obj, "circuit", obj)
    identity = {q: q for q in range(circ.num_qubits)}
    return (
        circ.gates,
        circ.num_qubits,
        getattr(obj, "initial_layout", identity),
        getattr(obj, "final_layout", identity),
    )


def basis_phase_equivalent(a, b, tol: float = 1e-8) -> bool:
    """The contract for CX/SWAP/diagonal circuits, on concrete bits.

    Each basis state x is a column of wire bits plus a phase phi(x) (the
    amplitude is e^{-i phi}): CX and SWAP move bits, and a diagonal gate
    adds theta/2 times +1 or -1 by the parity of its wires' bits.
    """
    results = []
    for obj in (a, b):
        gates, width, start, end = _physical(obj)
        n = len(start)
        xs = np.arange(1 << n)
        wires = np.zeros((width, 1 << n), dtype=np.int64)
        for logical, physical in start.items():
            wires[physical] = (xs >> logical) & 1
        phase = np.zeros(1 << n)
        for g in gates:
            if g.name == "CX":
                control, target = g.qubits
                wires[target] ^= wires[control]
            elif g.name == "SWAP":
                p, q = g.qubits
                wires[[p, q]] = wires[[q, p]]
            elif g.name in ("RZ", "RZZ", "MULTIRZ"):
                parity = np.bitwise_xor.reduce(wires[list(g.qubits)], axis=0)
                phase += g.theta / 2 * (1 - 2 * parity)
            else:
                raise ValueError(f"{g.name} is not a CX, SWAP or diagonal gate")
        if np.any(np.delete(wires, list(end.values()), axis=0)):
            return False
        index = np.zeros(1 << n, dtype=np.int64)
        for logical in range(n):
            index |= wires[end[logical]] << logical
        results.append((index, phase))
    (index_a, phase_a), (index_b, phase_b) = results
    if not np.array_equal(index_a, index_b):
        return False
    delta = phase_a - phase_b
    return bool(np.max(np.abs(1 - np.exp(-1j * (delta - delta[0])))) <= tol)


def popcount_phase_error(residues: dict[int, float]) -> float:
    """max over x of |1 - e^{-i (delta(x) - delta(0))}|, delta(x) = sum r_S (-1)^popcount(S & x).

    ``residues`` maps qubit masks S to angles r_S.  x runs over every
    assignment of the bits set in some mask; no other bit changes delta.
    """
    support = sorted({q for mask in residues for q in range(mask.bit_length()) if mask >> q & 1})
    worst = 0.0
    for y in range(1 << len(support)):
        x = sum(1 << q for i, q in enumerate(support) if y >> i & 1)
        delta = 0.0
        for mask, r in residues.items():
            delta += -r if bin(mask & x).count("1") % 2 else r
        worst = max(worst, abs(1 - cmath.exp(-1j * (delta - sum(residues.values())))))
    return worst


def dense_equivalent(a, b, tol: float = 1e-8) -> bool:
    """The contract for any gate set, on dense amplitudes.

    The basis states form a (2^n_logical, 2, ..., 2) tensor, axis 1 + j
    holding wire width - 1 - j.  Each gate's own k-qubit
    ``dense_gate_matrix`` is contracted with its k wire axes.
    """
    results = []
    for obj in (a, b):
        gates, width, start, end = _physical(obj)
        n = len(start)
        states = np.zeros((1 << n, 1 << width), dtype=complex)
        for x in range(1 << n):
            states[x, sum(((x >> l) & 1) << p for l, p in start.items())] = 1.0
        states = states.reshape((1 << n,) + (2,) * width)
        for g in gates:
            k = len(g.qubits)
            local = _LocalGate(g.name, tuple(range(k)), g.theta)
            matrix = dense_gate_matrix(local, k).reshape((2,) * (2 * k))
            axes = [width - q for q in reversed(g.qubits)]
            states = np.moveaxis(
                np.tensordot(matrix, states, axes=(list(range(k, 2 * k)), axes)),
                list(range(k)),
                axes,
            )
        flat = states.reshape(1 << n, 1 << width)
        idx = np.arange(1 << width)
        keep = (idx & ~sum(1 << p for p in end.values())) == 0
        if np.max(np.abs(flat[:, ~keep]), initial=0.0) > tol:
            return False
        logical = np.zeros(int(keep.sum()), dtype=np.int64)
        for l in range(n):
            logical |= ((idx[keep] >> end[l]) & 1) << l
        projected = np.zeros((1 << n, 1 << n), dtype=complex)
        projected[:, logical] = flat[:, keep]
        results.append(projected)
    proj_a, proj_b = results
    if proj_a.shape != proj_b.shape:
        return False
    anchor = np.unravel_index(np.argmax(np.abs(proj_a)), proj_a.shape)
    if abs(proj_b[anchor]) <= tol:
        return False
    phase = proj_a[anchor] / proj_b[anchor]
    return bool(abs(abs(phase) - 1) <= tol and np.max(np.abs(proj_a - phase * proj_b)) <= tol)


def dense_qaoa_distribution(h, prior, betas, gammas) -> np.ndarray:
    """Output distribution via explicit dense gate-matrix products."""
    n = h.num_qubits
    prior = np.asarray(prior, dtype=float)
    state = kron_chain(
        [np.array([[np.sqrt(1 - p)], [np.sqrt(p)]]) for p in prior]
    ).ravel().astype(complex)
    cost_diag = np.diag(dense_cost_matrix(h)).copy()
    phis = 2 * np.arcsin(np.sqrt(prior))
    for beta, gamma in zip(betas, gammas):
        state = np.exp(-1j * gamma * cost_diag) * state
        locals_2x2 = [
            expm(-1j * beta * (-np.sin(phi) * PAULI_X - np.cos(phi) * PAULI_Z))
            for phi in phis
        ]
        state = kron_chain(locals_2x2) @ state
    return np.abs(state) ** 2


def p_opt(probs: np.ndarray, optimal_indices) -> float:
    """Probability mass the distribution assigns to the optimal set."""
    probs = np.asarray(probs, dtype=float)
    return float(sum(probs[int(i)] for i in set(optimal_indices)))


def parse_wcnf(text: str):
    """(num_vars, hard clauses, [(weight, clause)]) from classic or 2022 style."""
    hard, soft = [], []
    num_vars = 0
    top = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p wcnf"):
            parts = line.split()
            num_vars, top = int(parts[2]), int(parts[4])
            continue
        parts = line.split()
        if parts[0] == "h":
            clause = [int(x) for x in parts[1:-1]]
            hard.append(clause)
        else:
            weight = int(parts[0])
            clause = [int(x) for x in parts[1:-1]]
            if top is not None and weight == top:
                hard.append(clause)
            else:
                soft.append((weight, clause))
        for lit in clause:
            num_vars = max(num_vars, abs(lit))
    return num_vars, hard, soft


def eval_clause(clause, assignment) -> bool:
    return any(
        (lit > 0) == bool(assignment.get(abs(lit), False)) for lit in clause
    )


# ---------------------------------------------------------------------------
# Compiler oracles: layout search that recomputes the objective for every
# trial, and plan ordering over a full m x m prefix-overlap matrix.

EXHAUSTIVE_LAYOUT_CAP = 5040


def rotation_supports(circ: CircuitIR) -> list[frozenset[int]]:
    """Logical qubit sets of all multi-qubit Z rotations in a circuit."""
    return [
        frozenset(g.qubits)
        for g in circ.gates
        if g.name in ("RZZ", "MULTIRZ") and len(g.qubits) >= 2
    ]


def full_rescan_search_layout(circ: CircuitIR, topo: Topology) -> dict[int, int]:
    """Placement minimising pairwise distance inside rotation supports.

    Tries every injective assignment when the candidate count is small,
    otherwise greedy placement by interaction affinity followed by
    pairwise-improvement passes.  Deterministic throughout.
    """
    n_log, n_phys = circ.num_qubits, topo.num_qubits
    supports = rotation_supports(circ)
    if not supports:
        return {q: q for q in range(n_log)}
    dist = [topo.distances_from(p) for p in range(n_phys)]

    def objective(assign: dict[int, int]) -> int:
        total = 0
        for sup in supports:
            qs = [assign[q] for q in sup]
            for i, a in enumerate(qs):
                for b in qs[i + 1 :]:
                    total += dist[a][b]
        return total

    count = 1
    for k in range(n_log):
        count *= n_phys - k
        if count > EXHAUSTIVE_LAYOUT_CAP:
            break
    if count <= EXHAUSTIVE_LAYOUT_CAP:
        best, best_score = None, None
        for perm in itertools.permutations(range(n_phys), n_log):
            assign = {q: perm[q] for q in range(n_log)}
            score = objective(assign)
            if best_score is None or score < best_score:
                best, best_score = assign, score
        return best

    affinity = [[0] * n_log for _ in range(n_log)]
    for sup in supports:
        for a in sup:
            for b in sup:
                if a != b:
                    affinity[a][b] += 1
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
            cost = sum(affinity[q][other] * dist[p][assign[other]] for other in assign)
            if best_cost is None or (cost, p) < (best_cost, best_p):
                best_p, best_cost = p, cost
        assign[q] = best_p
        used.add(best_p)

    candidates = [assign, {q: q for q in range(n_log)}]
    best = min(candidates, key=objective)
    best_score = objective(best)
    for _ in range(3):  # pairwise improvement passes
        improved = False
        spots = sorted(set(best.values()) | set(range(min(n_phys, n_log + 4))))
        for qa in range(n_log):
            for spot in spots:
                trial = dict(best)
                holder = next((q for q, p in trial.items() if p == spot), None)
                if holder == qa:
                    continue
                trial[qa], old = spot, trial[qa]
                if holder is not None:
                    trial[holder] = old
                score = objective(trial)
                if score < best_score:
                    best, best_score = trial, score
                    improved = True
        if not improved:
            break
    return best


@dataclass(frozen=True)
class RotationPlan:
    network: tuple[Gate, ...]  # parity-collection CXs (mirrored after the rotation)
    rotation: Gate


def prefix_overlap(a: RotationPlan, b: RotationPlan) -> int:
    count = 0
    for ga, gb in zip(a.network, b.network):
        if ga == gb:
            count += 1
        else:
            break
    return count


def greedy_order_plans(plans: list[RotationPlan], order_cap: int) -> list[int]:
    """Order rotations to maximise shared network prefixes between neighbours."""
    m = len(plans)
    if m <= 1:
        return list(range(m))
    overlap = [[prefix_overlap(plans[i], plans[j]) for j in range(m)] for i in range(m)]
    if m <= order_cap:
        best_order, best_score = None, -1
        for perm in itertools.permutations(range(m)):
            score = sum(overlap[a][b] for a, b in zip(perm, perm[1:]))
            if score > best_score:
                best_order, best_score = perm, score
        return list(best_order)
    # Greedy chain growth: extend whichever end gains the most overlap.
    remaining = set(range(m))
    chain = [0]
    remaining.discard(0)
    while remaining:
        head, tail = chain[0], chain[-1]
        best = max(
            ((overlap[tail][c], -c, c, "tail") for c in remaining),
            key=lambda item: item[:2],
        )
        best_head = max(
            ((overlap[head][c], -c, c, "head") for c in remaining),
            key=lambda item: item[:2],
        )
        if best_head[:2] > best[:2]:
            best = best_head
        _, _, chosen, side = best
        if side == "tail":
            chain.append(chosen)
        else:
            chain.insert(0, chosen)
        remaining.discard(chosen)
    return chain


# ---------------------------------------------------------------------------
# Planner oracle: the parity planner as it was before it built only the
# winning plan.  It builds a full CX network for every Steiner-tree edge
# touching the support and for every support qubit as an RZ root, ranks them
# by two-qubit cost, and keeps the first.  The copies use only ``Gate``,
# ``RotationPlan`` and ``Topology.neighbors``; the plan cost is computed
# here, and a disconnected topology raises ``ValueError``.


def _old_two_qubit_cost(plan) -> int:
    return 2 * len(plan.network) + (1 if plan.rotation.name == "RZZ" else 0)


def old_steiner_tree(topo: Topology, terminals: frozenset[int]) -> dict[int, list[int]]:
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
            path = old_path_to_set(topo, t, tree_nodes)
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


def old_path_to_set(topo: Topology, start: int, targets: set[int]) -> list[int]:
    """Shortest path from ``start`` to any node of ``targets`` (BFS, sorted ties)."""
    if start in targets:
        return [start]
    parent = {start: start}
    frontier = collections.deque([start])
    while frontier:
        cur = frontier.popleft()
        for nb in topo.neighbors(cur):
            if nb in parent:
                continue
            parent[nb] = cur
            if nb in targets:
                path = [nb]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return path[::-1]
            frontier.append(nb)
    raise ValueError("topology is disconnected")


def old_collect_gates(
    adj: dict[int, list[int]], root: int, members: frozenset[int], banned: int | None = None
) -> list:
    """CX network folding every member parity of the subtree into ``root``.

    Member children contribute one CX toward the parent; conduit children
    are sandwiched (CX before and after their own collection) so their
    resident value cancels out of the accumulated parity.
    """

    def subtree_has_member(node: int, parent: int | None) -> bool:
        if node in members:
            return True
        return any(
            subtree_has_member(c, node)
            for c in adj[node]
            if c != parent and c != banned
        )

    gates: list = []

    def rec(node: int, parent: int | None):
        for child in adj[node]:
            if child == parent or child == banned:
                continue
            if not subtree_has_member(child, node):
                continue
            if child in members:
                rec(child, node)
                gates.append(Gate("CX", (child, node)))
            else:
                gates.append(Gate("CX", (child, node)))
                rec(child, node)
                gates.append(Gate("CX", (child, node)))

    rec(root, None)
    return gates


def old_plan_rotation(topo: Topology, support: frozenset[int], theta: float) -> RotationPlan:
    """Pick the cheapest parity-collection plan for one Z rotation."""
    if len(support) == 1:
        (q,) = support
        return RotationPlan((), Gate("RZ", (q,), theta))
    adj = old_steiner_tree(topo, support)
    candidates: list = []

    for u in sorted(adj):
        for v in adj[u]:
            if u > v:
                continue
            members_here = (u in support) + (v in support)
            if members_here == 0:
                continue
            network: list = []
            if members_here == 1:
                conduit, member = (u, v) if v in support else (v, u)
                network.append(Gate("CX", (conduit, member)))
            network += old_collect_gates(adj, u, support, banned=v)
            network += old_collect_gates(adj, v, support, banned=u)
            plan = RotationPlan(tuple(network), Gate("RZZ", (u, v), theta))
            rank = (_old_two_qubit_cost(plan), 0, (-u, -v))
            candidates.append((rank, plan))

    for root in sorted(support):
        network = old_collect_gates(adj, root, support)
        plan = RotationPlan(tuple(network), Gate("RZ", (root,), theta))
        rank = (_old_two_qubit_cost(plan), 1, (-root,))
        candidates.append((rank, plan))

    candidates.sort(key=lambda item: item[0])
    return candidates[0][1]


# ---------------------------------------------------------------------------
# Canceller oracle: ``_cancel_adjacent_cx`` as it was on ``Gate`` lists,
# deleting from a Python list and rescanning it to the fixpoint.


def old_commutes_with_cx(gate: Gate, control: int, target: int) -> bool:
    touched = set(gate.qubits)
    if not touched & {control, target}:
        return True
    if gate.name in ("RZ", "RZZ", "MULTIRZ") and target not in touched:
        return True  # diagonal gates commute through the control
    if gate.name == "CX":
        c2, t2 = gate.qubits
        return t2 != control and c2 != target
    return False


def old_cancel_adjacent_cx(gates: list[Gate]) -> list[Gate]:
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
                if not old_commutes_with_cx(other, control, target):
                    break
            if not cancelled:
                i += 1
    return out


# ---------------------------------------------------------------------------
# Gate census oracle: ``circuits.metrics`` as it was.


def old_metrics(circ) -> dict:
    """``circuits.metrics`` as it was, with the former ``Gate.is_two_qubit`` test inlined."""
    count = 0
    frontier: dict[int, int] = {}
    depth = 0
    total = 0
    for g in circ.gates:
        total += 1
        if g.name not in ("CX", "RZZ", "SWAP"):
            continue
        weight = 3 if g.name == "SWAP" else 1
        count += weight
        start = max(frontier.get(q, 0) for q in g.qubits)
        end = start + weight
        for q in g.qubits:
            frontier[q] = end
        depth = max(depth, end)
    return {"two_qubit_count": count, "two_qubit_depth": depth, "total_ops": total}


# ---------------------------------------------------------------------------
# Simulator oracle: ``simulate`` as it was before the in-place mixer, the
# halved phase and the light cone.  Each mixer pass copies the low half and
# builds fresh arrays; the phase is one full-length exponential.  The copies
# share only the mixer's 2x2 matrix and the cost diagonal with the package.


def old_apply_single_qubit(state: np.ndarray, gate: np.ndarray, qubit: int, n: int):
    view = state.reshape(1 << (n - qubit - 1), 2, 1 << qubit)
    lo = view[:, 0, :].copy()
    hi = view[:, 1, :]
    view[:, 0, :] = gate[0, 0] * lo + gate[0, 1] * hi
    view[:, 1, :] = gate[1, 0] * lo + gate[1, 1] * hi


def kron_product_state(phi) -> np.ndarray:
    """The product of cos(phi_q/2)|0> + sin(phi_q/2)|1>, qubit 0 lowest, as a chain of np.kron."""
    state = np.ones(1, dtype=complex)
    for angle in phi:
        amp = np.array([np.cos(angle / 2), np.sin(angle / 2)], dtype=complex)
        state = np.kron(amp, state)
    return state


def old_mix_layer(state: np.ndarray, gates):
    """In place: ``gates[q]`` on qubit q, one pass over the whole state per qubit.

    The mixer layer as it was before cache blocking: each pass copies the
    low half and writes both products to half-length buffers before the
    sums go back into the state.
    """
    block = np.empty((3, max(state.size >> 1, 1)), dtype=complex)
    for q, gate in enumerate(gates):
        view = state.reshape(-1, 2, 1 << q)
        lo_copy, t0, t1 = (buf[: state.size >> 1].reshape(-1, 1 << q) for buf in block)
        np.copyto(lo_copy, view[:, 0, :])
        hi = view[:, 1, :]
        for b in (0, 1):
            np.multiply(gate[b, 0], lo_copy, out=t0)
            np.multiply(gate[b, 1], hi, out=t1)
            np.add(t0, t1, out=view[:, b, :])


def old_simulate(
    h,
    prior,
    schedule,
    qubit_cap: int = 26,
    energies: np.ndarray | None = None,
) -> np.ndarray:
    """Exact output distribution of one warm-started LR-QAOA circuit.

    Returns |amplitude|^2 over all 2^n basis states.  ``energies`` may be
    passed to reuse a precomputed cost diagonal.
    """
    n = h.num_qubits
    if n > qubit_cap:
        raise SizeCapError(f"{n} qubits exceeds statevector cap {qubit_cap}")
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (n,):
        raise DomainError(f"prior must have {n} entries, got shape {prior.shape}")
    if not np.all((prior >= 0) & (prior <= 1)):
        raise DomainError("prior probabilities must lie in [0, 1]")
    if energies is None:
        energies = diagonal(h)

    phi = 2 * np.arcsin(np.sqrt(prior))
    state = kron_product_state(phi)
    for beta, gamma in zip(schedule.betas, schedule.gammas):
        state *= np.exp(-1j * gamma * energies)
        for q in range(n):
            old_apply_single_qubit(state, _mixer_matrix(beta, phi[q]), q, n)
    return np.abs(state) ** 2


def half_split_table_phase(state: np.ndarray, gamma: float, levels, level):
    """In place: state *= exp(-i gamma E), gathered from ``levels`` in two halves of the state.

    Below two qubits the phase goes in one piece.
    """
    table = np.multiply(-1j * gamma, levels)
    np.exp(table, out=table)
    half = max(state.size >> 1, 2)
    buf = np.empty(half, dtype=complex)
    for part in (slice(0, half), slice(half, None)):
        out = buf[: state[part].size]
        np.take(table, level[part], out=out, mode="clip")
        np.multiply(state[part], out, out=state[part])


def half_split_simulate(h, prior, schedule) -> np.ndarray:
    """``simulate`` with the half-split phase and ``np.abs(state) ** 2`` beside the state."""
    n = h.num_qubits
    levels, level = np.unique(diagonal(h), return_inverse=True)
    level = level.astype(np.min_scalar_type(len(levels) - 1))
    phi = 2 * np.arcsin(np.sqrt(np.asarray(prior, dtype=float)))
    state = kron_product_state(phi)
    for beta, gamma in zip(schedule.betas, schedule.gammas):
        half_split_table_phase(state, gamma, levels, level)
        old_mix_layer(state, [_mixer_matrix(beta, phi[q]) for q in range(n)])
    return np.abs(state) ** 2


def run_record_to_dict(record) -> dict:
    """``RunRecord.to_dict`` as it was before it became ``dataclasses.asdict``."""
    return {
        "kind": record.kind,
        "config": {
            "p": record.config.p,
            "dbeta": record.config.dbeta,
            "dgamma": record.config.dgamma,
            "shots": record.config.shots,
            "alpha": record.config.alpha,
            "iterations": record.config.iterations,
            "seed": record.config.seed,
            "epsilon": record.config.epsilon,
            "target_energy": record.config.target_energy,
        },
        "iterations": [
            {
                "iteration": rec.iteration,
                "feedback_beta": rec.feedback_beta,
                "prior": list(rec.prior),
                "histogram": [[e, c] for e, c in rec.histogram],
                "best_energy": rec.best_energy,
                "best_index": rec.best_index,
                "kept_shots": rec.kept_shots,
            }
            for rec in record.iterations
        ],
        "best_energy": record.best_energy,
        "best_index": record.best_index,
        "best_bits": list(record.best_bits),
        "optimum_iteration": record.optimum_iteration,
        "termination": record.termination,
        "decoded_walk": record.decoded_walk,
    }


# ---------------------------------------------------------------------------
# Ising oracle: ``IsingPolynomial``'s own term store (``add_term`` verbatim)
# and ``to_ising`` as they were before ``polynomials._accumulate`` served
# both polynomial types.


class OldIsingPolynomial:
    """constant + sum over qubit sets S of coeff_S * prod_{i in S} Z_i."""

    __slots__ = ("num_qubits", "terms", "constant")

    def __init__(self, num_qubits: int, constant=0.0):
        self.num_qubits = num_qubits
        self.constant = constant
        self.terms: dict[tuple[int, ...], float] = {}

    def add_term(self, qubits, coeff):
        if coeff == 0:
            return
        key = tuple(sorted(set(qubits)))
        for q in key:
            if not 0 <= q < self.num_qubits:
                raise DomainError(f"qubit index {q} outside [0, {self.num_qubits})")
        if len(key) != len(qubits):  # Z_q * Z_q = 1: only odd repeats remain
            key = tuple(q for q in key if qubits.count(q) % 2)
        if not key:
            self.constant += coeff
            return
        new = self.terms.get(key, 0) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new


def old_to_ising(p) -> OldIsingPolynomial:
    """Substitute x_i -> (1 - Z_i)/2 and collect Z terms.

    Each degree-d binary monomial expands into 2^d Z terms with
    coefficients coeff / 2^d, signed by the subset parity.
    """
    h = OldIsingPolynomial(p.num_vars)
    for mono, coeff in sorted(p.terms.items()):
        d = len(mono)
        base = coeff / (2**d) if d else coeff
        for r in range(d + 1):
            sign = -1 if r % 2 else 1
            for subset in combinations(mono, r):
                h.add_term(subset, sign * base)
    return h


def old_walsh_hadamard(num_qubits: int, masks, coeffs, dtype) -> np.ndarray:
    """``_dense._walsh_hadamard`` as one in-place pass per bit over (lo, hi) strides."""
    table = np.zeros(1 << num_qubits, dtype)
    table[masks] = coeffs
    half = table.size >> 1
    diff = np.empty(half, dtype)
    stride = 1
    while stride <= half:
        pairs = table.reshape(-1, 2, stride)
        lo, hi = pairs[:, 0, :], pairs[:, 1, :]
        tmp = diff.reshape(lo.shape)
        np.subtract(lo, hi, out=tmp)
        lo += hi
        hi[...] = tmp
        stride <<= 1
    return table
