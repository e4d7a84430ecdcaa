"""Gate-list circuit IR, statevector application, metrics, and equivalence checks.

Gate set: RY/RZ (single-qubit rotations), CX, RZZ, SWAP, and MULTIRZ
(a Z-parity rotation over an arbitrary qubit set, allowed only in
logical circuits).  Rotation conventions: RZ(theta) = exp(-i theta Z/2)
and MULTIRZ(theta, S) = exp(-i theta/2 * prod_{q in S} Z_q), so an RZZ
is exactly a two-qubit MULTIRZ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SizeCapError
from .ising import _walsh_hadamard

ROTATION_GATES = {"RY", "RZ", "RZZ", "MULTIRZ"}
PLAIN_GATES = {"CX", "SWAP"}
DIAGONAL_GATES = {"RZ", "RZZ", "MULTIRZ"}
VERIFY_QUBIT_CAP = 10


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        name = self.name.upper()
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if name in ROTATION_GATES and self.theta is None:
            raise DomainError(f"{name} requires an angle")
        if name in PLAIN_GATES and self.theta is not None:
            raise DomainError(f"{name} takes no angle")
        if name not in ROTATION_GATES | PLAIN_GATES:
            raise DomainError(f"unknown gate {name!r}")
        expected = {"RY": 1, "RZ": 1, "CX": 2, "RZZ": 2, "SWAP": 2}
        if name in expected and len(self.qubits) != expected[name]:
            raise DomainError(f"{name} acts on {expected[name]} qubit(s)")
        if name == "MULTIRZ" and len(self.qubits) < 1:
            raise DomainError("MULTIRZ needs at least one qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise DomainError(f"{name} qubits must be distinct: {self.qubits}")

    @property
    def is_two_qubit(self) -> bool:
        return self.name in ("CX", "RZZ", "SWAP")


@dataclass
class CircuitIR:
    """Ordered gate list on ``num_qubits`` wires."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        for g in self.gates:
            self._check(g)

    def _check(self, gate: Gate):
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise DomainError(f"gate {gate.name} touches qubit {q} >= {self.num_qubits}")

    def append(self, name: str, qubits, theta: float | None = None):
        gate = Gate(name, tuple(qubits) if not isinstance(qubits, int) else (qubits,), theta)
        self._check(gate)
        self.gates.append(gate)

    def extend(self, gates):
        for g in gates:
            self._check(g)
            self.gates.append(g)

    @property
    def has_multirz(self) -> bool:
        return any(g.name == "MULTIRZ" for g in self.gates)

    def to_text(self) -> str:
        lines = [f"# qubits {self.num_qubits}"]
        for g in self.gates:
            qubits = " ".join(str(q) for q in g.qubits)
            if g.theta is None:
                lines.append(f"{g.name} {qubits}")
            else:
                lines.append(f"{g.name} {g.theta!r} {qubits}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CircuitIR":
        num_qubits = None
        gates = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if parts[:1] == ["qubits"]:
                    num_qubits = int(parts[1])
                continue
            parts = line.split()
            name = parts[0].upper()
            try:
                if name in ROTATION_GATES:
                    theta = float(parts[1])
                    qubits = [int(x) for x in parts[2:]]
                else:
                    theta = None
                    qubits = [int(x) for x in parts[1:]]
            except (IndexError, ValueError) as exc:
                raise DomainError(f"line {lineno}: cannot parse {line!r}") from exc
            gates.append(Gate(name, tuple(qubits), theta))
        if num_qubits is None:
            num_qubits = 1 + max((q for g in gates for q in g.qubits), default=0)
        return cls(num_qubits, gates)


def _two_bit_view(states: np.ndarray, n: int, hi: int, lo: int) -> np.ndarray:
    """(batch, outer, 2, mid, 2, inner) view exposing index bits hi > lo."""
    batch = states.shape[0]
    return states.reshape(
        batch, 1 << (n - hi - 1), 2, 1 << (hi - lo - 1), 2, 1 << lo
    )


def _swap_blocks(a: np.ndarray, b: np.ndarray):
    tmp = a.copy()
    a[...] = b
    b[...] = tmp


def _permutation_phase_action(gates, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(target index, phase) per basis state for a CX/SWAP/diagonal circuit.

    Such circuits map |x> to exp(-i phi(x)) |M(x)>.  The index image M is
    tracked per basis state; each wire's value is also tracked as a GF(2)
    linear form of the input bits (a mask), so a diagonal gate adds theta/2
    at the XOR of its wires' forms and phi comes from one Walsh-Hadamard
    transform at the end.
    """
    dim = 1 << n
    position = np.arange(dim, dtype=np.uint64)
    form = [1 << q for q in range(n)]
    coeffs = np.zeros(dim)
    for g in gates:
        if g.name in DIAGONAL_GATES:
            mask = 0
            for q in g.qubits:
                mask ^= form[q]
            coeffs[mask] += g.theta / 2
        elif g.name == "CX":
            control, target = g.qubits
            form[target] ^= form[control]
            bit = (position >> np.uint64(control)) & np.uint64(1)
            position = position ^ (bit << np.uint64(target))
        else:  # SWAP
            a, b = g.qubits
            form[a], form[b] = form[b], form[a]
            bit_a = (position >> np.uint64(a)) & np.uint64(1)
            bit_b = (position >> np.uint64(b)) & np.uint64(1)
            toggle = (bit_a ^ bit_b) * np.uint64((1 << a) | (1 << b))
            position = position ^ toggle
    return position, _walsh_hadamard(coeffs)


def apply_circuit(circ: CircuitIR, states: np.ndarray) -> np.ndarray:
    """Apply the gate list to a batch of statevectors of shape (batch, 2^n).

    Circuits made only of CX/SWAP/diagonal gates collapse to a single
    permutation plus phase; otherwise gates are applied in sequence with
    consecutive diagonal gates fused into one phase multiply and CX/SWAP
    moving quarter-blocks of the state in place.
    """
    n = circ.num_qubits
    dim = 1 << n
    states = np.array(states, dtype=complex, copy=True)
    if states.ndim == 1:
        states = states[None, :]
    if states.shape[1] != dim:
        raise DomainError(f"states must have 2^{n} amplitudes")
    if all(g.name in DIAGONAL_GATES or g.name in ("CX", "SWAP") for g in circ.gates):
        position, phase = _permutation_phase_action(circ.gates, n)
        out = np.empty_like(states)
        out[:, position] = states * np.exp(-1j * phase)
        return out
    # theta/2 per qubit mask of the current run of diagonal gates.
    pending_coeffs: np.ndarray | None = None

    def flush_phase():
        nonlocal pending_coeffs
        if pending_coeffs is not None:
            states_view = states
            states_view *= np.exp(-1j * _walsh_hadamard(pending_coeffs))
            pending_coeffs = None

    for g in circ.gates:
        if g.name in DIAGONAL_GATES:
            if pending_coeffs is None:
                pending_coeffs = np.zeros(dim)
            pending_coeffs[sum(1 << q for q in g.qubits)] += g.theta / 2
            continue
        flush_phase()
        if g.name == "RY":
            q = g.qubits[0]
            half = g.theta / 2
            c, s = np.cos(half), np.sin(half)
            view = states.reshape(states.shape[0], 1 << (n - q - 1), 2, 1 << q)
            lo = view[:, :, 0, :].copy()
            hi = view[:, :, 1, :]
            view[:, :, 0, :] = c * lo - s * hi
            view[:, :, 1, :] = s * lo + c * hi
        elif g.name == "CX":
            control, target = g.qubits
            hi, lo = max(g.qubits), min(g.qubits)
            view = _two_bit_view(states, n, hi, lo)
            if control == hi:  # swap target halves inside control = 1
                _swap_blocks(view[:, :, 1, :, 0, :], view[:, :, 1, :, 1, :])
            else:
                _swap_blocks(view[:, :, 0, :, 1, :], view[:, :, 1, :, 1, :])
        elif g.name == "SWAP":
            hi, lo = max(g.qubits), min(g.qubits)
            view = _two_bit_view(states, n, hi, lo)
            _swap_blocks(view[:, :, 0, :, 1, :], view[:, :, 1, :, 0, :])
        else:  # pragma: no cover - Gate validation forbids this
            raise DomainError(f"cannot simulate gate {g.name}")
    flush_phase()
    return states


def metrics(circ) -> dict:
    """{two_qubit_count, two_qubit_depth, total_ops}; SWAP weighs 3.

    Depth is ASAP layering over the two-qubit gates: gates sharing a
    qubit serialise, a SWAP occupies three layers.
    """
    gates = circ.gates if isinstance(circ, CircuitIR) else circ.circuit.gates
    count = 0
    frontier: dict[int, int] = {}
    depth = 0
    total = 0
    for g in gates:
        total += 1
        if not g.is_two_qubit:
            continue
        weight = 3 if g.name == "SWAP" else 1
        count += weight
        start = max(frontier.get(q, 0) for q in g.qubits)
        end = start + weight
        for q in g.qubits:
            frontier[q] = end
        depth = max(depth, end)
    return {"two_qubit_count": count, "two_qubit_depth": depth, "total_ops": total}


def _embed_index(logical_index: int, layout: dict[int, int]) -> int:
    phys = 0
    for logical, physical in layout.items():
        if (logical_index >> logical) & 1:
            phys |= 1 << physical
    return phys


def verify_equivalence(a, b, tol: float = 1e-8, qubit_cap: int = VERIFY_QUBIT_CAP) -> bool:
    """Do two circuits act identically (up to one global phase)?

    Accepts CircuitIR or CompiledCircuit; compiled circuits are compared
    through their logical-to-physical layouts, and any extra physical
    qubits must return to |0>.  Every logical basis state is propagated
    through both circuits.
    """
    circ_a, in_a, out_a = _as_physical(a)
    circ_b, in_b, out_b = _as_physical(b)
    n_logical = len(in_a)
    if len(in_b) != n_logical:
        return False
    if n_logical > qubit_cap:
        raise SizeCapError(f"{n_logical} logical qubits exceeds verify cap {qubit_cap}")

    basis = np.arange(1 << n_logical)
    state_a = np.zeros((len(basis), 1 << circ_a.num_qubits), dtype=complex)
    state_b = np.zeros((len(basis), 1 << circ_b.num_qubits), dtype=complex)
    for i, x in enumerate(basis):
        state_a[i, _embed_index(int(x), in_a)] = 1.0
        state_b[i, _embed_index(int(x), in_b)] = 1.0
    out_states_a = apply_circuit(circ_a, state_a)
    out_states_b = apply_circuit(circ_b, state_b)

    # Pull both back to the logical register; anything off-register must vanish.
    proj_a = _project_logical(out_states_a, circ_a.num_qubits, out_a, tol)
    proj_b = _project_logical(out_states_b, circ_b.num_qubits, out_b, tol)
    if proj_a is None or proj_b is None:
        return False

    flat_a = proj_a.ravel()
    flat_b = proj_b.ravel()
    anchor = int(np.argmax(np.abs(flat_a)))
    if abs(flat_a[anchor]) <= tol and abs(flat_b[anchor]) <= tol:
        return True
    if abs(flat_b[anchor]) <= tol:
        return False
    phase = flat_a[anchor] / flat_b[anchor]
    if abs(abs(phase) - 1) > tol:
        return False
    return bool(np.max(np.abs(flat_a - phase * flat_b)) <= tol)


def _as_physical(obj):
    if isinstance(obj, CircuitIR):
        layout = {q: q for q in range(obj.num_qubits)}
        return obj, layout, layout
    # CompiledCircuit duck-typing keeps this module import-light.
    return obj.circuit, obj.initial_layout, obj.final_layout


def _project_logical(states, num_physical, layout, tol):
    n_logical = len(layout)
    inverse_positions = [layout[q] for q in range(n_logical)]
    dim = states.shape[1]
    idx = np.arange(dim)
    logical_index = np.zeros(dim, dtype=np.int64)
    for logical, physical in enumerate(inverse_positions):
        logical_index |= (((idx >> physical) & 1) << logical).astype(np.int64)
    off_register_mask = np.ones(dim, dtype=bool)
    keep = np.zeros(dim, dtype=bool)
    support = sum(1 << p for p in inverse_positions)
    keep[(idx & ~support) == 0] = True
    off_register_mask &= ~keep
    if np.max(np.abs(states[:, off_register_mask]), initial=0.0) > tol:
        return None
    proj = np.zeros((states.shape[0], 1 << n_logical), dtype=complex)
    proj[:, logical_index[keep]] = states[:, keep]
    return proj
