"""Gate-list circuit IR, statevector application, metrics, and equivalence checks.

Gate set: RY/RZ (single-qubit rotations), CX, RZZ, SWAP, and MULTIRZ
(a Z-parity rotation over an arbitrary qubit set, allowed only in
logical circuits).  Rotation conventions: RZ(theta) = exp(-i theta Z/2)
and MULTIRZ(theta, S) = exp(-i theta/2 * prod_{q in S} Z_q), so an RZZ
is exactly a two-qubit MULTIRZ.

A circuit of CX, SWAP and diagonal gates maps |x> to exp(-i phi(x)) |A x>,
with A in GL(n, GF(2)) and phi a sum of parity terms.  ``_parity_replay``
captures both in O(gates * n) bit operations: it tracks each wire's value
as a GF(2) linear form of the input bits and records the parity (mask) at
which every diagonal gate rotates.  The permutation-and-phase simulator
path, ``verify_equivalence`` (Amy, Maslov & Mosca, IEEE TCAD 2014) and the
compiler's self-check of each diagonal run all use that one replay; only
circuits containing RY are verified on dense statevector batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SizeCapError
from .ising import DIAGONAL_QUBIT_CAP, _walsh_hadamard

ROTATION_GATES = {"RY", "RZ", "RZZ", "MULTIRZ"}
PLAIN_GATES = {"CX", "SWAP"}
DIAGONAL_GATES = {"RZ", "RZZ", "MULTIRZ"}
PARITY_GATES = PLAIN_GATES | DIAGONAL_GATES  # the gates _parity_replay follows
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


def _parity_replay(gates, forms: list[int]) -> list[tuple[int, float]]:
    """(mask, theta) of each diagonal gate, in order; ``forms`` is updated in place.

    ``forms[w]`` is wire w's value as a GF(2) linear form of the input bits,
    a bit mask.  CX adds the control's form to the target's, SWAP exchanges
    two forms, and a diagonal gate rotates about the parity given by the XOR
    of its wires' forms.
    """
    phases = []
    for g in gates:
        if g.name in DIAGONAL_GATES:
            mask = 0
            for q in g.qubits:
                mask ^= forms[q]
            phases.append((mask, g.theta))
        elif g.name == "CX":
            control, target = g.qubits
            forms[target] ^= forms[control]
        elif g.name == "SWAP":
            a, b = g.qubits
            forms[a], forms[b] = forms[b], forms[a]
        else:
            raise DomainError(f"{g.name} is not a CX, SWAP or diagonal gate")
    return phases


def _parity_table(coeffs: dict[int, float]) -> tuple[list[int], np.ndarray]:
    """sum over masks S of coeffs[S] * (-1)^|S & x|, tabulated over the masks' support.

    Returns the support (the bits set in any mask, ascending) and a table of
    2^len(support) sums: entry y holds the sum for every x whose support
    bits, packed in that order, read y.  Bits outside the support do not
    change the sum, so one Walsh-Hadamard transform of 2^|support| entries
    replaces one of 2^n.
    """
    union = 0
    for mask in coeffs:
        union |= mask
    support = [q for q in range(union.bit_length()) if (union >> q) & 1]
    if len(support) > DIAGONAL_QUBIT_CAP:
        raise SizeCapError(
            f"parity table over {len(support)} bits exceeds cap {DIAGONAL_QUBIT_CAP}"
        )
    table = np.zeros(1 << len(support))
    for mask, coeff in coeffs.items():
        table[sum(1 << i for i, q in enumerate(support) if (mask >> q) & 1)] += coeff
    return support, _walsh_hadamard(table)


def _permutation_phase_action(gates, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(target index, phase) per basis state for a CX/SWAP/diagonal circuit.

    Such circuits map |x> to exp(-i phi(x)) |A x>.  The replay gives A as the
    final wire forms and phi as theta/2 per mask, which one Walsh-Hadamard
    transform turns into the phase of every basis state.
    """
    forms = [1 << q for q in range(n)]
    coeffs = np.zeros(1 << n)
    for mask, theta in _parity_replay(gates, forms):
        coeffs[mask] += theta / 2
    # x -> A x is linear over GF(2): fill the table one input bit at a time
    # from the image of that bit (column i of A).
    position = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        column = sum(((form >> i) & 1) << w for w, form in enumerate(forms))
        position[1 << i : 2 << i] = position[: 1 << i] ^ column
    return position, _walsh_hadamard(coeffs)


def apply_circuit(circ: CircuitIR, states: np.ndarray) -> np.ndarray:
    """Apply the gate list to a batch of statevectors of shape (batch, 2^n).

    Circuits made only of CX/SWAP/diagonal gates collapse to a single
    permutation plus phase; otherwise gates are applied in sequence with
    consecutive diagonal gates fused into one phase multiply and CX/SWAP
    moving quarter-blocks of the state in place.  A fused run's phases are
    tabulated over the qubits it touches only and broadcast over the rest.
    """
    n = circ.num_qubits
    dim = 1 << n
    states = np.array(states, dtype=complex, copy=True)
    if states.ndim == 1:
        states = states[None, :]
    if states.shape[1] != dim:
        raise DomainError(f"states must have 2^{n} amplitudes")
    if all(g.name in PARITY_GATES for g in circ.gates):
        position, phase = _permutation_phase_action(circ.gates, n)
        out = np.empty_like(states)
        out[:, position] = states * np.exp(-1j * phase)
        return out
    # theta/2 per qubit mask of the current run of diagonal gates.
    pending: dict[int, float] = {}

    def flush_phase():
        if pending:
            support, table = _parity_table(pending)
            # Axis 1 + k of the view is qubit n - 1 - k; the table's axes are
            # its support qubits in the same descending order.
            shape = [2 if q in support else 1 for q in reversed(range(n))]
            view = states.reshape((states.shape[0],) + (2,) * n)
            view *= np.exp(-1j * table).reshape(shape)
            pending.clear()

    for g in circ.gates:
        if g.name in DIAGONAL_GATES:
            mask = sum(1 << q for q in g.qubits)
            pending[mask] = pending.get(mask, 0.0) + g.theta / 2
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
    qubits must return to |0>.

    When both circuits hold only CX, SWAP and diagonal gates (every cost
    layer and every compilation of one), the check is symbolic and exact
    at any width.  ``_parity_replay`` starts logical bit l on its wire under
    the initial layout and every other wire at the form 0.  The circuits
    agree when the forms at the final layouts match, every other wire ends
    at the form 0, and the difference d_S of the two angle maps (theta/2
    summed per mask S) is a global phase.  For that, each nonzero-mask d_S
    is reduced modulo pi, since a multiple of pi shifts every basis state's
    phase by the same amount mod 2 pi.  If the residues sum to at most
    tol/2, no relative phase moves by more than tol and the circuits agree.
    Otherwise one Walsh-Hadamard transform over the residues' support
    (capped at ising.DIAGONAL_QUBIT_CAP bits) gives every relative phase
    delta(x), and the circuits agree when each |1 - e^{-i delta(x)}| is at
    most tol, measured from x = 0.

    Circuits containing RY are checked by ``_verify_dense``, which
    propagates every logical basis state through both circuits and raises
    SizeCapError above ``qubit_cap`` logical qubits.
    """
    circ_a, in_a, out_a = _as_physical(a)
    circ_b, in_b, out_b = _as_physical(b)
    n_logical = len(in_a)
    if len(in_b) != n_logical:
        return False
    if any(g.name not in PARITY_GATES for g in circ_a.gates + circ_b.gates):
        return _verify_dense(a, b, tol, qubit_cap)
    replayed = []
    for circ, start, end in ((circ_a, in_a, out_a), (circ_b, in_b, out_b)):
        forms = [0] * circ.num_qubits
        for logical, physical in start.items():
            forms[physical] = 1 << logical
        angles: dict[int, float] = {}
        for mask, theta in _parity_replay(circ.gates, forms):
            angles[mask] = angles.get(mask, 0.0) + theta / 2
        outputs = [forms[end[q]] for q in range(n_logical)]
        if any(forms[w] for w in set(range(circ.num_qubits)) - set(end.values())):
            return False
        replayed.append((outputs, angles))
    (outputs_a, angles_a), (outputs_b, angles_b) = replayed
    if outputs_a != outputs_b:
        return False
    residues = {}
    for mask in angles_a.keys() | angles_b.keys():
        diff = angles_a.get(mask, 0.0) - angles_b.get(mask, 0.0)
        diff -= np.pi * round(diff / np.pi)
        if mask and diff:
            residues[mask] = diff
    if sum(abs(r) for r in residues.values()) <= tol / 2:
        return True
    _, table = _parity_table(residues)
    return bool(np.max(np.abs(1 - np.exp(-1j * (table - table[0])))) <= tol)


def _verify_dense(a, b, tol: float = 1e-8, qubit_cap: int = VERIFY_QUBIT_CAP) -> bool:
    """verify_equivalence on dense statevector batches, for any gate set.

    Every logical basis state is propagated through both circuits: batches
    of 2^n_logical x 2^n_physical amplitudes, so at most ``qubit_cap``
    logical qubits.  Also the tests' reference for the symbolic check.
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
