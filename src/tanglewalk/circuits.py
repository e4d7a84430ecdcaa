"""Gate-list circuit IR, metrics, and equivalence checks.

Gate set: RY/RZ (single-qubit rotations), CX, RZZ, SWAP, and MULTIRZ
(a Z-parity rotation over an arbitrary qubit set, allowed only in
logical circuits).  Rotation conventions: RZ(theta) = exp(-i theta Z/2)
and MULTIRZ(theta, S) = exp(-i theta/2 * prod_{q in S} Z_q), so an RZZ
is exactly a two-qubit MULTIRZ.

A circuit of CX, SWAP and diagonal gates maps |x> to exp(-i phi(x)) |A x>,
with A in GL(n, GF(2)) and phi a sum of parity terms.  ``_angles``
captures both in O(gates * n) bit operations: it tracks each wire's value
as a GF(2) linear form of the input bits and sums each diagonal gate's
angle per parity (mask) it rotates about.  ``verify_equivalence`` (Amy,
Maslov & Mosca, IEEE TCAD 2014), the one check of both compilers' output,
cuts circuits at each RY and replays the segments in turn, so no circuit
is ever simulated densely; any relative phases it tabulates are
``ising.diagonal`` of a segment's residues, packed onto their support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .ising import IsingPolynomial, diagonal

ROTATION_GATES = {"RY", "RZ", "RZZ", "MULTIRZ"}
PLAIN_GATES = {"CX", "SWAP"}
DIAGONAL_GATES = {"RZ", "RZZ", "MULTIRZ"}
KNOWN_GATES = ROTATION_GATES | PLAIN_GATES
ARITY = {"RY": 1, "RZ": 1, "CX": 2, "RZZ": 2, "SWAP": 2}  # MULTIRZ takes any number
TWO_QUBIT_GATES = {"CX", "RZZ", "SWAP"}
PHASE_TOLERANCE = 1e-8  # largest |1 - e^{-i delta}| ``verify_equivalence`` accepts


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        name = self.name
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if name in ROTATION_GATES and (self.theta is None or not math.isfinite(self.theta)):
            raise DomainError(f"{name} requires a finite angle, got {self.theta!r}")
        if name in PLAIN_GATES and self.theta is not None:
            raise DomainError(f"{name} takes no angle")
        if name not in KNOWN_GATES:
            raise DomainError(f"unknown gate {name!r}")
        if name in ARITY and len(self.qubits) != ARITY[name]:
            raise DomainError(f"{name} acts on {ARITY[name]} qubit(s)")
        if name == "MULTIRZ" and len(self.qubits) < 1:
            raise DomainError("MULTIRZ needs at least one qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise DomainError(f"{name} qubits must be distinct: {self.qubits}")


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
        gate = Gate(name, tuple(qubits), theta)
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


def metrics(circ: CircuitIR) -> dict:
    """{two_qubit_count, two_qubit_depth, total_ops}; SWAP weighs 3.

    Depth is ASAP layering over the two-qubit gates: gates sharing a
    qubit serialise, a SWAP occupies three layers.
    """
    count = 0
    frontier: dict[int, int] = {}
    depth = 0
    for g in circ.gates:
        if g.name not in TWO_QUBIT_GATES:
            continue
        weight = 3 if g.name == "SWAP" else 1
        count += weight
        a, b = g.qubits
        end = max(frontier.get(a, 0), frontier.get(b, 0)) + weight
        frontier[a] = frontier[b] = end
        depth = max(depth, end)
    return {"two_qubit_count": count, "two_qubit_depth": depth, "total_ops": len(circ.gates)}


def _as_physical(obj):
    if isinstance(obj, CircuitIR):
        layout = {q: q for q in range(obj.num_qubits)}
        return obj, layout, layout
    # CompiledCircuit duck-typing keeps this module import-light.
    return obj.circuit, obj.initial_layout, obj.final_layout


def _split_at_ry(gates) -> tuple[list[list[Gate]], list[Gate]]:
    """The runs of gates before, between and after the RYs, and the RYs."""
    runs: list[list[Gate]] = [[]]
    rys: list[Gate] = []
    for g in gates:
        if g.name == "RY":
            rys.append(g)
            runs.append([])
        else:
            runs[-1].append(g)
    return runs, rys


def _angles(gates, forms: list[int]) -> dict[int, float]:
    """theta/2 summed per mask over a replayed run; ``forms`` is updated in place.

    Each theta/2 is added reduced into [-pi/2, pi/2] (``math.remainder``),
    exact where it already lies there; the pi per mask it may drop is a
    global phase, and no sum of finite angles overflows.

    ``forms[w]``, a bit mask, is wire w's value as a linear form.  CX adds the
    control's form to the target's, SWAP exchanges two forms, and a diagonal
    gate rotates about the XOR of its wires' forms.
    """
    angles: dict[int, float] = {}
    for g in gates:
        if g.name in DIAGONAL_GATES:
            mask = 0
            for q in g.qubits:
                mask ^= forms[q]
            angles[mask] = angles.get(mask, 0.0) + math.remainder(g.theta / 2, math.pi)
        elif g.name == "CX":
            control, target = g.qubits
            forms[target] ^= forms[control]
        elif g.name == "SWAP":
            a, b = g.qubits
            forms[a], forms[b] = forms[b], forms[a]
        else:
            raise DomainError(f"{g.name} is not a CX, SWAP or diagonal gate")
    return angles


def _is_global_phase(angles_a: dict[int, float], angles_b: dict[int, float]) -> bool:
    residues = {}
    for mask in angles_a.keys() | angles_b.keys():
        diff = angles_a.get(mask, 0.0) - angles_b.get(mask, 0.0)
        diff -= np.pi * round(diff / np.pi)
        if mask and diff:
            residues[mask] = diff
    if sum(abs(r) for r in residues.values()) <= PHASE_TOLERANCE / 2:
        return True
    # Bits outside the residues' support do not change a relative phase, so
    # the phases are the energies of the residues packed onto that support.
    union = 0
    for mask in residues:
        union |= mask
    support = [q for q in range(union.bit_length()) if (union >> q) & 1]
    packed = {
        tuple(i for i, q in enumerate(support) if (mask >> q) & 1): r
        for mask, r in residues.items()
    }
    # |1 - e^{-i delta}| = 2 |sin(delta / 2)|, computed in the table itself
    # so the check peaks where the transform does
    table = diagonal(IsingPolynomial(len(support), packed))
    table -= table[0]
    table *= 0.5
    np.sin(table, out=table)
    return bool(2 * np.abs(table, out=table).max() <= PHASE_TOLERANCE)


def verify_equivalence(a, b) -> bool:
    """Do two circuits act identically (up to one global phase)?

    Accepts CircuitIR or CompiledCircuit; compiled circuits are compared
    through their logical-to-physical layouts, and any extra physical
    qubits must return to |0>.

    Both circuits are cut at each RY, and the segments are replayed by
    ``_angles`` in order, the forms carrying across the cuts.
    Logical bit l starts on its wire under the initial layout and every
    other wire at the form 0.  The k-th segments agree when the difference
    d_S of their angle maps (theta/2 summed per mask S) is a global phase.
    For that, each nonzero-mask d_S is reduced modulo pi, since a multiple
    of pi shifts every basis state's phase by the same amount mod 2 pi.  If
    the residues sum to at most tol/2, tol = ``PHASE_TOLERANCE``, no relative
    phase moves by more than tol.  Otherwise ``ising.diagonal`` of the residues
    over their support (within _dense.MEMORY_BUDGET) gives every relative
    phase delta(x), and the segments agree when each |1 - e^{-i delta(x)}| is
    at most tol, measured from x = 0.  tol applies per segment.  After the
    last segment, the forms at the final layouts must match and every
    other wire must end at the form 0.

    At the k-th cut, both circuits' nonzero forms must be the logical bits,
    each once (a layout), and the two k-th RYs must have the same angle and
    act on wires that carry the same bit.  Equal segments around equal RYs
    then compose to equal circuits, so True is a proof at any width.  The
    test is sufficient, not complete: circuits whose RYs cannot be paired
    this way (a different count, angle or logical qubit, or forms that are
    not a layout at a cut) may still be equivalent, so they raise
    DomainError naming the first unpaired RY, whatever their phases; the
    phases are compared only once every RY is paired.  Without RY there is
    one segment and False is exact; with RY, False says that some pair of
    segments differs by more than a global phase, so a diagonal gate moved
    across an RY on another qubit reads as a difference.
    """
    circ_a, in_a, out_a = _as_physical(a)
    circ_b, in_b, out_b = _as_physical(b)
    n_logical = len(in_a)
    if len(in_b) != n_logical:
        return False
    runs_a, rys_a = _split_at_ry(circ_a.gates)
    runs_b, rys_b = _split_at_ry(circ_b.gates)
    if len(rys_a) != len(rys_b):
        raise DomainError(
            f"cannot pair RY {min(len(rys_a), len(rys_b))}: "
            f"a holds {len(rys_a)} RYs, b holds {len(rys_b)}"
        )
    forms_a = [0] * circ_a.num_qubits
    forms_b = [0] * circ_b.num_qubits
    for forms, start in ((forms_a, in_a), (forms_b, in_b)):
        for logical, physical in start.items():
            forms[physical] = 1 << logical
    layout_forms = [1 << q for q in range(n_logical)]
    segments = []
    for k, (run_a, run_b) in enumerate(zip(runs_a, runs_b)):
        segments.append((_angles(run_a, forms_a), _angles(run_b, forms_b)))
        if k == len(rys_a):
            break
        ry_a, ry_b = rys_a[k], rys_b[k]
        bit = forms_a[ry_a.qubits[0]]
        if any(sorted(filter(None, forms)) != layout_forms for forms in (forms_a, forms_b)):
            reason = "the wire forms at the cut are not a layout"
        elif not bit or forms_b[ry_b.qubits[0]] != bit:
            reason = "they do not act on the same logical qubit"
        elif ry_a.theta != ry_b.theta:
            reason = "their angles differ"
        else:
            continue
        raise DomainError(f"cannot pair RY {k}, {ry_a} in a with {ry_b} in b: {reason}")
    for forms, circ, end in ((forms_a, circ_a, out_a), (forms_b, circ_b, out_b)):
        if any(forms[w] for w in set(range(circ.num_qubits)) - set(end.values())):
            return False
    if [forms_a[out_a[q]] for q in range(n_logical)] != [
        forms_b[out_b[q]] for q in range(n_logical)
    ]:
        return False
    return all(_is_global_phase(angles_a, angles_b) for angles_a, angles_b in segments)
