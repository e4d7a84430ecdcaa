import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglewalk import (
    CircuitIR,
    DomainError,
    Gate,
    apply_circuit,
    metrics,
    verify_equivalence,
)

from helpers import PAULI_Z, dense_circuit_unitary, kron_chain


def basis(n, index=0):
    state = np.zeros(1 << n, dtype=complex)
    state[index] = 1.0
    return state


class TestGateValidation:
    def test_unknown_gate(self):
        with pytest.raises(DomainError):
            Gate("H", (0,))

    def test_rotation_needs_angle(self):
        with pytest.raises(DomainError):
            Gate("RZ", (0,))

    def test_cx_takes_no_angle(self):
        with pytest.raises(DomainError):
            Gate("CX", (0, 1), 0.5)

    def test_duplicate_qubits(self):
        with pytest.raises(DomainError):
            Gate("RZZ", (1, 1), 0.2)

    def test_circuit_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            CircuitIR(2, [Gate("RY", (2,), 0.1)])


class TestApplyCircuit:
    def test_cx_truth_table(self):
        circ = CircuitIR(2, [Gate("CX", (0, 1))])
        for src, dst in [(0, 0), (1, 3), (2, 2), (3, 1)]:
            out = apply_circuit(circ, basis(2, src))[0]
            assert out[dst] == pytest.approx(1.0)

    def test_swap_truth_table(self):
        circ = CircuitIR(2, [Gate("SWAP", (0, 1))])
        for src, dst in [(0, 0), (1, 2), (2, 1), (3, 3)]:
            out = apply_circuit(circ, basis(2, src))[0]
            assert out[dst] == pytest.approx(1.0)

    def test_multirz_phases(self):
        theta = 0.8
        circ = CircuitIR(3, [Gate("MULTIRZ", (0, 1, 2), theta)])
        out = apply_circuit(circ, np.eye(8, dtype=complex))
        zzz = np.diag(kron_chain([PAULI_Z, PAULI_Z, PAULI_Z]))
        for idx in range(8):
            assert out[idx, idx] == pytest.approx(np.exp(-1j * theta / 2 * zzz[idx]))

    def test_ry_rotates_zero_state(self):
        theta = 1.1
        circ = CircuitIR(1, [Gate("RY", (0,), theta)])
        out = apply_circuit(circ, basis(1))[0]
        assert out[0] == pytest.approx(np.cos(theta / 2))
        assert out[1] == pytest.approx(np.sin(theta / 2))


@st.composite
def random_circuit(draw, with_ry):
    n = draw(st.integers(2, 5))
    qubit = st.integers(0, n - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    angle = st.floats(-np.pi, np.pi, allow_nan=False)
    gate = st.one_of(
        st.builds(Gate, st.just("CX"), pair),
        st.builds(Gate, st.just("SWAP"), pair),
        st.builds(Gate, st.just("RZ"), st.tuples(qubit), angle),
        st.builds(Gate, st.just("RZZ"), pair, angle),
        st.builds(Gate, st.just("MULTIRZ"), st.lists(qubit, min_size=1, unique=True), angle),
    )
    gates = draw(st.lists(gate, max_size=24))
    if with_ry:
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(gates)))
            gates.insert(at, Gate("RY", (draw(qubit),), draw(angle)))
    return CircuitIR(n, gates)


class TestApplyCircuitAgainstDenseMatrices:
    """Random circuits; without RY they take the permutation-and-phase path."""

    @pytest.mark.parametrize("with_ry", [False, True])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_gate_by_gate_product(self, with_ry, data):
        circ = data.draw(random_circuit(with_ry))
        dim = 1 << circ.num_qubits
        out = apply_circuit(circ, np.eye(dim, dtype=complex))
        # Row i of the output is the image of basis state i, i.e. column i of U.
        assert np.abs(out - dense_circuit_unitary(circ).T).max() < 1e-12


class TestMetrics:
    def test_empty(self):
        m = metrics(CircuitIR(3))
        assert m == {"two_qubit_count": 0, "two_qubit_depth": 0, "total_ops": 0}

    def test_disjoint_rzz_share_a_layer(self):
        circ = CircuitIR(4, [Gate("RZZ", (0, 1), 0.1), Gate("RZZ", (2, 3), 0.1)])
        m = metrics(circ)
        assert m["two_qubit_count"] == 2
        assert m["two_qubit_depth"] == 1

    def test_chained_cx_serialise(self):
        circ = CircuitIR(3, [Gate("CX", (0, 1)), Gate("CX", (1, 2))])
        m = metrics(circ)
        assert m["two_qubit_count"] == 2
        assert m["two_qubit_depth"] == 2

    def test_swap_counts_three(self):
        circ = CircuitIR(2, [Gate("SWAP", (0, 1))])
        m = metrics(circ)
        assert m["two_qubit_count"] == 3
        assert m["two_qubit_depth"] == 3
        assert m["total_ops"] == 1

    def test_single_qubit_gates_free(self):
        circ = CircuitIR(2, [Gate("RY", (0,), 0.3), Gate("RZ", (1,), 0.1)])
        m = metrics(circ)
        assert m["two_qubit_count"] == 0 and m["two_qubit_depth"] == 0
        assert m["total_ops"] == 2


class TestVerifyEquivalence:
    def test_circuit_equals_itself(self):
        circ = CircuitIR(2, [Gate("RZZ", (0, 1), 0.4), Gate("RY", (0,), 0.2)])
        assert verify_equivalence(circ, circ)

    def test_rzz_expansion_identity(self):
        theta = 0.9
        rzz = CircuitIR(2, [Gate("RZZ", (0, 1), theta)])
        ladder = CircuitIR(
            2, [Gate("CX", (0, 1)), Gate("RZ", (1,), theta), Gate("CX", (0, 1))]
        )
        assert verify_equivalence(rzz, ladder)

    def test_detects_difference(self):
        a = CircuitIR(2, [Gate("RZZ", (0, 1), 0.4)])
        b = CircuitIR(2, [Gate("RZZ", (0, 1), 0.5)])
        assert not verify_equivalence(a, b)

    def test_global_phase_ignored(self):
        # RZ(2 pi) is -identity, the empty circuit is identity
        a = CircuitIR(1, [Gate("RZ", (0,), float(2 * np.pi))])
        b = CircuitIR(1, [])
        assert verify_equivalence(a, b)

    def test_swapped_wires_are_not_equivalent(self):
        a = CircuitIR(2, [Gate("RZ", (0,), 0.7)])
        b = CircuitIR(2, [Gate("RZ", (1,), 0.7)])
        assert not verify_equivalence(a, b)


class TestTextFormat:
    def test_round_trip(self):
        circ = CircuitIR(
            3,
            [
                Gate("RY", (0,), 0.25),
                Gate("CX", (0, 1)),
                Gate("MULTIRZ", (0, 1, 2), -1.5),
                Gate("SWAP", (1, 2)),
            ],
        )
        again = CircuitIR.from_text(circ.to_text())
        assert again.num_qubits == 3
        assert again.gates == circ.gates

    def test_parse_error_has_line_number(self):
        with pytest.raises(DomainError, match="line 2"):
            CircuitIR.from_text("CX 0 1\nRZ oops 0\n")
