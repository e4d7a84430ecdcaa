import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclasses

from tanglewalk import (
    CircuitIR,
    DomainError,
    Gate,
    apply_circuit,
    build_topology,
    compile_naive,
    compile_parity,
    default_walk_length,
    encode_hubo,
    generate_tangle,
    metrics,
    to_ising,
    verify_equivalence,
)
from tanglewalk.circuits import _verify_dense
from tanglewalk.transpile import cost_layer_gates

from helpers import PAULI_Z, dense_circuit_unitary, kron_chain
from test_acceptance import grid_for, hubo_layers


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


def with_gates(compiled, gates):
    """The compiled circuit with its gate list replaced, layouts kept."""
    return dataclasses.replace(compiled, circuit=CircuitIR(compiled.circuit.num_qubits, gates))


def drop_first_rotation(compiled):
    gates = list(compiled.circuit.gates)
    del gates[next(i for i, g in enumerate(gates) if g.name in ("RZ", "RZZ"))]
    return with_gates(compiled, gates)


def both_verifiers(a, b):
    """(symbolic, dense) answers, which must agree."""
    return verify_equivalence(a, b), _verify_dense(a, b)


class TestSymbolicVerifier:
    """The GF(2) replay against the dense statevector check."""

    def test_matches_dense_on_criterion_06(self):
        for layer in hubo_layers(50, 4, 8):
            n = layer.num_qubits
            for topo in (build_topology("linear", n), grid_for(n), build_topology("heavy-hex", 1)):
                for compiler in (compile_parity, compile_naive):
                    assert both_verifiers(layer, compiler(layer, topo)) == (True, True)

    @pytest.fixture(scope="class")
    def compiled6(self):
        """A 6-qubit cost layer compiled onto 8 physical qubits (2 ancillas)."""
        (layer,) = hubo_layers(1, 6, 6)
        compiled = compile_parity(layer, build_topology("grid", (2, 4)))
        assert len(compiled.initial_layout) == 6 and compiled.circuit.num_qubits == 8
        return layer, compiled

    def test_negative_cases(self, compiled6):
        layer, compiled = compiled6
        gates = list(compiled.circuit.gates)
        first_rot = next(i for i, g in enumerate(gates) if g.name in ("RZ", "RZZ"))
        first_cx = next(i for i, g in enumerate(gates) if g.name == "CX")
        occupied = sorted(compiled.final_layout.values())
        (ancilla, *_) = sorted(set(range(8)) - set(occupied))

        off_angle = list(gates)
        g = off_angle[first_rot]
        off_angle[first_rot] = Gate(g.name, g.qubits, g.theta + 1e-6)
        reversed_cx = list(gates)
        reversed_cx[first_cx] = Gate("CX", gates[first_cx].qubits[::-1])
        wrong_layout = dict(compiled.final_layout)
        wrong_layout[0], wrong_layout[1] = wrong_layout[1], wrong_layout[0]
        cases = {
            "dropped rotation": drop_first_rotation(compiled),
            "angle off by 1e-6": with_gates(compiled, off_angle),
            "CX reversed": with_gates(compiled, reversed_cx),
            "ancilla left flipped": with_gates(
                compiled, gates + [Gate("CX", (occupied[0], ancilla))]
            ),
            "wrong final_layout": dataclasses.replace(compiled, final_layout=wrong_layout),
            "swapped wires": with_gates(
                compiled, gates + [Gate("SWAP", (occupied[0], occupied[1]))]
            ),
        }
        for name, bad in cases.items():
            assert both_verifiers(layer, bad) == (False, False), name

    def test_mask_off_by_pi_is_global_phase(self, compiled6):
        layer, compiled = compiled6
        gates = list(compiled.circuit.gates)
        i = next(i for i, g in enumerate(gates) if g.name == "RZZ")
        gates[i] = Gate("RZZ", gates[i].qubits, gates[i].theta + 2 * np.pi)
        assert both_verifiers(layer, with_gates(compiled, gates)) == (True, True)

    def test_pi_half_triple_is_global_phase(self):
        # pi/2 (chi_a + chi_b - chi_ab) is constant mod 2 pi only as a whole:
        # each residue is pi/2, so the Walsh-Hadamard step decides.
        triple = CircuitIR(
            2, [Gate("RZ", (0,), np.pi), Gate("RZ", (1,), np.pi), Gate("RZZ", (0, 1), -np.pi)]
        )
        assert both_verifiers(triple, CircuitIR(2)) == (True, True)
        triple.gates[2] = Gate("RZZ", (0, 1), -np.pi + 1e-3)
        assert both_verifiers(triple, CircuitIR(2)) == (False, False)

    def test_quarter_turn_is_not_global_phase(self):
        # RZ(pi) shifts |0> and |1> by -pi/2 and +pi/2: a relative phase of pi.
        assert both_verifiers(CircuitIR(1, [Gate("RZ", (0,), np.pi)]), CircuitIR(1)) == (
            False,
            False,
        )

    def test_wide_multiples_of_pi_need_no_transform(self):
        # 40 residues that reduce to 0 mod pi; a transform over 40 bits would
        # exceed the cap.
        n = 40
        full_turns = [Gate("RZ", (q,), 2 * np.pi) for q in range(n)]
        full_turns += [Gate("RZZ", (q, q + 1), -6 * np.pi) for q in range(n - 1)]
        assert verify_equivalence(CircuitIR(n, full_turns), CircuitIR(n))

    @pytest.mark.parametrize("width", [12, 14, 15, 16])
    def test_wide_criterion_07_layers(self, width):
        (layer,) = hubo_layers(1, width, width)
        topo = grid_for(width)
        for compiler in (compile_parity, compile_naive):
            compiled = compiler(layer, topo)
            assert verify_equivalence(layer, compiled)
            assert not verify_equivalence(layer, drop_first_rotation(compiled))

    def test_wide_24_qubit_layer(self):
        g = generate_tangle(8, 4, 2, 0.2)  # compile-wide's 24-qubit settings
        h = to_ising(encode_hubo(g, default_walk_length(g)))
        assert h.num_qubits == 24
        layer = CircuitIR(24, cost_layer_gates(h, 0.3))
        compiled = compile_parity(layer, build_topology("heavy-hex", 2))
        assert verify_equivalence(layer, compiled)
        assert not verify_equivalence(layer, drop_first_rotation(compiled))


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
