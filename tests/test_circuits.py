import time
from math import asin, remainder

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dataclasses

from tanglewalk import (
    CircuitIR,
    DomainError,
    Gate,
    HuboLayout,
    SizeCapError,
    build_topology,
    compile_naive,
    compile_parity,
    default_walk_length,
    encode_hubo,
    generate_tangle,
    lr_schedule,
    metrics,
    qaoa_circuit,
    to_ising,
    verify_equivalence,
)
from tanglewalk.transpile import cost_layer_gates

from tanglewalk.circuits import PHASE_TOLERANCE, _is_global_phase

from helpers import basis_phase_equivalent, dense_equivalent, popcount_phase_error
from test_acceptance import grid_for, hubo_layers, planted_instances


class TestGateValidation:
    def test_unknown_gate(self):
        with pytest.raises(DomainError):
            Gate("H", (0,))

    def test_lower_case_name_is_unknown(self):
        with pytest.raises(DomainError, match="unknown gate 'rz'"):
            Gate("rz", (0,), 0.1)

    def test_rotation_needs_angle(self):
        with pytest.raises(DomainError):
            Gate("RZ", (0,))

    @pytest.mark.parametrize("name,qubits", [("RZ", (0,)), ("RY", (1,)), ("MULTIRZ", (0, 2))])
    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
    def test_rotation_needs_finite_angle(self, name, qubits, theta):
        with pytest.raises(DomainError, match="finite angle"):
            Gate(name, qubits, theta)

    def test_cx_takes_no_angle(self):
        with pytest.raises(DomainError):
            Gate("CX", (0, 1), 0.5)

    def test_duplicate_qubits(self):
        with pytest.raises(DomainError):
            Gate("RZZ", (1, 1), 0.2)

    def test_circuit_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            CircuitIR(2, [Gate("RY", (2,), 0.1)])


@st.composite
def random_circuit(draw):
    """A random CX/SWAP/diagonal circuit on 2-5 qubits."""
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
    return CircuitIR(n, draw(st.lists(gate, max_size=24)))


class TestReplayAgainstBasisOracle:
    """Random circuits against copies with one gate dropped or turned."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_gate_mutants(self, data):
        circ = data.draw(random_circuit())
        gates = list(circ.gates)
        if gates:
            i = data.draw(st.integers(0, len(gates) - 1))
            quarter_turns = data.draw(st.integers(-4, 4))
            g = gates[i]
            if g.theta is None or data.draw(st.booleans()):
                del gates[i]
            else:
                gates[i] = Gate(g.name, g.qubits, g.theta + quarter_turns * np.pi / 2)
        mutant = CircuitIR(circ.num_qubits, gates)
        # A phase deviation near tol (say a dropped RZ(1e-8)) is decided by rounding.
        assume(
            basis_phase_equivalent(circ, mutant, tol=5e-9)
            == basis_phase_equivalent(circ, mutant, tol=2e-8)
        )
        assert verify_equivalence(circ, mutant) == basis_phase_equivalent(circ, mutant)


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

    def test_huge_finite_angles_do_not_overflow(self):
        # Three halves of 1.7e308 sum past the largest float; reduced mod pi
        # as they are added, they equal one RZ of the reduced total.
        a = CircuitIR(1, [Gate("RZ", (0,), 1.7e308)] * 3)
        total = 3 * remainder(1.7e308 / 2, np.pi)
        assert not verify_equivalence(a, CircuitIR(1))
        assert verify_equivalence(a, CircuitIR(1, [Gate("RZ", (0,), 2 * total)]))
        assert not verify_equivalence(a, CircuitIR(1, [Gate("RZ", (0,), 2 * total + 0.1)]))

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
    """(replay, basis-state oracle) answers, which must agree."""
    return verify_equivalence(a, b), basis_phase_equivalent(a, b)


class TestSymbolicVerifier:
    """The GF(2) replay against the basis-state oracle on cost layers."""

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

    @pytest.mark.parametrize("support", [(0, 5, 17), (1, 2, 9, 30), (3, 12, 13, 20, 41)])
    def test_relative_phases_match_popcount_oracle(self, support):
        # Residue maps over gapped supports: global phases (multiples of pi,
        # pi/2 triples), a shift that moves the largest relative phase to
        # 0.999 or 1.001 of the tolerance, and maps of arbitrary residues.
        rng = np.random.default_rng(len(support))
        near = asin(PHASE_TOLERANCE / 2)

        def mask():
            bits = rng.choice(support, int(rng.integers(1, len(support) + 1)), replace=False)
            return sum(1 << int(q) for q in bits)

        outcomes = []
        for trial in range(60):
            residues = {}
            if trial % 4 == 3:
                for _ in range(int(rng.integers(1, 6))):
                    residues[mask()] = float(rng.uniform(-3, 3))
            else:
                for _ in range(int(rng.integers(0, 4))):
                    a, b = mask(), mask()
                    if a & b:
                        residues[a] = residues.get(a, 0.0) + np.pi * int(rng.integers(-3, 4))
                    else:  # pi/2 (chi_a + chi_b - chi_ab)
                        for m, r in ((a, np.pi / 2), (b, np.pi / 2), (a | b, -np.pi / 2)):
                            residues[m] = residues.get(m, 0.0) + r
                # split over masks sharing one bit, so some x flips every part
                shift = near * (0.999 if trial % 4 else 1.001) * rng.choice([-1, 1])
                common = 1 << int(rng.choice(support))
                for part in np.diff([0, *sorted(rng.uniform(0, 1, 2)), 1]) * shift:
                    m = mask() | common
                    residues[m] = residues.get(m, 0.0) + part
                error = popcount_phase_error(residues)
                assert abs(error / PHASE_TOLERANCE - 1) < 2e-3, residues
            residues = {m: r for m, r in residues.items() if r}
            expected = popcount_phase_error(residues) <= PHASE_TOLERANCE
            assert _is_global_phase(residues, {}) == expected, residues
            outcomes.append(expected)
        assert 15 <= sum(outcomes) <= 45  # both verdicts, many times

    def test_residue_support_over_budget(self):
        # 2^29 relative phases would not fit the memory budget: refused at once.
        wide = CircuitIR(29, [Gate("MULTIRZ", tuple(range(29)), 1.0)])
        start = time.perf_counter()
        with pytest.raises(SizeCapError, match="diagonal over 29 qubits"):
            verify_equivalence(wide, CircuitIR(29))
        assert time.perf_counter() - start < 1

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


def full_qaoa_circuits():
    """Warm-started p=1 and p=2 QAOA circuits of 4-6-qubit HUBO layers."""
    circuits = []
    for g, T in planted_instances(
        3,
        lambda g, T: 4 <= HuboLayout.for_graph(g, T).num_vars <= 6,
        [(2, 3, 0.25), (3, 1, 0.25), (4, 1, 0.2), (2, 4, 0.3), (3, 2, 0.3)],
    ):
        h = to_ising(encode_hubo(g, T))
        prior = np.linspace(0.2, 0.8, h.num_qubits)  # a distinct RY angle per qubit
        for p in (1, 2):
            circuits.append(qaoa_circuit(h, lr_schedule(p, 0.7, 0.3), prior))
    return circuits


class TestRyReplay:
    """Whole QAOA circuits, cut at each RY, against the dense oracle."""

    def test_matches_dense_on_full_compilations(self):
        for circ in full_qaoa_circuits():
            n = circ.num_qubits
            for topo in (build_topology("linear", n), grid_for(n), build_topology("heavy-hex", 1)):
                for compiler in (compile_parity, compile_naive):
                    compiled = compiler(circ, topo)
                    assert verify_equivalence(circ, compiled), (n, topo.num_qubits, compiler)
                    assert dense_equivalent(circ, compiled), (n, topo.num_qubits, compiler)

    @pytest.fixture(scope="class")
    def compiled6(self):
        """A 6-qubit p=1 QAOA circuit compiled onto 8 physical qubits (2 ancillas)."""
        circ = full_qaoa_circuits()[-2]
        compiled = compile_parity(circ, build_topology("grid", (2, 4)))
        assert circ.num_qubits == 6 and compiled.circuit.num_qubits == 8
        return circ, compiled

    def test_negative_cases(self, compiled6):
        circ, compiled = compiled6
        gates = list(compiled.circuit.gates)
        last_rz = max(i for i, g in enumerate(gates) if g.name == "RZ")  # a mixer RZ
        changed_mixer = list(gates)
        changed_mixer[last_rz] = Gate("RZ", gates[last_rz].qubits, gates[last_rz].theta + 0.1)
        wrong_layout = dict(compiled.final_layout)
        wrong_layout[0], wrong_layout[1] = wrong_layout[1], wrong_layout[0]
        cases = {
            "dropped cost rotation": drop_first_rotation(compiled),
            "changed mixer RZ": with_gates(compiled, changed_mixer),
            "wrong final_layout": dataclasses.replace(compiled, final_layout=wrong_layout),
        }
        for name, bad in cases.items():
            assert (verify_equivalence(circ, bad), dense_equivalent(circ, bad)) == (
                False,
                False,
            ), name

    def test_unpaired_ry_is_domain_error(self, compiled6):
        circ, compiled = compiled6
        gates = list(compiled.circuit.gates)
        rys = [i for i, g in enumerate(gates) if g.name == "RY"]
        changed_theta = list(gates)
        changed_theta[rys[-1]] = Gate("RY", gates[rys[-1]].qubits, gates[rys[-1]].theta + 0.1)
        moved = list(gates)  # the first RY prepares logical 0; move it onto logical 1's wire
        moved[rys[0]] = Gate("RY", (compiled.initial_layout[1],), gates[rys[0]].theta)
        cases = {
            "changed RY angle": (with_gates(compiled, changed_theta), "RY 17"),
            "RY moved to another logical qubit": (with_gates(compiled, moved), "RY 0"),
            "dropped RY": (with_gates(compiled, gates[: rys[-1]] + gates[rys[-1] + 1 :]), "RY 17"),
        }
        assert len(rys) == 18
        for name, (bad, first) in cases.items():
            with pytest.raises(DomainError, match=f"cannot pair {first}\\b"):
                verify_equivalence(circ, bad)
            assert not dense_equivalent(circ, bad), name

    def test_forms_not_a_layout_at_a_cut_is_domain_error(self):
        # Equal circuits, but wire 1 carries x0 ^ x1 when the RY acts on it.
        circ = CircuitIR(2, [Gate("CX", (0, 1)), Gate("RY", (1,), 0.5), Gate("CX", (0, 1))])
        with pytest.raises(DomainError, match="not a layout"):
            verify_equivalence(circ, circ)

    def test_wide_36_qubit_p2_compilation(self):
        g = generate_tangle(0, 5, 2, 0.2)
        h = to_ising(encode_hubo(g, default_walk_length(g)))
        assert h.num_qubits == 36
        circ = qaoa_circuit(h, lr_schedule(2, 0.7, 0.3), np.full(36, 0.3))
        compiled = compile_naive(circ, build_topology("heavy-hex", 4))
        assert verify_equivalence(circ, compiled)
        assert not verify_equivalence(circ, drop_first_rotation(compiled))


class TestTextFormat:
    def test_round_trip(self):
        # The exact text that `compile --circuit-out` writes.
        circ = CircuitIR(
            3,
            [
                Gate("RY", (0,), 0.25),
                Gate("CX", (0, 1)),
                Gate("MULTIRZ", (0, 1, 2), -1.5),
                Gate("SWAP", (1, 2)),
            ],
        )
        assert circ.to_text() == (
            "# qubits 3\nRY 0.25 0\nCX 0 1\nMULTIRZ -1.5 0 1 2\nSWAP 1 2\n"
        )
