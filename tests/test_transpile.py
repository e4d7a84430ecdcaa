import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglewalk import (
    CircuitIR,
    DomainError,
    Gate,
    Topology,
    build_topology,
    compile_naive,
    compile_parity,
    default_walk_length,
    encode_hubo,
    generate_tangle,
    lr_schedule,
    metrics,
    qaoa_circuit,
    simulate,
    to_ising,
    verify_equivalence,
)
from tanglewalk import transpile
from tanglewalk.cli import main
from tanglewalk.errors import TanglewalkError
from tanglewalk.transpile import (
    EXHAUSTIVE_LAYOUT_CAP,
    ORDER_CAP,
    _cancel_adjacent_cx,
    _order_plans,
    _plan_rotation,
    _steiner_tree,
    cost_layer_gates,
    search_layout,
)

import test_acceptance as acceptance
from helpers import (
    RotationPlan,
    dense_circuit_unitary,
    dense_cost_matrix,
    full_rescan_search_layout,
    greedy_order_plans,
    old_cancel_adjacent_cx,
    old_metrics,
    old_plan_rotation,
    old_steiner_tree,
)


def hubo_cost_layer(seed, n_nodes=2, gamma=0.3, T=2):
    g = generate_tangle(seed, n_nodes, 2, 0.4)
    h = to_ising(encode_hubo(g, T))
    return CircuitIR(h.num_qubits, cost_layer_gates(h, gamma)), h


def random_interaction_circuit(rng, n, count):
    gates = []
    for _ in range(count):
        size = int(rng.integers(2, min(n, 5) + 1))
        qubits = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        gates.append(Gate("MULTIRZ", qubits, float(rng.uniform(-1.5, 1.5))))
    return CircuitIR(n, gates)


class TestQaoaCircuit:
    def test_single_zz_term_gate_census(self):
        from tanglewalk import IsingPolynomial

        h = IsingPolynomial(2, {(0, 1): 1.0})
        circ = qaoa_circuit(h, lr_schedule(1, 0.8, 0.4), np.full(2, 0.5))
        names = [g.name for g in circ.gates]
        assert names.count("MULTIRZ") == 1
        multirz = next(g for g in circ.gates if g.name == "MULTIRZ")
        assert multirz.qubits == (0, 1)
        # init RYs plus 3 mixer rotations per qubit
        assert names.count("RY") == 2 + 4 and names.count("RZ") == 2

    def test_constant_hamiltonian_has_no_phase_gates(self):
        from tanglewalk import IsingPolynomial

        h = IsingPolynomial(2, constant=5.0)
        circ = qaoa_circuit(h, lr_schedule(2, 0.8, 0.4), np.zeros(2))
        assert all(g.name in ("RY", "RZ") for g in circ.gates)
        # mixer RZ angles only, no cost RZ
        assert all(g.theta != 0 for g in circ.gates if g.name == "RZ")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cost_layer_diagonal_action(self, seed):
        rng = np.random.default_rng(seed)
        from tanglewalk import IsingPolynomial

        n = 3
        terms = {(0,): 1.0, (0, 1): -2.0, (0, 1, 2): float(rng.uniform(-1, 1))}
        h = IsingPolynomial(n, terms, constant=float(rng.uniform(-1, 1)))
        gamma = float(rng.uniform(0.1, 1.0))
        layer = CircuitIR(n, cost_layer_gates(h, gamma))
        unitary = dense_circuit_unitary(layer)
        energies = np.diag(dense_cost_matrix(h))
        for idx in range(1 << n):
            expected = np.exp(-1j * gamma * (energies[idx] - h.constant))
            assert unitary[idx, idx] == pytest.approx(expected, abs=1e-12)

    def test_matches_simulate_distribution(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        prior = np.full(4, 0.3)
        schedule = lr_schedule(2, 0.75, 0.30)
        circ = qaoa_circuit(h, schedule, prior)
        probs_circ = np.abs(dense_circuit_unitary(circ)[:, 0]) ** 2
        probs_sim = simulate(h, prior, schedule)
        assert 0.5 * np.abs(probs_circ - probs_sim).sum() < 1e-12

    @pytest.mark.parametrize("bad", [1.5, float("nan")])
    def test_prior_outside_unit_interval(self, tangle2, bad):
        # simulate rejects the same prior; an RY(nan) must never be emitted.
        h = to_ising(encode_hubo(tangle2, 2))
        prior = [0.5, 0.5, bad, 0.5]
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            qaoa_circuit(h, lr_schedule(1, 0.75, 0.30), prior)
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            simulate(h, prior, lr_schedule(1, 0.75, 0.30))


@pytest.mark.parametrize("compiler", [compile_parity, compile_naive])
@pytest.mark.parametrize("gate", [Gate("CX", (0, 1)), Gate("SWAP", (1, 2))])
def test_compilers_reject_cx_and_swap(compiler, gate):
    circ = CircuitIR(3, [Gate("RY", (0,), 0.3), Gate("RZZ", (0, 2), 0.5), gate])
    with pytest.raises(DomainError, match=f"cannot compile {gate.name}"):
        compiler(circ, build_topology("linear", 3))


def digest_compiled(digest, compiled):
    """Feed every compiled gate (name, qubits, exact angle) and both layouts to ``digest``.

    The compilation's metrics are first checked against ``old_metrics``.
    """
    assert compiled.metrics == old_metrics(compiled.circuit)
    for g in compiled.circuit.gates:
        theta = "-" if g.theta is None else g.theta.hex()
        digest.update(f"{g.name} {g.qubits} {theta};".encode())
    for layout in (compiled.initial_layout, compiled.final_layout):
        digest.update(f"{sorted(layout.items())}|".encode())


def compile_digest(layers) -> str:
    """SHA-256 of both compilers' output for each layer on three topologies."""
    digest = hashlib.sha256()
    for layer in layers:
        n = layer.num_qubits
        for topo in (
            build_topology("linear", n),
            acceptance.grid_for(n),
            build_topology("heavy-hex", 1),
        ):
            for compiler in (compile_parity, compile_naive):
                digest_compiled(digest, compiler(layer, topo))
    return digest.hexdigest()


def test_criterion_06_family_compiles_to_pinned_digest():
    # The 300 criterion-06 compilations, pinned: a rewrite of either
    # compiler that changes one gate, angle bit or layout fails here.
    assert compile_digest(acceptance.hubo_layers(50, 4, 8)) == (
        "35f602e21f40336e8a8b4f8c624e9c594983b467dbfe4fb2efa0e6b81ee610a4"
    )


def wide_layer(*tangle_args) -> CircuitIR:
    g = generate_tangle(*tangle_args)
    h = to_ising(encode_hubo(g, default_walk_length(g)))
    return CircuitIR(h.num_qubits, cost_layer_gates(h, 0.3))


# (generate_tangle arguments, width) of compile-wide's layer kinds.
WIDE_LAYERS = [((2, 3, 2, 0.25), 18), ((0, 4, 2, 0.2), 21), ((8, 4, 2, 0.2), 24)]


def test_wide_layers_compile_to_pinned_digest():
    # compile_parity with its own layout search on the compile-wide layers
    # and on a 64-qubit layer of 8466 rotations on heavy-hex:7, pinned so
    # that the planner, ordering and canceller keep every gate and angle bit.
    digest = hashlib.sha256()
    cases = [
        (tangle_args, width, topo_args)
        for tangle_args, width in WIDE_LAYERS
        for topo_args in (("heavy-hex", 2), ("grid", (5, 5)))
    ]
    cases.append(((1, 7, 3, 0.2), 64, ("heavy-hex", 7)))
    for tangle_args, width, topo_args in cases:
        layer = wide_layer(*tangle_args)
        assert layer.num_qubits == width
        digest_compiled(digest, compile_parity(layer, build_topology(*topo_args)))
    assert digest.hexdigest() == (
        "1007ac867a42fbfe95b4df8c358d80ac820c451648d311500975ee1b7de48178"
    )


class TestCompileNaive:
    def test_ladder_counts(self):
        circ = CircuitIR(3, [Gate("MULTIRZ", (0, 1, 2), 0.5)])
        compiled = compile_naive(circ, build_topology("linear", 3))
        names = [g.name for g in compiled.circuit.gates]
        assert names.count("CX") == 4 and names.count("RZ") == 1
        assert compiled.metrics["two_qubit_count"] == 4

    def test_adjacent_rzz_single_gate(self):
        circ = CircuitIR(2, [Gate("RZZ", (0, 1), 0.5)])
        compiled = compile_naive(circ, build_topology("linear", 2))
        assert compiled.metrics["two_qubit_count"] == 1

    def test_routing_inserts_swaps(self):
        circ = CircuitIR(4, [Gate("RZZ", (0, 3), 0.5)])
        compiled = compile_naive(circ, build_topology("linear", 4))
        assert any(g.name == "SWAP" for g in compiled.circuit.gates)
        assert verify_equivalence(circ, compiled)

    def test_layout_seed_deterministic(self):
        circ = CircuitIR(3, [Gate("MULTIRZ", (0, 1, 2), 0.5)])
        topo = build_topology("grid", (2, 2))
        a = compile_naive(circ, topo, layout_seed=5)
        b = compile_naive(circ, topo, layout_seed=5)
        assert a.circuit.gates == b.circuit.gates
        assert verify_equivalence(circ, a)

    def test_topology_too_small(self):
        with pytest.raises(DomainError):
            compile_naive(CircuitIR(4), build_topology("linear", 3))

    def test_one_qubit_multirz_becomes_rz(self):
        circ = CircuitIR(2, [Gate("MULTIRZ", (1,), 0.4), Gate("RZZ", (0, 1), 0.3)])
        compiled = compile_naive(circ, build_topology("linear", 2))
        assert compiled.circuit.gates == [Gate("RZ", (1,), 0.4), Gate("RZZ", (0, 1), 0.3)]
        assert verify_equivalence(circ, compiled)


class TestCompileParity:
    def test_spec_zzz_plan(self):
        circ = CircuitIR(3, [Gate("MULTIRZ", (0, 1, 2), 0.7)])
        compiled = compile_parity(
            circ, build_topology("linear", 3), layout={0: 0, 1: 1, 2: 2}
        )
        assert [(g.name, g.qubits) for g in compiled.circuit.gates] == [
            ("CX", (0, 1)),
            ("RZZ", (1, 2)),
            ("CX", (0, 1)),
        ]

    def test_adjacent_rzz_stays_single(self):
        circ = CircuitIR(2, [Gate("RZZ", (0, 1), 0.5)])
        compiled = compile_parity(circ, build_topology("linear", 2))
        assert compiled.metrics["two_qubit_count"] == 1
        assert all(g.name != "CX" for g in compiled.circuit.gates)

    def test_no_multirz_left(self, tangle2):
        layer, h = hubo_cost_layer(0)
        compiled = compile_parity(layer, build_topology("linear", h.num_qubits))
        assert not compiled.circuit.has_multirz

    def test_compiled_gates_on_coupling_edges(self):
        layer, h = hubo_cost_layer(1, n_nodes=3)
        topo = build_topology("grid", (2, 3))
        for compiler in (compile_parity, compile_naive):
            compiled = compiler(layer, topo)
            for g in compiled.circuit.gates:
                if len(g.qubits) == 2:
                    assert topo.coupled(*g.qubits)

    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence_random_interactions(self, seed):
        rng = np.random.default_rng(seed)
        circ = random_interaction_circuit(rng, 5, 4)
        for topo in (build_topology("linear", 5), build_topology("grid", (2, 3))):
            parity = compile_parity(circ, topo)
            naive = compile_naive(circ, topo)
            assert verify_equivalence(circ, parity)
            assert verify_equivalence(circ, naive)
            assert (
                parity.metrics["two_qubit_count"] <= naive.metrics["two_qubit_count"]
            )

    def test_hubo_layer_equivalence_all_topologies(self):
        layer, h = hubo_cost_layer(3, n_nodes=3)
        assert h.num_qubits == 6
        for topo in (
            build_topology("linear", 6),
            build_topology("grid", (2, 3)),
            build_topology("heavy-hex", 1),
        ):
            parity = compile_parity(layer, topo)
            naive = compile_naive(layer, topo)
            assert verify_equivalence(layer, parity)
            assert verify_equivalence(layer, naive)

    def test_cancellation_across_repeated_rotation(self):
        circ = CircuitIR(
            3,
            [Gate("MULTIRZ", (0, 1, 2), 0.4), Gate("MULTIRZ", (0, 1, 2), 0.9)],
        )
        compiled = compile_parity(
            circ, build_topology("linear", 3), layout={0: 0, 1: 1, 2: 2}
        )
        # networks between the two rotations cancel completely
        assert compiled.metrics["two_qubit_count"] == 4
        assert verify_equivalence(circ, compiled)

    def test_overlapping_chain_counts(self):
        sets = [(0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4), (1, 2, 3, 4)]
        circ = CircuitIR(
            5, [Gate("MULTIRZ", s, 0.1 * (i + 1)) for i, s in enumerate(sets)]
        )
        topo = build_topology("linear", 5)
        parity = compile_parity(circ, topo, layout={i: i for i in range(5)})
        naive = compile_naive(circ, topo)
        assert parity.metrics["two_qubit_count"] <= 14
        assert naive.metrics["two_qubit_count"] >= 24
        assert verify_equivalence(circ, parity)
        assert verify_equivalence(circ, naive)

    def test_full_qaoa_circuit_compiles_and_verifies(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        circ = qaoa_circuit(h, lr_schedule(1, 0.75, 0.30), np.full(4, 0.5))
        topo = build_topology("grid", (2, 2))
        compiled = compile_parity(circ, topo)
        assert verify_equivalence(circ, compiled)

    def test_deterministic(self):
        layer, h = hubo_cost_layer(4)
        topo = build_topology("linear", h.num_qubits)
        a = compile_parity(layer, topo)
        b = compile_parity(layer, topo)
        assert a.circuit.gates == b.circuit.gates

    def test_layout_is_fixed(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        circ = qaoa_circuit(h, lr_schedule(2, 0.75, 0.30), np.full(4, 0.5))
        for topo in (build_topology("linear", 6), build_topology("grid", (2, 3))):
            compiled = compile_parity(circ, topo)
            assert compiled.final_layout == compiled.initial_layout
            assert verify_equivalence(circ, compiled)

    @pytest.mark.parametrize(
        "layout, message",
        [
            ({0: 0, 1: 1}, "every logical qubit"),
            ({0: 0, 1: 1, 2: 1}, "two logical qubits"),
            ({0: 0, 1: 1, 2: 3}, "outside the topology"),
        ],
    )
    def test_rejects_bad_layout(self, layout, message):
        circ = CircuitIR(3, [Gate("MULTIRZ", (0, 1, 2), 0.7)])
        with pytest.raises(DomainError, match=message):
            compile_parity(circ, build_topology("linear", 3), layout=layout)


class TestCompiledMetrics:
    def test_metrics_are_read_from_the_circuit(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        circ = qaoa_circuit(h, lr_schedule(1, 0.75, 0.30), np.full(4, 0.5))
        compiled = compile_parity(circ, build_topology("linear", 4))
        assert compiled.metrics == metrics(compiled.circuit)
        stripped = CircuitIR(4, [g for g in compiled.circuit.gates if g.name != "CX"])
        copy = dataclasses.replace(compiled, circuit=stripped)
        assert copy.metrics == metrics(stripped) != compiled.metrics

    def test_compiling_takes_no_census_until_metrics_is_read(self, monkeypatch):
        layer, h = hubo_cost_layer(4)
        census = []
        monkeypatch.setattr(transpile, "metrics", lambda circ: census.append(circ) or metrics(circ))
        topo = build_topology("linear", h.num_qubits)
        compiled = [compile_parity(layer, topo), compile_naive(layer, topo)]
        assert census == []
        for c in compiled:
            assert c.metrics == c.metrics == metrics(c.circuit)
        assert census == [c.circuit for c in compiled]


class TestCompilersAreVerified:
    """Each compiler's output passes ``verify_equivalence`` or raises an internal error."""

    def test_dropped_cx_fails_parity(self, monkeypatch):
        cancel = transpile._cancel_adjacent_cx

        def drop_first_cx(gates):
            out = cancel(gates)
            first_cx = next(i for i, g in enumerate(out) if len(g) == 2)
            return out[:first_cx] + out[first_cx + 1 :]

        monkeypatch.setattr(transpile, "_cancel_adjacent_cx", drop_first_cx)
        layer, h = hubo_cost_layer(4)
        with pytest.raises(TanglewalkError, match="internal"):
            compile_parity(layer, build_topology("linear", h.num_qubits))

    def test_missing_swap_fails_naive(self, monkeypatch, tmp_path):
        # The pinned naive compile, whose 13 SWAPs are routed but not emitted.
        route = transpile._route_adjacent
        monkeypatch.setattr(transpile, "_route_adjacent", lambda *args: route(*args[:-1], []))
        monkeypatch.chdir(tmp_path)
        main(["generate", "--seed", "2", "--nodes", "2", "--max-weight", "1", "-o", "g.json"])
        argv = ["compile", "--graph", "g.json", "--topology", "linear:8", "--method", "naive"]
        with pytest.raises(TanglewalkError, match="internal"):
            main([*argv, "--layout-seed", "3", "-o", "c.json"])

    def test_unpaired_ry_is_internal_error(self, monkeypatch):
        # The verifier's DomainError would blame the input, which passed its checks.
        compile_run = transpile._compile_diagonal_run
        monkeypatch.setattr(
            transpile,
            "_compile_diagonal_run",
            lambda *args: [*compile_run(*args), Gate("RY", (0,), 0.1)],
        )
        layer, h = hubo_cost_layer(4)
        with pytest.raises(TanglewalkError, match="internal") as err:
            compile_parity(layer, build_topology("linear", h.num_qubits))
        assert type(err.value) is TanglewalkError


def test_hop_table_is_built_once_per_topology(monkeypatch):
    # search_layout and compile_parity both read it: one breadth-first
    # search per qubit for the first compile, none for the next.
    layer, _ = hubo_cost_layer(0)
    topo = build_topology("heavy-hex", 1)
    searches = []
    distances_from = Topology.distances_from

    def counted(self, src):
        searches.append(src)
        return distances_from(self, src)

    monkeypatch.setattr(Topology, "distances_from", counted)
    compile_parity(layer, topo)
    assert sorted(searches) == list(range(topo.num_qubits))
    compile_parity(layer, topo)
    assert len(searches) == topo.num_qubits


class TestSearchLayout:
    def test_exhaustive_on_small_instance(self):
        circ = CircuitIR(3, [Gate("MULTIRZ", (0, 2), 0.5)])
        layout = search_layout(circ, build_topology("linear", 3))
        # the two interacting qubits end up adjacent
        assert abs(layout[0] - layout[2]) == 1

    def test_no_interactions_keeps_identity(self):
        circ = CircuitIR(3, [Gate("RY", (0,), 0.1)])
        assert search_layout(circ, build_topology("linear", 3)) == {0: 0, 1: 1, 2: 2}

    def test_injective(self):
        layer, h = hubo_cost_layer(2, n_nodes=3)
        layout = search_layout(layer, build_topology("grid", (3, 3)))
        assert len(set(layout.values())) == h.num_qubits

    @pytest.mark.parametrize("n_log, n_phys", [(5, 3), (9, 7)])
    def test_rejects_topology_smaller_than_circuit(self, n_log, n_phys):
        circ = CircuitIR(n_log, [Gate("MULTIRZ", (0, n_log - 1), 0.5)])
        with pytest.raises(DomainError, match=f"topology has {n_phys} qubits, circuit needs {n_log}"):
            search_layout(circ, build_topology("linear", n_phys))


def hop_distances(topo) -> np.ndarray:
    """All-pairs hop counts by Floyd-Warshall over the edge list."""
    n = topo.num_qubits
    d = np.full((n, n), n)
    np.fill_diagonal(d, 0)
    for a, b in topo.edges:
        d[a, b] = d[b, a] = 1
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def support_costs(circ, topo, placements: np.ndarray) -> np.ndarray:
    """Pairwise-distance sum inside every rotation support, per placement row."""
    d = hop_distances(topo)
    total = np.zeros(len(placements), dtype=int)
    for g in circ.gates:
        if g.name in ("RZZ", "MULTIRZ") and len(g.qubits) >= 2:
            for a, b in itertools.combinations(g.qubits, 2):
                total += d[placements[:, a], placements[:, b]]
    return total


def assert_layout_matches_oracle(circ, topo):
    new = search_layout(circ, topo)
    old = full_rescan_search_layout(circ, topo)
    assert list(new.items()) == list(old.items())
    n = circ.num_qubits
    chosen, identity = support_costs(circ, topo, np.array([[new[q] for q in range(n)], range(n)]))
    assert chosen <= identity  # identity is always a candidate
    if math.perm(topo.num_qubits, n) <= EXHAUSTIVE_LAYOUT_CAP:
        every = np.array(list(itertools.permutations(range(topo.num_qubits), n)))
        assert chosen == support_costs(circ, topo, every).min()


class TestLayoutSearchMatchesOracle:
    """The delta-scored search returns the full-rescan search's layout, item by item."""

    def test_criterion_06_family(self):
        exhaustive = 0
        for layer in acceptance.hubo_layers(50, 4, 8):
            n = layer.num_qubits
            for topo in (
                build_topology("linear", n),
                acceptance.grid_for(n),
                build_topology("heavy-hex", 1),
            ):
                assert_layout_matches_oracle(layer, topo)
                exhaustive += math.perm(topo.num_qubits, n) <= EXHAUSTIVE_LAYOUT_CAP
        assert exhaustive > 0

    def test_criterion_07_family(self):
        for layer in acceptance.hubo_layers(20, 8, 16):
            assert_layout_matches_oracle(layer, acceptance.grid_for(layer.num_qubits))

    @pytest.mark.parametrize("tangle_args, width", WIDE_LAYERS)
    @pytest.mark.parametrize("topo_args", [("heavy-hex", 2), ("grid", (5, 5))])
    def test_wide_layers(self, tangle_args, width, topo_args):
        layer = wide_layer(*tangle_args)
        assert layer.num_qubits == width
        assert_layout_matches_oracle(layer, build_topology(*topo_args))


PLANNER_TOPOLOGIES = [
    ("linear", 12),
    ("grid", (4, 5)),
    ("grid", (5, 5)),
    ("heavy-hex", 1),
    ("heavy-hex", 2),
    ("heavy-hex", 4),
]


def random_supports(topo, seed: int, count: int, smallest: int) -> list[frozenset[int]]:
    rng = np.random.default_rng(seed)
    sizes = rng.integers(smallest, min(8, topo.num_qubits) + 1, size=count)
    return [frozenset(rng.choice(topo.num_qubits, size=k, replace=False).tolist()) for k in sizes]


def as_plan(network, edge, theta) -> RotationPlan:
    """The compiler's (control, target) pairs, RZZ edge and angle as the oracles' record."""
    return RotationPlan(tuple(Gate("CX", g) for g in network), Gate("RZZ", edge, theta))


def networks_of(plans: list[RotationPlan]) -> list[tuple]:
    """The oracles' plans as the (control, target) networks ``_order_plans`` takes."""
    return [tuple(g.qubits for g in plan.network) for plan in plans]


class TestPlanRotationMatchesOracle:
    @pytest.mark.parametrize("index", range(len(PLANNER_TOPOLOGIES)))
    def test_random_supports(self, index):
        # 6 x 200 supports: the single-edge plan equals the cheapest of the
        # candidate plans the oracle builds and ranks.
        topo = build_topology(*PLANNER_TOPOLOGIES[index])
        for support in random_supports(topo, index, 200, 2):
            theta = float(len(support)) / 7
            plan = as_plan(*_plan_rotation(topo, support), theta)
            assert plan == old_plan_rotation(topo, support, theta)

    @pytest.mark.parametrize("index", range(len(PLANNER_TOPOLOGIES)))
    def test_steiner_leaves_are_terminals(self, index):
        # The planner collects every child subtree unchecked, which is sound
        # only because no subtree is free of support qubits.
        topo = build_topology(*PLANNER_TOPOLOGIES[index])
        for support in random_supports(topo, 100 + index, 200, 1):
            adj = _steiner_tree(topo, support)
            assert support <= set(adj)
            assert all(node in support for node, nbrs in adj.items() if len(nbrs) <= 1)

    @pytest.mark.parametrize("topo_args", [("heavy-hex", 7), ("grid", (9, 9))])
    def test_steiner_tree_on_wide_supports(self, topo_args):
        # Supports up to 24 qubits, where many terminals tie on their
        # distance to the tree and the smaller terminal must join first.
        topo = build_topology(*topo_args)
        rng = np.random.default_rng(7)
        for _ in range(60):
            support = frozenset(
                rng.choice(topo.num_qubits, size=int(rng.integers(2, 25)), replace=False).tolist()
            )
            assert _steiner_tree(topo, support) == old_steiner_tree(topo, support)


def plans_of(layer: CircuitIR, topo) -> list[tuple]:
    """(network, edge, theta) for each multi-qubit rotation, placed by ``search_layout``."""
    layout = search_layout(layer, topo)
    return [
        (*_plan_rotation(topo, frozenset(layout[q] for q in g.qubits)), g.theta)
        for g in layer.gates
        if len(g.qubits) > 1
    ]


def random_plans(rng, m: int, alphabet: int, max_len: int) -> list[RotationPlan]:
    """Plans over a tiny CX alphabet, so prefix overlaps tie heavily."""
    gates = [Gate("CX", (a, a + 1)) for a in range(alphabet)]
    plans = []
    for _ in range(m):
        picks = rng.integers(0, alphabet, size=int(rng.integers(0, max_len + 1)))
        plans.append(RotationPlan(tuple(gates[i] for i in picks), Gate("RZ", (0,), 0.1)))
    return plans


class TestOrderPlansMatchesOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_greedy(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(ORDER_CAP + 1, 60))
        plans = random_plans(rng, m, int(rng.integers(1, 4)), int(rng.integers(0, 6)))
        assert _order_plans(networks_of(plans)) == greedy_order_plans(plans, ORDER_CAP)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("order_cap", [0, ORDER_CAP])
    def test_random_small(self, seed, order_cap, monkeypatch):
        # A cap of 0 sends these few plans down the greedy branch.
        monkeypatch.setattr(transpile, "ORDER_CAP", order_cap)
        rng = np.random.default_rng(100 + seed)
        plans = random_plans(rng, int(rng.integers(0, 8)), 2, 4)
        assert _order_plans(networks_of(plans)) == greedy_order_plans(plans, order_cap)

    def test_all_networks_empty(self):
        plans = random_plans(np.random.default_rng(0), 20, 1, 0)
        assert _order_plans(networks_of(plans)) == list(range(20))

    def test_plans_of_a_wide_layer(self):
        plans = plans_of(wide_layer(8, 4, 2, 0.2), build_topology("heavy-hex", 2))
        assert len(plans) > ORDER_CAP
        oracle_plans = [as_plan(*plan) for plan in plans]
        assert _order_plans([network for network, *_ in plans]) == greedy_order_plans(
            oracle_plans, ORDER_CAP
        )


def as_gate(g: tuple) -> Gate:
    return Gate("CX", g) if len(g) == 2 else Gate("RZZ", g[:2], g[2])


# CX and RZZ over 2-5 qubits, four CXs to one RZZ: few distinct gates, so
# equal CXs meet often and one cancellation often exposes another.
cx_or_rzz = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 4))
        .filter(lambda g: g[0] != g[1])
        .map(lambda g: (g[0], g[1], 0.5) if g[2] == 0 else (g[0], g[1])),
        max_size=60,
    )
)


class TestCancelAdjacentCxMatchesOracle:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(cx_or_rzz)
    # Cancelling the inner pair exposes the outer one: a canceller that does
    # not back up one gate, or that restarts from the front, pairs other CXs.
    @example([(0, 1), (1, 2), (1, 2), (0, 1), (2, 1), (0, 1)])
    @example([(1, 0), (1, 2), (2, 1), (2, 1), (1, 0), (1, 0)])
    def test_random_lists(self, gates):
        new = [as_gate(g) for g in _cancel_adjacent_cx(gates)]
        assert new == old_cancel_adjacent_cx([as_gate(g) for g in gates])

    def test_emitted_runs_of_wide_layers(self):
        # The lists compile_parity hands the canceller on the compile-wide
        # layers, where chains of cancellations back up across rotations.
        for tangle_args, _ in WIDE_LAYERS:
            plans = plans_of(wide_layer(*tangle_args), build_topology("heavy-hex", 2))
            emitted = []
            for idx in _order_plans([network for network, *_ in plans]):
                network, edge, theta = plans[idx]
                emitted += [*network, (*edge, theta), *reversed(network)]
            new = _cancel_adjacent_cx(emitted)
            assert len(new) < len(emitted)
            old = old_cancel_adjacent_cx([as_gate(g) for g in emitted])
            assert [as_gate(g) for g in new] == old
