"""The benchmark's span tracer still binds every layer it times.

``perfbench/spans.py`` wraps the package's layer functions and reads their
arguments by parameter name, so renaming one breaks only a traced benchmark
run.  This test runs every layer once, on tiny inputs, under a ``Tracer``.
"""

import importlib.util
from pathlib import Path

import numpy as np

import tanglewalk
from tanglewalk import HuboLayout, RunConfig

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer(tangle2):
    spans = load_spans()
    # Calls go through the package's attributes, which the tracer replaces.
    with spans.Tracer() as tracer:
        layout = HuboLayout.for_graph(tangle2, 2)
        h = tanglewalk.to_ising(tanglewalk.encode_hubo(tangle2, 2))
        config = RunConfig(p=2, dbeta=0.75, dgamma=0.3, shots=50, alpha=0.5, iterations=2)
        record = tanglewalk.iterative_qaoa(h, "hubo", config, layout=layout)
        tanglewalk.decode_hubo(record.best_bits, layout, tangle2)
        tanglewalk.sweep(h, np.full(h.num_qubits, 0.5), [(0.5, 0.5)], [1])
        circ = tanglewalk.qaoa_circuit(h, tanglewalk.lr_schedule(1, 0.75, 0.3), [0.5] * 4)
        topo = tanglewalk.build_topology("linear", 4)
        parity = tanglewalk.compile_parity(circ, topo)
        naive = tanglewalk.compile_naive(circ, topo)
        assert tanglewalk.verify_equivalence(parity, naive)
    assert set(tracer.self_s) == {*spans.LAYERS}
    expected = {
        "encoding.encode": {"terms_out"},
        "ising.to_ising": {"terms_out"},
        "ising.diagonal": {"calls", "term_states"},
        "qaoa.iterative_qaoa": {"iterations"},
        "qaoa.simulate": {"calls", "amp_updates"},
        "qaoa.sample": {"shots"},
        "qaoa.cvar_filter": {"shots_in", "kept"},
        "transpile.compile_parity": {"calls", "nested_calls", "rotations_in", "gates_out"},
        "transpile.compile_naive": {"calls", "nested_calls", "rotations_in", "gates_out"},
        "circuits.verify_equivalence": {"calls", "amplitudes"},
    }
    assert {name: set(counts) for name, counts in tracer.counts.items()} == expected
    # Each compile verifies its output inside its own span, so the benchmark
    # can tell those verifies from its own by their parent.
    names = [span[0] for span in tracer.spans]
    verify_parents = [
        None if parent is None else names[parent]
        for name, _, _, parent, *_ in tracer.spans
        if name == "circuits.verify_equivalence"
    ]
    assert verify_parents == ["transpile.compile_parity", "transpile.compile_naive", None]
    assert tracer.counts["qaoa.simulate"]["calls"] == len(record.iterations) == 2


def test_verifier_phase_table_traces_as_diagonal():
    # The pi/2 triple off by 1e-3 passes no shortcut: its relative phases are
    # tabulated by ising.diagonal, inside the verify span.
    spans = load_spans()
    triple = tanglewalk.CircuitIR(
        2,
        [
            tanglewalk.Gate("RZ", (0,), np.pi),
            tanglewalk.Gate("RZ", (1,), np.pi),
            tanglewalk.Gate("RZZ", (0, 1), -np.pi + 1e-3),
        ],
    )
    with spans.Tracer() as tracer:
        assert not tanglewalk.verify_equivalence(triple, tanglewalk.CircuitIR(2))
    names = [span[0] for span in tracer.spans]
    diagonal_parents = [
        names[parent] for name, _, _, parent, *_ in tracer.spans if name == "ising.diagonal"
    ]
    assert diagonal_parents == ["circuits.verify_equivalence"]
