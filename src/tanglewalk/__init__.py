"""Tangle-walk optimisation toolkit.

Encode oriented-tangle walk instances as QUBO/HUBO binary polynomials,
solve them with an exactly simulated warm-started linear-ramp QAOA
feedback loop, and compile the cost circuits to limited-connectivity
gate sets.  Everything is deterministic given explicit seeds and is
validated against brute-force oracles in the test suite.
"""

from .circuits import CircuitIR, Gate, metrics, verify_equivalence
from .encoding import (
    DecodedWalk,
    HuboLayout,
    QuboLayout,
    decode_hubo,
    decode_qubo,
    encode_hubo,
    encode_qubo,
    indicator_polynomial,
)
from .errors import (
    ConfigError,
    DomainError,
    GenerationError,
    SizeCapError,
    TanglewalkError,
)
from .graphs import (
    OrientedGraph,
    WalkOracleResult,
    default_walk_length,
    enumerate_optimal_walks,
    flip,
    generate_tangle,
    is_valid_walk,
    walk_cost,
)
from .ising import IsingPolynomial, diagonal, to_ising
from .maxsat import export_wcnf
from .noise import p_good, required_shots
from .polynomials import BinaryPolynomial
from .qaoa import (
    QaoaSchedule,
    RunConfig,
    RunRecord,
    SampleBatch,
    beta_t,
    cvar_filter,
    initial_prior,
    iterative_qaoa,
    lr_schedule,
    sample,
    simulate,
    sweep,
    update_prior,
)
from .topology import Topology, build_topology
from .transpile import (
    CompiledCircuit,
    compile_naive,
    compile_parity,
    cost_layer_gates,
    qaoa_circuit,
    search_layout,
)

__version__ = "0.1.0"
