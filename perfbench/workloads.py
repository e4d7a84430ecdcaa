"""The benchmark's workloads: how each builds its units from a seed, runs
them through tanglewalk's public API, and checks their outputs.

A workload's ``plan(seed)`` draws its instances from the seed and computes
the references their outputs are checked against; it is the benchmark's own
work and runs once, untimed.  ``setup(plan)`` builds one *pass*, a fixed
list of units, from the plan through the package; ``setup_s`` times it.
The timed phase repeats the pass, so every pass does the same work.  ``run``
calls into the package through module attributes (``qaoa.iterative_qaoa``,
not a name bound at import), so the tracer's wrappers see every call.
``check`` compares an output with references built by ``oracles``, which
never calls into the package.  ``quality`` summarises one pass's outputs.

Instance sizes are fixed per workload (or drawn in fixed proportions), so
that the work in a pass varies little from seed to seed.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

import oracles
from tanglewalk import circuits, encoding, errors, graphs, ising, qaoa, topology, transpile

REFERENCE = Path(__file__).with_name("sweep_reference.json")

# The schedules and solver settings of the paper's HUBO runs (acceptance
# criterion 05) and QUBO sweeps.
HUBO_SCHEDULE = (0.75, 0.30)
HUBO_CONFIG = dict(p=1, shots=400, alpha=0.1, iterations=5, target_energy=0.0)
SWEEP_P = (1, 3)
SWEEP_GRID = tuple((b, g) for b in (0.45, 0.6, 0.75, 0.9) for g in (0.08, 0.12, 0.16, 0.2))
COST_GAMMA = 0.3
SPOT_SAMPLES = 16  # random basis states per spot check, besides x = 0
# Per-pass output summaries; a workload reports those that apply to it and
# the others read 0.
QUALITY = (
    "qaoa.success_rate",
    "qaoa.iters_to_opt",
    "transpile.search_layout.objective",
    "transpile.two_qubit_count",
    "transpile.two_qubit_depth",
)


# HUBO instance kinds: name -> (qubits, generator settings, Ising term
# count).  The count is the family's most common one at that width, which
# is also its largest (every monomial the encoding can produce; about half
# of the tangles of that width have it), so every instance of a kind has
# the same number of terms and the work per pass varies little by seed.
HUBO_KINDS = {
    "4a": (4, (2, 3, 0.25), 15),
    "6a": (6, (2, 3, 0.25), 26),
    "6b": (6, (2, 4, 0.3), 26),
    "8a": (8, (2, 3, 0.25), 38),
    "8b": (8, (2, 4, 0.3), 38),
    "18a": (18, (3, 2, 0.25), 361),
    "18b": (18, (4, 2, 0.2), 301),
    "21": (21, (4, 2, 0.2), 368),
    "24": (24, (4, 2, 0.2), 438),
}


def tangle(kind: str, generator_seed: int):
    """The planted tangle (graph, walk length) of one of ``HUBO_KINDS``."""
    g = graphs.generate_tangle(generator_seed, *HUBO_KINDS[kind][1])
    return g, graphs.default_walk_length(g)


def hubo_seed(rng: random.Random, kind: str, seen: set) -> int:
    """Generator seed of the next planted tangle of kind ``kind``.

    Seeds are drawn from ``rng``; tangles of another width or term count,
    or already in ``seen``, are skipped.
    """
    qubits, _, terms = HUBO_KINDS[kind]
    for _ in range(100_000):
        generator_seed = rng.randrange(1_000_000)
        try:
            g, T = tangle(kind, generator_seed)
        except errors.GenerationError:
            continue
        key = (g.node_count, g.weights, tuple(sorted(g.edges)))
        if key in seen or encoding.HuboLayout.for_graph(g, T).num_vars != qubits:
            continue
        if len(ising.to_ising(encoding.encode_hubo(g, T)).terms) == terms:
            seen.add(key)
            return generator_seed
    raise ValueError(f"no planted tangle of kind {kind} found")


def cost_layer(g, T) -> circuits.CircuitIR:
    h = ising.to_ising(encoding.encode_hubo(g, T))
    return circuits.CircuitIR(h.num_qubits, transpile.cost_layer_gates(h, COST_GAMMA))


def gate_triples(circ) -> list[tuple]:
    return [(g.name, g.qubits, g.theta) for g in circ.gates]


def layout_objective(circ, layout, topo) -> int:
    """Sum of pairwise physical distances inside every multi-qubit rotation."""
    dist = [topo.distances_from(p) for p in range(topo.num_qubits)]
    total = 0
    for g in circ.gates:
        if len(g.qubits) >= 2:
            placed = [layout[q] for q in g.qubits]
            total += sum(dist[a][b] for i, a in enumerate(placed) for b in placed[i + 1 :])
    return total


# ---------------------------------------------------------------------------
# solve-hubo: encode -> to_ising -> iterative_qaoa -> decode, as `pipeline` does


@dataclass
class SolveUnit:
    graph: object
    T: int
    run_seed: int
    oracle_min: int


class SolveHubo:
    name = "solve-hubo"
    # Two 18-qubit instances of each family per pass, each solved with two
    # run seeds.
    kinds = ("18a", "18b")
    per_kind = 2
    run_seeds = 2

    def plan(self, seed: int) -> list[tuple]:
        """(kind, generator seed, run seeds, oracle minimum) per instance."""
        rng = random.Random(seed)
        seen: set = set()
        instances = []
        for _ in range(self.per_kind):
            for kind in self.kinds:
                generator_seed = hubo_seed(rng, kind, seen)
                g, T = tangle(kind, generator_seed)
                best = oracles.min_walk_cost(g.weights, g.edges, T)
                run_seeds = [rng.randrange(1 << 31) for _ in range(self.run_seeds)]
                instances.append((kind, generator_seed, run_seeds, best))
        return instances

    def setup(self, plan) -> list[SolveUnit]:
        units = []
        for kind, generator_seed, run_seeds, best in plan:
            g, T = tangle(kind, generator_seed)
            units.extend(SolveUnit(g, T, run_seed, best) for run_seed in run_seeds)
        return units

    def run(self, unit: SolveUnit):
        g = unit.graph
        layout = encoding.HuboLayout.for_graph(g, unit.T)
        poly = encoding.encode_hubo(g, unit.T)
        h = ising.to_ising(poly)
        dbeta, dgamma = HUBO_SCHEDULE
        config = qaoa.RunConfig(dbeta=dbeta, dgamma=dgamma, seed=unit.run_seed, **HUBO_CONFIG)

        def decode(bits):
            decoded = encoding.decode_hubo(bits, layout, g)
            return {"valid": decoded.valid, "steps": decoded.steps}

        record = qaoa.iterative_qaoa(h, "hubo", config, layout=layout, decoder=decode)
        return poly, layout.bits_per_step, record

    def check(self, unit: SolveUnit, output) -> bool:
        poly, bits_per_step, record = output
        n = poly.num_vars
        bits = tuple((record.best_index >> q) & 1 for q in range(n))
        if record.best_index < 0 or tuple(record.best_bits) != bits:
            return False
        # best_energy must be the cost-diagonal entry at best_index.
        if record.best_energy != oracles.eval_poly(poly.terms, bits):
            return False
        if record.optimum_iteration is None:
            return True
        steps = oracles.decode_steps(bits, unit.T, bits_per_step)
        walk_ok = all((a, b) in unit.graph.edges for a, b in zip(steps, steps[1:]))
        return (
            walk_ok
            and record.decoded_walk["valid"]
            and list(record.decoded_walk["steps"]) == steps
            and oracles.walk_cost(unit.graph.weights, steps) == unit.oracle_min
        )

    def quality(self, units, outputs) -> dict:
        found = [o[2].optimum_iteration for o in outputs if o and o[2].optimum_iteration]
        return {
            "qaoa.success_rate": len(found) / len(units),
            "qaoa.iters_to_opt": statistics.fmean(found) if found else 0.0,
        }


# ---------------------------------------------------------------------------
# sweep-qubo: encode -> to_ising -> sweep over a grid, as `sweep` does


@dataclass
class SweepUnit:
    graph: object
    T: int
    expected: list  # rows (p, dbeta, dgamma, p_opt) from the reference table


class SweepQubo:
    name = "sweep-qubo"
    # Drawn from the stored reference catalogue: two 16-qubit instances and
    # one of 18 qubits per pass.  Each sweep call evaluates 16 grid points at
    # two depths from one cost diagonal.
    picks = {16: 2, 18: 1}

    def plan(self, seed: int) -> list[dict]:
        """The reference table's entries for this seed's instances."""
        table = json.loads(REFERENCE.read_text())
        if [list(x) for x in SWEEP_GRID] != table["grid"] or list(SWEEP_P) != table["p"]:
            raise ValueError("sweep_reference.json was made for another grid")
        rng = random.Random(seed)
        picked = []
        for qubits, count in self.picks.items():
            entries = [e for e in table["instances"] if e["qubits"] == qubits]
            picked.extend(rng.sample(entries, count))
        return picked

    def setup(self, plan) -> list[SweepUnit]:
        units = []
        for entry in plan:
            g = graphs.generate_tangle(entry["generator_seed"], *entry["family"])
            T = graphs.default_walk_length(g)
            if 2 * g.node_count * T != entry["qubits"]:
                raise ValueError(f"reference instance {entry} has another width")
            units.append(SweepUnit(g, T, entry["rows"]))
        return units

    def run(self, unit: SweepUnit):
        h = ising.to_ising(encoding.encode_qubo(unit.graph, unit.T))
        prior = qaoa.initial_prior("qubo", encoding.QuboLayout(unit.T, unit.graph.node_count))
        return qaoa.sweep(h, prior, SWEEP_GRID, SWEEP_P)

    def check(self, unit: SweepUnit, rows) -> bool:
        if len(rows) != len(unit.expected):
            return False
        return all(
            tuple(got[:3]) == tuple(want[:3]) and abs(got[3] - want[3]) <= 1e-9
            for got, want in zip(rows, unit.expected)
        )

    def quality(self, units, outputs) -> dict:
        return {}


# ---------------------------------------------------------------------------
# compile-verify: compile small cost layers both ways and verify each output


@dataclass
class CompileUnit:
    layer: object
    topo: object
    method: str  # "parity" or "naive"
    spot_xs: list | None = None  # compile-wide: basis states for the spot check


class CompileVerify:
    name = "compile-verify"
    # The family of acceptance criterion 06: HUBO cost layers of 4-8 qubits
    # on linear, a 2x4 grid and heavy-hex:1, from criterion 06's two-node
    # generator settings (its other settings give 9 or more qubits).  Sizes
    # 4, 6 and 8 come in about the proportions criterion 06 draws them.
    kinds = ("4a", "6a", "6b", "8a", "8b", "8a")
    methods = ("parity", "naive")

    def plan(self, seed: int) -> list[tuple]:
        """(kind, generator seed) per cost layer."""
        rng = random.Random(seed)
        seen: set = set()
        return [(kind, hubo_seed(rng, kind, seen)) for kind in self.kinds]

    def setup(self, plan) -> list[CompileUnit]:
        grid = topology.build_topology("grid", (2, 4))
        heavy_hex = topology.build_topology("heavy-hex", 1)
        units = []
        for kind, generator_seed in plan:
            layer = cost_layer(*tangle(kind, generator_seed))
            size = layer.num_qubits
            for topo in (topology.build_topology("linear", size), grid, heavy_hex):
                for method in self.methods:
                    units.append(CompileUnit(layer, topo, method))
        return units

    def run(self, unit: CompileUnit):
        if unit.method == "parity":
            compiled = transpile.compile_parity(unit.layer, unit.topo)
        else:
            compiled = transpile.compile_naive(unit.layer, unit.topo)
        return compiled, circuits.verify_equivalence(unit.layer, compiled)

    def check(self, unit: CompileUnit, output) -> bool:
        # The package's own verifier must agree, and so must the benchmark's
        # basis-state check, which here covers all 2^n logical states.
        compiled, verified = output
        return verified is True and spot_check(unit, compiled, range(1 << unit.layer.num_qubits))

    def quality(self, units, outputs) -> dict:
        return two_qubit_totals([o[0] for o in outputs if o])


def spot_check(unit: CompileUnit, compiled, xs) -> bool:
    return oracles.spot_check(
        gate_triples(unit.layer),
        gate_triples(compiled.circuit),
        unit.topo.num_qubits,
        compiled.initial_layout,
        compiled.final_layout,
        xs,
    )


def two_qubit_totals(compiled) -> dict:
    return {
        "transpile.two_qubit_count": sum(c.metrics["two_qubit_count"] for c in compiled),
        "transpile.two_qubit_depth": sum(c.metrics["two_qubit_depth"] for c in compiled),
    }


# ---------------------------------------------------------------------------
# compile-wide: layout search and parity compilation of wide cost layers


class CompileWide:
    name = "compile-wide"
    # HUBO cost layers of 18, 21 and 24 qubits, each on heavy-hex:2 and a
    # 5x5 grid (25 physical qubits).  Too wide for a dense verify, so each
    # output gets the benchmark's basis-state spot check instead.
    kinds = ("18a", "21", "24")

    def plan(self, seed: int) -> list[tuple]:
        """(kind, generator seed, spot-check states per topology) per cost layer."""
        rng = random.Random(seed)
        seen: set = set()
        layers = []
        for kind in self.kinds:
            generator_seed = hubo_seed(rng, kind, seen)
            width = HUBO_KINDS[kind][0]
            xs = [
                [0] + [rng.randrange(1 << width) for _ in range(SPOT_SAMPLES)]
                for _ in range(2)
            ]
            layers.append((kind, generator_seed, xs))
        return layers

    def setup(self, plan) -> list[CompileUnit]:
        topos = (topology.build_topology("heavy-hex", 2), topology.build_topology("grid", (5, 5)))
        units = []
        for kind, generator_seed, xs in plan:
            layer = cost_layer(*tangle(kind, generator_seed))
            for topo, spot_xs in zip(topos, xs):
                units.append(CompileUnit(layer, topo, "parity", spot_xs))
        return units

    def run(self, unit: CompileUnit):
        layout = transpile.search_layout(unit.layer, unit.topo)
        return layout, transpile.compile_parity(unit.layer, unit.topo, layout=layout)

    def check(self, unit: CompileUnit, output) -> bool:
        layout, compiled = output
        if compiled.method == "parity" and compiled.initial_layout != layout:
            return False
        return spot_check(unit, compiled, unit.spot_xs)

    def quality(self, units, outputs) -> dict:
        done = [(u, o) for u, o in zip(units, outputs) if o]
        totals = two_qubit_totals([o[1] for _, o in done])
        totals["transpile.search_layout.objective"] = sum(
            layout_objective(u.layer, o[0], u.topo) for u, o in done
        )
        return totals


WORKLOADS = {w.name: w for w in (SolveHubo(), SweepQubo(), CompileVerify(), CompileWide())}
