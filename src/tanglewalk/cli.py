"""Command-line front end.

One subcommand per library capability plus an end-to-end ``pipeline``.
All randomness flows through explicit seeds, outputs are canonical JSON
or CSV, and reruns with the same flags are byte-identical.

Exit codes: 0 ok, 2 configuration, 3 domain error, 4 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import encoding, graphs, maxsat
from .encoding import HuboLayout, QuboLayout, decode_hubo, decode_qubo, encode_hubo, encode_qubo
from .errors import ConfigError, DomainError, SizeCapError
from .graphs import (
    OrientedGraph,
    default_walk_length,
    enumerate_optimal_walks,
    generate_tangle,
    graph_from_dict,
    graph_to_dict,
    walk_cost,
)
from .ising import IsingPolynomial, to_ising
from .noise import p_good, required_shots
from .polynomials import BinaryPolynomial
from .qaoa import RunConfig, initial_prior, iterative_qaoa, lr_schedule, sweep
from .topology import build_topology
from .transpile import compile_naive, compile_parity, qaoa_circuit, rotation_supports

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_SIZE = 4

DEFAULT_SCHEDULES = {"qubo": (0.63, 0.16), "hubo": (0.75, 0.30)}


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(data, path: str | None):
    _write(json.dumps(data, indent=2, sort_keys=True) + "\n", path)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _workers(tasks: int) -> int:
    """TANGLEWALK_WORKERS, clamped to [1, min(cpu count, tasks)]."""
    raw = os.environ.get("TANGLEWALK_WORKERS", "1")
    try:
        requested = int(raw)
    except ValueError as exc:
        raise ConfigError(f"TANGLEWALK_WORKERS must be an integer, got {raw!r}") from exc
    return max(1, min(requested, os.cpu_count() or 1, tasks))


def _pool_map(fn, tasks: list) -> list:
    """``fn`` over ``tasks`` in order, on ``_workers(len(tasks))`` processes."""
    workers = _workers(len(tasks))
    if workers == 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# Encodings shared by several subcommands


def _resolve_schedule(kind: str, dbeta, dgamma) -> tuple[float, float]:
    default_b, default_g = DEFAULT_SCHEDULES[kind]
    return (
        default_b if dbeta is None else dbeta,
        default_g if dgamma is None else dgamma,
    )


def _from_flags(build, *args, **kwargs):
    """``build(*args, **kwargs)``, where a DomainError is a bad flag or config key: ConfigError."""
    try:
        return build(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _run_config(args, kind: str, run_seed: int) -> RunConfig:
    dbeta, dgamma = _resolve_schedule(kind, args.dbeta, args.dgamma)
    return _from_flags(
        RunConfig, p=args.p, dbeta=dbeta, dgamma=dgamma, shots=args.shots, alpha=args.alpha,
        iterations=args.iters, seed=run_seed, target_energy=args.target,
    )


def _encode(
    g: OrientedGraph, kind: str, length: int | None, args
) -> tuple[BinaryPolynomial, QuboLayout | HuboLayout]:
    T = default_walk_length(g) if length is None else length
    if kind == "qubo":
        poly = encode_qubo(g, T, args.one_hot_penalty, args.edge_penalty)
        return poly, QuboLayout(T, g.node_count)
    if kind == "hubo":
        return encode_hubo(g, T, args.hubo_penalty), HuboLayout.for_graph(g, T)
    raise ConfigError(f"unknown encoding kind {kind!r}")


def _layout_from_meta(meta, poly: BinaryPolynomial) -> QuboLayout | HuboLayout:
    kind = meta.get("kind") if isinstance(meta, dict) else None
    if kind == "qubo":
        layout, fields = QuboLayout, ("T", "N")
    elif kind == "hubo":
        layout, fields = HuboLayout, ("T", "bits_per_step")
    else:
        raise ConfigError("polynomial file lacks a usable 'meta' block (kind/T/N)")
    if any(type(meta.get(name)) is not int for name in fields):
        raise ConfigError(f"'meta' of kind {kind} needs integer {' and '.join(fields)}")
    layout = layout(*(meta[name] for name in fields))
    if layout.num_vars != poly.num_vars:
        raise ConfigError(
            f"'meta' gives {layout.num_vars} variables, but the polynomial has {poly.num_vars}"
        )
    return layout


def _decoder(kind: str, layout, g: OrientedGraph):
    def decode(bits: tuple[int, ...]) -> dict:
        decoded = (
            decode_qubo(bits, layout, g) if kind == "qubo" else decode_hubo(bits, layout, g)
        )
        entry = {
            "feasible": decoded.feasible,
            "valid": decoded.valid,
            "bad_steps": list(decoded.bad_steps),
            "invalid_edges": list(decoded.invalid_edges),
            "steps": list(decoded.steps) if decoded.steps is not None else None,
        }
        if decoded.steps is not None:
            entry["walk_cost"] = walk_cost(g, decoded.steps)
        return entry

    return decode


def _load_instance(args) -> OrientedGraph:
    if getattr(args, "graph", None):
        return graph_from_dict(_load_json(args.graph))
    return generate_tangle(args.seed, args.nodes, args.max_weight, args.density)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    g = generate_tangle(args.seed, args.nodes, args.max_weight, args.density)
    _write_json(graph_to_dict(g), args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = graph_from_dict(_load_json(args.graph))
    T = default_walk_length(g) if args.length is None else args.length
    result = enumerate_optimal_walks(g, T, args.cap)
    if not result.found:
        print(f"status no-walk (T={T})")
        return EXIT_OK
    print(f"min_cost {result.min_cost} (T={T}, optimal walks: {len(result.walks)})")
    for walk in result.walks:
        print("walk " + " ".join(str(s) for s in walk))
    return EXIT_OK


def cmd_encode(args) -> int:
    g = graph_from_dict(_load_json(args.graph))
    poly, layout = _encode(g, args.kind, args.length, args)
    data = poly.to_dict()
    data["meta"] = {"kind": args.kind, "N": g.node_count, **asdict(layout)}
    _write_json(data, args.output)
    return EXIT_OK


def _run_solve(g: OrientedGraph, h: IsingPolynomial, kind: str, layout, config: RunConfig):
    return iterative_qaoa(h, kind, config, layout=layout, decoder=_decoder(kind, layout, g))


def cmd_solve(args) -> int:
    data = _load_json(args.input)
    if isinstance(data, dict) and "terms" in data:
        if "meta" not in data:
            raise ConfigError("encoded polynomial lacks 'meta'; re-run `encode`")
        if not args.graph:
            raise ConfigError("solving an encoded polynomial requires --graph for decoding")
        g = graph_from_dict(_load_json(args.graph))
        poly = BinaryPolynomial.from_dict(data)
        layout = _layout_from_meta(data["meta"], poly)
        kind = data["meta"]["kind"]
        config = _run_config(args, kind, args.run_seed)
    else:
        g = graph_from_dict(data)
        kind = args.kind
        config = _run_config(args, kind, args.run_seed)
        poly, layout = _encode(g, kind, args.length, args)
    record = _run_solve(g, to_ising(poly), kind, layout, config)
    _write_json(record.to_dict(), args.output)
    if args.hist:
        with open(args.hist, "w") as fh:
            fh.write("iteration,energy,frequency\n")
            for rec in record.iterations:
                for energy, count in rec.histogram:
                    fh.write(f"{rec.iteration},{energy!r},{count}\n")
    return EXIT_OK


def _parse_int_list(spec: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag} takes comma-separated integers, got {spec!r}") from exc


def _parse_grid_axis(spec: str, flag: str) -> list[float]:
    try:
        if ":" in spec:
            start, stop, num = spec.split(":")
            if int(num) < 1:
                raise ConfigError(f"{flag} range needs a count >= 1, got {spec!r}")
            return [float(x) for x in np.linspace(float(start), float(stop), int(num))]
        return [float(x) for x in spec.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} takes a,b,c or start:stop:count, got {spec!r}") from exc


def _sweep_chunk(payload):
    return sweep(*payload)  # (h, prior, grid, ps)


def cmd_sweep(args) -> int:
    g = _load_instance(args)
    ps = _parse_int_list(args.p, "--p")
    grid = [
        (b, c)
        for b in _parse_grid_axis(args.dbetas, "--dbetas")
        for c in _parse_grid_axis(args.dgammas, "--dgammas")
    ]
    for p in ps:
        for b, c in grid:
            _from_flags(lr_schedule, p, b, c)
    poly, layout = _encode(g, args.kind, args.length, args)
    h, prior = to_ising(poly), initial_prior(args.kind, layout)
    workers = _workers(len(grid))
    chunks = [(h, prior, grid[i::workers], ps) for i in range(workers)]
    rows = sorted(row for part in _pool_map(_sweep_chunk, chunks) for row in part)
    lines = ["p,dbeta,dgamma,p_opt"]
    for p, dbeta, dgamma, popt in rows:
        lines.append(f"{p},{dbeta!r},{dgamma!r},{popt!r}")
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _parse_topology(spec: str):
    kind, _, size = spec.partition(":")
    if kind not in ("linear", "grid", "heavy-hex", "heavy_hex"):
        raise ConfigError(f"unknown topology {spec!r} (try linear:N, grid:RxC, heavy-hex:C)")
    try:
        if kind == "grid":
            rows, _, cols = size.partition("x")
            size = (int(rows), int(cols))
        else:
            size = int(size)
    except ValueError as exc:
        raise ConfigError(f"malformed topology size in {spec!r}") from exc
    return build_topology(kind, size)


def cmd_compile(args) -> int:
    if args.layout_seed is not None and args.method != "naive":
        raise ConfigError("--layout-seed applies to --method naive only")
    g = _load_instance(args)
    dbeta, dgamma = _resolve_schedule(args.kind, args.dbeta, args.dgamma)
    schedule = _from_flags(lr_schedule, args.p, dbeta, dgamma)
    poly, layout = _encode(g, args.kind, args.length, args)
    h = to_ising(poly)
    prior = initial_prior(args.kind, layout)
    logical = qaoa_circuit(h, schedule, prior)
    topo = _parse_topology(args.topology)
    if args.wcnf_out:
        text = maxsat.export_wcnf(
            [tuple(sorted(s)) for s in rotation_supports(logical)],
            topo,
            swap_depth=args.swap_depth,
            max_order=args.max_order,
        )
        with open(args.wcnf_out, "w") as fh:
            fh.write(text)
    compiled = (
        compile_parity(logical, topo)
        if args.method == "parity"
        else compile_naive(logical, topo, args.layout_seed)
    )
    report = {
        "method": compiled.method,
        "topology": args.topology,
        "num_physical_qubits": topo.num_qubits,
        "num_logical_qubits": logical.num_qubits,
        "metrics": compiled.metrics,
        "initial_layout": {str(k): v for k, v in sorted(compiled.initial_layout.items())},
        "final_layout": {str(k): v for k, v in sorted(compiled.final_layout.items())},
    }
    _write_json(report, args.output)
    if args.circuit_out:
        with open(args.circuit_out, "w") as fh:
            fh.write(compiled.circuit.to_text())
    return EXIT_OK


def cmd_noise(args) -> int:
    result = {
        "p_good": p_good(args.e, args.gates),
        "shots": required_shots(args.e, args.gates, args.good),
    }
    _write_json(result, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Pipeline


def _has_type(value, hint) -> bool:
    """Whether ``value`` is of the annotated type ``hint``; an int passes as a float."""
    args = get_args(hint)
    if get_origin(hint) is tuple:  # tuple[int, ...]
        return type(value) is tuple and all(_has_type(v, args[0]) for v in value)
    if args:  # X | None
        return any(_has_type(value, arg) for arg in args)
    return type(value) is hint or (hint is float and type(value) is int)


@dataclass
class ExperimentConfig:
    """Settings of an end-to-end run.

    The fields are the ``pipeline`` flags and config-file keys: their
    names, types and defaults are declared here and nowhere else.  A value
    of the wrong type or domain raises ConfigError when the config is built.
    """

    seed: int = 1
    nodes: int = 2
    max_weight: int = 2
    density: float = 0.25
    graph: str | None = None
    kind: str = "hubo"
    length: int | None = None
    p: int = 1
    dbeta: float | None = None
    dgamma: float | None = None
    shots: int = 400
    alpha: float = 0.1
    iters: int = 5
    seeds: tuple[int, ...] = (0,)
    target: float | None = 0.0
    one_hot_penalty: float = encoding.DEFAULT_ONE_HOT_PENALTY
    edge_penalty: float = encoding.DEFAULT_EDGE_PENALTY
    hubo_penalty: float = encoding.DEFAULT_HUBO_EDGE_PENALTY
    output: str | None = None

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Parse a flat key = value file (a small TOML subset)."""
        values: dict[str, object] = {}
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key == "seeds":
                try:
                    values[key] = tuple(
                        int(x) for x in value.strip("[]").split(",") if x.strip()
                    )
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: seeds must be integers, got {value!r}")
            elif value.startswith('"') and value.endswith('"'):
                values[key] = value[1:-1]
            elif value == "none":
                values[key] = None
            else:
                try:
                    values[key] = int(value)
                except ValueError:
                    try:
                        values[key] = float(value)
                    except ValueError:
                        raise ConfigError(f"{path}:{lineno}: unparsable value {value!r}")
        known = set(cls.__dataclass_fields__)
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        return cls(**values)

    def __post_init__(self):
        for key, hint in get_type_hints(type(self)).items():
            value = getattr(self, key)
            if not _has_type(value, hint):
                raise ConfigError(f"config key {key} has a value of the wrong type: {value!r}")
        if self.kind not in ("qubo", "hubo"):
            raise ConfigError(f"kind must be qubo or hubo, got {self.kind!r}")
        if not self.seeds:
            raise ConfigError("at least one run seed is required")


def _pipeline_one(payload):
    return _run_solve(*payload).to_dict()  # (g, h, kind, layout, config)


def cmd_pipeline(args) -> int:
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
    else:
        values = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
        values["seeds"] = _parse_int_list(args.seeds, "--seeds")
        cfg = ExperimentConfig(**values)
    g = _load_instance(cfg)
    configs = [_run_config(cfg, cfg.kind, s) for s in cfg.seeds]
    poly, layout = _encode(g, cfg.kind, cfg.length, cfg)
    oracle_min = enumerate_optimal_walks(g, layout.T).min_cost
    h = to_ising(poly)
    records = _pool_map(_pipeline_one, [(g, h, cfg.kind, layout, c) for c in configs])

    runs = []
    print(f"{'seed':>6} {'best_E':>8} {'oracle':>8} {'found_at':>9} {'walk_cost':>10}")
    for run_seed, record in zip(cfg.seeds, records):
        walk = record["decoded_walk"] or {}
        runs.append({"seed": run_seed, "oracle_min": oracle_min, "record": record})
        found = record["optimum_iteration"]
        print(
            f"{run_seed:>6} {record['best_energy']:>8g} "
            f"{('-' if oracle_min is None else oracle_min):>8} "
            f"{('-' if found is None else found):>9} "
            f"{walk.get('walk_cost', '-'):>10}"
        )
    if cfg.output:
        saved_cfg = {k: v for k, v in vars(cfg).items() if k != "output"}
        _write_json({"config": saved_cfg, "runs": runs}, cfg.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _add_generator_flags(sub, with_graph=True):
    d = ExperimentConfig()
    sub.add_argument("--seed", type=int, default=d.seed, help="instance generator seed")
    sub.add_argument("--nodes", type=int, default=d.nodes)
    sub.add_argument("--max-weight", dest="max_weight", type=int, default=d.max_weight)
    sub.add_argument("--density", type=float, default=d.density)
    if with_graph:
        sub.add_argument("--graph", help="graph JSON file (overrides generator flags)")


def _add_encode_flags(sub):
    d = ExperimentConfig()
    sub.add_argument("--kind", choices=("qubo", "hubo"), default=d.kind)
    sub.add_argument("--length", type=int, default=None, help="walk length T (default: sum of weights)")
    for name in ("one_hot_penalty", "edge_penalty", "hubo_penalty"):
        sub.add_argument("--" + name.replace("_", "-"), type=float, default=getattr(d, name))


def _add_run_flags(sub):
    d = ExperimentConfig()
    sub.add_argument("--p", type=int, default=d.p, help="LR-QAOA layers")
    sub.add_argument("--dbeta", type=float, default=None)
    sub.add_argument("--dgamma", type=float, default=None)
    sub.add_argument("--shots", type=int, default=d.shots)
    sub.add_argument("--alpha", type=float, default=d.alpha)
    sub.add_argument("--iters", type=int, default=d.iters)
    sub.add_argument("--target", type=float, default=None, help="stop once this energy is sampled")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tanglewalk", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("generate", help="write a planted tangle instance")
    _add_generator_flags(sub, with_graph=False)
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=cmd_generate)

    sub = subs.add_parser("oracle", help="brute-force optimal walks")
    sub.add_argument("graph")
    sub.add_argument("--length", type=int, default=None)
    sub.add_argument("--cap", type=int, default=graphs.ORACLE_SEQUENCE_CAP)
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("encode", help="encode a graph as a binary polynomial")
    sub.add_argument("graph")
    _add_encode_flags(sub)
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=cmd_encode)

    sub = subs.add_parser("solve", help="iterative QAOA on a graph or encoded polynomial")
    sub.add_argument(
        "input",
        help="graph JSON or encoded polynomial JSON; a polynomial's 'meta' and terms fix its"
        " kind, length and penalties, so the encoding flags do nothing for it",
    )
    sub.add_argument("--graph", help="graph file when the input is a polynomial")
    _add_encode_flags(sub)
    _add_run_flags(sub)
    sub.add_argument("--run-seed", dest="run_seed", type=int, default=0)
    sub.add_argument("-o", "--output", default="-")
    sub.add_argument("--hist", help="per-iteration energy histogram CSV")
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("sweep", help="p_opt heatmap over (dbeta, dgamma)")
    _add_generator_flags(sub)
    _add_encode_flags(sub)
    sub.add_argument("--p", default=str(ExperimentConfig().p), help="comma-separated layer counts")
    sub.add_argument("--dbetas", default="0.1:1.0:10", help="list a,b,c or range start:stop:count")
    sub.add_argument("--dgammas", default="0.1:1.0:10")
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("compile", help="compile the cost circuit to a topology")
    _add_generator_flags(sub)
    _add_encode_flags(sub)
    sub.add_argument("--p", type=int, default=ExperimentConfig().p)
    sub.add_argument("--dbeta", type=float, default=None)
    sub.add_argument("--dgamma", type=float, default=None)
    sub.add_argument("--topology", default="linear:8", help="linear:N, grid:RxC, or heavy-hex:C")
    sub.add_argument("--method", choices=("parity", "naive"), default="parity")
    sub.add_argument(
        "--layout-seed", dest="layout_seed", type=int, default=None,
        help="seed of a random initial layout for --method naive (default: the identity);"
        " with --method parity it is a configuration error",
    )
    sub.add_argument("--wcnf-out", dest="wcnf_out", help="export the layout MAX-SAT instance")
    sub.add_argument("--swap-depth", dest="swap_depth", type=int, default=0)
    sub.add_argument("--max-order", dest="max_order", type=int, default=maxsat.DEFAULT_MAX_ORDER)
    sub.add_argument("--circuit-out", dest="circuit_out", help="write the compiled gate list")
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=cmd_compile)

    sub = subs.add_parser("noise", help="oversampling requirements from 2q error rates")
    sub.add_argument("--e", type=float, required=True)
    sub.add_argument("--gates", type=int, required=True)
    sub.add_argument("--good", type=int, default=4000)
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=cmd_noise)

    sub = subs.add_parser("pipeline", help="generate, encode, solve, decode, compare to oracle")
    sub.add_argument("--config", help="flat key = value config file")
    _add_generator_flags(sub)
    _add_encode_flags(sub)
    _add_run_flags(sub)
    sub.add_argument("--seeds", help="comma-separated run seeds")
    sub.add_argument("-o", "--output")
    defaults = vars(ExperimentConfig())
    defaults["seeds"] = ",".join(map(str, defaults["seeds"]))
    sub.set_defaults(**defaults, func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
