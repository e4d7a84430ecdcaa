"""tanglewalk benchmark: one workload, one seed, one timed run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a closed loop: one process, one caller, each call into
tanglewalk waits for the previous one.  A run plans the workload once
(instances drawn from the seed, references computed; untimed), builds the
pass from the plan SETUP_REPEATS times (``setup_s`` is the median), then
repeats the pass of units until ``--seconds`` have elapsed, always
finishing the pass it is in.  Every output is checked against references
the benchmark computes itself.

With ``--trace 0`` nothing is wrapped and the end-to-end metrics of
BENCHMARK.json are printed.  With ``--trace 1`` passes come in pairs, one
traced and one untraced, the traced pass first in even pairs and second in
odd ones (at least two pairs); ``bench.trace_overhead_s`` is the median
over the pairs of traced minus untraced wall time.  The per-layer metrics
are printed, the spans are written as JSON lines under
``perfbench/traces/``, and a table of self time per layer goes to stderr.
The last line of stdout is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import LAYERS, UNIT, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
TRACED_MIN_PASSES = 4


def load_package():
    """Import tanglewalk from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tanglewalk" / "__init__.py").is_file():
        raise SystemExit(f"error: no tanglewalk sources under {src}")
    sys.path.insert(0, str(src))
    import tanglewalk

    if Path(tanglewalk.__file__).resolve().parent != (src / "tanglewalk").resolve():
        raise SystemExit(f"error: imported tanglewalk from {tanglewalk.__file__}")


def run_pass(workload, units, tracer=None):
    """Run every unit once; returns (wall seconds, unit seconds, outputs).

    A unit that raises gets output None, which its check counts as failed.
    """
    outputs, unit_s = [], []
    start = time.perf_counter()
    for index, unit in enumerate(units):
        began = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(unit)
            else:
                with tracer.unit(index):
                    out = workload.run(unit)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        unit_s.append(time.perf_counter() - began)
        outputs.append(out)
    return time.perf_counter() - start, unit_s, outputs


def count_failed(workload, units, outputs) -> int:
    failed = 0
    for unit, out in zip(units, outputs):
        try:
            ok = out is not None and workload.check(unit, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        failed += not ok
    return failed


def layer_values(self_s: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced pass, from its self times and counters."""

    def c(layer, key):
        return counts.get(layer, {}).get(key, 0)

    compiles = ("transpile.compile_parity", "transpile.compile_naive")
    top_level_compiles = sum(c(k, "calls") for k in compiles) - c(compiles[1], "nested_calls")
    shots_in = c("qaoa.cvar_filter", "shots_in")
    values = {f"{name}.s": self_s.get(name, 0.0) for name in (*LAYERS, UNIT)}
    values.update({
        "encoding.encode.terms_out": c("encoding.encode", "terms_out"),
        "ising.to_ising.terms_out": c("ising.to_ising", "terms_out"),
        "ising.diagonal.calls": c("ising.diagonal", "calls"),
        "ising.diagonal.term_states": c("ising.diagonal", "term_states"),
        "qaoa.simulate.calls": c("qaoa.simulate", "calls"),
        "qaoa.simulate.amp_updates": c("qaoa.simulate", "amp_updates"),
        "qaoa.sample.shots": c("qaoa.sample", "shots"),
        "qaoa.cvar_filter.kept_ratio": c("qaoa.cvar_filter", "kept") / shots_in if shots_in else 0.0,
        "qaoa.iterations": c("qaoa.iterative_qaoa", "iterations"),
        "transpile.compile_naive.nested_calls": c(compiles[1], "nested_calls"),
        "transpile.rotations_in": sum(c(k, "rotations_in") for k in compiles),
        "transpile.gates_out": sum(c(k, "gates_out") for k in compiles),
        "circuits.verify_equivalence.calls": c("circuits.verify_equivalence", "calls"),
        "circuits.verify_equivalence.amplitudes": c("circuits.verify_equivalence", "amplitudes"),
        "circuits.verify_equivalence.skipped": top_level_compiles
        - c("circuits.verify_equivalence", "calls"),
    })
    return values


def print_layer_table(self_s: dict, pass_wall: float):
    print(f"{'layer':<30} {'self s/pass':>12} {'share':>7}", file=sys.stderr)
    for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"{name:<30} {seconds:>12.4f} {seconds / pass_wall:>7.1%}", file=sys.stderr)


def measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    from workloads import QUALITY

    plan = workload.plan(seed)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        units = workload.setup(plan)
        setup_s.append(time.perf_counter() - began)

    tracer = Tracer() if traced else None
    walls = []  # (traced, wall seconds) per pass
    unit_s, traced_passes = [], []
    attempted = failed = 0
    check_s = []
    first_outputs = None
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline or (
        traced and (index < TRACED_MIN_PASSES or index % 2)
    ):
        with_trace = traced and (index % 2 == 0) != (index // 2 % 2 == 1)
        if with_trace:
            tracer.begin_pass(index)
            with tracer:
                wall, times, outputs = run_pass(workload, units, tracer)
            traced_passes.append(tracer.take_pass())
        else:
            wall, times, outputs = run_pass(workload, units)
            unit_s.append(times)
        walls.append((with_trace, wall))
        began = time.perf_counter()
        attempted += len(units)
        failed += count_failed(workload, units, outputs)
        check_s.append(time.perf_counter() - began)
        first_outputs = first_outputs or outputs
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Each unit's time is its median over the untraced passes, which drops
    # the bursts of a shared machine; a pass's wall time is their sum.
    per_unit = [statistics.median(times) for times in zip(*unit_s)]
    result = {"attempted": attempted, "failed": failed, "correct": failed == 0}
    if not traced:
        result["metrics"] = {
            "setup_s": statistics.median(setup_s),
            "wall_s": sum(per_unit),
            "peak_rss_mb": peak_rss_mb,
        }
        return result

    # Computed and counted work must repeat exactly from pass to pass.
    counts = [c for _, c in traced_passes]
    if any(c != counts[0] for c in counts):
        print("error: work counters differ between identical passes", file=sys.stderr)
        result["correct"] = False
    self_s = {
        name: statistics.fmean(s.get(name, 0.0) for s, _ in traced_passes)
        for name in {n for s, _ in traced_passes for n in s}
    }
    metrics = layer_values(self_s, counts[0])
    metrics.update(dict.fromkeys(QUALITY, 0.0))
    metrics.update(workload.quality(units, first_outputs))
    metrics["bench.check_s"] = statistics.fmean(check_s)
    metrics["bench.trace_overhead_s"] = statistics.median(
        (a if a_traced else b) - (b if a_traced else a)
        for (a_traced, a), (_, b) in zip(walls[::2], walls[1::2])
    )
    metrics["bench.unit_s.p50"] = statistics.median(per_unit)
    samples = [t for times in unit_s for t in times]
    metrics["bench.unit_s.p90"] = (
        statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
    )
    metrics["bench.units"] = len(samples)
    result["metrics"] = metrics

    traces = ROOT / "perfbench" / "traces"
    traces.mkdir(exist_ok=True)
    tracer.write_jsonl(traces / f"{workload.name}-seed{seed}.jsonl")
    print_layer_table(self_s, statistics.median(w for t, w in walls if t))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    values = result["metrics"]
    if set(values) != set(declared):
        raise SystemExit(
            f"error: metrics {sorted(set(values) ^ set(declared))} disagree with BENCHMARK.json"
        )
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in declared.items()
    }
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
