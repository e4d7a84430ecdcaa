"""Measure the benchmark's baseline and write it with the machine and design.

Usage, from the repository root:

    python3 perfbench/baseline.py

For every workload this runs ``run.py --trace 0`` once per seed (seeds
0..SEEDS-1), then one ``--trace 1`` run on seed 0.  For each end-to-end
metric it records the values, the median and the quartile spread (distance
between the first and third quartile as a share of the median) that the
benchmark's bounds are compared with.  ``baseline.json`` holds what
BENCHMARK.json has no key for: the commit, the machine, which end-to-end
metric each layer metric is expected to move, and the measured baseline.
Workloads, metrics, units and directions are read from BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
OUT = HERE / "baseline.json"

LAYER_TO_METRIC = [
    ["encoding.encode.s, encoding.encode.terms_out, encoding.decode.s",
     "wall_s and bench.unit_s.p50 on solve-hubo (small)"],
    ["ising.to_ising.s, ising.to_ising.terms_out",
     "wall_s and bench.unit_s.p50 on solve-hubo (small)"],
    ["ising.diagonal.s, .calls, .term_states",
     "wall_s and bench.unit_s.p50 on solve-hubo; close to no change on sweep-qubo"],
    ["qaoa.simulate.s, .calls, .amp_updates", "wall_s on sweep-qubo; smaller on solve-hubo"],
    ["qaoa.sample.s, qaoa.sample.shots, qaoa.cvar_filter.s, qaoa.cvar_filter.kept_ratio, "
     "qaoa.update_prior.s, qaoa.iterations", "wall_s and bench.unit_s.p50 on solve-hubo (small)"],
    ["qaoa.success_rate, qaoa.iters_to_opt", "none; solver quality on solve-hubo"],
    ["transpile.search_layout.s, transpile.search_layout.objective",
     "wall_s on compile-wide; the objective also moves transpile.two_qubit_count and "
     "transpile.two_qubit_depth"],
    ["transpile.compile_parity.s, transpile.compile_naive.s, "
     "transpile.compile_naive.nested_calls, transpile.rotations_in, transpile.gates_out",
     "wall_s on compile-wide; small on compile-verify"],
    ["circuits.verify_equivalence.s, .calls, .amplitudes, .skipped",
     "wall_s and bench.unit_s.p90 on compile-verify; zero on compile-wide"],
    ["bench.unit.s, bench.check_s, bench.trace_overhead_s",
     "none; the benchmark's own cost"],
    ["bench.unit_s.p50, bench.unit_s.p90, bench.units",
     "none; the distribution of unit times (untraced passes) and its sample count"],
]


def machine() -> dict:
    import numpy

    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "memory_gib": round(pages / 2**30, 1),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {
        "commit": commit(),
        "machine": machine(),
        "layer_to_metric": LAYER_TO_METRIC,
        "baseline": {"run_seconds": spec["run_seconds"], "seeds": list(range(SEEDS))},
    }
    ok = True
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [bench(spec, name, seed, 0) for seed in range(SEEDS)]
        traced = bench(spec, name, 0, 1)
        ok &= all(r["correct"] and r["failed"] == 0 for r in [*runs, traced])
        report["baseline"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in report["baseline"][name]["end_to_end"].items():
            print(f"{name:<15} {metric:<12} median {s['median']:.6g}  spread {s['spread']:.3f}",
                  file=sys.stderr)
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
