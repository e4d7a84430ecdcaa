"""Self-test of the benchmark.  Usage, from the repository root:

    python3 perfbench/selftest.py

1. Corrupted outputs (a perturbed energy, a perturbed p_opt, a dropped
   rotation, a unit that raised) must each be counted as a failed unit.
2. A real run must print every metric of BENCHMARK.json with its name and
   unit, traced and untraced.
3. Work counters must repeat exactly between two traced runs of one seed.

Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402

run.load_package()

from tanglewalk.circuits import CircuitIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0
results: list[bool] = []


def report(name: str, ok: bool):
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}")


def counted_failed(workload_name, corrupt) -> bool:
    """Does the benchmark pass the real output and fail the corrupted one?"""
    workload = WORKLOADS[workload_name]
    unit = workload.setup(workload.plan(SEED))[0]
    good = workload.run(unit)
    bad = corrupt(unit, good)
    return (
        run.count_failed(workload, [unit], [good]) == 0
        and run.count_failed(workload, [unit], [bad]) == 1
    )


def perturb_energy(unit, output):
    poly, bits_per_step, record = output
    return poly, bits_per_step, dataclasses.replace(record, best_energy=record.best_energy + 0.5)


def perturb_p_opt(unit, rows):
    p, dbeta, dgamma, value = rows[0]
    return [(p, dbeta, dgamma, value + 1e-8)] + rows[1:]


def drop_rotation(compiled):
    gates = list(compiled.circuit.gates)
    first = next(i for i, g in enumerate(gates) if g.name in ("RZ", "RZZ"))
    del gates[first]
    return dataclasses.replace(compiled, circuit=CircuitIR(compiled.circuit.num_qubits, gates))


def drop_rotation_keep_verdict(unit, output):
    """A dropped rotation that the package's verifier passes anyway."""
    return drop_rotation(output[0]), True


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    report("solve-hubo: perturbed best_energy counts as failed",
           counted_failed("solve-hubo", perturb_energy))
    report("sweep-qubo: p_opt off by 1e-8 counts as failed",
           counted_failed("sweep-qubo", perturb_p_opt))
    report("compile-wide: dropped rotation fails the spot check",
           counted_failed("compile-wide", lambda unit, out: (out[0], drop_rotation(out[1]))))
    report("compile-verify: dropped rotation fails the exhaustive spot check "
           "even when verify_equivalence says True",
           counted_failed("compile-verify", drop_rotation_keep_verdict))
    report("a unit that raised counts as failed",
           run.count_failed(WORKLOADS["sweep-qubo"], [None], [None]) == 1)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
        result = run_benchmark("compile-verify", trace)
        declared = {m["name"]: m["unit"] for m in spec[group]}
        printed = result["metrics"]
        report(
            f"trace {trace}: result keys, correctness and every {group} metric with its unit",
            list(result) == ["correct", "attempted", "failed", "metrics"]
            and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            and set(printed) == set(declared)
            and all(
                printed[n]["unit"] == u and isinstance(printed[n]["value"], (int, float))
                for n, u in declared.items()
            ),
        )
        if trace:
            counts.append({n: v["value"] for n, v in printed.items() if v["unit"] != "s"})
    report("work counters repeat exactly between two traced runs", counts[0] == counts[1])
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
