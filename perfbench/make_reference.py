"""Regenerate ``sweep_reference.json``, the expected p_opt table of sweep-qubo.

Usage, from the repository root:  python3 perfbench/make_reference.py

The catalogue is a fixed list of planted QUBO tangles (16 and 18 qubits).
For each one, p_opt over the sweep grid is computed with the dense
simulator in ``oracles`` from the encoded polynomial's own terms, and
cross-checked against ``tanglewalk.qaoa.sweep``; the table is written only
if the two agree to within 1e-12 everywhere.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from tanglewalk import encoding, graphs, ising, qaoa  # noqa: E402
from workloads import REFERENCE, SWEEP_GRID, SWEEP_P  # noqa: E402

# qubits -> (generator settings, catalogue size)
CATALOGUE = {16: ((2, 3, 0.25), 24), 18: ((3, 1, 0.25), 12)}


def catalogue():
    for qubits, (family, size) in CATALOGUE.items():
        seen, gseed = set(), 0
        while len(seen) < size:
            g = graphs.generate_tangle(gseed, *family)
            T = graphs.default_walk_length(g)
            key = (g.node_count, g.weights, tuple(sorted(g.edges)))
            if 2 * g.node_count * T == qubits and key not in seen:
                seen.add(key)
                yield qubits, family, gseed, g, T
            gseed += 1


def reference_rows(g, T):
    poly = encoding.encode_qubo(g, T)
    energies = oracles.poly_energies(poly.terms, poly.num_vars)
    optimal = energies == energies.min()
    prior = np.full(poly.num_vars, 1.0 / (2 * g.node_count))
    rows = []
    for p in SWEEP_P:
        for dbeta, dgamma in sorted(SWEEP_GRID):
            ramp = [(2 * k - 1) / (2 * p) for k in range(1, p + 1)]
            betas = [(1 - r) * dbeta for r in ramp]
            gammas = [r * dgamma for r in ramp]
            probs = oracles.qaoa_distribution(energies, prior, betas, gammas)
            rows.append([p, dbeta, dgamma, float(probs[optimal].sum())])
    return poly, prior, rows


def main() -> int:
    instances = []
    for qubits, family, gseed, g, T in catalogue():
        poly, prior, rows = reference_rows(g, T)
        package = qaoa.sweep(ising.to_ising(poly), prior, SWEEP_GRID, SWEEP_P)
        worst = max(abs(a[3] - b[3]) for a, b in zip(rows, package))
        if len(package) != len(rows) or worst > 1e-12:
            print(f"instance {family} seed {gseed}: package differs by {worst}", file=sys.stderr)
            return 1
        instances.append(
            {"qubits": qubits, "family": list(family), "generator_seed": gseed, "rows": rows}
        )
        print(f"{qubits} qubits, {family} seed {gseed}: max |diff| {worst:.2e}", file=sys.stderr)
    table = {"grid": [list(x) for x in SWEEP_GRID], "p": list(SWEEP_P), "instances": instances}
    REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
