"""Reference computations the benchmark checks tanglewalk's outputs against.

Nothing here calls into tanglewalk: each function reads only plain data
(graph weights and edges, polynomial terms, gate lists, layouts), so a
defect in the package cannot hide itself by also breaking its check.
"""

from __future__ import annotations

import math

import numpy as np

DIAGONAL = ("RZ", "RZZ", "MULTIRZ")
PHASE_TOL = 1e-9


def min_walk_cost(weights, edges, T: int) -> int:
    """Smallest squared-error cost over every edge-valid walk of length T.

    Oriented vertex ids are 2*node + strand; a walk visits a node when it
    steps on either orientation of it.
    """
    nodes = len(weights)
    succ = {a: sorted(b for x, b in edges if x == a) for a in range(2 * nodes)}
    visits = [0] * nodes
    best = [math.inf]

    def extend(depth: int, last: int):
        if depth == T:
            best[0] = min(best[0], sum((c - w) ** 2 for c, w in zip(visits, weights)))
            return
        for s in range(2 * nodes) if last < 0 else succ[last]:
            visits[s >> 1] += 1
            extend(depth + 1, s)
            visits[s >> 1] -= 1

    extend(0, -1)
    return best[0]


def walk_cost(weights, steps) -> int:
    visits = [0] * len(weights)
    for s in steps:
        visits[s >> 1] += 1
    return sum((c - w) ** 2 for c, w in zip(visits, weights))


def decode_steps(bits, T: int, bits_per_step: int) -> list[int]:
    """Binary step indices, least significant bit first within each step."""
    return [
        sum(bits[t * bits_per_step + k] << k for k in range(bits_per_step)) for t in range(T)
    ]


def eval_poly(terms: dict, bits) -> float:
    """Value of sum_mono coeff * prod_{i in mono} x_i at one assignment.

    The constant is the coefficient of the empty monomial.
    """
    total = 0
    for mono, coeff in terms.items():
        if all(bits[i] for i in mono):
            total += coeff
    return total


def poly_energies(terms: dict, num_vars: int) -> np.ndarray:
    """Value of a binary polynomial at every assignment (index bit i = x_i)."""
    idx = np.arange(1 << num_vars)
    energies = np.zeros(1 << num_vars)
    for mono, coeff in terms.items():
        on = np.ones(1 << num_vars, dtype=bool)
        for i in mono:
            on &= ((idx >> i) & 1).astype(bool)
        energies[on] += coeff
    return energies


def qaoa_distribution(energies: np.ndarray, prior, betas, gammas) -> np.ndarray:
    """Exact output distribution of warm-started QAOA, by dense tensor algebra.

    The initial state is the product of cos(phi/2)|0> + sin(phi/2)|1> with
    phi = 2 asin(sqrt(prior_q)); each layer applies exp(-i gamma E) and then,
    on every qubit, the mixer exp(-i beta H_q) with H_q = -n_q . sigma, where
    n_q = (sin phi, 0, cos phi) is the Bloch vector of that qubit's initial
    state (so the initial product state is an eigenstate of the mixer).
    """
    n = len(prior)
    phi = 2 * np.arcsin(np.sqrt(np.asarray(prior, dtype=float)))
    state = np.ones(1, dtype=complex)
    for q in range(n):  # qubit q is index bit q, so it is prepended on the left
        state = np.outer([np.cos(phi[q] / 2), np.sin(phi[q] / 2)], state).ravel()
    for beta, gamma in zip(betas, gammas):
        state = state * np.exp(-1j * gamma * energies)
        for q in range(n):
            sx, sz = np.sin(phi[q]), np.cos(phi[q])
            # exp(i beta n.sigma) = cos(beta) I + i sin(beta) n.sigma
            u = np.cos(beta) * np.eye(2) + 1j * np.sin(beta) * np.array([[sz, sx], [sx, -sz]])
            t = state.reshape(1 << (n - q - 1), 2, 1 << q)
            state = np.einsum("ij,ajb->aib", u, t).ravel()
    return np.abs(state) ** 2


def _phases(thetas, masks, words) -> np.ndarray:
    """sum_g theta_g/2 * (-1)^parity(word & mask_g) for each word."""
    if not thetas:
        return np.zeros(len(words))
    on = np.bitwise_count(
        np.array(words, dtype=np.uint64)[None, :] & np.array(masks, dtype=np.uint64)[:, None]
    ) & 1
    return (np.array(thetas) / 2) @ (1 - 2 * on.astype(float))


def spot_check(logical_gates, compiled_gates, n_physical, initial_layout, final_layout,
               xs: list[int]) -> bool:
    """Push basis states through a logical diagonal layer and its compiled circuit.

    Gates are (name, qubits, theta) triples.  The compiled circuit (CX, SWAP,
    RZ, RZZ) must move the embedding of each logical x under
    ``initial_layout`` to its embedding under ``final_layout``, and its phase
    must differ from the logical layer's phase by one constant, to within
    ``PHASE_TOL``.  The states go through in chunks of at most 63; within a
    chunk, wires are bit-sliced across samples: bit j of a wire value
    belongs to sample j.
    """
    if any(name not in DIAGONAL for name, _, _ in logical_gates):
        raise ValueError("the logical layer must be diagonal")
    logical_thetas = [theta for _, _, theta in logical_gates]
    logical_masks = [sum(1 << q for q in qubits) for _, qubits, _ in logical_gates]
    diffs = []
    for begin in range(0, len(xs), 63):
        chunk = list(xs[begin : begin + 63])
        compiled = _chunk_phases(compiled_gates, n_physical, initial_layout, final_layout, chunk)
        if compiled is None:
            return False
        diffs.append(compiled - _phases(logical_thetas, logical_masks, chunk))
    diff = np.concatenate(diffs)
    wrapped = np.angle(np.exp(1j * (diff - diff[0])))
    return bool(np.max(np.abs(wrapped)) <= PHASE_TOL)


def _chunk_phases(compiled_gates, n_physical, initial_layout, final_layout, xs):
    """Compiled circuit's phase on each of at most 63 basis states.

    None if a gate is not CX, SWAP, RZ or RZZ, or if a state does not end
    at its embedding under ``final_layout``.
    """

    def column(logical: int) -> int:
        return sum(((x >> logical) & 1) << j for j, x in enumerate(xs))

    wires = [0] * n_physical
    for logical, physical in initial_layout.items():
        wires[physical] = column(logical)
    thetas, masks = [], []
    for name, qubits, theta in compiled_gates:
        if name == "CX":
            control, target = qubits
            wires[target] ^= wires[control]
        elif name == "SWAP":
            a, b = qubits
            wires[a], wires[b] = wires[b], wires[a]
        elif name == "RZ":
            thetas.append(theta)
            masks.append(wires[qubits[0]])
        elif name == "RZZ":
            thetas.append(theta)
            masks.append(wires[qubits[0]] ^ wires[qubits[1]])
        else:
            return None
    expected = [0] * n_physical
    for logical, physical in final_layout.items():
        expected[physical] = column(logical)
    if wires != expected:
        return None
    # A rotation's mask is a set of samples; evaluate it on each sample's bit.
    return _phases(thetas, masks, [1 << j for j in range(len(xs))])
