"""Warm-started linear-ramp QAOA simulation and the iterative bias-update loop.

One iteration prepares a product state from per-qubit bit-flip
probabilities, applies p alternating layers of the diagonal cost phase
and a rotated single-qubit mixer (for which the product state is an
eigenstate), samples the exact output distribution, keeps the best
fraction of shots, and feeds an energy-weighted Z expectation back into
the next iteration's bit-flip probabilities.

The simulation is an exact dense statevector, within ``_dense``'s memory
rule.  ``sweep`` needs only the probability of the optimal states, so it
runs the last mixer as a light cone that computes only the optimal
amplitudes; its values equal ``p_opt(simulate(...))`` (``tests/helpers.py``)
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _dense
from .errors import DomainError
from .ising import IsingPolynomial, _integer_levels, diagonal

CLIP_EPSILON = 0.15
FEEDBACK_TEMPERATURE_START = 0.015
FEEDBACK_TEMPERATURE_END = 0.045


@dataclass(frozen=True)
class QaoaSchedule:
    """Fixed linear-ramp parameters (``lr_schedule``): betas descend, gammas ascend."""

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    @property
    def p(self) -> int:
        return len(self.betas)


def lr_schedule(p: int, dbeta: float, dgamma: float) -> QaoaSchedule:
    """beta_k = (1 - (2k-1)/2p) * dbeta and gamma_k = ((2k-1)/2p) * dgamma."""
    if p < 1:
        raise DomainError(f"layer count p must be >= 1, got {p}")
    if not (math.isfinite(dbeta) and math.isfinite(dgamma)):
        raise DomainError(f"dbeta and dgamma must be finite, got {dbeta} and {dgamma}")
    ramp = [(2 * k - 1) / (2 * p) for k in range(1, p + 1)]
    betas = tuple((1 - r) * dbeta for r in ramp)
    gammas = tuple(r * dgamma for r in ramp)
    return QaoaSchedule(betas, gammas)


def initial_prior(kind: str, layout) -> np.ndarray:
    """Per-qubit bit-flip probabilities before the first iteration.

    QUBO layouts are one-hot per step, so each bit starts at 1/(2N);
    HUBO layouts start unbiased at 1/2.
    """
    if kind == "qubo":
        return np.full(layout.num_vars, 1.0 / (2 * layout.N))
    if kind == "hubo":
        return np.full(layout.num_vars, 0.5)
    raise DomainError(f"unknown encoding kind {kind!r}")


def _mixer_matrix(beta: float, phi: float) -> np.ndarray:
    # Ry(phi) . Rz(-2 beta) . Ry(-phi): the rotated mixer exponential.
    c, s = np.cos(phi / 2), np.sin(phi / 2)
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    rz = np.array([[np.exp(1j * beta), 0], [0, np.exp(-1j * beta)]], dtype=complex)
    return ry @ rz @ ry.conj().T


def _checked_prior(h: IsingPolynomial, prior: Sequence[float]) -> np.ndarray:
    """Each qubit's mixer angle phi = 2 arcsin(sqrt(p)) from its bit-flip probability p."""
    n = h.num_qubits
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (n,):
        raise DomainError(f"prior must have {n} entries, got shape {prior.shape}")
    if not np.all((prior >= 0) & (prior <= 1)):
        raise DomainError("prior probabilities must lie in [0, 1]")
    return 2 * np.arcsin(np.sqrt(prior))


def _checked_levels(levels, n: int) -> tuple[np.ndarray, np.ndarray]:
    values, index = levels
    if index.shape != (1 << n,) or index.dtype.kind != "u" or index.max() >= len(values):
        raise DomainError(f"levels must map {1 << n} states to one of its {len(values)} energies")
    return values, index


def _energy_levels(h: IsingPolynomial, path: str, levels=None) -> tuple[np.ndarray, np.ndarray]:
    """h's distinct energies and each state's index into them, within ``path``'s memory charge.

    They come from ``ising._integer_levels`` where that is exact, else from
    ``_dense._levels(diagonal(h))``; the two agree bit for bit wherever both
    apply.  ``levels``, if given, is checked and returned instead.
    """
    n = h.num_qubits
    _dense._check_memory(path, n)
    if levels is None:
        levels = _integer_levels(h) or _dense._levels(diagonal(h))
    values, index = _checked_levels(levels, n)
    _dense._check_memory(path, n, len(values))
    return values, index


def _layer_gates(beta: float, phi: np.ndarray) -> list[np.ndarray]:
    """``_mixer_matrix(beta, phi[q])`` for every qubit, built once per distinct angle.

    Angles are told apart by their bits, so -0.0 keeps a matrix of its own.
    """
    angles, which = np.unique(phi.view(np.uint64), return_inverse=True)
    matrices = [_mixer_matrix(beta, angle) for angle in angles.view(float)]
    return [matrices[i] for i in which.tolist()]


def _layers(state, phi, schedule: QaoaSchedule, levels, level, block) -> list[np.ndarray]:
    """Run ``schedule`` in place on the product state of ``phi``, up to its last mixer.

    Returns that mixer's gates (none for no layers), for ``_dense._mix_layer``
    or ``_dense._light_cone``.
    """
    _dense._product_state(phi, state)
    gates = []
    for beta, gamma in zip(schedule.betas, schedule.gammas):
        if gates:
            _dense._mix_layer(state, gates, block)
        _dense._table_phase(state, gamma, levels, level, block)
        gates = _layer_gates(beta, phi)
    return gates


def simulate(
    h: IsingPolynomial,
    prior: Sequence[float],
    schedule: QaoaSchedule,
    levels: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact output distribution of one warm-started LR-QAOA circuit.

    Returns |amplitude|^2 over all 2^n basis states.  ``levels`` may be
    passed to reuse h's levels (``_energy_levels``) across calls.
    """
    n = h.num_qubits
    phi = _checked_prior(h, prior)
    values, index = _energy_levels(h, "simulate", levels)
    state = np.empty(1 << n, dtype=complex)
    block = _dense._scratch(n)
    _dense._mix_layer(state, _layers(state, phi, schedule, values, index, block), block)
    del block
    probs = np.abs(state)
    return np.square(probs, out=probs)  # in place, rounded as ``probs ** 2``


@dataclass
class SampleBatch:
    """Multiset of measured basis states with energies attached.

    Distinct outcomes are stored index-sorted; the shot count is the sum
    of their multiplicities.
    """

    num_qubits: int
    indices: np.ndarray
    counts: np.ndarray
    energies: np.ndarray

    @property
    def shots(self) -> int:
        return int(self.counts.sum())

    def bit_matrix(self) -> np.ndarray:
        cols = np.arange(self.num_qubits, dtype=np.uint64)
        return ((self.indices[:, None] >> cols) & 1).astype(np.int8)


def sample(probs: np.ndarray, shots: int, seed, levels: tuple) -> SampleBatch:
    """Multinomial draw from an exact distribution, deterministic in the seed.

    The energies are read from ``levels``: the distinct energies and each
    state's index into them, as ``_energy_levels`` builds them.
    """
    if shots < 0:
        raise DomainError(f"shots must be >= 0, got {shots}")
    probs = np.asarray(probs, dtype=float)
    n = len(probs).bit_length() - 1
    if n < 0 or 1 << n != len(probs):
        raise DomainError("probability vector length must be a power of two")
    values, index = _checked_levels(levels, n)
    if not np.all(np.isfinite(probs) & (probs >= 0)):
        raise DomainError("probabilities must be finite and non-negative")
    total = probs.sum()
    if not total > 0:
        raise DomainError("probabilities must not all be zero")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs / total)
    hit = np.nonzero(counts)[0]
    return SampleBatch(
        num_qubits=n,
        indices=hit.astype(np.uint64),
        counts=counts[hit].astype(np.int64),
        energies=values[index[hit]],
    )


def cvar_filter(batch: SampleBatch, alpha: float) -> SampleBatch:
    """Keep the ceil(alpha * shots) lowest-energy shots.

    Ties at the cutoff are broken by ascending basis-state index so
    repeated runs retain the same shots.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if batch.shots == 0:
        return batch
    keep = int(np.ceil(alpha * batch.shots))
    order = np.lexsort((batch.indices, batch.energies))
    kept_counts = np.zeros_like(batch.counts)
    remaining = keep
    for pos in order:
        if remaining <= 0:
            break
        take = min(int(batch.counts[pos]), remaining)
        kept_counts[pos] = take
        remaining -= take
    hit = np.nonzero(kept_counts)[0]
    return SampleBatch(
        num_qubits=batch.num_qubits,
        indices=batch.indices[hit],
        counts=kept_counts[hit],
        energies=batch.energies[hit],
    )


def beta_t(iteration: int, j_max: int = 5) -> float:
    """Feedback inverse temperature: quadratic ramp between the endpoints."""
    if iteration < 1:
        raise DomainError(f"iteration must be >= 1, got {iteration}")
    start, end = FEEDBACK_TEMPERATURE_START, FEEDBACK_TEMPERATURE_END
    if j_max <= 1:
        return start
    frac = (iteration - 1) / (j_max - 1)
    return start + (end - start) * frac**2


def update_prior(
    batch: SampleBatch,
    feedback_beta: float,
    epsilon: float = CLIP_EPSILON,
) -> np.ndarray:
    """Energy-weighted bit-flip probabilities for the next iteration.

    Samples are weighted by exp(-beta_T * E^2); the weighted Z expectation
    per qubit gives p_i = (1 - <Z_i>)/2, clipped to [epsilon, 1-epsilon]
    to keep exploring.  A sample whose beta_T * E^2 overflows weighs 0;
    DomainError if every sample's does.
    """
    if batch.shots == 0:
        raise DomainError("cannot update prior from an empty batch")
    least = float(np.abs(batch.energies).min())
    if not math.isfinite(feedback_beta * (least * least)):
        raise DomainError(
            "penalty multipliers too large: beta_T * E^2 overflows for every sampled energy"
        )
    with np.errstate(over="ignore"):  # exp(-inf) = 0
        log_w = -feedback_beta * batch.energies**2
    weights = batch.counts * np.exp(log_w - log_w.max())
    probs = weights / weights.sum()
    z = probs @ (1 - 2 * batch.bit_matrix())
    return np.clip((1 - z) / 2, epsilon, 1 - epsilon)


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one iterative run; seeds make reruns bit-identical.

    Out-of-domain knobs raise DomainError when the config is built;
    ``lr_schedule`` checks p, dbeta and dgamma.
    """

    p: int
    dbeta: float
    dgamma: float
    shots: int
    alpha: float = 1.0
    iterations: int = 5
    seed: int = 0
    epsilon: float = CLIP_EPSILON
    target_energy: float | None = None

    def __post_init__(self):
        lr_schedule(self.p, self.dbeta, self.dgamma)
        if self.shots < 1:
            raise DomainError("shots must be >= 1")
        if not 0 < self.alpha <= 1:
            raise DomainError("alpha must lie in (0, 1]")
        if self.iterations < 1:
            raise DomainError("iterations must be >= 1")
        if not 0 <= self.epsilon < 0.5:
            raise DomainError(f"epsilon must lie in [0, 0.5), got {self.epsilon}")
        if self.seed < 0:
            raise DomainError(f"run seed must be >= 0, got {self.seed}")
        if self.target_energy is not None and not math.isfinite(self.target_energy):
            raise DomainError(f"target energy must be finite, got {self.target_energy}")


@dataclass
class IterationRecord:
    iteration: int
    feedback_beta: float
    prior: tuple[float, ...]
    histogram: tuple[tuple[float, int], ...]
    best_energy: float
    best_index: int
    kept_shots: int


@dataclass
class RunRecord:
    """Full trace of an iterative run; best-so-far never increases."""

    kind: str
    config: RunConfig
    iterations: list[IterationRecord] = field(default_factory=list)
    best_energy: float = float("inf")
    best_index: int = -1
    best_bits: tuple[int, ...] = ()
    optimum_iteration: int | None = None
    termination: str = ""
    decoded_walk: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _histogram(batch: SampleBatch) -> tuple[tuple[float, int], ...]:
    hist: dict[float, int] = {}
    for energy, count in zip(batch.energies, batch.counts):
        hist[float(energy)] = hist.get(float(energy), 0) + int(count)
    return tuple(sorted(hist.items()))


def _bits_of(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> q) & 1 for q in range(n))


def _rounding_slack(h: IsingPolynomial) -> float:
    """Bound on ``diagonal``'s rounding, n * eps * (|constant| + sum |coeff|)."""
    scale = abs(h.constant) + sum(abs(c) for c in h.terms.values())
    return h.num_qubits * np.finfo(float).eps * scale


def iterative_qaoa(
    h: IsingPolynomial,
    kind: str,
    config: RunConfig,
    layout,
    decoder: Callable[[tuple[int, ...]], dict] | None = None,
) -> RunRecord:
    """Run the full feedback loop: simulate, sample, filter, update.

    The first iteration starts from ``initial_prior(kind, layout)``.  When
    ``config.target_energy`` is set, the loop halts as soon as any shot
    reaches it, to within ``diagonal``'s rounding bound
    n * eps * (|constant| + sum |coeff|): with non-dyadic coefficients an
    optimum can sum to a few ulps above its exact value.  ``decoder``
    (bits -> dict) fills ``decoded_walk`` for the best assignment seen.
    """
    prior = initial_prior(kind, layout)
    _checked_prior(h, prior)  # before the diagonal
    schedule = lr_schedule(config.p, config.dbeta, config.dgamma)
    levels = _energy_levels(h, "simulate")  # every iteration's phase table and energies
    slack = _rounding_slack(h)
    seeds = np.random.SeedSequence(config.seed).spawn(config.iterations)

    record = RunRecord(kind=kind, config=config)
    termination = "max_iterations"
    for j in range(1, config.iterations + 1):
        probs = simulate(h, prior, schedule, levels)
        batch = sample(probs, config.shots, seeds[j - 1], levels)
        del probs  # the next simulate need not run beside it
        kept = cvar_filter(batch, config.alpha)
        fb = beta_t(j, config.iterations)

        best = int(np.argmin(batch.energies))
        iteration_best, best_energy = int(batch.indices[best]), float(batch.energies[best])
        if best_energy < record.best_energy:
            record.best_energy = best_energy
            record.best_index = iteration_best
            record.best_bits = _bits_of(iteration_best, h.num_qubits)
        record.iterations.append(
            IterationRecord(
                iteration=j,
                feedback_beta=fb,
                prior=tuple(float(p) for p in prior),
                histogram=_histogram(batch),
                best_energy=best_energy,
                best_index=iteration_best,
                kept_shots=kept.shots,
            )
        )
        if (
            config.target_energy is not None
            and record.optimum_iteration is None
            and best_energy <= config.target_energy + slack
        ):
            record.optimum_iteration = j
            termination = "optimum_sampled"
            break
        prior = update_prior(kept, fb, config.epsilon)
    record.termination = termination
    if decoder is not None and record.best_index >= 0:
        record.decoded_walk = decoder(record.best_bits)
    return record


def sweep(
    h: IsingPolynomial,
    prior: np.ndarray,
    grid: Iterable[tuple[float, float]],
    p_values: Iterable[int],
) -> list[tuple[int, float, float, float]]:
    """Evaluate p_opt over a (dbeta, dgamma) grid for each circuit depth.

    The optimal set, read from the levels, is every state within
    ``diagonal``'s rounding bound of the lowest energy (the slack
    ``iterative_qaoa`` allows its target), so optima that non-dyadic
    coefficients round apart all count.  Rows come back sorted by
    (p, dbeta, dgamma) regardless of input order.  Each value
    equals ``p_opt(simulate(...), optimal)`` of ``tests/helpers.py``
    exactly, but the last mixer computes only the optimal amplitudes
    (``_dense._light_cone``).
    """
    n = h.num_qubits
    phi = _checked_prior(h, prior)
    cells = [
        (p, dbeta, dgamma) for p in sorted(set(p_values)) for dbeta, dgamma in sorted(set(grid))
    ]
    schedules = [lr_schedule(*cell) for cell in cells]
    levels, level = _energy_levels(h, "sweep")
    cut = np.searchsorted(levels, levels[0] + _rounding_slack(h), "right")
    optimal = set(np.flatnonzero(level < cut).tolist())
    targets = sorted(optimal)
    position = {t: j for j, t in enumerate(targets)}
    order = [position[i] for i in set(optimal)]  # tests/helpers.py p_opt's summation order
    state = np.empty(1 << n, dtype=complex)  # refilled for every grid point
    block = np.empty((3, max(1 << n >> 1, 2)), dtype=complex)  # _light_cone's stages
    rows = []
    for cell, schedule in zip(cells, schedules):
        gates = _layers(state, phi, schedule, levels, level, block)
        amps = _dense._light_cone(state, gates, targets, block)
        probs = np.abs(amps) ** 2  # an array: NumPy scalars square with other rounding
        popt = float(sum(probs[j] for j in order))
        rows.append((*cell, popt))
    return rows
