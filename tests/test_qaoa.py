import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglewalk import (
    DomainError,
    HuboLayout,
    IsingPolynomial,
    QuboLayout,
    RunConfig,
    SampleBatch,
    SizeCapError,
    beta_t,
    cvar_filter,
    default_walk_length,
    diagonal,
    encode_hubo,
    encode_qubo,
    generate_tangle,
    initial_prior,
    iterative_qaoa,
    lr_schedule,
    sample,
    simulate,
    sweep,
    to_ising,
    update_prior,
)
from tanglewalk import _dense, qaoa
from tanglewalk._dense import _levels

from helpers import (
    brute_force_energies,
    dense_qaoa_distribution,
    half_split_simulate,
    half_split_table_phase,
    ising_terms,
    kron_product_state,
    old_mix_layer,
    old_simulate,
    p_opt,
    run_record_to_dict,
)


def over_budget(call):
    """``call`` raises SizeCapError at once, naming its estimate and the budget."""
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match=r"needs about \d+ bytes, over the memory budget of \d+"):
        call()
    assert time.perf_counter() - start < 1


def make_batch(indices, counts, energies, n=2):
    return SampleBatch(
        num_qubits=n,
        indices=np.asarray(indices, dtype=np.uint64),
        counts=np.asarray(counts, dtype=np.int64),
        energies=np.asarray(energies, dtype=float),
    )


class TestSchedule:
    def test_paper_qubo_point(self):
        s = lr_schedule(1, 0.63, 0.16)
        assert s.betas == (0.315,)
        assert s.gammas == (0.08,)

    def test_two_layers(self):
        s = lr_schedule(2, 1.0, 1.0)
        assert s.betas == (0.75, 0.25)
        assert s.gammas == (0.25, 0.75)

    @given(p=st.integers(1, 20))
    @settings(deadline=None)
    def test_ramps_are_mirror_images(self, p):
        s = lr_schedule(p, 0.7, 0.4)
        for beta, gamma in zip(s.betas, s.gammas):
            assert beta / 0.7 + gamma / 0.4 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_p_zero(self):
        with pytest.raises(DomainError):
            lr_schedule(0, 1, 1)

    def test_holds_only_its_layers(self):
        # p is read from the layers; the ramp inputs are not kept beside them.
        s = lr_schedule(3, 0.7, 0.4)
        assert [f.name for f in dataclasses.fields(s)] == ["betas", "gammas"]
        assert s.p == len(s.betas) == 3

    @pytest.mark.parametrize("dbeta,dgamma", [(np.nan, 1), (1, np.inf), (-np.inf, 1)])
    def test_rejects_non_finite_ramp(self, dbeta, dgamma):
        with pytest.raises(DomainError):
            lr_schedule(1, dbeta, dgamma)


class TestInitialPrior:
    def test_qubo_one_hot_bias(self):
        prior = initial_prior("qubo", QuboLayout(2, 2))
        assert prior.tolist() == [0.25] * 8

    def test_hubo_unbiased(self):
        prior = initial_prior("hubo", HuboLayout(3, 2))
        assert prior.tolist() == [0.5] * 6

    def test_qubo_single_node(self):
        assert initial_prior("qubo", QuboLayout(2, 1)).tolist() == [0.5] * 4

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            initial_prior("mixed", QuboLayout(1, 1))


class TestSimulate:
    def test_identity_circuit_stays_on_zero(self):
        h = IsingPolynomial(3, {(0, 1): 1.0})
        probs = simulate(h, np.zeros(3), lr_schedule(2, 0.0, 0.0))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_gamma_reproduces_prior(self):
        h = to_ising(encode_hubo_fixture())
        prior = np.array([0.3, 0.7, 0.1, 0.5])
        probs = simulate(h, prior, lr_schedule(3, 0.9, 0.0))
        idx = np.arange(16)
        expect = np.ones(16)
        for q in range(4):
            bit = (idx >> q) & 1
            expect = expect * np.where(bit, prior[q], 1 - prior[q])
        assert np.abs(probs - expect).max() < 1e-12

    def test_single_qubit_against_dense_matrices(self):
        h = IsingPolynomial(1, {(0,): 1.0})
        schedule = lr_schedule(1, np.pi / 2, np.pi / 4)
        probs = simulate(h, np.array([0.5]), schedule)
        expected = dense_qaoa_distribution(h, [0.5], schedule.betas, schedule.gammas)
        assert np.abs(probs - expected).max() < 1e-10

    def test_tangle2_hubo_against_dense_matrices(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        for p, db, dg in [(1, 0.75, 0.30), (3, 0.63, 0.16)]:
            schedule = lr_schedule(p, db, dg)
            prior = np.full(4, 0.5)
            probs = simulate(h, prior, schedule)
            expected = dense_qaoa_distribution(h, prior, schedule.betas, schedule.gammas)
            assert 0.5 * np.abs(probs - expected).sum() < 1e-10

    def test_norm_preserved(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        probs = simulate(h, np.full(4, 0.25), lr_schedule(5, 0.8, 0.4))
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_gamma_sampled_marginals_match_prior(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        prior = np.array([0.2, 0.5, 0.7, 0.35])
        probs = simulate(h, prior, lr_schedule(2, 0.9, 0.0))
        shots = 100_000
        batch = sample(probs, shots, 13, _levels(diagonal(h)))
        bits = batch.bit_matrix()
        for q in range(4):
            freq = float((batch.counts * bits[:, q]).sum())
            sigma = math.sqrt(shots * prior[q] * (1 - prior[q]))
            assert abs(freq - shots * prior[q]) < 5 * sigma

    def test_memory_cap(self):
        over_budget(lambda: simulate(IsingPolynomial(40), np.full(40, 0.5), lr_schedule(1, 1, 1)))
        config = RunConfig(p=1, dbeta=1, dgamma=1, shots=10)
        over_budget(
            lambda: iterative_qaoa(IsingPolynomial(40), "hubo", config, layout=HuboLayout(40, 1))
        )

    def test_reused_levels_give_the_same_distribution(self):
        h = random_ising(6, 0, True)
        prior, schedule = np.full(6, 0.3), lr_schedule(2, 0.7, 0.4)
        levels = _levels(diagonal(h))
        assert np.array_equal(simulate(h, prior, schedule, levels), simulate(h, prior, schedule))

    @pytest.mark.parametrize(
        "index",
        [np.zeros(4, np.uint8), np.zeros(16, np.uint8), np.ones(8, np.uint8), np.zeros(8, np.int64)],
        ids=["short", "long", "past the table", "signed"],
    )
    def test_levels_checked(self, index):
        levels = (np.zeros(1), index)
        with pytest.raises(DomainError):
            simulate(IsingPolynomial(3), np.full(3, 0.5), lr_schedule(1, 1, 1), levels)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_prior_outside_unit_interval_rejected(self, bad):
        with pytest.raises(DomainError):
            simulate(IsingPolynomial(2), np.array([0.5, bad]), lr_schedule(1, 1, 1))


def wide_instance(kind):
    """A 12-qubit planted tangle: QUBO with 2 nodes and T=3, HUBO with 3 nodes and T=4."""
    if kind == "qubo":
        return to_ising(encode_qubo(generate_tangle(0, 2, 3, 0.25), 3))
    return to_ising(encode_hubo(generate_tangle(0, 3, 1, 0.25), 4))


def random_ising(n, seed, odd_terms):
    """Dyadic Z terms of degree 1-3; without odd-degree terms E(x) = E(~x)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for degree in (1, 2, 3):
        if degree > n or (degree % 2 and not odd_terms):
            continue
        for _ in range(2 * n):
            qubits = rng.choice(n, degree, replace=False).tolist()
            pairs.append((qubits, int(rng.integers(-8, 9)) / 4))
    return IsingPolynomial(n, ising_terms(pairs))


def distinct_ising(n, seed):
    """Gaussian Z terms of degree 1-3: every energy distinct (a uint32 index from 17 qubits)."""
    rng = np.random.default_rng(seed)
    degrees = [min(d, n) for d in (1, 2, 3) * n]
    pairs = [(rng.choice(n, d, replace=False).tolist(), rng.normal()) for d in degrees]
    return IsingPolynomial(n, ising_terms(pairs))


def oracle_prior(kind, n):
    rng = np.random.default_rng(5)
    prior = rng.uniform(0.01, 0.99, n)
    if kind == "binary":
        prior[::3] = 0.0
        prior[1::3] = 1.0
    return prior


class TestSimulateMatchesOracle:
    @pytest.mark.parametrize("prior_kind", ["open", "binary"])
    @pytest.mark.parametrize("kind", ["qubo", "hubo"])
    def test_bit_identical(self, kind, prior_kind):
        h = wide_instance(kind)
        assert h.num_qubits == 12
        prior = oracle_prior(prior_kind, h.num_qubits)
        for p in (1, 2, 3):
            schedule = lr_schedule(p, 0.83, 0.41)
            assert np.array_equal(simulate(h, prior, schedule), old_simulate(h, prior, schedule))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_bit_identical_at_tiny_widths(self, n):
        rng = np.random.default_rng(n)
        for trial in range(20):
            h = random_ising(n, trial, odd_terms=True)
            prior = rng.uniform(0, 1, n)
            schedule = lr_schedule(1 + trial % 3, *rng.uniform(0, 2, 2))
            assert np.array_equal(simulate(h, prior, schedule), old_simulate(h, prior, schedule))

    @pytest.mark.parametrize("n", [15, 17])
    def test_bit_identical_across_the_chunk_boundary(self, n):
        # Qubits from 14 up are mixed on column strips, not within chunks.
        h = random_ising(n, n, odd_terms=True)
        for prior_kind in ("open", "binary"):
            prior = oracle_prior(prior_kind, n)
            schedule = lr_schedule(2, 0.83, 0.41)
            assert np.array_equal(simulate(h, prior, schedule), old_simulate(h, prior, schedule))


class TestChunkSizedBuffersMatchHalfSplit:
    """The phase gathered one scratch-length slice at a time, and the squares
    taken in place, give the bits of the half-split copies in helpers.py."""

    @pytest.mark.parametrize("n", range(21))
    def test_table_phase(self, n):
        rng = np.random.default_rng(n)
        for h in (random_ising(n, n, odd_terms=True), distinct_ising(n, n)):
            levels, level = _levels(diagonal(h))
            state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            expected = state.copy()
            half_split_table_phase(expected, 0.37, levels, level)
            _dense._table_phase(state, 0.37, levels, level, _dense._scratch(n))
            assert same_bits(state, expected)

    @pytest.mark.parametrize("n", range(21))
    def test_simulate(self, n):
        uniform = (random_ising(n, n, odd_terms=True), np.full(n, 0.5))
        random = (distinct_ising(n, n), np.random.default_rng(n).uniform(0, 1, n))
        for h, prior in (uniform, random):
            for p in (1, 2):
                schedule = lr_schedule(p, 0.83, 0.41)
                assert np.array_equal(
                    simulate(h, prior, schedule), half_split_simulate(h, prior, schedule)
                )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, the signs of zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMixLayer:
    @pytest.mark.parametrize("n", range(21))
    def test_matches_per_qubit_loop(self, n):
        rng = np.random.default_rng(100 + n)
        shared = qaoa._mixer_matrix(0.7, 1.1)
        for trial in range(2 if n > 16 else 5):
            state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            if trial % 2:
                gates = [shared] * n
            else:
                gates = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(n)]
            expected = state.copy()
            old_mix_layer(expected, gates)
            # simulate's block, and sweep's, whose rows are half the state long
            for block in (_dense._scratch(n), np.empty((3, max(1 << n >> 1, 2)), complex)):
                mixed = state.copy()
                _dense._mix_layer(mixed, gates, block)
                assert same_bits(mixed, expected)

    def test_gates_built_once_per_distinct_angle(self, monkeypatch):
        built = []
        monkeypatch.setattr(qaoa, "_mixer_matrix", lambda beta, phi: built.append(phi) or phi)
        phi = np.array([0.5, 0.25, 0.5, 0.5, 0.25])
        assert qaoa._layer_gates(0.3, phi) == list(phi)
        assert sorted(built) == [0.25, 0.5]


class TestProductState:
    @pytest.mark.parametrize("n", range(19))
    def test_matches_kron_chain(self, n):
        rng = np.random.default_rng(n)
        for phi in (rng.uniform(0, np.pi, n), np.zeros(n), np.full(n, np.pi)):
            out = np.full(1 << n, np.nan, dtype=complex)
            assert same_bits(_dense._product_state(phi, out), kron_product_state(phi))


class TestLevels:
    @staticmethod
    def assert_matches_return_inverse(energies):
        expected, inverse = np.unique(energies, return_inverse=True)
        levels, level = _levels(energies)
        assert same_bits(levels, expected)
        assert level.dtype == np.min_scalar_type(len(expected) - 1)
        assert np.array_equal(level, inverse)

    @pytest.mark.parametrize("kind", ["qubo", "hubo"])
    def test_workload_diagonals(self, kind):
        self.assert_matches_return_inverse(diagonal(wide_instance(kind)))
        self.assert_matches_return_inverse(diagonal(random_ising(16, 0, odd_terms=True)))

    @pytest.mark.parametrize(
        "energies",
        [np.array([2.5]), np.full(64, -1.25), np.arange(300.0) % 257],
        ids=["no qubits", "one level", "two-byte index"],
    )
    def test_edge_cases(self, energies):
        self.assert_matches_return_inverse(energies)

    def test_signed_zeros(self):
        # Both zeros fall in one level.  Which sign it carries depends on
        # how the sort ordered them, in np.unique with return_inverse too,
        # and no output depends on it.
        rng = np.random.default_rng(3)
        energies = rng.choice(np.array([-0.0, 0.0, 1.0, -1.0]), 1 << 8)
        expected, inverse = np.unique(energies, return_inverse=True)
        levels, level = _levels(energies)
        assert np.array_equal(levels, expected) and np.array_equal(level, inverse)
        h = IsingPolynomial(8, ising_terms([([0, 1], 0.5), ([2], -0.5), ([3], 0.25), ([4, 5], 0.25)]))
        values, index = _levels(diagonal(h))
        zero = values == 0
        assert zero.any()
        flipped = np.where(zero, -values, values)
        assert not same_bits(flipped, values)
        schedule = lr_schedule(2, 0.7, 0.9)
        prior = oracle_prior("open", 8)
        assert same_bits(
            simulate(h, prior, schedule, (flipped, index)),
            simulate(h, prior, schedule, (values, index)),
        )


def encode_hubo_fixture():
    from tanglewalk import OrientedGraph

    g = OrientedGraph(2, (1, 1), frozenset({(0, 2), (2, 0), (1, 3), (3, 1)}))
    return encode_hubo(g, 2)


class TestSample:
    def test_point_mass(self):
        probs = np.array([1.0, 0, 0, 0])
        batch = sample(probs, 50, 7, _levels(np.array([2.0, 0, 0, 0])))
        assert batch.indices.tolist() == [0]
        assert batch.counts.tolist() == [50]
        assert batch.energies.tolist() == [2.0]

    def test_zero_shots(self):
        batch = sample(np.full(4, 0.25), 0, 1, _levels(np.zeros(4)))
        assert batch.shots == 0 and len(batch.indices) == 0

    def test_deterministic_in_seed(self):
        probs = np.full(8, 0.125)
        a = sample(probs, 1000, 42, _levels(np.zeros(8)))
        b = sample(probs, 1000, 42, _levels(np.zeros(8)))
        assert a.indices.tolist() == b.indices.tolist()
        assert a.counts.tolist() == b.counts.tolist()

    def test_uniform_frequencies_within_five_sigma(self):
        shots = 1_000_000
        batch = sample(np.full(4, 0.25), shots, 11, _levels(np.zeros(4)))
        sigma = math.sqrt(shots * 0.25 * 0.75)
        for count in batch.counts:
            assert abs(count - shots / 4) < 5 * sigma

    def test_energies_are_the_diagonal_bit_for_bit(self):
        # values[index[hit]] reads back E[hit], zeros included: no energy is -0.0.
        zeros = IsingPolynomial(2, ising_terms([([0], 0.5), ([1], 0.5)]), -0.0)
        for h in (zeros, random_ising(10, 4, odd_terms=True), distinct_ising(10, 4)):
            energies = diagonal(h)
            probs = simulate(h, np.full(h.num_qubits, 0.4), lr_schedule(1, 0.6, 0.3))
            batch = sample(probs, 5000, 9, _levels(energies))
            assert same_bits(batch.energies, energies[batch.indices.astype(np.intp)])
        assert same_bits(diagonal(zeros), np.array([1.0, 0.0, 0.0, -1.0]))

    def test_multiplicities_sum_to_shots(self):
        batch = sample(np.full(16, 1 / 16), 999, 3, _levels(np.zeros(16)))
        assert batch.counts.sum() == batch.shots == 999

    def test_shots_are_read_from_the_counts(self):
        batch = make_batch([0, 3], [4, 6], [1.0, 2.0])
        assert dataclasses.replace(batch, counts=np.array([1, 2])).shots == 3

    @pytest.mark.parametrize("bad", [np.nan, -0.25, np.inf])
    def test_invalid_probabilities_rejected(self, bad):
        with pytest.raises(DomainError):
            sample(np.array([0.5, 0.75, bad, 0.0]), 10, 0, _levels(np.zeros(4)))

    @pytest.mark.parametrize("length", [3, 16])
    def test_energies_length_checked(self, length):
        with pytest.raises(DomainError):
            sample(np.full(8, 0.125), 100, 0, _levels(np.zeros(length)))

    @pytest.mark.parametrize("probs", [np.zeros(4), np.zeros(0)], ids=["all-zero", "empty"])
    @pytest.mark.parametrize("shots", [0, 10])
    def test_no_distribution_rejected(self, probs, shots):
        with pytest.raises(DomainError):
            sample(probs, shots, 0, _levels(np.zeros(len(probs))))


class TestCvarFilter:
    def test_alpha_one_is_identity(self):
        batch = make_batch([0, 3], [4, 6], [1.0, 2.0])
        kept = cvar_filter(batch, 1.0)
        assert kept.counts.sum() == 10

    def test_cutoff_tie_broken_by_index(self):
        batch = make_batch([0, 2, 1, 3], [1, 1, 1, 1], [0.0, 5.0, 5.0, 9.0])
        kept = cvar_filter(batch, 0.5)
        assert kept.shots == 2
        pairs = dict(zip(kept.indices.tolist(), kept.counts.tolist()))
        assert pairs == {0: 1, 1: 1}  # energy-0 shot plus the lower-index energy-5 shot

    def test_partial_multiplicity_at_cutoff(self):
        batch = make_batch([5], [10], [1.0])
        kept = cvar_filter(batch, 0.35)
        assert kept.shots == 4  # ceil(3.5)
        assert kept.counts.tolist() == [4]

    def test_paper_retention_count(self):
        rng = np.random.default_rng(0)
        counts = rng.multinomial(40_000, np.full(32, 1 / 32))
        batch = make_batch(np.arange(32), counts, rng.normal(size=32), n=5)
        kept = cvar_filter(batch, 0.1)
        assert kept.shots == 4_000
        assert kept.counts.sum() == 4_000

    def test_alpha_range(self):
        batch = make_batch([0], [1], [0.0])
        with pytest.raises(DomainError):
            cvar_filter(batch, 0.0)


class TestBetaT:
    def test_endpoints(self):
        assert beta_t(1) == pytest.approx(0.015, abs=1e-15)
        assert beta_t(5) == pytest.approx(0.045, abs=1e-15)

    def test_quadratic_midpoint(self):
        assert beta_t(3) == pytest.approx(0.0225, abs=1e-15)

    def test_single_iteration_run(self):
        assert beta_t(1, j_max=1) == 0.015


class TestUpdatePrior:
    def test_repeated_bitstring_clips(self):
        batch = make_batch([5], [3], [1.0], n=3)  # bits (1, 0, 1)
        prior = update_prior(batch, 0.015)
        assert prior.tolist() == [0.85, 0.15, 0.85]

    def test_two_sample_worked_example(self):
        batch = make_batch([2, 3], [1, 1], [0.0, 10.0])  # s1=(0,1), s2=(1,1)
        prior = update_prior(batch, 0.015)
        w2 = math.exp(-0.015 * 100.0)
        expected_q0 = w2 / (1 + w2)
        assert abs(prior[0] - expected_q0) < 1e-12
        assert prior[1] == 0.85

    def test_zero_temperature_gives_empirical_frequencies(self):
        batch = make_batch([0, 3], [3, 1], [0.0, 99.0])
        prior = update_prior(batch, 0.0)
        assert prior.tolist() == [0.25, 0.25]

    def test_empty_batch_is_an_error(self):
        empty = make_batch([], [], [])
        with pytest.raises(DomainError):
            update_prior(empty, 0.015)

    def test_huge_energies_stay_finite(self):
        batch = make_batch([0, 1], [1, 1], [1e6, 2e6])
        prior = update_prior(batch, 0.045)
        assert np.all(np.isfinite(prior))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_clip_band_and_monotone_evidence(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, min(6, 2**n)))
        indices = data.draw(
            st.lists(st.integers(0, 2**n - 1), min_size=m, max_size=m, unique=True)
        )
        counts = data.draw(st.lists(st.integers(1, 50), min_size=m, max_size=m))
        energies = data.draw(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=m, max_size=m)
        )
        batch = make_batch(indices, counts, energies, n=n)
        prior = update_prior(batch, 0.03)
        assert np.all(prior >= 0.15) and np.all(prior <= 0.85)
        for q in range(n):
            if all((i >> q) & 1 for i in indices):
                assert prior[q] == 0.85


class TestRunConfigValidate:
    @pytest.mark.parametrize(
        "override",
        [
            {"epsilon": -0.01},
            {"epsilon": 0.5},
            {"epsilon": float("nan")},
            {"dbeta": float("inf")},
            {"dbeta": float("nan")},
            {"dgamma": float("-inf")},
            {"shots": 0},
        ],
    )
    def test_rejects_out_of_domain_knobs(self, override):
        with pytest.raises(DomainError):
            RunConfig(**{"p": 1, "dbeta": 0.75, "dgamma": 0.3, "shots": 10, **override})

    def test_accepts_clip_boundary_zero(self):
        RunConfig(p=1, dbeta=0.75, dgamma=0.3, shots=10, epsilon=0.0)


class TestIterativeQaoa:
    def test_tangle2_hubo_finds_optimum_in_first_iteration(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        layout = HuboLayout.for_graph(tangle2, 2)
        first_iteration_hits = 0
        for seed in range(20):
            config = RunConfig(
                p=1, dbeta=0.75, dgamma=0.30, shots=400, alpha=0.1,
                iterations=5, seed=seed, target_energy=0.0,
            )
            record = iterative_qaoa(h, "hubo", config, layout=layout)
            if record.optimum_iteration == 1:
                first_iteration_hits += 1
        assert first_iteration_hits >= 18

    def test_rerun_is_bit_identical(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        layout = HuboLayout.for_graph(tangle2, 2)
        config = RunConfig(p=2, dbeta=0.75, dgamma=0.30, shots=200, alpha=0.5, seed=9)
        a = iterative_qaoa(h, "hubo", config, layout=layout)
        b = iterative_qaoa(h, "hubo", config, layout=layout)
        assert a.to_dict() == b.to_dict()

    def test_record_config_reproduces_run_config(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        config = RunConfig(
            p=1, dbeta=0.75, dgamma=0.30, shots=50, iterations=1, seed=2,
            alpha=0.5, epsilon=0.1, target_energy=0.0,
        )
        record = iterative_qaoa(h, "hubo", config, layout=HuboLayout.for_graph(tangle2, 2))
        assert RunConfig(**record.to_dict()["config"]) == record.config

    @pytest.mark.parametrize("target", [None, 0.0])
    @pytest.mark.parametrize("kind", ["qubo", "hubo"])
    def test_to_dict_matches_field_by_field_json(self, tangle2, kind, target):
        if kind == "qubo":
            poly, layout = encode_qubo(tangle2, 2), QuboLayout(2, 2)
        else:
            poly, layout = encode_hubo(tangle2, 2), HuboLayout.for_graph(tangle2, 2)
        config = RunConfig(
            p=1, dbeta=0.75, dgamma=0.30, shots=300, alpha=0.2, iterations=3, seed=5,
            target_energy=target,
        )
        record = iterative_qaoa(
            to_ising(poly), kind, config, layout=layout, decoder=lambda bits: {"bits": list(bits)}
        )
        assert json.dumps(record.to_dict(), sort_keys=True) == json.dumps(
            run_record_to_dict(record), sort_keys=True
        )

    def test_full_coverage_reaches_exhaustive_minimum(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        layout = HuboLayout.for_graph(tangle2, 2)
        config = RunConfig(p=1, dbeta=0.75, dgamma=0.30, shots=200_000, iterations=1, seed=0)
        record = iterative_qaoa(h, "hubo", config, layout=layout)
        assert record.best_energy == diagonal(h).min()

    def test_best_energy_non_increasing(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        layout = HuboLayout.for_graph(tangle2, 2)
        config = RunConfig(p=1, dbeta=0.75, dgamma=0.30, shots=64, alpha=0.5, seed=4)
        record = iterative_qaoa(h, "hubo", config, layout=layout)
        best_so_far = math.inf
        for rec in record.iterations:
            best_so_far = min(best_so_far, rec.best_energy)
            assert best_so_far <= rec.best_energy
        assert record.best_energy == best_so_far

    def test_decoder_callback_fills_walk(self, tangle2):
        from tanglewalk import decode_hubo, walk_cost

        h = to_ising(encode_hubo(tangle2, 2))
        layout = HuboLayout.for_graph(tangle2, 2)

        def decode(bits):
            d = decode_hubo(bits, layout, tangle2)
            return {"steps": list(d.steps), "cost": walk_cost(tangle2, d.steps)}

        config = RunConfig(
            p=1, dbeta=0.75, dgamma=0.30, shots=4000, seed=1, target_energy=0.0
        )
        record = iterative_qaoa(h, "hubo", config, layout=layout, decoder=decode)
        assert record.decoded_walk["cost"] == 0


class TestPopt:
    def test_uniform(self):
        assert p_opt(np.full(4, 0.25), {0}) == pytest.approx(0.25)

    def test_full_set(self):
        assert p_opt(np.full(8, 0.125), range(8)) == pytest.approx(1.0)

    def test_beats_prior_mass_on_tangle2(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        diag = diagonal(h)
        optima = set(np.flatnonzero(diag == diag.min()).tolist())
        prior = np.full(4, 0.5)
        probs = simulate(h, prior, lr_schedule(1, 0.75, 0.30))
        value = p_opt(probs, optima)
        assert 0 < value <= 1
        assert value > len(optima) / 16  # prior assigns uniform mass


class TestSweep:
    def test_single_cell(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        prior = np.full(4, 0.5)
        rows = sweep(h, prior, [(0.75, 0.30)], [1])
        probs = simulate(h, prior, lr_schedule(1, 0.75, 0.30))
        diag = diagonal(h)
        optima = np.flatnonzero(diag == diag.min())
        assert rows == [(1, 0.75, 0.30, p_opt(probs, optima))]

    def test_zero_gamma_cells_equal_prior_mass(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        prior = np.full(4, 0.5)
        rows = sweep(h, prior, [(0.5, 0.0), (0.8, 0.0)], [1, 2])
        for _, _, _, popt in rows:
            assert popt == pytest.approx(4 / 16, abs=1e-9)

    def test_grid_refinement_is_superset(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        prior = np.full(4, 0.5)
        coarse = [(b, g) for b in (0.2, 0.6) for g in (0.1, 0.3)]
        fine = coarse + [(0.4, 0.2)]
        coarse_rows = set(sweep(h, prior, coarse, [1]))
        fine_rows = set(sweep(h, prior, fine, [1]))
        assert coarse_rows <= fine_rows

    def test_non_dyadic_optima_all_count(self):
        # With penalties 0.3 and 0.7 the six optimal walks' energies round
        # to six values between 1.9e-15 and 3.0e-15; the next energy is 0.3.
        g = generate_tangle(2, 2, 1, 0.25)
        poly = encode_qubo(g, default_walk_length(g), 0.3, 0.7)
        h = to_ising(poly)
        binary = brute_force_energies(poly)
        optima = sorted(np.flatnonzero(binary < 0.15).tolist())
        assert len(optima) == 6
        energies = diagonal(h)
        assert np.count_nonzero(energies == energies.min()) == 1
        prior = np.full(h.num_qubits, 0.4)
        grid = [(0.6, 0.2), (0.9, 0.35)]
        expected = [
            (p, db, dg, p_opt(simulate(h, prior, lr_schedule(p, db, dg)), optima))
            for p in (1, 2)
            for db, dg in grid
        ]
        assert sweep(h, prior, grid, [1, 2]) == expected


class TestSweepLightCone:
    @pytest.mark.parametrize(
        "make,degenerate",
        [
            pytest.param(lambda: random_ising(14, 3, odd_terms=True), False, id="one-optimum"),
            pytest.param(lambda: random_ising(14, 3, odd_terms=False), True, id="mirrored-optima"),
            pytest.param(
                lambda: to_ising(encode_qubo(generate_tangle(2, 2, 3, 0.25), 4)),
                True,
                id="qubo-16",
            ),
        ],
    )
    def test_rows_equal_full_distribution(self, make, degenerate):
        h = make()
        assert h.num_qubits >= 14
        energies = diagonal(h)
        optima = set(np.flatnonzero(energies == energies.min()).tolist())
        assert (len(optima) > 1) == degenerate
        prior = oracle_prior("open", h.num_qubits)
        grid = [(0.9, 0.35), (0.4, 0.7)]
        expected = [
            (p, db, dg, p_opt(simulate(h, prior, lr_schedule(p, db, dg)), optima))
            for p in (1, 2, 3)
            for db, dg in sorted(grid)
        ]
        assert sweep(h, prior, grid, [3, 1, 2]) == expected

    def test_many_cells_one_optimum(self):
        # One optimum, so each p_opt is a single squared amplitude: squaring
        # NumPy scalars one by one instead of an array rounds apart about
        # once in a thousand values, and 1,600 rows make that show.
        h = random_ising(6, 3, odd_terms=True)
        energies = diagonal(h)
        optima = set(np.flatnonzero(energies == energies.min()).tolist())
        assert len(optima) == 1
        prior = oracle_prior("open", 6)
        grid = [(b, g) for b in np.linspace(0.1, 1.5, 40) for g in np.linspace(0.05, 1.2, 40)]
        expected = [
            (1, db, dg, p_opt(simulate(h, prior, lr_schedule(1, db, dg)), optima))
            for db, dg in sorted(grid)
        ]
        assert sweep(h, prior, grid, [1]) == expected

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_widths(self, n):
        h = random_ising(n, 1, odd_terms=True)
        prior = np.full(n, 0.3)
        energies = diagonal(h)
        optima = set(np.flatnonzero(energies == energies.min()).tolist())
        probs = simulate(h, prior, lr_schedule(2, 0.6, 0.5))
        assert sweep(h, prior, [(0.6, 0.5)], [2]) == [(2, 0.6, 0.5, p_opt(probs, optima))]

    def test_sixteen_qubits_match_old_simulate(self):
        h = to_ising(encode_qubo(generate_tangle(2, 2, 3, 0.25), 4))
        assert h.num_qubits == 16
        energies = diagonal(h)
        optima = set(np.flatnonzero(energies == energies.min()).tolist())
        prior = oracle_prior("open", 16)
        grid = [(0.9, 0.35), (0.4, 0.7)]
        expected = [
            (p, db, dg, p_opt(old_simulate(h, prior, lr_schedule(p, db, dg)), optima))
            for p in (1, 3)
            for db, dg in sorted(grid)
        ]
        assert sweep(h, prior, grid, [1, 3]) == expected

    def test_checks_match_simulate(self):
        over_budget(lambda: sweep(IsingPolynomial(40), np.full(40, 0.5), [(0.5, 0.5)], [1]))
        h = IsingPolynomial(8)
        with pytest.raises(DomainError):
            sweep(h, np.full(7, 0.5), [(0.5, 0.5)], [1])
        with pytest.raises(DomainError):
            sweep(h, np.full(8, 1.5), [(0.5, 0.5)], [1])
        with pytest.raises(DomainError):
            sweep(h, np.full(8, 0.5), [(0.5, float("nan"))], [1])

    def test_checks_come_before_the_diagonal(self, monkeypatch):
        def no_diagonal(h):
            raise AssertionError("diagonal built before the inputs were checked")

        monkeypatch.setattr(qaoa, "diagonal", no_diagonal)
        monkeypatch.setattr(qaoa, "_integer_levels", no_diagonal)
        h = IsingPolynomial(8)
        with pytest.raises(DomainError):
            sweep(h, np.full(7, 0.5), [(0.5, 0.5)], [1])
        with pytest.raises(DomainError):
            sweep(h, np.full(8, 0.5), [(0.5, float("nan"))], [1])
