import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglewalk import (
    BinaryPolynomial,
    DomainError,
    HuboLayout,
    IsingPolynomial,
    RunConfig,
    SizeCapError,
    diagonal,
    encode_hubo,
    encode_qubo,
    default_walk_length,
    generate_tangle,
    iterative_qaoa,
    lr_schedule,
    simulate,
    sweep,
    to_ising,
)
from tanglewalk import qaoa
from tanglewalk.circuits import _is_global_phase
from tanglewalk.ising import _integer_levels
from tanglewalk._dense import MEMORY_BUDGET, _check_memory, _levels, _walsh_hadamard

import test_acceptance as acceptance
from helpers import (
    all_assignments,
    dense_cost_matrix,
    evaluate,
    ising_energy,
    ising_terms,
    old_to_ising,
    old_walsh_hadamard,
    parity_energies,
)


def random_ising(data, coeffs):
    """IsingPolynomial on at most 8 qubits with coefficients drawn from ``coeffs``."""
    n = data.draw(st.integers(0, 8))
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=24)) if n else []
    constant = data.draw(coeffs)
    pairs = [([q for q in range(n) if mask >> q & 1], data.draw(coeffs)) for mask in masks]
    return IsingPolynomial(n, ising_terms(pairs), constant)


def test_single_variable_substitution():
    h = to_ising(BinaryPolynomial(1, {(0,): 1}))
    assert h.constant == 0.5
    assert h.terms == {(0,): -0.5}


def test_pair_substitution():
    h = to_ising(BinaryPolynomial(2, {(0, 1): 1}))
    assert h.constant == 0.25
    assert h.terms == {(0,): -0.25, (1,): -0.25, (0, 1): 0.25}


@pytest.mark.parametrize("seed", range(4))
def test_to_ising_is_independent_of_term_order(seed):
    # Non-dyadic penalties make the float sums order-sensitive; a polynomial
    # read back from its JSON lists its terms in another order.
    g = generate_tangle(seed, 2, 2, 0.25)
    p = encode_qubo(g, default_walk_length(g), 0.3, 0.7)
    reordered = BinaryPolynomial(p.num_vars, dict(reversed(list(p.terms.items()))))
    assert to_ising(p) == to_ising(reordered)
    assert to_ising(p) == to_ising(BinaryPolynomial.from_dict(p.to_dict()))


def polynomial_digest() -> str:
    """SHA-256 over the encoders' and ``to_ising``'s output, term by term in dict order.

    Covers the criterion-06 family and generator seeds 0-20 at 2 and 3
    nodes, each encoded both ways at the default and at non-dyadic penalties.
    """
    digest = hashlib.sha256()

    def add(terms):
        for mono, c in terms.items():
            digest.update(f"{mono!r} {type(c).__name__} {float(c).hex()};".encode())

    instances = acceptance.planted_instances(
        50,
        lambda g, T: 4 <= HuboLayout.for_graph(g, T).num_vars <= 8,
        [(2, 3, 0.25), (3, 1, 0.25), (4, 1, 0.2), (2, 4, 0.3), (3, 2, 0.3)],
    )
    instances += [
        (g, default_walk_length(g))
        for nodes in (2, 3)
        for g in (generate_tangle(seed, nodes) for seed in range(21))
    ]
    for g, T in instances:
        for (one_hot, edge), hubo in (((10, 5), 10), ((0.3, 0.7), 0.3)):
            for poly in (encode_qubo(g, T, one_hot, edge), encode_hubo(g, T, hubo)):
                add(poly.terms)
                h = to_ising(poly)
                add(h.terms)
                digest.update(f"{h.num_qubits} {h.constant.hex()}|".encode())
    return digest.hexdigest()


def test_encodings_and_ising_match_pinned_digest():
    # Pinned before the term store was shared between the two polynomial
    # types: keys, key order, coefficient types and bits all unchanged.
    assert polynomial_digest() == (
        "15da2c3739fc5ef6a2e4f905415ef902582bfa53b982c8ead4c64937986a317e"
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_to_ising_matches_frozen_copy(data):
    # Float coefficients make every sum order-sensitive, and dyadic ones
    # cancel exactly: same keys, key order, types and bits as the old store.
    n = data.draw(st.integers(1, 7))
    coeffs = (
        st.floats(-100, 100, allow_nan=False)
        | st.integers(-9, 9).map(lambda k: k / 4)
        | st.integers(-9, 9)
    )
    monos = st.frozensets(st.integers(0, n - 1), max_size=n).map(lambda s: tuple(sorted(s)))
    poly = BinaryPolynomial(n, data.draw(st.dictionaries(monos, coeffs, max_size=16)))
    new, old = to_ising(poly), old_to_ising(poly)

    def bits(terms):
        return [(key, type(c).__name__, float(c).hex()) for key, c in terms.items()]

    assert new.num_qubits == old.num_qubits
    assert bits(new.terms) == bits(old.terms)
    assert new.constant.hex() == old.constant.hex()


@pytest.mark.parametrize(
    "terms",
    [
        {(0, 1, 0): 1.0},  # Z_q * Z_q = 1 is not applied: keys come canonical
        {(0, 0): 1.0},
        {(1, 0): 1.0},
        {(): 1.0},  # the constant has its own field
        {(0, 3): 1.0},
        {(-1,): 1.0},
        {(0.0,): 1.0},
        {frozenset({0}): 1.0},
        {(0,): 0.0},  # zero coefficients are never stored
        {(0, 1): 0},
        {(0,): float("nan")},
        {(0, 2): float("inf")},
        {(1,): -float("inf")},
    ],
    ids=[
        "repeated-qubit", "repeated-pair", "unsorted", "empty", "out-of-range", "negative",
        "float-qubit", "not-a-tuple", "zero-float", "zero-int", "nan", "inf", "minus-inf",
    ],
)
def test_constructor_rejects_non_canonical_terms(terms):
    with pytest.raises(DomainError):
        IsingPolynomial(3, terms)


@pytest.mark.parametrize("constant", [float("nan"), float("inf"), -float("inf")])
def test_constructor_rejects_non_finite_constant(constant):
    with pytest.raises(DomainError, match="not finite"):
        IsingPolynomial(3, {(0,): 1.0}, constant)


def test_constructor_rejects_negative_width():
    with pytest.raises(DomainError):
        IsingPolynomial(-1)


def test_ising_polynomial_is_frozen():
    h = IsingPolynomial(2, {(0, 1): 1.0}, 0.5)
    with pytest.raises(AttributeError):
        h.constant = 1.0
    assert h == IsingPolynomial(2, {(0, 1): 1.0}, 0.5) != IsingPolynomial(2, {(0, 1): 1.0})


def test_hubo_equivalence_is_exact(tangle2):
    poly = encode_hubo(tangle2, 2)
    h = to_ising(poly)
    for x in all_assignments(poly.num_vars):
        assert ising_energy(h, x) == evaluate(poly, x)


def test_minimiser_set_preserved(tangle2):
    poly = encode_hubo(tangle2, 2)
    h = to_ising(poly)
    binary = np.array([evaluate(poly, x) for x in all_assignments(poly.num_vars)])
    spectral = diagonal(h)
    assert np.array_equal(
        np.flatnonzero(binary == binary.min()), np.flatnonzero(spectral == spectral.min())
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_random_polynomials_agree(data):
    n = data.draw(st.integers(1, 6))
    terms = data.draw(
        st.dictionaries(
            st.frozensets(st.integers(0, n - 1), max_size=n).map(
                lambda s: tuple(sorted(s))
            ),
            st.integers(-20, 20).filter(lambda c: c != 0),
            max_size=10,
        )
    )
    poly = BinaryPolynomial(n, terms)
    h = to_ising(poly)
    x = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    assert ising_energy(h, x) == evaluate(poly, x)


class TestIsingEnergy:
    def test_single_z(self):
        h = IsingPolynomial(1, {(0,): 1})
        assert ising_energy(h, (0,)) == 1
        assert ising_energy(h, (1,)) == -1

    def test_zz(self):
        h = IsingPolynomial(2, {(0, 1): 1})
        assert ising_energy(h, (0, 1)) == -1
        assert ising_energy(h, (1, 1)) == 1

    def test_constant_included(self):
        h = IsingPolynomial(1, {(0,): 2}, constant=3)
        assert ising_energy(h, (0,)) == 5


class TestDiagonal:
    def test_single_qubit(self):
        assert diagonal(IsingPolynomial(1, {(0,): 1})).tolist() == [1, -1]

    def test_constant(self):
        h = IsingPolynomial(2, constant=3)
        assert diagonal(h).tolist() == [3, 3, 3, 3]

    def test_matches_ising_energy(self, tangle2):
        h = to_ising(encode_hubo(tangle2, 2))
        diag = diagonal(h)
        for idx, x in enumerate(all_assignments(h.num_qubits)):
            assert diag[idx] == ising_energy(h, x)

    def test_hubo_minimum_at_optimal_walk_indices(self, tangle2):
        diag = diagonal(to_ising(encode_hubo(tangle2, 2)))
        assert diag.min() == 0
        # X pairs (0,2), (2,0), (1,3), (3,1) in LSB-first bit order
        assert set(np.flatnonzero(diag == 0).tolist()) == {8, 2, 13, 7}

    def test_no_negative_zero(self):
        # A -0.0 constant enters the transform as +0.0, and the transform of
        # +0.0 and nonzero entries yields no -0.0.
        assert np.array_equal(
            diagonal(IsingPolynomial(1, {}, -0.0)).view(np.uint64), np.zeros(2, np.uint64)
        )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_negative_zero_in_random_polynomials(self, data):
        h = random_ising(data, st.sampled_from([-0.0, 0.0, 0.25, -0.25, 0.5, -1.0]))
        energies = diagonal(h)
        assert not np.signbit(energies[energies == 0]).any()

    def test_zero_qubits(self):
        assert diagonal(IsingPolynomial(0, constant=2.5)).tolist() == [2.5]

    def test_cap(self):
        start = time.perf_counter()
        with pytest.raises(SizeCapError, match=r"needs about \d+ bytes, over the memory budget of \d+"):
            diagonal(IsingPolynomial(40, {(0,): 1}))
        assert time.perf_counter() - start < 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_dyadic_polynomials_match_dense_matrix_exactly(self, data):
        dyadic = st.integers(-4096, 4096).map(lambda k: k / 64)
        h = random_ising(data, dyadic)
        assert np.array_equal(diagonal(h), np.diag(dense_cost_matrix(h)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_float_polynomials_agree_to_rounding(self, data):
        h = random_ising(data, st.floats(-10, 10, allow_nan=False))
        scale = abs(h.constant) + sum(abs(c) for c in h.terms.values())
        assert np.abs(diagonal(h) - parity_energies(h)).max() <= 1e-12 * scale

    @pytest.mark.parametrize(
        "kind,seed,nodes",
        [("qubo", 0, 2), ("qubo", 2, 2), ("qubo", 5, 2), ("hubo", 0, 3), ("hubo", 1, 3), ("hubo", 6, 3)],
    )
    def test_tangle_encodings_match_popcount_reference(self, kind, seed, nodes):
        g = generate_tangle(seed, nodes)
        T = default_walk_length(g)
        h = to_ising(encode_qubo(g, T) if kind == "qubo" else encode_hubo(g, T))
        assert np.array_equal(diagonal(h), parity_energies(h))


class TestWalshHadamard:
    """The constant-geometry transform gives the bits of the stride loop in helpers.py."""

    @pytest.mark.parametrize("n", range(21))
    def test_matches_stride_loop(self, n):
        rng = np.random.default_rng(n)
        top = 1 << n >> 1
        sparse = np.unique(np.concatenate([[0, top], rng.integers(0, 1 << n, 40)]))
        for masks in (sparse, np.arange(1 << n)):
            for dtype, coeffs in (
                (np.float64, rng.standard_normal(masks.size)),
                (np.int32, rng.integers(-1000, 1000, masks.size, dtype=np.int32)),
            ):
                got = _walsh_hadamard(n, masks, coeffs, dtype)
                expected = old_walsh_hadamard(n, masks, coeffs, dtype)
                assert got.dtype == expected.dtype
                assert np.array_equal(got.view(np.uint8), expected.view(np.uint8))


def same_levels(a, b) -> bool:
    """Equal levels: the same value bits, and the same index in the same type."""
    (values_a, index_a), (values_b, index_b) = a, b
    return (
        [v.hex() for v in values_a] == [v.hex() for v in values_b]
        and index_a.dtype == index_b.dtype
        and np.array_equal(index_a, index_b)
    )


def float_levels(h):
    return _levels(diagonal(h))


SWEEP_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "sweep_reference.json"


class TestIntegerLevels:
    """The int32 level builder equals the float diagonal's levels wherever it applies."""

    @pytest.mark.parametrize(
        "family,seed,qubits",
        [
            ((3, 2, 0.25), 519501, 18),
            ((3, 2, 0.25), 387926, 18),
            ((4, 2, 0.2), 888598, 18),
            ((4, 2, 0.2), 621429, 18),
            ((4, 2, 0.2), 140891, 21),
        ],
        ids=["18a", "18a-2", "18b", "18b-2", "21"],
    )
    def test_hubo_tangles(self, family, seed, qubits):
        g = generate_tangle(seed, *family)
        h = to_ising(encode_hubo(g, default_walk_length(g)))
        assert h.num_qubits == qubits
        levels = _integer_levels(h)
        assert levels is not None and same_levels(levels, float_levels(h))

    def test_sweep_reference_instances(self):
        instances = json.loads(SWEEP_REFERENCE.read_text())["instances"]
        assert len(instances) == 36
        for entry in instances:
            g = generate_tangle(entry["generator_seed"], *entry["family"])
            h = to_ising(encode_qubo(g, default_walk_length(g)))
            levels = _integer_levels(h)
            assert levels is not None and same_levels(levels, float_levels(h)), entry

    def test_random_dyadic_polynomials(self):
        rng = np.random.default_rng(27)
        integer = 0
        for _ in range(300):
            n = int(rng.integers(1, 15))
            scale = 2.0 ** -int(rng.integers(0, 5))
            pairs = [
                (rng.choice(n, int(rng.integers(1, min(n, 3) + 1)), replace=False).tolist(),
                 int(rng.integers(-6, 7)) * scale)
                for _ in range(int(rng.integers(0, 3 * n + 1)))
            ]
            h = IsingPolynomial(n, ising_terms(pairs), int(rng.integers(-6, 7)) * scale)
            levels = _integer_levels(h)
            expected = float_levels(h)
            assert same_levels(qaoa._energy_levels(h, "simulate"), expected)
            if levels is not None:
                integer += 1
                assert same_levels(levels, expected)
        assert min(integer, 300 - integer) >= 50  # both ways are taken often

    @pytest.mark.parametrize("n", [12, 17])
    def test_dense_spans(self, n):
        # Many distinct energies: a uint16 index at 12 qubits, uint32 at 17.
        rng = np.random.default_rng(n)
        pairs = [
            (rng.choice(n, int(rng.integers(1, 4)), replace=False).tolist(), rng.integers(-64, 65) / 8)
            for _ in range(4 * n)
        ]
        h = IsingPolynomial(n, ising_terms(pairs), 0.375)
        levels = _integer_levels(h)
        assert levels is not None and same_levels(levels, float_levels(h))

    @pytest.mark.parametrize(
        "h,integer",
        [
            (IsingPolynomial(4, {(0,): 0.3}), False),
            (IsingPolynomial(4, {(0,): 1.0, (1,): 2.0**-60}), False),
            (IsingPolynomial(4, {(0,): 2.0**-60, (1, 2): -(2.0**-59)}), True),
            (IsingPolynomial(3, {(0,): 5e-324, (2,): -5e-324}), True),
            # 2 * (|constant| + sum |coeff|) * 2^k against 2^n = 16
            (IsingPolynomial(4, {(0,): 2.0, (1, 3): -3.0}, 3.0), False),
            (IsingPolynomial(4, {(0,): 2.0, (1, 3): -3.0}, 2.0), True),
            (IsingPolynomial(4, {(0,): 0.5, (2, 3): -1.25}, 0.25), False),
            (IsingPolynomial(4, {(0,): 0.5, (2, 3): -1.25}), True),
            (IsingPolynomial(0), True),
            (IsingPolynomial(0, constant=2.5), False),
            (IsingPolynomial(3, constant=1.5), True),
            (IsingPolynomial(3, constant=5.0), False),
            (IsingPolynomial(2, constant=-0.0), True),
            (IsingPolynomial(3, {(1,): 0.25}, -0.0), True),
            ((3, {(1,): 0.25}, float("inf")), DomainError),
        ],
        ids=[
            "non-dyadic", "2^-60 past the bound", "2^-60 within the bound", "subnormal",
            "sum at the bound", "sum below the bound", "scaled sum at the bound",
            "scaled sum below the bound", "no qubits", "no qubits past the bound", "constant only",
            "constant past the bound", "negative zero constant", "negative zero with terms",
            "infinite constant",
        ],
    )
    def test_edges_and_fallbacks(self, h, integer):
        if integer is DomainError:  # the value type refuses these arguments
            with pytest.raises(DomainError):
                IsingPolynomial(*h)
            return
        levels = _integer_levels(h)
        assert (levels is not None) == integer
        expected = float_levels(h)
        assert same_levels(qaoa._energy_levels(h, "simulate"), expected)
        if integer:
            assert same_levels(levels, expected)
            assert not np.signbit(levels[0][levels[0] == 0]).any()


def peak_bytes(call) -> int:
    """tracemalloc peak of one call, counting only what the call allocates."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def memory_instance(n, energies):
    """Degree-1-3 Z terms: dyadic ones give a few hundred distinct energies,
    Gaussian ones make every energy distinct (the widest level index).
    "wide-span" weighs Z_q by 2^q / 16 for q < n - 1: the integer levels'
    longest count table, 2^n - 1 entries, just inside their bound, with
    2^(n-1) distinct energies."""
    if energies == "wide-span":
        return IsingPolynomial(n, {(q,): 2.0 ** (q - 4) for q in range(n - 1)})
    rng = np.random.default_rng(n)
    pairs = []
    for _ in range(3 * n):
        qubits = rng.choice(n, int(rng.integers(1, 4)), replace=False).tolist()
        coeff = rng.integers(-8, 9) / 4 if energies == "dyadic" else rng.normal()
        pairs.append((qubits, float(coeff)))
    return IsingPolynomial(n, ising_terms(pairs), constant=1.0)


class TestMemoryRule:
    @pytest.mark.parametrize("energies", ["dyadic", "distinct", "wide-span"])
    @pytest.mark.parametrize("n", [14, 16, 18, 20])
    def test_estimate_covers_measured_peak(self, n, energies):
        h = memory_instance(n, energies)
        assert (_integer_levels(h) is None) == (energies == "distinct")
        prior = np.full(n, 0.3)
        levels = len(np.unique(diagonal(h)))
        masks = {sum(1 << q for q in qubits): c for qubits, c in h.terms.items()}
        config = RunConfig(p=2, dbeta=0.5, dgamma=0.5, shots=100, iterations=2)
        calls = {
            "diagonal": [
                lambda: diagonal(h),
                # a non-equivalent pair: the verifier tabulates every relative phase
                lambda: _is_global_phase(masks, {}),
            ],
            "simulate": [
                lambda: simulate(h, prior, lr_schedule(2, 0.5, 0.5)),
                lambda: iterative_qaoa(h, "hubo", config, layout=HuboLayout(n, 1)),
            ],
            "sweep": [lambda: sweep(h, prior, [(0.5, 0.5), (0.4, 0.2)], [1, 2])],
        }
        for path, path_calls in calls.items():
            estimate = _check_memory(path, n, levels if path in ("simulate", "sweep") else 0)
            for call in path_calls:
                assert peak_bytes(call) <= estimate, path

    def test_widest_admitted_widths(self):
        # The widths the README quotes for the 4 GiB budget.
        assert MEMORY_BUDGET == 4 << 30
        widest = {"diagonal": 28, "simulate": 27, "sweep": 26}
        for path, n in widest.items():
            _check_memory(path, n)
            with pytest.raises(SizeCapError, match=path):
                _check_memory(path, n + 1)
        # simulate admits 27 qubits with up to (4 GiB - 1 MiB - 30 * 2^27) / 24
        # distinct energies, sweep 26 with up to (4 GiB - 1 MiB - 44 * 2^26) / 24.
        for path, n, levels in (("simulate", 27, 11_141_120), ("sweep", 26, 55_880_362)):
            _check_memory(path, n, levels)
            with pytest.raises(SizeCapError, match=path):
                _check_memory(path, n, levels + 1)
        # With every energy distinct, each admits one qubit less.
        for path, n in (("simulate", 26), ("sweep", 25)):
            _check_memory(path, n, 1 << n)
            with pytest.raises(SizeCapError, match=path):
                _check_memory(path, n + 1, 1 << (n + 1))
