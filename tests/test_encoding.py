import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglewalk import (
    BinaryPolynomial,
    DomainError,
    HuboLayout,
    QuboLayout,
    decode_hubo,
    decode_qubo,
    encode_hubo,
    encode_qubo,
    enumerate_optimal_walks,
    generate_tangle,
    indicator_polynomial,
    walk_cost,
)
from tanglewalk.graphs import default_walk_length

from helpers import all_assignments, brute_force_energies, evaluate, qubo_terms_direct


def one_hot_assignment(layout: QuboLayout, walk) -> list[int]:
    x = [0] * layout.num_vars
    for t, step in enumerate(walk, start=1):
        x[layout.var(t, step)] = 1
    return x


def hubo_assignment(layout: HuboLayout, values) -> list[int]:
    x = [0] * layout.num_vars
    for t, value in enumerate(values, start=1):
        for k in range(layout.bits_per_step):
            x[layout.var(t, k)] = (value >> k) & 1
    return x


class TestQuboEncoding:
    def test_valid_walk_energy_equals_walk_cost(self, tangle2):
        layout = QuboLayout(2, 2)
        poly = encode_qubo(tangle2, 2)
        assert evaluate(poly, one_hot_assignment(layout, (0, 2))) == 0
        assert evaluate(poly, one_hot_assignment(layout, (3, 1))) == 0

    def test_all_zeros_penalty(self, tangle2):
        poly = encode_qubo(tangle2, 2)
        # one-hot: 10 per step, edge bracket: 5, frequency: 1 + 1
        assert evaluate(poly, [0] * 8) == 27

    def test_degree_at_most_two(self, tangle2):
        assert max(map(len, encode_qubo(tangle2, 3).terms)) <= 2

    def test_exhaustive_minimum_matches_oracle(self, tangle2):
        poly = encode_qubo(tangle2, 2)
        energies = brute_force_energies(poly)
        oracle = enumerate_optimal_walks(tangle2, 2)
        assert energies.min() == oracle.min_cost
        layout = QuboLayout(2, 2)
        bits = all_assignments(poly.num_vars)
        for idx in np.flatnonzero(energies == energies.min()):
            decoded = decode_qubo(bits[idx], layout, tangle2)
            assert decoded.valid
            assert decoded.steps in oracle.walks

    def test_matches_unexpanded_formulas_on_random_assignments(self, tangle2):
        poly = encode_qubo(tangle2, 3, 10, 5)
        layout = QuboLayout(3, 2)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.integers(0, 2, poly.num_vars)
            assert evaluate(poly, x) == qubo_terms_direct(tangle2, layout, 10, 5, x)

    def test_walk_energy_on_all_valid_walks(self, tangle2):
        # every edge-valid walk, optimal or not: penalties vanish exactly
        import itertools

        poly = encode_qubo(tangle2, 3)
        layout = QuboLayout(3, 2)
        checked = 0
        for walk in itertools.product(range(4), repeat=3):
            if not all(tangle2.has_edge(a, b) for a, b in zip(walk, walk[1:])):
                continue
            assert evaluate(poly, one_hot_assignment(layout, walk)) == walk_cost(
                tangle2, walk
            )
            checked += 1
        assert checked == 4  # includes non-optimal walks (cost 1 at T=3)

    def test_rejects_bad_arguments(self, tangle2):
        with pytest.raises(DomainError):
            encode_qubo(tangle2, 0)
        with pytest.raises(DomainError):
            encode_qubo(tangle2, 2, one_hot_penalty=0)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf")])
    def test_rejects_non_finite_penalties(self, tangle2, penalty):
        for encode in (
            lambda: encode_qubo(tangle2, 2, one_hot_penalty=penalty),
            lambda: encode_qubo(tangle2, 2, edge_penalty=penalty),
            lambda: encode_hubo(tangle2, 2, edge_penalty=penalty),
        ):
            with pytest.raises(DomainError, match="positive and finite"):
                encode()


class TestIndicator:
    def test_two_bit_example(self):
        layout = HuboLayout(2, 2)
        ind = indicator_polynomial(2, 1, layout)  # bits (0, 1) LSB-first
        assert ind.terms == {(1,): 1, (0, 1): -1}

    def test_zero_target(self):
        layout = HuboLayout(1, 2)
        ind = indicator_polynomial(0, 1, layout)
        assert ind.terms == {(): 1, (0,): -1, (1,): -1, (0, 1): 1}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_indicators_sum_to_one_symbolically(self, n):
        layout = HuboLayout(1, n)
        total = BinaryPolynomial(layout.num_vars)
        for i in range(2**n):
            total.add_polynomial(indicator_polynomial(i, 1, layout))
        assert total.terms == {(): 1}

    def test_pointwise_behaviour(self):
        layout = HuboLayout(1, 3)
        ind = indicator_polynomial(5, 1, layout)
        for idx, x in enumerate(all_assignments(3)):
            assert evaluate(ind, x) == (1 if idx == 5 else 0)

    def test_out_of_range_target(self):
        with pytest.raises(DomainError):
            indicator_polynomial(4, 1, HuboLayout(1, 2))


class TestHuboEncoding:
    def test_valid_walk_energy(self, tangle2):
        layout = HuboLayout.for_graph(tangle2, 2)
        poly = encode_hubo(tangle2, 2)
        assert evaluate(poly, hubo_assignment(layout, (0, 2))) == 0

    def test_all_zero_steps(self, tangle2):
        poly = encode_hubo(tangle2, 2)
        # edge bracket 10, frequency (2-1)^2 + (0-1)^2
        assert evaluate(poly, [0, 0, 0, 0]) == 12

    def test_exhaustive_minimum_and_minimisers(self, tangle2):
        poly = encode_hubo(tangle2, 2)
        energies = brute_force_energies(poly)
        assert energies.min() == 0
        layout = HuboLayout.for_graph(tangle2, 2)
        bits = all_assignments(poly.num_vars)
        walks = set()
        for idx in np.flatnonzero(energies == 0):
            decoded = decode_hubo(bits[idx], layout, tangle2)
            assert decoded.valid
            walks.add(decoded.steps)
        assert walks == {(0, 2), (2, 0), (1, 3), (3, 1)}

    def test_in_range_walk_assignments_equal_walk_cost(self, tangle2):
        # all in-range assignments whose consecutive pairs are edges
        import itertools

        layout = HuboLayout.for_graph(tangle2, 3)
        poly = encode_hubo(tangle2, 3)
        checked = 0
        for walk in itertools.product(range(4), repeat=3):
            if not all(tangle2.has_edge(a, b) for a, b in zip(walk, walk[1:])):
                continue
            assert evaluate(poly, hubo_assignment(layout, walk)) == walk_cost(
                tangle2, walk
            )
            checked += 1
        assert checked == 4

    def test_nonnegative_everywhere(self, tangle2):
        energies = brute_force_energies(encode_hubo(tangle2, 3))
        assert energies.min() >= 0

    def test_degree_bound(self, tangle2):
        layout = HuboLayout.for_graph(tangle2, 2)
        assert max(map(len, encode_hubo(tangle2, 2).terms)) <= 2 * layout.bits_per_step


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 200))
def test_generated_instances_agree_under_both_encodings(seed):
    g = generate_tangle(seed, 2, 2, 0.4)
    T = default_walk_length(g)
    if 2 * g.node_count * T > 14:
        T = 2
    oracle = enumerate_optimal_walks(g, T)
    qubo_min = brute_force_energies(encode_qubo(g, T)).min()
    hubo_min = brute_force_energies(encode_hubo(g, T)).min()
    assert qubo_min == oracle.min_cost
    assert hubo_min == oracle.min_cost


class TestDecoders:
    def test_decode_qubo_roundtrip(self, tangle2):
        layout = QuboLayout(2, 2)
        decoded = decode_qubo(one_hot_assignment(layout, (0, 2)), layout, tangle2)
        assert decoded.valid and decoded.steps == (0, 2)

    def test_decode_qubo_all_zeros(self, tangle2):
        layout = QuboLayout(2, 2)
        decoded = decode_qubo([0] * 8, layout, tangle2)
        assert not decoded.feasible
        assert decoded.bad_steps == (1, 2)

    def test_decode_qubo_double_bit(self, tangle2):
        layout = QuboLayout(2, 2)
        x = one_hot_assignment(layout, (0, 2))
        x[layout.var(1, 3)] = 1
        decoded = decode_qubo(x, layout, tangle2)
        assert decoded.bad_steps == (1,)

    def test_decode_qubo_broken_edge(self, tangle2):
        layout = QuboLayout(2, 2)
        decoded = decode_qubo(one_hot_assignment(layout, (0, 1)), layout, tangle2)
        assert decoded.feasible and not decoded.valid
        assert decoded.invalid_edges == (1,)

    def test_decode_hubo_basic(self, tangle2):
        layout = HuboLayout.for_graph(tangle2, 2)
        decoded = decode_hubo([0, 0, 0, 1], layout, tangle2)
        assert decoded.valid and decoded.steps == (0, 2)

    def test_decode_hubo_out_of_range(self):
        g = generate_tangle(3, 3, 1)  # N=3 -> 3 bits, ids 0..5
        layout = HuboLayout.for_graph(g, 1)
        decoded = decode_hubo([1, 1, 1], layout, g)  # X = 7 >= 6
        assert not decoded.feasible
        assert decoded.bad_steps == (1,)

    def test_decode_hubo_invalid_edge(self, tangle2):
        layout = HuboLayout.for_graph(tangle2, 2)
        decoded = decode_hubo(hubo_assignment(layout, (0, 1)), layout, tangle2)
        assert decoded.feasible and decoded.invalid_edges == (1,)

    def test_length_checks(self, tangle2):
        with pytest.raises(DomainError):
            decode_qubo([0] * 3, QuboLayout(2, 2), tangle2)
        with pytest.raises(DomainError):
            decode_hubo([0] * 3, HuboLayout(2, 2), tangle2)
