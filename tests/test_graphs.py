import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglewalk import (
    DomainError,
    GenerationError,
    OrientedGraph,
    SizeCapError,
    default_walk_length,
    enumerate_optimal_walks,
    flip,
    generate_tangle,
    is_valid_walk,
    walk_cost,
)
from tanglewalk.graphs import graph_from_dict, graph_to_dict


class TestWalkCost:
    def test_exact_visits_cost_zero(self, tangle2):
        assert walk_cost(tangle2, (0, 2)) == 0

    def test_repeated_node(self, tangle2):
        assert walk_cost(tangle2, (0, 0)) == 2

    def test_both_orientations_count_for_one_node(self, tangle2):
        # (0, 1) visits node 0 forward and backward: (2-1)^2 + (0-1)^2
        assert walk_cost(tangle2, (0, 1)) == 2

    def test_out_of_range_step(self, tangle2):
        with pytest.raises(DomainError):
            walk_cost(tangle2, (0, 4))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_reverse_complement_invariance(self, data):
        g = generate_tangle(data.draw(st.integers(0, 50)), data.draw(st.integers(1, 4)))
        walk = tuple(
            data.draw(
                st.lists(
                    st.integers(0, g.num_oriented - 1), min_size=1, max_size=6
                )
            )
        )
        mirrored = tuple(flip(s) for s in reversed(walk))
        assert walk_cost(g, walk) == walk_cost(g, mirrored)

    def test_zero_iff_counts_match(self, tangle2):
        assert walk_cost(tangle2, (1, 3)) == 0
        assert walk_cost(tangle2, (2, 1)) == 0  # node visits match despite bad edge
        assert walk_cost(tangle2, (2, 2)) == 2


class TestDefaultWalkLength:
    def test_tangle2(self, tangle2):
        assert default_walk_length(tangle2) == 2

    def test_single_node_weight_three(self):
        g = OrientedGraph(1, (3,), frozenset({(0, 0), (1, 1)}))
        assert default_walk_length(g) == 3

    def test_three_nodes(self):
        g = generate_tangle(7, 3, 1)
        weights = (2, 1, 1)
        g2 = OrientedGraph(3, weights, g.edges | frozenset())
        assert default_walk_length(g2) == 4

    def test_degenerate_all_zero(self):
        g = OrientedGraph(1, (0,), frozenset({(0, 0), (1, 1)}))
        with pytest.raises(DomainError):
            default_walk_length(g)


class TestOracle:
    def test_tangle2_optima(self, tangle2):
        result = enumerate_optimal_walks(tangle2, 2)
        assert result.found
        assert result.min_cost == 0
        assert set(result.walks) == {(0, 2), (2, 0), (1, 3), (3, 1)}

    def test_self_loop(self, self_loop_graph):
        # reverse-complement closure forces the mirror loop (1, 1) too
        result = enumerate_optimal_walks(self_loop_graph, 2)
        assert result.min_cost == 0
        assert set(result.walks) == {(0, 0), (1, 1)}

    def test_no_walk_status(self):
        g = OrientedGraph(2, (1, 1), frozenset())
        result = enumerate_optimal_walks(g, 2)
        assert not result.found
        assert result.walks == ()
        assert result.min_cost is None
        assert enumerate_optimal_walks(g, 1).found

    def test_cap_refusal(self, tangle2):
        with pytest.raises(SizeCapError):
            enumerate_optimal_walks(tangle2, 20, sequence_cap=1000)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_domain_error(self, tangle2, cap):
        with pytest.raises(DomainError, match="enumeration cap"):
            enumerate_optimal_walks(tangle2, 1, sequence_cap=cap)

    def test_agrees_with_walk_cost(self, tangle2):
        result = enumerate_optimal_walks(tangle2, 3)
        for walk in result.walks:
            assert is_valid_walk(tangle2, walk)
            assert walk_cost(tangle2, walk) == result.min_cost


class TestGenerator:
    def test_invariants_hold(self):
        g = generate_tangle(1, 2, 1, 1.0)
        for a, b in g.edges:
            assert (flip(b), flip(a)) in g.edges
            assert 0 <= a < g.num_oriented and 0 <= b < g.num_oriented

    def test_deterministic(self):
        a = generate_tangle(1, 3, 2, 0.4)
        b = generate_tangle(1, 3, 2, 0.4)
        assert a.weights == b.weights and a.edges == b.edges

    @pytest.mark.parametrize("seed", range(8))
    def test_planted_walk_is_optimal(self, seed):
        g = generate_tangle(seed, 3, 2, 0.3)
        result = enumerate_optimal_walks(g, default_walk_length(g))
        assert result.min_cost == 0

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            generate_tangle(0, 0)
        with pytest.raises(DomainError):
            generate_tangle(0, 2, max_weight=0)
        with pytest.raises(DomainError):
            generate_tangle(0, 2, edge_density=1.5)
        assert issubclass(GenerationError, DomainError)


class TestGraphJson:
    def test_round_trip(self, tangle2):
        loaded = graph_from_dict(json.loads(json.dumps(graph_to_dict(tangle2))))
        assert loaded == tangle2

    def test_rejects_missing_reverse_complement(self):
        data = {"n": 2, "weights": [1, 1], "edges": [[0, 2]]}
        with pytest.raises(DomainError, match=r"edges\[0\]"):
            graph_from_dict(data)

    def test_rejects_out_of_range_edge(self):
        data = {"n": 2, "weights": [1, 1], "edges": [[0, 9], [8, 1]]}
        with pytest.raises(DomainError, match=r"edges\[0\]"):
            graph_from_dict(data)

    def test_rejects_bad_weight(self):
        data = {"n": 2, "weights": [1, -1], "edges": []}
        with pytest.raises(DomainError, match=r"weights\[1\]"):
            graph_from_dict(data)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("n", True, "'n'"),
            ("weights", [1, True], r"weights\[1\]"),
            ("edges", [[0, 2], [False, True]], r"edges\[1\]"),
        ],
        ids=["n", "weights", "edges"],
    )
    def test_rejects_booleans(self, field, value, match):
        # JSON true and false are not integers, though Python's bool is an int.
        data = {"n": 2, "weights": [1, 1], "edges": [[0, 2], [3, 1]], field: value}
        with pytest.raises(DomainError, match=match):
            graph_from_dict(data)

    def test_dict_shape(self, tangle2):
        data = graph_to_dict(tangle2)
        assert data["n"] == 2
        assert data["weights"] == [1, 1]
        assert json.dumps(data)  # serialisable
