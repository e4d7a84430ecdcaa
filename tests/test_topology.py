import dataclasses

import pytest

from tanglewalk import DomainError, Topology, build_topology


def max_degree(topo):
    return max(len(topo.neighbors(q)) for q in range(topo.num_qubits))


class TestBuildTopology:
    def test_linear(self):
        topo = build_topology("linear", 4)
        assert topo.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_grid_2x2(self):
        topo = build_topology("grid", (2, 2))
        assert len(topo.edges) == 4

    def test_grid_3x3_degrees(self):
        topo = build_topology("grid", (3, 3))
        assert topo.num_qubits == 9
        assert max_degree(topo) == 4

    def test_heavy_hex_single_cell(self):
        topo = build_topology("heavy-hex", 1)
        assert max_degree(topo) == 3

    def test_heavy_hex_growth(self):
        one = build_topology("heavy-hex", 1)
        three = build_topology("heavy-hex", 3)
        assert three.num_qubits > one.num_qubits
        assert max_degree(three) == 3

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            build_topology("star", 3)

    def test_disconnected_rejected(self):
        with pytest.raises(DomainError):
            Topology(4, frozenset({(0, 1), (2, 3)}))

    def test_shortest_path(self):
        topo = build_topology("grid", (2, 3))
        path = topo.shortest_path(0, {5})
        assert path[0] == 0 and path[-1] == 5
        assert all(topo.coupled(a, b) for a, b in zip(path, path[1:]))
        assert topo.shortest_path(0, {2, 4}) == [0, 1, 2]
        assert topo.shortest_path(3, {3, 5}) == [3]


@pytest.mark.parametrize("kind,size", [("linear", 7), ("grid", (3, 4)), ("heavy-hex", 2)])
def test_hops_are_breadth_first_distances(kind, size):
    topo = build_topology(kind, size)
    for a in range(topo.num_qubits):
        dist = topo.distances_from(a)
        assert [topo.hops[a][b] for b in range(topo.num_qubits)] == [
            dist[b] for b in range(topo.num_qubits)
        ]
    with pytest.raises(dataclasses.FrozenInstanceError):  # the table cannot go stale
        topo.edges = frozenset()
