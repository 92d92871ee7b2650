"""Tests for BFS hop distances."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import KnowledgeGraph, hop_distances


@pytest.fixture
def chain_kg() -> KnowledgeGraph:
    """a - b - c - d - e plus a shortcut a - d."""
    kg = KnowledgeGraph()
    names = "abcde"
    nodes = {name: kg.add_node(name, ["T"]) for name in names}
    for left, right in zip(names, names[1:]):
        kg.add_edge(nodes[left], "next", nodes[right])
    kg.add_edge(nodes["a"], "skip", nodes["d"])
    return kg


class TestHopDistances:
    def test_distances(self, chain_kg):
        a = chain_kg.node_by_name("a")
        distances = hop_distances(chain_kg, a, 4)
        by_name = {chain_kg.node(n).name: d for n, d in distances.items()}
        assert by_name == {"a": 0, "b": 1, "d": 1, "c": 2, "e": 2}

    def test_zero_hops(self, chain_kg):
        a = chain_kg.node_by_name("a")
        assert hop_distances(chain_kg, a, 0) == {a: 0}

    def test_negative_raises(self, chain_kg):
        with pytest.raises(ValueError):
            hop_distances(chain_kg, 0, -1)


class TestTraversalProperties:
    @given(st.integers(2, 16), st.integers(0, 40), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_distances_satisfy_triangle_step(self, num_nodes, num_edges, bound):
        """Every BFS distance differs by at most 1 across an edge."""
        import numpy as np

        rng = np.random.default_rng(num_nodes * 1000 + num_edges)
        kg = KnowledgeGraph()
        for index in range(num_nodes):
            kg.add_node(f"n{index}", ["T"])
        for _ in range(num_edges):
            kg.add_edge(
                int(rng.integers(0, num_nodes)), "p", int(rng.integers(0, num_nodes))
            )
        distances = hop_distances(kg, 0, bound)
        for node, distance in distances.items():
            for _e, neighbour in kg.neighbors(node):
                if neighbour in distances:
                    assert abs(distances[neighbour] - distance) <= 1
                else:
                    # neighbour outside the bound: node must sit on the rim
                    assert distance == bound
