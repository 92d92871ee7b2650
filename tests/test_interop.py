"""Tests for NetworkX interoperability (repro.kg.interop)."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.kg import KnowledgeGraph
from repro.kg.interop import from_networkx, to_networkx


def _sample_kg() -> KnowledgeGraph:
    kg = KnowledgeGraph(name="sample")
    germany = kg.add_node("Germany", ["Country"])
    bmw = kg.add_node(
        "BMW_320", ["Automobile"], attributes={"price": 36_000.0, "hp": 180.0}
    )
    vw = kg.add_node("Volkswagen", ["Company"])
    kg.add_edge(bmw, "assembly", germany)
    kg.add_edge(bmw, "manufacturer", vw)
    kg.add_edge(vw, "country", germany)
    # parallel edge with a different predicate
    kg.add_edge(bmw, "registeredIn", germany)
    return kg


# ---------------------------------------------------------------------------
# to_networkx
# ---------------------------------------------------------------------------
def test_export_nodes_and_edges():
    graph = to_networkx(_sample_kg())
    assert isinstance(graph, nx.MultiDiGraph)
    assert graph.name == "sample"
    assert set(graph.nodes) == {"Germany", "BMW_320", "Volkswagen"}
    assert graph.number_of_edges() == 4


def test_export_node_payload():
    graph = to_networkx(_sample_kg())
    data = graph.nodes["BMW_320"]
    assert data["types"] == ["Automobile"]
    assert data["attributes"] == {"price": 36_000.0, "hp": 180.0}
    assert isinstance(data["node_id"], int)


def test_export_preserves_parallel_predicates():
    graph = to_networkx(_sample_kg())
    predicates = {
        data["predicate"] for _u, _v, data in graph.edges("BMW_320", data=True)
    }
    assert {"assembly", "registeredIn"} <= predicates


def test_export_is_usable_by_networkx_algorithms():
    graph = to_networkx(_sample_kg())
    assert nx.is_weakly_connected(graph)
    assert nx.shortest_path_length(graph.to_undirected(), "BMW_320", "Germany") == 1


# ---------------------------------------------------------------------------
# from_networkx
# ---------------------------------------------------------------------------
def test_round_trip_preserves_everything():
    original = _sample_kg()
    rebuilt = from_networkx(to_networkx(original))
    assert rebuilt.num_nodes == original.num_nodes
    assert rebuilt.num_edges == original.num_edges
    assert set(rebuilt.predicates) == set(original.predicates)
    for node_id in original.nodes():
        node = original.node(node_id)
        other = rebuilt.node(rebuilt.node_by_name(node.name))
        assert other.types == node.types
        assert dict(other.attributes) == dict(node.attributes)
    original_triples = {
        (original.node(s).name, original.predicate_name(p), original.node(o).name)
        for s, p, o in original.triples()
    }
    rebuilt_triples = {
        (rebuilt.node(s).name, rebuilt.predicate_name(p), rebuilt.node(o).name)
        for s, p, o in rebuilt.triples()
    }
    assert rebuilt_triples == original_triples


def test_import_accepts_single_string_type():
    graph = nx.MultiDiGraph()
    graph.add_node("A", types="Thing")
    graph.add_node("B", types=["Thing"])
    graph.add_edge("A", "B", predicate="rel")
    kg = from_networkx(graph)
    assert kg.node(kg.node_by_name("A")).types == frozenset({"Thing"})


def test_import_accepts_undirected_graphs():
    graph = nx.Graph()
    graph.add_node("A", types=["T"])
    graph.add_node("B", types=["T"])
    graph.add_edge("A", "B", predicate="rel")
    kg = from_networkx(graph)
    assert kg.num_edges == 1
    # the store traverses edges in both directions regardless
    a = kg.node_by_name("A")
    b = kg.node_by_name("B")
    assert b in kg.neighbor_ids(a)
    assert a in kg.neighbor_ids(b)


def test_import_stringifies_node_keys():
    graph = nx.MultiDiGraph()
    graph.add_node(1, types=["T"])
    graph.add_node(2, types=["T"])
    graph.add_edge(1, 2, predicate="rel")
    kg = from_networkx(graph)
    assert kg.has_node_named("1")
    assert kg.has_node_named("2")


def test_import_rejects_missing_types():
    graph = nx.MultiDiGraph()
    graph.add_node("A")
    with pytest.raises(GraphError, match="types"):
        from_networkx(graph)


def test_import_rejects_missing_predicate():
    graph = nx.MultiDiGraph()
    graph.add_node("A", types=["T"])
    graph.add_node("B", types=["T"])
    graph.add_edge("A", "B")
    with pytest.raises(GraphError, match="predicate"):
        from_networkx(graph)


def test_import_rejects_non_dict_attributes():
    graph = nx.MultiDiGraph()
    graph.add_node("A", types=["T"], attributes=[1, 2])
    with pytest.raises(GraphError, match="attributes"):
        from_networkx(graph)


def test_import_name_defaults():
    anonymous = nx.MultiDiGraph()
    anonymous.add_node("A", types=["T"])
    assert from_networkx(anonymous).name == "kg"
    assert from_networkx(anonymous, name="mine").name == "mine"


def test_imported_graph_works_with_the_engine():
    """End-to-end: a user-supplied NetworkX graph answers a query."""
    import numpy as np

    from repro.core.config import EngineConfig
    from repro.core.engine import ApproximateAggregateEngine
    from repro.embedding import LookupEmbedding
    from repro.query import AggregateFunction, AggregateQuery, QueryGraph

    graph = nx.MultiDiGraph()
    graph.add_node("Hub", types=["Place"])
    for index in range(6):
        graph.add_node(
            f"T{index}",
            types=["Thing"],
            attributes={"price": 10.0 * (index + 1)},
        )
        graph.add_edge(f"T{index}", "Hub", predicate="rel")
    kg = from_networkx(graph)
    rng = np.random.default_rng(0)
    embedding = LookupEmbedding({"rel": rng.normal(size=8)})
    engine = ApproximateAggregateEngine(
        kg,
        embedding,
        config=EngineConfig(seed=1, tau=0.5),
    )
    result = engine.execute(
        AggregateQuery(
            query=QueryGraph.simple("Hub", ["Place"], "rel", ["Thing"]),
            function=AggregateFunction.COUNT,
        )
    )
    assert result.value == pytest.approx(6.0, rel=0.25)


# ---------------------------------------------------------------------------
# Property round-trip on random graphs
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    num_nodes=st.integers(2, 15),
    edge_fraction=st.floats(0.1, 1.0),
    seed=st.integers(0, 1000),
)
def test_property_round_trip_random_graphs(num_nodes, edge_fraction, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    graph = nx.MultiDiGraph()
    for index in range(num_nodes):
        graph.add_node(
            f"n{index}",
            types=[f"T{rng.integers(0, 3)}"],
            attributes={"x": float(rng.integers(0, 100))},
        )
    num_edges = max(1, int(num_nodes * (num_nodes - 1) * edge_fraction / 2))
    for _ in range(num_edges):
        a, b = rng.integers(0, num_nodes, size=2)
        if a == b:
            continue
        graph.add_edge(f"n{a}", f"n{b}", predicate=f"p{rng.integers(0, 4)}")
    kg = from_networkx(graph)
    back = to_networkx(kg)
    assert set(back.nodes) == set(graph.nodes)
    assert back.number_of_edges() == graph.number_of_edges()
