"""Unit tests for the knowledge-graph store."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.kg import KnowledgeGraph


@pytest.fixture
def small_kg() -> KnowledgeGraph:
    kg = KnowledgeGraph("small")
    germany = kg.add_node("Germany", ["Country"])
    bmw = kg.add_node("BMW_320", ["Automobile"], {"price": 36_000.0})
    vw = kg.add_node("Volkswagen", ["Company"])
    kg.add_edge(bmw, "assembly", germany)
    kg.add_edge(vw, "country", germany)
    kg.add_edge(bmw, "manufacturer", vw)
    return kg


class TestNodeConstruction:
    def test_ids_are_dense(self, small_kg):
        assert sorted(small_kg.nodes()) == [0, 1, 2]

    def test_duplicate_name_rejected(self, small_kg):
        with pytest.raises(GraphError, match="duplicate"):
            small_kg.add_node("Germany", ["Country"])

    def test_node_requires_type(self):
        kg = KnowledgeGraph()
        with pytest.raises(GraphError, match="at least one type"):
            kg.add_node("untyped", [])

    def test_node_view_fields(self, small_kg):
        node = small_kg.node(small_kg.node_by_name("BMW_320"))
        assert node.name == "BMW_320"
        assert node.has_type("Automobile")
        assert node.attribute("price") == 36_000.0
        assert node.attribute("missing") is None
        assert node.attribute("missing", 1.0) == 1.0

    def test_shares_type_with(self, small_kg):
        node = small_kg.node(small_kg.node_by_name("Germany"))
        assert node.shares_type_with({"Country", "Region"})
        assert not node.shares_type_with({"City"})

    def test_set_attribute(self, small_kg):
        bmw = small_kg.node_by_name("BMW_320")
        small_kg.set_attribute(bmw, "horsepower", 335.0)
        assert small_kg.node(bmw).attribute("horsepower") == 335.0

    def test_unknown_node_raises(self, small_kg):
        with pytest.raises(NodeNotFoundError):
            small_kg.node(99)
        with pytest.raises(NodeNotFoundError):
            small_kg.node_by_name("Atlantis")

    def test_contains_and_len(self, small_kg):
        assert 0 in small_kg
        assert 99 not in small_kg
        assert "Germany" not in small_kg  # only int ids
        assert 1.0 not in small_kg
        assert len(small_kg) == 3

    def test_contains_accepts_numpy_integers(self, small_kg):
        # every integer node() accepts is a member
        for node_id in (np.int64(0), np.int32(2), np.uint8(1)):
            assert node_id in small_kg
            assert small_kg.node(node_id).name
        assert np.int64(3) not in small_kg and np.int64(-1) not in small_kg


class TestAttributeColumns:
    """``attribute_column`` is the array form of ``Node.attribute``."""

    @staticmethod
    def _assert_matches_nodes(kg: KnowledgeGraph, name: str) -> None:
        column = kg.attribute_column(name)
        assert column.dtype == np.float64 and len(column) == kg.num_nodes
        for node_id in kg.nodes():
            value = kg.node(node_id).attribute(name)
            if value is None or np.isnan(value):
                assert np.isnan(column[node_id])
            else:
                assert column[node_id] == value

    @pytest.fixture
    def priced_kg(self) -> KnowledgeGraph:
        kg = KnowledgeGraph("priced")
        kg.add_node("plain", ["Thing"])
        kg.add_node("float", ["Thing"], {"price": 36_000.5})
        kg.add_node("int", ["Thing"], {"price": 2**53 - 1, "age": 7})
        kg.add_node("nan", ["Thing"], {"price": float("nan")})
        kg.add_node("negative", ["Thing"], {"price": -0.0, "age": -3})
        return kg

    def test_matches_node_attribute_for_every_node(self, priced_kg):
        for name in ("price", "age", "never_set"):
            self._assert_matches_nodes(priced_kg, name)
        price = priced_kg.attribute_column("price")
        assert np.isnan(price[0]) and np.isnan(price[3])  # absent, stored NaN
        assert int(price[2]) == 2**53 - 1  # an int-valued attribute is exact
        assert np.isnan(priced_kg.attribute_column("never_set")).all()

    def test_set_attribute_writes_through(self, priced_kg):
        held = priced_kg.attribute_column("price")
        priced_kg.set_attribute(1, "price", 1.25)  # overwrite
        priced_kg.set_attribute(0, "price", 9)  # a node that lacked it
        priced_kg.set_attribute(4, "age", float("nan"))  # another column
        assert held[1] == 1.25 and held[0] == 9.0  # no stale read, even held
        for name in ("price", "age"):
            self._assert_matches_nodes(priced_kg, name)

    def test_add_node_grows_the_columns(self, priced_kg):
        before = priced_kg.attribute_column("price")
        added = priced_kg.add_node("late", ["Thing"], {"price": 3.0})
        after = priced_kg.attribute_column("price")
        assert len(before) == added and len(after) == added + 1
        assert after[added] == 3.0
        assert np.isnan(priced_kg.attribute_column("age")[added])  # grown as NaN
        self._assert_matches_nodes(priced_kg, "price")

    def test_column_is_read_only(self, priced_kg):
        column = priced_kg.attribute_column("price")
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0
        assert not column.flags.writeable

    def test_a_column_fetched_before_add_node_keeps_its_length_and_values(
        self, priced_kg
    ):
        held = priced_kg.attribute_column("price")
        expected = held.copy()
        for index in range(100):  # outgrows the column: it moves
            priced_kg.add_node(f"late{index}", ["Thing"], {"price": float(index)})
        assert len(held) == len(expected)
        np.testing.assert_array_equal(held, expected)
        self._assert_matches_nodes(priced_kg, "price")

    def test_set_attribute_racing_add_node_reallocation_loses_no_write(self):
        """A ``set_attribute`` caught between fetching a column and writing
        it, while ``add_node`` on another thread outgrows the columns and
        copies them, must still land in the copy."""
        kg = KnowledgeGraph("racing")
        for index in range(16):  # fills the columns' first capacity
            kg.add_node(f"n{index}", ["Thing"], {"price": 0.0})
        backing = kg.attribute_column("price").base
        adders: list[threading.Thread] = []

        class AddsNodeOnLookup(dict):
            """The first column lookup lets another thread's add_node run."""

            def __getitem__(self, name):
                column = super().__getitem__(name)
                if not adders:
                    adders.append(
                        threading.Thread(target=kg.add_node, args=("late", ["Thing"]))
                    )
                    adders[0].start()
                    adders[0].join(timeout=0.2)  # held off by the writer lock
                return column

            def get(self, name, default=None):
                return self[name] if name in self else default

        kg._columns = AddsNodeOnLookup(kg._columns)
        kg.set_attribute(3, "price", 7.0)
        adders[0].join(timeout=10)
        assert not adders[0].is_alive() and kg.num_nodes == 17
        assert kg.attribute_column("price").base is not backing  # it moved
        assert kg.attribute_column("price")[3] == 7.0

    def test_writes_right_behind_a_growing_graph_are_all_kept(self):
        """Stress: one thread adds nodes, this one writes each new node's
        cell once as soon as the node is published."""
        kg = KnowledgeGraph("racing")
        nodes = 5000

        def add_nodes():
            for index in range(nodes):
                kg.add_node(f"n{index}", ["Thing"], {"price": float(index)})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            adder = threading.Thread(target=add_nodes)
            adder.start()
            # every node's cell is written once, right behind the adder
            for node_id in range(nodes):
                while node_id >= kg.num_nodes and adder.is_alive():
                    time.sleep(0)
                kg.set_attribute(node_id, "mark", float(node_id))
            adder.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not adder.is_alive()
        for name in ("mark", "price"):
            np.testing.assert_array_equal(kg.attribute_column(name), np.arange(nodes))

    def test_write_stream_does_not_rebuild(self, priced_kg):
        """A ``set_attribute`` stream is O(1) per write: one backing array."""
        backing = priced_kg.attribute_column("price").base
        for step in range(50):
            priced_kg.set_attribute(step % 5, "price", float(step))
            assert priced_kg.attribute_column("price").base is backing
        self._assert_matches_nodes(priced_kg, "price")


class TestEdges:
    def test_edge_view(self, small_kg):
        edge = small_kg.edge(0)
        assert edge.predicate == "assembly"
        assert small_kg.node(edge.subject).name == "BMW_320"
        assert small_kg.node(edge.object).name == "Germany"

    def test_other_endpoint(self, small_kg):
        edge = small_kg.edge(0)
        assert edge.other_endpoint(edge.subject) == edge.object
        assert edge.other_endpoint(edge.object) == edge.subject
        with pytest.raises(GraphError):
            edge.other_endpoint(9999)

    def test_predicate_of_matches_edge_view(self, small_kg):
        for edge in small_kg.edges():
            assert small_kg.predicate_of(edge.edge_id) == edge.predicate

    def test_predicate_of_bad_id(self, small_kg):
        with pytest.raises(EdgeNotFoundError):
            small_kg.predicate_of(77)

    def test_neighbors_are_bidirectional(self, small_kg):
        germany = small_kg.node_by_name("Germany")
        neighbours = {n for _e, n in small_kg.neighbors(germany)}
        assert small_kg.node_by_name("BMW_320") in neighbours
        assert small_kg.node_by_name("Volkswagen") in neighbours

    def test_degree_counts_both_directions(self, small_kg):
        bmw = small_kg.node_by_name("BMW_320")
        assert small_kg.degree(bmw) == 2  # assembly + manufacturer

    def test_edge_predicate_ids_align(self, small_kg):
        ids = small_kg.edge_predicate_ids()
        assert len(ids) == small_kg.num_edges
        for edge_id, predicate_id in enumerate(ids):
            assert (
                small_kg.predicate_name(int(predicate_id))
                == small_kg.predicate_of(edge_id)
            )

    def test_add_edge_takes_integer_ids_only(self, small_kg):
        small_kg.add_edge(np.int64(0), "assembly", np.int32(2))
        assert small_kg.edge(3).subject == 0 and small_kg.edge(3).object == 2
        with pytest.raises(TypeError):
            small_kg.add_edge(0, "assembly", 1.0)
        assert small_kg.num_edges == 4
        assert len(small_kg.triple_array()) == 4  # no half-appended row

    def test_self_loop_adjacency_once(self):
        kg = KnowledgeGraph()
        node = kg.add_node("loop", ["Thing"])
        kg.add_edge(node, "self", node)
        assert len(kg.neighbors(node)) == 1


class TestIndexes:
    def test_nodes_with_type(self, small_kg):
        autos = small_kg.nodes_with_type("Automobile")
        assert autos == [small_kg.node_by_name("BMW_320")]
        assert small_kg.nodes_with_type("Spaceship") == []

    def test_nodes_with_any_type(self, small_kg):
        nodes = small_kg.nodes_with_any_type(["Automobile", "Company"])
        assert len(nodes) == 2
        assert nodes == sorted(nodes)

    def test_types_listing(self, small_kg):
        assert small_kg.types == ("Automobile", "Company", "Country")

    def test_edges_with_predicate(self, small_kg):
        assert small_kg.edges_with_predicate("assembly") == [0]
        assert small_kg.edges_with_predicate("unknown") == []

    def test_objects_and_subjects_are_directed(self, small_kg):
        bmw = small_kg.node_by_name("BMW_320")
        germany = small_kg.node_by_name("Germany")
        assert small_kg.objects_of(bmw, "assembly") == [germany]
        assert small_kg.objects_of(germany, "assembly") == []
        assert small_kg.subjects_of(germany, "assembly") == [bmw]
        assert small_kg.subjects_of(bmw, "assembly") == []

    def test_predicate_interning(self, small_kg):
        assert small_kg.predicate_id("assembly") == small_kg.predicate_id("assembly")
        assert small_kg.has_predicate("assembly")
        assert not small_kg.has_predicate("made_up")
        with pytest.raises(GraphError):
            small_kg.predicate_id("made_up")

    def test_triples_roundtrip(self, small_kg):
        triples = list(small_kg.triples())
        assert len(triples) == small_kg.num_edges
        subject, predicate_id, obj = triples[0]
        assert small_kg.predicate_name(predicate_id) == "assembly"
        assert small_kg.node(subject).name == "BMW_320"
        assert small_kg.node(obj).name == "Germany"


@st.composite
def random_graph_spec(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=30))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from(["a", "b", "c"]),
            ),
            max_size=60,
        )
    )
    return num_nodes, edges


class TestGraphProperties:
    @given(random_graph_spec())
    @settings(max_examples=40, deadline=None)
    def test_adjacency_symmetry(self, spec):
        """u in neighbors(v) iff v in neighbors(u) (traversal symmetry)."""
        num_nodes, edges = spec
        kg = KnowledgeGraph()
        for index in range(num_nodes):
            kg.add_node(f"n{index}", ["T"])
        for subject, obj, predicate in edges:
            kg.add_edge(subject, predicate, obj)
        for node in kg.nodes():
            for _edge, neighbour in kg.neighbors(node):
                assert node in kg.neighbor_ids(neighbour)

    @given(random_graph_spec())
    @settings(max_examples=40, deadline=None)
    def test_degree_sum_is_twice_edges(self, spec):
        """Handshake lemma (self-loops count once in our adjacency)."""
        num_nodes, edges = spec
        kg = KnowledgeGraph()
        for index in range(num_nodes):
            kg.add_node(f"n{index}", ["T"])
        self_loops = 0
        for subject, obj, predicate in edges:
            kg.add_edge(subject, predicate, obj)
            if subject == obj:
                self_loops += 1
        total_degree = sum(kg.degree(node) for node in kg.nodes())
        assert total_degree == 2 * kg.num_edges - self_loops
