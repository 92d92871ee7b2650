"""CSR hot-path kernels vs the seed pure-Python implementations.

Property-style equivalence: on randomly wired graphs (multi-edges,
self-loops, disconnected components, multi-typed nodes included), the
vectorised BFS, scope build, Eq. 5 transition assembly and closed-form
strength distribution must reproduce the seed implementations kept in
:mod:`repro.sampling.reference` — byte-identical distances, node orders,
candidate sets and edge ids, probabilities and stationary distributions
within 1e-12.  Plus mutation tests proving snapshot invalidation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import LookupEmbedding, PredicateVectorSpace
from repro.kg import KnowledgeGraph, csr_snapshot, hop_distances
from repro.sampling.reference import (
    ReferenceTransitionModel,
    build_scope_python,
    hop_distances_python,
    strength_distribution_python,
)
from repro.sampling.scope import build_scope
from repro.sampling.stationary import stationary_distribution
from repro.sampling.strength import strength_distribution
from repro.sampling.transition import TransitionModel
from repro.semantics.similarity import SIMILARITY_FLOOR

TYPE_POOL = ("Car", "Person", "City", "Club", "Thing")
PREDICATE_POOL = ("product", "assembly", "designer", "country", "misc", "rare")


def random_world(seed: int, num_nodes: int = 60, num_edges: int = 150):
    """A random multi-typed, multi-edged KG plus a predicate space."""
    rng = np.random.default_rng(seed)
    kg = KnowledgeGraph(f"random-{seed}")
    for index in range(num_nodes):
        num_types = int(rng.integers(1, 3))
        types = rng.choice(TYPE_POOL, size=num_types, replace=False)
        kg.add_node(f"node_{index}", types, {"value": float(rng.uniform(0, 100))})
    for _ in range(num_edges):
        subject = int(rng.integers(0, num_nodes))
        obj = int(rng.integers(0, num_nodes))  # self-loops allowed
        predicate = str(rng.choice(PREDICATE_POOL))
        kg.add_edge(subject, predicate, obj)
    vectors = {
        name: rng.normal(size=12) for name in PREDICATE_POOL
    }
    space = PredicateVectorSpace(LookupEmbedding(vectors))
    return kg, space


@pytest.mark.parametrize("seed", range(6))
class TestEquivalence:
    def test_hop_distances(self, seed):
        kg, _ = random_world(seed)
        rng = np.random.default_rng(seed + 1000)
        for source in rng.integers(0, kg.num_nodes, size=4):
            for max_hops in (0, 1, 2, 4):
                assert hop_distances(kg, int(source), max_hops) == (
                    hop_distances_python(kg, int(source), max_hops)
                )

    def test_build_scope(self, seed):
        kg, _ = random_world(seed)
        target_types = frozenset(("Car", "City"))
        rng = np.random.default_rng(seed + 2000)
        for source in rng.integers(0, kg.num_nodes, size=4):
            for n_bound in (1, 2, 3):
                expected = build_scope_python(kg, int(source), n_bound, target_types)
                actual = build_scope(kg, int(source), n_bound, target_types)
                assert actual.nodes == expected.nodes
                assert actual.distances == expected.distances
                assert actual.candidate_answers == expected.candidate_answers

    def test_transition_rows(self, seed):
        kg, space = random_world(seed)
        scope = build_scope(kg, seed % kg.num_nodes, 3, frozenset(("Car",)))
        reference = ReferenceTransitionModel(kg, scope, space, "product")
        model = TransitionModel(kg, scope, space, "product")
        assert model.size == reference.size
        assert model.validate_stochastic()
        for index in range(model.size):
            seed_neighbours, seed_probabilities = reference.row(index)
            neighbours, probabilities = model.row(index)
            np.testing.assert_array_equal(neighbours, seed_neighbours)
            np.testing.assert_array_equal(
                model.row_edges(index), reference.row_edges(index)
            )
            np.testing.assert_allclose(
                probabilities, seed_probabilities, rtol=0.0, atol=1e-12
            )

    def test_stationary_distribution(self, seed):
        kg, space = random_world(seed)
        scope = build_scope(kg, seed % kg.num_nodes, 3, frozenset(("Car",)))
        reference = ReferenceTransitionModel(kg, scope, space, "product")
        model = TransitionModel(kg, scope, space, "product")
        np.testing.assert_allclose(
            stationary_distribution(model).probabilities,
            stationary_distribution(reference).probabilities,
            rtol=0.0,
            atol=1e-12,
        )

    def test_strength_distribution(self, seed):
        kg, space = random_world(seed)
        scope = build_scope(kg, seed % kg.num_nodes, 3, frozenset(("Car",)))
        per_predicate = np.clip(
            space.known_similarity_row("product", kg.predicates), SIMILARITY_FLOOR, 1.0
        )
        edge_weights = per_predicate[kg.edge_predicate_ids()]
        np.testing.assert_allclose(
            strength_distribution(kg, space, scope, "product"),
            strength_distribution_python(kg, scope, edge_weights),
            rtol=0.0,
            atol=1e-12,
        )

    def test_similarity_row_matches_pairwise(self, seed):
        _, space = random_world(seed)
        row = space.similarity_row("product", PREDICATE_POOL)
        pairwise = [space.similarity(name, "product") for name in PREDICATE_POOL]
        np.testing.assert_allclose(row, pairwise, rtol=0.0, atol=1e-12)
        assert row[PREDICATE_POOL.index("product")] == 1.0

    def test_unembedded_self_similarity_is_one(self, seed):
        # Identical names give 1.0 without a vector lookup, as in pairwise
        # similarity(), even when the embedding has no vector for the name.
        _, space = random_world(seed)
        assert space.similarity("zzz", "zzz") == 1.0
        np.testing.assert_array_equal(
            space.similarities_to("zzz", ["zzz", "zzz"]), [1.0, 1.0]
        )

    def test_csr_adjacency_matches_store(self, seed):
        kg, _ = random_world(seed)
        snapshot = csr_snapshot(kg)
        assert snapshot.num_nodes == kg.num_nodes
        assert snapshot.num_edges == kg.num_edges
        np.testing.assert_array_equal(
            snapshot.edge_predicate_ids, kg.edge_predicate_ids()
        )
        for node in kg.nodes():
            edge_ids, neighbours = snapshot.neighbors(node)
            expected = kg.neighbors(node)
            assert list(zip(edge_ids.tolist(), neighbours.tolist())) == expected
            assert snapshot.degree(node) == kg.degree(node)


class TestPartialEmbedding:
    """Seed semantics: unknown predicates only fail when actually touched."""

    def test_out_of_scope_unknown_predicate_builds(self):
        kg = KnowledgeGraph()
        hub = kg.add_node("hub", ["Hub"])
        near = kg.add_node("near", ["Car"])
        far = kg.add_node("far", ["Car"])
        kg.add_edge(near, "knows", hub)
        kg.add_edge(far, "rare_pred", near)  # outside the 1-hop scope
        space = PredicateVectorSpace(
            LookupEmbedding({"knows": np.array([1.0, 0.0])})
        )
        scope = build_scope(kg, hub, 1, frozenset(("Car",)))
        model = TransitionModel(kg, scope, space, "knows")
        reference = ReferenceTransitionModel(kg, scope, space, "knows")
        for index in range(model.size):
            np.testing.assert_allclose(
                model.row(index)[1], reference.row(index)[1], rtol=0.0, atol=1e-12
            )

    def test_in_scope_unknown_predicate_raises(self):
        from repro.errors import EmbeddingError

        kg = KnowledgeGraph()
        hub = kg.add_node("hub", ["Hub"])
        near = kg.add_node("near", ["Car"])
        kg.add_edge(near, "rare_pred", hub)
        space = PredicateVectorSpace(
            LookupEmbedding({"knows": np.array([1.0, 0.0])})
        )
        scope = build_scope(kg, hub, 1, frozenset(("Car",)))
        with pytest.raises(EmbeddingError):
            TransitionModel(kg, scope, space, "knows")

    def test_planner_only_checks_the_scopes_edges(self):
        """The closed-form S1 stage keeps the contract end to end: an
        uncovered predicate anywhere else in the graph fails no plan."""
        from repro import EngineConfig
        from repro.core.plan import PlanCache
        from repro.core.planner import QueryPlanner
        from repro.errors import EmbeddingError
        from repro.query.graph import QueryGraph

        kg = KnowledgeGraph()
        hub = kg.add_node("hub", ["Hub"])
        near = kg.add_node("near", ["Car"])
        far = kg.add_node("far", ["Car"])
        kg.add_edge(near, "knows", hub)
        kg.add_edge(far, "rare_pred", near)  # outside the 1-hop scope
        space = PredicateVectorSpace(
            LookupEmbedding({"knows": np.array([1.0, 0.0])})
        )
        simple = QueryGraph.simple("hub", ["Hub"], "knows", ["Car"]).components[0]

        def plan(n_bound):
            planner = QueryPlanner(
                kg, space, EngineConfig(n_bound=n_bound), cache=PlanCache()
            )
            return planner.plan_for(simple)

        assert plan(1).distribution.answers.tolist() == [near]
        with pytest.raises(EmbeddingError, match="rare_pred"):
            plan(2)  # now the rare_pred edge is inside the scope

    def test_validator_skips_unreached_unknown_predicate(self):
        from repro.semantics.validation import CorrectnessValidator

        kg = KnowledgeGraph()
        hub = kg.add_node("hub", ["Hub"])
        near = kg.add_node("near", ["Car"])
        far = kg.add_node("far", ["Car"])
        kg.add_edge(near, "knows", hub)
        kg.add_edge(far, "rare_pred", near)
        space = PredicateVectorSpace(
            LookupEmbedding({"knows": np.array([1.0, 0.0])})
        )
        validator = CorrectnessValidator(kg, space)
        # visiting map excludes 'far', so the rare_pred edge is never taken
        outcome = validator.validate(hub, near, "knows", {hub: 0.5, near: 0.5})
        assert outcome.paths_found >= 1
        assert outcome.similarity > 0.0


class TestSnapshotInvalidation:
    def test_snapshot_is_cached_per_version(self):
        kg, _ = random_world(0)
        assert csr_snapshot(kg) is csr_snapshot(kg)

    def test_add_edge_invalidates(self):
        kg, _ = random_world(1)
        before = csr_snapshot(kg)
        kg.add_edge(0, "misc", 1)
        after = csr_snapshot(kg)
        assert after is not before
        assert after.num_edges == before.num_edges + 1
        edge_ids, neighbours = after.neighbors(0)
        assert (kg.num_edges - 1) in edge_ids.tolist()
        # BFS through the public API sees the new edge immediately.
        assert 1 in hop_distances(kg, 0, 1)

    def test_add_node_invalidates(self):
        kg, _ = random_world(2)
        before = csr_snapshot(kg)
        kg.add_node("late_arrival", ["Thing"])
        after = csr_snapshot(kg)
        assert after is not before
        assert after.num_nodes == before.num_nodes + 1

    def test_set_attribute_preserves_snapshot(self):
        # Attribute writes bump the attribute counter only: snapshots hold
        # no attribute data, so the cached object survives by identity.
        kg, _ = random_world(3)
        before = csr_snapshot(kg)
        structure_before = kg.structure_version
        kg.set_attribute(0, "value", 1.0)
        assert kg.structure_version == structure_before
        assert kg.attribute_version >= 1
        assert kg.version > structure_before  # total counter still moves
        assert csr_snapshot(kg) is before

    def test_type_bitmask(self):
        kg, _ = random_world(4)
        snapshot = csr_snapshot(kg)
        mask = snapshot.type_mask(("Car", "Person"))
        for node in kg.nodes():
            assert mask[node] == kg.node(node).shares_type_with({"Car", "Person"})
        assert not snapshot.type_mask(("NoSuchType",)).any()
        np.testing.assert_array_equal(
            snapshot.nodes_with_any_type(("Car", "Person")),
            np.asarray(kg.nodes_with_any_type(["Car", "Person"])),
        )
