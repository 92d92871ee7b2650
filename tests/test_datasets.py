"""Tests for the synthetic dataset substrates (specs, builder, presets)."""

import math

import numpy as np
import pytest

from repro.datasets import (
    ALL_PRESETS,
    AttributeSpec,
    ChainSpec,
    DatasetSpec,
    EdgeStep,
    HubSpec,
    NoiseSpec,
    OverlapSpec,
    PathSchema,
    PredicateRegistry,
    build_dataset,
    dbpedia_like,
    dbpedia_like_spec,
    freebase_like,
    freebase_like_spec,
    yago_like,
    yago_like_spec,
)
from repro.errors import DatasetError


class TestPredicateRegistry:
    def test_base_is_unit(self):
        registry = PredicateRegistry(16, seed=0)
        vector = registry.register_base("product")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_cosine_is_exact(self):
        registry = PredicateRegistry(16, seed=0)
        registry.register_base("product")
        registry.register_with_cosine("assembly", "product", 0.98)
        assert registry.cosine("assembly", "product") == pytest.approx(0.98, abs=1e-9)

    def test_reregistration_returns_existing(self):
        registry = PredicateRegistry(16, seed=0)
        first = registry.register_base("p")
        second = registry.register_base("p")
        np.testing.assert_array_equal(first, second)

    def test_unknown_reference(self):
        registry = PredicateRegistry(16, seed=0)
        with pytest.raises(DatasetError):
            registry.register_with_cosine("x", "missing", 0.5)

    def test_cosine_out_of_range(self):
        registry = PredicateRegistry(16, seed=0)
        registry.register_base("p")
        with pytest.raises(DatasetError):
            registry.register_with_cosine("x", "p", 1.5)

    def test_dim_validation(self):
        with pytest.raises(DatasetError):
            PredicateRegistry(2)

    def test_lookup_embedding_roundtrip(self):
        registry = PredicateRegistry(8, seed=0)
        registry.register_base("p")
        embedding = registry.as_lookup_embedding()
        np.testing.assert_array_equal(
            embedding.predicate_vector("p"), registry.vector("p")
        )


class TestSpecValidation:
    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_presets_refuse_a_scale_that_is_not_finite_and_positive(self, scale):
        for spec in (dbpedia_like_spec, freebase_like_spec, yago_like_spec):
            with pytest.raises(ValueError, match="scale must be finite and > 0"):
                spec(scale=scale)

    def test_schema_geomean(self):
        schema = PathSchema(
            "two_hop",
            (EdgeStep("a", 0.98, next_type="X", pool=2), EdgeStep("b", 0.81)),
        )
        assert schema.geometric_mean_cosine == pytest.approx(
            np.sqrt(0.98 * 0.81), abs=1e-9
        )
        assert schema.length == 2

    def test_schema_must_end_at_hub(self):
        with pytest.raises(DatasetError):
            PathSchema("bad", (EdgeStep("a", 0.9, next_type="X"),))

    def test_schema_middle_steps_need_types(self):
        with pytest.raises(DatasetError):
            PathSchema("bad", (EdgeStep("a", 0.9), EdgeStep("b", 0.9)))

    def test_overlap_validation(self):
        with pytest.raises(DatasetError):
            OverlapSpec(("one",), 5)
        with pytest.raises(DatasetError):
            OverlapSpec(("a", "b"), 0)
        with pytest.raises(DatasetError):
            OverlapSpec(("a", "b"), 3, kinds=("simple",))
        with pytest.raises(DatasetError):
            OverlapSpec(("a", "b"), 3, kinds=("simple", "warp"))

    def test_dataset_checks_overlap_hubs(self):
        hub = HubSpec(
            key="h",
            hub_name="H",
            hub_types=("T",),
            target_type="A",
            canonical_predicate="p",
            num_correct=5,
            correct_schemas=(PathSchema("direct", (EdgeStep("p", 1.0),)),),
        )
        with pytest.raises(DatasetError, match="unknown hub"):
            DatasetSpec(name="d", hubs=(hub,), overlaps=(OverlapSpec(("h", "x"), 2),))

    def test_dataset_checks_chain_overlap(self):
        hub = HubSpec(
            key="h",
            hub_name="H",
            hub_types=("T",),
            target_type="A",
            canonical_predicate="p",
            num_correct=5,
            correct_schemas=(PathSchema("direct", (EdgeStep("p", 1.0),)),),
        )
        overlap = OverlapSpec(("h", "h"), 2, kinds=("chain", "simple"))
        with pytest.raises(DatasetError, match="chain"):
            DatasetSpec(name="d", hubs=(hub,), overlaps=(overlap,))

    def test_attribute_distribution_names(self):
        with pytest.raises(DatasetError):
            AttributeSpec("x", "weird", (1.0, 2.0))


class TestBuilder:
    @pytest.fixture(scope="class")
    def bundle(self):
        return dbpedia_like(seed=0)

    def test_deterministic(self):
        first = build_dataset(dbpedia_like_spec(seed=5, scale=0.3))
        second = build_dataset(dbpedia_like_spec(seed=5, scale=0.3))
        assert first.kg.num_nodes == second.kg.num_nodes
        assert first.kg.num_edges == second.kg.num_edges
        assert list(first.kg.triples()) == list(second.kg.triples())

    def test_single_use(self):
        from repro.datasets.builder import DatasetBuilder

        builder = DatasetBuilder(dbpedia_like_spec(seed=0, scale=0.2))
        builder.build()
        with pytest.raises(DatasetError):
            builder.build()

    def test_hub_answer_counts(self, bundle):
        spec = bundle.spec.hub("germany_cars")
        simple_answers = bundle.answers_of("germany_cars", "simple")
        # num_correct plus the simple-kind overlap wirings
        assert len(simple_answers) >= spec.num_correct
        assert len(bundle.answers_of("germany_cars", "near_miss")) == spec.num_near_miss

    def test_answers_have_attributes(self, bundle):
        for node_id in list(bundle.answers_of("germany_cars", "simple"))[:20]:
            node = bundle.kg.node(node_id)
            assert node.attribute("price") is not None
            assert node.attribute("fuel_economy") is not None

    def test_provenance_recorded(self, bundle):
        for node_id in list(bundle.answers_of("germany_cars", "simple"))[:20]:
            provenance = bundle.schema_of(node_id, "germany_cars", "simple")
            assert provenance is not None
            assert provenance.schema_label in {
                schema.label for schema in bundle.spec.hub("germany_cars").all_schemas
            }

    def test_overlap_entities_multi_hub(self, bundle):
        cycle_overlap = bundle.spec.overlaps[0]
        shared = bundle.answers_of("germany_cars", "simple") & bundle.answers_of(
            "bavaria_cars", "simple"
        )
        assert len(shared) >= cycle_overlap.count

    def test_chain_wiring(self, bundle):
        intermediates = bundle.chain_intermediates["germany_cars"]
        spec = bundle.spec.hub("germany_cars")
        assert len(intermediates) == spec.chain.num_intermediates
        chain_answers = bundle.answers_of("germany_cars", "chain")
        assert len(chain_answers) >= spec.chain.num_intermediates * spec.chain.fanout

    def test_registry_cosines_match_spec(self, bundle):
        hub = bundle.spec.hub("germany_cars")
        for schema in hub.correct_schemas:
            for step in schema.steps:
                realised = bundle.registry.cosine(
                    step.predicate, hub.canonical_predicate
                )
                assert realised == pytest.approx(step.cosine, abs=1e-6)

    def test_presets_build(self):
        for name, maker in ALL_PRESETS.items():
            bundle = maker(seed=1, scale=0.3)
            assert bundle.kg.num_nodes > 100
            assert bundle.name == name

    def test_preset_memoisation(self):
        assert dbpedia_like(seed=0) is dbpedia_like(seed=0)
        assert freebase_like(seed=0) is not yago_like(seed=0)


class TestProvenanceVsSSB:
    def test_tau_gt_matches_provenance(self):
        """SSB's tau-GT answer set equals the generator's designed one.

        Correct answers are exactly the entities wired through schemas with
        geometric-mean cosine >= tau (0.85) — SSB must recover this from
        the graph alone.
        """
        from repro.baselines import SemanticSimilarityBaseline
        from repro.datasets import simple_query_graph
        from repro.query import AggregateFunction, AggregateQuery

        bundle = dbpedia_like(seed=0)
        ssb = SemanticSimilarityBaseline(bundle.kg, bundle.space())
        hub = bundle.spec.hub("germany_cars")
        query = AggregateQuery(
            query=simple_query_graph(hub), function=AggregateFunction.COUNT
        )
        truth = ssb.ground_truth(query)
        expected = set()
        for kind in ("simple", "near_miss"):
            for node_id in bundle.answers_of("germany_cars", kind):
                provenance = bundle.schema_of(node_id, "germany_cars", kind)
                if provenance.schema_geomean >= 0.85:
                    expected.add(node_id)
        assert truth.answers == frozenset(expected)
