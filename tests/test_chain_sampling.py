"""Tests for the two-stage chain sampler (§V-B) and chain queries end-to-end."""

from functools import partial

import numpy as np
import pytest

from repro import (
    AggregateFunction,
    AggregateQuery,
    ApproximateAggregateEngine,
    EngineConfig,
    QueryGraph,
)
from repro.errors import SamplingError
from repro.query.graph import PathQuery
from repro.sampling import ChainSampler
from repro.sampling.strength import stage_distribution


@pytest.fixture(scope="module")
def toy_stage(toy):
    """One hop's closed-form walk on the toy graph, as a planner binds it."""
    return partial(stage_distribution, toy.kg, toy.space)


@pytest.fixture(scope="module")
def chain_component(toy) -> PathQuery:
    graph = QueryGraph.chain(
        "Germany",
        ["Country"],
        [("nationality", ["Person"]), ("designer", ["Automobile"])],
    )
    return graph.components[0]


@pytest.fixture(scope="module")
def chain_distribution(toy, toy_stage, chain_component):
    sampler = ChainSampler(toy.kg, toy_stage)
    return sampler.build(chain_component)


class TestChainSampler:
    def test_distribution_sums_to_one(self, chain_distribution):
        assert chain_distribution.distribution.probabilities.sum() == pytest.approx(1.0)

    def test_support_covers_designed_answers(self, toy, chain_distribution):
        support = set(int(n) for n in chain_distribution.distribution.answers)
        assert set(toy.near_miss_cars) <= support

    def test_routes_reference_real_intermediates(self, toy, chain_distribution):
        for answer, routes in chain_distribution.routes.items():
            for intermediates, probability in routes:
                assert probability > 0
                for node in intermediates:
                    assert toy.kg.node(node).has_type("Person")

    def test_collect_draws_with_routes(self, toy, toy_stage, chain_distribution):
        sampler = ChainSampler(toy.kg, toy_stage)
        draws = sampler.collect(chain_distribution, 50, seed=1)
        assert len(draws) == 50
        for draw in draws:
            assert draw.probability > 0

    def test_truncation_flag(self, toy, toy_stage, chain_component):
        sampler = ChainSampler(toy.kg, toy_stage, max_intermediates=2)
        distribution = sampler.build(chain_component)
        assert distribution.truncated

    def test_invalid_max_intermediates(self, toy, toy_stage):
        with pytest.raises(SamplingError):
            ChainSampler(toy.kg, toy_stage, max_intermediates=0)

    def test_impossible_chain_raises(self, toy, toy_stage):
        component = QueryGraph.chain(
            "Germany",
            ["Country"],
            [("nationality", ["Spaceship"]), ("designer", ["Automobile"])],
        ).components[0]
        sampler = ChainSampler(toy.kg, toy_stage)
        with pytest.raises(SamplingError):
            sampler.build(component)


class TestChainQueriesEndToEnd:
    def test_chain_count(self, toy, fast_config):
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, fast_config)
        query = AggregateQuery(
            query=QueryGraph.chain(
                "Germany",
                ["Country"],
                [("nationality", ["Person"]), ("designer", ["Automobile"])],
            ),
            function=AggregateFunction.COUNT,
        )
        result = engine.execute(query)
        truth = float(len(toy.near_miss_cars))
        assert result.relative_error(truth) < 0.1

    def test_chain_avg(self, toy, fast_config):
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, fast_config)
        query = AggregateQuery(
            query=QueryGraph.chain(
                "Germany",
                ["Country"],
                [("nationality", ["Person"]), ("designer", ["Automobile"])],
            ),
            function=AggregateFunction.AVG,
            attribute="price",
        )
        truth = float(
            np.mean([toy.kg.node(c).attribute("price") for c in toy.near_miss_cars])
        )
        result = engine.execute(query)
        assert result.relative_error(truth) < 0.05


class TestCompositeQueriesEndToEnd:
    def test_contradictory_composite_estimates_zero(self, toy, fast_config):
        """No toy car satisfies both the product and the designer-chain
        relations: the candidate supports intersect (same Automobile pool)
        but validation admits nobody, so the estimate is 0 and the engine
        reports non-convergence."""
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, fast_config)
        composite = QueryGraph.compose(
            [
                QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
                QueryGraph.chain(
                    "Germany",
                    ["Country"],
                    [("nationality", ["Person"]), ("designer", ["Automobile"])],
                ),
            ]
        )
        query = AggregateQuery(query=composite, function=AggregateFunction.COUNT)
        result = engine.execute(query)
        assert result.value == 0.0
        assert not result.converged

    def test_cycle_on_dataset(self, dbpedia_bundle):
        """The dataset presets wire real overlaps; cycles estimate them."""
        from repro.baselines import SemanticSimilarityBaseline
        from repro.datasets import simple_query_graph

        germany = simple_query_graph(dbpedia_bundle.spec.hub("germany_cars"))
        bavaria = simple_query_graph(dbpedia_bundle.spec.hub("bavaria_cars"))
        query = AggregateQuery(
            query=QueryGraph.compose([germany, bavaria]),
            function=AggregateFunction.COUNT,
        )
        space = dbpedia_bundle.space()
        truth = SemanticSimilarityBaseline(dbpedia_bundle.kg, space).ground_truth(query)
        engine = ApproximateAggregateEngine(
            dbpedia_bundle.kg, space, EngineConfig(seed=5)
        )
        result = engine.execute(query)
        assert result.relative_error(truth.value) < 0.05
