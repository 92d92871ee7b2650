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
from repro.datasets import ALL_PRESETS
from repro.errors import SamplingError
from repro.query.graph import PathQuery
from repro.sampling import ChainSampler
from repro.sampling.collector import AnswerDistribution
from repro.sampling.reference import (
    compose_routes_python,
    stage_distribution_per_source,
)
from repro.sampling.scope import resolve_mapping_node
from repro.sampling.strength import Stage, stage_distributions


def batched_stage(kg, space):
    """One hop's closed-form walks, as a planner binds the stage kernel."""

    def stage(sources, predicate, node_types, hop=0):
        return stage_distributions(kg, space, sources, predicate, node_types)

    return stage


@pytest.fixture(scope="module")
def toy_stage(toy):
    return batched_stage(toy.kg, toy.space)


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


def _assert_equals_oracle(
    kg, stage, stage_of, component, max_intermediates, first_stage=None
):
    """The array composition over the batched ``stage`` against the
    dict-of-tuples oracle over the per-source ``stage_of``, exactly."""
    built = ChainSampler(kg, stage, max_intermediates=max_intermediates).build(
        component, first_stage
    )
    distribution, routes, expanded, truncated = compose_routes_python(
        kg, stage_of, component, max_intermediates, first_stage
    )
    assert built.distribution.answers.tobytes() == distribution.answers.tobytes()
    assert (
        built.distribution.probabilities.tobytes()
        == distribution.probabilities.tobytes()
    )
    # equal as mappings, per-answer route order and key order included
    assert list(built.routes.items()) == list(routes.items())
    assert (built.expanded_intermediates, built.truncated) == (expanded, truncated)
    return built


class TestRouteCompositionOracle:
    """``ChainSampler.build`` (arrays) == ``compose_routes_python`` (seed loop)."""

    @pytest.mark.parametrize("preset", sorted(ALL_PRESETS))
    @pytest.mark.parametrize("num_hops", (2, 3))
    @pytest.mark.parametrize("max_intermediates", (64, 3))
    def test_presets_match_oracle(self, preset, num_hops, max_intermediates):
        bundle = ALL_PRESETS[preset](seed=0)
        hub = next(hub for hub in bundle.spec.hubs if hub.chain is not None)
        hops = [
            (hub.chain.predicates[0], [hub.chain.intermediate_type]),
            (hub.chain.predicates[1], [hub.target_type]),
        ]
        if num_hops == 3:  # and back to the intermediates
            hops.append((hub.chain.predicates[1], [hub.chain.intermediate_type]))
        component = QueryGraph.chain(hub.hub_name, hub.hub_types, hops).components[0]
        stage = batched_stage(bundle.kg, bundle.space())
        stage_of = partial(stage_distribution_per_source, bundle.kg, bundle.space())
        built = _assert_equals_oracle(
            bundle.kg, stage, stage_of, component, max_intermediates
        )
        assert built.route_nodes.shape == (len(built.route_probability), num_hops)
        if max_intermediates == 3:
            assert built.truncated
        # the planner's hand-over of an already-walked first hop
        source = resolve_mapping_node(
            bundle.kg, component.specific_name, component.specific_types
        )
        _, _, first_stage = stage_of(source, *component.hops[0])
        _assert_equals_oracle(
            bundle.kg, stage, stage_of, component, max_intermediates, first_stage
        )

    def test_ties_at_the_cut_and_dead_intermediates(self, toy):
        """Tied routes straddling ``max_intermediates`` keep composition
        order; an intermediate whose stage raises is skipped, not fatal."""
        component = QueryGraph.chain(
            "Germany",
            ["Country"],
            [("a", ["A"]), ("b", ["B"]), ("c", ["C"])],
        ).components[0]
        source = resolve_mapping_node(
            toy.kg, component.specific_name, component.specific_types
        )
        table = {
            source: ([1001, 1002, 1003, 1004], [0.25, 0.25, 0.25, 0.25]),
            1001: ([2001, 2002], [0.5, 0.5]),
            # 1002 is a dead end; 1003 ties with 1001's routes
            1003: ([2002, 2003], [0.5, 0.5]),
            1004: ([2004], [1.0]),
            2001: ([3001, 3002], [0.5, 0.5]),
            2002: ([3001], [1.0]),
            2003: ([3002, 3003], [0.125, 0.875]),
        }
        walked = []

        def stage_of(start, _predicate, _node_types):
            if start not in table:
                raise SamplingError(f"no candidate from {start}")
            answers, probabilities = table[start]
            return None, None, AnswerDistribution(
                answers=np.asarray(answers, dtype=np.int64),
                probabilities=np.asarray(probabilities, dtype=np.float64),
            )

        def stage(sources, predicate, node_types, hop):
            """One entry per source: the stage, or the error a dead
            intermediate's walk raises — returned, as the kernel does."""
            walked.append((hop, sources.tolist()))
            outcomes = []
            for start in sources.tolist():
                try:
                    distribution = stage_of(start, predicate, node_types)[-1]
                except SamplingError as error:
                    outcomes.append(error)
                else:
                    outcomes.append(Stage(None, None, 0, distribution))
            return outcomes

        for max_intermediates in (1, 2, 3, 64):
            _assert_equals_oracle(
                toy.kg, stage, stage_of, component, max_intermediates
            )
        # one call per hop with every kept route's end, most probable
        # first: the dead intermediate is among them, 2002 ends two routes
        assert walked[-3:] == [
            (0, [source]),
            (1, [1001, 1002, 1003, 1004]),
            (2, [2004, 2001, 2002, 2002, 2003]),
        ]

    def test_collect_carries_the_most_probable_route(
        self, toy, toy_stage, chain_component
    ):
        sampler = ChainSampler(toy.kg, toy_stage)
        chain = sampler.build(chain_component)
        routes = chain.routes
        for draw in sampler.collect(chain, 200, seed=3):
            assert draw.route == routes[draw.node_id][0][0]


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
