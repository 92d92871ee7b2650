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
from repro.core.planner import resolve_mapping_node
from repro.core.result import STOP_CENSUS
from repro.errors import SamplingError
from repro.query.graph import PathQuery
from repro.sampling.chain import ChainSampler
from repro.sampling.collector import AnswerDistribution
from repro.sampling.reference import (
    compose_routes_python,
    stage_distribution_per_source,
)
from repro.sampling.strength import (
    Stage,
    similarity_entry_weights,
    stage_distributions,
)
from repro.sampling.topology import cnarw_entry_weights


def batched_stage(kg, space):
    """One hop's closed-form walks, as a semantic planner binds the stage
    kernel."""

    def stage(sources, predicate, node_types, hop=0):
        return stage_distributions(
            kg,
            sources,
            node_types,
            partial(similarity_entry_weights, kg, space, predicate),
        )

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
        distribution, _expanded = chain_distribution
        assert distribution.probabilities.sum() == pytest.approx(1.0)

    def test_support_covers_designed_answers(self, toy, chain_distribution):
        distribution, expanded = chain_distribution
        assert set(toy.near_miss_cars) <= set(distribution.answers.tolist())
        assert expanded > 0

    def test_the_cap_bounds_the_expanded_intermediates(
        self, toy, toy_stage, chain_component, chain_distribution
    ):
        _distribution, uncapped = chain_distribution
        _distribution, capped = ChainSampler(
            toy.kg, toy_stage, max_intermediates=2
        ).build(chain_component)
        assert capped <= 2 + 1 < uncapped  # two intermediates plus the source

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
    built, built_expanded = ChainSampler(
        kg, stage, max_intermediates=max_intermediates
    ).build(component, first_stage)
    distribution, expanded = compose_routes_python(
        kg, stage_of, component, max_intermediates, first_stage
    )
    assert built.answers.tobytes() == distribution.answers.tobytes()
    assert built.probabilities.tobytes() == distribution.probabilities.tobytes()
    assert built_expanded == expanded
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
        _assert_equals_oracle(
            bundle.kg, stage, stage_of, component, max_intermediates
        )
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


class TestChainSamplerKinds:
    """``PaperConfig.sampler`` decides every hop of a chain plan."""

    @staticmethod
    def _planner(bundle, sampler):
        """A planner under ``sampler`` with a private cache, and the S1 of
        its plans."""
        from repro.bench.sampled import PaperConfig, PlanSampler
        from repro.core.plan import PlanCache
        from repro.core.planner import QueryPlanner

        space = bundle.space()
        config = PaperConfig(seed=0, sampler=sampler)
        return (
            QueryPlanner(bundle.kg, space, config, cache=PlanCache()),
            PlanSampler(bundle.kg, space, config),
        )

    @classmethod
    def _pi_a(cls, bundle, sampler, component):
        planner, plan_sampler = cls._planner(bundle, sampler)
        return plan_sampler.sample(planner.plan_for(component)).distribution

    @staticmethod
    def _league_chain():
        return QueryGraph.chain(
            "Spain",
            ["Country"],
            [("league", ["League"]), ("playerIn", ["SoccerPlayer"])],
        ).components[0]

    def test_cnarw_chains_walk_cnarw_on_every_hop(self, monkeypatch):
        from repro.bench import sampled as sampled_module
        from repro.bench.sampled import SamplerKind

        bundle = ALL_PRESETS["yago2-like"](seed=0)
        component = self._league_chain()
        # pi_A is built on first use: build this one before the patch
        semantic = self._pi_a(bundle, SamplerKind.SEMANTIC, component)

        def no_similarity(*args, **kwargs):
            raise AssertionError("a CNARW hop weighed a predicate")

        monkeypatch.setattr(sampled_module, "similarity_entry_weights", no_similarity)
        planner, plan_sampler = self._planner(bundle, SamplerKind.CNARW)
        cnarw = plan_sampler.sample(planner.plan_for(component)).distribution
        # pi_A keeps no routes: compose them again over its stages
        routed, _expanded = ChainSampler(bundle.kg, plan_sampler.stage).build(component)

        def stage(sources, predicate, node_types, hop=0):
            return stage_distributions(
                bundle.kg, sources, node_types,
                partial(cnarw_entry_weights, bundle.kg),
            )

        expected, _expanded = ChainSampler(bundle.kg, stage).build(component)
        for plan_bytes, expected_bytes in (
            (cnarw.answers, expected.answers),
            (cnarw.probabilities, expected.probabilities),
            (routed.answers, expected.answers),
            (routed.probabilities, expected.probabilities),
        ):
            assert plan_bytes.tobytes() == expected_bytes.tobytes()
        assert cnarw.probabilities.tobytes() != semantic.probabilities.tobytes()

    def test_node2vec_refuses_a_chain_at_its_first_draw(self):
        """The plan is the census's and builds; its S1 refuses the chain
        before any stage runs."""
        from repro.bench.sampled import SamplerKind
        from repro.errors import QueryError

        bundle = ALL_PRESETS["yago2-like"](seed=0)
        planner, plan_sampler = self._planner(bundle, SamplerKind.NODE2VEC)
        plan = planner.plan_for(self._league_chain())
        with pytest.raises(QueryError, match="node2vec"):
            plan_sampler.sample(plan)
        assert plan_sampler.stage_batches == 0

    def test_samplers_share_one_row_and_keep_their_own_pi_a(self, monkeypatch):
        """A SEMANTIC and a CNARW sampled engine over one plan cache build
        the chain's plan and row once, and each draws from its own
        sampler's pi_A: the one a private-cache planner builds."""
        from repro.bench.sampled import PaperConfig, SampledExecutor, SamplerKind
        from repro.core.plan import PlanCache
        from repro.core.planner import QueryPlanner
        from repro.semantics.validation import ChainValidator

        rows = []
        original = ChainValidator._build_row

        def recording(validator):
            rows.append(id(validator))
            return original(validator)

        monkeypatch.setattr(ChainValidator, "_build_row", recording)
        bundle = ALL_PRESETS["yago2-like"](seed=0)
        component = self._league_chain()
        query = AggregateQuery(
            query=QueryGraph.chain(
                component.specific_name,
                sorted(component.specific_types),
                [(predicate, sorted(types)) for predicate, types in component.hops],
            ),
            function=AggregateFunction.COUNT,
        )
        space, cache = bundle.space(), PlanCache()
        planners, states = [], {}
        for sampler in (SamplerKind.SEMANTIC, SamplerKind.CNARW):
            config = PaperConfig(seed=0, sampler=sampler)
            planner = QueryPlanner(bundle.kg, space, config, cache=cache)
            executor = SampledExecutor(bundle.kg, space, config, planner)
            planners.append(planner)
            states[sampler] = executor.initialise(query, 1)
            executor._ensure_validated(states[sampler])
        assert sum(planner.build_count for planner in planners) == 1
        semantic, cnarw = states.values()
        plan = semantic.components[0]
        assert cnarw.components[0] is plan
        assert rows == [id(plan.validator)]
        for sampler, state in states.items():
            expected = self._pi_a(bundle, sampler, component)
            assert state.joint.answers.tobytes() == expected.answers.tobytes()
            assert (
                state.joint.probabilities.tobytes()
                == expected.probabilities.tobytes()
            )
        assert semantic.joint.probabilities.tobytes() != (
            cnarw.joint.probabilities.tobytes()
        )


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
    def test_contradictory_composite_estimates_zero(
        self, toy, fast_config, paper_fast_config, sampled_engine
    ):
        """No toy car satisfies both the product and the designer-chain
        relations: the candidate supports intersect (same Automobile pool)
        but validation admits nobody, so the estimate is 0.  Sampling
        reports non-convergence; the census — which the toy world's small
        support triggers — has validated every answer, so its 0 is exact."""
        engine = sampled_engine(toy.kg, toy.embedding, paper_fast_config)
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
        census = ApproximateAggregateEngine(
            toy.kg, toy.embedding, fast_config
        ).execute(query)
        assert (census.value, census.moe) == (0.0, 0.0)
        assert census.converged and census.stop_reason == STOP_CENSUS

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
