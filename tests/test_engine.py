"""End-to-end tests of the sampling-estimation engine (Algorithm 2)."""

import numpy as np
import pytest

from repro import (
    AggregateFunction,
    AggregateQuery,
    ApproximateAggregateEngine,
    EngineConfig,
    Filter,
    GroupBy,
    QueryGraph,
)
from repro.core.config import DeltaStrategy, SamplerKind
from repro.core.result import STOP_ROUND_BUDGET, ApproximateResult, GroupedResult
from repro.errors import QueryError, SamplingError


@pytest.fixture(scope="module")
def engine(toy, fast_config) -> ApproximateAggregateEngine:
    return ApproximateAggregateEngine(toy.kg, toy.embedding, fast_config)


class TestSimpleQueries:
    def test_count_within_bound(self, toy, engine):
        result = engine.execute(toy.count_query())
        assert isinstance(result, ApproximateResult)
        assert result.relative_error(toy.count_truth) < 0.05
        assert result.converged

    def test_avg_within_bound(self, toy, engine):
        result = engine.execute(toy.avg_query())
        assert result.relative_error(toy.avg_truth) < 0.03

    def test_sum_within_bound(self, toy, engine):
        result = engine.execute(toy.sum_query())
        assert result.relative_error(toy.sum_truth) < 0.05

    def test_result_metadata(self, toy, engine):
        result = engine.execute(toy.count_query())
        assert result.function is AggregateFunction.COUNT
        assert result.total_draws > 0
        assert result.distinct_answers > 0
        assert result.num_candidates >= 80  # 60 correct + 20 near-miss
        assert result.walk_iterations == 0  # closed-form S1: no walk iterated
        assert set(result.stage_ms) >= {"sampling", "estimation"}
        assert result.num_rounds == len(result.rounds)

    def test_distinct_support_indices_follow_growth(self, toy, engine):
        """The drawn-mask memo equals ``np.unique`` over every draw and is
        recomputed exactly when the (append-only) little samples grow."""
        state = engine.executor.initialise(toy.avg_query(), seed=5)

        def oracle() -> np.ndarray:
            return np.unique(np.concatenate(state.little_samples))

        first = state.distinct_support_indices()
        assert first.dtype == np.int64 and np.array_equal(first, oracle())
        outcome = engine.executor.step(state, 0.001)
        assert state.distinct_support_indices() is first
        engine.executor.grow(state, outcome.trace, 0.001)  # Eq. 12 top-up
        grown = state.distinct_support_indices()
        assert grown is not first and np.array_equal(grown, oracle())

    def test_rounds_trace_monotone_draws(self, toy, engine):
        result = engine.execute(toy.count_query())
        draws = [trace.total_draws for trace in result.rounds]
        assert draws == sorted(draws)
        assert result.rounds[-1].satisfied == result.converged

    def test_interval_brackets_estimate(self, toy, engine):
        result = engine.execute(toy.avg_query())
        assert result.interval.lower <= result.value <= result.interval.upper

    def test_seed_determinism(self, toy, fast_config):
        first = ApproximateAggregateEngine(toy.kg, toy.embedding, fast_config).execute(
            toy.count_query()
        )
        second = ApproximateAggregateEngine(toy.kg, toy.embedding, fast_config).execute(
            toy.count_query()
        )
        assert first.value == second.value
        assert first.total_draws == second.total_draws

    def test_seed_override_changes_draws(self, toy, engine):
        first = engine.execute(toy.count_query(), seed=1)
        second = engine.execute(toy.count_query(), seed=2)
        # same truth, different randomness
        assert first.relative_error(toy.count_truth) < 0.05
        assert second.relative_error(toy.count_truth) < 0.05

    def test_describe(self, toy, engine):
        text = engine.execute(toy.count_query()).describe()
        assert "COUNT" in text and "±" in text

    def test_estimate_once_single_round(self, toy, engine):
        result = engine.estimate_once(toy.count_query())
        assert result.num_rounds == 1

    def test_missing_entity_raises(self, toy, engine):
        bad = AggregateQuery(
            query=QueryGraph.simple("Atlantis", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
        )
        from repro.errors import MappingNodeNotFoundError

        with pytest.raises(MappingNodeNotFoundError):
            engine.execute(bad)

    def test_no_candidates_raises(self, toy, engine):
        bad = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Spaceship"]),
            function=AggregateFunction.COUNT,
        )
        with pytest.raises(SamplingError):
            engine.execute(bad)


class TestFilters:
    def test_filtered_count(self, toy, engine):
        query = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
            filters=(Filter("price", 30_000.0, 32_950.0),),
        )
        truth = sum(
            1
            for car in toy.correct_cars
            if 30_000.0 <= toy.kg.node(car).attribute("price") <= 32_950.0
        )
        result = engine.execute(query)
        assert result.relative_error(float(truth)) < 0.1

    def test_filter_excluding_everything(self, toy, engine):
        query = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
            filters=(Filter("price", 1.0, 2.0),),
        )
        result = engine.execute(query)
        assert result.value == 0.0
        assert not result.converged


class TestExtremes:
    def test_max_close_to_truth(self, toy, engine):
        query = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.MAX,
            attribute="price",
        )
        truth = max(toy.kg.node(c).attribute("price") for c in toy.correct_cars)
        result = engine.execute(query)
        assert result.value <= truth  # sample max never exceeds the population max
        assert result.relative_error(truth) < 0.05
        assert not result.converged  # extremes carry no guarantee

    def test_min_close_to_truth(self, toy, engine):
        query = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.MIN,
            attribute="price",
        )
        truth = min(toy.kg.node(c).attribute("price") for c in toy.correct_cars)
        result = engine.execute(query)
        assert result.value >= truth
        assert result.relative_error(truth) < 0.05


class TestGroupBy:
    def test_grouped_counts(self, toy, engine):
        query = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
            group_by=GroupBy("price", bin_width=1000.0),
        )
        result = engine.execute(query)
        assert isinstance(result, GroupedResult)
        truth: dict[float, int] = {}
        for car in toy.correct_cars:
            key = (toy.kg.node(car).attribute("price") // 1000.0) * 1000.0
            truth[key] = truth.get(key, 0) + 1
        # every populated group must be found with a reasonable estimate
        assert set(result.groups) == set(truth)
        total_estimated = sum(r.value for r in result.groups.values())
        assert total_estimated == pytest.approx(toy.count_truth, rel=0.1)

    def test_group_labels(self, toy, engine):
        query = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
            group_by=GroupBy("price", bin_width=10_000.0),
        )
        result = engine.execute(query)
        for key in result.groups:
            assert "price" in result.labels[key]
        assert result.num_groups == len(result.groups)
        assert "by group" in result.describe()

    def test_a_round_that_gates_no_group_is_not_satisfied(self, toy):
        """Sixty one-car bins: no group reaches ``min_group_draws`` correct
        draws in three rounds, so no round has checked a bound."""
        config = EngineConfig(seed=7, max_rounds=3)
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, config)
        query = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
            group_by=GroupBy("price", bin_width=100.0),
        )
        result = engine.execute(query)
        assert max(
            group.correct_draws for group in result.groups.values()
        ) < config.min_group_draws
        assert not result.converged
        assert result.stop_reason == STOP_ROUND_BUDGET
        assert [trace.satisfied for trace in result.rounds] == [False] * 3

    def test_thin_first_round_does_not_report_bound_met(self, dbpedia_bundle):
        """dbpedia-like Q014 at draw seed 1000013: round 1 holds 30 draws and
        six groups of 1-6 correct draws, every MoE near its estimate — it
        used to stop there as ``converged`` / ``bound_met``."""
        engine = ApproximateAggregateEngine(
            dbpedia_bundle.kg, dbpedia_bundle.embedding, EngineConfig(seed=0)
        )
        result = engine.execute(
            "COUNT(*) MATCH (Berlin:City)-[basedIn]->(x:SoccerClub) "
            "GROUP BY founded BIN 23",
            seed=1000013,
        )
        assert result.rounds[0].total_draws == 30
        assert not result.converged
        assert result.stop_reason == STOP_ROUND_BUDGET
        assert len(result.rounds) == engine.config.max_rounds == 10
        assert not any(group.converged for group in result.groups.values())


class TestAblationConfigs:
    def test_without_validation_overestimates(self, toy):
        """Fig 5(b): skipping validation admits near-miss cars."""
        config = EngineConfig(seed=7, validate_correctness=False)
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.count_query())
        # near-miss cars inflate the count beyond the correct 60
        assert result.value > toy.count_truth * 1.05

    def test_cnarw_sampler_runs(self, toy):
        config = EngineConfig(seed=7, sampler=SamplerKind.CNARW, max_rounds=4)
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.count_query())
        assert result.total_draws > 0
        # the ablation's walk has no closed form: it iterates, and says so
        assert result.walk_iterations > 0
        assert engine.planner.unconverged_walks == 0

    def test_cnarw_counts_walks_that_run_out_of_steps(self, toy, monkeypatch):
        from repro.core import planner as planner_module
        from repro.core.plan import PlanCache
        from repro.core.service import AggregateQueryService
        from repro.sampling.stationary import stationary_distribution

        monkeypatch.setattr(
            planner_module,
            "stationary_distribution",
            lambda transition: stationary_distribution(transition, max_iterations=3),
        )
        config = EngineConfig(seed=7, sampler=SamplerKind.CNARW, max_rounds=2)
        planner = planner_module.QueryPlanner(
            toy.kg, toy.space, config, cache=PlanCache()
        )
        with AggregateQueryService(
            toy.kg, toy.space, config, planner=planner
        ) as service:
            plan = planner.plan_for(toy.count_query().query.components[0])
            exposition = service.registry.render_prometheus()
        assert (plan.walk_iterations, planner.unconverged_walks) == (3, 1)
        assert "repro_plan_unconverged_walks 1" in exposition

    def test_node2vec_sampler_runs(self, toy):
        config = EngineConfig(seed=7, sampler=SamplerKind.NODE2VEC, max_rounds=3)
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.count_query())
        assert result.total_draws > 0

    def test_fixed_delta_strategy(self, toy):
        config = EngineConfig(
            seed=7, delta_strategy=DeltaStrategy.FIXED, fixed_delta=60, max_rounds=12
        )
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.avg_query())
        assert result.relative_error(toy.avg_truth) < 0.05

    def test_paper_normalization_biased_count(self, toy):
        """DESIGN.md §4.1: Eq. 8 as written overcounts by ~1/q."""
        from repro.estimation import Normalization

        config = EngineConfig(seed=7, normalization=Normalization.PAPER, max_rounds=6)
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.count_query())
        assert result.value > toy.count_truth  # upward bias

    def test_max_sample_size_cap(self, toy):
        config = EngineConfig(seed=7, max_sample_size=120, error_bound=0.0001)
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.count_query())
        assert not result.converged

    def test_component_cache_reused(self, toy, fast_config):
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, fast_config)
        engine.execute(toy.count_query())
        cache_size = len(engine.planner.plans)
        engine.execute(toy.avg_query())  # same component
        assert len(engine.planner.plans) == cache_size


class TestLazyConjunction:
    """S2 validates cheapest-first and stops at the first rejection."""

    def test_star_verdicts_equal_the_eager_minimum(self, dbpedia_bundle, fast_config):
        from repro import QueryShape
        from repro.core.plan import shared_plan_cache
        from repro.datasets import queries_of_shape, standard_workload

        # the workload states each composite as COUNT first, then AVG
        star = queries_of_shape(
            standard_workload(dbpedia_bundle), QueryShape.STAR
        )[0].aggregate_query
        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(
            dbpedia_bundle.kg, dbpedia_bundle.embedding, fast_config
        )
        state = engine.executor.initialise(star, 3)
        engine._executor._ensure_validated(state)

        # simple components first, ties in plan order
        order = state.validation_order
        assert [plan.chain is not None for plan in order] == [False, False, True]
        assert [plan for plan in state.components if plan.chain is None] == list(
            order[:2]
        )
        # each component saw only what every earlier one kept
        sizes = [len(plan.similarity_cache) for plan in order]
        assert sizes[0] > sizes[1] >= sizes[2] > 0

        # the public similarity is still the minimum over *all* components;
        # asking for it computes whatever the conjunction skipped
        validated = np.flatnonzero(state.support_known)
        assert len(validated) == sizes[0]
        for index in validated:
            node_id = int(state.joint.answers[index])
            similarity = engine.answer_similarity(state, node_id)
            assert similarity == min(
                plan.similarity_cache[node_id] for plan in state.components
            )
            assert (similarity >= fast_config.tau) == state.support_correct[index]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"error_bound": 0.0},
            {"error_bound": 1.0},
            {"confidence_level": 0.0},
            {"tau": 0.0},
            {"repeat_factor": 0},
            {"n_bound": 0},
            {"sample_ratio": 0.0},
            {"min_initial_sample": 0},
            {"max_rounds": 0},
            {"fixed_delta": 0},
            {"self_loop_weight": 0.0},
            {"extreme_sample_ratio": 0.0},
            {"extreme_rounds": 0},
            {"max_intermediates": 0},
            {"max_growth_factor": 1.0},
            {"min_rounds": 0},
            {"min_correct_for_termination": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(QueryError):
            EngineConfig(**kwargs)

    def test_with_copies(self):
        config = EngineConfig()
        updated = config.with_(error_bound=0.05)
        assert updated.error_bound == 0.05
        assert config.error_bound == 0.01


class TestAqlStringQueries:
    """engine.execute / estimate_once accept AQL text directly."""

    def test_execute_accepts_aql_string(self, dbpedia_bundle, fast_config):
        from repro.core.engine import ApproximateAggregateEngine

        engine = ApproximateAggregateEngine(
            dbpedia_bundle.kg, dbpedia_bundle.embedding, config=fast_config
        )
        result = engine.execute(
            "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
        )
        assert result.value > 0

    def test_execute_string_equals_object(self, dbpedia_bundle, fast_config):
        from repro.core.engine import ApproximateAggregateEngine
        from repro.query import AggregateFunction, AggregateQuery, QueryGraph

        engine = ApproximateAggregateEngine(
            dbpedia_bundle.kg, dbpedia_bundle.embedding, config=fast_config
        )
        via_object = engine.execute(
            AggregateQuery(
                query=QueryGraph.simple(
                    "Germany", ["Country"], "product", ["Automobile"]
                ),
                function=AggregateFunction.COUNT,
            ),
            seed=123,
        )
        via_string = engine.execute(
            "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)",
            seed=123,
        )
        assert via_string.value == via_object.value

    def test_malformed_string_raises_parse_error(self, dbpedia_bundle, fast_config):
        import pytest

        from repro.core.engine import ApproximateAggregateEngine
        from repro.query.parser import ParseError

        engine = ApproximateAggregateEngine(
            dbpedia_bundle.kg, dbpedia_bundle.embedding, config=fast_config
        )
        with pytest.raises(ParseError):
            engine.execute("SELECT * FROM answers")
