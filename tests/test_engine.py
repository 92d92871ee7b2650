"""End-to-end tests of the sampling-estimation engine (Algorithm 2)."""

from dataclasses import fields, replace

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
from repro.bench.sampled import DeltaStrategy, PaperConfig, SamplerKind
from repro.core.result import (
    STOP_BOUND_MET,
    STOP_CENSUS,
    STOP_ROUND_BUDGET,
    STOP_SAMPLE_CAP,
    ApproximateResult,
    GroupedResult,
)
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

    def test_result_metadata(self, toy, paper_fast_config, sampled_engine):
        engine = sampled_engine(toy.kg, toy.embedding, paper_fast_config)
        result = engine.execute(toy.count_query())
        assert result.function is AggregateFunction.COUNT
        assert result.total_draws > 0
        assert result.distinct_answers > 0
        assert result.num_candidates >= 80  # 60 correct + 20 near-miss
        assert result.walk_iterations == 0  # closed-form S1: no walk iterated
        assert set(result.stage_ms) >= {"sampling", "estimation"}
        assert result.num_rounds == len(result.rounds)

    def test_distinct_support_indices_follow_growth(
        self, toy, paper_fast_config, sampled_engine
    ):
        """The drawn-mask memo equals ``np.unique`` over every draw and is
        recomputed exactly when the (append-only) little samples grow."""
        engine = sampled_engine(toy.kg, toy.embedding, paper_fast_config)
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

    @pytest.mark.parametrize(
        "stop_reason, converged, status",
        [
            (STOP_CENSUS, True, "exact: census of the whole support"),
            (STOP_BOUND_MET, True, "converged"),
            (STOP_SAMPLE_CAP, False, "sample cap reached"),
            (STOP_ROUND_BUDGET, False, "round-budget exhausted"),
        ],
        ids=[STOP_CENSUS, STOP_BOUND_MET, STOP_SAMPLE_CAP, STOP_ROUND_BUDGET],
    )
    def test_describe_names_why_the_run_stopped(
        self, toy, engine, stop_reason, converged, status
    ):
        result = engine.execute(toy.count_query())
        text = replace(result, stop_reason=stop_reason, converged=converged).describe()
        assert text.endswith(f"draws, {status})")

    def test_a_one_round_budget_runs_a_single_round(self, toy, sampled_engine):
        """``PaperConfig(max_rounds=1)`` runs the initial round and stops
        on the budget, however far the bound is."""
        engine = sampled_engine(
            toy.kg,
            toy.embedding,
            PaperConfig(seed=11, error_bound=0.0001, max_rounds=1),
        )
        with engine.service as service:
            result = service.submit(toy.count_query(), seed=3).result(timeout=60.0)
        assert result.num_rounds == 1 and not result.converged
        assert result.stop_reason == STOP_ROUND_BUDGET
        assert result.total_draws == result.rounds[0].total_draws > 0

    def test_missing_entity_raises(self, toy, engine):
        bad = AggregateQuery(
            query=QueryGraph.simple("Atlantis", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
        )
        from repro.errors import MappingNodeNotFoundError

        with pytest.raises(MappingNodeNotFoundError):
            engine.execute(bad)

    def test_a_build_that_raises_is_not_counted(self, toy_world_factory, fast_config):
        """``build_count`` and the ``repro_plan_builds`` gauge count plans
        built: three executions of a COUNT from a missing mapping node
        build none, so both read 0, like the cache's plans."""
        world = toy_world_factory()
        engine = ApproximateAggregateEngine(world.kg, world.embedding, fast_config)
        bad = AggregateQuery(
            query=QueryGraph.simple("Atlantis", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
        )
        from repro.errors import MappingNodeNotFoundError

        try:
            for _ in range(3):
                with pytest.raises(MappingNodeNotFoundError):
                    engine.execute(bad)
            text = engine.service.registry.render_prometheus()
        finally:
            engine.service.close()
        (gauge,) = [
            line for line in text.splitlines() if line.startswith("repro_plan_builds ")
        ]
        assert engine.planner.build_count == 0
        assert float(gauge.split()[1]) == 0.0
        assert engine.planner.cache.num_plans(world.kg) == 0

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

    def test_filter_excluding_everything(
        self, toy, paper_fast_config, engine, sampled_engine
    ):
        """Sampling has no CI without a correct draw; the census has
        screened every answer, so its 0 is exact."""
        query = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
            filters=(Filter("price", 1.0, 2.0),),
        )
        result = sampled_engine(toy.kg, toy.embedding, paper_fast_config).execute(query)
        assert result.value == 0.0
        assert not result.converged
        census = engine.execute(query)
        assert (census.value, census.moe) == (0.0, 0.0)
        assert census.converged and census.stop_reason == STOP_CENSUS


class TestExtremes:
    def test_max_close_to_truth(
        self, toy, paper_fast_config, engine, sampled_engine
    ):
        query = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.MAX,
            attribute="price",
        )
        truth = max(toy.kg.node(c).attribute("price") for c in toy.correct_cars)
        result = sampled_engine(toy.kg, toy.embedding, paper_fast_config).execute(query)
        assert result.value <= truth  # sample max never exceeds the population max
        assert result.relative_error(truth) < 0.05
        assert not result.converged  # sampled extremes carry no guarantee
        census = engine.execute(query)  # the census is the population max
        assert (census.value, census.moe) == (truth, 0.0)
        assert census.converged and census.stop_reason == STOP_CENSUS

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

    def test_a_round_that_gates_no_group_is_not_satisfied(self, toy, sampled_engine):
        """Sixty one-car bins: no group reaches ``min_group_draws`` correct
        draws in three rounds, so no round has checked a bound."""
        config = PaperConfig(seed=7, max_rounds=3)
        engine = sampled_engine(toy.kg, toy.embedding, config)
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

    def test_thin_first_round_does_not_report_bound_met(
        self, dbpedia_bundle, sampled_engine
    ):
        """dbpedia-like Q014 at draw seed 1000013: round 1 holds 30 draws and
        six groups of 1-6 correct draws, every MoE near its estimate — it
        used to stop there as ``converged`` / ``bound_met``."""
        engine = sampled_engine(
            dbpedia_bundle.kg, dbpedia_bundle.embedding, PaperConfig(seed=0)
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
    def test_without_validation_overestimates(self, toy, sampled_engine):
        """Fig 5(b): skipping validation admits near-miss cars."""
        config = PaperConfig(seed=7, validate_correctness=False)
        engine = sampled_engine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.count_query())
        # near-miss cars inflate the count beyond the correct 60
        assert result.value > toy.count_truth * 1.05

    def test_cnarw_sampler_runs(self, toy, sampled_engine):
        config = PaperConfig(seed=7, sampler=SamplerKind.CNARW, max_rounds=4)
        engine = sampled_engine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.count_query())
        assert result.total_draws > 0
        # the ablation's walk is reversible too: closed form, no iteration
        assert result.walk_iterations == 0

    def test_node2vec_sampler_runs(self, toy, sampled_engine):
        config = PaperConfig(seed=7, sampler=SamplerKind.NODE2VEC, max_rounds=3)
        engine = sampled_engine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.count_query())
        assert result.total_draws > 0

    def test_fixed_delta_strategy(self, toy, sampled_engine):
        """Fig 5(c): a fixed top-up per round still meets the bound."""
        config = PaperConfig(
            seed=7, delta_strategy=DeltaStrategy.FIXED, max_rounds=12
        )
        engine = sampled_engine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.avg_query())
        assert result.total_draws > 0 and result.stop_reason != STOP_CENSUS
        assert result.stop_reason == STOP_BOUND_MET
        assert result.relative_error(toy.avg_truth) < 0.05

    def test_paper_normalization_biased_count(self, toy, sampled_engine):
        """DESIGN.md §4.1: Eq. 8 as written overcounts by ~1/q."""
        from repro.estimation.estimators import Normalization

        config = PaperConfig(seed=7, normalization=Normalization.PAPER, max_rounds=6)
        engine = sampled_engine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.count_query())
        assert result.value > toy.count_truth  # upward bias

    def test_max_sample_size_cap(self, toy, sampled_engine):
        config = PaperConfig(seed=7, max_sample_size=120, error_bound=0.0001)
        engine = sampled_engine(toy.kg, toy.embedding, config)
        result = engine.execute(toy.count_query())
        assert not result.converged

    def test_component_cache_reused(self, toy, fast_config):
        engine = ApproximateAggregateEngine(toy.kg, toy.embedding, fast_config)
        engine.execute(toy.count_query())
        cache, builds = engine.planner.cache, engine.planner.build_count
        cache_size = cache.num_plans(toy.kg)
        engine.execute(toy.avg_query())  # same component
        assert cache.num_plans(toy.kg) == cache_size
        assert engine.planner.build_count == builds


class TestConjunction:
    """A composite answer is correct when every component keeps it."""

    def test_star_verdicts_equal_the_eager_minimum(
        self, dbpedia_bundle, paper_fast_config, memoised, sampled_engine
    ):
        from repro import QueryShape
        from repro.core.plan import shared_plan_cache
        from repro.datasets import queries_of_shape, standard_workload

        # the workload states each composite as COUNT first, then AVG
        star = queries_of_shape(
            standard_workload(dbpedia_bundle), QueryShape.STAR
        )[0].aggregate_query
        shared_plan_cache().clear()
        engine = sampled_engine(
            dbpedia_bundle.kg, dbpedia_bundle.embedding, paper_fast_config
        )
        state = engine.executor.initialise(star, 3)
        engine._executor._ensure_validated(state)

        # every component, the chain included, read its row
        assert sorted(plan.component.is_simple for plan in state.components) == [
            False, True, True
        ]
        validated = np.flatnonzero(state.support_known)
        answers = state.joint.answers[validated]
        kept = [
            plan.validator.row()[0][answers] >= paper_fast_config.tau
            for plan in state.components
        ]
        both = np.logical_and.reduce(kept)
        assert all(mask.sum() > both.sum() for mask in kept) and both.any()
        assert (state.support_correct[validated] == both).all()

        # the public similarity is the minimum over all components
        similarities = [
            engine.answer_similarity(state, node_id) for node_id in answers.tolist()
        ]
        memos = [memoised(plan.validator) for plan in state.components]
        for index, node_id, similarity in zip(
            validated, answers.tolist(), similarities
        ):
            assert similarity == min(memo[node_id] for memo in memos)
            assert (similarity >= paper_fast_config.tau) == state.support_correct[index]


class TestConfigValidation:
    def test_engine_config_holds_what_a_census_reads(self):
        assert [field.name for field in fields(EngineConfig)] == [
            "error_bound",
            "confidence_level",
            "tau",
            "n_bound",
            "seed",
        ]
        assert len(fields(PaperConfig)) == 5 + 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"error_bound": 0.0},
            {"error_bound": 1.0},
            {"confidence_level": 0.0},
            {"tau": 0.0},
            {"n_bound": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(QueryError):
            EngineConfig(**kwargs)
        with pytest.raises(QueryError):
            PaperConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"repeat_factor": 0},
            {"sample_ratio": 0.0},
            {"min_initial_sample": 0},
            {"max_rounds": 0},
            {"self_loop_weight": 0.0},
            {"self_loop_weight": float("nan")},
            {"self_loop_weight": float("inf")},
            {"extreme_rounds": 0},
            {"max_intermediates": 0},
            {"min_rounds": 0},
        ],
    )
    def test_invalid_paper_config_rejected(self, kwargs):
        with pytest.raises(QueryError):
            PaperConfig(**kwargs)

    def test_a_sampler_knob_is_not_an_engine_config_field(self):
        with pytest.raises(TypeError):
            EngineConfig(max_rounds=8)
        with pytest.raises(TypeError):
            EngineConfig(validate_correctness=False)
        assert not PaperConfig(validate_correctness=False).validate_correctness

    def test_the_similarity_floor_is_no_knob(self):
        """Every plan floors Eq. 2's similarities at ``SIMILARITY_FLOOR``."""
        for config in (EngineConfig, PaperConfig):
            with pytest.raises(TypeError):
                config(similarity_floor=0.01)

    def test_the_plan_bound_is_no_knob(self):
        """Every plan cache bounds a graph's plans at ``MAX_PLANS_PER_GRAPH``."""
        from repro.core.plan import PlanCache

        with pytest.raises(TypeError):
            PlanCache(max_plans_per_graph=1)

    def test_with_copies(self):
        config = EngineConfig()
        updated = config.with_(error_bound=0.05)
        assert updated.error_bound == 0.05
        assert config.error_bound == 0.01
        paper = PaperConfig().with_(max_rounds=3)
        assert type(paper) is PaperConfig and paper.max_rounds == 3


class TestAqlStringQueries:
    """engine.execute accepts AQL text directly."""

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
