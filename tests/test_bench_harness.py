"""Tests for the benchmark harness, metrics and reporting layers."""

import numpy as np
import pytest

from repro.bench import (
    bench_context,
    jaccard,
    method_names,
    relative_error,
    render_table,
    run_method,
)
from repro.bench.harness import BenchContext
from repro.bench.metrics import grouped_relative_error, mean_or_nan, variance_or_nan
from repro import (
    AggregateFunction,
    AggregateQuery,
    ApproximateAggregateEngine,
)
from repro.bench.sampled import PaperConfig, SamplerKind
from repro.core.plan import shared_plan_cache
from repro.datasets import guaranteed_queries, simple_query_graph
from repro.errors import ReproError
from repro.sampling.scope import build_scope
from repro.sampling.topology import node2vec_visit_distribution
from repro.semantics.reference import ReferenceValidator
from repro.semantics.validation import ChainValidator, CorrectnessValidator
from repro.utils.rng import derive_seed


def test_fig6a_tightens_each_query_through_one_handle():
    """Fig. 6(a): per function, a first run at 5% and four refines down
    to 1%, each row the draws that step added to the handle."""
    from repro.bench.experiments import fig6a_interactive

    result = fig6a_interactive(seed=0)
    labels = ["init 5%", "5%->4%", "4%->3%", "3%->2%", "2%->1%"]
    assert len(result.rows) == 15
    for start in range(0, 15, 5):
        rows = result.rows[start : start + 5]
        assert len({row[0] for row in rows}) == 1
        assert [row[1] for row in rows] == labels
        added = [row[3] for row in rows]
        assert all(isinstance(count, int) and count >= 0 for count in added)
        assert added[-1] > 0  # halving the bound cannot come for free


class TestMetrics:
    def test_relative_error(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == float("inf")

    def test_jaccard(self):
        assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 1.0
        assert jaccard({1}, set()) == 0.0

    def test_mean_or_nan(self):
        assert mean_or_nan([1.0, 3.0]) == 2.0
        assert np.isnan(mean_or_nan([]))
        assert mean_or_nan([1.0, float("inf")]) == 1.0

    def test_variance_or_nan(self):
        assert variance_or_nan([1.0, 3.0]) == pytest.approx(2.0)
        assert np.isnan(variance_or_nan([1.0]))

    def test_grouped_relative_error(self):
        truth = {1.0: 10.0, 2.0: 20.0}
        estimated = {1.0: 11.0}  # missing group 2 counts as 100% error
        value = grouped_relative_error(estimated, truth)
        assert value == pytest.approx((0.1 + 1.0) / 2)
        assert grouped_relative_error({}, {}) == 0.0


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(
            "Title", ["A", "LongHeader"], [["x", 1.5], ["yy", 10_000.0]]
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "LongHeader" in lines[2]
        assert "10,000.0" in text

    def test_render_none_and_nan(self):
        text = render_table("T", ["A"], [[None], [float("nan")]])
        assert text.count("-") >= 2

    def test_notes_appended(self):
        text = render_table("T", ["A"], [["x"]], notes="a note")
        assert text.endswith("a note")


class TestHarness:
    @pytest.fixture(scope="class")
    def context(self) -> BenchContext:
        return bench_context("dbpedia-like", seed=0, scale=1.0)

    def test_method_roster(self):
        assert method_names() == (
            "Ours", "EAQ", "GraB", "QGA", "SGQ", "JENA", "Virtuoso", "SSB",
        )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ReproError):
            BenchContext("no-such-preset")

    def test_ground_truth_caching(self, context):
        query = guaranteed_queries(context.workload)[0]
        first = context.tau_ground_truth(query.aggregate_query)
        second = context.tau_ground_truth(query.aggregate_query)
        assert first is second

    def test_ssb_method_has_zero_tau_error(self, context):
        query = guaranteed_queries(context.workload)[0]
        truth = context.tau_ground_truth(query.aggregate_query)
        outcome = run_method(context, "SSB", query)
        assert outcome.error_against(truth.value, truth.groups) == 0.0

    def test_ours_runs_and_reports(self, context):
        query = guaranteed_queries(context.workload)[1]  # an AVG query
        truth = context.tau_ground_truth(query.aggregate_query)
        outcome = run_method(context, "Ours", query, query_seed=3)
        assert outcome.elapsed_seconds > 0
        assert outcome.error_against(truth.value, truth.groups) < 0.05

    def test_confidence_sweep_samples(self, context):
        """The figures run the paper's sampling model: a two-level
        confidence sweep on the ``germany_cars`` COUNT never ends in a
        census, and draws more at the higher level."""
        query = AggregateQuery(
            query=simple_query_graph(context.bundle.spec.hub("germany_cars")),
            function=AggregateFunction.COUNT,
        )
        draws = {}
        for level in (0.86, 0.98):
            config = PaperConfig(seed=0, confidence_level=level)
            result = context.engine(config).execute(query, seed=41)
            assert result.stop_reason != "census"
            draws[level] = result.total_draws
        assert draws[0.98] > draws[0.86]

    def test_figure_engines_are_cold(self, context):
        """Every figure engine builds its own plans — "Ours" timings include
        S1 and S2 — and none of them reaches the process-wide cache."""
        query = guaranteed_queries(context.workload)[1]
        component = query.aggregate_query.query.components[0]
        kg = context.bundle.kg
        published = shared_plan_cache().num_plans(kg)
        engines = [context.engine(), context.engine()]
        for engine in engines:
            engine.execute(query.aggregate_query, seed=3)
            assert engine.planner.build_count == 1
        assert shared_plan_cache().num_plans(kg) == published
        first, second = (engine.planner.plan_for(component) for engine in engines)
        assert first is not second

    def test_figure_plans_carry_the_r_path_search(self, context):
        """A figure engine's simple plan searches until ``tau``, a chain's
        first leg runs all ``r`` paths; production plans over the same
        components keep the exact row.  Both planners wrap a chain's first
        leg in a ``ChainValidator``."""
        config = PaperConfig(seed=0, repeat_factor=2, tau=0.8)
        engine = context.engine(config)
        production = ApproximateAggregateEngine(
            context.bundle.kg, context.space, config
        )
        seen = set()
        for query in context.workload:
            for component in query.aggregate_query.query.components:
                validator = engine.planner.plan_for(component).validator
                exact = production.planner.plan_for(component).validator
                if not component.is_simple:
                    assert isinstance(validator, ChainValidator)
                    assert isinstance(exact, ChainValidator)
                    validator, exact = validator.first_leg, exact.first_leg
                assert isinstance(validator, ReferenceValidator)
                assert validator.repeat_factor == 2
                expected = 0.8 if component.is_simple else None
                assert validator.stop_threshold == expected
                seen.add(component.is_simple)
                assert isinstance(exact, CorrectnessValidator)
        assert seen == {True, False}

    @pytest.mark.parametrize(
        "sampler, shape",
        [
            (SamplerKind.SEMANTIC, "simple"),
            (SamplerKind.CNARW, "simple"),
            (SamplerKind.NODE2VEC, "simple"),
            (SamplerKind.SEMANTIC, "chain"),
        ],
    )
    def test_figure_plans_keep_the_first_stage_visiting_map(
        self, context, sampler, shape
    ):
        """The r-path search walks the first S1 stage's visiting map, built
        as the dense per-node scatter's positive entries: same node ids,
        same floats — a Node2Vec plan's is its simulated walk's."""
        kg = context.bundle.kg
        config = PaperConfig(seed=0, sampler=sampler)
        planner = context.engine(config).planner
        component = next(
            component
            for query in context.workload
            for component in query.aggregate_query.query.components
            if component.is_simple == (shape == "simple")
        )
        plan = planner.plan_for(component)
        predicate, node_types = component.hops[0]
        if sampler is SamplerKind.NODE2VEC:
            scope = build_scope(kg, plan.source, config.n_bound, node_types)
            nodes = scope.nodes
            probabilities = node2vec_visit_distribution(
                kg, scope, seed=derive_seed(config.seed, "node2vec", plan.source)
            )
        else:
            nodes, probabilities, _, _ = planner.sampler.first_stage(
                plan.source, predicate, node_types
            )
        visiting = np.zeros(kg.num_nodes)
        visiting[np.asarray(nodes, dtype=np.int64)] = probabilities
        expected = {
            int(node): float(visiting[node])
            for node in np.flatnonzero(visiting > 0.0)
        }
        first_leg = plan.validator if shape == "simple" else plan.validator.first_leg
        assert expected and first_leg.visiting == expected

    def test_paper_false_negatives_do_not_grow_with_r(self):
        """Over the simple components of freebase-like's workload at
        scale 1, the figure validator keeps no answer SSB rejects, and
        misses fewer or as many of SSB's answers as ``r`` grows — it does
        miss some, which Fig. 5(b) and Fig. 6(c) chart."""
        context = bench_context("freebase-like", seed=0, scale=1.0)
        components = dict.fromkeys(
            component
            for query in context.workload
            for component in query.aggregate_query.query.components
            if component.is_simple
        )
        misses = []
        for r in (1, 2, 3, 5):
            config = PaperConfig(seed=0, repeat_factor=r)
            engine = context.engine(config)
            missed = 0
            for component in components:
                plan = engine.planner.plan_for(component)
                answers = engine.planner.sampler.sample(plan).distribution.answers
                exact = CorrectnessValidator(
                    context.bundle.kg, context.space, plan.source,
                    component.predicates[0],
                ).validate_batch(answers).similarity >= config.tau
                greedy = plan.validator.validate_batch(answers).similarity >= config.tau
                assert not (greedy & ~exact).any()
                missed += int((exact & ~greedy).sum())
            misses.append(missed)
        assert misses == sorted(misses, reverse=True)
        assert misses[0] > 0

    def test_eaq_unsupported_on_chain(self, context):
        chain_query = next(
            q for q in context.workload if q.shape.value == "chain"
        )
        outcome = run_method(context, "EAQ", chain_query)
        assert not outcome.supported
        assert np.isnan(outcome.error_against(1.0, {}))

    def test_unknown_method_rejected(self, context):
        query = context.workload[0]
        with pytest.raises(ReproError):
            run_method(context, "Oracle", query)

    def test_context_memoised(self):
        assert bench_context("dbpedia-like", 0, 1.0) is bench_context(
            "dbpedia-like", 0, 1.0
        )
