"""Tests for the interactive error-bound refinement session (Fig 6(a))."""

import pytest

from repro import (
    AggregateFunction,
    AggregateQuery,
    ApproximateAggregateEngine,
    EngineConfig,
    GroupBy,
    InteractiveSession,
    QueryGraph,
)
from repro.errors import QueryError


@pytest.fixture
def engine(toy) -> ApproximateAggregateEngine:
    return ApproximateAggregateEngine(
        toy.kg, toy.embedding, EngineConfig(seed=11, error_bound=0.05)
    )


class TestInteractiveSession:
    def test_refinement_reuses_draws(self, toy, sampled_engine):
        engine = sampled_engine(
            toy.kg, toy.embedding, EngineConfig(seed=11, error_bound=0.05)
        )
        session = InteractiveSession(engine, toy.avg_query(), seed=3)
        first = session.refine(0.05)
        draws_after_first = first.result.total_draws
        second = session.refine(0.02)
        assert second.result.total_draws >= draws_after_first
        assert second.additional_draws == (
            second.result.total_draws - draws_after_first
        )

    def test_each_step_satisfies_its_bound(self, toy, engine):
        session = InteractiveSession(engine, toy.avg_query(), seed=3)
        for error_bound in (0.05, 0.03, 0.01):
            step = session.refine(error_bound)
            assert step.result.converged
            assert step.result.relative_error(toy.avg_truth) < error_bound + 0.02

    def test_history_accumulates(self, toy, engine):
        session = InteractiveSession(engine, toy.avg_query(), seed=3)
        session.refine(0.05)
        session.refine(0.04)
        assert len(session.history) == 2
        assert session.current_result is session.history[-1].result

    def test_loosening_is_cheap(self, toy, engine):
        session = InteractiveSession(engine, toy.avg_query(), seed=3)
        session.refine(0.02)
        draws_before = session.current_result.total_draws
        step = session.refine(0.05)  # looser bound: already satisfied
        assert step.additional_draws == 0 or step.result.total_draws == draws_before

    def test_empty_session_state(self, toy, engine):
        session = InteractiveSession(engine, toy.avg_query(), seed=3)
        assert session.current_result is None
        assert session.history == ()

    def test_grouped_queries_rejected(self, toy, engine):
        grouped = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
            group_by=GroupBy("price", bin_width=1000.0),
        )
        with pytest.raises(QueryError):
            InteractiveSession(engine, grouped)

    def test_extreme_queries_rejected(self, toy, engine):
        extreme = AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.MAX,
            attribute="price",
        )
        with pytest.raises(QueryError):
            InteractiveSession(engine, extreme)
