"""The serving layer (S4): handles, scheduler, cancellation, batching.

Covers the architectural contracts of :class:`AggregateQueryService`:

* handles resolve to results byte-identical to blocking ``engine.execute``
  for the same seeds, and the engine itself routes through the service
  (``scheduler`` stage bucket present);
* progressive results: the anytime trace grows round by round, draws never
  shrink, and for a fixed seed the CI width is non-increasing;
* cancellation and ``result(timeout=...)`` expiry semantics; a scheduler
  pass is observed by wrapping ``service._run_cohort`` on the instance;
* N concurrent queries over one component build its plan exactly once —
  both through the service scheduler and through raw planner threads
  hammering one :class:`PlanCache`;
* every kind reports why its run stopped; there are no process-pool or
  backend knobs, and a result's stage buckets are the in-process stages;
* a handle's kind, status, draws and push events before, during and
  after its run, and what ``health()`` counts meanwhile;
* every way a query ends — success, a fault, a cancel while pending or
  between rounds, a deadline, ``close()``, a refine's re-settlement —
  settles it once: one ``settled`` event, one count, an ended span and
  one audit line;
* ``close()`` during in-flight queries settles every handle;
* services, submitting threads and refined handles that run at once
  over shared plans answer like one of them alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import threading
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro import (
    AggregateFunction,
    AggregateQuery,
    AggregateQueryService,
    ApproximateAggregateEngine,
    EngineConfig,
    FaultPlan,
    FaultSpec,
    GroupBy,
    QueryGraph,
    QueryStatus,
)
from repro.bench.sampled import ExtremeMethod, PaperConfig
from repro.core.result import STOP_CENSUS
from repro.core.plan import PlanCache, shared_plan_cache
from repro.core.planner import QueryPlanner
from repro.errors import (
    QueryCancelledError,
    QueryError,
    ResultTimeoutError,
    ServiceError,
)
from repro.semantics.validation import ChainValidator

#: an integer with no ``repr``: past the interpreter's 4 300-digit limit
PAST_PRINT_LIMIT = pytest.param(10**5000, id="past-int-print-limit")


@pytest.fixture
def world(toy_world_factory):
    """A fresh toy world per test: isolates the process-wide plan cache."""
    return toy_world_factory()


def _config(sampled: bool, **overrides) -> EngineConfig:
    """The toy services' config: the census's, or the sampler's with a
    short round budget."""
    if sampled:
        return PaperConfig(**{"seed": 7, "max_rounds": 8, **overrides})
    return EngineConfig(**{"seed": 7, **overrides})


def _service(
    world, *, autostart=True, make=AggregateQueryService, **overrides
) -> AggregateQueryService:
    """A service over the toy world; ``make`` is its constructor (the
    ``sampled_service`` fixture for a run that must not end in a census)."""
    config = _config(make is not AggregateQueryService, **overrides)
    return make(world.kg, world.embedding, config, autostart=autostart)


def _grouped_query(bin_width: float = 1000.0) -> AggregateQuery:
    return AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.COUNT,
        group_by=GroupBy("price", bin_width=bin_width),
    )


def _extreme_query() -> AggregateQuery:
    return AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.MAX,
        attribute="price",
    )


class TestHandleResults:
    def test_submit_matches_engine_execute(self, world):
        with _service(world) as service:
            handle = service.submit(world.avg_query(), seed=5)
            served = handle.result()
        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(
            world.kg, world.embedding, EngineConfig(seed=7)
        )
        direct = engine.execute(world.avg_query(), seed=5)
        assert served.value == direct.value
        assert served.total_draws == direct.total_draws
        assert [t.estimate for t in served.rounds] == [
            t.estimate for t in direct.rounds
        ]

    def test_submit_accepts_aql_strings(self, world):
        with _service(world) as service:
            result = service.submit(
                "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
            ).result()
        assert result.value > 0

    def test_batch_interleaves_and_matches_sequential(self, world):
        queries = [
            (world.count_query(), 3),
            (world.avg_query(), 4),
            (world.sum_query(), 5),
        ]
        with _service(world) as service:
            handles = service.submit_batch(queries)
            batched = [handle.result() for handle in handles]
            assert all(
                handle.status is QueryStatus.SUCCEEDED for handle in handles
            )
        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(
            world.kg, world.embedding, EngineConfig(seed=7)
        )
        sequential = [engine.execute(query, seed=seed) for query, seed in queries]
        for served, direct in zip(batched, sequential):
            assert served.value == direct.value
            assert served.total_draws == direct.total_draws

    def test_cold_batch_of_star_queries_matches_sequential(self, dbpedia_bundle):
        """Two star queries share every plan, the chain plan included: each
        query's own S2 pass runs the lazy conjunction against the shared
        verdict memos, validating only what the other has not — values,
        draws and every round equal the one-at-a-time engine's."""
        from repro import QueryShape
        from repro.datasets import queries_of_shape, standard_workload

        count, avg = queries_of_shape(
            standard_workload(dbpedia_bundle), QueryShape.STAR
        )
        queries = [(count.aggregate_query, 3), (avg.aggregate_query, 4)]
        shared_plan_cache().clear()
        with _service(dbpedia_bundle) as service:
            batched = [
                handle.result() for handle in service.submit_batch(queries)
            ]
        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(
            dbpedia_bundle.kg, dbpedia_bundle.embedding, EngineConfig(seed=7)
        )
        sequential = [engine.execute(query, seed=seed) for query, seed in queries]
        for served, direct in zip(batched, sequential):
            assert served.value == direct.value
            assert served.moe == direct.moe
            assert served.total_draws == direct.total_draws
            assert [
                (t.total_draws, t.correct_draws, t.estimate) for t in served.rounds
            ] == [
                (t.total_draws, t.correct_draws, t.estimate) for t in direct.rounds
            ]

    def test_engine_results_carry_scheduler_stage(self, world):
        engine = ApproximateAggregateEngine(
            world.kg, world.embedding, EngineConfig(seed=7)
        )
        result = engine.execute(world.count_query())
        assert "scheduler" in result.stage_ms
        assert result.stage_ms["scheduler"] >= 0.0

    def test_per_query_error_bound_and_confidence(self, world, sampled_service):
        with _service(world, error_bound=0.01, make=sampled_service) as service:
            loose = service.submit(
                world.avg_query(), error_bound=0.10, seed=5
            ).result()
            tight = service.submit(
                world.avg_query(), error_bound=0.01, seed=5
            ).result()
            wide = service.submit(
                world.avg_query(), error_bound=0.10, confidence=0.99, seed=5
            ).result()
        assert loose.total_draws <= tight.total_draws
        assert wide.interval.confidence_level == 0.99

    def test_failed_query_reraises_from_result(self, world):
        from repro.errors import ReproError

        missing = AggregateQuery(
            query=QueryGraph.simple("Nobody", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
        )
        with _service(world) as service:
            handle = service.submit(missing)
            with pytest.raises(ReproError):
                handle.result()
            assert handle.status is QueryStatus.FAILED


class TestProgressiveResults:
    def test_progress_trace_is_monotone_for_fixed_seed(self, world, sampled_service):
        with _service(world, error_bound=0.01, make=sampled_service) as service:
            handle = service.submit(world.avg_query(), seed=11)
            handle.result()
            progress = handle.progress()
        assert len(progress) >= 2
        rounds = [trace.round_index for trace in progress]
        assert rounds == sorted(rounds)
        draws = [trace.total_draws for trace in progress]
        assert draws == sorted(draws)  # the sample only ever grows
        moes = [trace.moe for trace in progress]
        assert all(
            later <= earlier for earlier, later in zip(moes, moes[1:])
        ), f"CI width widened across rounds: {moes}"
        assert all(trace.seconds >= 0.0 for trace in progress)

    def test_refine_reuses_draws(self, world, sampled_service):
        with _service(world, error_bound=0.05, make=sampled_service) as service:
            handle = service.submit(world.avg_query(), seed=3)
            first = handle.result()
            second = handle.refine(0.02).result()
            assert second.total_draws >= first.total_draws
            assert second.moe <= first.moe or second.converged
            # the anytime trace spans both runs
            assert len(handle.progress()) >= len(first.rounds)
        # the refined run extends the first: its rounds come first, and the
        # handle counts every draw the refined result holds
        assert second.rounds[: len(first.rounds)] == first.rounds
        assert handle.total_draws == second.total_draws

    def test_progress_accumulates_across_refines(self, world, sampled_service):
        """One handle keeps one anytime trace: each refine appends its
        rounds, and every result carries the whole trace so far."""
        with _service(world, error_bound=0.05, make=sampled_service) as service:
            handle = service.submit(world.avg_query(), seed=3)
            results = [handle.result()]
            for error_bound in (0.04, 0.02):
                results.append(handle.refine(error_bound).result())
                assert handle.progress() == results[-1].rounds
        lengths = [len(result.rounds) for result in results]
        assert lengths == sorted(lengths) and lengths[0] < lengths[-1]
        for earlier, later in zip(results, results[1:]):
            assert later.rounds[: len(earlier.rounds)] == earlier.rounds

    def test_each_refine_satisfies_its_bound(self, world):
        with _service(world, seed=11, error_bound=0.05) as service:
            handle = service.submit(world.avg_query(), seed=3)
            results = [handle.result()] + [
                handle.refine(error_bound).result() for error_bound in (0.03, 0.01)
            ]
        for error_bound, result in zip((0.05, 0.03, 0.01), results):
            assert result.converged
            assert result.relative_error(world.avg_truth) < error_bound + 0.02

    def test_finished_records_are_pruned_and_refine_resurrects(self, world):
        with _service(world, error_bound=0.05) as service:
            first = service.submit(world.avg_query(), seed=3)
            first.result()
            # new work triggers a scheduler pass, which prunes `first`
            service.submit(world.count_query(), seed=4).result()
            with service._condition:
                assert all(
                    record is not first._record for record in service._records
                )
            # the handle outlives the pruning: state, result and refine work
            assert first.status is QueryStatus.SUCCEEDED
            refined = first.refine(0.02).result()
            assert refined.converged
            assert refined.total_draws >= first.progress()[0].total_draws

    @pytest.mark.parametrize(
        "make_query", [_grouped_query, _extreme_query], ids=["grouped", "extreme"]
    )
    def test_refine_rejected_without_a_single_guarantee(self, world, make_query):
        """Only an ungrouped COUNT / SUM / AVG has one CI a tighter bound
        can act on: GROUP-BY and MAX/MIN handles refuse to refine."""
        with _service(world) as service:
            handle = service.submit(make_query())
            handle.result()
            with pytest.raises(ServiceError):
                handle.refine(0.01)


class TestGroupedAndExtremeSlots:
    """GROUP-BY and MAX/MIN are first-class scheduler citizens: they run
    one round per slot, expose a growing anytime trace, cancel promptly
    mid-run, and interleave with plain aggregates."""

    def test_grouped_progress_trace_grows(self, world, sampled_service):
        with _service(
            world, error_bound=0.001, min_group_draws=1, make=sampled_service
        ) as service:
            handle = service.submit(_grouped_query(), seed=5)
            result = handle.result()
        progress = handle.progress()
        # regression: GROUP-BY rounds never appended RoundTraces, so
        # progress() stayed () forever for grouped queries
        assert len(progress) >= 2
        assert [t.round_index for t in progress] == list(
            range(1, len(progress) + 1)
        )
        draws = [t.total_draws for t in progress]
        assert draws == sorted(draws)  # monotonically growing sample
        assert all(t.guaranteed for t in progress)
        # the final trace is the one that settled the run, and the
        # result carries the whole trace for offline inspection
        assert result.rounds == progress
        assert progress[-1].satisfied == result.converged

    def test_extreme_progress_trace_has_no_nan_moe(self, world, sampled_service):
        with _service(world, make=sampled_service) as service:
            handle = service.submit(_extreme_query(), seed=5)
            result = handle.result()
        progress = handle.progress()
        assert len(progress) == service.config.extreme_rounds
        for trace in progress:
            assert not trace.guaranteed  # no Theorem-2 CI for extremes
            assert trace.moe == 0.0  # the sentinel, never NaN
        # traces are JSON-safe end-to-end: NaN would emit invalid JSON
        payload = json.dumps([asdict(trace) for trace in progress])
        assert "NaN" not in payload
        json.loads(payload)
        assert result.rounds == progress

    def test_rounds_trace_without_ci_uses_no_guarantee_sentinel(
        self, world, sampled_service
    ):
        """A guaranteed-aggregate round with zero correct draws has no CI
        either: its trace records the sentinel (0.0, guaranteed=False)
        instead of inf, while Eq.-12 growth still sees "no CI yet"."""
        from repro import Filter

        empty = AggregateQuery(
            query=QueryGraph.simple(
                "Germany", ["Country"], "product", ["Automobile"]
            ),
            function=AggregateFunction.COUNT,
            filters=(Filter("price", 1.0, 2.0),),  # excludes every answer
        )
        with _service(world, max_rounds=3, make=sampled_service) as service:
            handle = service.submit(empty, seed=5)
            result = handle.result()
        assert result.value == 0.0 and not result.converged
        progress = handle.progress()
        assert progress
        draws = [t.total_draws for t in progress]
        assert draws == sorted(set(draws))  # growth still doubled per round
        for trace in progress:
            assert not trace.guaranteed
            assert trace.moe == 0.0
        payload = json.dumps([asdict(trace) for trace in progress])
        assert "Infinity" not in payload and "NaN" not in payload
        json.loads(payload)

    def test_grouped_trace_with_no_groups_stays_json_safe(
        self, world, sampled_service
    ):
        """A round that observes no groups (here: a GROUP-BY attribute no
        answer carries) has no CI — its trace must use the no-guarantee
        sentinel, not inf, which breaks rendering and strict JSON."""
        with _service(world, max_rounds=3, make=sampled_service) as service:
            handle = service.submit(
                AggregateQuery(
                    query=QueryGraph.simple(
                        "Germany", ["Country"], "product", ["Automobile"]
                    ),
                    function=AggregateFunction.COUNT,
                    group_by=GroupBy("no_such_attribute", bin_width=1.0),
                ),
                seed=5,
            )
            result = handle.result()
        assert result.num_groups == 0
        progress = handle.progress()
        assert progress
        for trace in progress:
            assert not trace.guaranteed
            assert trace.moe == 0.0
        payload = json.dumps([asdict(trace) for trace in progress])
        assert "Infinity" not in payload and "NaN" not in payload
        json.loads(payload)

    def test_cancel_running_grouped_settles_within_one_round(
        self, world, sampled_service
    ):
        """Regression: cancel() on a RUNNING grouped query used to block
        until the whole multi-round atomic slot finished; per-round
        cancellation checks must settle it promptly instead."""
        service = _service(
            world, error_bound=1e-9, max_rounds=64, min_group_draws=1,
            make=sampled_service,
        )
        try:
            handle = service.submit(_grouped_query(bin_width=500.0), seed=5)
            deadline = time.time() + 30.0
            while not handle.progress() and time.time() < deadline:
                time.sleep(0.001)
            assert handle.progress(), "first grouped round never completed"
            cancelled_at = time.time()
            assert handle.cancel() is True
            with pytest.raises(QueryCancelledError):
                handle.result(timeout=10.0)
            assert time.time() - cancelled_at < 10.0
            assert handle.status is QueryStatus.CANCELLED
            # partial progress stays readable after cancellation
            assert len(handle.progress()) >= 1
            assert len(handle.progress()) < 64
        finally:
            service.close()

    @pytest.mark.parametrize(
        "make_query, overrides, census",
        [
            (lambda world: world.avg_query(), {}, False),
            (lambda world: _grouped_query(), {"min_group_draws": 1}, False),
            (lambda world: _extreme_query(), {}, False),
            (
                lambda world: _extreme_query(),
                {"extreme_method": ExtremeMethod.EVT},
                False,
            ),
            (lambda world: world.avg_query(), {}, True),
            (lambda world: _grouped_query(), {}, True),
            (lambda world: _extreme_query(), {}, True),
        ],
        ids=[
            "guaranteed", "grouped", "extreme", "extreme-evt",
            "census-guaranteed", "census-grouped", "census-extreme",
        ],
    )
    def test_hand_driven_lifecycle_equals_the_served_result(
        self, world, drive_lifecycle, sampled_engine, make_query, overrides, census
    ):
        """``initialise``, then ``step`` until its outcome names a stop
        reason, then ``finalise`` — the slot's loop with no service around
        it — equals ``engine.execute`` at the same seed bit for bit, whether
        the sampled executor runs to its end or the production executor
        takes its 0-draw census."""
        config = _config(not census, error_bound=0.001, **overrides)
        make = ApproximateAggregateEngine if census else sampled_engine
        engine = make(world.kg, world.embedding, config)
        query = make_query(world)
        served = engine.execute(query, seed=5)
        _state, direct = drive_lifecycle(
            engine.executor, query, 5, config.error_bound
        )

        def trace(result):
            return [replace(entry, seconds=0.0) for entry in result.rounds]

        if census:
            assert served.stop_reason == STOP_CENSUS and served.converged
            assert len(served.rounds) == 1 and served.total_draws == 0
        else:
            assert len(served.rounds) >= 2  # grow ran, not only the first step
            assert served.stop_reason != STOP_CENSUS
        assert direct.stop_reason == served.stop_reason
        assert trace(direct) == trace(served)
        assert direct.converged == served.converged
        assert direct.total_draws == served.total_draws
        if query.group_by is None:
            assert (direct.value, direct.moe) == (served.value, served.moe)
            assert direct.correct_draws == served.correct_draws
            if overrides.get("extreme_method") is ExtremeMethod.EVT:
                assert served.moe > 0.0  # the tail fit ran: no sentinel
        else:
            assert served.groups and {
                key: (group.value, group.moe, group.correct_draws)
                for key, group in direct.groups.items()
            } == {
                key: (group.value, group.moe, group.correct_draws)
                for key, group in served.groups.items()
            }

    @pytest.mark.parametrize("census", [False, True], ids=["sampled", "census"])
    def test_group_distinct_answers_count_its_drawn_entries(
        self, world, drive_lifecycle, sampled_engine, sampled_service, census
    ):
        """A group's ``distinct_answers`` is the number of distinct drawn
        support entries keyed into it (it used to read 0 for every group);
        a census group, from which nothing is drawn, reads 0."""
        overrides = {"error_bound": 0.001}
        if not census:
            overrides["min_group_draws"] = 1
        with _service(
            world, make=AggregateQueryService if census else sampled_service,
            **overrides,
        ) as service:
            served = service.submit(_grouped_query(), seed=5).result(timeout=60)
        config = _config(not census, **overrides)
        make = ApproximateAggregateEngine if census else sampled_engine
        engine = make(world.kg, world.embedding, config)
        state, direct = drive_lifecycle(
            engine.executor, _grouped_query(), 5, config.error_bound
        )
        assert (served.stop_reason == STOP_CENSUS) is census
        if census:
            assert served.total_draws == 0 and served.groups
            assert {
                key: (group.distinct_answers, group.correct_draws)
                for key, group in served.groups.items()
            } == {key: (0, 0) for key in direct.groups}
            return
        drawn_keys = state.support_group[state.distinct_support_indices()]
        distinct = {
            key: group.distinct_answers for key, group in served.groups.items()
        }
        assert distinct == {
            key: int(np.count_nonzero(drawn_keys == key)) for key in served.groups
        }
        assert sum(distinct.values()) == np.count_nonzero(~np.isnan(drawn_keys)) > 0
        for group in served.groups.values():
            assert (group.distinct_answers > 0) == (group.correct_draws > 0)
            assert group.distinct_answers <= group.correct_draws

    def test_mixed_batch_interleaves_kinds_in_one_pass(self, world, sampled_service):
        """The scheduler steps grouped/extreme records in the same cohort
        as plain aggregates (fewest-completed-rounds-first), instead of
        letting one atomic slot monopolise the scheduler thread."""
        cohort_kinds: list[tuple[str, ...]] = []
        config = PaperConfig(
            seed=7, max_rounds=8, error_bound=0.001, min_group_draws=1
        )
        # held until the whole batch is in: submit_batch submits one query
        # at a time, so a running scheduler could finish the count query
        # before the grouped one arrives and no pass would hold both
        with sampled_service(
            world.kg, world.embedding, config, autostart=False
        ) as service:
            run_cohort = service._run_cohort

            def recording(cohort):
                cohort_kinds.append(tuple(r.kind for r in cohort))
                run_cohort(cohort)

            service._run_cohort = recording
            handles = service.submit_batch(
                [
                    (world.count_query(), 3),
                    (_grouped_query(), 4),
                    (_extreme_query(), 5),
                ]
            )
            service.start()
            for handle in handles:
                handle.result()
        mixed_passes = [
            kinds for kinds in cohort_kinds if len(set(kinds)) >= 2
        ]
        assert mixed_passes, (
            f"no scheduler pass stepped several kinds: {cohort_kinds}"
        )
        assert any(
            {"rounds", "grouped"} <= set(kinds) for kinds in mixed_passes
        )
        # the discriminating witness: a multi-round grouped/extreme query
        # spans SEVERAL scheduler passes (one round per slot); an atomic
        # slot would confine each to exactly one pass
        grouped_passes = sum(
            1 for kinds in cohort_kinds if "grouped" in kinds
        )
        extreme_passes = sum(
            1 for kinds in cohort_kinds if "extreme" in kinds
        )
        assert grouped_passes >= 2, cohort_kinds
        assert extreme_passes >= 2, cohort_kinds


class TestCancellationAndTimeout:
    def test_cancel_pending_query(self, world):
        service = _service(world, autostart=False)
        handle = service.submit(world.count_query())
        assert handle.status is QueryStatus.PENDING
        assert handle.cancel() is True
        assert handle.status is QueryStatus.CANCELLED
        with pytest.raises(QueryCancelledError):
            handle.result()
        assert handle.progress() == ()
        service.close()

    def test_cancel_after_completion_is_noop(self, world):
        with _service(world) as service:
            handle = service.submit(world.count_query())
            result = handle.result()
            assert handle.cancel() is False
            assert handle.status is QueryStatus.SUCCEEDED
            assert handle.result() is result

    def test_cancelled_peer_does_not_disturb_batch(self, world):
        service = _service(world, autostart=False)
        keep = service.submit(world.avg_query(), seed=5)
        drop = service.submit(world.count_query(), seed=6)
        drop.cancel()
        service.start()
        result = keep.result()
        assert result.converged
        with pytest.raises(QueryCancelledError):
            drop.result()

    def test_result_timeout_expires(self, world, sampled_service):
        service = _service(world, autostart=False, make=sampled_service)
        handle = service.submit(world.count_query())
        with pytest.raises(ResultTimeoutError):
            handle.result(timeout=0.05)
        # the query is untouched: releasing the scheduler completes it
        service.start()
        assert handle.result(timeout=10.0).total_draws > 0
        service.close()

    def test_close_cancels_unfinished_queries(self, world):
        service = _service(world, autostart=False)
        handle = service.submit(world.count_query())
        service.close()
        with pytest.raises(QueryCancelledError):
            handle.result()
        with pytest.raises(ServiceError):
            service.submit(world.count_query())


class TestSharedPlanBuilds:
    def test_batch_builds_each_shared_plan_once(self, world):
        queries = [
            (world.count_query(), 3),
            (world.avg_query(), 4),
            (world.sum_query(), 5),
            (world.count_query(), 6),
            (world.avg_query(), 7),
            (world.count_query(), 8),
        ]
        with _service(world) as service:
            handles = service.submit_batch(queries)
            for handle in handles:
                handle.result()
            # six queries, one shared component: S1 ran exactly once
            assert service.planner.build_count == 1

    def test_concurrent_planners_build_once(self, world):
        """Regression: racing get-or-build runs the S1 builder exactly once."""
        cache = PlanCache()
        config = EngineConfig(seed=7)
        component = world.count_query().query.components[0]
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        planners: list[QueryPlanner] = []
        plans: list = []
        errors: list[BaseException] = []

        def race() -> None:
            planner = QueryPlanner(world.kg, world.space, config, cache=cache)
            planners.append(planner)
            barrier.wait()
            try:
                plans.append(planner.plan_for(component))
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=race) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(plans) == num_threads
        assert all(plan is plans[0] for plan in plans), (
            "concurrent planners resolved different plan objects"
        )
        assert sum(planner.build_count for planner in planners) == 1


def _values(result) -> tuple:
    """Every value field of a result: estimate, MoE, draws, rounds, groups."""
    rounds = tuple(
        (t.total_draws, t.correct_draws, t.estimate, t.moe, t.satisfied)
        for t in result.rounds
    )
    if hasattr(result, "groups"):
        groups = tuple(
            (key, _values(group)) for key, group in sorted(result.groups.items())
        )
        return (result.total_draws, rounds, groups)
    return (result.value, result.moe, result.total_draws, rounds)


class TestWarmRounds:
    """A warm S2 round screens over the graph's attribute columns."""

    @staticmethod
    def _queries(world):
        return [(world.avg_query(), 1), (_grouped_query(), 2), (_extreme_query(), 3)]

    @staticmethod
    def _ran(result, sampled: bool) -> bool:
        """A sampled run drew; a production run is a one-round census."""
        if sampled:
            return result.total_draws > 0
        return (
            result.stop_reason == "census"
            and result.total_draws == 0
            and len(result.rounds) == 1
        )

    @pytest.mark.parametrize("sampled", [True, False], ids=["sampled", "census"])
    def test_warm_queries_build_no_node_views(
        self, world, monkeypatch, sampled_service, sampled
    ):
        """Guaranteed, grouped and extreme rounds, single submits and a
        batch: once the plans exist, no per-answer ``Node`` is built —
        neither by sampled rounds nor by a census."""
        from repro.kg import KnowledgeGraph

        make = sampled_service if sampled else AggregateQueryService
        with _service(world, make=make) as service:
            for query, seed in self._queries(world):
                service.submit(query, seed=seed).result()
            built: list[int] = []
            node = KnowledgeGraph.node
            monkeypatch.setattr(
                KnowledgeGraph,
                "node",
                lambda self, node_id: built.append(node_id) or node(self, node_id),
            )
            for query, seed in self._queries(world):
                result = service.submit(query, seed=seed + 10).result()
                assert self._ran(result, sampled)
            batch = [(query, seed + 20) for query, seed in self._queries(world)]
            for handle in service.submit_batch(batch):
                assert self._ran(handle.result(), sampled)
        assert built == []

    @pytest.mark.parametrize("sampled", [True, False], ids=["sampled", "census"])
    def test_set_attribute_between_queries_is_seen_by_the_next_one(
        self, toy_world_factory, sampled_service, sampled
    ):
        """One live service, a write stream between two queries: the second
        equals a fresh service's answer over an equally mutated graph."""
        make = sampled_service if sampled else AggregateQueryService

        def mutate(world) -> None:
            cars = world.correct_cars
            for step, car in enumerate(cars[:20]):
                world.kg.set_attribute(car, "price", 10_000.0 + 7.0 * step)
            world.kg.set_attribute(cars[20], "price", float("nan"))
            world.kg.set_attribute(cars[21], "weight", 1.0)  # a new attribute
            world.kg.set_attribute(cars[22], "price", 50_000.0)  # a new MAX

        live = toy_world_factory()
        with _service(live, make=make) as service:
            before = [
                _values(service.submit(query, seed=seed).result())
                for query, seed in self._queries(live)
            ]
            mutate(live)
            settled = [
                service.submit(query, seed=seed).result()
                for query, seed in self._queries(live)
            ]
        after = [_values(result) for result in settled]
        fresh = toy_world_factory()
        mutate(fresh)
        shared_plan_cache().clear()
        with _service(fresh, make=make) as service:
            expected = [
                _values(service.submit(query, seed=seed).result())
                for query, seed in self._queries(fresh)
            ]
        assert after == expected
        assert all(old != new for old, new in zip(before, after))
        assert all(self._ran(result, sampled) for result in settled)


class TestClosedServiceIsPlainGarbage:
    def test_close_frees_the_service_without_the_cycle_collector(self, world):
        """The registry's read-through gauges were the way back from a
        closed service to itself; ``close()`` freezes them, so dropping the
        last reference frees the service (executor caches, compiled
        contexts) at once — and a scrape still answers."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            service = _service(world)
            service.submit(world.avg_query(), seed=5).result()
            registry = service.registry
            builds = service.planner.build_count
            service.close()
            alive = weakref.ref(service)
            del service
            assert alive() is None
        finally:
            gc.enable()
        assert f"repro_plan_builds {builds}\n" in registry.render_prometheus()
        snapshot = registry.snapshot()
        assert snapshot["repro_scheduler_live_queries"]["{}"] == 0
        assert snapshot["repro_plan_cache_misses"]["{}"] >= 1


# ---------------------------------------------------------------------------
# Stop reasons, knobs, settlement, shutdown ordering, concurrent services
# ---------------------------------------------------------------------------
def _nan_safe(value: float):
    """NaN compares unequal to itself; canonicalise for tuple equality."""
    return None if isinstance(value, float) and math.isnan(value) else value


def _trace_fingerprint(rounds) -> tuple:
    return tuple(
        (t.round_index, t.total_draws, t.correct_draws, t.estimate,
         _nan_safe(t.moe), t.satisfied, t.guaranteed)
        for t in rounds
    )


def _fingerprint(result) -> tuple:
    """Every value-like field of a result (timings excluded)."""
    from repro.core.result import GroupedResult

    if isinstance(result, GroupedResult):
        return (
            "grouped",
            result.converged,
            result.total_draws,
            _trace_fingerprint(result.rounds),
            tuple(
                (key, group.value, _nan_safe(group.moe), group.converged,
                 group.correct_draws)
                for key, group in sorted(result.groups.items())
            ),
        )
    return (
        result.value,
        _nan_safe(result.moe),
        result.converged,
        result.total_draws,
        result.correct_draws,
        result.distinct_answers,
        _trace_fingerprint(result.rounds),
    )


def _workload(world) -> list[tuple[AggregateQuery, int]]:
    """All three kinds over one shared component."""
    return [
        (world.count_query(), 3),
        (world.avg_query(), 4),
        (world.sum_query(), 5),
        (_grouped_query(), 6),
        (_extreme_query(), 7),
    ]


def _served(world) -> list[tuple]:
    """Fingerprints of the workload served as one batch by a fresh service."""
    shared_plan_cache().clear()
    with _service(world) as service:
        handles = service.submit_batch(_workload(world))
        return [_fingerprint(handle.result()) for handle in handles]


def _zeroed(rounds) -> list:
    """A round trace with its wall-clock ``seconds`` zeroed."""
    return [replace(entry, seconds=0.0) for entry in rounds]


class TestStopReasonAndBackend:
    """Why a run stopped has one source, the executor's ``step``: the slot
    only steps and settles, so a served run equals the hand-driven loop."""

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            (dict(max_rounds=30, error_bound=0.05), "bound_met"),
            (dict(max_sample_size=120, error_bound=0.0001), "sample_cap"),
            (dict(max_rounds=1, error_bound=0.0001), "round_budget"),
            (dict(error_bound=0.0001), "census"),
        ],
        ids=["bound_met", "sample_cap", "round_budget", "census"],
    )
    def test_stop_reason_on_every_kind(
        self,
        world,
        drive_lifecycle,
        sampled_engine,
        sampled_service,
        overrides,
        expected,
    ):
        """Why the run stopped is decided once, by the executor's last
        ``step``, packaged by ``finalise`` and carried by the wire payload
        and the audit line; the served run equals the hand-driven one
        trace for trace.  MAX/MIN never meet a bound, so a sampled extreme
        query's reason is never ``bound_met``; the toy GROUP-BY meets one
        only once its groups hold ``min_group_draws`` correct draws (a thin
        first round used to read ``bound_met`` whatever the bound).  A
        sampled run's budget is its config's; a census ends its run at its
        first round."""
        import io

        from repro.core.result import GroupedResult
        from repro.server.app import encode_result

        shared_plan_cache().clear()
        sink = io.StringIO()
        census = expected == "census"
        make = AggregateQueryService if census else sampled_service
        config = (EngineConfig if census else PaperConfig)(seed=7, **overrides)
        with make(world.kg, world.embedding, config, audit_log=sink) as service:
            handles = [
                service.submit(query, seed=seed)
                for query, seed in _workload(world)
            ]
            results = [handle.result(timeout=60.0) for handle in handles]
        reasons = [result.stop_reason for result in results]
        audited = {
            line["sequence"]: line["stop_reason"]
            for line in map(json.loads, sink.getvalue().splitlines())
        }
        assert [audited[h.sequence] for h in handles] == reasons
        for result in results:
            payload = encode_result(result, timings=False)
            assert payload["stop_reason"] == result.stop_reason
            assert (result.stop_reason in ("bound_met", "census")) == result.converged
            if isinstance(result, GroupedResult):
                # a per-group estimate is not a run of its own
                assert {g.stop_reason for g in result.groups.values()} == {None}
        count, avg, total, grouped, extreme = reasons
        assert count == avg == total == grouped == expected
        if not census:
            expected = "sample_cap" if expected == "sample_cap" else "round_budget"
        assert extreme == expected
        engine = (ApproximateAggregateEngine if census else sampled_engine)(
            world.kg, world.embedding, config
        )
        for (query, seed), served in zip(_workload(world), results):
            _state, direct = drive_lifecycle(
                engine.executor, query, seed, config.error_bound
            )
            assert direct.stop_reason == served.stop_reason
            assert _zeroed(direct.rounds) == _zeroed(served.rounds)

    def test_the_cap_on_the_last_budgeted_round_reads_sample_cap(
        self, world, drive_lifecycle, sampled_engine, sampled_service
    ):
        """The reasons are tried in order — bound, cap, budget — so a run
        whose sample first reaches the cap on its last budgeted round
        stopped for the cap, not the budget; the cap changes no draw."""
        query, seed = world.avg_query(), 4
        config = PaperConfig(seed=7, max_rounds=3, error_bound=0.0001)
        executor = sampled_engine(world.kg, world.embedding, config).executor
        _state, uncapped = drive_lifecycle(executor, query, seed, config.error_bound)
        assert uncapped.stop_reason == "round_budget" and len(uncapped.rounds) == 3
        cap = uncapped.total_draws
        assert uncapped.rounds[-2].total_draws < cap
        shared_plan_cache().clear()
        with sampled_service(
            world.kg, world.embedding, config.with_(max_sample_size=cap)
        ) as service:
            capped = service.submit(query, seed=seed).result(timeout=60.0)
        assert capped.stop_reason == "sample_cap" and not capped.converged
        assert _zeroed(capped.rounds) == _zeroed(uncapped.rounds)

    def test_a_growth_the_cap_cuts_lands_on_the_cap(self, world, sampled_service):
        """No growth takes the draws past ``max_sample_size``: the top-up
        the cap cuts lands on it, the run stops on ``sample_cap`` in that
        round, and every round before it is the uncut run's."""

        def refined(**overrides):
            with _service(
                world, error_bound=0.05, make=sampled_service, **overrides
            ) as service:
                handle = service.submit(world.avg_query(), seed=5)
                assert handle.result(timeout=60.0).stop_reason == "bound_met"
                return handle.refine(0.0001).result(timeout=60.0)

        cap = 2000
        capped, uncut = refined(max_sample_size=cap), refined()
        assert capped.stop_reason == "sample_cap" and not capped.converged
        assert capped.rounds[-2].total_draws < capped.total_draws == cap
        cut = len(capped.rounds) - 1
        assert _zeroed(capped.rounds[:cut]) == _zeroed(uncut.rounds[:cut])
        assert uncut.rounds[cut].total_draws > cap

    def test_a_refine_first_round_draws_nothing(
        self, world, drive_lifecycle, sampled_engine, sampled_service
    ):
        """A sampled step grows before every round of a run but its first:
        after a finished run, the next run's first step appends a round
        over the same draws and its second grows — served or by hand."""
        config = PaperConfig(seed=7, max_rounds=8, error_bound=0.05)
        executor = sampled_engine(world.kg, world.embedding, config).executor
        state, _result = drive_lifecycle(executor, world.avg_query(), 5, 0.05)
        rounds, draws = len(state.rounds), state.total_draws
        first = executor.step(state, 0.0001, run_round=1)
        assert len(state.rounds) == rounds + 1
        assert state.total_draws == first.trace.total_draws == draws
        second = executor.step(state, 0.0001, run_round=2)
        assert second.trace.total_draws == state.total_draws > draws
        shared_plan_cache().clear()
        with sampled_service(world.kg, world.embedding, config) as service:
            handle = service.submit(world.avg_query(), seed=5)
            before = handle.result(timeout=60.0)
            after = handle.refine(0.0001).result(timeout=60.0)
        refined = after.rounds[len(before.rounds):]
        assert refined[0].total_draws == before.total_draws
        assert len(refined) == 1 or refined[1].total_draws > before.total_draws

    @pytest.mark.parametrize(
        "knob, value",
        [("workers", 2), ("start_method", "fork"), ("retry", None), ("backend", None)],
    )
    def test_process_pool_knobs_are_not_parameters(self, world, knob, value):
        """The scheduler thread steps every query itself: a worker count,
        start method, retry policy or execution backend is a caller error,
        not ignored."""
        with pytest.raises(TypeError, match=knob):
            AggregateQueryService(
                world.kg, world.embedding, EngineConfig(seed=7),
                **{knob: value},
            )

    @pytest.mark.parametrize("sampled", [True, False], ids=["sampled", "census"])
    def test_stage_buckets_are_the_in_process_stages(
        self, world, sampled_service, sampled
    ):
        """A served result's ``stage_ms`` names the executor's stages and
        the scheduler's overhead — no transport bucket — and together they
        fit inside the submit-to-settle wall time.  A census has no
        guarantee stage (no sampled round, no tail fit), so a census-first
        result carries no ``guarantee`` bucket."""
        make = sampled_service if sampled else AggregateQueryService
        shared_plan_cache().clear()
        with _service(world, make=make) as service:
            service.submit(world.count_query(), seed=3).result(timeout=30.0)
            started = time.perf_counter()
            result = service.submit(world.avg_query(), seed=4).result(
                timeout=30.0
            )
            wall = time.perf_counter() - started
        stages = {"sampling", "validation", "estimation", "scheduler"}
        if sampled:
            stages.add("guarantee")
        else:
            assert result.stop_reason == "census" and result.total_draws == 0
        assert set(result.stage_ms) == stages
        assert all(ms >= 0.0 for ms in result.stage_ms.values())
        assert sum(result.stage_ms.values()) / 1e3 <= wall * 1.25 + 0.1

    def test_star_and_flower_batch_matches_sequential(self, dbpedia_bundle):
        """Composite queries: S2's lazy conjunction hands a chain component
        only the answers its simple components kept.  Served as one batch,
        each equals its one-at-a-time ``engine.execute``."""
        from repro import QueryShape
        from repro.datasets import queries_of_shape, standard_workload

        workload = standard_workload(dbpedia_bundle)
        star, flower = (  # the workload states each composite COUNT first
            queries_of_shape(workload, shape)[0].aggregate_query
            for shape in (QueryShape.STAR, QueryShape.FLOWER)
        )
        queries = [(star, 3), (flower, 4)]
        shared_plan_cache().clear()
        with _service(dbpedia_bundle) as service:
            batched = [
                _fingerprint(handle.result(timeout=120.0))
                for handle in service.submit_batch(queries)
            ]
        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(
            dbpedia_bundle.kg, dbpedia_bundle.embedding, EngineConfig(seed=7)
        )
        sequential = [
            _fingerprint(engine.execute(query, seed=seed))
            for query, seed in queries
        ]
        assert all(fingerprint[0] > 0 for fingerprint in batched)
        assert batched == sequential

    def test_refine_is_deterministic_across_services(self, world):
        def refine_once() -> tuple:
            shared_plan_cache().clear()
            with _service(world) as service:
                handle = service.submit(world.avg_query(), seed=5,
                                        error_bound=0.05)
                first = handle.result(timeout=30.0)
                second = handle.refine(0.02).result(timeout=30.0)
            assert second.total_draws >= first.total_draws
            return _fingerprint(first), _fingerprint(second)

        assert refine_once() == refine_once()


class TestHandleSurface:
    """What a handle and ``health()`` say about a query before, during and
    after its run, and the push events a subscriber receives."""

    @pytest.mark.parametrize(
        "status, terminal",
        [
            (QueryStatus.PENDING, False),
            (QueryStatus.RUNNING, False),
            (QueryStatus.SUCCEEDED, True),
            (QueryStatus.FAILED, True),
            (QueryStatus.CANCELLED, True),
        ],
    )
    def test_terminal_statuses(self, status, terminal):
        assert status.terminal is terminal

    @pytest.mark.parametrize(
        "make_query, kind",
        [
            (lambda world: world.avg_query(), "rounds"),
            (lambda world: _grouped_query(), "grouped"),
            (lambda world: _extreme_query(), "extreme"),
        ],
        ids=["rounds", "grouped", "extreme"],
    )
    def test_handle_kind_labels_the_live_query(self, world, make_query, kind):
        query = make_query(world)
        service = _service(world, autostart=False)
        try:
            handle = service.submit(query)
            assert handle.kind == kind
            assert handle.query is query
            health = service.health()
            assert health["live_queries"] == 1
            assert health["live_by_kind"] == {
                label: int(label == kind) for label in health["live_by_kind"]
            }
        finally:
            service.close()
        assert service.health()["live_queries"] == 0

    def test_pending_handle_has_no_draws_and_no_progress(self, world, sampled_service):
        service = _service(world, autostart=False, make=sampled_service)
        try:
            handle = service.submit(world.count_query(), seed=3)
            assert handle.status is QueryStatus.PENDING
            assert handle.total_draws == 0
            assert handle.progress() == ()
            service.start()
            result = handle.result(timeout=30.0)
            assert handle.total_draws == result.total_draws > 0
        finally:
            service.close()

    def test_the_config_max_rounds_caps_the_run(self, world, sampled_service):
        with _service(world, max_rounds=2, make=sampled_service) as service:
            result = service.submit(
                world.avg_query(), seed=5, error_bound=1e-12
            ).result(timeout=30.0)
        assert len(result.rounds) == 2
        assert not result.converged
        assert result.stop_reason == "round_budget"

    def test_batch_seed_keyword_seeds_the_unpaired_entries(
        self, world, sampled_service
    ):
        aql = "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
        with _service(world, make=sampled_service) as service:
            batched = [
                _fingerprint(handle.result(timeout=30.0))
                for handle in service.submit_batch(
                    [world.avg_query(), aql, (world.avg_query(), 9)], seed=5
                )
            ]
            single = [
                _fingerprint(service.submit(query, seed=seed).result(timeout=30.0))
                for query, seed in ((world.avg_query(), 5), (aql, 5),
                                    (world.avg_query(), 9))
            ]
        assert batched == single
        assert batched[0] != batched[2]  # the pair's own seed won

    def test_confidence_override_shares_the_planner(self, world):
        """A per-query confidence plans through the service's planner (one
        build for both queries) and only its interval carries it; naming
        the config's own level is the default."""
        with _service(world) as service:
            narrow = service.submit(world.avg_query(), seed=5).result()
            wide = service.submit(
                world.avg_query(), seed=5, confidence=0.99
            ).result()
            named = service.submit(
                world.avg_query(), seed=5,
                confidence=service.config.confidence_level,
            ).result()
            assert service.planner.build_count == 1
        assert narrow.interval.confidence_level == pytest.approx(0.95)
        assert wide.interval.confidence_level == 0.99
        assert _fingerprint(named) == _fingerprint(narrow)

    @pytest.mark.parametrize("sampled", [True, False], ids=["sampled", "census"])
    def test_per_query_confidence_equals_the_config_level(
        self, world, sampled_service, sampled, monkeypatch
    ):
        """``submit(confidence=0.9)`` is byte-identical to a service whose
        config says 0.9, on a chain COUNT that samples and on one that ends
        in a census; the chain's similarity row is the plan's, so the 0.9
        query builds none the default query already did."""
        compiled: list[str] = []
        real = ChainValidator._build_row

        def counting(validator):
            compiled.append(validator.component.predicates[-1])
            return real(validator)

        monkeypatch.setattr(ChainValidator, "_build_row", counting)
        make = sampled_service if sampled else AggregateQueryService
        query = world.chain_count_query()
        with _service(world, make=make) as service:
            default = service.submit(query, seed=5).result(timeout=30.0)
            assert compiled == ["designer"]
            per_query = service.submit(query, seed=5, confidence=0.9).result(
                timeout=30.0
            )
            assert compiled == ["designer"]
        with _service(world, make=make, confidence_level=0.9) as configured:
            expected = configured.submit(query, seed=5).result(timeout=30.0)
        assert _fingerprint(per_query) == _fingerprint(expected)
        assert per_query.interval.confidence_level == 0.9
        assert (per_query.stop_reason == STOP_CENSUS) == (not sampled)
        if sampled:
            assert per_query.moe < default.moe

    @pytest.mark.parametrize("confidence", [1.5, 0.0])
    def test_out_of_range_confidence_raises_at_submit(self, world, confidence):
        with _service(world, autostart=False) as service:
            with pytest.raises(QueryError, match="confidence"):
                service.submit(world.avg_query(), confidence=confidence)
            assert service.health()["live_queries"] == 0
            # no record took the first sequence number
            assert service.submit(world.avg_query()).sequence == 0

    @pytest.mark.parametrize(
        "bound",
        [math.nan, math.inf, -math.inf, 0.0, -1.0, 1.0, 5.0, PAST_PRINT_LIMIT],
    )
    def test_invalid_error_bound_raises_at_submit(self, world, bound):
        """An ``error_bound`` outside (0, 1), the range ``EngineConfig``
        takes, leaves no record: NaN and the infinities used to fail the
        query at its first growth, 0 and -1 in the estimator, and a census
        answered 1.0 and 5.0.  An integer too long to print fails as
        plainly: its message names its size, not its digits."""
        with _service(world, autostart=False) as service:
            with pytest.raises(QueryError, match="error_bound"):
                service.submit(world.avg_query(), error_bound=bound)
            assert service.health()["live_queries"] == 0
            # no record took the first sequence number
            assert service.submit(world.avg_query()).sequence == 0

    def test_a_run_budget_is_no_submit_keyword(self, world):
        """A sampled run's round budget is its config's ``max_rounds``."""
        with _service(world, autostart=False) as service:
            with pytest.raises(TypeError):
                service.submit(world.avg_query(), max_rounds=2)
            assert service.health()["live_queries"] == 0

    @pytest.mark.parametrize(
        "deadline",
        [
            math.nan, -1.0, -math.inf,
            pytest.param(10**400, id="past-float-range"),
            PAST_PRINT_LIMIT,
        ],
    )
    def test_invalid_deadline_raises_at_submit(self, world, deadline):
        """A NaN deadline never expired, a negative one expired at once and
        one past the float range overflowed the clock: each leaves no
        record now, at submit and in a batch."""
        with _service(world, autostart=False) as service:
            with pytest.raises(QueryError, match="deadline"):
                service.submit(world.avg_query(), deadline=deadline)
            with pytest.raises(QueryError, match="deadline"):
                service.submit_batch([world.avg_query()], deadline=deadline)
            assert service.health()["live_queries"] == 0
            assert service.submit(world.avg_query()).sequence == 0

    @pytest.mark.parametrize("deadline", [math.nan, -1.0, PAST_PRINT_LIMIT])
    def test_invalid_default_deadline_raises_at_construction(self, world, deadline):
        with pytest.raises(QueryError, match="default_deadline"):
            AggregateQueryService(
                world.kg, world.embedding, default_deadline=deadline
            )

    @pytest.mark.parametrize(
        "bound",
        [math.nan, math.inf, -math.inf, 0.0, -1.0, 1.0, 5.0, PAST_PRINT_LIMIT],
    )
    def test_invalid_error_bound_raises_at_refine(self, world, bound):
        with _service(world) as service:
            handle = service.submit(world.avg_query(), seed=5)
            first = handle.result(timeout=30.0)
            with pytest.raises(QueryError, match="error_bound"):
                handle.refine(bound)
            # no run was queued: the query stays settled on its result
            assert handle.status is QueryStatus.SUCCEEDED
            assert handle.result(timeout=30.0) is first

    def test_close_is_idempotent_and_refuses_new_work(self, world):
        service = _service(world)
        handle = service.submit(world.avg_query(), seed=5, error_bound=0.05)
        handle.result(timeout=30.0)
        service.close()
        service.close()
        assert service.health()["closed"] is True
        with pytest.raises(ServiceError, match="closed"):
            handle.refine(0.02)

    def test_cancelled_query_cannot_be_refined(self, world):
        service = _service(world, autostart=False)
        try:
            handle = service.submit(world.avg_query(), seed=5)
            assert handle.cancel() is True
            with pytest.raises(ServiceError, match="cancelled"):
                handle.refine(0.02)
        finally:
            service.close()

    def test_one_round_event_per_round_then_one_settlement(
        self, world, sampled_service
    ):
        events: list = []
        service = _service(
            world, autostart=False, error_bound=0.01, make=sampled_service
        )
        try:
            handle = service.submit(world.avg_query(), seed=11)
            handle.subscribe(lambda event, payload: events.append((event, payload)))
            service.start()
            result = handle.result(timeout=30.0)
        finally:
            service.close()
        rounds = [payload for event, payload in events if event == "round"]
        assert len(rounds) >= 2
        assert [position for position, _trace in rounds] == list(
            range(len(result.rounds))
        )
        assert [trace for _position, trace in rounds] == list(result.rounds)
        assert [event for event, _payload in events].count("settled") == 1
        assert events[-1] == ("settled", QueryStatus.SUCCEEDED)

    def test_unsubscribe_stops_delivery_and_is_idempotent(self, world):
        kept: list = []
        dropped: list = []

        def drop(event, payload):
            dropped.append(event)

        service = _service(world, autostart=False)
        try:
            handle = service.submit(world.count_query(), seed=3)
            handle.subscribe(lambda event, payload: kept.append(event))
            handle.subscribe(drop)
            handle.unsubscribe(drop)
            handle.unsubscribe(drop)  # already gone: no error
            service.start()
            handle.result(timeout=30.0)
        finally:
            service.close()
        assert dropped == []
        assert kept[-1] == "settled" and "round" in kept

    def test_broken_listener_does_not_disturb_the_query(self, world):
        def broken(event, payload):
            raise RuntimeError("listener bug")

        shared_plan_cache().clear()
        with _service(world) as plain:
            expected = _fingerprint(
                plain.submit(world.avg_query(), seed=5).result(timeout=30.0)
            )
        shared_plan_cache().clear()
        service = _service(world, autostart=False)
        try:
            handle = service.submit(world.avg_query(), seed=5)
            handle.subscribe(broken)
            service.start()
            assert _fingerprint(handle.result(timeout=30.0)) == expected
            assert handle.status is QueryStatus.SUCCEEDED
        finally:
            service.close()

    def test_cancelling_thread_delivers_the_settlement(self, world):
        events: list = []
        service = _service(world, autostart=False)
        try:
            handle = service.submit(world.count_query(), seed=3)
            handle.subscribe(
                lambda event, payload: events.append(
                    (event, payload, threading.current_thread())
                )
            )
            handle.cancel()
        finally:
            service.close()
        assert events == [
            ("settled", QueryStatus.CANCELLED, threading.current_thread())
        ]


class _Settlement:
    """One query's settlement as the service reports it: its ``settled``
    events, the settled counter by status, its audit lines and its span,
    counted from the moment :meth:`watch` is called."""

    def __init__(self):
        self.audit = io.StringIO()
        self.statuses: list[QueryStatus] = []

    def service(self, world, make=AggregateQueryService, config=None, **kwargs):
        """A held service (``autostart=False``) auditing to this probe."""
        self.owner = make(
            world.kg, world.embedding, config or EngineConfig(seed=7),
            autostart=False, audit_log=self.audit, **kwargs,
        )
        return self.owner

    def counts(self) -> dict[str, float]:
        snapshot = self.owner.registry.snapshot()
        return {
            labels: value
            for labels, value in snapshot["repro_scheduler_queries_settled_total"].items()
            if labels != "type"
        }

    def watch(self, handle) -> None:
        self.handle = handle
        self.counted = self.counts()
        self.lines = len(self.audit.getvalue().splitlines())

        def listen(event, payload):
            if event == "settled":
                self.statuses.append(payload)

        handle.subscribe(listen)


def _succeed(world, sampled_service, probe):
    service = probe.service(world)
    probe.watch(service.submit(world.count_query(), seed=3))
    service.start()


def _fail_in_the_slot(world, sampled_service, probe):
    service = probe.service(world, fault_plan=FaultPlan([FaultSpec(site="slot")]))
    probe.watch(service.submit(world.count_query(), seed=3))
    service.start()


def _cancel_pending(world, sampled_service, probe):
    service = probe.service(world)
    probe.watch(service.submit(world.count_query(), seed=3))
    probe.handle.cancel()


def _cancel_between_rounds(world, sampled_service, probe):
    """Cancelled as its second round starts: it settles at the next pass."""
    cancel = FaultSpec(
        site="slot", action="hang", match={"round": 2},
        callback=lambda context: probe.handle.cancel(),
    )
    service = probe.service(
        world, sampled_service, PaperConfig(seed=7, max_rounds=50),
        fault_plan=FaultPlan([cancel]),
    )
    probe.watch(service.submit(world.avg_query(), seed=5, error_bound=1e-12))
    service.start()


def _expire(world, sampled_service, probe):
    service = probe.service(world)
    probe.watch(service.submit(world.count_query(), seed=3, deadline=0.0))
    service.start()


def _close(world, sampled_service, probe):
    service = probe.service(world)
    probe.watch(service.submit(world.count_query(), seed=3))
    service.close()


def _resettle_after_refine(world, sampled_service, probe):
    service = probe.service(world)
    handle = service.submit(world.avg_query(), seed=5)
    service.start()
    handle.result(timeout=60.0)
    probe.watch(handle)
    handle.refine(0.05)


class TestOneSettlementPath:
    """However a query ends, it settles once: one ``settled`` event, one
    count on ``repro_scheduler_queries_settled_total{status}``, an ended
    span and one audit line — and closing the service afterwards adds
    none."""

    @pytest.mark.parametrize(
        "drive, status",
        [
            (_succeed, QueryStatus.SUCCEEDED),
            (_fail_in_the_slot, QueryStatus.FAILED),
            (_cancel_pending, QueryStatus.CANCELLED),
            (_cancel_between_rounds, QueryStatus.CANCELLED),
            (_expire, QueryStatus.FAILED),
            (_close, QueryStatus.CANCELLED),
            (_resettle_after_refine, QueryStatus.SUCCEEDED),
        ],
        ids=[
            "success", "fault", "cancel-pending", "cancel-between-rounds",
            "deadline", "close", "refine",
        ],
    )
    def test_every_path_settles_once(self, world, sampled_service, drive, status):
        probe = _Settlement()
        drive(world, sampled_service, probe)
        try:
            with contextlib.suppress(ServiceError):
                probe.handle.result(timeout=60.0)
        finally:
            probe.owner.close()
        assert probe.handle.status is status
        assert probe.statuses == [status]
        counts = probe.counts()
        label = f'{{status="{status.value}"}}'
        assert {key: counts[key] - probe.counted.get(key, 0) for key in counts} == {
            key: int(key == label) for key in counts
        }
        span = probe.handle._record.span
        assert span.duration_s is not None
        assert span.attributes["status"] == status.value
        audit = probe.audit.getvalue().splitlines()[probe.lines:]
        assert [json.loads(line)["status"] for line in audit] == [status.value]


def _round_seconds_count(service) -> int:
    snapshot = service.registry.snapshot()
    return snapshot["repro_scheduler_round_seconds"]["{}"]["count"]


class TestOneSlotPerRecord:
    """A record's first slot initialises it, and each slot counts and
    pushes only a round its step appended."""

    def test_a_warm_query_settles_before_the_next_initialises(self, world):
        with _service(world) as warm:  # build both queries' plans
            warm.submit(world.count_query(), seed=3).result(timeout=30.0)
            warm.submit(world.avg_query(), seed=4).result(timeout=30.0)
        order: list = []
        service = _service(world, autostart=False)
        initialise = service._executor.initialise

        def recording(aggregate_query, seed, **kwargs):
            order.append(("initialise", seed))
            return initialise(aggregate_query, seed, **kwargs)

        service._executor.initialise = recording
        try:
            first = service.submit(world.count_query(), seed=3)
            second = service.submit(world.avg_query(), seed=4)
            first.subscribe(
                lambda event, payload: order.append((event, 3))
                if event == "settled"
                else None
            )
            service.start()
            first.result(timeout=30.0)
            second.result(timeout=30.0)
        finally:
            service.close()
        assert order.index(("settled", 3)) < order.index(("initialise", 4))

    def test_a_census_refine_emits_no_second_round(self, world):
        events: list = []
        with _service(world) as service:
            handle = service.submit(world.avg_query(), seed=3)
            first = handle.result(timeout=30.0)
            handle.subscribe(lambda event, payload: events.append(event))
            refined = handle.refine(0.5).result(timeout=30.0)
            counted = _round_seconds_count(service)
        assert refined.rounds == first.rounds and len(first.rounds) == 1
        assert counted == 1
        assert events == ["settled"]

    def test_a_sampled_refine_ticks_once_per_new_round(
        self, world, sampled_service
    ):
        positions: list = []
        with _service(world, error_bound=0.05, make=sampled_service) as service:
            handle = service.submit(world.avg_query(), seed=3)
            first = handle.result(timeout=30.0)
            handle.subscribe(
                lambda event, payload: positions.append(payload[0])
                if event == "round"
                else None
            )
            refined = handle.refine(0.02).result(timeout=30.0)
            counted = _round_seconds_count(service)
        assert len(refined.rounds) > len(first.rounds)
        assert positions == list(range(len(first.rounds), len(refined.rounds)))
        assert counted == len(refined.rounds)


class _BlockingExecutor:
    """Wraps an executor so ``initialise`` blocks until released."""

    def __init__(self, inner):
        self._inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def initialise(self, aggregate_query, seed, **kwargs):
        self.entered.set()
        assert self.release.wait(timeout=10.0)
        return self._inner.initialise(aggregate_query, seed, **kwargs)


class TestShutdownOrdering:
    """``close()`` during in-flight queries settles or cancels every live
    handle; a cancellation landing during S1 initialisation must not
    resurrect the record and leave its handle unresolvable."""

    def test_cancel_during_initialise_stays_cancelled(self, world):
        """Regression: a cancel landing mid-S1 must not resurrect the record."""
        service = _service(world, autostart=False)
        blocking = _BlockingExecutor(service._executor)
        service._executor = blocking
        handle = service.submit(world.count_query())
        service.start()
        assert blocking.entered.wait(timeout=10.0)
        assert handle.cancel() is True
        blocking.release.set()
        with pytest.raises(QueryCancelledError):
            handle.result(timeout=10.0)
        # give the scheduler a chance to (wrongly) flip the status back
        deadline = time.time() + 1.0
        while time.time() < deadline:
            assert handle.status is QueryStatus.CANCELLED
            time.sleep(0.02)
        service.close()

    def test_close_during_initialise_settles_every_handle(self, world):
        service = _service(world, autostart=False)
        blocking = _BlockingExecutor(service._executor)
        service._executor = blocking
        handles = [
            service.submit(world.count_query(), seed=3),
            service.submit(world.avg_query(), seed=4),
        ]
        service.start()
        assert blocking.entered.wait(timeout=10.0)

        closer = threading.Thread(target=service.close)
        closer.start()
        time.sleep(0.05)
        blocking.release.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        for handle in handles:
            assert handle.status.terminal, f"handle stuck {handle.status}"
            with pytest.raises(QueryCancelledError):
                handle.result(timeout=1.0)

    def test_close_during_initialise_names_the_slot_phase(self, world):
        """Initialisation runs inside the slot: a pass stuck in it reads
        ``execute cohort``, never a phase of its own."""
        service = _service(world, autostart=False)
        blocking = _BlockingExecutor(service._executor)
        service._executor = blocking
        service._join_timeout = 0.2
        handle = service.submit(world.count_query(), seed=3)
        service.start()
        try:
            assert blocking.entered.wait(timeout=10.0)
            phases = {service.health()["scheduler_phase"] for _ in range(20)}
            with pytest.raises(ServiceError, match="execute cohort"):
                service.close()
        finally:
            blocking.release.set()
        service.close()  # the slot drained: close now succeeds
        assert phases == {"execute cohort"}
        assert handle.status is QueryStatus.CANCELLED

    def test_close_mid_batch_settles_every_handle(self, world):
        shared_plan_cache().clear()
        service = _service(world, error_bound=0.001)
        handles = service.submit_batch(_workload(world))
        time.sleep(0.05)  # let some rounds start
        service.close()
        for handle in handles:
            assert handle.status.terminal, f"handle stuck {handle.status}"
            try:
                handle.result(timeout=1.0)
            except QueryCancelledError:
                pass  # cancelled mid-flight: settled is what matters


def _race(drive, count: int = 2) -> dict:
    """Run ``drive(position, barrier)`` on ``count`` threads at once.

    Each thread waits on the shared barrier before its real work, and the
    switch interval is cut so the threads interleave finely.  Returns what
    each ``drive`` returned, by position; a failure in any thread fails
    the test."""
    import sys

    barrier = threading.Barrier(count)
    returned: dict = {}
    failures: list = []

    def run(position: int) -> None:
        try:
            returned[position] = drive(position, barrier)
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    threads = [threading.Thread(target=run, args=(p,)) for p in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    return returned


class TestConcurrentServices:
    """Services over one graph share the plan cache's plans and
    validators, and each steps them from its own scheduler thread; one
    service takes submissions from any thread."""

    def test_two_services_answer_every_kind_like_one(self, world):
        baseline = _served(world)

        def drive(position, barrier):
            with _service(world) as service:
                barrier.wait(timeout=30)
                handles = service.submit_batch(_workload(world))
                return [_fingerprint(h.result(timeout=60)) for h in handles]

        shared_plan_cache().clear()
        assert _race(drive) == {0: baseline, 1: baseline}

    def test_two_threads_submitting_to_one_service(self, world):
        baseline = _served(world)
        shared_plan_cache().clear()
        with _service(world) as service:

            def drive(position, barrier):
                barrier.wait(timeout=30)
                handles = service.submit_batch(_workload(world))
                return [_fingerprint(h.result(timeout=60)) for h in handles]

            assert _race(drive) == {0: baseline, 1: baseline}

    def test_concurrent_handles_refine_like_one(self, world):
        """Two handles on engines over one graph share the AVG plan;
        refined at once, each takes the steps a lone one does."""
        config = EngineConfig(seed=11, error_bound=0.05)

        def refine_steps(barrier=None) -> list[tuple]:
            engine = ApproximateAggregateEngine(world.kg, world.embedding, config)
            with engine.service as service:
                if barrier is not None:
                    barrier.wait(timeout=30)
                handle = service.submit(world.avg_query(), seed=3)
                result = handle.result()
                steps = [
                    (_fingerprint(result), result.total_draws - result.rounds[0].total_draws)
                ]
                for error_bound in (0.03, 0.01):
                    draws_before = handle.total_draws
                    result = handle.refine(error_bound).result()
                    steps.append(
                        (_fingerprint(result), handle.total_draws - draws_before)
                    )
                return steps

        shared_plan_cache().clear()
        lone = refine_steps()
        shared_plan_cache().clear()
        raced = _race(lambda position, barrier: refine_steps(barrier))
        assert raced == {0: lone, 1: lone}
