"""The serving layer (S4): handles, scheduler, cancellation, batching.

Covers the architectural contracts of :class:`AggregateQueryService`:

* handles resolve to results byte-identical to blocking ``engine.execute``
  for the same seeds, and the engine itself routes through the service
  (``scheduler`` stage bucket present);
* progressive results: the anytime trace grows round by round, draws never
  shrink, and for a fixed seed the CI width is non-increasing;
* cancellation and ``result(timeout=...)`` expiry semantics;
* N concurrent queries over one component build its plan exactly once —
  both through the service scheduler and through raw planner threads
  hammering one :class:`PlanCache`.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, replace

import pytest

from repro import (
    AggregateFunction,
    AggregateQuery,
    AggregateQueryService,
    ApproximateAggregateEngine,
    EngineConfig,
    GroupBy,
    QueryGraph,
    QueryStatus,
)
from repro.core.config import ExtremeMethod
from repro.core.plan import PlanCache, shared_plan_cache
from repro.core.planner import QueryPlanner
from repro.errors import (
    QueryCancelledError,
    ResultTimeoutError,
    ServiceError,
)


@pytest.fixture
def world(toy_world_factory):
    """A fresh toy world per test: isolates the process-wide plan cache."""
    return toy_world_factory()


def _service(world, *, autostart=True, **overrides) -> AggregateQueryService:
    config = EngineConfig(**{"seed": 7, "max_rounds": 8, **overrides})
    return AggregateQueryService(
        world.kg, world.embedding, config, autostart=autostart
    )


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
            world.kg, world.embedding, EngineConfig(seed=7, max_rounds=8)
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
            world.kg, world.embedding, EngineConfig(seed=7, max_rounds=8)
        )
        sequential = [engine.execute(query, seed=seed) for query, seed in queries]
        for served, direct in zip(batched, sequential):
            assert served.value == direct.value
            assert served.total_draws == direct.total_draws

    def test_cold_batch_of_star_queries_matches_sequential(self, dbpedia_bundle):
        """Two star queries share every plan, the chain plan included: the
        scheduler pre-warms it eagerly with both queries' pending answers,
        each query's own S2 pass then runs the lazy conjunction — values,
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
            dbpedia_bundle.kg, dbpedia_bundle.embedding,
            EngineConfig(seed=7, max_rounds=8),
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
            world.kg, world.embedding, EngineConfig(seed=7, max_rounds=8)
        )
        result = engine.execute(world.count_query())
        assert "scheduler" in result.stage_ms
        assert result.stage_ms["scheduler"] >= 0.0

    def test_per_query_error_bound_and_confidence(self, world):
        with _service(world, error_bound=0.01) as service:
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
    def test_progress_trace_is_monotone_for_fixed_seed(self, world):
        with _service(world, error_bound=0.01) as service:
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

    def test_refine_reuses_draws(self, world):
        with _service(world, error_bound=0.05) as service:
            handle = service.submit(world.avg_query(), seed=3)
            first = handle.result()
            second = handle.refine(0.02).result()
            assert second.total_draws >= first.total_draws
            assert second.moe <= first.moe or second.converged
            # the anytime trace spans both runs
            assert len(handle.progress()) >= len(first.rounds)

    def test_result_on_idle_deferred_handle_raises(self, world):
        with _service(world) as service:
            handle = service.submit(world.avg_query(), seed=5, start=False)
            with pytest.raises(ServiceError):
                handle.result(timeout=5.0)
            # queueing a run via refine() makes result() meaningful
            assert handle.refine(0.05).result().total_draws > 0

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

    def test_refine_rejected_for_extreme_queries(self, world):
        with _service(world) as service:
            handle = service.submit(_extreme_query())
            handle.result()
            with pytest.raises(ServiceError):
                handle.refine(0.01)


class TestGroupedAndExtremeSlots:
    """GROUP-BY and MAX/MIN are first-class scheduler citizens: they run
    one round per slot, expose a growing anytime trace, cancel promptly
    mid-run, and interleave with plain aggregates."""

    def test_grouped_progress_trace_grows(self, world):
        with _service(world, error_bound=0.001, min_group_draws=1) as service:
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

    def test_extreme_progress_trace_has_no_nan_moe(self, world):
        with _service(world) as service:
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

    def test_rounds_trace_without_ci_uses_no_guarantee_sentinel(self, world):
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
        with _service(world, max_rounds=3) as service:
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

    def test_grouped_trace_with_no_groups_stays_json_safe(self, world):
        """A round that observes no groups (here: a GROUP-BY attribute no
        answer carries) has no CI — its trace must use the no-guarantee
        sentinel, not inf, which breaks rendering and strict JSON."""
        with _service(world, max_rounds=3) as service:
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

    def test_cancel_running_grouped_settles_within_one_round(self, world):
        """Regression: cancel() on a RUNNING grouped query used to block
        until the whole multi-round atomic slot finished; per-round
        cancellation checks must settle it promptly instead."""
        service = _service(
            world, error_bound=1e-9, max_rounds=64, min_group_draws=1
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
        "make_query, overrides",
        [
            (lambda world: world.avg_query(), {}),
            (lambda world: _grouped_query(), {"min_group_draws": 1}),
            (lambda world: _extreme_query(), {}),
            (lambda world: _extreme_query(), {"extreme_method": ExtremeMethod.EVT}),
        ],
        ids=["guaranteed", "grouped", "extreme", "extreme-evt"],
    )
    def test_hand_driven_lifecycle_equals_the_served_result(
        self, world, drive_lifecycle, make_query, overrides
    ):
        """``initialise`` -> (``grow`` ->) ``step`` -> ``finalise`` under
        ``round_budget`` — the slot's loop with no service around it —
        equals ``engine.execute`` at the same seed bit for bit."""
        config = EngineConfig(seed=7, max_rounds=8, error_bound=0.001, **overrides)
        engine = ApproximateAggregateEngine(world.kg, world.embedding, config)
        query = make_query(world)
        served = engine.execute(query, seed=5)
        _state, direct = drive_lifecycle(
            engine.executor, query, 5, config.error_bound
        )

        def trace(result):
            return [replace(entry, seconds=0.0) for entry in result.rounds]

        assert len(served.rounds) >= 2  # grow ran, not only the first step
        assert trace(direct) == trace(served)
        assert direct.converged == served.converged
        assert direct.total_draws == served.total_draws
        if query.group_by is None:
            assert (direct.value, direct.moe) == (served.value, served.moe)
            assert direct.correct_draws == served.correct_draws
            if config.extreme_method is ExtremeMethod.EVT:
                assert served.moe > 0.0  # the tail fit ran: no sentinel
        else:
            assert served.groups and {
                key: (group.value, group.moe, group.correct_draws)
                for key, group in direct.groups.items()
            } == {
                key: (group.value, group.moe, group.correct_draws)
                for key, group in served.groups.items()
            }

    def test_mixed_batch_interleaves_kinds_in_one_pass(self, world):
        """The scheduler steps grouped/extreme records in the same cohort
        as plain aggregates (fewest-completed-rounds-first), instead of
        letting one atomic slot monopolise the scheduler thread."""
        from repro.core.service import ExecutionBackend

        class RecordingBackend(ExecutionBackend):
            def __init__(self):
                self.cohort_kinds: list[tuple[str, ...]] = []

            def run_cohort(self, service, cohort):
                self.cohort_kinds.append(tuple(r.kind for r in cohort))
                super().run_cohort(service, cohort)

        backend = RecordingBackend()
        config = EngineConfig(
            seed=7, max_rounds=8, error_bound=0.001, min_group_draws=1
        )
        with AggregateQueryService(
            world.kg, world.embedding, config, backend=backend
        ) as service:
            handles = service.submit_batch(
                [
                    (world.count_query(), 3),
                    (_grouped_query(), 4),
                    (_extreme_query(), 5),
                ]
            )
            for handle in handles:
                handle.result()
        mixed_passes = [
            kinds for kinds in backend.cohort_kinds if len(set(kinds)) >= 2
        ]
        assert mixed_passes, (
            f"no scheduler pass stepped several kinds: {backend.cohort_kinds}"
        )
        assert any(
            {"rounds", "grouped"} <= set(kinds) for kinds in mixed_passes
        )
        # the discriminating witness: a multi-round grouped/extreme query
        # spans SEVERAL scheduler passes (one round per slot); an atomic
        # slot would confine each to exactly one pass
        grouped_passes = sum(
            1 for kinds in backend.cohort_kinds if "grouped" in kinds
        )
        extreme_passes = sum(
            1 for kinds in backend.cohort_kinds if "extreme" in kinds
        )
        assert grouped_passes >= 2, backend.cohort_kinds
        assert extreme_passes >= 2, backend.cohort_kinds


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

    def test_result_timeout_expires(self, world):
        service = _service(world, autostart=False)
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

    def test_warm_queries_build_no_node_views(self, world, monkeypatch):
        """Guaranteed, grouped and extreme rounds, single submits and a
        batch: once the plans exist, no per-answer ``Node`` is built."""
        from repro.kg import KnowledgeGraph

        with _service(world) as service:
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
                assert service.submit(query, seed=seed + 10).result().total_draws
            batch = [(query, seed + 20) for query, seed in self._queries(world)]
            for handle in service.submit_batch(batch):
                assert handle.result().total_draws
        assert built == []

    def test_set_attribute_between_queries_is_seen_by_the_next_one(
        self, toy_world_factory
    ):
        """One live service, a write stream between two queries: the second
        equals a fresh service's answer over an equally mutated graph."""

        def mutate(world) -> None:
            cars = world.correct_cars
            for step, car in enumerate(cars[:20]):
                world.kg.set_attribute(car, "price", 10_000.0 + 7.0 * step)
            world.kg.set_attribute(cars[20], "price", float("nan"))
            world.kg.set_attribute(cars[21], "weight", 1.0)  # a new attribute

        live = toy_world_factory()
        with _service(live) as service:
            before = [
                _values(service.submit(query, seed=seed).result())
                for query, seed in self._queries(live)
            ]
            mutate(live)
            after = [
                _values(service.submit(query, seed=seed).result())
                for query, seed in self._queries(live)
            ]
        fresh = toy_world_factory()
        mutate(fresh)
        shared_plan_cache().clear()
        with _service(fresh) as service:
            expected = [
                _values(service.submit(query, seed=seed).result())
                for query, seed in self._queries(fresh)
            ]
        assert after == expected
        assert all(old != new for old, new in zip(before, after))


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
