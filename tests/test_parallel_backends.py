"""Execution backends: fixed-seed equivalence, teardown, shutdown ordering.

The serving layer's parallel backends may change *where* a round runs but
never *what* it computes:

* ``cooperative == processes`` for fixed seeds, byte-for-byte
  on every value-like result field (the acceptance gate of the parallel
  redesign) — for all three query kinds: guaranteed aggregates, GROUP-BY
  and MAX/MIN, whose rounds now execute in worker processes too (no
  in-process fallback on a clean graph);
* worker pools and shared segments are torn down by ``close()`` with no
  leaked shared-memory blocks;
* ``close()`` during in-flight queries settles or cancels every live
  handle — the regression here pins the bug where a cancellation landing
  during S1 initialisation resurrected the record to ``READY`` and left
  its handle unresolvable forever;
* a graph mutated under a process pool falls back to in-process rounds
  (stale workers must never serve old attribute values);
* services, submitting threads and interactive sessions that run at once
  over shared plans answer like one of them alone.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    AggregateFunction,
    AggregateQuery,
    AggregateQueryService,
    EngineConfig,
    QueryGraph,
    QueryStatus,
)
from repro.core.plan import shared_plan_cache
from repro.core.service import ExecutionBackend
from repro.errors import QueryCancelledError, ServiceError


@pytest.fixture
def world(toy_world_factory):
    return toy_world_factory()


def _nan_safe(value: float):
    """NaN compares unequal to itself; canonicalise for tuple equality."""
    import math

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
    """All three kinds: shared-plan aggregates, an extreme, a GROUP-BY."""
    from repro import GroupBy

    extreme = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.MAX,
        attribute="price",
    )
    grouped = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.COUNT,
        group_by=GroupBy("price", bin_width=1000.0),
    )
    return [
        (world.count_query(), 3),
        (world.avg_query(), 4),
        (world.sum_query(), 5),
        (grouped, 6),
        (extreme, 7),
    ]


def _composite_workload(bundle) -> list[tuple[AggregateQuery, int]]:
    """The preset's star and flower COUNT queries: simple + chain components."""
    from repro import QueryShape
    from repro.datasets import queries_of_shape, standard_workload

    workload = standard_workload(bundle)
    star, flower = (  # the workload states each composite as COUNT first
        queries_of_shape(workload, shape)[0].aggregate_query
        for shape in (QueryShape.STAR, QueryShape.FLOWER)
    )
    return [(star, 3), (flower, 4)]


def _workers(backend: str) -> int | None:
    """Two worker processes; ``workers`` is the processes backend's alone."""
    return 2 if backend == "processes" else None


def _run_backend(world, backend: str, workload=None) -> list[tuple]:
    shared_plan_cache().clear()
    config = EngineConfig(seed=7, max_rounds=8)
    with AggregateQueryService(
        world.kg, world.embedding, config, backend=backend,
        workers=_workers(backend),
    ) as service:
        handles = service.submit_batch(workload or _workload(world))
        return [_fingerprint(handle.result()) for handle in handles]


class TestBackendEquivalence:
    def test_all_backends_byte_identical(self, world):
        baseline = _run_backend(world, "cooperative")
        assert _run_backend(world, "processes") == baseline, (
            "processes backend diverged from the cooperative scheduler"
        )

    def test_multi_component_queries_byte_identical(self, dbpedia_bundle):
        """S2's lazy conjunction hands a chain component only the answers
        the simple ones kept, so a worker's memo deltas cover a subset of
        the batch — merged back, every backend still agrees."""
        workload = _composite_workload(dbpedia_bundle)
        baseline = _run_backend(dbpedia_bundle, "cooperative", workload)
        assert all(fingerprint[0] > 0 for fingerprint in baseline)
        assert _run_backend(dbpedia_bundle, "processes", workload) == baseline, (
            "processes backend diverged on a star/flower query"
        )

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            (dict(max_rounds=30, error_bound=0.05), "bound_met"),
            (dict(max_sample_size=120, error_bound=0.0001), "sample_cap"),
            (dict(max_rounds=1, error_bound=0.0001), "round_budget"),
        ],
    )
    def test_stop_reason_on_every_kind_and_backend(self, world, overrides, expected):
        """Why the run stopped is decided once, in ``finalise``, from what
        the scheduler told it: the same on every backend, carried by the
        wire payload and the audit line.  MAX/MIN never meet a bound, so
        the extreme query's reason is never ``bound_met``; the toy
        GROUP-BY meets one only once its groups hold ``min_group_draws``
        correct draws (a thin first round used to read ``bound_met``
        whatever the bound)."""
        import io
        import json

        from repro.core.result import GroupedResult
        from repro.server.app import encode_result

        reasons = {}
        for backend in ("cooperative", "processes"):
            shared_plan_cache().clear()
            sink = io.StringIO()
            with AggregateQueryService(
                world.kg, world.embedding, EngineConfig(seed=7, **overrides),
                backend=backend, workers=_workers(backend), audit_log=sink,
            ) as service:
                handles = service.submit_batch(_workload(world))
                results = [handle.result(timeout=60.0) for handle in handles]
            reasons[backend] = [result.stop_reason for result in results]
            audited = {
                line["sequence"]: line["stop_reason"]
                for line in map(json.loads, sink.getvalue().splitlines())
            }
            assert [audited[h.sequence] for h in handles] == reasons[backend]
            for result in results:
                payload = encode_result(result, timings=False)
                assert payload["stop_reason"] == result.stop_reason
                assert (result.stop_reason == "bound_met") == result.converged
                if isinstance(result, GroupedResult):
                    # a per-group estimate is not a run of its own
                    assert {g.stop_reason for g in result.groups.values()} == {None}
        count, avg, total, grouped, extreme = reasons["cooperative"]
        assert count == avg == total == grouped == expected
        assert extreme == ("sample_cap" if expected == "sample_cap" else "round_budget")
        assert reasons["processes"] == reasons["cooperative"]

    def test_process_rounds_merge_lazy_memos(self, dbpedia_bundle):
        """Worker-side memos come back through ``apply_round_result``: the
        parent's chain plan knows fewer answers than its simple plans."""
        (star, seed), _flower = _composite_workload(dbpedia_bundle)
        shared_plan_cache().clear()
        with AggregateQueryService(
            dbpedia_bundle.kg, dbpedia_bundle.embedding,
            EngineConfig(seed=7, max_rounds=8), backend="processes", workers=2,
        ) as service:
            service.submit(star, seed=seed).result()
            plans = [
                service.planner.plan_for(component)
                for component in star.query.components
            ]
        simple = [len(p.similarity_cache) for p in plans if p.chain is None]
        chained = [len(p.similarity_cache) for p in plans if p.chain is not None]
        assert simple and chained
        assert 0 < max(chained) < simple[0]

    def test_grouped_round_trip_ships_no_group_keys(self, world):
        """``export_round_item`` -> ``execute_round_item`` ->
        ``apply_round_result`` on a GROUP-BY state equals the in-process
        ``step``, though no group key travels either way: the replica
        keys its drawn support itself and the parent never keys any."""
        import pickle
        from dataclasses import replace

        import numpy as np

        from repro import ApproximateAggregateEngine
        from repro.core.executor import (
            apply_round_result,
            execute_round_item,
            export_round_item,
        )

        grouped, seed = _workload(world)[3]
        config = EngineConfig(seed=7, max_rounds=8, min_group_draws=1)
        executor = ApproximateAggregateEngine(
            world.kg, world.embedding, config
        ).executor
        shipped = executor.initialise(grouped, seed)
        stepped = executor.initialise(grouped, seed)
        for round_index in range(2):
            if round_index:
                for state in (shipped, stepped):
                    executor.grow(state, state.rounds[-1], 0.001)
            item = pickle.loads(
                pickle.dumps(export_round_item(shipped, 0.001, 0.0, config))
            )
            result = execute_round_item(
                item, shipped.components, shipped.joint, executor
            )
            remote = apply_round_result(shipped, pickle.loads(pickle.dumps(result)))
            local = executor.step(stepped, 0.001)
            assert replace(remote, trace=replace(remote.trace, seconds=0.0)) == (
                replace(local, trace=replace(local.trace, seconds=0.0))
            )
            assert shipped.grouped_results == stepped.grouped_results
            assert len(stepped.grouped_results) > 1
            for name in ("support_known", "support_correct", "support_value"):
                assert np.array_equal(getattr(shipped, name), getattr(stepped, name))
        assert shipped.support_group is None and stepped.support_group is not None

    def test_refine_through_process_backend(self, world):
        def refine_with(backend: str):
            shared_plan_cache().clear()
            config = EngineConfig(seed=7, max_rounds=8)
            with AggregateQueryService(
                world.kg, world.embedding, config, backend=backend,
                workers=_workers(backend),
            ) as service:
                handle = service.submit(world.avg_query(), seed=5,
                                        error_bound=0.05)
                first = handle.result()
                second = handle.refine(0.02).result()
                return _fingerprint(first), _fingerprint(second)

        assert refine_with("processes") == refine_with("cooperative")

    def test_unknown_backend_rejected(self, world):
        with pytest.raises(ServiceError, match="unknown execution backend"):
            AggregateQueryService(
                world.kg, world.embedding, EngineConfig(seed=7),
                backend="quantum",
            )

    def test_process_backend_needs_workers(self, world):
        with pytest.raises(ServiceError, match="at least one worker"):
            AggregateQueryService(
                world.kg, world.embedding, EngineConfig(seed=7),
                backend="processes", workers=0,
            )

    def test_cooperative_backend_rejects_workers(self, world):
        """``workers`` sizes the processes pool only; anywhere else it is
        an error, not a silent no-op."""
        with pytest.raises(ServiceError, match="only the processes backend"):
            AggregateQueryService(
                world.kg, world.embedding, EngineConfig(seed=7),
                backend="cooperative", workers=2,
            )

    def test_ready_made_backend_rejects_workers(self, world):
        """A ready-made backend is already sized, so ``workers`` beside it
        would be dropped: that raises too."""
        with pytest.raises(ServiceError, match="only the processes backend"):
            AggregateQueryService(
                world.kg, world.embedding, EngineConfig(seed=7),
                backend=ExecutionBackend(), workers=2,
            )

    def test_ready_made_backend_runs_the_slots(self, world):
        backend = ExecutionBackend()
        shared_plan_cache().clear()
        with AggregateQueryService(
            world.kg, world.embedding, EngineConfig(seed=7, max_rounds=8),
            backend=backend,
        ) as service:
            assert service.backend is backend
            handles = service.submit_batch(_workload(world))
            results = [_fingerprint(handle.result()) for handle in handles]
        assert results == _run_backend(world, "cooperative")

    def test_process_pool_size_defaults_to_worker_count(self, world, monkeypatch):
        """``workers=None`` on the processes backend takes
        ``default_worker_count()`` (the CLI's "default: CPU count")."""
        import repro.store.workers as workers_module

        monkeypatch.setattr(workers_module, "default_worker_count", lambda: 1)
        with AggregateQueryService(
            world.kg, world.embedding, EngineConfig(seed=7), backend="processes",
        ) as service:
            assert service.health()["workers"] == 1


class TestWorkerPoolLifecycle:
    def test_close_tears_down_pool_and_segments(self, world):
        config = EngineConfig(seed=7, max_rounds=8)
        service = AggregateQueryService(
            world.kg, world.embedding, config, backend="processes", workers=2
        )
        backend = service.backend
        handles = service.submit_batch(_workload(world)[:2])
        for handle in handles:
            handle.result()
        service.close()
        # the pool refuses new work — a serving-lifecycle failure, so a
        # ServiceError (StoreError is reserved for store-format problems)
        # — and every shared segment is unlinked
        with pytest.raises(ServiceError):
            backend.pool.ticket_for(object())
        assert backend.pool._store.keys == ()
        service.close()  # idempotent

    def test_clean_graph_runs_every_kind_in_workers(self, world):
        """No in-process fallback fires for an unmutated graph: grouped
        and extreme rounds are exported to the pool like plain rounds."""
        shared_plan_cache().clear()
        config = EngineConfig(seed=7, max_rounds=8)
        with AggregateQueryService(
            world.kg, world.embedding, config, backend="processes", workers=2
        ) as service:
            handles = service.submit_batch(_workload(world))
            for handle in handles:
                handle.result()
            assert service.backend.local_fallbacks == 0

    def test_stale_graph_falls_back_to_local_rounds(self, world):
        shared_plan_cache().clear()
        config = EngineConfig(seed=7, max_rounds=8)
        with AggregateQueryService(
            world.kg, world.embedding, config, backend="processes", workers=2
        ) as service:
            # attribute writes after pool creation: workers hold a stale copy
            for car in world.correct_cars[:10]:
                world.kg.set_attribute(car, "price", 5_000.0)
            assert not service.backend.pool.fresh()
            handles = service.submit_batch(_workload(world))
            stale_safe = [_fingerprint(handle.result()) for handle in handles]
            assert service.backend.local_fallbacks > 0
        # the in-process rounds read the written prices, not the pool's copy
        assert stale_safe == _run_backend(world, "cooperative")

    def test_finished_queries_release_their_joint_segments(self, world):
        """Long-lived services stay bounded: settled runs unpin their state.

        Single-component queries alias their plan's segment (no per-query
        publish at all); the cycle query's intersected joint is a genuine
        per-query segment and must be released once the run settles.
        """
        from repro.query.graph import PathQuery

        cycle = AggregateQuery(
            query=QueryGraph(
                components=(
                    PathQuery(
                        "Germany",
                        frozenset(["Country"]),
                        (("product", frozenset(["Automobile"])),),
                    ),
                    PathQuery(
                        "Person_0",
                        frozenset(["Person"]),
                        (("designer", frozenset(["Automobile"])),),
                    ),
                )
            ),
            function=AggregateFunction.COUNT,
        )
        shared_plan_cache().clear()
        config = EngineConfig(seed=7, max_rounds=8)
        with AggregateQueryService(
            world.kg, world.embedding, config, backend="processes", workers=2
        ) as service:
            handles = service.submit_batch(
                [(world.count_query(), 3), (cycle, 4)]
            )
            for handle in handles:
                handle.result()
            pool = service.backend.pool
            deadline = time.time() + 5.0
            while pool._joints and time.time() < deadline:
                time.sleep(0.02)  # the releasing scheduler pass may lag result()
            assert not pool._joints, "joint segments not released after runs"

    def test_process_backend_share_count(self, world):
        """All queries over one component still build its plan exactly once."""
        shared_plan_cache().clear()
        config = EngineConfig(seed=7, max_rounds=8)
        with AggregateQueryService(
            world.kg, world.embedding, config, backend="processes", workers=2
        ) as service:
            handles = service.submit_batch(
                [(world.count_query(), 3), (world.avg_query(), 4),
                 (world.sum_query(), 5)]
            )
            for handle in handles:
                handle.result()
            assert service.planner.build_count == 1


class TestStageAttribution:
    """The ``stage_ms`` buckets must account for the whole round loop.

    On the processes backend, export/pickle/queue/apply time used to
    vanish: worker-side ``stage_seconds`` only cover the kernels, so the
    gap between wall-clock and the bucket sum grew with every exported
    round.  That residue now lands in an explicit ``ipc`` bucket, and
    the buckets must sum to (roughly) the submit-to-settle wall time.
    """

    def test_processes_rounds_carry_ipc_bucket(self, world):
        shared_plan_cache().clear()
        config = EngineConfig(seed=7, max_rounds=8)
        with AggregateQueryService(
            world.kg, world.embedding, config, backend="processes", workers=2
        ) as service:
            # warm: plan build + worker prewarm happen on the first query
            service.submit(world.count_query(), seed=3).result(timeout=30.0)
            started = time.perf_counter()
            handle = service.submit(world.avg_query(), seed=4)
            result = handle.result(timeout=30.0)
            wall = time.perf_counter() - started
        assert "ipc" in result.stage_ms, sorted(result.stage_ms)
        assert result.stage_ms["ipc"] >= 0.0
        total = sum(result.stage_ms.values()) / 1e3
        # generous band: scheduler hand-offs sit outside every bucket, and
        # the clamp in the ipc attribution can only shrink the sum
        assert total <= wall * 1.25 + 0.1, (total, wall, result.stage_ms)
        assert total >= wall * 0.6 - 0.05, (total, wall, result.stage_ms)

    def test_cooperative_rounds_have_no_ipc_bucket(self, world):
        shared_plan_cache().clear()
        config = EngineConfig(seed=7, max_rounds=8)
        with AggregateQueryService(
            world.kg, world.embedding, config
        ) as service:
            result = service.submit(world.count_query(), seed=3).result(
                timeout=30.0
            )
        assert "ipc" not in result.stage_ms


class _BlockingExecutor:
    """Wraps an executor so ``initialise`` blocks until released."""

    def __init__(self, inner):
        self._inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def initialise(self, aggregate_query, seed):
        self.entered.set()
        assert self.release.wait(timeout=10.0)
        return self._inner.initialise(aggregate_query, seed)


class TestShutdownOrdering:
    def test_cancel_during_initialise_stays_cancelled(self, world):
        """Regression: a cancel landing mid-S1 must not resurrect to READY."""
        config = EngineConfig(seed=7, max_rounds=8)
        service = AggregateQueryService(
            world.kg, world.embedding, config, autostart=False
        )
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
        config = EngineConfig(seed=7, max_rounds=8)
        service = AggregateQueryService(
            world.kg, world.embedding, config, autostart=False
        )
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

    @pytest.mark.parametrize("backend", ["cooperative", "processes"])
    def test_close_mid_batch_settles_every_handle(self, world, backend):
        shared_plan_cache().clear()
        config = EngineConfig(seed=7, max_rounds=8, error_bound=0.001)
        service = AggregateQueryService(
            world.kg, world.embedding, config, backend=backend,
            workers=_workers(backend),
        )
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
    """The concurrency left in-process: services over one graph share the
    plan cache's plans and validators, and each steps them from its own
    scheduler thread; one service takes submissions from any thread."""

    def test_two_services_answer_every_kind_like_one(self, world):
        baseline = _run_backend(world, "cooperative")
        config = EngineConfig(seed=7, max_rounds=8)

        def drive(position, barrier):
            with AggregateQueryService(
                world.kg, world.embedding, config
            ) as service:
                barrier.wait(timeout=30)
                handles = service.submit_batch(_workload(world))
                return [_fingerprint(h.result(timeout=60)) for h in handles]

        shared_plan_cache().clear()
        assert _race(drive) == {0: baseline, 1: baseline}

    def test_two_threads_submitting_to_one_service(self, world):
        baseline = _run_backend(world, "cooperative")
        shared_plan_cache().clear()
        with AggregateQueryService(
            world.kg, world.embedding, EngineConfig(seed=7, max_rounds=8)
        ) as service:

            def drive(position, barrier):
                barrier.wait(timeout=30)
                handles = service.submit_batch(_workload(world))
                return [_fingerprint(h.result(timeout=60)) for h in handles]

            assert _race(drive) == {0: baseline, 1: baseline}

    def test_concurrent_sessions_refine_like_one(self, world):
        """Two interactive sessions on engines over one graph share the
        AVG plan; refined at once, each takes the steps a lone one does."""
        from repro import ApproximateAggregateEngine, InteractiveSession

        config = EngineConfig(seed=11, error_bound=0.05)

        def refine_steps(barrier=None) -> list[tuple]:
            engine = ApproximateAggregateEngine(world.kg, world.embedding, config)
            try:
                session = InteractiveSession(engine, world.avg_query(), seed=3)
                if barrier is not None:
                    barrier.wait(timeout=30)
                return [
                    (_fingerprint(step.result), step.additional_draws)
                    for step in map(session.refine, (0.05, 0.03, 0.01))
                ]
            finally:
                engine.service.close()

        shared_plan_cache().clear()
        lone = refine_steps()
        shared_plan_cache().clear()
        raced = _race(lambda position, barrier: refine_steps(barrier))
        assert raced == {0: lone, 1: lone}
