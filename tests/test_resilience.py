"""The serving fault matrix, driven by deterministic fault injection.

Every recovery path of the resilience layer is exercised through
:class:`FaultPlan` — faults fire at exact scheduling points (a chosen
query's chosen round, inside a worker, at the recovery hook), so none of
these tests sleeps to synchronize:

* a worker crash mid-round is detected, the pool respawns against the
  still-published snapshot store, the lost round replays **byte-identical**
  to the cooperative backend (growth/RNG ran in the scheduler before
  export) and ``service.health()`` records the respawn/retry counts;
* a crash during the cross-query prewarm degrades to a cold memo, never
  to wrong results;
* a retry budget of one goes straight to the in-process fallback;
* a deadline expiring mid-run settles as :class:`DeadlineExceededError`
  carrying the anytime trace — the loosest guaranteed estimate + CI
  survives the failure;
* a saturated service sheds with :class:`ServiceOverloadedError` without
  disturbing in-flight queries, and accepts again once drained;
* ``cancel()`` racing a pool respawn leaves every handle settled;
* the three lifecycle bugfixes stay fixed: pool-closed errors are
  :class:`ServiceError` (not ``StoreError``), ``result()`` raises a fresh
  wrapper per call (no shared-traceback mutation), and ``close()`` names
  the stuck phase instead of silently leaking the scheduler thread.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro import (
    AggregateFunction,
    AggregateQuery,
    AggregateQueryService,
    EngineConfig,
    FaultPlan,
    FaultSpec,
    GroupBy,
    QueryGraph,
    QueryStatus,
    RetryPolicy,
    ServiceLimits,
)
from repro.core.plan import shared_plan_cache
from repro.core.resilience import FaultInjected
from repro.core.service import ExecutionBackend
from repro.errors import (
    DeadlineExceededError,
    QueryCancelledError,
    ServiceError,
    ServiceOverloadedError,
)


@pytest.fixture
def world(toy_world_factory):
    return toy_world_factory()


def _nan_safe(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def _trace_fingerprint(rounds) -> tuple:
    return tuple(
        (t.round_index, t.total_draws, t.correct_draws, t.estimate,
         _nan_safe(t.moe), t.satisfied, t.guaranteed)
        for t in rounds
    )


def _fingerprint(result) -> tuple:
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
    """8 fixed-seed queries across all three kinds over shared plans."""
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
        (world.count_query(), 8),
        (world.avg_query(), 9),
        (world.sum_query(), 10),
    ]


def _run(world, backend, *, fault_plan=None, retry=None) -> tuple[list, dict]:
    """Fingerprints + final health() for the workload on ``backend``."""
    shared_plan_cache().clear()
    config = EngineConfig(seed=7, max_rounds=8)
    with AggregateQueryService(
        world.kg, world.embedding, config, backend=backend,
        workers=2 if backend == "processes" else None,
        fault_plan=fault_plan, retry=retry,
    ) as service:
        handles = service.submit_batch(_workload(world))
        prints = [_fingerprint(handle.result(timeout=120)) for handle in handles]
        return prints, service.health()


# ---------------------------------------------------------------------------
# Worker crash recovery
# ---------------------------------------------------------------------------
class TestWorkerCrashRecovery:
    def test_crash_mid_round_is_byte_identical_after_respawn(self, world):
        """The acceptance gate: one worker crash inside an 8-query batch —
        every query completes, results match the cooperative scheduler
        byte-for-byte, and health() shows the respawn + replay."""
        baseline, _ = _run(world, "cooperative")
        plan = FaultPlan([
            FaultSpec(site="worker_round", action="crash_worker",
                      match={"round": 2}, times=1),
        ])
        injected, health = _run(world, "processes", fault_plan=plan)
        assert plan.specs[0].fired == 1, "the crash fault never triggered"
        assert injected == baseline, (
            "crash recovery changed results: replayed rounds must be "
            "byte-identical (growth ran in the scheduler before export)"
        )
        assert health["respawns"] >= 1
        assert health["retries"] >= 1

    def test_crash_during_prewarm_degrades_gracefully(self, world):
        baseline, _ = _run(world, "cooperative")
        plan = FaultPlan([
            FaultSpec(site="worker_prewarm", action="crash_worker", times=1),
        ])
        injected, health = _run(world, "processes", fault_plan=plan)
        assert plan.specs[0].fired == 1, "no prewarm dispatch fired the fault"
        assert injected == baseline
        assert health["respawns"] >= 1

    def test_exhausted_retry_budget_falls_back_in_process(self, world):
        """max_attempts=1 means a lost round is never replayed in a worker:
        it must complete through the in-process fallback instead."""
        baseline, _ = _run(world, "cooperative")
        plan = FaultPlan([
            FaultSpec(site="worker_round", action="crash_worker",
                      match={"round": 2}, times=1),
        ])
        injected, health = _run(
            world, "processes", fault_plan=plan,
            retry=RetryPolicy(max_attempts=1, backoff_base=0.0),
        )
        assert injected == baseline
        assert health["respawns"] >= 1
        assert health["local_fallbacks"] >= 1

    def test_cancel_racing_a_respawn_settles_every_handle(self, world):
        """A cancel() landing exactly at the recovery hook (between the
        crash and the re-dispatch) must not strand any handle."""
        shared_plan_cache().clear()
        config = EngineConfig(seed=7, max_rounds=8)
        handles: list = []

        def cancel_last(_context):
            handles[-1].cancel()

        plan = FaultPlan([
            FaultSpec(site="worker_round", action="crash_worker",
                      match={"round": 2}, times=1),
            FaultSpec(site="recover", action="hang", seconds=0.0,
                      callback=cancel_last, times=1),
        ])
        with AggregateQueryService(
            world.kg, world.embedding, config, backend="processes",
            workers=2, fault_plan=plan,
        ) as service:
            handles.extend(service.submit_batch(_workload(world)))
            settled = 0
            for handle in handles:
                try:
                    handle.result(timeout=120)
                    settled += 1
                except QueryCancelledError:
                    assert handle.status is QueryStatus.CANCELLED
            assert plan.specs[1].fired == 1, "recovery never ran"
            assert settled >= len(handles) - 1
            assert service.health()["respawns"] >= 1
            for handle in handles:
                assert handle.status.terminal, f"stuck {handle.status}"

    def test_fault_hooks_inert_without_a_plan(self, world):
        """No plan installed: the hooks are attribute checks against None
        and the health counters stay zero."""
        prints, health = _run(world, "processes")
        assert health["respawns"] == 0
        assert health["retries"] == 0
        assert health["local_fallbacks"] == 0
        assert health["sheds"] == 0
        assert health["deadline_expiries"] == 0
        assert len(prints) == 8


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _ClockSteppingBackend(ExecutionBackend):
    """Cooperative backend advancing a fake clock after each cohort pass —
    deadline expiry is driven by completed rounds, not by sleeping."""

    def __init__(self, clock: _FakeClock, step: float):
        self._clock = clock
        self._step = step

    def run_cohort(self, service, cohort) -> None:
        super().run_cohort(service, cohort)
        if cohort:
            self._clock.now += self._step


class TestDeadlines:
    def _expired_handle(self, world):
        clock = _FakeClock()
        config = EngineConfig(seed=7, max_rounds=50)
        service = AggregateQueryService(
            world.kg, world.embedding, config,
            backend=_ClockSteppingBackend(clock, step=1.0),
        )
        service._clock = clock
        # an unreachable bound keeps the query running until the deadline
        # (2.5 fake seconds = two completed rounds) expires mid-run
        handle = service.submit(
            world.avg_query(), seed=5, error_bound=1e-12, deadline=2.5
        )
        return service, handle

    def test_expiry_mid_run_preserves_the_anytime_trace(self, world):
        service, handle = self._expired_handle(world)
        with service:
            with pytest.raises(DeadlineExceededError) as info:
                handle.result(timeout=60)
            error = info.value
            assert handle.status is QueryStatus.FAILED
            assert len(error.trace) >= 2, (
                "the trace of completed rounds must survive expiry"
            )
            assert error.trace == handle.progress()
            last = error.trace[-1]
            assert math.isfinite(last.estimate)
            assert math.isfinite(last.moe)
            assert service.health()["deadline_expiries"] == 1

    def test_each_result_call_raises_a_fresh_exception(self, world):
        """The bugfix: repeated result() must not re-raise (and thereby
        mutate the traceback of) one shared exception object."""
        service, handle = self._expired_handle(world)
        with service:
            with pytest.raises(DeadlineExceededError) as first:
                handle.result(timeout=60)
            with pytest.raises(DeadlineExceededError) as second:
                handle.result(timeout=60)
            assert first.value is not second.value
            assert first.value.__cause__ is second.value.__cause__
            assert first.value.trace == second.value.trace

    def test_deadline_already_expired_at_submit(self, world):
        clock = _FakeClock()
        clock.now = 10.0
        config = EngineConfig(seed=7, max_rounds=8)
        with AggregateQueryService(world.kg, world.embedding, config) as service:
            service._clock = clock
            handle = service.submit(world.count_query(), seed=3, deadline=0.0)
            with pytest.raises(DeadlineExceededError) as info:
                handle.result(timeout=60)
            assert info.value.trace == ()


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmissionControl:
    def test_saturated_service_sheds_then_recovers_after_drain(self, world):
        config = EngineConfig(seed=7, max_rounds=8)
        with AggregateQueryService(
            world.kg, world.embedding, config, autostart=False,
            limits=ServiceLimits(max_pending=2),
        ) as service:
            first = service.submit(world.count_query(), seed=3)
            second = service.submit(world.avg_query(), seed=4)
            with pytest.raises(ServiceOverloadedError):
                service.submit(world.sum_query(), seed=5)
            assert service.health()["sheds"] == 1
            # the shed did not disturb the admitted queries
            service.start()
            assert first.result(timeout=60) is not None
            assert second.result(timeout=60) is not None
            # drained: admission opens again
            third = service.submit(world.sum_query(), seed=5)
            assert third.result(timeout=60) is not None
            assert service.health()["sheds"] == 1

    def test_refine_backlog_is_bounded(self, world):
        config = EngineConfig(seed=7, max_rounds=8)
        with AggregateQueryService(
            world.kg, world.embedding, config, autostart=False,
            limits=ServiceLimits(max_queued_runs=1),
        ) as service:
            handle = service.submit(world.count_query(), seed=3)
            with pytest.raises(ServiceOverloadedError):
                handle.refine(0.005)
            service.start()
            handle.result(timeout=60)
            # the backlog drained: refine is admitted again
            assert handle.refine(0.005).result(timeout=60) is not None

    def test_limit_validation(self):
        with pytest.raises(ServiceError):
            ServiceLimits(max_pending=0)
        with pytest.raises(ServiceError):
            ServiceLimits(max_queued_runs=-1)


# ---------------------------------------------------------------------------
# Fault plan + retry policy mechanics
# ---------------------------------------------------------------------------
class TestFaultMechanics:
    def test_raise_in_validate_batch_fails_only_that_query(self, world):
        """The executor-level hook: one injected validation failure fails
        exactly one query; the rest of the batch is untouched."""
        shared_plan_cache().clear()
        config = EngineConfig(seed=7, max_rounds=8)
        plan = FaultPlan([
            FaultSpec(site="validate_batch", action="raise", times=1),
        ])
        with AggregateQueryService(
            world.kg, world.embedding, config, fault_plan=plan
        ) as service:
            handles = service.submit_batch(_workload(world))
            outcomes = []
            for handle in handles:
                try:
                    handle.result(timeout=120)
                    outcomes.append("ok")
                except ServiceError as exc:
                    assert isinstance(exc.__cause__, FaultInjected)
                    outcomes.append("failed")
            assert outcomes.count("failed") == 1
            assert outcomes.count("ok") == len(handles) - 1

    def test_hang_fault_delays_but_does_not_fail(self, world):
        config = EngineConfig(seed=7, max_rounds=8)
        plan = FaultPlan([
            FaultSpec(site="slot", action="hang", seconds=0.05,
                      match={"round": 1}, times=1),
        ])
        with AggregateQueryService(
            world.kg, world.embedding, config, fault_plan=plan
        ) as service:
            handle = service.submit(world.count_query(), seed=3)
            assert handle.result(timeout=60) is not None
        assert plan.specs[0].fired == 1

    def test_spec_matching_and_exhaustion(self):
        plan = FaultPlan([
            FaultSpec(site="slot", action="raise", match={"round": 2}, times=1),
        ])
        assert plan.fire("slot", round=1) is None  # no match
        assert plan.fire("other", round=2) is None  # wrong site
        with pytest.raises(FaultInjected):
            plan.fire("slot", round=2, kind="rounds")
        assert plan.fire("slot", round=2) is None  # times exhausted
        assert plan.log == [("slot", {"round": 2, "kind": "rounds"})]

    def test_unknown_action_rejected(self):
        with pytest.raises(ServiceError):
            FaultSpec(site="slot", action="explode")

    def test_retry_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_cap=0.3, jitter=0.5, seed=9)
        delays = [policy.delay_for(n) for n in (1, 2, 3, 4)]
        assert delays == [policy.delay_for(n) for n in (1, 2, 3, 4)]
        assert delays[0] >= 0.1
        assert all(d <= 0.3 * 1.5 for d in delays)
        assert RetryPolicy(backoff_base=0.0).delay_for(5) == 0.0
        with pytest.raises(ServiceError):
            RetryPolicy(max_attempts=0)


# ---------------------------------------------------------------------------
# Lifecycle bugfixes
# ---------------------------------------------------------------------------
class _StuckBackend(ExecutionBackend):
    """Blocks inside run_cohort until released (close()-timeout drills)."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def run_cohort(self, service, cohort) -> None:
        if cohort:
            self.entered.set()
            assert self.release.wait(timeout=30.0)
        super().run_cohort(service, cohort)


class TestLifecycleBugfixes:
    def test_closed_pool_raises_service_error_not_store_error(self, world):
        from repro.errors import StoreError

        config = EngineConfig(seed=7, max_rounds=8)
        service = AggregateQueryService(
            world.kg, world.embedding, config, backend="processes", workers=2
        )
        pool = service.backend.pool
        handle = service.submit(world.count_query(), seed=3)
        handle.result(timeout=60)
        service.close()
        with pytest.raises(ServiceError) as ticket_error:
            pool.ticket_for(object())
        assert not isinstance(ticket_error.value, StoreError)
        with pytest.raises(ServiceError) as joint_error:
            pool.joint_ticket_for(object())
        assert not isinstance(joint_error.value, StoreError)

    def test_close_names_the_stuck_phase(self, world):
        backend = _StuckBackend()
        config = EngineConfig(seed=7, max_rounds=8)
        service = AggregateQueryService(
            world.kg, world.embedding, config, backend=backend
        )
        service._join_timeout = 0.2
        handle = service.submit(world.count_query(), seed=3)
        assert backend.entered.wait(timeout=30.0)
        with pytest.raises(ServiceError, match="execute cohort"):
            service.close()
        backend.release.set()
        service.close()  # the thread drained: close now succeeds
        assert handle.status.terminal


def test_health_reports_backend_and_limits(world):
    config = EngineConfig(seed=7, max_rounds=8)
    with AggregateQueryService(
        world.kg, world.embedding, config,
        limits=ServiceLimits(max_pending=16, max_queued_runs=4),
    ) as service:
        health = service.health()
        assert health["backend"] == "cooperative"
        assert health["max_pending"] == 16
        assert health["max_queued_runs"] == 4
        assert health["closed"] is False
