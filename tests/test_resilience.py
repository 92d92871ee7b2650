"""The serving fault matrix, driven by deterministic fault injection.

Every recovery path of the resilience layer is exercised through
:class:`FaultPlan` — faults fire at exact scheduling points (a chosen
query's chosen round, a validation batch), and deadlines run on a fake
clock, so none of these tests sleeps to synchronize:

* a deadline expiring mid-run settles as :class:`DeadlineExceededError`
  carrying the anytime trace — the loosest guaranteed estimate + CI
  survives the failure;
* a saturated service sheds with :class:`ServiceOverloadedError` without
  disturbing in-flight queries, and accepts again once drained;
* a fault raised in ``validate_batch`` or in one query's slot fails
  exactly that query, an error validating one plan fails only the
  queries on it, a hang delays without failing, and a plan whose specs
  never match moves no byte;
* the lifecycle bugfixes stay fixed: ``result()`` raises a fresh wrapper
  per call (no shared-traceback mutation), and ``close()`` names the
  stuck phase instead of silently leaking the scheduler thread.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace

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
    ServiceLimits,
)
from repro.bench.sampled import PaperConfig
from repro.core.plan import shared_plan_cache
from repro.core.resilience import FaultInjected
from repro.errors import (
    DeadlineExceededError,
    EmbeddingError,
    QueryCancelledError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.semantics.validation import CorrectnessValidator


@pytest.fixture
def world(toy_world_factory):
    return toy_world_factory()


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


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _step_clock(service, step: float = 1.0) -> None:
    """Give ``service`` a fake clock that each non-empty scheduler pass
    advances by ``step`` — deadline expiry is driven by completed rounds,
    not by sleeping."""
    clock = _FakeClock()
    run_cohort = service._run_cohort

    def stepping(cohort) -> None:
        run_cohort(cohort)
        if cohort:
            clock.now += step

    service._clock = clock
    service._run_cohort = stepping


class TestDeadlines:
    """A run that outlives its deadline: the queries that must keep
    running sample (a census would settle them in their first round)."""

    def _expired_handle(self, world, sampled_service):
        config = PaperConfig(seed=7, max_rounds=50)
        service = sampled_service(world.kg, world.embedding, config)
        _step_clock(service)
        # an unreachable bound keeps the query running until the deadline
        # (2.5 fake seconds = two completed rounds) expires mid-run
        handle = service.submit(
            world.avg_query(), seed=5, error_bound=1e-12, deadline=2.5
        )
        return service, handle

    def test_expiry_mid_run_preserves_the_anytime_trace(self, world, sampled_service):
        service, handle = self._expired_handle(world, sampled_service)
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

    def test_each_result_call_raises_a_fresh_exception(self, world, sampled_service):
        """The bugfix: repeated result() must not re-raise (and thereby
        mutate the traceback of) one shared exception object."""
        service, handle = self._expired_handle(world, sampled_service)
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
        config = EngineConfig(seed=7)
        with AggregateQueryService(world.kg, world.embedding, config) as service:
            service._clock = clock
            handle = service.submit(world.count_query(), seed=3, deadline=0.0)
            with pytest.raises(DeadlineExceededError) as info:
                handle.result(timeout=60)
            assert info.value.trace == ()

    def test_default_deadline_applies_unless_a_submit_overrides_it(
        self, world, sampled_service
    ):
        service = sampled_service(
            world.kg, world.embedding, PaperConfig(seed=7, max_rounds=3),
            # expires mid-run, before the config's three rounds are spent
            default_deadline=1.5,
        )
        _step_clock(service)
        with service:
            defaulted = service.submit(world.avg_query(), seed=5,
                                       error_bound=1e-12)
            with pytest.raises(DeadlineExceededError) as info:
                defaulted.result(timeout=60)
            assert len(info.value.trace) >= 2
            # an explicit deadline replaces the default for its query
            generous = service.submit(
                world.avg_query(), seed=5, error_bound=1e-12, deadline=1000.0,
            )
            assert len(generous.result(timeout=60).rounds) == 3
            assert service.health()["deadline_expiries"] == 1

    def test_batch_deadline_bounds_every_query(self, world, sampled_service):
        service = sampled_service(
            world.kg, world.embedding, PaperConfig(seed=7, max_rounds=50)
        )
        _step_clock(service)
        with service:
            handles = service.submit_batch(
                [(world.avg_query(), 5), (world.sum_query(), 6)],
                error_bound=1e-12, deadline=2.5,
            )
            for handle in handles:
                with pytest.raises(DeadlineExceededError):
                    handle.result(timeout=60)
                assert handle.status is QueryStatus.FAILED
            assert service.health()["deadline_expiries"] == len(handles)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmissionControl:
    def test_saturated_service_sheds_then_recovers_after_drain(self, world):
        config = EngineConfig(seed=7)
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
        config = EngineConfig(seed=7)
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

    def test_default_limits_are_unlimited(self, world):
        assert ServiceLimits() == ServiceLimits(None, None)
        config = EngineConfig(seed=7)
        with AggregateQueryService(
            world.kg, world.embedding, config, autostart=False
        ) as service:
            assert service.limits == ServiceLimits()
            handles = [
                service.submit(world.count_query(), seed=seed)
                for seed in range(12)
            ]
            health = service.health()
            assert health["live_queries"] == len(handles)
            assert (health["max_pending"], health["max_queued_runs"]) == (
                None, None,
            )
            assert health["sheds"] == 0

    def test_a_limit_of_one_admits_one_live_query(self, world, sampled_service):
        config = PaperConfig(seed=7, max_rounds=8)
        with sampled_service(
            world.kg, world.embedding, config, autostart=False,
            limits=ServiceLimits(max_pending=1, max_queued_runs=1),
        ) as service:
            first = service.submit(world.count_query(), seed=3)
            with pytest.raises(ServiceOverloadedError):
                service.submit(world.count_query(), seed=4)
            # a cancelled query is no longer live: its slot frees at once
            assert first.cancel() is True
            second = service.submit(world.count_query(), seed=4)
            service.start()
            assert second.result(timeout=60).total_draws > 0
            assert service.health()["sheds"] == 1


# ---------------------------------------------------------------------------
# Fault plan mechanics
# ---------------------------------------------------------------------------
class TestFaultMechanics:
    def test_raise_in_validate_batch_fails_only_that_query(self, world):
        """The executor-level hook: one injected validation failure fails
        exactly one query; the rest of the batch is untouched."""
        shared_plan_cache().clear()
        config = EngineConfig(seed=7)
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
        config = EngineConfig(seed=7)
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

    def test_slot_callback_acts_at_an_exact_round(self, world, sampled_service):
        """A ``slot`` spec's callback runs in the scheduler just before the
        matched round: a cancel issued there lets that round finish and
        starts no other."""
        handles: list = []
        plan = FaultPlan([
            FaultSpec(site="slot", action="hang", match={"round": 2},
                      callback=lambda _context: handles[0].cancel()),
        ])
        config = PaperConfig(seed=7, max_rounds=50)
        with sampled_service(
            world.kg, world.embedding, config, fault_plan=plan,
            autostart=False,
        ) as service:
            handles.append(
                service.submit(world.avg_query(), seed=5, error_bound=1e-12)
            )
            service.start()
            with pytest.raises(QueryCancelledError):
                handles[0].result(timeout=60)
        assert len(handles[0].progress()) == 2
        assert plan.log == [("slot", {"sequence": 0, "round": 2, "kind": "rounds"})]

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

    def test_crash_worker_is_not_an_action(self):
        """One execution path: there is no worker process to crash, so the
        action is refused like any other unknown one."""
        with pytest.raises(ServiceError, match="'crash_worker'"):
            FaultSpec(site="slot", action="crash_worker")

    def test_empty_match_hits_every_firing_of_its_site(self):
        plan = FaultPlan([FaultSpec(site="slot", action="hang", times=None)])
        for round_index in (1, 2, 3):
            assert plan.fire("slot", round=round_index) is None
        assert plan.fire("validate_batch", pending=4) is None  # other site
        assert plan.specs[0].fired == 3
        assert [context["round"] for _site, context in plan.log] == [1, 2, 3]

    def test_custom_exception_is_raised_as_given(self):
        error = RuntimeError("disk full")
        plan = FaultPlan([FaultSpec(site="validate_batch", exception=error)])
        with pytest.raises(RuntimeError) as info:
            plan.fire("validate_batch", pending=3)
        assert info.value is error

    def test_callback_runs_before_the_action_on_a_copy_of_the_context(self):
        seen: list[dict] = []

        def callback(context: dict) -> None:
            seen.append(dict(context))
            context["round"] = 99  # must not reach the plan's log

        plan = FaultPlan([
            FaultSpec(site="slot", action="raise", callback=callback),
        ])
        with pytest.raises(FaultInjected):
            plan.fire("slot", round=1)
        assert seen == [{"round": 1}]
        assert plan.log == [("slot", {"round": 1})]

    def test_first_armed_spec_wins_then_the_next(self):
        first = FaultSpec(site="slot", action="hang", times=1)
        second = FaultSpec(site="slot", action="raise", times=1)
        plan = FaultPlan([first, second])
        assert plan.fire("slot", round=1) is None  # the hang, 0 seconds
        with pytest.raises(FaultInjected):
            plan.fire("slot", round=2)  # first is spent: second fires
        assert plan.fire("slot", round=3) is None  # both spent
        assert (first.fired, second.fired) == (1, 1)

    def test_add_chains_and_specs_is_a_snapshot(self):
        plan = FaultPlan()
        spec = FaultSpec(site="slot", action="hang")
        assert plan.add(spec) is plan
        snapshot = plan.specs
        plan.add(FaultSpec(site="validate_batch", action="hang"))
        assert snapshot == (spec,)
        assert [s.site for s in plan.specs] == ["slot", "validate_batch"]

    def test_concurrent_fires_claim_exactly_times(self):
        """Specs are claimed under the plan's lock: eight threads racing
        one spec consume its ``times`` exactly, never one more."""
        plan = FaultPlan([FaultSpec(site="slot", action="hang", times=50)])
        barrier = threading.Barrier(8)

        def hammer() -> None:
            barrier.wait(timeout=30)
            for _ in range(20):
                plan.fire("slot", round=1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert plan.specs[0].fired == 50
        assert len(plan.log) == 50

    def test_raise_in_a_slot_fails_only_that_query(self, world):
        """A slot fault matched to one query's first round fails that query
        alone; the rest of the batch answers as it does with no plan."""
        faulted = _served_outcomes(world, FaultPlan([
            FaultSpec(site="slot", action="raise", match={"sequence": 2}),
        ]))
        baseline = _served_outcomes(world, None)
        assert faulted[2] == "failed"
        assert "failed" not in baseline
        assert faulted[:2] + faulted[3:] == baseline[:2] + baseline[3:]

    def test_validation_error_on_one_plan_fails_only_its_queries(
        self, world, monkeypatch
    ):
        """Every query validates in its own slot: an error validating the
        simple plan fails the two queries sharing it, and the chain query
        stepped in the same cohort on its own plan still succeeds."""
        def fail_on_simple_plans(validator, node_ids):
            raise EmbeddingError("the simple plan's predicate has no vector")

        # a chain plan's validator is a ChainValidator, which reads its
        # first leg's sums, never its validate_batch
        monkeypatch.setattr(
            CorrectnessValidator, "validate_batch", fail_on_simple_plans
        )
        shared_plan_cache().clear()
        config = EngineConfig(seed=7)
        with AggregateQueryService(world.kg, world.embedding, config) as service:
            handles = service.submit_batch([
                (world.count_query(), 3),
                (world.count_query(), 4),
                (world.chain_count_query(), 5),
            ])
            for handle in handles[:2]:
                with pytest.raises(ServiceError) as info:
                    handle.result(timeout=60)
                assert isinstance(info.value.__cause__, EmbeddingError)
            handles[2].result(timeout=60)
        assert [handle.status for handle in handles] == [
            QueryStatus.FAILED, QueryStatus.FAILED, QueryStatus.SUCCEEDED,
        ]

    def test_validate_batch_site_reports_the_pending_count(self, world):
        contexts: list[dict] = []
        plan = FaultPlan([
            FaultSpec(site="validate_batch", action="hang", times=None,
                      callback=contexts.append),
        ])
        config = EngineConfig(seed=7)
        with AggregateQueryService(
            world.kg, world.embedding, config, fault_plan=plan
        ) as service:
            service.submit(world.avg_query(), seed=4).result(timeout=60)
        assert contexts
        assert all(set(context) == {"pending"} for context in contexts)
        assert all(context["pending"] > 0 for context in contexts)
        assert [context for _site, context in plan.log] == contexts

    def test_unmatched_plan_moves_no_byte(self, world):
        """Installed hooks that never trigger are inert: the batch answers
        byte for byte as with no plan, and the plan logs nothing."""
        plan = FaultPlan([
            FaultSpec(site="slot", action="raise", match={"sequence": 99}),
            FaultSpec(site="validate_batch", action="raise",
                      match={"pending": -1}),
        ])
        assert _served_outcomes(world, plan) == _served_outcomes(world, None)
        assert plan.log == []

    def test_confidence_override_executor_carries_the_fault_plan(self, world):
        """A query's confidence lives on its state, so a non-default one
        runs on the service's own executor, which carries the plan's
        ``validate_batch`` hook."""
        config = EngineConfig(seed=7)
        plan = FaultPlan([FaultSpec(site="validate_batch", action="raise")])
        with AggregateQueryService(
            world.kg, world.embedding, config, fault_plan=plan
        ) as service:
            handle = service.submit(world.avg_query(), seed=4, confidence=0.99)
            with pytest.raises(ServiceError) as info:
                handle.result(timeout=60)
        assert isinstance(info.value.__cause__, FaultInjected)
        assert plan.specs[0].fired == 1


def _outcome(handle) -> object:
    """A settled handle's values (timings excluded), or ``"failed"``."""
    try:
        result = handle.result(timeout=120)
    except ServiceError as exc:
        assert isinstance(exc.__cause__, FaultInjected)
        return "failed"
    rounds = tuple(replace(trace, seconds=0.0) for trace in result.rounds)
    groups = getattr(result, "groups", None)
    if groups is not None:
        return repr((result.total_draws, rounds, sorted(
            (key, group.value, group.moe) for key, group in groups.items()
        )))
    return repr((result.value, result.moe, result.total_draws, rounds))


def _served_outcomes(world, plan: FaultPlan | None) -> list:
    """The workload served as one batch by a fresh service under ``plan``."""
    shared_plan_cache().clear()
    config = EngineConfig(seed=7)
    with AggregateQueryService(
        world.kg, world.embedding, config, fault_plan=plan
    ) as service:
        return [_outcome(handle) for handle in service.submit_batch(_workload(world))]


# ---------------------------------------------------------------------------
# Lifecycle bugfixes
# ---------------------------------------------------------------------------
class _StuckPass:
    """Holds ``service``'s next non-empty scheduler pass open until
    released (close()-timeout drills)."""

    def __init__(self, service):
        self.entered = threading.Event()
        self.release = threading.Event()
        run_cohort = service._run_cohort

        def stuck(cohort) -> None:
            if cohort:
                self.entered.set()
                assert self.release.wait(timeout=30.0)
            run_cohort(cohort)

        service._run_cohort = stuck


class TestLifecycleBugfixes:
    def test_close_names_the_stuck_phase(self, world):
        config = EngineConfig(seed=7)
        service = AggregateQueryService(world.kg, world.embedding, config)
        stuck = _StuckPass(service)
        service._join_timeout = 0.2
        handle = service.submit(world.count_query(), seed=3)
        assert stuck.entered.wait(timeout=30.0)
        with pytest.raises(ServiceError, match="execute cohort"):
            service.close()
        stuck.release.set()
        service.close()  # the thread drained: close now succeeds
        assert handle.status.terminal


def test_health_reports_limits(world):
    config = EngineConfig(seed=7)
    with AggregateQueryService(
        world.kg, world.embedding, config,
        limits=ServiceLimits(max_pending=16, max_queued_runs=4),
    ) as service:
        health = service.health()
        assert health["max_pending"] == 16
        assert health["max_queued_runs"] == 4
        assert health["closed"] is False
