"""Multi-process execution for the serving layer.

:class:`WorkerPool` owns N long-lived worker processes plus one
:class:`~repro.store.shared.SharedSnapshotStore`.  The CSR snapshot is
published through shared memory before the pool starts (workers install
it instead of compiling their own), and every :class:`QueryPlan` a round
references is published once as artefact segments — workers attach by
name and rebuild a plan replica around the shared arrays, so neither the
graph arrays nor any plan artefact is pickled per round.  Only the small
:class:`~repro.core.executor.RoundWorkItem` payloads travel the queue.

Determinism: sampling (the only RNG) runs in the parent before export;
validation, estimation and the BLB guarantee are deterministic functions
of the item plus the shared artefacts, so a worker's
:class:`~repro.core.executor.RoundWorkResult` is byte-identical to what
the cooperative scheduler would have computed in-process — the
cross-backend equivalence tests assert exactly that.

With the ``fork`` start method (Linux) workers inherit the graph and
embedding copy-on-write at pool creation; with ``spawn`` they receive one
pickled copy at startup.  Either way, a graph mutated (structurally *or*
attribute-wise) after pool creation makes the workers stale:
:meth:`WorkerPool.fresh` reports this and the process backend falls back
to in-process execution for correctness.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace

from repro.core.config import EngineConfig
from repro.core.executor import (
    STAGE_IPC,
    PrewarmWorkItem,
    QueryExecutor,
    RoundWorkItem,
    apply_prewarm_result,
    apply_round_result,
    execute_prewarm_item,
    execute_round_item,
    export_round_item,
    memo_delta,
)
from repro.core.plan import PlanArtifacts, QueryPlan, extract_artifacts, plan_from_artifacts
from repro.core.planner import build_validator
from repro.core.resilience import RetryPolicy
from repro.core.service import ExecutionBackend
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import ServiceError
from repro.kg.csr import csr_from_arrays, csr_snapshot, install_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.obs.metrics import MetricsRegistry
from repro.store.shared import SharedSnapshotStore

__all__ = ["WorkerPool", "ProcessBackend", "default_worker_count"]


def default_worker_count() -> int:
    """Worker processes to use when the caller does not say."""
    return max(1, os.cpu_count() or 1)


def _pickle_spec(plan: QueryPlan) -> dict:
    """The small picklable facet of a plan (arrays travel via shm)."""
    artifacts = extract_artifacts(plan)
    return {
        "component": artifacts.component,
        "source": artifacts.source,
        "walk_iterations": artifacts.walk_iterations,
        "num_candidates": artifacts.num_candidates,
        "is_chain": artifacts.is_chain,
        "chain_truncated": artifacts.chain_truncated,
    }


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------
class _WorkerContext:
    """Per-process state: the graph, plan replicas, attached segments."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        config: EngineConfig,
    ) -> None:
        self.kg = kg
        self.space = space
        self.config = config
        self._executors: dict[str, QueryExecutor] = {}
        self._plans: dict[str, QueryPlan] = {}
        #: token -> (joint, attached segment); LRU-bounded, see resolve_joint
        self._joints: dict[str, tuple] = {}
        self._attached: list = []

    def executor_for(self, config: EngineConfig) -> QueryExecutor:
        """One executor per distinct config (per-query confidence overrides)."""
        key = repr(config)
        executor = self._executors.get(key)
        if executor is None:
            executor = QueryExecutor(self.kg, self.space, config, planner=None)
            self._executors[key] = executor
        return executor

    #: attached per-query joints kept per worker; tokens are never
    #: reused, so this is a plain bounded cache — old entries belong to
    #: finished (parent-side released) queries and can be dropped
    JOINT_CACHE_LIMIT = 64

    def resolve_joint(self, ticket: dict):
        """The (cached) shared joint distribution for one query state."""
        from repro.sampling.collector import AnswerDistribution

        token = ticket["token"]
        cached = self._joints.get(token)
        if cached is not None:
            self._joints[token] = self._joints.pop(token)  # LRU touch
            return cached[0]
        attached = SharedSnapshotStore.attach(ticket["manifest"])
        joint = AnswerDistribution(
            answers=attached.arrays["answers"],
            probabilities=attached.arrays["probabilities"],
        )
        self._joints[token] = (joint, attached)
        while len(self._joints) > self.JOINT_CACHE_LIMIT:
            oldest = next(iter(self._joints))  # dicts iterate oldest-first
            _old_joint, old_attached = self._joints.pop(oldest)
            old_attached.close()
        return joint

    def resolve_plan(self, ticket: dict) -> QueryPlan:
        """The replica for one plan ticket, attaching its segments once."""
        token = ticket["token"]
        plan = self._plans.get(token)
        if plan is not None:
            return plan
        attached = SharedSnapshotStore.attach(ticket["manifest"])
        self._attached.append(attached)
        spec = ticket["spec"]
        artifacts = PlanArtifacts(
            component=spec["component"],
            source=spec["source"],
            answers=attached.arrays["answers"],
            probabilities=attached.arrays["probabilities"],
            visiting=attached.arrays["visiting"],
            walk_iterations=spec["walk_iterations"],
            num_candidates=spec["num_candidates"],
            is_chain=spec["is_chain"],
            route_nodes=attached.arrays.get("route_nodes"),
            route_probability=attached.arrays.get("route_probability"),
            chain_truncated=spec["chain_truncated"],
        )
        plan = plan_from_artifacts(
            artifacts, build_validator(self.kg, self.space, self.config)
        )
        self._plans[token] = plan
        return plan


#: the per-process context, set by the pool initializer
_CONTEXT: _WorkerContext | None = None


def _worker_init(
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    config: EngineConfig,
    snapshot_manifest: dict | None,
) -> None:
    global _CONTEXT
    _CONTEXT = _WorkerContext(kg, space, config)
    if snapshot_manifest is not None:
        attached = SharedSnapshotStore.attach(snapshot_manifest)
        _CONTEXT._attached.append(attached)
        snapshot = csr_from_arrays(attached.metadata, attached.arrays)
        # spawn-started workers get the shared CSR instead of compiling
        # their own; fork-started workers inherited the parent's anyway
        install_snapshot(kg, snapshot)


def _require_context() -> _WorkerContext:
    if _CONTEXT is None:  # pragma: no cover - initializer always runs
        raise ServiceError("worker context missing: pool initializer did not run")
    return _CONTEXT


def _apply_worker_fault(fault: dict | None) -> None:
    """Execute an injected fault payload inside the worker process.

    ``crash`` exits from *inside* the task function — the worker holds no
    queue lock here, so the pool's queues stay intact and exactly this
    job is lost, deterministically (an external kill races task pickup
    and may lose nothing, or corrupt the inqueue).  ``hang`` and
    ``raise`` simulate a slow and a faulty worker.  No-op (production)
    when ``fault`` is None.
    """
    if not fault:
        return
    action = fault.get("action")
    if action == "crash":
        os._exit(70)  # EX_SOFTWARE: simulated worker death mid-round
    if action == "hang":
        time.sleep(float(fault.get("seconds", 0.0)))
    elif action == "raise":
        raise ServiceError(fault.get("message") or "injected worker fault")


def _worker_round(
    payload: tuple[RoundWorkItem, tuple[dict, ...], dict, dict | None]
):
    """Pool target: execute one exported round against shared segments."""
    item, tickets, joint_ticket, fault = payload
    _apply_worker_fault(fault)
    context = _require_context()
    plans = [context.resolve_plan(ticket) for ticket in tickets]
    joint = context.resolve_joint(joint_ticket)
    executor = context.executor_for(item.config)
    result = execute_round_item(item, plans, joint, executor)
    # pid-stamp the result: the parent's memo version table records which
    # worker's replicas are warm with this round's entries
    return replace(result, worker_pid=os.getpid())


def _worker_prewarm(payload: tuple[PrewarmWorkItem, dict, dict | None]):
    """Pool target: one cross-query validation batch for a shared plan."""
    item, ticket, fault = payload
    _apply_worker_fault(fault)
    context = _require_context()
    plan = context.resolve_plan(ticket)
    executor = context.executor_for(item.config)
    result = execute_prewarm_item(item, plan, executor)
    return replace(result, worker_pid=os.getpid())


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
# repro: ignore[REP201] single-writer: all mutation runs on the owning scheduler thread
class WorkerPool:
    """N worker processes sharing one published snapshot + plan store.

    Thread contract: single-writer.  All mutating methods run on the
    scheduler thread that owns the enclosing backend; no lock is taken
    because none is shared.  Cross-thread observability reads flow
    through registry counters, which carry their own locks.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        config: EngineConfig,
        *,
        workers: int | None = None,
        start_method: str | None = None,
        respawn_counter=None,
    ) -> None:
        self.workers = workers if workers is not None else default_worker_count()
        if self.workers < 1:
            raise ServiceError("a worker pool needs at least one worker")
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        elif start_method not in methods:
            raise ServiceError(
                f"start method {start_method!r} unavailable (have {methods})"
            )
        self.start_method = start_method
        self._kg = kg
        self._graph_version = kg.version
        self._store = SharedSnapshotStore()
        #: id(plan) -> (plan, ticket).  The *strong* plan reference is
        #: load-bearing: it pins the id for the pool's lifetime, so a
        #: PlanCache-evicted plan can never be garbage-collected and have
        #: its address reused by a different plan that would then resolve
        #: to the old plan's shared segments.  Published segments live
        #: until :meth:`close` — the shm footprint tracks published plans
        #: exactly, like the tickets themselves.
        self._tickets: dict[int, tuple[QueryPlan, dict]] = {}
        #: id(state) -> (state, ticket) for per-query joint distributions,
        #: pinned for the same id-reuse reason as ``_tickets``
        self._joints: dict[int, tuple[object, dict]] = {}
        self._token_counter = 0
        self._closed = False
        #: how many times a broken pool has been replaced (supervision)
        self.respawns = 0
        #: observability mirror of :attr:`respawns` (a repro.obs counter
        #: owned by the backend); every respawn increments both, so the
        #: /metrics view never disagrees with the plain attribute
        self._respawn_counter = respawn_counter
        #: (plan token, worker pid) -> (similarity, chain) memo lengths the
        #: worker's replica is known to hold; the floor of these over the
        #: live pid set bounds what a round item may omit (see
        #: :meth:`memo_floors`)
        self._memo_versions: dict[tuple[str, int], tuple[int, int]] = {}

        # Publish the CSR snapshot before any worker exists: fork-started
        # workers inherit the compiled snapshot copy-on-write, spawn-started
        # ones install the shared segments instead of compiling their own.
        snapshot = csr_snapshot(kg)
        metadata, arrays = snapshot.export_arrays()
        snapshot_manifest = self._store.publish("csr-snapshot", metadata, arrays)
        self._context = multiprocessing.get_context(start_method)
        #: kept verbatim for respawn(): the manifest stays published, so
        #: a replacement pool attaches the same shared segments
        self._initargs = (kg, space, config, snapshot_manifest)
        # a classic Pool forks/spawns all workers eagerly, *here*, in the
        # caller's thread — not lazily from the scheduler thread later
        self._pool = self._spawn_pool()

    def _spawn_pool(self):
        return self._context.Pool(
            processes=self.workers,
            initializer=_worker_init,
            initargs=self._initargs,
        )

    # ------------------------------------------------------------------
    def fresh(self) -> bool:
        """True while the workers' graph copy matches the live graph.

        Keys on ``version`` (structure *and* attributes): workers screen
        attribute filters themselves, so even attribute-only writes make
        their inherited copy stale.
        """
        return self._kg.version == self._graph_version

    def worker_pids(self) -> frozenset[int]:
        """The pids of the pool's current worker processes.

        This is the liveness signal the supervisor polls:
        ``multiprocessing.Pool``'s maintenance thread quietly replaces a
        dead worker with a fresh process, so exitcodes are unreliable —
        but the replacement changes the pid set, and *any* change since a
        job was dispatched means some worker died and may have taken its
        in-flight job with it.
        """
        return frozenset(proc.pid for proc in self._pool._pool)

    def kill_worker(self) -> int | None:
        """Hard-kill one live worker process (crash drills); its pid.

        Prefer a ``crash_worker`` :class:`~repro.core.resilience.FaultSpec`
        in tests — the worker then exits *inside* a chosen job, which is
        deterministic; an external kill races task pickup.
        """
        for proc in self._pool._pool:
            if proc.is_alive():
                proc.kill()
                return proc.pid
        return None

    def respawn(self) -> None:
        """Replace a broken pool with a fresh one; published state survives.

        The snapshot store, every plan/joint ticket and the pinned plan
        references are untouched: the manifests stay valid, so respawned
        workers attach the same shared segments on first use and no
        artefact is republished.  ``fresh()`` is deliberately *not*
        reset — a respawn recovers from a crash, it is not a statement
        that the workers' graph copy caught up with parent mutations
        (plan segments were extracted from the original plans either
        way).
        """
        if self._closed:
            raise ServiceError("the worker pool has been closed")
        old = self._pool
        old.terminate()
        old.join()
        self._pool = self._spawn_pool()
        self.respawns += 1
        if self._respawn_counter is not None:
            self._respawn_counter.inc()
        # fresh processes hold no replica memos; the next round per plan
        # ships a full snapshot again
        self._memo_versions.clear()

    def ticket_for(self, plan: QueryPlan) -> dict:
        """The (cached) shm ticket for ``plan``, publishing on first use."""
        cached = self._tickets.get(id(plan))
        if cached is not None:
            return cached[1]
        if self._closed:
            # a serving-lifecycle failure, not a store-format one: the
            # segments were fine, the pool's life simply ended
            raise ServiceError("the worker pool has been closed")
        token = f"plan-{self._token_counter}"
        self._token_counter += 1
        artifacts = extract_artifacts(plan)
        manifest = self._store.publish(token, {"token": token}, artifacts.arrays())
        ticket = {
            "token": token,
            "manifest": manifest,
            "spec": _pickle_spec(plan),
        }
        self._tickets[id(plan)] = (plan, ticket)
        return ticket

    def memo_floors(
        self, plans: list[QueryPlan]
    ) -> tuple[tuple[int, int], ...]:
        """Per-plan ``(similarity, chain)`` memo floors for delta shipping.

        The floor is the componentwise minimum of the recorded versions
        over the pool's *current* pids — ``apply_async`` does not let the
        parent pick the executing worker, so an item may only omit what
        every live worker already holds.  An unknown (plan, pid) pair
        counts as 0 (full snapshot).  Floors are additionally clamped to
        the live memo lengths, so even if some code path ever shrank a
        plan memo the delta slice could not silently skip live entries.

        Over-approximation is safe by design: memo entries are
        deterministic pure values, so a worker that is missing some
        entries merely recomputes identical values — outcomes are
        byte-identical either way, only the (re)computation is wasted.
        """
        pids = self.worker_pids()
        floors: list[tuple[int, int]] = []
        for plan in plans:
            cached = self._tickets.get(id(plan))
            if cached is None or not pids:
                floors.append((0, 0))
                continue
            token = cached[1]["token"]
            versions = [
                self._memo_versions.get((token, pid), (0, 0)) for pid in pids
            ]
            floors.append(
                (
                    min(
                        min(version[0] for version in versions),
                        len(plan.similarity_cache),
                    ),
                    min(
                        min(version[1] for version in versions),
                        len(plan.chain_prefix_memo),
                    ),
                )
            )
        return tuple(floors)

    def commit_memo_versions(self, plans: list[QueryPlan], pid: int) -> None:
        """Record that worker ``pid``'s replicas are warm up to the live memos.

        Called after a worker's result merged into the live plans: the
        worker holds everything it was shipped plus everything it
        computed.  When rounds for one plan interleave across workers the
        live length can over-state a single worker's holdings; that only
        makes a future delta omit entries the worker then deterministically
        recomputes once (see :meth:`memo_floors`).
        """
        if pid < 0:
            return
        for plan in plans:
            cached = self._tickets.get(id(plan))
            if cached is None:
                continue
            key = (cached[1]["token"], int(pid))
            old = self._memo_versions.get(key, (0, 0))
            self._memo_versions[key] = (
                max(old[0], len(plan.similarity_cache)),
                max(old[1], len(plan.chain_prefix_memo)),
            )

    def joint_ticket_for(self, state) -> dict:
        """The shm ticket for a query state's (immutable) joint distribution.

        Published once per state and pinned like plan tickets (same
        id-reuse hazard): every later round of the query ships a few
        bytes of manifest instead of the num_candidates-sized answer and
        probability arrays.
        """
        cached = self._joints.get(id(state))
        if cached is not None:
            return cached[1]
        if self._closed:
            raise ServiceError("the worker pool has been closed")
        token = f"joint-{self._token_counter}"
        self._token_counter += 1
        manifest = self._store.publish(
            token,
            {"token": token},
            {
                "answers": state.joint.answers,
                "probabilities": state.joint.probabilities,
            },
        )
        ticket = {"token": token, "manifest": manifest}
        self._joints[id(state)] = (state, ticket)
        return ticket

    def release_state(self, state) -> None:
        """Drop a query state's pin + shared segment (run finished).

        Keeps a long-lived service bounded: without this, every query
        ever served would stay pinned (state, support arrays, shm block)
        until :meth:`close`.  A later ``refine()`` on the same state
        simply republishes under a fresh token.  Workers that attached
        the old segment hold their mapping open, so an in-flight round
        racing this release still reads valid pages.
        """
        entry = self._joints.pop(id(state), None)
        if entry is not None and not self._closed:
            self._store.unpublish(entry[1]["token"])

    def dispatch_round(
        self,
        item: RoundWorkItem,
        plans: list[QueryPlan],
        state,
        fault: dict | None = None,
    ):
        """Submit one round; returns the pool's async result handle.

        ``fault`` is an injected worker-side payload (tests only; see
        :func:`_apply_worker_fault`) — None, and free, in production.
        """
        tickets = tuple(self.ticket_for(plan) for plan in plans)
        if len(plans) == 1 and state.joint is plans[0].distribution:
            # the common single-component case: the joint IS the plan's
            # answer distribution, whose segment (answers/probabilities)
            # is already published — alias it instead of copying it into
            # a second per-query block
            joint_ticket = {
                "token": f"{tickets[0]['token']}:joint",
                "manifest": tickets[0]["manifest"],
            }
        else:
            joint_ticket = self.joint_ticket_for(state)
        return self._pool.apply_async(
            _worker_round, ((item, tickets, joint_ticket, fault),)
        )

    def dispatch_prewarm(
        self, item: PrewarmWorkItem, plan: QueryPlan, fault: dict | None = None
    ):
        """Submit one cross-query validation batch."""
        ticket = self.ticket_for(plan)
        return self._pool.apply_async(_worker_prewarm, ((item, ticket, fault),))

    def close(self) -> None:
        """Terminate the workers and unlink every shared segment."""
        if self._closed:
            return
        self._closed = True
        self._pool.terminate()
        self._pool.join()
        self._store.close()
        self._tickets.clear()
        self._joints.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


@dataclass(eq=False)
class _PendingWork:
    """One dispatched job under supervision (a round or a prewarm batch)."""

    item: object
    #: round jobs
    record: object = None
    run: object = None
    state: object = None
    #: prewarm jobs
    job: object = None
    #: dispatch state
    handle: object = None
    pids: frozenset = field(default_factory=frozenset)
    attempts: int = 1
    #: perf_counter right after growth, before export: the start of the
    #: round's transport window (the ``ipc`` stage bucket)
    export_started: float = 0.0
    #: the query's ``round`` span for this dispatch (None when tracing off)
    span: object = None
    #: terminal state (exactly one ends up set / True)
    result: object = None
    error: BaseException | None = None
    needs_fallback: bool = False  # retry budget spent: run in-process
    abandoned: bool = False  # service closing mid-await
    skipped: bool = False  # record settled (cancel/close) before dispatch


class ProcessBackend(ExecutionBackend):
    """``backend="processes"``: whole rounds fan out to a WorkerPool.

    Every kind of round — guaranteed aggregates, GROUP-BY, MAX/MIN — and
    the cohort pre-warm batches execute in worker processes; growth (the
    only RNG) stays in the scheduler thread, so fixed-seed results are
    byte-identical to the cooperative backend.  Merging is deterministic
    — see :func:`repro.core.executor.apply_round_result`.

    The backend also *supervises* the pool: a worker death (OOM kill,
    segfault) is detected by polling the pool's pid set while awaiting
    results, already-finished results are salvaged, the pool is respawned
    against the still-published snapshot store, and the lost jobs are
    re-dispatched — byte-identical, because the exported items carry the
    already-grown sample.  A job that exhausts
    :class:`~repro.core.resilience.RetryPolicy.max_attempts` executes
    in-process instead (the same code path workers run), extending the
    stale-graph fallback.  :attr:`local_fallbacks` counts in-process
    slots, :attr:`retries` counts re-dispatches; pool respawns are on
    ``pool.respawns`` — all surfaced through :meth:`health`.
    """

    name = "processes"

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        config: EngineConfig,
        *,
        workers: int | None = None,
        start_method: str | None = None,
        retry: RetryPolicy | None = None,
        memo_deltas: bool = True,
        registry=None,
    ) -> None:
        # Counter bookkeeping lives on the observability registry
        # (scope ``workers``): each counter carries its own lock, so
        # health() polled from another thread mid-respawn reads each
        # tally atomically instead of racing plain ``+=`` writes.  A
        # standalone backend (no owning service) gets a private registry.
        registry = registry if registry is not None else MetricsRegistry()
        scope = registry.scope("workers")
        self._c_respawns = scope.counter(
            "respawns_total", "Worker pools replaced after a crash"
        )
        self._c_retries = scope.counter(
            "retries_total", "Lost rounds re-dispatched after a respawn"
        )
        self._c_local_fallbacks = scope.counter(
            "local_fallbacks_total",
            "Slots executed in-process (stale pool or retry budget spent)",
        )
        self._c_memo_entries_shipped = scope.counter(
            "memo_entries_shipped_total",
            "Memo entries serialised to workers (delta or full)",
        )
        self._c_memo_entries_saved = scope.counter(
            "memo_entries_saved_total",
            "Memo entries delta shipping avoided serialising",
        )
        self._c_delta_dispatches = scope.counter(
            "delta_dispatches_total", "Dispatches that carried memo deltas"
        )
        self._c_full_dispatches = scope.counter(
            "full_dispatches_total", "Dispatches that carried full memos"
        )
        self._pool = WorkerPool(
            kg,
            space,
            config,
            workers=workers,
            start_method=start_method,
            respawn_counter=self._c_respawns,
        )
        self.retry = retry if retry is not None else RetryPolicy()
        #: ship memo deltas instead of full snapshots (see
        #: :meth:`WorkerPool.memo_floors`); off = every round carries the
        #: plans' complete verdict memos, like the original protocol
        self.memo_deltas = memo_deltas

    @property
    def workers(self) -> int:
        """Number of worker processes."""
        return self._pool.workers

    # -- counter read-throughs (attribute compatibility) ----------------
    @property
    def local_fallbacks(self) -> int:
        """Slots executed in-process because the pool went stale or a
        job's retry budget ran out; stays 0 for a clean graph and a
        healthy pool — asserted by the backend tests."""
        return int(self._c_local_fallbacks.value)

    @property
    def retries(self) -> int:
        """Lost jobs re-dispatched after a pool respawn."""
        return int(self._c_retries.value)

    @property
    def memo_entries_shipped(self) -> int:
        """Memo entries actually shipped to workers (delta or full)."""
        return int(self._c_memo_entries_shipped.value)

    @property
    def memo_entries_saved(self) -> int:
        """Memo entries delta mode avoided shipping."""
        return int(self._c_memo_entries_saved.value)

    @property
    def delta_dispatches(self) -> int:
        """Dispatches that carried memo deltas."""
        return int(self._c_delta_dispatches.value)

    @property
    def full_dispatches(self) -> int:
        """Dispatches that carried full memo snapshots."""
        return int(self._c_full_dispatches.value)

    @property
    def pool(self) -> WorkerPool:
        """The underlying worker pool (teardown tests)."""
        return self._pool

    def health(self) -> dict:
        # key names are part of the serving contract (tests + /healthz);
        # the values are atomic counter reads, so a poll racing a respawn
        # never observes a torn update
        return {
            "backend": self.name,
            "workers": self.workers,
            "respawns": int(self._c_respawns.value),
            "retries": self.retries,
            "local_fallbacks": self.local_fallbacks,
            "memo_deltas": self.memo_deltas,
            "memo_entries_shipped": self.memo_entries_shipped,
            "memo_entries_saved": self.memo_entries_saved,
            "delta_dispatches": self.delta_dispatches,
            "full_dispatches": self.full_dispatches,
        }

    def _count_shipment(self, memos, chain_memos, totals) -> None:
        """Track shipped-vs-saved memo entry counts for :meth:`health`."""
        shipped = sum(len(memo) for memo in memos) + sum(
            len(memo) for memo in chain_memos
        )
        self._c_memo_entries_shipped.inc(shipped)
        self._c_memo_entries_saved.inc(max(0, totals - shipped))

    # -- ExecutionBackend interface ------------------------------------
    def run_cohort(self, service, cohort) -> None:
        usable = self._pool.fresh()
        if not usable:
            # mutated graph under a live pool: stale workers would serve
            # old attribute values — run every slot in-process instead
            self._c_local_fallbacks.inc(len(cohort))
            for record in cohort:
                service._step_record_safely(record)
            self._release_settled(cohort)
            return

        entries: list[_PendingWork] = []
        for record in cohort:
            slot = service._begin_slot(record)
            if slot is None:
                continue
            run, state = slot
            try:
                grow_seconds = service._grow_for_run(record, run, state)
                # the transport window opens here: export, pickling, the
                # queue round-trip, worker-idle wait and result apply all
                # land in the ipc stage bucket
                export_started = time.perf_counter()
                memo_floors = (
                    self._pool.memo_floors(state.components)
                    if self.memo_deltas
                    else None
                )
                item = export_round_item(
                    state,
                    run.error_bound,
                    grow_seconds,
                    record.executor.config,
                    memo_floors=memo_floors,
                )
                if memo_floors is None:
                    self._c_full_dispatches.inc()
                else:
                    self._c_delta_dispatches.inc()
                self._count_shipment(
                    item.memos,
                    item.chain_memos,
                    sum(
                        len(plan.similarity_cache) + len(plan.chain_prefix_memo)
                        for plan in state.components
                    ),
                )
            except BaseException as exc:
                service._fail_record(record, exc)
                continue
            entry = _PendingWork(
                item=item,
                record=record,
                run=run,
                state=state,
                export_started=export_started,
            )
            parent_span = getattr(record, "span", None)
            if parent_span is not None:
                entry.span = parent_span.child(
                    "round", kind=record.kind, round_index=run.steps_taken + 1
                )
            self._dispatch_round_entry(service, entry)
            entries.append(entry)

        self._harvest(service, entries, self._dispatch_round_entry)

        for entry in entries:
            if entry.abandoned or entry.skipped:
                continue  # settled elsewhere (close()/cancel)
            if entry.needs_fallback:
                # replay budget spent: run the exported item in-process —
                # the exact function the workers run, on the live plans
                self._c_local_fallbacks.inc()
                try:
                    entry.result = execute_round_item(
                        entry.item,
                        entry.state.components,
                        entry.state.joint,
                        entry.record.executor,
                    )
                except BaseException as exc:
                    entry.error = exc
            if entry.error is not None:
                if entry.span is not None:
                    entry.span.end()
                service._fail_record(entry.record, entry.error)
                continue
            if entry.result is None:
                continue
            try:
                outcome = apply_round_result(entry.state, entry.result)
                self._pool.commit_memo_versions(
                    entry.state.components, entry.result.worker_pid
                )
                # close the stage_ms attribution gap: everything between
                # growth and the applied result that the worker did not
                # spend computing is transport — export + pickling + the
                # queue round-trip + (for recovered rounds) retry delays
                worker_busy = sum(entry.result.stage_seconds.values())
                service._attribute_stage(
                    entry.state,
                    STAGE_IPC,
                    max(
                        0.0,
                        time.perf_counter()
                        - entry.export_started
                        - worker_busy,
                    ),
                )
                if entry.span is not None:
                    worker_span = entry.span.child(
                        "worker_round",
                        worker_pid=entry.result.worker_pid,
                        attempts=entry.attempts,
                    )
                    worker_span.duration_s = worker_busy
                    entry.span.end()
                service._finish_slot(entry.record, entry.run, entry.state, outcome)
            except BaseException as exc:
                service._fail_record(entry.record, exc)
        self._release_settled(cohort)

    def _release_settled(self, cohort) -> None:
        # a record with no live or queued run is done (for now): unpin its
        # joint segment so a long-lived service stays bounded.  Swept over
        # the WHOLE cohort — records that finished via the stale-pool
        # fallback, failed at dispatch, or were cancelled must release
        # too, not just the parallel-completion path.  refine() simply
        # republishes later.
        for record in cohort:
            if (
                record.state is not None
                and record.active_run is None
                and not record.queued_runs
            ):
                self._pool.release_state(record.state)

    # -- supervision ----------------------------------------------------
    def _dispatch_round_entry(self, service, entry: _PendingWork) -> None:
        record = entry.record
        if record.status.terminal or record.cancel_requested:
            entry.skipped = True  # a cancel landed before (re-)dispatch
            return
        fault = None
        plan = self.fault_plan
        try:
            if plan is not None:
                context = {
                    "sequence": record.sequence,
                    "round": entry.run.steps_taken + 1,
                    "kind": record.kind,
                    "attempt": entry.attempts,
                }
                plan.fire("dispatch_round", **context)
                fault = plan.payload_for(plan.fire("worker_round", **context))
            entry.handle = self._pool.dispatch_round(
                entry.item, entry.state.components, entry.state, fault=fault
            )
            entry.pids = self._pool.worker_pids()
        except BaseException as exc:
            entry.error = exc

    def _dispatch_prewarm_entry(self, service, entry: _PendingWork) -> None:
        fault = None
        plan = self.fault_plan
        try:
            if plan is not None:
                context = {
                    "nodes": len(entry.item.node_ids),
                    "attempt": entry.attempts,
                }
                fault = plan.payload_for(plan.fire("worker_prewarm", **context))
            entry.handle = self._pool.dispatch_prewarm(
                entry.item, entry.job.plan, fault=fault
            )
            entry.pids = self._pool.worker_pids()
        except BaseException as exc:
            entry.error = exc

    @staticmethod
    def _undecided(entry: _PendingWork) -> bool:
        """True while the entry still needs a worker result gathered."""
        return (
            entry.handle is not None
            and entry.result is None
            and entry.error is None
            and not entry.needs_fallback
            and not entry.abandoned
            and not entry.skipped
        )

    def _harvest(self, service, entries, redispatch) -> None:
        """Gather every entry's result, recovering from worker deaths."""
        for entry in entries:
            while self._undecided(entry):
                status, value = self._await_one(service, entry)
                if status == "ok":
                    entry.result = value
                elif status == "error":
                    entry.error = value
                elif status == "shutdown":
                    entry.abandoned = True
                else:  # "lost": a worker died under this batch
                    self._recover(service, entries, redispatch)

    def _await_one(self, service, entry: _PendingWork):
        """Poll one handle: ``(status, value)``.

        A plain ``handle.get()`` never returns once ``close()`` has
        terminated the pool mid-round — or once the worker holding the
        job died — stranding the scheduler thread forever.  Polling lets
        the thread notice the shutdown flag (``"shutdown"``) and compare
        the pool's pid set against the dispatch-time set (``"lost"``):
        the pool's maintenance thread replaces dead workers, so a changed
        set, not an exitcode, is the reliable death signal.
        """
        while True:
            try:
                return "ok", entry.handle.get(timeout=0.1)
            except multiprocessing.TimeoutError:
                if service._shutdown or self._pool._closed:
                    return "shutdown", None
                if self._pool.worker_pids() != entry.pids:
                    return "lost", None
            except BaseException as exc:
                return "error", exc

    def _recover(self, service, entries, redispatch) -> None:
        """A worker died: salvage, back off, respawn, re-dispatch.

        Results that finished before the death are harvested off the
        dying pool first; the rest are re-dispatched to a fresh pool
        attached to the same published snapshot/plan segments.  Replay is
        byte-identical because every exported item carries its
        already-grown sample — the RNG ran in the scheduler thread.
        Entries out of retry budget are marked for in-process fallback.
        """
        plan = self.fault_plan
        if plan is not None:
            plan.fire("recover", respawns=self._pool.respawns + 1)
        for entry in entries:
            if self._undecided(entry) and entry.handle.ready():
                try:
                    entry.result = entry.handle.get(timeout=0)
                except BaseException as exc:
                    entry.error = exc
        unfinished = [e for e in entries if self._undecided(e)]
        if service._shutdown or self._pool._closed:
            for entry in unfinished:
                entry.abandoned = True
            return
        delay = self.retry.delay_for(
            min((e.attempts for e in unfinished), default=1)
        )
        if delay > 0:
            time.sleep(delay)
        self._pool.respawn()
        for entry in unfinished:
            entry.handle = None
            if entry.attempts >= self.retry.max_attempts:
                entry.needs_fallback = True
                continue
            entry.attempts += 1
            self._c_retries.inc()
            if entry.record is not None:
                # the audit line reports how many redispatches the query
                # absorbed; single-writer (only the scheduler thread runs
                # recovery), so a plain int is safe here
                entry.record.retries += 1
            if entry.span is not None:
                entry.span.event(
                    "retry",
                    attempt=entry.attempts,
                    respawns=self._pool.respawns,
                )
            redispatch(service, entry)

    def run_prewarm(self, service, jobs) -> list[float]:
        if not self._pool.fresh():
            # stale workers would compute verdicts against the old graph
            # and poison the live plans' memos — same correctness rule as
            # run_cohort's local fallback
            return super().run_prewarm(service, jobs)
        entries: list[_PendingWork] = []
        for job in jobs:
            if self.memo_deltas:
                # ensure the plan has a ticket (and so a version token)
                # before reading floors, mirroring dispatch order
                self._pool.ticket_for(job.plan)
                floors = self._pool.memo_floors([job.plan])[0]
                item = PrewarmWorkItem(
                    config=job.executor.config,
                    memo=memo_delta(job.plan.similarity_cache, floors[0]),
                    chain_memo=memo_delta(job.plan.chain_prefix_memo, floors[1]),
                    node_ids=tuple(int(node) for node in job.nodes),
                    full_memos=False,
                )
                self._c_delta_dispatches.inc()
            else:
                item = PrewarmWorkItem(
                    config=job.executor.config,
                    memo=dict(job.plan.similarity_cache),
                    chain_memo=dict(job.plan.chain_prefix_memo),
                    node_ids=tuple(int(node) for node in job.nodes),
                )
                self._c_full_dispatches.inc()
            self._count_shipment(
                (item.memo,),
                (item.chain_memo,),
                len(job.plan.similarity_cache) + len(job.plan.chain_prefix_memo),
            )
            entry = _PendingWork(item=item, job=job)
            self._dispatch_prewarm_entry(service, entry)
            entries.append(entry)

        self._harvest(service, entries, self._dispatch_prewarm_entry)

        seconds: list[float] = []
        for entry in entries:
            if entry.needs_fallback:
                # a prewarm is an optimization: after the retry budget,
                # run the batch in-process rather than give up on it
                self._c_local_fallbacks.inc()
                try:
                    entry.result = execute_prewarm_item(
                        entry.item, entry.job.plan, entry.job.executor
                    )
                except BaseException:
                    entry.result = None
            if entry.result is None:
                # abandoned (closing) or failed: the memo stays cold and
                # each query's own validation pass fills it — prewarm
                # failures degrade throughput, never results
                seconds.append(0.0)
                continue
            apply_prewarm_result(entry.job.plan, entry.result)
            self._pool.commit_memo_versions(
                [entry.job.plan], entry.result.worker_pid
            )
            seconds.append(entry.result.seconds)
        return seconds

    def close(self) -> None:
        self._pool.close()
