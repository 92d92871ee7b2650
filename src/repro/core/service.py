"""The serving layer (S4): an async, batch-first aggregate-query API.

The paper's headline is *online aggregation* — anytime estimates whose
confidence intervals tighten round by round — but a one-shot blocking
``execute`` can only surface that to one caller at a time.
:class:`AggregateQueryService` redesigns the public API around **query
handles**: :meth:`~AggregateQueryService.submit` returns a
:class:`QueryHandle` immediately, a cooperative scheduler interleaves
S2/S3 *rounds* across every live query, and the handle exposes the
anytime state (:meth:`~QueryHandle.progress`), the final result
(:meth:`~QueryHandle.result`), interactive tightening
(:meth:`~QueryHandle.refine`) and :meth:`~QueryHandle.cancel`.

What makes a *batch* cheaper than a loop over ``execute``:

* **Shared plans** — all queries draw S1 plans from the process-wide
  :class:`~repro.core.plan.PlanCache` through one planner, and
  :meth:`PlanCache.get_or_build` guarantees each (component, config) plan
  is built exactly once no matter how many queries need it concurrently.
* **Cross-query validation batching** — before stepping a cohort, the
  scheduler unions the pending correctness searches of every query
  sharing a plan and pre-warms the plan's verdict memo with one
  ``validate_batch`` pass (:meth:`QueryExecutor.prewarm_similarities`).
  Outcomes are deterministic per answer, so results stay byte-identical
  to sequential execution.
* **Round interleaving** — the scheduler is round-robin with
  budget-aware priority (queries with the fewest completed rounds step
  first), so a batch of queries makes even progress and early
  convergers free their slot immediately.  The scheduler slot —
  ``_grow_for_run`` → :meth:`QueryExecutor.step` → ``_finish_slot`` — is
  the only driver of the executor's one grow/step/finalise lifecycle,
  and it never asks what kind of query it is stepping (``kind`` is a
  label for metrics, ``/healthz`` and the audit line), so GROUP-BY and
  MAX/MIN queries interleave with plain ones, observe cancellation
  between rounds, and expose a non-empty anytime trace.

Everything mutable about one query lives in its
:class:`~repro.core.executor._QueryState`; exactly one execution slot
touches a state at a time, so states need no locking regardless of which
**execution backend** runs the slots.  The backend is pluggable:

* ``backend="cooperative"`` (default) — the scheduler thread itself steps
  every cohort member, single-threaded;
* ``backend="processes"`` — whole S2/S3 rounds are exported as picklable
  work items (:class:`~repro.core.executor.RoundWorkItem`) and executed
  by ``workers`` worker processes holding the shared CSR snapshot and
  plan artefacts through :class:`~repro.store.shared.SharedSnapshotStore`
  — no graph or plan arrays are pickled per round.

Growth (the only RNG) always runs in the scheduler thread; exactly one
slot touches a state per pass, each state owns its RNG, and
validation/estimation/guarantee are deterministic, so for a fixed seed
the processes backend produces byte-identical results to the
cooperative path (asserted by the cross-backend equivalence tests).
``ApproximateAggregateEngine.execute`` and :class:`InteractiveSession`
are thin synchronous wrappers over this service.
"""

from __future__ import annotations

import enum
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.config import EngineConfig
from repro.core.executor import (
    KIND_ROUNDS,
    KINDS,
    STAGE_SCHEDULER,
    STAGE_VALIDATION,
    QueryExecutor,
    _QueryState,
    kind_for,
)
from repro.core.plan import QueryPlan
from repro.core.planner import QueryPlanner
from repro.core.resilience import FaultPlan, RetryPolicy, ServiceLimits
from repro.core.result import ApproximateResult, GroupedResult, RoundTrace
from repro.embedding.base import PredicateEmbedding
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import (
    DeadlineExceededError,
    QueryCancelledError,
    ResultTimeoutError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.kg.graph import KnowledgeGraph
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.query.aggregate import AggregateQuery
from repro.utils.timing import Timer

__all__ = [
    "AggregateQueryService",
    "ExecutionBackend",
    "QueryHandle",
    "QueryStatus",
]

#: recognised execution backend names
BACKENDS = ("cooperative", "processes")


class QueryStatus(enum.Enum):
    """Lifecycle of a submitted query."""

    PENDING = "pending"  # submitted, S1 not run yet
    READY = "ready"  # initialised, waiting for a run (deferred handles)
    RUNNING = "running"  # a run is active or queued
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """True once no further scheduler work can change the status."""
        return self in _TERMINAL


_TERMINAL = frozenset(
    {QueryStatus.SUCCEEDED, QueryStatus.FAILED, QueryStatus.CANCELLED}
)

@dataclass
class _Run:
    """One Theorem-2 run over a record's state (execute or refine)."""

    error_bound: float
    max_rounds: int | None = None
    steps_taken: int = 0


@dataclass(eq=False)  # identity semantics: records live in the scheduler list
class _QueryRecord:
    """Everything the scheduler tracks about one submitted query."""

    sequence: int
    aggregate_query: AggregateQuery
    seed: int | None
    executor: QueryExecutor
    kind: str
    status: QueryStatus = QueryStatus.PENDING
    state: _QueryState | None = None
    queued_runs: deque[_Run] = field(default_factory=deque)
    active_run: _Run | None = None
    result: ApproximateResult | GroupedResult | None = None
    exception: BaseException | None = None
    cancel_requested: bool = False
    #: absolute expiry on the service clock, or None for no deadline
    deadline_at: float | None = None
    #: round/settlement listeners registered via QueryHandle.subscribe();
    #: called from the scheduler (or a cancelling) thread; must never block
    listeners: list = field(default_factory=list)
    #: observability: the query's root span (None when tracing is off)
    span: "obs_trace.Span | None" = None
    #: worker-round redispatches this query absorbed (processes backend)
    retries: int = 0
    #: exactly-once audit guard; reset when a refine resurrects the query
    audited: bool = False
    #: perf_counter at submit, for the audit line's duration_ms
    submitted_monotonic: float = 0.0


class QueryHandle:
    """A live reference to one submitted query.

    Handles are cheap views over the service's record: every method is
    safe to call from any thread, and a handle stays valid after its
    query finishes (``result()`` keeps returning the stored result).
    """

    def __init__(self, service: "AggregateQueryService", record: _QueryRecord):
        self._service = service
        self._record = record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryHandle(#{self._record.sequence}, "
            f"{self._record.status.value})"
        )

    @property
    def query(self) -> AggregateQuery:
        """The aggregate query behind this handle."""
        return self._record.aggregate_query

    @property
    def sequence(self) -> int:
        """The query's service-unique submission sequence number."""
        return self._record.sequence

    @property
    def kind(self) -> str:
        """The query's scheduler kind: ``rounds``, ``grouped`` or ``extreme``."""
        return self._record.kind

    @property
    def status(self) -> QueryStatus:
        """The query's current lifecycle status."""
        return self._record.status

    @property
    def total_draws(self) -> int:
        """Draws collected so far (0 before initialisation)."""
        state = self._record.state
        return state.total_draws if state is not None else 0

    def progress(self) -> tuple[RoundTrace, ...]:
        """The anytime trace: one estimate + CI per completed round.

        Each :class:`RoundTrace` carries the round's point estimate, MoE
        (CI half-width), draw counts, Theorem-2 verdict and wall-clock
        seconds — the online-aggregation view of a running query.  Empty
        before the first round completes.  GROUP-BY traces report the
        worst group's estimate/MoE per round; MAX/MIN traces carry the
        running extremum with ``guaranteed=False`` (no CI exists).
        """
        state = self._record.state
        return tuple(state.rounds) if state is not None else ()

    def result(
        self, timeout: float | None = None
    ) -> ApproximateResult | GroupedResult:
        """Block until every queued run finished and return the result.

        Raises :class:`ResultTimeoutError` when ``timeout`` (seconds)
        expires first and :class:`QueryCancelledError` for cancelled
        queries.  A failed query raises a *fresh* exception per call —
        :class:`DeadlineExceededError` (carrying the anytime trace) when
        the deadline expired, otherwise a :class:`ServiceError` whose
        ``__cause__`` chains the stored original — so concurrent and
        repeated callers never re-raise (and thereby mutate the traceback
        of) one shared exception object.  A deferred handle
        (``start=False``) with no run ever queued raises
        :class:`ServiceError` instead of blocking forever.
        """
        record = self._record

        def _settled() -> bool:
            if record.status in _TERMINAL:
                return True
            # deferred and idle: no scheduler work will ever finish this
            return (
                record.active_run is None
                and not record.queued_runs
                and record.status
                in (QueryStatus.PENDING, QueryStatus.READY)
            )

        with self._service._condition:
            finished = self._service._condition.wait_for(_settled, timeout)
            if finished and record.status not in _TERMINAL:
                raise ServiceError(
                    f"query #{record.sequence} has no run queued; call "
                    "refine(error_bound) to start one"
                )
        if not finished:
            raise ResultTimeoutError(
                f"query #{record.sequence} produced no result within "
                f"{timeout:.3f}s (status: {record.status.value})"
            )
        if record.status is QueryStatus.CANCELLED:
            raise QueryCancelledError(
                f"query #{record.sequence} was cancelled"
            )
        if record.status is QueryStatus.FAILED:
            assert record.exception is not None
            original = record.exception
            if isinstance(original, DeadlineExceededError):
                wrapper: ServiceError = DeadlineExceededError(
                    str(original), trace=original.trace
                )
            else:
                wrapper = ServiceError(
                    f"query #{record.sequence} failed: "
                    f"{type(original).__name__}: {original}"
                )
            raise wrapper from original
        assert record.result is not None
        return record.result

    def trace(self) -> dict | None:
        """The query's correlated span tree as a nested JSON-clean dict.

        The scheduler grows the tree at the existing seams — S1
        ``initialise``/``plan_build``, one ``round`` child per anytime
        round with its ``validate_batch`` (or synthetic ``worker_round``)
        children, ``retry`` events for worker redispatches — and the tree
        stays readable after settlement.  ``None`` when the service was
        built with observability disabled (``registry=NULL_REGISTRY``).
        """
        span = self._record.span
        return span.as_dict() if span is not None else None

    def refine(self, error_bound: float) -> "QueryHandle":
        """Queue another Theorem-2 run against ``error_bound``.

        All draws and verdicts collected so far are reused — tightening
        the bound only costs the incremental sampling Eq. 12 asks for,
        exactly the paper's interactive-refinement behaviour.  Returns
        ``self`` so ``handle.refine(0.01).result()`` reads naturally.
        """
        return self._service._queue_run(self._record, error_bound, None)

    def cancel(self) -> bool:
        """Request cancellation; True unless the query already finished.

        Pending/deferred queries are cancelled immediately; a running
        query stops cooperatively at its next round boundary (its partial
        progress stays readable via :meth:`progress`).
        """
        return self._service._cancel(self._record)

    def subscribe(self, callback) -> None:
        """Register a push listener for this query's lifecycle events.

        ``callback(event, payload)`` is invoked by whichever thread
        completes the work — the scheduler thread, or the thread whose
        ``cancel()`` / ``close()`` settled the query — with:

        * ``("round", (position, trace))`` after each completed round,
          where ``position`` is the trace's index in :meth:`progress`
          (monotonically increasing, exactly one call per round); and
        * ``("settled", status)`` once, when the query reaches a terminal
          :class:`QueryStatus` (succeeded, failed or cancelled).

        This is the hook streaming front-ends (SSE) hang off instead of
        polling :meth:`progress`.  Callbacks MUST be non-blocking and
        must not call back into the service (some events fire under the
        service lock); hand the payload to a queue and return.  A round
        completed before subscription is *not* replayed — combine the
        subscription with one :meth:`progress` snapshot to catch up.
        Listener exceptions are swallowed: a broken listener must never
        take down the scheduler.
        """
        with self._service._condition:
            self._record.listeners.append(callback)

    def unsubscribe(self, callback) -> None:
        """Remove a listener registered with :meth:`subscribe` (idempotent)."""
        with self._service._condition:
            try:
                self._record.listeners.remove(callback)
            except ValueError:
                pass


@dataclass(eq=False)
class _PrewarmJob:
    """One shared plan's cross-query validation batch."""

    plan: QueryPlan
    executor: QueryExecutor
    nodes: list[int]
    states: list

    def run(self) -> float:
        """Execute the batch in-process; returns its wall-clock seconds."""
        started = time.perf_counter()
        self.executor.prewarm_similarities([self.plan], self.nodes)
        return time.perf_counter() - started


class ExecutionBackend:
    """The cooperative backend and the interface the processes one extends.

    A backend owns *how* a scheduler pass's slots execute — in the
    scheduler thread or in worker processes — never
    *what* they compute: cohort selection, growth (the only RNG) and
    completion bookkeeping stay in the service, which is what keeps every
    backend's results byte-identical for a fixed seed.
    """

    name = "cooperative"

    #: fault-injection schedule; None in production (hooks are inert)
    fault_plan: FaultPlan | None = None

    def run_cohort(self, service: "AggregateQueryService", cohort) -> None:
        """Advance every cohort record by one slot."""
        for record in cohort:
            service._step_record_safely(record)

    def run_prewarm(self, service: "AggregateQueryService", jobs) -> list[float]:
        """Execute the cross-query validation batches; seconds per job."""
        return [job.run() for job in jobs]

    def health(self) -> dict:
        """Backend-side counters merged into ``service.health()``."""
        return {"backend": self.name}

    def close(self) -> None:
        """Release backend resources (pools, shared segments)."""


def _make_backend(
    backend: "str | ExecutionBackend",
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    config: EngineConfig,
    workers: int | None,
    start_method: str | None,
    retry: RetryPolicy | None,
    registry=None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass a ready-made backend through).

    ``workers`` sizes the processes backend's pool and nothing else: given
    with any other backend it raises instead of being silently dropped.
    """
    ready_made = isinstance(backend, ExecutionBackend)
    if not ready_made and backend not in BACKENDS:
        raise ServiceError(
            f"unknown execution backend {backend!r}; choose from {BACKENDS}"
        )
    if workers is not None and (ready_made or backend != "processes"):
        raise ServiceError(
            f"workers={workers} would be ignored by backend="
            f"{getattr(backend, 'name', backend)!r}; only the processes "
            "backend, selected by name, takes workers"
        )
    if ready_made:
        return backend
    if backend == "cooperative":
        return ExecutionBackend()
    from repro.store.workers import ProcessBackend

    return ProcessBackend(
        kg,
        space,
        config,
        workers=workers,
        start_method=start_method,
        retry=retry,
        registry=registry,
    )


class AggregateQueryService:
    """Async, batch-first serving facade over the plan/execute split.

    One service owns one scheduler thread; :meth:`submit` and
    :meth:`submit_batch` enqueue queries from any thread and return
    handles immediately.  Construct with ``autostart=False`` to hold all
    submissions until :meth:`start` — useful for assembling a batch (or
    testing pending-state semantics) before any work begins.

    ``backend`` selects how scheduler slots execute (``"cooperative"`` or
    ``"processes"``; see the module docstring) and ``workers`` the
    processes backend's pool size; ``planner``/``executor`` share an
    engine's layers.  A worker-process pool is created eagerly here, in
    the constructing thread, so passing ``backend="processes"`` is also
    the moment the graph snapshot is published to shared memory.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        embedding: PredicateEmbedding | PredicateVectorSpace,
        config: EngineConfig | None = None,
        *,
        planner: QueryPlanner | None = None,
        executor: QueryExecutor | None = None,
        autostart: bool = True,
        backend: "str | ExecutionBackend" = "cooperative",
        workers: int | None = None,
        start_method: str | None = None,
        limits: ServiceLimits | None = None,
        retry: RetryPolicy | None = None,
        default_deadline: float | None = None,
        fault_plan: FaultPlan | None = None,
        registry=None,
        audit_log=None,
        audit_log_max_bytes=None,
    ) -> None:
        self._kg = kg
        self._space = (
            embedding
            if isinstance(embedding, PredicateVectorSpace)
            else PredicateVectorSpace(embedding)
        )
        self.config = config or EngineConfig()
        #: the observability registry (repro.obs); a fresh one per service
        #: by default so health() counters describe this service alone
        self.registry = registry if registry is not None else MetricsRegistry()
        self._obs_enabled = bool(getattr(self.registry, "enabled", True))
        self._planner = (
            planner
            if planner is not None
            else QueryPlanner(kg, self._space, self.config)
        )
        self._executor = (
            executor
            if executor is not None
            else QueryExecutor(kg, self._space, self.config, self._planner)
        )
        self._backend = _make_backend(
            backend, kg, self._space, self.config, workers, start_method,
            retry, registry=self.registry,
        )
        self._limits = limits if limits is not None else ServiceLimits()
        self._default_deadline = default_deadline
        self._fault_plan = fault_plan
        if fault_plan is not None:
            # instance attributes shadow the inert class-level None
            self._backend.fault_plan = fault_plan
            self._executor.fault_hook = fault_plan
        #: monkeypatchable monotonic clock read at submit and round
        #: boundaries — deadline tests drive it instead of sleeping
        self._clock = time.monotonic
        #: service birth on the same clock; health() reports the delta
        self._started_at = self._clock()
        self._register_instruments()
        self._open_audit_sink(audit_log, audit_log_max_bytes)
        #: what the scheduler thread is doing (named by close() when stuck)
        self._phase = "idle"
        #: how long close() waits for the scheduler before declaring it
        #: stuck (tests shrink this; the error path must not cost 5s)
        self._join_timeout = 5.0
        self._condition = threading.Condition()
        self._records: list[_QueryRecord] = []
        self._sequence = 0
        self._thread: threading.Thread | None = None
        self._autostart = autostart
        self._shutdown = False

    # ------------------------------------------------------------------
    # Observability (repro.obs): instruments + the query audit log
    # ------------------------------------------------------------------
    def _register_instruments(self) -> None:
        """Register every service-side metric family on the registry.

        ``health()`` keys are read-throughs of these instruments — the
        registry is the single source of truth, and counter reads are
        atomic (each counter carries its own lock), which is what makes
        polling ``health()`` safe against a backend mid-respawn.
        """
        scheduler = self.registry.scope("scheduler")
        self._metric_sheds = scheduler.counter(
            "sheds_total", "Submissions/refines rejected by admission control"
        )
        self._metric_deadline_expiries = scheduler.counter(
            "deadline_expiries_total",
            "Queries settled as DeadlineExceededError",
        )
        self._metric_submitted = scheduler.counter(
            "queries_submitted_total", "Queries accepted by submit()"
        )
        self._metric_settled = {
            status: scheduler.counter(
                "queries_settled_total",
                "Settlements by terminal status",
                labels={"status": status.value},
            )
            for status in _TERMINAL
        }
        self._metric_rounds = scheduler.counter(
            "rounds_total", "Anytime rounds completed across all queries"
        )
        self._metric_round_seconds = scheduler.histogram(
            "round_seconds", "Wall-clock seconds per completed round"
        )
        plan = self.registry.scope("plan")
        #: (gauge, provider) of every read-through gauge; the providers
        #: reach back to this service, so close() freezes and drops them
        self._mirrors = [
            (
                scheduler.gauge("live_queries", "Queries not yet settled"),
                self._live_query_count,
            ),
            (
                plan.gauge(
                    "builds", "S1 plans built by this service's planner"
                ),
                lambda: self._planner.build_count,
            ),
            (
                plan.gauge(
                    "catalog_hits", "Plans adopted from a snapshot catalog"
                ),
                lambda: self._planner.catalog_hits,
            ),
            (
                plan.gauge(
                    "unconverged_walks",
                    "CNARW power iterations that ran out of steps unconverged",
                ),
                lambda: self._planner.unconverged_walks,
            ),
            (
                plan.gauge(
                    "stage_batches",
                    "Calls of the batched S1 stage kernel (one per chain hop, "
                    "one per simple plan)",
                ),
                lambda: self._planner.stage_batches,
            ),
            (
                plan.gauge(
                    "stage_sources",
                    "Walks the S1 stage kernel settled (sources over all "
                    "its batches)",
                ),
                lambda: self._planner.stage_sources,
            ),
            (
                plan.gauge(
                    "cache_hits",
                    "Plan-cache hits (process-wide cache, process-lifetime total)",
                ),
                lambda: self._planner.cache.hits,
            ),
            (
                plan.gauge(
                    "cache_misses",
                    "Plan-cache misses (process-wide cache, process-lifetime total)",
                ),
                lambda: self._planner.cache.misses,
            ),
        ]
        for gauge, provider in self._mirrors:
            gauge.set_function(provider)
        if self._obs_enabled:
            execution = self.registry.scope("exec")
            self._exec_metrics = {
                "validated_entries": execution.counter(
                    "validated_entries_total",
                    "Candidate answers validated (S2)",
                ),
                "validate_batch_pending": execution.histogram(
                    "validate_batch_pending",
                    "Batch sizes handed to the S2 validation kernels",
                    buckets=(1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                             250.0, 500.0, 1000.0),
                ),
                "conjunction_skips": execution.counter(
                    "conjunction_skips",
                    "Answer x component searches not run because an "
                    "earlier component rejected the answer (S2)",
                ),
                "sigma_closed_form": execution.counter(
                    "sigma_closed_form",
                    "BLB bag and GROUP-BY group sigmas taken in closed form: "
                    "a mean-shaped estimator, COUNT/SUM under SAMPLE (S3)",
                ),
                "sigma_bootstrap": execution.counter(
                    "sigma_bootstrap",
                    "BLB bag and GROUP-BY group sigmas that paid for a "
                    "bootstrap index stream: AVG and PAPER (S3)",
                ),
                "replay_deletions": execution.counter(
                    "replay_deletions",
                    "Answers the shared-trace replay settled with at least "
                    "one pop of their own subtree deleted (S2)",
                ),
                "trace_extension_pops": execution.counter(
                    "trace_extension_pops",
                    "Pops recorded past a shared trace's budget for answers "
                    "whose deletions left them short of it (S2)",
                ),
                "private_searches": execution.counter(
                    "private_searches",
                    "Answers validated by a private search because their "
                    "trace extension met an unknown predicate (S2)",
                ),
                "chain_expansions_live": execution.counter(
                    "chain_expansions_live",
                    "Chain-DFS path extensions the loop walked, tour "
                    "recordings included (S2)",
                ),
                "chain_expansions_replayed": execution.counter(
                    "chain_expansions_replayed",
                    "Chain-DFS path extensions settled from a shared hub "
                    "tour instead of walked (S2)",
                ),
                "chain_tour_replays": execution.counter(
                    "chain_tour_replays",
                    "Hub frames of the chain DFS settled from a tour (S2)",
                ),
                "chain_tour_records": execution.counter(
                    "chain_tour_records",
                    "Hub traversals of the chain DFS recorded as tours (S2)",
                ),
                "chain_tour_fallbacks": execution.counter(
                    "chain_tour_fallbacks",
                    "Hub frames that had a tour and were walked anyway: a "
                    "deleted on-path node was not float-neutral, or the "
                    "tour was shorter than the budget (S2)",
                ),
            }
        else:
            # keep the instrumentation-off hot path at one attribute check
            self._exec_metrics = None
        self._executor.obs_metrics = self._exec_metrics

    def _live_query_count(self) -> int:
        with self._condition:
            return sum(
                1 for record in self._records
                if record.status not in _TERMINAL
            )

    def _open_audit_sink(self, audit_log, audit_log_max_bytes=None) -> None:
        if audit_log_max_bytes is not None and audit_log_max_bytes < 1:
            raise ServiceError("audit_log_max_bytes must be >= 1")
        self._audit_lock = threading.Lock()
        self._audit_owns_sink = False
        self._audit_path = None
        self._audit_max_bytes = audit_log_max_bytes
        if audit_log is None:
            self._audit_sink = None
        elif hasattr(audit_log, "write"):
            # caller-owned stream: rotation needs a path, so max_bytes is
            # ignored here by design
            self._audit_sink = audit_log
        else:
            self._audit_path = os.fspath(audit_log)
            self._audit_sink = open(audit_log, "a", encoding="utf-8")
            self._audit_owns_sink = True

    def _rotate_audit_locked(self, pending_bytes: int) -> None:
        """Rotate the audit file to ``<path>.1`` when the next write would
        push it past ``audit_log_max_bytes``.  Caller holds
        ``self._audit_lock``; one rotated generation is kept."""
        if self._audit_max_bytes is None or self._audit_path is None:
            return
        size = self._audit_sink.tell()
        if size == 0 or size + pending_bytes <= self._audit_max_bytes:
            return
        self._audit_sink.close()
        os.replace(self._audit_path, self._audit_path + ".1")
        self._audit_sink = open(self._audit_path, "a", encoding="utf-8")

    def _settle_locked(self, record: _QueryRecord, status: QueryStatus) -> None:
        """Once-per-settlement bookkeeping: metrics, span end, audit line.

        Called under the service lock from the three settlement sites.
        ``record.audited`` makes it exactly-once per settlement; a refine
        that resurrects a succeeded query re-arms it.
        """
        if record.audited:
            return
        record.audited = True
        self._metric_settled[status].inc()
        if record.span is not None:
            record.span.annotate(status=status.value)
            record.span.end()
        if self._audit_sink is not None:
            try:
                line = json.dumps(
                    self._audit_line(record, status), allow_nan=False
                )
                with self._audit_lock:
                    self._rotate_audit_locked(len(line) + 1)
                    self._audit_sink.write(line + "\n")
                    self._audit_sink.flush()
            except Exception:  # noqa: BLE001 - a full disk must not
                pass  # take the scheduler (or the settling query) down

    def _audit_line(self, record: _QueryRecord, status: QueryStatus) -> dict:
        """One settled query as a JSON-clean audit record."""
        state = record.state
        result = record.result if status is QueryStatus.SUCCEEDED else None
        line: dict = {
            "ts": round(time.time(), 3),
            "sequence": record.sequence,
            "query": record.aggregate_query.describe(),
            "kind": record.kind,
            "backend": self._backend.name,
            "status": status.value,
            "seed": record.seed,
            "rounds": len(state.rounds) if state is not None else 0,
            "total_draws": state.total_draws if state is not None else 0,
            "retries": record.retries,
            "duration_ms": round(
                (time.perf_counter() - record.submitted_monotonic) * 1e3, 3
            ),
            "stage_ms": (
                {
                    stage: round(ms, 3)
                    for stage, ms in state.timers.as_dict_ms().items()
                }
                if state is not None
                else {}
            ),
        }
        if isinstance(result, GroupedResult):
            line["groups"] = result.num_groups
            line["converged"] = result.converged
            line["stop_reason"] = result.stop_reason
        elif isinstance(result, ApproximateResult):
            line["estimate"] = result.value
            # extreme results keep their honest no-CI sentinel: moe 0.0,
            # guaranteed False — JSON-clean, never NaN/inf
            line["moe"] = result.moe
            line["confidence"] = result.interval.confidence_level
            line["guaranteed"] = (
                result.rounds[-1].guaranteed if result.rounds else False
            )
            line["converged"] = result.converged
            line["stop_reason"] = result.stop_reason
        if status is QueryStatus.FAILED and record.exception is not None:
            error = record.exception
            line["error"] = f"{type(error).__name__}: {error}"
        return line

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def planner(self) -> QueryPlanner:
        """The planning layer every submitted query draws plans from."""
        return self._planner

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend running this service's scheduler slots."""
        return self._backend

    @property
    def limits(self) -> ServiceLimits:
        """The admission-control limits this service enforces."""
        return self._limits

    def health(self) -> dict:
        """A point-in-time snapshot of the service's resilience counters.

        Service-side: live queries, admission sheds, deadline expiries
        and the configured limits.  Backend-side (merged in): the
        backend name plus, for the processes backend, worker count and
        the respawn / retry / in-process-fallback counters the
        supervisor maintains.  Cheap enough to poll from a monitoring
        endpoint.
        """
        with self._condition:
            live_by_kind = dict.fromkeys(KINDS, 0)
            for record in self._records:
                if record.status not in _TERMINAL:
                    live_by_kind[record.kind] += 1
            info = {
                "closed": self._shutdown,
                "scheduler_phase": self._phase,
                "uptime_s": max(0.0, self._clock() - self._started_at),
                "live_queries": sum(live_by_kind.values()),
                "live_by_kind": live_by_kind,
                "sheds": int(self._metric_sheds.value),
                "deadline_expiries": int(self._metric_deadline_expiries.value),
                "max_pending": self._limits.max_pending,
                "max_queued_runs": self._limits.max_queued_runs,
            }
        info.update(self._backend.health())
        return info

    def submit(
        self,
        aggregate_query: AggregateQuery | str,
        *,
        error_bound: float | None = None,
        confidence: float | None = None,
        seed: int | None = None,
        max_rounds: int | None = None,
        deadline: float | None = None,
        start: bool = True,
    ) -> QueryHandle:
        """Register a query and return its handle immediately.

        ``error_bound`` / ``confidence`` default to the service config;
        ``seed`` overrides the config seed for this query only.
        ``deadline`` (seconds from now; default the service's
        ``default_deadline``) bounds the query's wall-clock budget: past
        it the scheduler abandons the run at the next round boundary and
        the query settles as :class:`DeadlineExceededError` carrying the
        anytime trace collected so far.  With ``start=False`` the query
        is initialised (S1 + initial sample) but no rounds run until
        :meth:`QueryHandle.refine` — the hook interactive sessions hang
        off.  Raises :class:`ServiceOverloadedError` when admission
        control (``limits.max_pending``) sheds the submission.
        """
        aggregate_query = self._coerce(aggregate_query)
        executor = self._executor_for(confidence)
        kind = kind_for(aggregate_query)
        if deadline is None:
            deadline = self._default_deadline
        with self._condition:
            if self._shutdown:
                raise ServiceError("the query service has been closed")
            limit = self._limits.max_pending
            if limit is not None:
                pending = sum(
                    1 for r in self._records if r.status not in _TERMINAL
                )
                if pending >= limit:
                    self._metric_sheds.inc()
                    raise ServiceOverloadedError(
                        f"service is serving {pending} live queries "
                        f"(max_pending={limit}); retry after backoff"
                    )
            record = _QueryRecord(
                sequence=self._sequence,
                aggregate_query=aggregate_query,
                seed=seed,
                executor=executor,
                kind=kind,
                deadline_at=(
                    None if deadline is None else self._clock() + deadline
                ),
            )
            record.submitted_monotonic = time.perf_counter()
            if self._obs_enabled:
                record.span = obs_trace.start_span(
                    "query",
                    query=aggregate_query.describe(),
                    kind=kind,
                    sequence=record.sequence,
                    seed=seed,
                )
            self._metric_submitted.inc()
            self._sequence += 1
            self._records.append(record)
            if start:
                record.queued_runs.append(
                    _Run(
                        error_bound=(
                            self.config.error_bound
                            if error_bound is None
                            else error_bound
                        ),
                        max_rounds=max_rounds,
                    )
                )
            self._condition.notify_all()
        self._ensure_scheduler()
        return QueryHandle(self, record)

    def submit_batch(
        self,
        queries,
        *,
        error_bound: float | None = None,
        confidence: float | None = None,
        seed: int | None = None,
        deadline: float | None = None,
    ) -> list[QueryHandle]:
        """Submit several queries at once; the scheduler interleaves them.

        ``queries`` is an iterable of :class:`AggregateQuery` (or AQL
        strings, or ``(query, seed)`` pairs to give each its own seed).
        Admission control applies per query: a shed raises
        :class:`ServiceOverloadedError` mid-batch, leaving the already
        accepted handles running undisturbed.
        """
        handles = []
        for entry in queries:
            query, query_seed = (
                entry if isinstance(entry, tuple) else (entry, seed)
            )
            handles.append(
                self.submit(
                    query,
                    error_bound=error_bound,
                    confidence=confidence,
                    seed=query_seed,
                    deadline=deadline,
                )
            )
        return handles

    def start(self) -> None:
        """Release a service constructed with ``autostart=False``."""
        with self._condition:
            self._autostart = True
        self._ensure_scheduler()

    def close(self) -> None:
        """Stop the scheduler; unfinished queries are cancelled.

        Shutdown ordering guarantees every live :class:`QueryHandle`
        settles: first all non-terminal records are cancelled (waking
        blocked ``result()`` callers), then the scheduler thread is
        joined, then a final sweep cancels anything a racing scheduler
        pass re-activated mid-close, and only then is the execution
        backend (worker pool, shared segments) torn down — a
        handle can end up ``SUCCEEDED`` (its round finished first) or
        ``CANCELLED``, but never stuck ``RUNNING``.

        If the scheduler thread fails to stop within its join timeout,
        close() raises :class:`ServiceError` naming the phase the thread
        is stuck in rather than silently leaking it — tearing down the
        backend under a live scheduler would turn one stuck thread into
        a corrupted pool.
        """
        with self._condition:
            self._shutdown = True
            for record in self._records:
                if record.status not in _TERMINAL:
                    self._finish_cancelled_locked(record)
            self._condition.notify_all()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=self._join_timeout)
            if thread.is_alive():
                raise ServiceError(
                    "the scheduler thread did not stop within "
                    f"{self._join_timeout:.1f}s (stuck in phase: "
                    f"{self._phase!r}); backend resources were left in "
                    "place — retry close() once the thread unblocks"
                )
        with self._condition:
            for record in self._records:
                if record.status not in _TERMINAL:
                    self._finish_cancelled_locked(record)
            self._condition.notify_all()
        self._backend.close()
        if self._audit_owns_sink and self._audit_sink is not None:
            with self._audit_lock:
                self._audit_sink.close()
                self._audit_sink = None
        # a closed service must be plain garbage, not cyclic garbage: the
        # registry's read-through gauges hold callables that lead back to
        # it; the joined scheduler thread goes with them
        with self._condition:
            mirrors, self._mirrors = self._mirrors, []
            self._thread = None
        for gauge, provider in mirrors:
            gauge.freeze(provider)

    def __enter__(self) -> "AggregateQueryService":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals shared with handles
    # ------------------------------------------------------------------
    def _coerce(self, aggregate_query: AggregateQuery | str) -> AggregateQuery:
        if isinstance(aggregate_query, str):
            from repro.query.parser import parse_query

            return parse_query(aggregate_query)
        return aggregate_query

    def _executor_for(self, confidence: float | None) -> QueryExecutor:
        """The default executor, or one with a per-query confidence level.

        Confidence only affects the BLB interval (S3), never S1, so the
        override executor still shares the service's planner — and with
        it every cached plan and verdict memo.
        """
        if confidence is None or confidence == self.config.confidence_level:
            return self._executor
        executor = QueryExecutor(
            self._kg,
            self._space,
            self.config.with_(confidence_level=confidence),
            self._planner,
        )
        if self._fault_plan is not None:
            executor.fault_hook = self._fault_plan
        return executor

    def _queue_run(
        self,
        record: _QueryRecord,
        error_bound: float,
        max_rounds: int | None,
    ) -> QueryHandle:
        if record.kind != KIND_ROUNDS:
            raise ServiceError(
                "refine() needs a guaranteed ungrouped aggregate "
                "(COUNT, SUM or AVG without GROUP BY)"
            )
        with self._condition:
            if self._shutdown:
                raise ServiceError("the query service has been closed")
            if record.status in (QueryStatus.FAILED, QueryStatus.CANCELLED):
                raise ServiceError(
                    f"cannot refine a {record.status.value} query"
                )
            limit = self._limits.max_queued_runs
            if limit is not None:
                backlog = len(record.queued_runs) + (
                    1 if record.active_run is not None else 0
                )
                if backlog >= limit:
                    self._metric_sheds.inc()
                    raise ServiceOverloadedError(
                        f"query #{record.sequence} already has {backlog} "
                        f"queued/active runs (max_queued_runs={limit}); "
                        "wait for the backlog to drain"
                    )
            record.queued_runs.append(
                _Run(error_bound=error_bound, max_rounds=max_rounds)
            )
            if record.status is QueryStatus.SUCCEEDED:
                record.status = QueryStatus.RUNNING
                # the refined query will settle (and be audited) again
                record.audited = False
            if record not in self._records:
                # the scheduler pruned this record after it finished;
                # refining resurrects it into the live set
                self._records.append(record)
            self._condition.notify_all()
        self._ensure_scheduler()
        return QueryHandle(self, record)

    def _cancel(self, record: _QueryRecord) -> bool:
        with self._condition:
            if record.status in _TERMINAL:
                return False
            record.cancel_requested = True
            if record.active_run is None and record.status in (
                QueryStatus.PENDING,
                QueryStatus.READY,
            ):
                # nothing is mid-flight: cancel right here, no scheduler
                # round-trip (works even on a not-yet-started service)
                self._finish_cancelled_locked(record)
            self._condition.notify_all()
        return True

    @staticmethod
    def _notify(record: _QueryRecord, event: str, payload) -> None:
        """Deliver one lifecycle event to the record's listeners.

        Listeners are called synchronously (round events from the slot
        that completed the round, settlement events possibly under the
        service lock), so they must be non-blocking; exceptions are
        swallowed — a broken subscriber must never corrupt scheduling.
        """
        for listener in list(record.listeners):
            try:
                listener(event, payload)
            except Exception:  # noqa: BLE001 - listener bugs stay theirs
                pass

    def _finish_cancelled_locked(self, record: _QueryRecord) -> None:
        record.cancel_requested = True
        record.queued_runs.clear()
        record.active_run = None
        record.status = QueryStatus.CANCELLED
        self._notify(record, "settled", QueryStatus.CANCELLED)
        self._settle_locked(record, QueryStatus.CANCELLED)
        self._condition.notify_all()

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _set_phase(self, phase: str) -> None:
        """Publish the scheduler's phase for health() readers."""
        with self._condition:
            self._phase = phase

    def _ensure_scheduler(self) -> None:
        if not self._autostart or self._shutdown:
            return
        with self._condition:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop,
                    name=f"repro-query-service-{id(self):x}",
                    daemon=True,
                )
                self._thread.start()

    def _has_work_locked(self) -> bool:
        for record in self._records:
            if record.status in _TERMINAL:
                continue
            if record.cancel_requested or record.state is None:
                return True
            if record.active_run is not None or record.queued_runs:
                return True
        return False

    def _loop(self) -> None:
        while True:
            with self._condition:
                self._phase = "idle"
                while not self._shutdown and not self._has_work_locked():
                    self._condition.wait()
                if self._shutdown:
                    return
            try:
                self._tick()
            except BaseException as exc:  # pragma: no cover - defensive
                # A scheduler bug must never strand blocked result()
                # callers: fail every live query loudly and keep serving.
                with self._condition:
                    for record in self._records:
                        if record.status not in _TERMINAL:
                            self._finish_failed_locked(record, exc)

    def _finish_failed_locked(
        self, record: _QueryRecord, exc: BaseException
    ) -> None:
        record.exception = exc
        record.queued_runs.clear()
        record.active_run = None
        record.status = QueryStatus.FAILED
        self._notify(record, "settled", QueryStatus.FAILED)
        self._settle_locked(record, QueryStatus.FAILED)
        self._condition.notify_all()

    def _tick(self) -> None:
        """One scheduler pass: cancellations, deadlines, inits, one step per
        cohort member."""
        self._set_phase("cancellation/deadline sweep")
        with self._condition:
            live = [r for r in self._records if r.status not in _TERMINAL]
            for record in live:
                if record.cancel_requested:
                    self._finish_cancelled_locked(record)
            # deadline sweep: round boundaries are the cooperative
            # preemption points, so an expired query settles here — its
            # anytime trace travels inside the error, preserving the
            # loosest guaranteed estimate + CI the rounds produced
            now = self._clock()
            for record in live:
                if (
                    record.deadline_at is not None
                    and record.status not in _TERMINAL
                    and now >= record.deadline_at
                ):
                    trace = (
                        tuple(record.state.rounds)
                        if record.state is not None
                        else ()
                    )
                    self._metric_deadline_expiries.inc()
                    self._finish_failed_locked(
                        record,
                        DeadlineExceededError(
                            f"query #{record.sequence} exceeded its "
                            f"deadline after {len(trace)} completed "
                            "round(s)",
                            trace=trace,
                        ),
                    )
            live = [r for r in live if r.status not in _TERMINAL]
            # prune finished records: handles keep their record alive for
            # result()/progress(), but the scheduler must not retain every
            # query state ever served (engine.execute submits one per
            # call) nor rescan them each pass; refine() re-registers
            self._records = list(live)
            for record in live:
                if record.active_run is None and record.queued_runs:
                    record.active_run = record.queued_runs.popleft()
                    record.status = QueryStatus.RUNNING
            to_init = [r for r in live if r.state is None]

        self._set_phase("initialise (S1)")
        for record in to_init:
            self._initialise(record)

        # the overhead clock starts after initialisation: S1 + initial
        # draws are already timed inside each state's own stage buckets
        overhead_timer = time.perf_counter()
        with self._condition:
            cohort = [
                r
                for r in self._records
                if r.status is QueryStatus.RUNNING
                and r.active_run is not None
                and r.state is not None
                and not r.cancel_requested
            ]
            # Budget-aware round-robin: the query with the fewest
            # completed rounds steps first; submission order breaks ties.
            cohort.sort(key=lambda r: (len(r.state.rounds), r.sequence))

        self._set_phase("prewarm (cross-query validation)")
        prewarm_started = time.perf_counter()
        self._prewarm_cohort(cohort)
        prewarm_seconds = time.perf_counter() - prewarm_started
        if cohort:
            overhead = time.perf_counter() - overhead_timer - prewarm_seconds
            for record in cohort:
                self._attribute_stage(
                    record.state, STAGE_SCHEDULER, overhead / len(cohort)
                )

        self._set_phase("execute cohort")
        self._backend.run_cohort(self, cohort)

    def _initialise(self, record: _QueryRecord) -> None:
        """Run S1 + the initial BLB draws for one record."""
        try:
            with obs_trace.activate(record.span):
                state = record.executor.initialise(
                    record.aggregate_query, record.seed
                )
        except BaseException as exc:
            with self._condition:
                if record.status not in _TERMINAL:
                    self._finish_failed_locked(record, exc)
            return
        # make serving overhead attributable from the very first result
        state.timers.stages.setdefault(STAGE_SCHEDULER, Timer())
        with self._condition:
            if record.status in _TERMINAL:
                # a cancel (or service close) landed while S1 ran: keep
                # the terminal status — resurrecting the record here left
                # handles stranded in READY/RUNNING forever
                return
            record.state = state
            if record.active_run is None and not record.queued_runs:
                record.status = QueryStatus.READY
            self._condition.notify_all()

    def _prewarm_cohort(self, cohort: list[_QueryRecord]) -> None:
        """Cross-query validation batching: one pass per shared plan.

        Unions the pending correctness searches of every cohort member
        sharing a plan and fills the plan's verdict memo in one
        ``validate_batch`` call; the members' own validation passes then
        hit the memo.  Only plans shared by >= 2 queries are pre-warmed —
        a lone query's batch inside :meth:`QueryExecutor.step` is already
        one pass.  The batches of distinct plans are independent, so they
        are handed to the execution backend as jobs (the parallel
        backends run them concurrently); each job's seconds are
        attributed to its participants' ``validation`` stage.  All kinds
        participate: grouped and extreme queries validate answers through
        the same per-plan memos as guaranteed aggregates.
        """
        candidates = list(cohort)
        if len(candidates) < 2:
            return
        # find plans shared by >= 2 queries first: only their members'
        # pending answers are worth collecting — a query sharing no plan
        # validates its own batch in one pass inside its step
        members: dict[int, tuple[QueryPlan, list[_QueryRecord]]] = {}
        for record in candidates:
            assert record.state is not None
            for plan in record.state.components:
                members.setdefault(id(plan), (plan, []))[1].append(record)
        shared = {
            plan_id: (plan, records)
            for plan_id, (plan, records) in members.items()
            if len(records) >= 2
        }
        if not shared:
            return
        pending_by_record: dict[int, list[int]] = {}
        for _plan, records in shared.values():
            for record in records:
                if id(record) not in pending_by_record:
                    pending_by_record[id(record)] = (
                        record.executor.pending_validation_nodes(record.state)
                    )
        jobs: list[_PrewarmJob] = []
        for plan, records in shared.values():
            nodes: list[int] = []
            states = []
            for record in records:
                pending = pending_by_record[id(record)]
                if pending:
                    nodes.extend(pending)
                    states.append(record.state)
            if not nodes:
                continue
            jobs.append(
                _PrewarmJob(
                    plan=plan,
                    executor=records[0].executor,
                    nodes=nodes,
                    states=states,
                )
            )
        if not jobs:
            return
        for job, elapsed in zip(jobs, self._backend.run_prewarm(self, jobs)):
            for state in job.states:
                self._attribute_stage(
                    state, STAGE_VALIDATION, elapsed / len(job.states)
                )

    @staticmethod
    def _attribute_stage(state, stage: str, seconds: float) -> None:
        """Credit scheduler-side work to a state's stage bucket."""
        state.timers.stages.setdefault(stage, Timer()).elapsed += seconds

    # -- slot primitives shared with the execution backends -------------
    def _begin_slot(self, record: _QueryRecord):
        """``(run, state)`` for a record about to be stepped, or ``None``.

        Re-checked under the lock: a cancel/close may have landed between
        cohort selection and this slot.
        """
        with self._condition:
            run = record.active_run
            state = record.state
            if run is None or state is None or record.cancel_requested:
                return None
            return run, state

    def _grow_for_run(self, record: _QueryRecord, run: _Run, state) -> float:
        """Growth before a non-first round; returns its seconds.

        Growth draws from the state's own RNG.  It always runs in the
        parent process, in whichever slot owns the state this pass —
        worker *processes* receive the already-grown sample, which is
        what keeps fixed-seed draw sequences identical across backends.
        How a sample grows from the previous round's trace is the
        executor's business (:meth:`QueryExecutor.grow`).
        """
        if run.steps_taken == 0:
            return 0.0
        grow_started = time.perf_counter()
        record.executor.grow(state, state.rounds[-1], run.error_bound)
        return time.perf_counter() - grow_started

    def _finish_slot(
        self, record: _QueryRecord, run: _Run, state, outcome
    ) -> None:
        """Apply one round's outcome to the run's completion bookkeeping.

        A run completes when its round satisfied the stop condition,
        when the sample is exhausted, or when the round budget — the
        run's own ``max_rounds``, else :meth:`QueryExecutor.round_budget`
        — is spent; :meth:`QueryExecutor.finalise` then packages it.
        """
        run.steps_taken += 1
        self._metric_rounds.inc()
        self._metric_round_seconds.observe(outcome.trace.seconds)
        # push the fresh anytime trace entry to subscribers (SSE streams)
        # before any completion bookkeeping, so round events always
        # precede the settlement event
        self._notify(
            record, "round", (len(state.rounds) - 1, outcome.trace)
        )
        budget = (
            run.max_rounds
            if run.max_rounds is not None
            else record.executor.round_budget(state)
        )
        if (
            outcome.satisfied
            or outcome.exhausted
            or run.steps_taken >= budget
        ):
            self._complete_run(
                record,
                record.executor.finalise(state, converged=outcome.satisfied),
            )

    def _fail_record(self, record: _QueryRecord, exc: BaseException) -> None:
        """Fail one record (backend-facing wrapper taking the lock)."""
        with self._condition:
            if record.status not in _TERMINAL:
                self._finish_failed_locked(record, exc)

    def _step_record_safely(self, record: _QueryRecord) -> None:
        """One slot with failures contained to the record (backend entry)."""
        try:
            self._step_record(record)
        except BaseException as exc:
            self._fail_record(record, exc)

    def _step_record(self, record: _QueryRecord) -> None:
        """Advance one record by exactly one round, in this thread.

        The slot — grow, step, finish — is the one driver of the
        executor's round lifecycle, the same for every kind, so grouped
        and extreme queries interleave with plain aggregates, observe
        cancellation between rounds, and grow their anytime trace like
        every other query.
        """
        slot = self._begin_slot(record)
        if slot is None:
            return
        run, state = slot
        fault_plan = self._backend.fault_plan
        if fault_plan is not None:
            fault_plan.fire(
                "slot",
                sequence=record.sequence,
                round=run.steps_taken + 1,
                kind=record.kind,
            )
        with obs_trace.activate(record.span), obs_trace.child_span(
            "round", kind=record.kind, round_index=run.steps_taken + 1
        ):
            grow_seconds = self._grow_for_run(record, run, state)
            outcome = record.executor.step(
                state, run.error_bound, carried_seconds=grow_seconds
            )
        self._finish_slot(record, run, state, outcome)

    def _complete_run(self, record: _QueryRecord, result) -> None:
        with self._condition:
            if record.status in _TERMINAL:
                return
            record.result = result
            record.active_run = None
            if not record.queued_runs and not record.cancel_requested:
                record.status = QueryStatus.SUCCEEDED
                self._notify(record, "settled", QueryStatus.SUCCEEDED)
                self._settle_locked(record, QueryStatus.SUCCEEDED)
            self._condition.notify_all()
