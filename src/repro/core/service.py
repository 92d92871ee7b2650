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

* **Shared plans** — all queries take their plans (a mapping node and a
  validator per component) from the process-wide
  :class:`~repro.core.plan.PlanCache` through one planner, and
  :meth:`PlanCache.get_or_build` guarantees each (component, config) plan
  is built exactly once no matter how many queries need it concurrently.
* **Per-plan verdict memos** — a shared plan's validator is its one
  verdict memo (the exact similarity row of a simple or a chain
  component), built by the first query that validates and read by every
  later one.  Outcomes are deterministic per answer,
  so results stay byte-identical to sequential execution.
* **Round interleaving** — the scheduler is round-robin with
  budget-aware priority (queries with the fewest completed rounds step
  first, a record not yet initialised counting 0), so a batch of
  queries makes even progress and early convergers free their slot
  immediately.  A pass is one locked section — settle cancels and
  expired deadlines, prune, pick and order the cohort — then one slot
  per cohort record (``_step_record``, in ``_run_cohort``).  The slot is
  the only driver of the executor's initialise/step/finalise lifecycle:
  a record's first slot initialises it, then every slot steps the head
  of the record's run queue, notifies a round the step appended and
  finalises once a step names why the run stops, so a query settles in
  its own slot, before the next record's initialisation starts.  It
  never asks what kind of query it is stepping (``kind`` is a label for
  metrics, ``/healthz`` and the audit line), so GROUP-BY and MAX/MIN
  queries interleave with plain ones, observe cancellation between
  rounds, and expose a non-empty anytime trace.  A query ends one way,
  ``_settle_locked``, whether it succeeded, failed or was cancelled.

Everything mutable about one query lives in its
:class:`~repro.core.executor._QueryState` (a per-query ``confidence``
included), everything compiled for a component on its plan, so one
executor, holding neither, serves every query; the scheduler thread steps
every cohort member itself, one slot per record per pass, so states need
no locking.  Each state owns its RNG and validation/estimation/guarantee
are deterministic, so a fixed seed gives byte-identical results however
queries interleave.  A query starts one way — :meth:`submit` queues its
first run — and the paper's interactive refinement (Fig. 6(a)) is
``handle.refine(eb).result()`` on that handle;
``ApproximateAggregateEngine.execute`` is a thin synchronous wrapper over
:meth:`submit`.
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
    QueryExecutor,
    _QueryState,
    kind_for,
)
from repro.core.planner import QueryPlanner
from repro.core.resilience import FaultPlan, ServiceLimits
from repro.core.result import ApproximateResult, GroupedResult, RoundTrace
from repro.embedding.base import PredicateEmbedding
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import (
    DeadlineExceededError,
    QueryCancelledError,
    QueryError,
    ResultTimeoutError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.kg.graph import KnowledgeGraph
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.query.aggregate import AggregateQuery

__all__ = [
    "AggregateQueryService",
    "QueryHandle",
    "QueryStatus",
]


class QueryStatus(enum.Enum):
    """Lifecycle of a submitted query."""

    PENDING = "pending"  # submitted, no scheduler pass has picked it yet
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
    steps_taken: int = 0


def _shown(value) -> str:
    """``repr(value)`` for an error message, but an integer past the
    interpreter's digit limit, which has no ``repr``, by its size."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _require_error_bound(error_bound: float) -> None:
    """:class:`QueryError` unless a per-query ``error_bound`` lies in
    (0, 1), the range :class:`EngineConfig` takes (NaN included: a census
    would answer it, a sampled run fail at its first growth)."""
    if not 0.0 < error_bound < 1.0:
        raise QueryError(
            f"error_bound must be in (0, 1), got {_shown(error_bound)}"
        )


def _require_deadline(deadline: float | None, name: str = "deadline") -> None:
    """:class:`QueryError` unless ``deadline`` is None or a number >= 0
    that a float holds (a NaN deadline would never expire, and an integer
    past the float range would overflow the clock it is added to)."""
    if deadline is None:
        return
    if deadline >= 0.0:
        try:
            float(deadline)
            return
        except OverflowError:
            pass
    raise QueryError(f"{name} must be a number >= 0, got {_shown(deadline)}")


@dataclass(eq=False)  # identity semantics: records live in the scheduler list
class _QueryRecord:
    """Everything the scheduler tracks about one submitted query."""

    sequence: int
    aggregate_query: AggregateQuery
    seed: int | None
    #: per-query confidence level; None = the service config's
    confidence: float | None
    kind: str
    status: QueryStatus = QueryStatus.PENDING
    state: _QueryState | None = None
    #: the record's runs (execute, then each refine); the slot steps the head
    runs: deque[_Run] = field(default_factory=deque)
    #: the ``scheduler`` share of the pass that picked the record before its
    #: first slot initialised it; that slot adds it to the fresh state
    pending_share: float = 0.0
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
    #: perf_counter at submit, for the audit line's duration_ms
    submitted_monotonic: float = field(default_factory=time.perf_counter)


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
        of) one shared exception object.
        """
        record = self._record
        with self._service._condition:
            finished = self._service._condition.wait_for(
                lambda: record.status in _TERMINAL, timeout
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

        The scheduler grows the tree at the existing seams —
        ``initialise``/``plan_build`` and one ``round`` child per slot: a
        census round holds one leaf ``census`` span, a sampled round its
        ``validate_batch`` children — and the tree stays readable after
        settlement.  ``None`` when the service was
        built with observability disabled (``registry=NULL_REGISTRY``).
        """
        span = self._record.span
        return span.as_dict() if span is not None else None

    def refine(self, error_bound: float) -> "QueryHandle":
        """Queue another Theorem-2 run against ``error_bound``.

        All draws and verdicts collected so far are reused — tightening
        the bound only costs the incremental sampling Eq. 12 asks for,
        exactly the paper's interactive-refinement behaviour.  A census
        is exact already: its refine re-finalises the same result and
        adds no round; only a sampled run grows.  Returns
        ``self`` so ``handle.refine(0.01).result()`` reads naturally.
        An ``error_bound`` outside (0, 1) raises :class:`QueryError`
        before any run is queued.
        """
        _require_error_bound(error_bound)
        return self._service._queue_run(self._record, error_bound)

    def cancel(self) -> bool:
        """Request cancellation; True unless the query already finished.

        Pending queries are cancelled immediately; a running
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


class AggregateQueryService:
    """Async, batch-first serving facade over the plan/execute split.

    One service owns one scheduler thread; :meth:`submit` and
    :meth:`submit_batch` enqueue queries from any thread and return
    handles immediately.  Construct with ``autostart=False`` to hold all
    submissions until :meth:`start` — useful for assembling a batch (or
    testing pending-state semantics) before any work begins.

    ``planner``/``executor`` share an engine's layers.
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
        limits: ServiceLimits | None = None,
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
        self._limits = limits if limits is not None else ServiceLimits()
        _require_deadline(default_deadline, "default_deadline")
        self._default_deadline = default_deadline
        #: fault-injection schedule; None in production (hooks are inert)
        self._fault_plan = fault_plan
        #: monkeypatchable monotonic clock read at submit and round
        #: boundaries — deadline tests drive it instead of sleeping
        self._clock = time.monotonic
        #: service birth on the same clock; health() reports the delta
        self._started_at = self._clock()
        self._register_instruments()
        if fault_plan is not None:
            # the instance attribute shadows the inert class-level None
            self._executor.fault_hook = fault_plan
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
        polling ``health()`` from another thread safe.
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
                    "builds", "Plans built by this service's planner"
                ),
                lambda: self._planner.build_count,
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
        # the executor registers what it increments; with obs off it
        # counts nothing
        self._executor.obs_metrics = None
        if self._obs_enabled:
            self._executor.register_metrics(self.registry)

    def _live_query_count(self) -> int:
        with self._condition:
            return len(self._live_locked())

    def _live_locked(self) -> list[_QueryRecord]:
        """The records not yet settled, in submission order.  Caller holds
        the service lock."""
        return [r for r in self._records if r.status not in _TERMINAL]

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
            if audit_log_max_bytes is not None:
                raise ServiceError(
                    "audit_log_max_bytes needs a file path to rotate; a "
                    "caller-owned stream cannot be rotated"
                )
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

    def _settle_locked(
        self,
        record: _QueryRecord,
        status: QueryStatus,
        *,
        exception: BaseException | None = None,
    ) -> None:
        """Settle a live record as terminal ``status``; the one settlement
        path (success, failure with ``exception``, cancellation).

        Drops the record's runs, fires ``("settled", status)`` once,
        counts it, ends the span, writes one audit line and wakes every
        waiter.  A record already settled is left alone, so each
        settlement happens exactly once; a refine that resurrects a
        succeeded record makes it live, and settleable, again.  Caller
        holds the service lock.
        """
        if record.status in _TERMINAL:
            return
        record.status = status
        if exception is not None:
            record.exception = exception
        record.runs.clear()
        self._notify(record, "settled", status)
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
        self._condition.notify_all()

    def _audit_line(self, record: _QueryRecord, status: QueryStatus) -> dict:
        """One settled query as a JSON-clean audit record."""
        state = record.state
        result = record.result if status is QueryStatus.SUCCEEDED else None
        line: dict = {
            "ts": round(time.time(), 3),
            "sequence": record.sequence,
            "query": record.aggregate_query.describe(),
            "kind": record.kind,
            "status": status.value,
            "seed": record.seed,
            "rounds": len(state.rounds) if state is not None else 0,
            "total_draws": state.total_draws if state is not None else 0,
            "duration_ms": round(
                (time.perf_counter() - record.submitted_monotonic) * 1e3, 3
            ),
            "stage_ms": (
                {
                    stage: round(seconds * 1000.0, 3)
                    for stage, seconds in state.timers.items()
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
    def limits(self) -> ServiceLimits:
        """The admission-control limits this service enforces."""
        return self._limits

    def health(self) -> dict:
        """A point-in-time snapshot of the service's resilience counters.

        Live queries (total and per kind), admission sheds, deadline
        expiries, the configured limits, uptime and the scheduler's
        current phase.  Cheap enough to poll from a monitoring endpoint.
        """
        with self._condition:
            live_by_kind = dict.fromkeys(KINDS, 0)
            for record in self._live_locked():
                live_by_kind[record.kind] += 1
            return {
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

    def submit(
        self,
        aggregate_query: AggregateQuery | str,
        *,
        error_bound: float | None = None,
        confidence: float | None = None,
        seed: int | None = None,
        deadline: float | None = None,
    ) -> QueryHandle:
        """Register a query and return its handle immediately.

        ``error_bound`` / ``confidence`` default to the service config
        (one outside (0, 1) raises :class:`QueryError`); ``seed``
        overrides the config seed for this query only.  ``deadline``
        (seconds from now, a number >= 0, else :class:`QueryError`;
        default the service's ``default_deadline``) bounds the query's
        wall-clock budget: past it the scheduler abandons the run at the
        next round boundary and the query settles as
        :class:`DeadlineExceededError` carrying the anytime trace
        collected so far.  The handle's first run is queued here;
        :meth:`QueryHandle.refine` queues each later one.  Raises
        :class:`ServiceOverloadedError` when admission control
        (``limits.max_pending``) sheds the submission.
        """
        if isinstance(aggregate_query, str):
            from repro.query.parser import parse_query

            aggregate_query = parse_query(aggregate_query)
        if error_bound is not None:
            _require_error_bound(error_bound)
        if confidence is not None and not 0.0 < confidence < 1.0:
            raise QueryError("confidence_level must be in (0, 1)")
        _require_deadline(deadline)
        kind = kind_for(aggregate_query)
        if deadline is None:
            deadline = self._default_deadline
        with self._condition:
            if self._shutdown:
                raise ServiceError("the query service has been closed")
            limit = self._limits.max_pending
            if limit is not None:
                pending = len(self._live_locked())
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
                confidence=confidence,
                kind=kind,
                deadline_at=(
                    None if deadline is None else self._clock() + deadline
                ),
            )
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
            record.runs.append(
                _Run(self.config.error_bound if error_bound is None else error_bound)
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
        pass re-activated mid-close, and only then is the audit sink
        closed — a handle can end up ``SUCCEEDED`` (its round finished
        first) or ``CANCELLED``, but never stuck ``RUNNING``.

        If the scheduler thread fails to stop within its join timeout,
        close() raises :class:`ServiceError` naming the phase the thread
        is stuck in rather than silently leaking it.
        """
        with self._condition:
            self._shutdown = True
            for record in self._live_locked():
                self._settle_locked(record, QueryStatus.CANCELLED)
            self._condition.notify_all()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=self._join_timeout)
            if thread.is_alive():
                raise ServiceError(
                    "the scheduler thread did not stop within "
                    f"{self._join_timeout:.1f}s (stuck in phase: "
                    f"{self._phase!r}); retry close() once the thread "
                    "unblocks"
                )
        with self._condition:
            for record in self._live_locked():
                self._settle_locked(record, QueryStatus.CANCELLED)
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
    def _queue_run(self, record: _QueryRecord, error_bound: float) -> QueryHandle:
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
                backlog = len(record.runs)
                if backlog >= limit:
                    self._metric_sheds.inc()
                    raise ServiceOverloadedError(
                        f"query #{record.sequence} already has {backlog} "
                        f"queued/active runs (max_queued_runs={limit}); "
                        "wait for the backlog to drain"
                    )
            record.runs.append(_Run(error_bound))
            if record.status is QueryStatus.SUCCEEDED:
                # the refined query will settle (and be audited) again
                record.status = QueryStatus.RUNNING
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
            if record.status is QueryStatus.PENDING:
                # no pass has picked it up: cancel right here, no scheduler
                # round-trip (works even on a not-yet-started service)
                self._settle_locked(record, QueryStatus.CANCELLED)
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

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
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

    def _loop(self) -> None:
        while True:
            with self._condition:
                self._phase = "idle"
                # a live record always has work — a run, whose slot
                # initialises the record first if need be, or a pending
                # cancel: see _complete_run
                while not self._shutdown and not self._live_locked():
                    self._condition.wait()
                if self._shutdown:
                    return
            try:
                self._tick()
            except BaseException as exc:  # pragma: no cover - defensive
                # A scheduler bug must never strand blocked result()
                # callers: fail every live query loudly and keep serving.
                with self._condition:
                    for record in self._live_locked():
                        self._settle_locked(record, QueryStatus.FAILED, exception=exc)

    def _tick(self) -> None:
        """One scheduler pass: one locked section settles cancellations
        and deadlines, prunes and picks the cohort; then one slot per
        cohort member."""
        with self._condition:
            self._phase = "cancellation/deadline sweep"
            # round boundaries are the cooperative preemption points: a
            # pending cancel settles here, and so does an expired query,
            # whose anytime trace travels inside the error, preserving the
            # loosest guaranteed estimate + CI the rounds produced
            now = self._clock()
            for record in self._live_locked():
                if record.cancel_requested:
                    self._settle_locked(record, QueryStatus.CANCELLED)
                elif record.deadline_at is not None and now >= record.deadline_at:
                    state = record.state
                    trace = tuple(state.rounds) if state is not None else ()
                    self._metric_deadline_expiries.inc()
                    self._settle_locked(
                        record,
                        QueryStatus.FAILED,
                        exception=DeadlineExceededError(
                            f"query #{record.sequence} exceeded its "
                            f"deadline after {len(trace)} completed "
                            "round(s)",
                            trace=trace,
                        ),
                    )
            # prune finished records: handles keep their record alive for
            # result()/progress(), but the scheduler must not retain every
            # query state ever served (engine.execute submits one per
            # call) nor rescan them each pass; refine() re-registers
            self._records = live = self._live_locked()
            # every live record is cohort now: the sweep settled each
            # pending cancel, and a live record always has a run
            overhead_started = time.perf_counter()
            for record in live:
                record.status = QueryStatus.RUNNING
            # Budget-aware round-robin: the query with the fewest
            # completed rounds (0 before its first slot) steps first;
            # submission order breaks ties.
            cohort = sorted(live, key=lambda r: (
                len(r.state.rounds) if r.state else 0, r.sequence))
            self._phase = "execute cohort"

        if cohort:
            share = (time.perf_counter() - overhead_started) / len(cohort)
            for record in cohort:
                if record.state is None:
                    record.pending_share = share
                else:
                    record.state.timers[STAGE_SCHEDULER] += share

        self._run_cohort(cohort)

    # -- the slot: one round of one record ------------------------------
    def _run_cohort(self, cohort: list[_QueryRecord]) -> None:
        """Advance every cohort record by one slot, in order, a failure
        settling only its own record.

        Tests wrap this method on the instance to stall a pass, step a
        fake clock after it or hold it open, without touching the slot.
        """
        for record in cohort:
            try:
                self._step_record(record)
            except BaseException as exc:
                with self._condition:
                    self._settle_locked(record, QueryStatus.FAILED, exception=exc)

    def _step_record(self, record: _QueryRecord) -> None:
        """Advance one record by exactly one round, in this thread.

        The slot is the one driver of a record's lifecycle, the same for
        every kind.  A record's first slot initialises its state (plans,
        candidates or draws: :meth:`QueryExecutor.initialise`); then each
        slot steps the head run, counts and notifies the round if the
        step appended one, and once the step names a ``stop_reason``
        completes the run with what :meth:`QueryExecutor.finalise`
        packages.  So a query settles in its own slot, and grouped and
        extreme queries interleave with plain aggregates, observe
        cancellation between rounds, and grow their anytime trace like
        every other query.  Whether the sample grows first and whether
        the run ends there is the executor's business
        (:meth:`QueryExecutor.step`, told the round).
        """
        # re-checked under the lock: a cancel/close may have landed
        # between cohort selection and this slot
        with self._condition:
            if not record.runs or record.cancel_requested:
                return
            run = record.runs[0]
            state = record.state
        if state is None:
            with obs_trace.Clock(parent=record.span):
                state = self._executor.initialise(
                    record.aggregate_query, record.seed, confidence=record.confidence
                )
            # make serving overhead attributable from the very first result
            state.timers.setdefault(STAGE_SCHEDULER, 0.0)
            state.timers[STAGE_SCHEDULER] += record.pending_share
            with self._condition:
                if record.status in _TERMINAL:
                    # close() landed while it planned: keep the terminal
                    # status — resurrecting the record here left handles
                    # stranded in RUNNING forever
                    return
                record.state = state
                if record.cancel_requested:
                    return  # the next sweep settles it
        round_index = run.steps_taken + 1
        fault_plan = self._fault_plan
        if fault_plan is not None:
            fault_plan.fire(
                "slot", sequence=record.sequence, round=round_index, kind=record.kind
            )
        rounds_before = len(state.rounds)
        with obs_trace.Clock(
            "round", parent=record.span, kind=record.kind, round_index=round_index
        ):
            outcome = self._executor.step(
                state, run.error_bound, run_round=round_index
            )
        run.steps_taken = round_index
        if len(state.rounds) > rounds_before:
            # a census refine re-emits its one round: nothing ran, so
            # nothing is counted or pushed.  Subscribers (SSE streams) get
            # the fresh anytime trace entry before any completion
            # bookkeeping, so round events always precede the settlement
            self._metric_round_seconds.observe(outcome.trace.seconds)
            self._notify(
                record, "round", (len(state.rounds) - 1, outcome.trace)
            )
        if outcome.stop_reason is not None:
            self._complete_run(record, self._executor.finalise(state, outcome))

    def _complete_run(self, record: _QueryRecord, result) -> None:
        """Store a finished run's result and drop the run; settle the
        record as succeeded unless another run is queued or a cancel is
        pending.

        This keeps the invariant the scheduler's idle wait relies on: a
        live record always has a run (whose slot initialises the record
        first if it has no state yet) or a pending cancel, so it is work
        for the next pass.
        """
        with self._condition:
            if record.status in _TERMINAL:
                return
            record.result = result
            record.runs.popleft()
            if not record.runs and not record.cancel_requested:
                self._settle_locked(record, QueryStatus.SUCCEEDED)
