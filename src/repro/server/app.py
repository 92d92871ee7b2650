"""``repro.server`` — the HTTP/SSE front-end over :class:`AggregateQueryService`.

This is the step from "library" to "network service": one long-lived
:class:`~repro.core.service.AggregateQueryService` wrapped in a
dependency-free HTTP/1.1 server (stdlib ``asyncio`` only), so the
engine's *anytime* contract — a per-round estimate + CI that tightens
until the Theorem-2 guarantee holds — becomes a streaming payload any
HTTP client can consume.

Endpoints
---------

==========================================  =====================================
``POST /v1/queries``                        submit one AQL query -> ``202`` + id
``POST /v1/queries:batch``                  submit many; per-entry outcomes
``GET /v1/queries/{id}``                    status + latest anytime estimate
``GET /v1/queries/{id}/events``             SSE: one ``round`` event per
                                            completed round, then a terminal
                                            ``result`` / ``error`` /
                                            ``cancelled`` event
``POST /v1/queries/{id}/refine``            queue another run at a new bound
``DELETE /v1/queries/{id}``                 cancel
``GET /healthz``                            ``service.health()`` + server counters
``GET /metrics``                            Prometheus text exposition of the
                                            service's observability registry
==========================================  =====================================

SSE streams are *push*, not poll: the handler subscribes to the query's
round-completion hook (:meth:`QueryHandle.subscribe`), replays the rounds
already completed from one ``progress()`` snapshot, then forwards each
new round the moment its slot finishes — entry-for-entry identical to the
handle's trace.  The error taxonomy maps onto status codes
(:func:`status_for`; the table lives in :mod:`repro.errors`), per-client
token buckets shed chatty clients with 429 + ``Retry-After`` before the
service queue saturates, and graceful shutdown drains live SSE streams —
waiting for queries to settle, cancelling stragglers so their streams end
with a terminal event — *before* the service closes.

The request handlers run on one event-loop thread and never block on
query completion: submits/cancels/refines are lock-brief service calls,
results are read only from settled handles, and streams wait on an
``asyncio.Queue`` fed by the scheduler's listener callbacks.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time

from repro.core.result import ApproximateResult, GroupedResult, RoundTrace
from repro.core.service import AggregateQueryService, QueryHandle, QueryStatus
from repro.errors import (
    ConvergenceError,
    DatasetError,
    DeadlineExceededError,
    EmbeddingError,
    EstimationError,
    GraphError,
    QueryCancelledError,
    QueryError,
    ReproError,
    ResultTimeoutError,
    SamplingError,
    ServiceError,
    ServiceOverloadedError,
    StoreError,
)
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.server.http import (
    HttpError,
    HttpRequest,
    SseStream,
    read_request,
    send_json,
    send_text,
)
from repro.server.quota import ClientQuota, QuotaRegistry

__all__ = [
    "ReproHTTPServer",
    "ServerThread",
    "encode_result",
    "encode_trace",
    "error_payload",
    "serve_in_thread",
    "status_for",
]


# ---------------------------------------------------------------------------
# JSON encodings (shared with the CLI, the bench and the tests — equivalence
# gates compare these bytes)
# ---------------------------------------------------------------------------
def encode_trace(trace: RoundTrace, *, timings: bool = True) -> dict:
    """One anytime round as a JSON-clean dict (extreme MoE sentinel kept)."""
    payload = {
        "round": trace.round_index,
        "total_draws": trace.total_draws,
        "correct_draws": trace.correct_draws,
        "estimate": trace.estimate,
        "moe": trace.moe,
        "satisfied": trace.satisfied,
        "guaranteed": trace.guaranteed,
    }
    if timings:
        payload["seconds"] = trace.seconds
    return payload


def encode_result(
    result: ApproximateResult | GroupedResult, *, timings: bool = True
) -> dict:
    """A final result as a JSON-clean dict.

    ``timings=False`` drops every wall-clock field (``stage_ms``, round
    ``seconds``), leaving only value-like content — that is the payload
    equivalence gates compare byte-for-byte against direct in-process
    execution, where timings legitimately differ.  ``walk_iterations`` is
    the paper's N_ws (power-iteration steps of S1); 0 means the plan took
    pi in closed form, which every semantic simple plan does.
    ``stop_reason`` is ``bound_met`` / ``sample_cap`` / ``round_budget``
    (null on the per-group entries of a grouped result).
    """
    if isinstance(result, GroupedResult):
        payload = {
            "type": "grouped",
            "function": result.function.value,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "total_draws": result.total_draws,
            "num_groups": result.num_groups,
            "groups": [
                {
                    "key": key,
                    "label": result.labels.get(key, str(key)),
                    "result": encode_result(result.groups[key], timings=timings),
                }
                for key in sorted(result.groups)
            ],
            "rounds": [encode_trace(t, timings=timings) for t in result.rounds],
        }
    else:
        payload = {
            "type": "approximate",
            "function": result.function.value,
            "estimate": result.value,
            "moe": result.moe,
            "lower": result.interval.lower,
            "upper": result.interval.upper,
            "confidence_level": result.interval.confidence_level,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "total_draws": result.total_draws,
            "correct_draws": result.correct_draws,
            "distinct_answers": result.distinct_answers,
            "num_candidates": result.num_candidates,
            "walk_iterations": result.walk_iterations,
            "rounds": [encode_trace(t, timings=timings) for t in result.rounds],
        }
    if timings:
        payload["stage_ms"] = dict(result.stage_ms)
    return payload


# ---------------------------------------------------------------------------
# Error taxonomy -> HTTP status (documented in repro.errors)
# ---------------------------------------------------------------------------
#: isinstance-ordered mapping: subclasses before their bases
_ERROR_STATUS: tuple[tuple[type, int], ...] = (
    (ServiceOverloadedError, 429),
    (DeadlineExceededError, 504),
    (QueryCancelledError, 409),
    (ResultTimeoutError, 503),
    (QueryError, 400),  # includes ParseError / MappingNodeNotFoundError
    (EmbeddingError, 400),
    (GraphError, 400),
    (DatasetError, 400),
    (SamplingError, 422),
    (EstimationError, 422),
    (ConvergenceError, 422),
    (StoreError, 503),
    (ServiceError, 503),
    (ReproError, 500),
)


def _unwrap(error: BaseException) -> BaseException:
    """Prefer the chained original over a bare ServiceError wrapper.

    ``QueryHandle.result()`` wraps scheduler-side failures in a fresh
    :class:`ServiceError` with the original as ``__cause__``; the HTTP
    mapping should name (and status-map) the original failure.
    """
    if type(error) is ServiceError and isinstance(error.__cause__, ReproError):
        return error.__cause__
    return error


def status_for(error: BaseException) -> int:
    """The HTTP status this library error maps to (500 if unknown)."""
    error = _unwrap(error)
    for error_type, status in _ERROR_STATUS:
        if isinstance(error, error_type):
            return status
    return 500


def error_payload(error: BaseException) -> dict:
    """The JSON body for a failed query / rejected request.

    A :class:`DeadlineExceededError` keeps the anytime contract over the
    wire: its preserved partial trace rides along as ``trace``.
    """
    error = _unwrap(error)
    payload = {
        "error": type(error).__name__,
        "message": str(error),
        "status": status_for(error),
    }
    if isinstance(error, DeadlineExceededError):
        payload["trace"] = [encode_trace(trace) for trace in error.trace]
    return payload


def _http_error_from(error: ReproError) -> HttpError:
    """Lift a library error into the HTTP response it maps to."""
    payload = error_payload(error)
    headers = {}
    if payload["status"] == 429:
        # admission-control sheds are retryable after backoff; advertise it
        headers["Retry-After"] = "1"
    status = payload.pop("status")
    message = payload.pop("message")
    return HttpError(status, message, headers=headers, payload=payload)


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------
_QUERY_PATH = re.compile(r"/v1/queries/([A-Za-z0-9_\-]+)(/events|/refine)?")

#: submit fields forwarded to service.submit (name -> validator)
_NUMBER = (int, float)


class _ServedQuery:
    """One tracked submission: the public id and its service handle."""

    __slots__ = ("id", "handle")

    def __init__(self, query_id: str, handle: QueryHandle) -> None:
        self.id = query_id
        self.handle = handle


class ReproHTTPServer:
    """One service, one listening socket, any number of streaming clients.

    Construct with an (already running) service, ``await start()`` inside
    an event loop — or use :func:`serve_in_thread` /
    :class:`ServerThread` for a synchronous facade — and point any HTTP
    client at :attr:`address`.  ``quota`` enables per-client token-bucket
    shedding; ``owns_service=True`` makes :meth:`shutdown` close the
    service after the drain (the ordering the anytime contract needs:
    streams settle first, then the scheduler stops).
    """

    def __init__(
        self,
        service: AggregateQueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        quota: ClientQuota | None = None,
        drain_timeout: float = 5.0,
        heartbeat_seconds: float = 15.0,
        request_timeout: float = 10.0,
        max_tracked_queries: int = 4096,
        owns_service: bool = False,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._quota = QuotaRegistry(quota) if quota is not None else None
        self._drain_timeout = drain_timeout
        self._heartbeat_seconds = heartbeat_seconds
        self._request_timeout = request_timeout
        self._max_tracked_queries = max_tracked_queries
        self._owns_service = owns_service
        self._server: asyncio.base_events.Server | None = None
        self._address: tuple[str, int] | None = None
        self._closing = False
        self._conn_tasks: set[asyncio.Task] = set()
        #: insertion-ordered id -> entry; oldest *settled* entries are
        #: pruned past max_tracked_queries so a long-lived server's memory
        #: is bounded by its live set, not its history
        self._entries: dict[str, _ServedQuery] = {}
        self._started_at = time.monotonic()
        # request/stream tallies live on the service's observability
        # registry (scope ``server``), so /metrics and /healthz always
        # agree; a service-less construction path keeps a private registry
        registry = getattr(service, "registry", None)
        self._registry = registry if registry is not None else MetricsRegistry()
        scope = self._registry.scope("server")
        self._c_requests = scope.counter(
            "requests_total", "HTTP requests parsed off accepted connections"
        )
        self._c_submitted = scope.counter(
            "queries_submitted_total", "Queries accepted over HTTP"
        )
        self._g_sse_active = scope.gauge(
            "sse_streams_active", "Live SSE event streams"
        )
        self._c_sse_events = scope.counter(
            "sse_events_total", "SSE events written across all streams"
        )
        self._h_request_seconds = scope.histogram(
            "request_seconds", "Request handling wall clock"
        )
        scope.gauge(
            "quota_sheds", "Requests shed by per-client token buckets"
        ).set_function(lambda: self._quota.sheds if self._quota else 0)

    # -- lifecycle ------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; available once :meth:`start` ran."""
        if self._address is None:
            raise ServiceError("the HTTP server has not been started")
        return self._address

    async def start(self) -> None:
        """Bind the listening socket (port 0 picks an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])

    async def shutdown(self) -> None:
        """Graceful stop: refuse new work, drain streams, then the service.

        1. stop accepting connections and mark the server draining (new
           submissions get 503);
        2. give live queries ``drain_timeout`` seconds to settle on their
           own — their SSE streams flush the final rounds + terminal event;
        3. cancel the stragglers (their streams observe the ``cancelled``
           terminal event) and wait for the remaining connections;
        4. only then, if this server owns the service, ``service.close()``.
        """
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._drain_timeout
        while loop.time() < deadline and any(
            not entry.handle.status.terminal
            for entry in self._entries.values()
        ):
            await asyncio.sleep(0.05)
        for entry in list(self._entries.values()):
            if not entry.handle.status.terminal:
                entry.handle.cancel()
        pending = [task for task in self._conn_tasks if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=max(1.0, self._drain_timeout))
        for task in list(self._conn_tasks):
            task.cancel()
        if self._owns_service:
            await loop.run_in_executor(None, self._service.close)

    # -- connection plumbing -------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), self._request_timeout
                )
            except asyncio.TimeoutError:
                return
            if request is None:
                return
            self._c_requests.inc()
            handling_started = time.perf_counter()
            span = (
                obs_trace.start_span(
                    "http_request", method=request.method, path=request.path
                )
                if self._registry.enabled
                else None
            )
            try:
                with obs_trace.activate(span):
                    await self._dispatch(request, writer)
            except HttpError as error:
                await send_json(
                    writer, error.status, error.body(), headers=error.headers
                )
            finally:
                if span is not None:
                    span.end()
                self._h_request_seconds.observe(
                    time.perf_counter() - handling_started
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the client went away; nothing to answer
        except asyncio.CancelledError:
            raise
        except Exception as error:  # defensive: a handler bug is a 500
            try:
                await send_json(
                    writer,
                    500,
                    {
                        "error": type(error).__name__,
                        "message": str(error),
                        "status": 500,
                    },
                )
            except Exception:
                pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        path, method = request.path, request.method
        if path == "/healthz":
            self._require(method, "GET")
            return await self._handle_health(writer)
        if path == "/metrics":
            self._require(method, "GET")
            return await send_text(
                writer, 200, self._registry.render_prometheus()
            )
        if path == "/v1/queries":
            self._require(method, "POST")
            self._admit(request, writer)
            return await self._handle_submit(request, writer)
        if path == "/v1/queries:batch":
            self._require(method, "POST")
            self._admit(request, writer)
            return await self._handle_batch(request, writer)
        match = _QUERY_PATH.fullmatch(path)
        if match:
            entry = self._entries.get(match.group(1))
            if entry is None:
                raise HttpError(
                    404,
                    f"unknown query id {match.group(1)!r}",
                    payload={"error": "UnknownQueryId"},
                )
            tail = match.group(2) or ""
            if tail == "":
                if method == "GET":
                    return await send_json(
                        writer, 200, self._query_payload(entry)
                    )
                if method == "DELETE":
                    return await self._handle_cancel(entry, writer)
                self._require(method, "GET")  # raises 405 naming GET
            elif tail == "/events":
                self._require(method, "GET")
                return await self._handle_events(entry, writer)
            else:  # /refine
                self._require(method, "POST")
                self._admit(request, writer)
                return await self._handle_refine(entry, request, writer)
        raise HttpError(
            404, f"no route for {method} {path}", payload={"error": "NoRoute"}
        )

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(
                405,
                f"method {method} not allowed here (use {expected})",
                headers={"Allow": expected},
                payload={"error": "MethodNotAllowed"},
            )

    def _admit(self, request: HttpRequest, writer: asyncio.StreamWriter) -> None:
        """Draining + per-client quota checks for work-creating requests."""
        if self._closing:
            raise HttpError(
                503,
                "server is draining; no new work accepted",
                payload={"error": "ServerDraining"},
            )
        if self._quota is None:
            return
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else "unknown"
        delay = self._quota.admit(client)
        if delay > 0.0:
            raise HttpError(
                429,
                f"client {client} exceeded its request quota",
                headers={"Retry-After": self._quota.retry_after(delay)},
                payload={"error": "ClientQuotaExceeded"},
            )

    # -- submission -----------------------------------------------------
    def _submit_kwargs(self, spec: dict, defaults: dict) -> tuple[str, dict]:
        """Validate one submit spec; ``(aql, submit kwargs)`` or 400."""
        if not isinstance(spec, dict):
            raise HttpError(400, "each query spec must be a JSON object")
        merged = {**defaults, **spec}
        aql = merged.get("aql")
        if not isinstance(aql, str) or not aql.strip():
            raise HttpError(400, "the 'aql' field (a non-empty string) is required")
        kwargs: dict = {}
        for name, requirement in (
            ("error_bound", "positive number"),
            ("confidence", "number in (0, 1)"),
            ("deadline", "non-negative number"),
            ("seed", "integer"),
            ("max_rounds", "positive integer"),
        ):
            if name not in merged or merged[name] is None:
                continue
            value = merged[name]
            ok = isinstance(value, _NUMBER) and not isinstance(value, bool)
            if ok:
                if name in ("seed", "max_rounds"):
                    ok = isinstance(value, int) and (
                        name == "seed" or value >= 1
                    )
                elif name == "confidence":
                    ok = 0.0 < value < 1.0
                elif name == "error_bound":
                    ok = value > 0.0
                else:  # deadline
                    ok = value >= 0.0
            if not ok:
                raise HttpError(400, f"field {name!r} must be a {requirement}")
            kwargs[name] = value
        return aql, kwargs

    def _submit(self, aql: str, kwargs: dict) -> _ServedQuery:
        try:
            handle = self._service.submit(aql, **kwargs)
        except ReproError as error:
            raise _http_error_from(error)
        entry = _ServedQuery(f"q{handle.sequence}", handle)
        self._entries[entry.id] = entry
        self._c_submitted.inc()
        self._prune_entries()
        return entry

    def _prune_entries(self) -> None:
        if len(self._entries) <= self._max_tracked_queries:
            return
        for query_id, entry in list(self._entries.items()):
            if len(self._entries) <= self._max_tracked_queries:
                break
            if entry.handle.status.terminal:
                del self._entries[query_id]

    def _accepted_payload(self, entry: _ServedQuery) -> dict:
        return {
            "id": entry.id,
            "status": entry.handle.status.value,
            "kind": entry.handle.kind,
            "links": {
                "status": f"/v1/queries/{entry.id}",
                "events": f"/v1/queries/{entry.id}/events",
            },
        }

    async def _handle_submit(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        aql, kwargs = self._submit_kwargs(request.json(), {})
        entry = self._submit(aql, kwargs)
        await send_json(writer, 202, self._accepted_payload(entry))

    async def _handle_batch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        body = request.json()
        specs = body.get("queries")
        if not isinstance(specs, list) or not specs:
            raise HttpError(
                400, "the 'queries' field (a non-empty array) is required"
            )
        defaults = {
            name: body[name]
            for name in ("error_bound", "confidence", "seed", "deadline")
            if name in body
        }
        outcomes: list[dict] = []
        accepted = 0
        for spec in specs:
            # per-entry outcomes: an admission shed mid-batch must not
            # disturb (or hide) the entries already accepted
            try:
                aql, kwargs = self._submit_kwargs(spec, defaults)
                entry = self._submit(aql, kwargs)
            except HttpError as error:
                outcomes.append(error.body())
                continue
            outcomes.append(self._accepted_payload(entry))
            accepted += 1
        await send_json(
            writer,
            200,
            {
                "queries": outcomes,
                "accepted": accepted,
                "rejected": len(outcomes) - accepted,
            },
        )

    # -- status / result ------------------------------------------------
    def _settled_error(self, handle: QueryHandle) -> dict:
        try:
            handle.result(timeout=0.0)
        except ReproError as error:
            return error_payload(error)
        raise ServiceError("settled error requested for a live query")

    def _query_payload(self, entry: _ServedQuery) -> dict:
        handle = entry.handle
        status = handle.status
        trace = handle.progress()
        payload = {
            "id": entry.id,
            "status": status.value,
            "kind": handle.kind,
            "total_draws": handle.total_draws,
            "rounds_completed": len(trace),
            "latest": encode_trace(trace[-1]) if trace else None,
            "result": None,
            "error": None,
        }
        if status is QueryStatus.SUCCEEDED:
            payload["result"] = encode_result(handle.result(timeout=0.0))
        elif status.terminal:
            payload["error"] = self._settled_error(handle)
        return payload

    async def _handle_cancel(
        self, entry: _ServedQuery, writer: asyncio.StreamWriter
    ) -> None:
        cancelled = entry.handle.cancel()
        await send_json(
            writer,
            200,
            {
                "id": entry.id,
                "cancelled": cancelled,
                "status": entry.handle.status.value,
            },
        )

    async def _handle_refine(
        self, entry: _ServedQuery, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        body = request.json()
        error_bound = body.get("error_bound")
        if (
            not isinstance(error_bound, _NUMBER)
            or isinstance(error_bound, bool)
            or error_bound <= 0.0
        ):
            raise HttpError(
                400, "the 'error_bound' field (a positive number) is required"
            )
        try:
            entry.handle.refine(float(error_bound))
        except ServiceOverloadedError as error:
            raise _http_error_from(error)
        except ServiceError as error:
            # unlike lifecycle 503s, refining the wrong kind of query (or
            # a failed/cancelled one) is a client error about *this*
            # resource
            raise HttpError(
                400, str(error), payload={"error": type(error).__name__}
            )
        await send_json(
            writer,
            202,
            {
                "id": entry.id,
                "status": entry.handle.status.value,
                "error_bound": float(error_bound),
            },
        )

    # -- SSE ------------------------------------------------------------
    async def _handle_events(
        self, entry: _ServedQuery, writer: asyncio.StreamWriter
    ) -> None:
        """Stream the anytime trace: push per round, then a terminal event.

        Subscribe-then-snapshot makes the stream gapless: the listener is
        registered first, the ``progress()`` snapshot replays everything
        already completed, and queued round events that the snapshot
        already covered are dropped by position — so the emitted rounds
        match the handle's trace entry-for-entry regardless of when the
        client connected.
        """
        handle = entry.handle
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def listener(event: str, payload) -> None:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, (event, payload))
            except RuntimeError:
                pass  # the loop is gone (shutdown); the stream is over

        handle.subscribe(listener)
        stream = SseStream(writer)
        self._g_sse_active.inc()
        try:
            await stream.start()
            emitted = 0
            for trace in handle.progress():
                await stream.emit("round", encode_trace(trace))
                emitted += 1
            if handle.status.terminal:
                await self._emit_terminal(stream, entry)
                return
            while True:
                try:
                    event, payload = await asyncio.wait_for(
                        queue.get(), timeout=self._heartbeat_seconds
                    )
                except asyncio.TimeoutError:
                    await stream.comment("keep-alive")
                    continue
                if event == "round":
                    position, _trace = payload
                    if position < emitted:
                        continue  # the snapshot already replayed it
                    trace = handle.progress()
                    while emitted <= position and emitted < len(trace):
                        await stream.emit(
                            "round", encode_trace(trace[emitted])
                        )
                        emitted += 1
                else:  # settled
                    # flush rounds that landed between queue and terminal
                    for trace in handle.progress()[emitted:]:
                        await stream.emit("round", encode_trace(trace))
                        emitted += 1
                    await self._emit_terminal(stream, entry)
                    return
        except ConnectionError:
            pass  # the client hung up mid-stream; the query runs on
        finally:
            handle.unsubscribe(listener)
            self._g_sse_active.dec()
            self._c_sse_events.inc(stream.events_sent)

    async def _emit_terminal(self, stream: SseStream, entry: _ServedQuery) -> None:
        handle = entry.handle
        status = handle.status
        if status is QueryStatus.SUCCEEDED:
            await stream.emit(
                "result",
                {
                    "id": entry.id,
                    "status": status.value,
                    "result": encode_result(handle.result(timeout=0.0)),
                },
            )
        elif status is QueryStatus.CANCELLED:
            await stream.emit(
                "cancelled", {"id": entry.id, "status": status.value}
            )
        else:
            await stream.emit(
                "error",
                {
                    "id": entry.id,
                    "status": status.value,
                    **self._settled_error(handle),
                },
            )

    # -- health ---------------------------------------------------------
    async def _handle_health(self, writer: asyncio.StreamWriter) -> None:
        payload = {
            "status": "draining" if self._closing else "ok",
            "server": {
                "uptime_s": time.monotonic() - self._started_at,
                "requests": int(self._c_requests.value),
                "queries_submitted": int(self._c_submitted.value),
                "queries_tracked": len(self._entries),
                "sse_streams_active": int(self._g_sse_active.value),
                "sse_events_sent": int(self._c_sse_events.value),
                "quota_sheds": self._quota.sheds if self._quota else 0,
            },
            "service": self._service.health(),
        }
        await send_json(writer, 200, payload)


# ---------------------------------------------------------------------------
# Synchronous facade: run the asyncio server on a dedicated thread
# ---------------------------------------------------------------------------
class ServerThread:
    """A :class:`ReproHTTPServer` running on its own event-loop thread.

    The synchronous face the CLI, the tests and the benchmark share:
    ``start()`` returns once the socket is bound (``address`` is then
    valid), ``stop()`` runs the graceful shutdown and joins the thread.
    Usable as a context manager.
    """

    def __init__(self, server: ReproHTTPServer) -> None:
        self._server = server
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None

    @property
    def server(self) -> ReproHTTPServer:
        return self._server

    @property
    def address(self) -> tuple[str, int]:
        return self._server.address

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-http-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        try:
            await self._server.start()
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        await self._stop_event.wait()
        await self._server.shutdown()

    def stop(self, timeout: float = 30.0) -> None:
        """Trigger the graceful shutdown and wait for the thread to exit."""
        thread = self._thread
        if thread is None or not thread.is_alive():
            return
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # the loop already finished
        thread.join(timeout=timeout)
        if thread.is_alive():  # pragma: no cover - defensive
            raise ServiceError(
                "the HTTP server thread did not stop within "
                f"{timeout:.1f}s (streams still draining?)"
            )

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc_info) -> None:
        self.stop()


def serve_in_thread(
    service: AggregateQueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    **server_kwargs,
) -> ServerThread:
    """Start an HTTP front-end for ``service`` on a background thread."""
    return ServerThread(ReproHTTPServer(service, host, port, **server_kwargs)).start()
