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

A submit (or a batch entry) carries ``aql`` and, optionally,
``error_bound``, ``confidence``, ``seed`` and ``deadline``:
:meth:`AggregateQueryService.submit`'s keywords, which a batch may also
set as defaults; a refine carries ``error_bound`` alone.  Any other
field is a 400 that names it: for a single submit, a refine or a batch's
defaults the whole request, for a batch entry that entry's outcome.

SSE streams are *push*, not poll: the handler subscribes to the query's
round-completion hook (:meth:`QueryHandle.subscribe`), replays the rounds
already completed from one ``progress()`` snapshot, then forwards each
new round the moment its slot finishes — entry-for-entry identical to the
handle's trace.  The error taxonomy maps onto status codes
(:func:`status_for`; the table lives in :mod:`repro.errors`), per-client
token buckets shed chatty clients with 429 + ``Retry-After`` before the
service queue saturates, and graceful shutdown drains live SSE streams —
waiting for queries to settle, cancelling stragglers so their streams end
with a terminal event — *before* the service closes.  An idle stream
carries a ``: heartbeat`` comment every :data:`HEARTBEAT_SECONDS`, and the
server tracks at most :data:`MAX_TRACKED_QUERIES` ids, pruning the oldest
settled ones first (a pruned id answers 404).

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
    GraphChangedError,
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
from repro.obs.metrics import MetricsRegistry
from repro.server.http import (
    HttpError,
    HttpRequest,
    Responder,
    SseStream,
    read_request,
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
    the paper's N_ws of a sampled run: 0 for a simple plan, which takes pi
    in closed form, while a chain plan reports its expanded intermediates
    (> 0); a census-first result reports 0, because no walk ran, and its
    ``num_candidates`` is the joint candidate set it counted over.
    ``stop_reason`` is ``census`` / ``bound_met`` / ``sample_cap`` /
    ``round_budget`` (null on the per-group entries of a grouped result);
    a ``census`` result is the exact aggregate over every candidate
    answer, its ``moe`` the floating-point rounding bound.
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
    (GraphChangedError, 409),
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

#: the optional submit fields, each a keyword of service.submit and a
#: batch default; every one is a number, and ``seed`` an integer
_SUBMIT_FIELDS = ("error_bound", "confidence", "deadline", "seed")
_NUMBER = (int, float)

#: the fields a submit spec may carry, and a batch request
_SPEC_FIELDS = frozenset(("aql", *_SUBMIT_FIELDS))
_BATCH_FIELDS = frozenset(("queries", *_SUBMIT_FIELDS))
#: the fields a refine request may carry
_REFINE_FIELDS = frozenset(("error_bound",))

#: seconds an SSE stream waits for a round before it writes a heartbeat
HEARTBEAT_SECONDS = 15.0
#: query ids tracked at once; past it the oldest settled ones are pruned
MAX_TRACKED_QUERIES = 4096
#: seconds live queries get to settle on their own at shutdown
DRAIN_TIMEOUT_SECONDS = 5.0
#: seconds a connection waits for its next request before it closes
REQUEST_TIMEOUT_SECONDS = 10.0


def _reject_unknown(fields: dict, known: frozenset) -> None:
    """400 naming every field of ``fields`` that is not ``known``."""
    unknown = sorted(set(fields).difference(known))
    if unknown:
        raise HttpError(
            400, f"unknown field(s): {', '.join(map(repr, unknown))}"
        )


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
        owns_service: bool = False,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._quota = QuotaRegistry(quota) if quota is not None else None
        self._owns_service = owns_service
        self._server: asyncio.base_events.Server | None = None
        self._address: tuple[str, int] | None = None
        self._closing = False
        self._conn_tasks: set[asyncio.Task] = set()
        #: kept-alive connections waiting for their next request; they
        #: hold no work, so shutdown() closes them at once (their reads
        #: then see EOF and the connection loop ends)
        self._idle: set[asyncio.StreamWriter] = set()
        #: insertion-ordered id -> entry; oldest *settled* entries are
        #: pruned past MAX_TRACKED_QUERIES so a long-lived server's memory
        #: is bounded by its live set, not its history
        self._entries: dict[str, _ServedQuery] = {}
        self._started_at = time.monotonic()
        # request/stream tallies live on the service's observability
        # registry (scope ``server``), so /metrics and /healthz always
        # agree; a service-less construction path keeps a private registry
        registry = getattr(service, "registry", None)
        self._registry = registry if registry is not None else MetricsRegistry()
        scope = self._registry.scope("server")
        self._c_connections = scope.counter(
            "connections_total", "TCP connections accepted"
        )
        self._c_requests = scope.counter(
            "requests_total", "HTTP requests parsed off accepted connections"
        )
        self._c_error_responses = scope.counter(
            "error_responses_total", "Responses sent with a status >= 400"
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

        1. stop accepting connections, mark the server draining (new
           submissions get 503, every response says ``Connection:
           close``) and close the kept-alive connections that wait for
           their next request;
        2. give live queries :data:`DRAIN_TIMEOUT_SECONDS` to settle on their
           own — their SSE streams flush the final rounds + terminal event;
        3. cancel the stragglers (their streams observe the ``cancelled``
           terminal event) and wait for the remaining connections;
        4. only then, if this server owns the service, ``service.close()``.
        """
        if self._closing:
            return
        self._closing = True
        for writer in list(self._idle):
            writer.close()
        if self._server is not None:
            self._server.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_TIMEOUT_SECONDS
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
            await asyncio.wait(pending, timeout=max(1.0, DRAIN_TIMEOUT_SECONDS))
        for task in list(self._conn_tasks):
            task.cancel()
        if self._server is not None:
            # since Python 3.12 this waits for every connection to end
            await self._server.wait_closed()
        if self._owns_service:
            await loop.run_in_executor(None, self._service.close)

    # -- connection plumbing -------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: request after request until it closes.

        The connection stays open after a response unless the client sent
        ``Connection: close``, the request was malformed (past it the
        stream position is unknown), the response was cut, or the server
        is draining.  Between requests it sits in ``_idle`` for at most
        :data:`REQUEST_TIMEOUT_SECONDS`.
        """
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._c_connections.inc()
        try:
            first = True
            while first or not self._closing:
                if not first:
                    self._idle.add(writer)
                try:
                    async with asyncio.timeout(REQUEST_TIMEOUT_SECONDS):
                        request = await read_request(reader)
                except TimeoutError:
                    return
                except HttpError as error:
                    await self._answer_error(
                        Responder(writer, keep_alive=False), error
                    )
                    return
                finally:
                    self._idle.discard(writer)
                if request is None or not await self._exchange(request, writer):
                    return
                first = False
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the client went away; nothing to answer
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _exchange(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request; whether its connection stays open."""
        self._c_requests.inc()
        response = Responder(
            writer, keep_alive=request.keep_alive and not self._closing
        )
        started = time.perf_counter()
        try:
            await self._dispatch(request, response)
        except HttpError as error:
            await self._answer_error(response, error)
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception as error:  # defensive: a handler bug is a 500
            response.keep_alive = False
            await self._answer_error(
                response,
                HttpError(500, str(error), payload={"error": type(error).__name__}),
            )
        finally:
            self._h_request_seconds.observe(time.perf_counter() - started)
        return response.keep_alive

    async def _answer_error(self, response: Responder, error: HttpError) -> None:
        """Send ``error`` as a JSON response; once the response's head is
        built there is nothing to answer with, so give up the connection."""
        if response.status is not None:
            response.keep_alive = False
            return
        self._c_error_responses.inc()
        await response.json(error.status, error.body(), headers=error.headers)

    async def _dispatch(self, request: HttpRequest, response: Responder) -> None:
        path, method = request.path, request.method
        if path == "/healthz":
            self._require(method, "GET")
            return await self._handle_health(response)
        if path == "/metrics":
            self._require(method, "GET")
            return await response.text(200, self._registry.render_prometheus())
        if path == "/v1/queries":
            self._require(method, "POST")
            self._admit(response)
            return await self._handle_submit(request, response)
        if path == "/v1/queries:batch":
            self._require(method, "POST")
            self._admit(response)
            return await self._handle_batch(request, response)
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
                    return await response.json(200, self._query_payload(entry))
                if method == "DELETE":
                    return await self._handle_cancel(entry, response)
                self._require(method, "GET")  # raises 405 naming GET
            elif tail == "/events":
                self._require(method, "GET")
                return await self._handle_events(entry, response)
            else:  # /refine
                self._require(method, "POST")
                self._admit(response)
                return await self._handle_refine(entry, request, response)
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

    def _admit(self, response: Responder) -> None:
        """Draining + per-client quota checks for work-creating requests."""
        if self._closing:
            raise HttpError(
                503,
                "server is draining; no new work accepted",
                payload={"error": "ServerDraining"},
            )
        if self._quota is None:
            return
        peer = response.writer.get_extra_info("peername")
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
        """Validate one submit spec; ``(aql, submit kwargs)`` or 400 (a
        field it does not know included)."""
        if not isinstance(spec, dict):
            raise HttpError(400, "each query spec must be a JSON object")
        _reject_unknown(spec, _SPEC_FIELDS)
        merged = {**defaults, **spec}
        aql = merged.get("aql")
        if not isinstance(aql, str) or not aql.strip():
            raise HttpError(400, "the 'aql' field (a non-empty string) is required")
        kwargs: dict = {}
        # the service owns the ranges of error_bound, confidence and
        # deadline: its QueryError reaches the client as a 400 before any
        # query exists
        for name in _SUBMIT_FIELDS:
            value = merged.get(name)
            if value is None:
                continue
            kind, requirement = (
                (int, "an integer") if name == "seed" else (_NUMBER, "a number")
            )
            if not isinstance(value, kind) or isinstance(value, bool):
                raise HttpError(400, f"field {name!r} must be {requirement}")
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
        if len(self._entries) <= MAX_TRACKED_QUERIES:
            return
        for query_id, entry in list(self._entries.items()):
            if len(self._entries) <= MAX_TRACKED_QUERIES:
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
        self, request: HttpRequest, response: Responder
    ) -> None:
        aql, kwargs = self._submit_kwargs(request.json(), {})
        entry = self._submit(aql, kwargs)
        await response.json(202, self._accepted_payload(entry))

    async def _handle_batch(
        self, request: HttpRequest, response: Responder
    ) -> None:
        body = request.json()
        _reject_unknown(body, _BATCH_FIELDS)
        specs = body.get("queries")
        if not isinstance(specs, list) or not specs:
            raise HttpError(
                400, "the 'queries' field (a non-empty array) is required"
            )
        defaults = {name: body[name] for name in _SUBMIT_FIELDS if name in body}
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
        await response.json(
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
        self, entry: _ServedQuery, response: Responder
    ) -> None:
        cancelled = entry.handle.cancel()
        await response.json(
            200,
            {
                "id": entry.id,
                "cancelled": cancelled,
                "status": entry.handle.status.value,
            },
        )

    async def _handle_refine(
        self, entry: _ServedQuery, request: HttpRequest, response: Responder
    ) -> None:
        body = request.json()
        _reject_unknown(body, _REFINE_FIELDS)
        error_bound = body.get("error_bound")
        if not isinstance(error_bound, _NUMBER) or isinstance(error_bound, bool):
            raise HttpError(400, "the 'error_bound' field (a number) is required")
        try:
            # the service owns the range: an integer (one past the float
            # range included) lies outside (0, 1), a QueryError, so a 400
            entry.handle.refine(error_bound)
        except (QueryError, ServiceOverloadedError) as error:
            raise _http_error_from(error)
        except ServiceError as error:
            # unlike lifecycle 503s, refining the wrong kind of query (or
            # a failed/cancelled one) is a client error about *this*
            # resource
            raise HttpError(
                400, str(error), payload={"error": type(error).__name__}
            )
        await response.json(
            202,
            {
                "id": entry.id,
                "status": entry.handle.status.value,
                "error_bound": error_bound,
            },
        )

    # -- SSE ------------------------------------------------------------
    async def _handle_events(
        self, entry: _ServedQuery, response: Responder
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
        stream = response.stream()
        self._g_sse_active.inc()
        try:
            emitted = self._emit_rounds(stream, handle, 0)
            settled = handle.status.terminal
            while True:
                if settled:
                    # rounds that landed between the last one and the status
                    self._emit_rounds(stream, handle, emitted)
                    self._emit_terminal(stream, entry)
                    stream.end()
                await stream.flush()
                if settled:
                    return
                try:
                    async with asyncio.timeout(HEARTBEAT_SECONDS):
                        item = await queue.get()
                except TimeoutError:
                    stream.comment("heartbeat")
                    continue
                # take every event already queued, then write them at once
                while True:
                    event, payload = item
                    if event != "round":
                        settled = True
                        break
                    # a round the snapshot already replayed emits nothing
                    emitted = self._emit_rounds(
                        stream, handle, emitted, until=payload[0] + 1
                    )
                    if queue.empty():
                        break
                    item = queue.get_nowait()
        except ConnectionError:
            # the client hung up mid-stream; the query runs on
            response.keep_alive = False
        finally:
            handle.unsubscribe(listener)
            self._g_sse_active.dec()
            self._c_sse_events.inc(stream.events_sent)

    @staticmethod
    def _emit_rounds(
        stream: SseStream, handle: QueryHandle, emitted: int, until: int | None = None
    ) -> int:
        """Emit the handle's rounds from position ``emitted`` up to
        ``until`` (all when None); the new ``emitted``."""
        for trace in handle.progress()[emitted:until]:
            stream.emit("round", encode_trace(trace))
            emitted += 1
        return emitted

    def _emit_terminal(self, stream: SseStream, entry: _ServedQuery) -> None:
        """The settled query's last event."""
        handle = entry.handle
        status = handle.status
        if status is QueryStatus.SUCCEEDED:
            stream.emit(
                "result",
                {
                    "id": entry.id,
                    "status": status.value,
                    "result": encode_result(handle.result(timeout=0.0)),
                },
            )
        elif status is QueryStatus.CANCELLED:
            stream.emit("cancelled", {"id": entry.id, "status": status.value})
        else:
            stream.emit(
                "error",
                {
                    "id": entry.id,
                    "status": status.value,
                    **self._settled_error(handle),
                },
            )

    # -- health ---------------------------------------------------------
    async def _handle_health(self, response: Responder) -> None:
        payload = {
            "status": "draining" if self._closing else "ok",
            "server": {
                "uptime_s": time.monotonic() - self._started_at,
                "connections": int(self._c_connections.value),
                "requests": int(self._c_requests.value),
                "error_responses": int(self._c_error_responses.value),
                "queries_submitted": int(self._c_submitted.value),
                "queries_tracked": len(self._entries),
                "sse_streams_active": int(self._g_sse_active.value),
                "sse_events_sent": int(self._c_sse_events.value),
                "quota_sheds": self._quota.sheds if self._quota else 0,
            },
            "service": self._service.health(),
        }
        await response.json(200, payload)


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
