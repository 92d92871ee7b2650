"""A stdlib HTTP client for the ``repro.server`` front-end.

Thin on purpose: ``http.client`` requests against the v1 endpoints, JSON
in and out, plus an incremental SSE reader for the per-round event
stream.  The tests, the benchmark and ``examples/http_serving.py`` all
drive the server through this client, so the wire format is exercised by
a *second* independent implementation rather than the server talking to
itself.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

from repro.errors import ReproError, ResultTimeoutError

__all__ = ["HttpStatusError", "MalformedResponseError", "ReproClient"]


class HttpStatusError(ReproError):
    """A non-2xx response from the server, carrying its JSON error body
    (or, for a body that is not a JSON object — a proxy's HTML page, say —
    ``{"message": <its text>}``)."""

    def __init__(self, status: int, payload: dict, headers: dict[str, str]):
        message = payload.get("message") or f"HTTP {status}"
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload
        self.headers = headers

    @property
    def retry_after(self) -> str | None:
        """The ``Retry-After`` value on 429 responses, if any."""
        return self.headers.get("retry-after")


class MalformedResponseError(ReproError):
    """A response the client cannot read: a success body that is not JSON,
    or an event stream whose chunking, text or frame data is broken."""


def _error_payload(raw: bytes) -> dict:
    """An error body as the server's JSON envelope, else its text."""
    try:
        payload = json.loads(raw.decode("utf-8")) if raw else {}
    except ValueError:  # not UTF-8, or not JSON
        payload = None
    if isinstance(payload, dict):
        return payload
    return {"message": raw.decode("utf-8", errors="replace")}


def _raise_for_status(response: http.client.HTTPResponse, raw: bytes) -> None:
    if response.status >= 400:
        raise HttpStatusError(
            response.status,
            _error_payload(raw),
            {name.lower(): value for name, value in response.getheaders()},
        )


class ReproClient:
    """One server address over persistent HTTP/1.1 connections.

    Each call checks a connection out of a small pool of idle ones (or
    opens one) and puts it back only once its response or event stream
    has been read to the end, so a client asking query after query keeps
    reusing one connection.  Calls from several threads each hold their
    own connection.  :meth:`close` — or leaving a ``with`` block — closes
    the idle connections; a later call opens a fresh one.
    """

    #: idle connections kept for reuse; more concurrent calls open more,
    #: and close what the pool cannot take back
    MAX_IDLE = 4

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every idle pooled connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    # -- plumbing -------------------------------------------------------
    def _checkin(
        self, connection: http.client.HTTPConnection, response: http.client.HTTPResponse
    ) -> None:
        """Pool a connection whose response was read to its end."""
        if not response.will_close:
            with self._lock:
                if len(self._idle) < self.MAX_IDLE:
                    self._idle.append(connection)
                    return
        connection.close()

    def _send(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request; its connection and the response head.

        A request that fails on a reused connection before any response
        byte arrived is sent once more on a fresh connection: the server
        closes a kept connection only between requests (idle timeout,
        restart), so it never saw the first attempt.
        """
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"

        def attempt(connection: http.client.HTTPConnection):
            try:
                connection.request(method, path, body=payload, headers=headers)
                return connection, connection.getresponse()
            except BaseException:
                connection.close()
                raise

        with self._lock:
            kept = self._idle.pop() if self._idle else None
        if kept is not None:
            try:
                return attempt(kept)
            except ConnectionError:
                pass  # stale: the server closed it between requests
        return attempt(
            http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        )

    def _finish(
        self, connection: http.client.HTTPConnection, response: http.client.HTTPResponse
    ) -> bytes:
        """Read the rest of a response, then pool its connection; the body
        is raised as :class:`HttpStatusError` on a status >= 400."""
        try:
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        self._checkin(connection, response)
        _raise_for_status(response, raw)
        return raw

    def _read(self, method: str, path: str, body: dict | None = None) -> bytes:
        return self._finish(*self._send(method, path, body))

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        raw = self._read(method, path, body)
        try:
            return json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError as error:
            raise MalformedResponseError(
                f"{method} {path}: the body is not JSON: {raw[:80]!r}"
            ) from error

    # -- the v1 surface -------------------------------------------------
    def submit(self, aql: str, **params) -> dict:
        """``POST /v1/queries``; the acceptance payload (with ``id``)."""
        return self._request("POST", "/v1/queries", {"aql": aql, **params})

    def submit_batch(self, specs: list[dict], **defaults) -> dict:
        """``POST /v1/queries:batch``; per-entry acceptance outcomes."""
        return self._request(
            "POST", "/v1/queries:batch", {"queries": specs, **defaults}
        )

    def status(self, query_id: str) -> dict:
        """``GET /v1/queries/{id}``: status + latest anytime estimate."""
        return self._request("GET", f"/v1/queries/{query_id}")

    def cancel(self, query_id: str) -> dict:
        return self._request("DELETE", f"/v1/queries/{query_id}")

    def refine(self, query_id: str, error_bound: float) -> dict:
        return self._request(
            "POST",
            f"/v1/queries/{query_id}/refine",
            {"error_bound": error_bound},
        )

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """``GET /metrics``: the raw Prometheus text exposition."""
        return self._read("GET", "/metrics").decode("utf-8")

    def wait(
        self, query_id: str, timeout: float = 60.0, poll_interval: float = 0.02
    ) -> dict:
        """Poll the status endpoint until the query settles."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self.status(query_id)
            if payload["status"] in ("succeeded", "failed", "cancelled"):
                return payload
            if time.monotonic() >= deadline:
                raise ResultTimeoutError(
                    f"query {query_id} did not settle within {timeout:.1f}s"
                )
            time.sleep(poll_interval)

    # -- SSE ------------------------------------------------------------
    def events(self, query_id: str):
        """Yield ``(event, data)`` pairs from the query's SSE stream.

        Incremental: each event is yielded the moment its frame arrives,
        so callers observe rounds as the scheduler completes them.  The
        generator ends with the stream's final chunk, which follows the
        terminal event, and the connection goes back to the pool; closing
        the generator early closes the socket instead (how "client hangs
        up mid-stream" is expressed).  A broken chunk, a line that is not
        UTF-8 or a frame whose data is not JSON raises
        :class:`MalformedResponseError`.
        """
        path = f"/v1/queries/{query_id}/events"
        connection, response = self._send("GET", path)
        if response.status >= 400:
            self._finish(connection, response)  # raises HttpStatusError
        complete = False
        try:
            event_name = None
            data_lines: list[str] = []
            while True:
                line = response.readline()
                if not line:
                    complete = True
                    return  # the zero-length chunk: the stream ended
                text = line.decode("utf-8").rstrip("\r\n")
                if not text:  # blank line ends one frame
                    if event_name is not None or data_lines:
                        data = "\n".join(data_lines)
                        yield (
                            event_name or "message",
                            json.loads(data) if data else None,
                        )
                    event_name = None
                    data_lines = []
                elif text.startswith(":"):
                    continue  # heartbeat comment
                elif text.startswith("event:"):
                    event_name = text[len("event:") :].strip()
                elif text.startswith("data:"):
                    data_lines.append(text[len("data:") :].strip())
        except (http.client.HTTPException, ValueError) as error:
            raise MalformedResponseError(
                f"the event stream of {query_id} is malformed: {error}"
            ) from error
        finally:
            if complete:
                self._checkin(connection, response)
            else:
                connection.close()
