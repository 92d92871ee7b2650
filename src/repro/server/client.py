"""A stdlib HTTP client for the ``repro.server`` front-end.

Small on purpose: its own HTTP/1.1 codec over one buffered socket per
connection, JSON in and out, plus an incremental SSE reader for the
per-round event stream.  The tests, the benchmark and
``examples/http_serving.py`` all drive the server through this client,
so the wire format is exercised by a *second* independent implementation
rather than the server talking to itself: nothing here is shared with
``repro.server.http``.

The codec reads only what the server writes, and refuses the rest:

* a request goes out in one ``sendall``: the request line, ``Host`` and,
  with a body, ``Content-Type`` and ``Content-Length``, then the body;
* a response head is an ``HTTP/1.x`` status line and ``name: value``
  header lines, read with bounded ``readline``s (at most
  :data:`MAX_HEAD_BYTES` in all) into a dict with lower-cased names;
* a body is framed by ``Transfer-Encoding: chunked`` (which wins over a
  ``Content-Length``) or by ``Content-Length``; a body with neither is
  read to the end of the connection, which is then never pooled.

Anything else — a status line that is not HTTP/1.x, an over-long head, a
``Content-Length`` that is not a number, a chunk-size line that is not
hex, a body cut short, a connection closed before any response byte —
raises :class:`MalformedResponseError`.  Failing to connect, and a
socket timeout, raise the ``OSError`` the socket raised.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from collections.abc import Iterator
from urllib.parse import quote

from repro.errors import ReproError, ResultTimeoutError

__all__ = ["HttpStatusError", "MalformedResponseError", "ReproClient"]

#: a response's status line and headers may not exceed this many bytes
#: in total; the same bound holds for a chunk-size line, and for a
#: chunked body's trailers
MAX_HEAD_BYTES = 64 * 1024
#: a body is read in pieces of at most this many bytes, so a length the
#: server announces but never sends allocates nothing up front
_READ_PIECE = 64 * 1024

_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) ([2-5][0-9][0-9])(?: [^\r\n]*)?\r?\n")
#: an RFC 9110 token: what a header name must be
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_HEX = re.compile(rb"[0-9A-Fa-f]+")


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
    """A response the client cannot read: a status line, head or body
    framing that is not the HTTP/1.1 the client speaks, a connection
    closed before its response or mid-body, a success body that is not a
    JSON object, or an event stream whose text or frame data is broken."""


def _error_payload(raw: bytes) -> dict:
    """An error body as the server's JSON envelope, else its text."""
    try:
        payload = json.loads(raw.decode("utf-8")) if raw else {}
    except ValueError:  # not UTF-8, or not JSON
        payload = None
    if isinstance(payload, dict):
        return payload
    return {"message": raw.decode("utf-8", errors="replace")}


class _Connection:
    """One socket with ``TCP_NODELAY``, its buffered reader, and the
    framing of the response being read on it."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("rb")
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: the current body's ``Content-Length``; None when it is chunked
        #: or runs to the end of the connection
        self._length: int | None = None
        self._chunked = False
        #: may the connection carry another request once the current
        #: body is read to its end
        self.reusable = False

    def close(self) -> None:
        self._reader.close()
        self._socket.close()

    def send(self, request: bytes) -> None:
        self._socket.sendall(request)

    def _line(self, budget: int, what: str) -> bytes:
        """One line of at most ``budget`` bytes, its ``\\n`` included."""
        line = self._reader.readline(budget)
        if not line.endswith(b"\n"):
            if len(line) >= budget:
                raise MalformedResponseError(f"the {what} is too long")
            raise MalformedResponseError(f"the connection closed mid-{what}")
        return line

    def _exactly(self, size: int, what: str) -> bytes:
        pieces = []
        while size > 0:
            piece = self._reader.read(min(size, _READ_PIECE))
            if not piece:
                raise MalformedResponseError(f"the connection closed mid-{what}")
            pieces.append(piece)
            size -= len(piece)
        return b"".join(pieces)

    def read_head(self) -> tuple[int, dict[str, str]] | None:
        """The response's status and headers (names lower-cased), and its
        body's framing; None when the connection closed before any byte."""
        line = self._reader.readline(MAX_HEAD_BYTES)
        if not line:
            return None
        status_line = _STATUS_LINE.fullmatch(line)
        if status_line is None:
            raise MalformedResponseError(f"not an HTTP/1.x status line: {line[:80]!r}")
        budget = MAX_HEAD_BYTES - len(line)
        headers: dict[str, str] = {}
        while (line := self._line(budget, "response head")) not in (b"\r\n", b"\n"):
            budget -= len(line)
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not _TOKEN.fullmatch(name):
                raise MalformedResponseError(f"malformed header line: {line[:80]!r}")
            name, value = name.lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise MalformedResponseError("conflicting Content-Length headers")
            headers[name] = value

        encoding = headers.get("transfer-encoding")
        length = headers.get("content-length")
        self._chunked = encoding is not None
        self._length = None
        if self._chunked:
            if encoding.lower() != "chunked":
                raise MalformedResponseError(
                    f"unsupported Transfer-Encoding: {encoding!r}"
                )
        elif length is not None:
            if not (length.isascii() and length.isdigit()):
                raise MalformedResponseError(f"invalid Content-Length: {length!r}")
            self._length = int(length)
        self.reusable = (
            status_line[1] == b"1"
            and (self._chunked or self._length is not None)
            and "close" not in headers.get("connection", "").lower()
        )
        return int(status_line[2]), headers

    def body(self) -> Iterator[bytes]:
        """The body in pieces as they arrive — one per chunk of a chunked
        body, else the whole of it — ending after its last byte."""
        if self._chunked:
            yield from self._chunks()
        elif self._length is not None:
            if self._length:
                yield self._exactly(self._length, "body")
        else:
            yield self._reader.read()  # to the end of the connection

    def _chunks(self) -> Iterator[bytes]:
        while True:
            line = self._line(MAX_HEAD_BYTES, "chunk-size line")
            size = line.split(b";", 1)[0].strip()
            if not _HEX.fullmatch(size):
                raise MalformedResponseError(f"bad chunk-size line: {line[:80]!r}")
            size = int(size, 16)
            if size == 0:
                break
            yield self._exactly(size, "chunk")
            if self._reader.read(2) != b"\r\n":
                raise MalformedResponseError("a chunk does not end with CRLF")
        budget = MAX_HEAD_BYTES
        while (line := self._line(budget, "trailer")) not in (b"\r\n", b"\n"):
            budget -= len(line)


class ReproClient:
    """One server address over persistent HTTP/1.1 connections.

    Each call checks a connection out of a small pool of idle ones (or
    opens one) and puts it back only once its response or event stream
    has been read to the end, so a client asking query after query keeps
    reusing one connection.  Calls from several threads each hold their
    own connection.  :meth:`close` — or leaving a ``with`` block — closes
    the idle connections; a later call opens a fresh one.  Every response
    is read by the module's own HTTP/1.1 codec, which raises
    :class:`MalformedResponseError` on anything it cannot frame.
    """

    #: idle connections kept for reuse; more concurrent calls open more,
    #: and close what the pool cannot take back
    MAX_IDLE = 4

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._idle: list[_Connection] = []
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
    def _checkin(self, connection: _Connection) -> None:
        """Pool a connection whose response was read to its end."""
        if connection.reusable:
            with self._lock:
                if len(self._idle) < self.MAX_IDLE:
                    self._idle.append(connection)
                    return
        connection.close()

    def _send(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[_Connection, int, dict[str, str]]:
        """Send one request; its connection, and the response's status
        and headers.

        A request that fails on a reused connection before any response
        byte arrived is sent once more on a fresh connection: the server
        closes a kept connection only between requests (idle timeout,
        restart), so it never saw the first attempt.
        """
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
            )
        request = (head + "\r\n").encode("latin-1") + payload

        def attempt(connection: _Connection):
            try:
                connection.send(request)
                response = connection.read_head()
            except BaseException:
                connection.close()
                raise
            if response is None:
                connection.close()
            return response

        with self._lock:
            kept = self._idle.pop() if self._idle else None
        if kept is not None:
            try:
                response = attempt(kept)
            except ConnectionError:
                response = None
            if response is not None:
                return kept, *response
            # stale: the server closed it between requests
        connection = _Connection(self.host, self.port, self.timeout)
        response = attempt(connection)
        if response is None:
            raise MalformedResponseError(
                f"{method} {path}: the server closed the connection without a response"
            )
        return connection, *response

    def _finish(
        self, connection: _Connection, status: int, headers: dict[str, str]
    ) -> bytes:
        """Read the rest of a response, then pool its connection; the body
        is raised as :class:`HttpStatusError` on a status >= 400."""
        try:
            raw = b"".join(connection.body())
        except BaseException:
            connection.close()
            raise
        self._checkin(connection)
        if status >= 400:
            raise HttpStatusError(status, _error_payload(raw), headers)
        return raw

    def _read(self, method: str, path: str, body: dict | None = None) -> bytes:
        return self._finish(*self._send(method, path, body))

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        raw = self._read(method, path, body)
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:  # not UTF-8, or not JSON
            payload = None
        if not isinstance(payload, dict):
            raise MalformedResponseError(
                f"{method} {path}: the body is not a JSON object: {raw[:80]!r}"
            )
        return payload

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
        return self._request("GET", _query_path(query_id))

    def cancel(self, query_id: str) -> dict:
        return self._request("DELETE", _query_path(query_id))

    def refine(self, query_id: str, error_bound: float) -> dict:
        return self._request(
            "POST",
            _query_path(query_id, "/refine"),
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
        connection, status, headers = self._send(
            "GET", _query_path(query_id, "/events")
        )
        if status >= 400:
            self._finish(connection, status, headers)  # raises HttpStatusError
        complete = False
        try:
            event_name = None
            data_lines: list[str] = []
            partial = b""  # a line the last piece cut short
            for piece in connection.body():
                *lines, partial = (partial + piece).split(b"\n")
                for line in lines:
                    text = line.decode("utf-8").rstrip("\r")
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
            complete = True  # the zero-length chunk: the stream ended
        except ValueError as error:
            raise MalformedResponseError(
                f"the event stream of {query_id} is malformed: {error}"
            ) from error
        finally:
            if complete:
                self._checkin(connection)
            else:
                connection.close()


def _query_path(query_id: str, tail: str = "") -> str:
    """The path of one query's resource; the id is percent-encoded, so
    no id can put a space or a line break into the request line."""
    return f"/v1/queries/{quote(query_id, safe='')}{tail}"
