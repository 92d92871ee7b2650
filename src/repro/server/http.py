"""Minimal persistent HTTP/1.1 + Server-Sent-Events plumbing over asyncio streams.

The front-end must run anywhere the library runs, so this is stdlib-only:
no web framework, no event-loop add-ons — one request parser over an
``asyncio.StreamReader``, a per-request :class:`Responder` over the
matching writer, and an SSE stream writer.  The protocol surface is
deliberately narrow:

* HTTP/1.1 only: a request naming any other version is answered 505;
* connections persist: a connection carries request after request until
  the client sends ``Connection: close``, a malformed request leaves the
  stream position unknown, or the server drains (every response says
  ``Connection: keep-alive`` or ``Connection: close`` accordingly);
* request bodies are framed by ``Content-Length`` only: a request
  carrying ``Transfer-Encoding``, or two ``Content-Length`` values that
  disagree, is refused with 400 and a close, so no body byte can ever be
  parsed as the next request on a kept connection;
* streaming responses (SSE) are sent ``Transfer-Encoding: chunked`` and
  end with the zero-length chunk, so a finished stream hands its
  connection back for the next request.

Every JSON byte goes through ``json.dumps(..., allow_nan=False)``: a NaN
anywhere in a payload is a server bug (the engine's extreme rounds carry
a 0.0 MoE sentinel for exactly this reason) and must fail loudly rather
than emit invalid JSON.
"""

from __future__ import annotations

import asyncio
import json
import re
import urllib.parse
from dataclasses import dataclass, field

__all__ = [
    "HttpError",
    "HttpRequest",
    "Responder",
    "SseStream",
    "read_request",
]

#: request-line + headers may not exceed this many bytes in total
MAX_HEADER_BYTES = 16 * 1024
#: request bodies above this are rejected with 413
MAX_BODY_BYTES = 4 * 1024 * 1024

STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Content",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    505: "HTTP Version Not Supported",
}

#: an RFC 9110 token: what a header name must be (no spaces before ``:``)
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_VERSION = re.compile(r"HTTP/[0-9]\.[0-9]")


class HttpError(Exception):
    """An error that maps directly onto an HTTP response.

    Raised anywhere inside request handling; the connection loop turns it
    into a JSON error response with ``status``, optional extra
    ``headers`` (e.g. ``Retry-After``) and optional extra ``payload``
    fields merged into the error body.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: dict[str, str] | None = None,
        payload: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})
        self.payload = dict(payload or {})

    def body(self) -> dict:
        """The JSON error body: payload fields under a stable envelope."""
        body = {
            "error": self.payload.pop("error", "HttpError"),
            "message": str(self),
            "status": self.status,
        }
        body.update(self.payload)
        return body


@dataclass
class HttpRequest:
    """One parsed request: method, decoded path, query params, headers, body."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """False when the client asked to close after this response."""
        tokens = self.headers.get("connection", "").lower().split(",")
        return "close" not in (token.strip() for token in tokens)

    def json(self) -> dict:
        """The body decoded as a JSON object; HttpError(400) otherwise."""
        if not self.body:
            return {}
        try:
            decoded = json.loads(self.body.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, not JSON, or an integer
            # literal past the interpreter's digit limit
            raise HttpError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(decoded, dict):
            raise HttpError(400, "request body must be a JSON object")
        return decoded


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # one line past the reader's buffer limit
        raise HttpError(431, "request head too large")


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one HTTP/1.1 request; None on a clean EOF before any bytes.

    Every :class:`HttpError` raised here leaves the stream position
    unknown: the caller answers it and closes the connection.
    """
    try:
        request_line = await _read_line(reader)
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not _VERSION.fullmatch(parts[2]):
        raise HttpError(400, "malformed HTTP request line")
    method, target, version = parts
    if version != "HTTP/1.1":
        raise HttpError(505, f"{version} is not supported; use HTTP/1.1")

    headers: dict[str, str] = {}
    header_bytes = len(request_line)
    while True:
        line = await _read_line(reader)
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(431, "request headers too large")
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise HttpError(400, "connection closed mid-headers")
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator or not _TOKEN.fullmatch(name):
            raise HttpError(400, f"malformed header line: {name.strip()!r}")
        name, value = name.lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "conflicting Content-Length headers")
        headers[name] = value

    if "transfer-encoding" in headers:
        raise HttpError(400, "request bodies are framed by Content-Length only")
    raw_length = headers.get("content-length", "0")
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise HttpError(400, f"invalid Content-Length: {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "connection closed mid-body")

    path, _, query_string = target.partition("?")
    return HttpRequest(
        method=method.upper(),
        path=urllib.parse.unquote(path),
        query=dict(urllib.parse.parse_qsl(query_string)),
        headers=headers,
        body=body,
    )


class Responder:
    """Writes the one response to one request.

    ``keep_alive`` is fixed when the request is read; every head this
    writes says so in its ``Connection`` header.  :attr:`status` is None
    until a head is built; after that an error can no longer be answered,
    only the connection closed.
    """

    def __init__(self, writer: asyncio.StreamWriter, *, keep_alive: bool) -> None:
        self.writer = writer
        self.keep_alive = keep_alive
        self.status: int | None = None

    def _head(self, status: int, headers: dict[str, str]) -> bytes:
        self.status = status
        lines = [f"HTTP/1.1 {status} {STATUS_PHRASES.get(status, 'Unknown')}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        lines.append(f"Connection: {'keep-alive' if self.keep_alive else 'close'}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send(
        self, status: int, content_type: str, body: bytes, headers: dict | None
    ) -> None:
        all_headers = {
            "Content-Type": content_type,
            "Content-Length": str(len(body)),
            "Cache-Control": "no-store",
            **(headers or {}),
        }
        self.writer.write(self._head(status, all_headers) + body)
        await self.writer.drain()

    async def json(
        self, status: int, payload: dict, *, headers: dict[str, str] | None = None
    ) -> None:
        """Write one complete JSON response."""
        body = json.dumps(payload, allow_nan=False).encode("utf-8") + b"\n"
        await self._send(status, "application/json", body, headers)

    async def text(self, status: int, text: str) -> None:
        """Write one complete response in the Prometheus text exposition
        format (``/metrics``)."""
        await self._send(
            status,
            "text/plain; version=0.0.4; charset=utf-8",
            text.encode("utf-8"),
            None,
        )

    def stream(self) -> "SseStream":
        """A ``200 text/event-stream`` response; its head goes out with
        the stream's first :meth:`SseStream.flush`."""
        head = self._head(
            200,
            {
                "Content-Type": "text/event-stream",
                "Cache-Control": "no-store",
                "Transfer-Encoding": "chunked",
            },
        )
        return SseStream(self.writer, head)


class SseStream:
    """A ``text/event-stream`` body, one chunk per event.

    Events are buffered until :meth:`flush`, which writes everything
    pending in one send: a late subscriber's replayed rounds, or the
    rounds and terminal event a scheduler slot settled together, cost
    one syscall instead of one each.  :meth:`end` appends the
    zero-length chunk after the terminal event (``result`` / ``error`` /
    ``cancelled``): that is how clients know the query settled, and it
    leaves the connection free for the next request.
    """

    def __init__(self, writer: asyncio.StreamWriter, head: bytes) -> None:
        self._writer = writer
        self._pending = [head]
        #: events written so far (server counters aggregate this)
        self.events_sent = 0

    def _chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self._pending.append(b"%x\r\n%b\r\n" % (len(data), data))

    def emit(self, event: str, data: dict) -> None:
        """Buffer one named event with a single-line JSON data payload."""
        payload = json.dumps(data, allow_nan=False)
        self._chunk(f"event: {event}\ndata: {payload}\n\n")
        self.events_sent += 1

    def comment(self, text: str) -> None:
        """Buffer a comment line (the SSE heartbeat idiom)."""
        self._chunk(f": {text}\n\n")

    def end(self) -> None:
        """Buffer the zero-length chunk that ends the body."""
        self._pending.append(b"0\r\n\r\n")

    async def flush(self) -> None:
        """Write everything buffered in one send."""
        self._writer.write(b"".join(self._pending))
        self._pending.clear()
        await self._writer.drain()
