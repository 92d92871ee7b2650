"""``repro.server`` — the HTTP/SSE network front-end (S6).

The step from library to network service: a dependency-free HTTP/1.1 +
Server-Sent-Events server (:class:`ReproHTTPServer`, stdlib ``asyncio``
only) wrapping one long-lived
:class:`~repro.core.service.AggregateQueryService`, a synchronous thread
facade (:class:`ServerThread` / :func:`serve_in_thread`) for the CLI and
tests, per-client token-bucket admission (:class:`ClientQuota`), and a
client (:class:`ReproClient`, its own stdlib-socket HTTP/1.1 codec, no
code shared with the server's) that drives the same wire format from the
outside.
"""

from repro.server.app import (
    ReproHTTPServer,
    ServerThread,
    encode_result,
    encode_trace,
    error_payload,
    serve_in_thread,
    status_for,
)
from repro.server.client import HttpStatusError, MalformedResponseError, ReproClient
from repro.server.http import HttpError
from repro.server.quota import ClientQuota, QuotaRegistry, TokenBucket

__all__ = [
    "ClientQuota",
    "HttpError",
    "HttpStatusError",
    "MalformedResponseError",
    "QuotaRegistry",
    "ReproClient",
    "ReproHTTPServer",
    "ServerThread",
    "TokenBucket",
    "encode_result",
    "encode_trace",
    "error_payload",
    "serve_in_thread",
    "status_for",
]
