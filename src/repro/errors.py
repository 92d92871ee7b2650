"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish specific failure modes.

Errors taxonomy
---------------

**Input/model errors** — the request itself is unusable; retrying the same
call cannot succeed:

* :class:`QueryError` / :class:`MappingNodeNotFoundError` — the query
  graph is invalid or names a specific node the KG does not have.
* :class:`GraphError` (:class:`NodeNotFoundError`,
  :class:`EdgeNotFoundError`) — a dangling node/edge reference.
* :class:`EmbeddingError` — the predicate embedding is misconfigured or
  missing the query's predicates.
* :class:`DatasetError` — inconsistent synthetic-dataset parameters.

**Data-dependent errors** — the pipeline ran but the data could not
support an answer; retrying without changing the graph or the query is
pointless, but the error is *honest* (never a fabricated estimate):

* :class:`SamplingError` — empty scope, no candidate answers.
* :class:`EstimationError` — an estimator applied to an unusable sample
  (e.g. zero correct draws for AVG).
* :class:`ConvergenceError` — an iterative procedure exhausted its budget.

**Concurrent-write errors** — :class:`GraphChangedError`: structural
writes landed after a query's plans were read and again while its census
re-planned, or a plan's similarity row is read for a node added after it
was built.  **Retryable** once the writes settle.

**Persistence errors**:

* :class:`StoreError` — a snapshot/plan *store-format* problem (bad
  manifest, stale key, corrupt segment).  Serving-lifecycle failures
  (a closed pool, a stuck scheduler) are :class:`ServiceError`, never
  ``StoreError``.

**Serving-lifecycle errors** — all derive from :class:`ServiceError`;
these describe the state of the *service*, not the query's data:

* :class:`ServiceError` — closed service, invalid handle operation,
  a query that failed inside the scheduler (the original error is
  chained as ``__cause__``).  Not retryable as-is.
* :class:`QueryCancelledError` — the caller (or ``close()``) cancelled
  the query.  Not retryable; resubmit if the cancel was accidental.
* :class:`ResultTimeoutError` — ``result(timeout=...)`` expired while
  the query kept running.  **Retryable**: call ``result()`` again; the
  query was not disturbed.
* :class:`DeadlineExceededError` — the query's own deadline expired
  mid-run.  Carries the last anytime trace (``.trace``): the loosest
  guaranteed estimate + CI is still available even though the run was
  abandoned.  **Retryable** with a larger deadline.
* :class:`ServiceOverloadedError` — admission control shed the request
  before any work ran (``max_pending`` / ``max_queued_runs``).
  **Retryable** after backoff: in-flight queries were not disturbed.

HTTP status mapping
-------------------

The network front-end (:mod:`repro.server`) maps the taxonomy onto
status codes (:func:`repro.server.app.status_for`).  A bare
:class:`ServiceError` whose ``__cause__`` chains a library error — how
``QueryHandle.result()`` wraps scheduler-side failures — is unwrapped
first, so the wire reports the *original* failure:

===================================  ======  ===================================
error                                status  wire semantics
===================================  ======  ===================================
:class:`QueryError` (incl. parse),   400     the request itself is unusable;
:class:`EmbeddingError`,                     don't retry unchanged
:class:`GraphError`,
:class:`DatasetError`
unknown query id                     404     (no library error; server-side)
:class:`QueryCancelledError`         409     the resource settled as cancelled
:class:`GraphChangedError`           409     the graph moved under the query;
                                             retry once the writes settle
:class:`SamplingError`,              422     the pipeline ran but the data
:class:`EstimationError`,                    could not support an answer;
:class:`ConvergenceError`                    honest refusal, not a server bug
:class:`ServiceOverloadedError`      429     shed before any work ran; retry
                                             after ``Retry-After`` seconds
(per-client quota shed)              429     same semantics, shed even earlier
:class:`StoreError`,                 503     the service (not the query) is the
:class:`ResultTimeoutError`,                 problem; retryable once it recovers
:class:`ServiceError` (lifecycle)
:class:`DeadlineExceededError`       504     the response carries the preserved
                                             partial ``trace`` — the anytime
                                             contract survives over the wire
anything else                        500     a server bug, loudly
===================================  ======  ===================================

One deliberate divergence: ``POST /v1/queries/{id}/refine`` maps a plain
:class:`ServiceError` to **400**, because there it means the client asked
to refine the wrong kind of query (or one already failed/cancelled) — a
statement about the request, not the service.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Structural problem with a knowledge graph (bad node/edge reference)."""


class NodeNotFoundError(GraphError):
    """A node id or name was not present in the graph."""


class EdgeNotFoundError(GraphError):
    """An edge reference was not present in the graph."""


class QueryError(ReproError):
    """A query graph or aggregate query specification is invalid."""


class MappingNodeNotFoundError(QueryError):
    """The specific node of a query graph has no mapping node in the KG.

    Raised when ``LG(us).name == LQ(qs).name`` with a compatible type cannot
    be satisfied by any graph node (Definition 5, condition 1).
    """


class EmbeddingError(ReproError):
    """An embedding model was misconfigured or used before training.

    Also raised when correctness validation weighs an edge whose
    predicate the embedding does not cover.  That is a failure of the
    plan's whole context, not of one answer: the exact similarity row
    from the mapping node weighs every edge within the bound, so the
    query's first validation fails, as SSB fails the whole query; a
    chain row weighs every leg's edges within the bound, so a chain plan
    fails as a whole too.  (A semantic plan fails earlier, at S1, whose
    weights need the same edges.)
    """


class SamplingError(ReproError):
    """The sampler could not produce a sample (empty scope, no answers...)."""


class EstimationError(ReproError):
    """An estimator was applied to an unusable sample (e.g. empty S_A+)."""


class ConvergenceError(ReproError):
    """An iterative procedure failed to converge within its budget."""


class GraphChangedError(ReproError):
    """The graph's structure moved while a query read it, and again while
    the query re-planned, or a plan's similarity row predates a node it is
    asked about: no one graph version answers it."""


class DatasetError(ReproError):
    """A synthetic dataset generator was given inconsistent parameters."""


class StoreError(ReproError):
    """A snapshot/plan store operation failed (bad format, stale key...)."""


class ServiceError(ReproError):
    """A query-serving operation was invalid (closed service, bad handle op)."""


class QueryCancelledError(ServiceError):
    """The query behind a handle was cancelled before producing a result."""


class ResultTimeoutError(ServiceError, TimeoutError):
    """``QueryHandle.result(timeout=...)`` expired before the run finished."""


class DeadlineExceededError(ServiceError, TimeoutError):
    """A query's deadline expired mid-run.

    The anytime contract survives the failure: :attr:`trace` holds the
    query's :class:`~repro.core.result.RoundTrace` tuple as of expiry, so
    the caller still gets the loosest guaranteed estimate + CI the rounds
    produced before the budget ran out.
    """

    def __init__(self, message: str, *, trace: tuple = ()) -> None:
        super().__init__(message)
        #: the last anytime ``progress()`` trace (may be empty if the
        #: deadline expired before the first round completed)
        self.trace = tuple(trace)


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a submission (service at its limits).

    Raised *before* any work runs, so in-flight queries are undisturbed;
    the request is safe to retry after backoff.
    """
