"""``repro.obs`` — the unified observability layer (metrics + tracing).

One registry, one span tree per query, three export surfaces.  Every
layer of the pipeline (S1 plan cache through S6 HTTP) registers its
instruments under a named scope of the service's
:class:`~repro.obs.metrics.MetricsRegistry` and emits spans at its
existing seams; nothing is sampled, buffered or written to disk unless
an audit sink is configured.

Metric families
---------------

Full names are ``repro_<scope>_<metric>``; the scope is the layer.

=============================================  =========  ====================================
metric                                         type       meaning
=============================================  =========  ====================================
``repro_plan_builds``                          gauge      plans built by this planner
``repro_plan_cache_hits`` / ``_misses``        gauge      plan-cache lookups (process-wide
                                                          cache, process-lifetime totals)
``repro_exec_stop_reasons_total``              counter    finalised runs, ``reason`` label:
                                                          census / bound_met / sample_cap /
                                                          round_budget
``repro_exec_validate_batch_pending``          histogram  sampled only: batch sizes handed to
                                                          the S2 kernels (``_sum`` = answers
                                                          validated)
``repro_exec_sigma_closed_form``               counter    sampled only: bag / group sigmas taken
                                                          in closed form (COUNT, SUM under
                                                          SAMPLE)
``repro_exec_sigma_bootstrap``                 counter    sampled only: ... that paid for a
                                                          bootstrap index stream (AVG, PAPER)
``repro_scheduler_queries_submitted_total``    counter    accepted submissions
``repro_scheduler_queries_settled_total``      counter    settlements, ``status`` label
``repro_scheduler_round_seconds``              histogram  per-round wall clock (``_count`` =
                                                          rounds stepped)
``repro_scheduler_sheds_total``                counter    admission-control rejections
``repro_scheduler_deadline_expiries_total``    counter    per-query deadline expiries
``repro_scheduler_live_queries``               gauge      current non-terminal queries
``repro_server_connections_total``             counter    TCP connections accepted (a kept-alive
                                                          connection carries many requests)
``repro_server_requests_total``                counter    HTTP requests parsed
``repro_server_error_responses_total``         counter    responses with a status >= 400
``repro_server_request_seconds``               histogram  request handling wall clock
``repro_server_queries_submitted_total``       counter    queries accepted over HTTP
``repro_server_sse_streams_active``            gauge      live SSE streams
``repro_server_sse_events_total``              counter    SSE events written
``repro_server_quota_sheds``                   gauge      per-client token-bucket sheds
=============================================  =========  ====================================

Each fact has one instrument.  The executor registers the ``exec``
families it increments (``QueryExecutor.register_metrics``): production
exports ``stop_reasons_total`` alone.  A service's ``health()`` keys
are read-throughs of these instruments (key names unchanged), so health
and ``/metrics`` can never disagree.

Span names
----------

The scheduler opens one root span per query (``query``, attributes:
``query``/``kind``/``sequence``/``seed``) when observability is enabled
and makes it ambient around every slot the query holds.  Every child is
opened by one :class:`~repro.obs.trace.Clock`, the same primitive that
adds the interval to the query's ``stage_ms`` bucket where the seam has
one, so a span and its bucket read one ``perf_counter`` pair (a
``census`` or ``validate_batch`` span's duration is what it added to
``validation``).  Children:

* ``initialise`` — plans, then the census candidates or S1 and the
  little-sample bootstrap: ``plan_build`` children for plans not
  already cached; one ``similarity_row`` span per plan validator whose
  exact row a census-first query's candidates build (``kind`` =
  ``simple`` or ``chain``, ``reached`` = nodes with a path; a chain's row
  includes its first leg, and a warm plan's row is built already, so it
  opens none); and on a query that draws (a sampled executor's), one
  ``s1_stage`` span per call of the batched stage kernel by a plan's
  first draw (``hop``,
  ``sources`` = walks settled together, ``reached`` = scope nodes over
  the sources that have a stage): one for a simple plan, one per hop for
  a chain (under ``plan_build`` when the build runs S1 itself, as the
  figures' planner does);
* ``round`` — one S3 anytime round (``round_index``, ``kind``).  A
  census round nests one leaf ``census`` span (``support`` = joint
  support size, ``kept`` = the kept answers it screened), the
  intersection and screen it times.  A sampled round nests one
  ``validate_batch`` span per pass over new draws (S2, attribute
  ``pending``), and under it the ``similarity_row`` span of a row the
  batch builds.

``QueryHandle.trace()`` returns the tree as a nested JSON-clean dict
(:meth:`repro.obs.trace.Span.as_dict`); it is ``None`` when the service
was built with ``registry=NULL_REGISTRY``.

Audit log
---------

``AggregateQueryService(audit_log=...)`` (or ``repro serve
--audit-log PATH``) appends exactly one JSON line per settled query:

``ts`` (unix seconds), ``sequence``, ``query`` (AQL-ish describe),
``kind``, ``status`` (succeeded/failed/cancelled), ``seed``,
``rounds``, ``total_draws``, ``duration_ms``, ``stage_ms`` (the
per-stage buckets), and for successes ``estimate``/``moe``/``confidence``/
``guaranteed`` (extreme queries keep their honest ``moe=0.0`` /
``guaranteed=False`` sentinel — never NaN), for grouped results
``groups``, for failures ``error``.  A query refined after success
settles again and is audited again — one line per settlement.

Overhead contract
-----------------

Instruments are on by default.  Fixed-seed results are byte-identical
with ``registry=NULL_REGISTRY`` and equal to sequential ``execute``
(instrumentation performs no RNG draws and never touches memo insertion
order; ``tests/test_obs.py`` asserts it), and every ledger workload (``BENCHMARK.json``) runs
instrumented, so an instrumentation tax shows there as a latency
regression against the parent commit.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    NULL_REGISTRY,
    NullRegistry,
    shared_registry,
)
from repro.obs.trace import Clock, Span, current_span, start_span

__all__ = [
    "Clock",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "NULL_REGISTRY",
    "NullRegistry",
    "Span",
    "current_span",
    "shared_registry",
    "start_span",
]
