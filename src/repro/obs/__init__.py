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
``repro_plan_builds``                          gauge      S1 plans built by this planner
``repro_plan_catalog_hits``                    gauge      plans loaded from a snapshot catalog
``repro_plan_unconverged_walks``               gauge      CNARW walks out of step budget
``repro_plan_stage_batches``                   gauge      calls of the batched S1 stage kernel
``repro_plan_stage_sources``                   gauge      walks those calls settled
``repro_plan_cache_hits`` / ``_misses``        gauge      plan-cache lookups (process-wide
                                                          cache, process-lifetime totals)
``repro_exec_validated_entries_total``         counter    S2 candidate answers validated
``repro_exec_validate_batch_pending``          histogram  batch sizes handed to the S2 kernels
``repro_exec_conjunction_skips``               counter    answer x component searches an
                                                          earlier component's rejection saved
``repro_exec_sigma_closed_form``               counter    bag / group sigmas taken in closed
                                                          form (COUNT, SUM under SAMPLE)
``repro_exec_sigma_bootstrap``                 counter    ... that paid for a bootstrap index
                                                          stream (AVG, PAPER)
``repro_exec_replay_deletions``                counter    answers the trace replay settled
                                                          with >= 1 pop of their own deleted
``repro_exec_trace_extension_pops``            counter    pops recorded past a trace's budget
``repro_exec_private_searches``                counter    answers sent to a private search (an
                                                          extension met an unknown predicate)
``repro_exec_chain_expansions_live``           counter    chain-DFS path extensions walked
                                                          (tour recordings included)
``repro_exec_chain_expansions_replayed``       counter    ... settled from a shared hub tour
``repro_exec_chain_tour_replays``              counter    hub frames settled from a tour
``repro_exec_chain_tour_records``              counter    hub traversals recorded as tours
``repro_exec_chain_tour_fallbacks``            counter    hub frames with a tour walked anyway
``repro_scheduler_queries_submitted_total``    counter    accepted submissions
``repro_scheduler_queries_settled_total``      counter    settlements, ``status`` label
``repro_scheduler_rounds_total``               counter    anytime rounds completed (S3)
``repro_scheduler_round_seconds``              histogram  per-round wall clock
``repro_scheduler_sheds_total``                counter    admission-control rejections
``repro_scheduler_deadline_expiries_total``    counter    per-query deadline expiries
``repro_scheduler_live_queries``               gauge      current non-terminal queries
``repro_workers_respawns_total``               counter    worker pools replaced after a crash
``repro_workers_retries_total``                counter    lost rounds redispatched
``repro_workers_local_fallbacks_total``        counter    rounds run in-process instead
``repro_workers_memo_entries_shipped_total``   counter    memo entries serialised to workers
``repro_workers_memo_entries_saved_total``     counter    entries delta-shipping avoided
``repro_workers_delta_dispatches_total``       counter    rounds shipped as memo deltas
``repro_workers_full_dispatches_total``        counter    rounds shipped with full memos
``repro_server_requests_total``                counter    HTTP requests parsed
``repro_server_request_seconds``               histogram  request handling wall clock
``repro_server_queries_submitted_total``       counter    queries accepted over HTTP
``repro_server_sse_streams_active``            gauge      live SSE streams
``repro_server_sse_events_total``              counter    SSE events written
``repro_server_quota_sheds``                   gauge      per-client token-bucket sheds
=============================================  =========  ====================================

A service's ``health()`` keys are read-throughs of these instruments
(key names unchanged), so health and ``/metrics`` can never disagree.

Span names
----------

The scheduler opens one root span per query (``query``, attributes:
``query``/``kind``/``sequence``/``seed``) when observability is enabled
and activates it around every slot the query holds.  Children:

* ``initialise`` — S1: plan + collector + little-sample bootstrap, with
  ``plan_build`` children for plans not already cached, and under those
  one ``s1_stage`` span per call of the batched stage kernel (``hop``,
  ``sources`` = walks settled together, ``reached`` = scope nodes over
  the sources that have a stage): one for a simple plan, one per hop for
  a chain;
* ``round`` — one S3 anytime round (``round_index``, ``kind``); on the
  cooperative backend it nests ``validate_batch`` spans (S2,
  attribute ``pending``), and under those one ``chain_prefix`` span per
  chain-prefix level resolved (``level``, ``frontier``, and the chain
  DFS's ``replayed`` / ``live`` expansions; level ``k`` nests level
  ``k - 1``; none on simple queries); on the processes backend it covers export →
  apply and nests a synthetic ``worker_round`` child rebuilt from the
  worker's ``stage_seconds`` (``worker_pid``, ``attempts``) — worker
  processes themselves never carry spans;
* ``retry`` events under the affected round (worker died; ``attempt``,
  ``respawns``) — the S5 supervision seam.

``QueryHandle.trace()`` returns the tree as a nested JSON-clean dict
(:meth:`repro.obs.trace.Span.as_dict`); it is ``None`` when the service
was built with ``registry=NULL_REGISTRY``.

Audit log
---------

``AggregateQueryService(audit_log=...)`` (or ``repro serve
--audit-log PATH``) appends exactly one JSON line per settled query:

``ts`` (unix seconds), ``sequence``, ``query`` (AQL-ish describe),
``kind``, ``backend``, ``status`` (succeeded/failed/cancelled),
``seed``, ``rounds``, ``total_draws``, ``retries``, ``duration_ms``,
``stage_ms`` (the per-stage buckets, including ``ipc`` on the processes
backend), and for successes ``estimate``/``moe``/``confidence``/
``guaranteed`` (extreme queries keep their honest ``moe=0.0`` /
``guaranteed=False`` sentinel — never NaN), for grouped results
``groups``, for failures ``error``.  A query refined after success
settles again and is audited again — one line per settlement.

Overhead contract
-----------------

Instruments are on by default.  Fixed-seed results are byte-identical
with ``registry=NULL_REGISTRY`` and equal to sequential ``execute``
(instrumentation performs no RNG draws and never touches memo insertion
order; ``tests/test_obs.py`` asserts it on the cooperative and processes
backends), and every ledger workload (``BENCHMARK.json``) runs
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
from repro.obs.trace import Span, activate, child_span, current_span, start_span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "NULL_REGISTRY",
    "NullRegistry",
    "Span",
    "activate",
    "child_span",
    "current_span",
    "shared_registry",
    "start_span",
]
