"""The unified observability layer: registry, spans, audit log, /metrics.

Observability is load-bearing serving surface here, so it gets the same
treatment as results: exact schemas, byte-compatible ``health()`` key
names, and determinism (instrumentation must never perturb fixed-seed
results: instrumented == ``NULL_REGISTRY`` == sequential ``execute``).

Covered:

* registry semantics — atomic concurrent increments, ``le``-inclusive
  histogram bucket edges, scope isolation, idempotent registration, a
  fresh registry per service, and the ``NULL_REGISTRY`` off switch;
* span trees — every settled query carries a ``query`` root with an
  ``initialise`` child and one ``round`` child per executed round; a cold
  census-first query's ``initialise`` nests one ``similarity_row`` span
  per plan whose row its candidates build (``kind`` simple or chain) and
  no ``s1_stage`` span, and a warm rerun nests neither; a sampled query's
  first draw runs one ``s1_stage`` span per call of the batched S1 stage
  kernel, whose ``sources`` add up to its ``PlanSampler``'s
  ``stage_sources`` counter; every span name is one of those in-process
  seams;
* the audit log — exactly one JSON line per settlement (refines append
  a second), JSON-clean for every kind including the extreme sentinel
  (``guaranteed=False`` / ``moe=0.0``), failures carrying the error,
  cancellations carrying no estimate;
* the ``/metrics`` endpoint — Prometheus text parse round-trip through
  ``ReproClient``, with families from every layer present, each in one of
  the lint contract's metric scopes;
* one measurement per fact — a warm census's trace is ``query →
  {initialise, round → {census}}``, its ``census`` span lasts what its
  round adds to ``validation``, and a production scrape holds none of the
  families that restated another or that only a sampled executor moves;
* ``health()`` key-name byte compatibility after the counter migration,
  and well-formed snapshots while pollers race a live batch.
"""

from __future__ import annotations

import io
import json
import math
import threading
from dataclasses import replace

import pytest

from repro import (
    AggregateFunction,
    AggregateQuery,
    AggregateQueryService,
    ApproximateAggregateEngine,
    EngineConfig,
    GroupBy,
    QueryGraph,
)
from repro.bench.sampled import PaperConfig
from repro.core.executor import KINDS, STAGE_VALIDATION
from repro.core.plan import shared_plan_cache
from repro.core.result import STOP_CENSUS, STOP_ROUND_BUDGET, GroupedResult
from repro.errors import ServiceError
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.obs import trace as obs_trace
from repro.obs.trace import Clock, current_span, start_span
from repro.server import ReproClient, serve_in_thread

COUNT_AQL = "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
BAD_AQL = "COUNT(*) MATCH (Atlantis:Country)-[product]->(x:Automobile)"

@pytest.fixture
def world(toy_world_factory):
    return toy_world_factory()


def _extreme_query() -> AggregateQuery:
    return AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.MAX,
        attribute="price",
    )


def _grouped_query() -> AggregateQuery:
    return AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.COUNT,
        group_by=GroupBy("price", bin_width=1000.0),
    )


def _value_fingerprint(result) -> tuple:
    """Estimate, MoE, draws and the round trace (timings excluded)."""
    if isinstance(result, GroupedResult):
        estimates = tuple(
            (key, group.value, group.moe, group.correct_draws)
            for key, group in sorted(result.groups.items())
        )
    else:
        estimates = (result.value, result.moe)
    rounds = tuple(replace(entry, seconds=0.0) for entry in result.rounds)
    return estimates, result.converged, result.total_draws, rounds


def _service(world, **kwargs) -> AggregateQueryService:
    shared_plan_cache().clear()
    config = EngineConfig(seed=7)
    return AggregateQueryService(world.kg, world.embedding, config, **kwargs)


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------
class TestRegistrySemantics:
    def test_concurrent_increments_are_atomic(self):
        registry = MetricsRegistry()
        counter = registry.scope("t").counter("hits_total")
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(2000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 16000

    def test_histogram_edges_are_le_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.scope("t").histogram("sizes", buckets=(1.0, 2.0, 5.0))
        hist.observe(1.0)  # exactly on an edge: lands in that edge's bucket
        hist.observe(2.5)
        hist.observe(10.0)  # past the last edge: +Inf only
        snap = hist.snapshot()
        assert snap["buckets"][1.0] == 1
        assert snap["buckets"][2.0] == 1  # cumulative
        assert snap["buckets"][5.0] == 2
        assert snap["buckets"][float("inf")] == 3
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(13.5)

    def test_scopes_isolate_metric_names(self):
        registry = MetricsRegistry()
        a = registry.scope("alpha").counter("events_total")
        b = registry.scope("beta").counter("events_total")
        a.inc(3)
        assert a is not b
        assert b.value == 0
        text = registry.render_prometheus()
        assert "repro_alpha_events_total 3" in text
        assert "repro_beta_events_total 0" in text

    def test_registration_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        scope = registry.scope("t")
        first = scope.counter("things_total")
        assert scope.counter("things_total") is first
        with pytest.raises(ValueError, match="already registered"):
            scope.gauge("things_total")

    def test_labelled_instruments_are_distinct(self):
        registry = MetricsRegistry()
        scope = registry.scope("t")
        ok = scope.counter("settled_total", labels={"status": "succeeded"})
        bad = scope.counter("settled_total", labels={"status": "failed"})
        ok.inc(2)
        assert bad.value == 0
        text = registry.render_prometheus()
        assert 'repro_t_settled_total{status="succeeded"} 2' in text
        assert 'repro_t_settled_total{status="failed"} 0' in text

    def test_each_service_gets_a_fresh_registry(self, world):
        with _service(world) as first:
            first.submit(COUNT_AQL, seed=3).result(timeout=30.0)
            submitted = first.registry.counter(
                "repro_scheduler_queries_submitted_total"
            )
            assert submitted.value == 1
        with _service(world) as second:
            assert second.registry is not first.registry
            fresh = second.registry.counter(
                "repro_scheduler_queries_submitted_total"
            )
            assert fresh.value == 0

    def test_null_registry_disables_everything(self, world):
        assert NULL_REGISTRY.enabled is False
        noop = NULL_REGISTRY.scope("t").counter("x_total")
        noop.inc()
        assert noop.value == 0
        assert NULL_REGISTRY.render_prometheus() == ""
        # ... and instrumentation moves no result: it draws no random
        # number and touches no memo, so instrumented == NULL_REGISTRY ==
        # sequential ``execute`` for a fixed seed, one query per kind and a
        # chain COUNT (the s1_stage and similarity_row spans)
        workload = [
            (world.count_query(), 3), (_grouped_query(), 4),
            (_extreme_query(), 5), (world.chain_count_query(), 6),
        ]
        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(
            world.kg, world.embedding, EngineConfig(seed=7)
        )
        sequential = [
            _value_fingerprint(engine.execute(query, seed=seed))
            for query, seed in workload
        ]
        for arm in ({"audit_log": io.StringIO()}, {"registry": NULL_REGISTRY}):
            with _service(world, **arm) as service:
                handles = service.submit_batch(workload)
                served = [
                    _value_fingerprint(handle.result(timeout=60.0))
                    for handle in handles
                ]
                for handle in handles:
                    assert (handle.trace() is None) == ("registry" in arm)
            assert served == sequential


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------
def _spans_named(node: dict, name: str) -> list[dict]:
    return [child for child in node["children"] if child["name"] == name]


def _spans_below(node: dict, name: str) -> list[dict]:
    """Every span called ``name`` anywhere under ``node``, in tree order."""
    found = []
    for child in node["children"]:
        if child["name"] == name:
            found.append(child)
        found.extend(_spans_below(child, name))
    return found


class TestSpanTrees:
    @pytest.mark.parametrize("kind", ["rounds", "grouped", "extreme"])
    def test_query_span_tree_shape(self, world, kind):
        query = {
            "rounds": world.count_query,
            "grouped": _grouped_query,
            "extreme": _extreme_query,
        }[kind]()
        with _service(world) as service:
            handle = service.submit(query, seed=3)
            handle.result(timeout=60.0)
            trace = handle.trace()
        assert trace["name"] == "query"
        assert trace["attributes"]["kind"] == kind
        assert trace["duration_ms"] is not None
        assert _spans_named(trace, "initialise"), "missing S1 initialise span"
        # no chain component: any row this query built is a simple one
        for span in _spans_below(trace, "similarity_row"):
            assert span["attributes"]["kind"] == "simple"
        rounds = _spans_named(trace, "round")
        assert rounds, "no round spans recorded"
        for span in rounds:
            assert span["attributes"]["kind"] == kind
            assert span["duration_ms"] is not None
        round_indexes = [s["attributes"]["round_index"] for s in rounds]
        assert round_indexes == sorted(round_indexes)

    def test_trace_is_json_clean(self, world):
        with _service(world) as service:
            handle = service.submit(_extreme_query(), seed=7)
            handle.result(timeout=30.0)
            trace = handle.trace()
        json.dumps(trace, allow_nan=False)  # must not raise

    def test_span_names_are_the_in_process_seams(self, world):
        """Every span a query grows comes from a seam its own slot runs:
        S1, the round and its validation — one kind of query at a time,
        a chain included, and no span stands in for a transport hop."""
        seams = {
            "query", "initialise", "plan_build", "s1_stage", "round",
            "census", "similarity_row",
        }

        def names(node: dict) -> set[str]:
            found = {node["name"]}
            for child in node["children"]:
                found |= names(child)
            return found

        workload = [
            (world.count_query(), 3), (_grouped_query(), 4),
            (_extreme_query(), 5), (world.chain_count_query(), 6),
        ]
        with _service(world) as service:
            handles = service.submit_batch(workload)
            for handle in handles:
                handle.result(timeout=60.0)
            seen = set().union(*(names(handle.trace()) for handle in handles))
        assert seen <= seams, sorted(seen - seams)
        assert {"query", "initialise", "round", "census"} <= seen


# ---------------------------------------------------------------------------
# One clock per stage: a span and its stage bucket read one perf_counter pair
# ---------------------------------------------------------------------------
class TestOneClock:
    def test_a_census_span_lasts_what_its_round_adds(self, world):
        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(
            world.kg, world.embedding, EngineConfig(seed=7)
        )
        state = engine.executor.initialise(world.count_query(), 3)
        state.timers.clear()  # keep only what the census round adds
        root = start_span("query")
        with Clock(parent=root):
            engine.executor.step(state, 0.01)
        (census,) = root.children
        assert (census.name, census.children) == ("census", [])
        assert census.duration_s == state.timers[STAGE_VALIDATION]

    def test_a_validate_batch_span_lasts_what_its_pass_adds(
        self, world, sampled_service
    ):
        """A sampled query validates each round's new draws in one
        ``validate_batch`` pass; its spans, added in the order they ran,
        are the validation bucket to the last bit."""
        shared_plan_cache().clear()
        config = PaperConfig(seed=7, max_rounds=3)
        with sampled_service(world.kg, world.embedding, config) as service:
            handle = service.submit(world.count_query(), seed=3, error_bound=1e-4)
            result = handle.result(timeout=60.0)
            root = handle._record.span
        passes = [
            span
            for round_span in root.children if round_span.name == "round"
            for span in round_span.children if span.name == "validate_batch"
        ]
        assert len(passes) > 1
        added = 0.0
        for span in passes:
            added += span.duration_s
        assert added * 1000.0 == result.stage_ms[STAGE_VALIDATION]

    def test_a_stage_that_raises_still_adds_and_closes(self):
        timers: dict[str, float] = {}
        root = start_span("query")
        with Clock(parent=root):
            with pytest.raises(ValueError):
                with Clock("risky", timers, STAGE_VALIDATION, pending=1):
                    raise ValueError("boom")
            assert current_span() is root
        assert current_span() is None
        (risky,) = root.children
        assert risky.duration_s is not None
        assert risky.duration_s == timers[STAGE_VALIDATION]
        assert risky.attributes == {"pending": 1}

    def test_without_an_active_span_no_span_is_built(self, world, monkeypatch):
        def no_span(*args, **kwargs):
            raise AssertionError("a Span was built with no span active")

        monkeypatch.setattr(obs_trace, "Span", no_span)
        timers: dict[str, float] = {}
        with Clock("validate_batch", timers, STAGE_VALIDATION) as span:
            assert span is None and current_span() is None
        assert list(timers) == [STAGE_VALIDATION]
        # the instrumentation-off service neither: every stage of a served
        # query runs with no span active
        with _service(world, registry=NULL_REGISTRY) as service:
            result = service.submit(world.count_query(), seed=3).result(timeout=60)
        assert STAGE_VALIDATION in result.stage_ms


# ---------------------------------------------------------------------------
# Each fact is measured once
# ---------------------------------------------------------------------------
#: families a production scrape does not hold: three restated another
#: instrument (census_queries = stop_reasons_total{reason="census"},
#: validated_entries_total = validate_batch_pending_sum, rounds_total =
#: round_seconds_count), and three only a sampled executor moves
NOT_IN_PRODUCTION = (
    "repro_exec_census_queries",
    "repro_exec_validated_entries_total",
    "repro_scheduler_rounds_total",
    "repro_exec_validate_batch_pending",
    "repro_exec_sigma_closed_form",
    "repro_exec_sigma_bootstrap",
)


def _families(exposition: str) -> set[str]:
    """The metric families a Prometheus text exposition declares."""
    return {
        line.split(" ")[2]
        for line in exposition.splitlines()
        if line.startswith("# TYPE ")
    }


class TestOneMeasurementPerFact:
    def test_a_warm_census_is_one_leaf_span_in_its_round(self, world):
        """Once its plan and row are warm, a served census's whole trace
        is its root, a leaf ``initialise`` and one ``round`` holding one
        leaf ``census`` span that records the support and what it kept."""

        def shape(node: dict) -> tuple:
            return node["name"], [shape(child) for child in node["children"]]

        with _service(world) as service:
            service.submit(world.count_query(), seed=3).result(timeout=60.0)
            handle = service.submit(world.count_query(), seed=4)
            result = handle.result(timeout=60.0)
            trace = handle.trace()
        assert shape(trace) == (
            "query", [("initialise", []), ("round", [("census", [])])]
        )
        census = trace["children"][1]["children"][0]
        assert census["attributes"] == {
            "support": result.num_candidates,
            "kept": census["attributes"]["kept"],
        }
        assert 0 < census["attributes"]["kept"] <= result.num_candidates

    def test_a_scrape_holds_only_the_families_its_executor_moves(
        self, world, sampled_service
    ):
        with _service(world) as service:
            service.submit(world.count_query(), seed=3).result(timeout=60.0)
            production = service.registry.render_prometheus()
        config = PaperConfig(seed=7)
        with sampled_service(world.kg, world.embedding, config) as service:
            service.submit(world.count_query(), seed=3).result(timeout=60.0)
            sampled = service.registry.render_prometheus()
        assert not _families(production) & set(NOT_IN_PRODUCTION)
        assert "repro_exec_stop_reasons_total" in _families(production)
        assert "repro_exec_validate_batch_pending" in _families(sampled)
        assert _parse_prometheus(sampled)["repro_exec_validate_batch_pending_sum"] > 0

    def test_an_executor_counts_only_for_an_instrumented_service(self, world):
        """A service registers its executor's instruments when
        observability is on and leaves it none when it is off, even an
        executor another service instrumented before."""
        engine = ApproximateAggregateEngine(
            world.kg, world.embedding, EngineConfig(seed=7)
        )
        layers = {"planner": engine.planner, "executor": engine.executor}
        with AggregateQueryService(world.kg, world.embedding, **layers):
            assert set(engine.executor.obs_metrics) == {"stop_reasons"}
        with AggregateQueryService(
            world.kg, world.embedding, registry=NULL_REGISTRY, **layers
        ):
            assert engine.executor.obs_metrics is None


# ---------------------------------------------------------------------------
# The audit log
# ---------------------------------------------------------------------------
COMMON_AUDIT_KEYS = {
    "ts", "sequence", "query", "kind", "status", "seed",
    "rounds", "total_draws", "duration_ms", "stage_ms",
}


class TestAuditLog:
    def test_sampled_extreme_line_keeps_the_no_ci_sentinel(
        self, world, tmp_path, sampled_service
    ):
        path = tmp_path / "audit.jsonl"
        shared_plan_cache().clear()
        with sampled_service(
            world.kg, world.embedding, PaperConfig(seed=7, max_rounds=8),
            audit_log=path,
        ) as service:
            service.submit(_extreme_query(), seed=5).result(timeout=30.0)
        (line,) = self._read_lines(path)
        assert line["guaranteed"] is False  # the extreme sentinel
        assert line["moe"] == 0.0
        assert line["stop_reason"] == STOP_ROUND_BUDGET

    def _read_lines(self, path) -> list[dict]:
        lines = []
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                lines.append(json.loads(raw))
        return lines

    def test_one_line_per_settled_query(self, world, tmp_path):
        path = tmp_path / "audit.jsonl"
        with _service(world, audit_log=path) as service:
            handles = service.submit_batch(
                [(world.count_query(), 3), (_grouped_query(), 4),
                 (_extreme_query(), 5)]
            )
            for handle in handles:
                handle.result(timeout=30.0)
        lines = self._read_lines(path)
        assert len(lines) == 3
        by_kind = {line["kind"]: line for line in lines}
        assert set(by_kind) == {"rounds", "grouped", "extreme"}

        for line in lines:
            assert COMMON_AUDIT_KEYS <= set(line), sorted(line)
            assert line["status"] == "succeeded"
            # one execution path: no constant backend or retry count
            assert not {"backend", "retries"} & set(line)
            assert line["rounds"] >= 1
            assert line["duration_ms"] >= 0.0
            assert isinstance(line["stage_ms"], dict)
            # JSON-clean: no NaN/Inf survived serialisation
            for value in line["stage_ms"].values():
                assert math.isfinite(value)

        plain = by_kind["rounds"]
        assert math.isfinite(plain["estimate"]) and math.isfinite(plain["moe"])
        assert plain["confidence"] == pytest.approx(0.95)

        # the toy world's support is smaller than a first sample: every
        # kind is a census, an exact MAX included
        assert {line["stop_reason"] for line in lines} == {STOP_CENSUS}
        extreme = by_kind["extreme"]
        assert extreme["guaranteed"] is True
        assert extreme["moe"] == 0.0

        grouped = by_kind["grouped"]
        assert grouped["groups"] >= 1
        assert "estimate" not in grouped

    def test_refine_appends_a_second_line(self, world, tmp_path):
        path = tmp_path / "audit.jsonl"
        with _service(world, audit_log=path) as service:
            handle = service.submit(world.avg_query(), seed=5,
                                    error_bound=0.05)
            handle.result(timeout=30.0)
            handle.refine(0.02).result(timeout=30.0)
        lines = self._read_lines(path)
        assert len(lines) == 2
        assert lines[0]["sequence"] == lines[1]["sequence"]
        assert all(line["status"] == "succeeded" for line in lines)

    def test_failed_query_is_audited_with_the_error(self, world, tmp_path):
        path = tmp_path / "audit.jsonl"
        with _service(world, audit_log=path) as service:
            handle = service.submit(BAD_AQL, seed=3)
            with pytest.raises(ServiceError):
                handle.result(timeout=30.0)
        (line,) = self._read_lines(path)
        assert line["status"] == "failed"
        assert "Atlantis" in line["error"]

    def test_file_like_sink_is_not_closed_by_the_service(self, world):
        sink = io.StringIO()
        with _service(world, audit_log=sink) as service:
            service.submit(world.count_query(), seed=3).result(timeout=30.0)
        assert not sink.closed
        (line,) = [json.loads(raw) for raw in sink.getvalue().splitlines()]
        assert line["kind"] == "rounds"

    def test_size_based_rotation_keeps_one_generation(self, world, tmp_path):
        path = tmp_path / "audit.jsonl"
        with _service(world, audit_log=path) as service:
            service.submit(world.count_query(), seed=3).result(timeout=30.0)
        line_bytes = path.stat().st_size
        path.unlink()

        # cap below two lines: every write after the first rotates
        with _service(
            world, audit_log=path, audit_log_max_bytes=int(line_bytes * 1.5)
        ) as service:
            for seed in (3, 4, 5):
                service.submit(world.count_query(), seed=seed).result(
                    timeout=30.0
                )
        rotated = tmp_path / "audit.jsonl.1"
        assert rotated.exists()
        # main + one rotated generation, every surviving line JSON-clean
        kept = self._read_lines(path) + self._read_lines(rotated)
        assert len(kept) == 2
        assert all(line["status"] == "succeeded" for line in kept)
        assert path.stat().st_size <= line_bytes * 1.5

    def test_rotation_cap_must_be_positive(self, world):
        with pytest.raises(ServiceError, match="audit_log_max_bytes"):
            _service(world, audit_log="unused.jsonl", audit_log_max_bytes=0)

    def test_rotation_cap_on_a_stream_is_an_error(self, world):
        """Rotation renames a file; a caller-owned stream has none, so a
        cap beside it raises instead of being dropped silently."""
        sink = io.StringIO()
        with pytest.raises(ServiceError, match="needs a file path"):
            _service(world, audit_log=sink, audit_log_max_bytes=1024)
        assert sink.getvalue() == ""

    def test_cancelled_query_is_audited_without_an_estimate(self, world):
        sink = io.StringIO()
        service = _service(world, audit_log=sink, autostart=False)
        try:
            handle = service.submit(world.count_query(), seed=3)
            assert handle.cancel() is True
        finally:
            service.close()
        (line,) = [json.loads(raw) for raw in sink.getvalue().splitlines()]
        assert COMMON_AUDIT_KEYS <= set(line)
        assert line["status"] == "cancelled"
        assert (line["rounds"], line["total_draws"], line["stage_ms"]) == (
            0, 0, {},
        )
        assert not {"estimate", "moe", "stop_reason", "error"} & set(line)

    def test_audit_path_may_be_a_plain_string(self, world, tmp_path):
        path = tmp_path / "audit.jsonl"
        with _service(world, audit_log=str(path)) as service:
            service.submit(world.count_query(), seed=3).result(timeout=30.0)
        (line,) = self._read_lines(path)
        assert line["status"] == "succeeded"

    def test_no_rotation_without_cap(self, world, tmp_path):
        path = tmp_path / "audit.jsonl"
        with _service(world, audit_log=path) as service:
            for seed in (3, 4, 5):
                service.submit(world.count_query(), seed=seed).result(
                    timeout=30.0
                )
        assert len(self._read_lines(path)) == 3
        assert not (tmp_path / "audit.jsonl.1").exists()


# ---------------------------------------------------------------------------
# /metrics over the wire
# ---------------------------------------------------------------------------
def _parse_prometheus(text: str) -> dict[str, float]:
    """name{labels} -> value; asserts every line round-trips the format."""
    samples: dict[str, float] = {}
    types: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            family, kind = rest.split(" ", 1)
            types[family] = kind
            continue
        if line.startswith("#"):
            continue
        name_and_labels, _, value = line.rpartition(" ")
        assert name_and_labels, f"malformed sample line: {line!r}"
        samples[name_and_labels] = float(value)  # must parse as a number
    assert types, "no TYPE comments in the exposition"
    return samples


class TestMetricsEndpoint:
    def test_metrics_round_trip_covers_every_layer(self, world):
        runner = serve_in_thread(_service(world), owns_service=True)
        try:
            with ReproClient(*runner.address) as client:
                accepted = client.submit(COUNT_AQL, seed=3)
                client.wait(accepted["id"], timeout=60.0)
                samples = _parse_prometheus(client.metrics())
        finally:
            runner.stop()

        assert samples["repro_plan_builds"] == 1  # S1
        assert samples['repro_exec_stop_reasons_total{reason="census"}'] == 1  # S2
        assert samples["repro_scheduler_round_seconds_count"] == 1  # S3/S4
        assert samples['repro_scheduler_queries_settled_total{status="succeeded"}'] == 1
        assert samples["repro_server_requests_total"] >= 2  # S6
        assert samples["repro_server_queries_submitted_total"] == 1
        # one client, one kept-alive connection; no error response
        assert samples["repro_server_connections_total"] == 1
        assert samples["repro_server_error_responses_total"] == 0
        assert 'repro_server_request_seconds_bucket{le="+Inf"}' in samples

    def test_server_counters_live_on_the_service_registry(self, world):
        """One scrape covers the whole stack because the server registers
        its instruments on the service's registry, not a private one."""
        with _service(world) as service:
            runner = serve_in_thread(service, owns_service=False)
            try:
                with ReproClient(*runner.address) as client:
                    client.healthz()
                text = service.registry.render_prometheus()
            finally:
                runner.stop()
        assert "repro_server_requests_total" in text

    def test_exposition_families_are_the_contract_scopes(self, world):
        """A scrape of the whole stack holds a family from every scope the
        lint contract (REP401) names, and from no other."""
        from repro.analysis import LintConfig

        config = LintConfig()
        prefixes = {
            f"{config.metric_namespace}_{scope}_": scope
            for scope in config.metric_scopes
        }
        runner = serve_in_thread(_service(world), owns_service=True)
        try:
            with ReproClient(*runner.address) as client:
                accepted = client.submit(COUNT_AQL, seed=3)
                client.wait(accepted["id"], timeout=60.0)
                samples = _parse_prometheus(client.metrics())
        finally:
            runner.stop()
        scopes_seen = set()
        for name in samples:
            owners = [
                scope for prefix, scope in prefixes.items()
                if name.startswith(prefix)
            ]
            assert owners, f"{name} sits in no contract scope"
            scopes_seen.update(owners)
        assert scopes_seen == set(config.metric_scopes)


class TestExecMetrics:
    def test_in_process_rounds_tick_the_validation_counters(
        self, world, sampled_service
    ):
        """A sampled round hands its new draws to S2 in one batch, and
        the batch sizes add up in ``validate_batch_pending``."""
        config = PaperConfig(seed=7)
        with sampled_service(world.kg, world.embedding, config) as service:
            service.submit(world.count_query(), seed=3).result(timeout=30.0)
            samples = _parse_prometheus(service.registry.render_prometheus())
        assert samples["repro_exec_validate_batch_pending_sum"] > 0
        assert samples["repro_exec_validate_batch_pending_count"] > 0
        # S2 searches nothing: no conjunction skip or chain DFS counter
        assert not [
            name for name in samples
            if name.startswith("repro_exec_chain_")
            or name.startswith("repro_exec_conjunction_")
        ]

    def test_a_per_query_confidence_still_ticks_the_exec_counters(
        self, world, sampled_service
    ):
        """A query's confidence lives on its state, so a non-default one
        steps on the service's executor and reports to its registry, and
        a first round validates the same draws at either confidence."""
        config = PaperConfig(seed=7, max_rounds=1)
        validated = []
        for confidence in (None, 0.9):
            with sampled_service(world.kg, world.embedding, config) as service:
                service.submit(
                    world.count_query(), seed=3, confidence=confidence
                ).result(timeout=30.0)
                samples = _parse_prometheus(service.registry.render_prometheus())
            validated.append(samples["repro_exec_validate_batch_pending_sum"])
        assert validated[0] > 0
        assert validated[1] == validated[0]

    def test_stop_reasons_count_every_finalised_run(self, world, sampled_service):
        """``repro_exec_stop_reasons_total{reason}`` ticks once per run, by
        its result's ``stop_reason``: a production query is a census; a
        sampled one meets its bound, fills the sample cap or spends its
        round budget."""

        def reasons(service) -> dict[str, float]:
            samples = _parse_prometheus(service.registry.render_prometheus())
            return {
                reason: samples[f'repro_exec_stop_reasons_total{{reason="{reason}"}}']
                for reason in ("census", "bound_met", "sample_cap", "round_budget")
            }

        with _service(world) as service:
            result = service.submit(world.count_query(), seed=3).result(timeout=30.0)
            assert result.stop_reason == "census"
            assert reasons(service) == {
                "census": 1, "bound_met": 0, "sample_cap": 0, "round_budget": 0,
            }

        shared_plan_cache().clear()
        runs = [
            ({"error_bound": 0.5}, PaperConfig(seed=7), "bound_met"),
            (
                {"error_bound": 1e-4},
                PaperConfig(seed=7, max_sample_size=120),
                "sample_cap",
            ),
            ({"error_bound": 1e-4}, PaperConfig(seed=7, max_rounds=2), "round_budget"),
        ]
        for kwargs, config, reason in runs:
            with sampled_service(world.kg, world.embedding, config) as service:
                result = service.submit(
                    world.count_query(), seed=3, **kwargs
                ).result(timeout=60.0)
                assert result.stop_reason == reason
                counted = reasons(service)
            assert counted == {
                name: float(name == reason) for name in counted
            }, reason

    @pytest.mark.parametrize("shape", ["chain", "star"])
    def test_a_cold_query_builds_one_similarity_row_per_plan(self, shape):
        """The golden ``chain_count`` / ``star_count`` case, cold: reading
        the census candidates in ``initialise`` builds each plan's row
        once, in one ``similarity_row`` span (a chain's first leg
        included), the census round builds none, and a warm rerun builds
        none."""
        from repro import QueryShape
        from repro.datasets import ALL_PRESETS, queries_of_shape, standard_workload

        bundle = ALL_PRESETS["yago2-like"](seed=0, scale=1.0)
        query = queries_of_shape(  # COUNT first, then AVG
            standard_workload(bundle),
            QueryShape.CHAIN if shape == "chain" else QueryShape.STAR,
        )[0].aggregate_query
        assert query.function is AggregateFunction.COUNT
        shared_plan_cache().clear()
        with AggregateQueryService(
            bundle.kg, bundle.embedding, EngineConfig(seed=0)
        ) as service:
            handle = service.submit(query)
            handle.result(timeout=60.0)
            cold = handle.trace()
            handle = service.submit(query, seed=1)
            handle.result(timeout=60.0)
            warm = handle.trace()
        rows = _spans_below(cold, "similarity_row")
        components = query.query.components
        assert sorted(span["attributes"]["kind"] for span in rows) == sorted(
            "simple" if component.is_simple else "chain" for component in components
        )
        assert "chain" in {span["attributes"]["kind"] for span in rows}
        for span in rows:
            assert span["attributes"]["reached"] > 0
        (initialise,) = _spans_named(cold, "initialise")
        assert _spans_below(initialise, "similarity_row") == rows
        (census,) = _spans_below(cold, "census")
        assert not _spans_below(census, "similarity_row")
        assert not _spans_below(warm, "similarity_row")

    def test_s1_stage_spans_account_for_every_walk(self, sampled_service):
        """A sampled query runs S1 on its plans' first draw: one
        ``s1_stage`` span per call of the batched stage kernel, under
        ``initialise`` — one per hop for a chain, one for a simple plan —
        and the executor's ``PlanSampler`` counts the same calls and walks.
        The census-first run of the same queries runs none."""
        from repro import QueryShape
        from repro.datasets import ALL_PRESETS, queries_of_shape, standard_workload

        bundle = ALL_PRESETS["yago2-like"](seed=0, scale=1.0)
        workload = standard_workload(bundle)
        chain = queries_of_shape(workload, QueryShape.CHAIN)[0].aggregate_query
        simple = queries_of_shape(workload, QueryShape.SIMPLE)[0].aggregate_query
        assert len(chain.query.components[0].hops) == 2
        shared_plan_cache().clear()
        with AggregateQueryService(
            bundle.kg, bundle.embedding, EngineConfig(seed=0)
        ) as service:
            for query in (chain, simple):
                handle = service.submit(query)
                handle.result(timeout=60.0)
                assert not _spans_below(handle.trace(), "s1_stage")
            census = _parse_prometheus(service.registry.render_prometheus())
        assert census["repro_plan_builds"] == 2
        # S1 and its counters are the sampled side's: a census exports none
        assert not any(name.startswith("repro_plan_stage") for name in census)

        shared_plan_cache().clear()
        with sampled_service(
            bundle.kg, bundle.embedding, PaperConfig(seed=0)
        ) as service:
            plan_sampler = service._executor.sampler
            handle = service.submit(chain)
            handle.result(timeout=60.0)
            chain_trace = handle.trace()
            after_chain = (plan_sampler.stage_batches, plan_sampler.stage_sources)
            handle = service.submit(simple)
            handle.result(timeout=60.0)
            simple_trace = handle.trace()
            after_both = (plan_sampler.stage_batches, plan_sampler.stage_sources)

        (initialise,) = _spans_named(chain_trace, "initialise")
        stages = _spans_named(initialise, "s1_stage")
        assert stages == _spans_below(chain_trace, "s1_stage")
        for build in _spans_below(initialise, "plan_build"):
            assert not build["children"]  # S1 ran on the draw, not the build
        first, second = (span["attributes"] for span in stages)
        assert (first["hop"], first["sources"]) == (0, 1)
        assert second["hop"] == 1 and second["sources"] > 1
        assert second["reached"] > first["reached"] > 0
        assert after_chain == (2, 1 + second["sources"])

        (stage,) = _spans_below(simple_trace, "s1_stage")
        assert (stage["attributes"]["hop"], stage["attributes"]["sources"]) == (0, 1)
        assert after_both == (3, 2 + second["sources"])

    def test_only_avg_and_paper_sigmas_pay_for_an_index_stream(self, sampled_service):
        """A ``dashboard_refresh``-shaped batch — one hub's COUNT, SUM,
        binned GROUP-BY COUNT, MAX and MIN — takes every sigma in closed
        form; the hub's AVG then bootstraps its three bags every sampled
        round (a census round takes no sigma)."""
        from repro import QueryShape
        from repro.datasets import ALL_PRESETS, queries_of_shape, standard_workload

        bundle = ALL_PRESETS["yago2-like"](seed=0, scale=1.0)
        hub = [
            stated.aggregate_query
            for stated in queries_of_shape(standard_workload(bundle), QueryShape.SIMPLE)
            if stated.hub_keys == ("spain_players",)
            and not stated.aggregate_query.has_filters
        ]
        functions = [query.function for query in hub]
        avg = hub.pop(functions.index(AggregateFunction.AVG))
        assert sorted(query.function.value for query in hub) == [
            "COUNT", "COUNT", "MAX", "MIN", "SUM",
        ]
        with sampled_service(
            bundle.kg, bundle.embedding, PaperConfig(seed=0)
        ) as service:
            for handle in service.submit_batch([(query, 5) for query in hub]):
                handle.result(timeout=60.0)
            batch = _parse_prometheus(service.registry.render_prometheus())
            result = service.submit(avg, seed=5).result(timeout=60.0)
            after = _parse_prometheus(service.registry.render_prometheus())
        assert batch["repro_exec_sigma_bootstrap"] == 0
        assert batch["repro_exec_sigma_closed_form"] > 0
        sampled_rounds = len(result.rounds) - (result.stop_reason == STOP_CENSUS)
        assert after["repro_exec_sigma_bootstrap"] == 3 * sampled_rounds
        assert (
            after["repro_exec_sigma_closed_form"]
            == batch["repro_exec_sigma_closed_form"]
        )


# ---------------------------------------------------------------------------
# health() byte compatibility after the counter migration
# ---------------------------------------------------------------------------
class TestHealthKeyCompat:
    SERVICE_KEYS = {
        "closed", "scheduler_phase", "uptime_s", "live_queries",
        "live_by_kind", "sheds", "deadline_expiries", "max_pending",
        "max_queued_runs",
    }

    def test_health_keys(self, world):
        with _service(world) as service:
            health = service.health()
        assert set(health) == self.SERVICE_KEYS
        assert set(health["live_by_kind"]) == set(KINDS)
        assert health["sheds"] == 0
        assert health["deadline_expiries"] == 0

    def test_health_polls_race_a_live_batch(self, world):
        """``health()`` reads its counters under the service lock: threads
        polling it through a batch's rounds (slowed by a hang fault) see
        well-formed snapshots whose per-kind counts add up."""
        from repro import FaultPlan, FaultSpec

        plan = FaultPlan([
            FaultSpec(site="slot", action="hang", seconds=0.002, times=None),
        ])
        stop = threading.Event()
        errors: list[BaseException] = []
        live_counts: list[int] = []

        with _service(world, fault_plan=plan) as service:
            def poll() -> None:
                try:
                    while not stop.is_set():
                        health = service.health()
                        assert set(health) == self.SERVICE_KEYS
                        assert health["live_queries"] == sum(
                            health["live_by_kind"].values()
                        )
                        live_counts.append(health["live_queries"])
                except BaseException as exc:  # surfaced after the join
                    errors.append(exc)

            pollers = [threading.Thread(target=poll) for _ in range(3)]
            for poller in pollers:
                poller.start()
            try:
                handles = service.submit_batch([
                    (world.count_query(), 3), (_grouped_query(), 4),
                    (_extreme_query(), 5), (world.avg_query(), 6),
                ])
                for handle in handles:
                    handle.result(timeout=60.0)
            finally:
                stop.set()
                for poller in pollers:
                    poller.join(timeout=30.0)
            final = service.health()
        assert not errors, errors
        assert live_counts and max(live_counts) > 0
        assert final["live_queries"] == 0
        assert plan.specs[0].fired > 0
