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
  ``initialise`` child and one ``round`` child per executed round, on
  both backends; processes rounds carry the synthetic
  ``worker_round`` child rebuilt from worker-side stage timings; a cold
  plan's ``plan_build`` span nests one ``s1_stage`` span per call of the
  batched S1 stage kernel, whose ``sources`` add up to the
  ``repro_plan_stage_sources`` gauge; a
  chain query's ``validate_batch`` spans nest one ``chain_prefix`` span
  per level resolved, whose ``replayed`` / ``live`` attributes add up to
  the ``repro_exec_chain_expansions_*`` counters (all zero on a simple
  query);
* the audit log — exactly one JSON line per settlement (refines append
  a second), JSON-clean for every kind including the extreme sentinel
  (``guaranteed=False`` / ``moe=0.0``), failures carrying the error;
* the ``/metrics`` endpoint — Prometheus text parse round-trip through
  ``ReproClient``, with families from every layer present;
* ``health()`` key-name byte compatibility after the counter migration,
  and (the ``chaos`` tests) ``health()`` polls racing worker crashes
  plus fault-injected runs leaving respawn/retry counters visible.
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
    FaultPlan,
    FaultSpec,
    GroupBy,
    QueryGraph,
)
from repro.core.executor import KINDS
from repro.core.plan import shared_plan_cache
from repro.core.result import GroupedResult
from repro.errors import ServiceError
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.semantics.kernels import CHAIN_TALLIES
from repro.server import ReproClient, serve_in_thread

COUNT_AQL = "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
BAD_AQL = "COUNT(*) MATCH (Atlantis:Country)-[product]->(x:Automobile)"

BACKENDS = ("cooperative", "processes")

CHAIN_COUNTERS = tuple(f"repro_exec_{name}" for name in CHAIN_TALLIES)


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
    config = EngineConfig(seed=7, max_rounds=8)
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

    @pytest.mark.parametrize("backend", ("cooperative", "processes"))
    def test_null_registry_disables_everything(self, world, backend):
        assert NULL_REGISTRY.enabled is False
        noop = NULL_REGISTRY.scope("t").counter("x_total")
        noop.inc()
        assert noop.value == 0
        assert NULL_REGISTRY.render_prometheus() == ""
        # ... and instrumentation moves no result: it draws no random
        # number and touches no memo, so instrumented == NULL_REGISTRY ==
        # sequential ``execute`` for a fixed seed, one query per kind and a
        # chain COUNT (the s1_stage and chain_prefix spans, the tour tallies)
        workload = [
            (world.count_query(), 3), (_grouped_query(), 4),
            (_extreme_query(), 5), (world.chain_count_query(), 6),
        ]
        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(
            world.kg, world.embedding, EngineConfig(seed=7, max_rounds=8)
        )
        sequential = [
            _value_fingerprint(engine.execute(query, seed=seed))
            for query, seed in workload
        ]
        workers = 2 if backend == "processes" else None
        for arm in ({"audit_log": io.StringIO()}, {"registry": NULL_REGISTRY}):
            with _service(
                world, backend=backend, workers=workers, **arm
            ) as service:
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
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["rounds", "grouped", "extreme"])
    def test_query_span_tree_shape(self, world, backend, kind):
        query = {
            "rounds": world.count_query,
            "grouped": _grouped_query,
            "extreme": _extreme_query,
        }[kind]()
        with _service(
            world, backend=backend,
            workers=2 if backend == "processes" else None,
        ) as service:
            handle = service.submit(query, seed=3)
            handle.result(timeout=60.0)
            trace = handle.trace()
        assert trace["name"] == "query"
        assert trace["attributes"]["kind"] == kind
        assert trace["duration_ms"] is not None
        assert _spans_named(trace, "initialise"), "missing S1 initialise span"
        assert not _spans_below(trace, "chain_prefix")  # no chain component
        rounds = _spans_named(trace, "round")
        assert rounds, "no round spans recorded"
        for span in rounds:
            assert span["attributes"]["kind"] == kind
            assert span["duration_ms"] is not None
        round_indexes = [s["attributes"]["round_index"] for s in rounds]
        assert round_indexes == sorted(round_indexes)
        if backend == "processes":
            workers = _spans_named(rounds[0], "worker_round")
            assert workers, "processes rounds must carry worker_round spans"
            assert workers[0]["attributes"]["attempts"] == 1
            assert workers[0]["attributes"]["worker_pid"] > 0

    def test_trace_is_json_clean(self, world):
        with _service(world) as service:
            handle = service.submit(_extreme_query(), seed=7)
            handle.result(timeout=30.0)
            trace = handle.trace()
        json.dumps(trace, allow_nan=False)  # must not raise


# ---------------------------------------------------------------------------
# The audit log
# ---------------------------------------------------------------------------
COMMON_AUDIT_KEYS = {
    "ts", "sequence", "query", "kind", "backend", "status", "seed",
    "rounds", "total_draws", "retries", "duration_ms", "stage_ms",
}


class TestAuditLog:
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
            assert line["backend"] == "cooperative"
            assert line["rounds"] >= 1
            assert line["duration_ms"] >= 0.0
            assert isinstance(line["stage_ms"], dict)
            # JSON-clean: no NaN/Inf survived serialisation
            for value in line["stage_ms"].values():
                assert math.isfinite(value)

        plain = by_kind["rounds"]
        assert math.isfinite(plain["estimate"]) and math.isfinite(plain["moe"])
        assert plain["confidence"] == pytest.approx(0.95)

        extreme = by_kind["extreme"]
        assert extreme["guaranteed"] is False  # the extreme sentinel
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
        shared_plan_cache().clear()
        config = EngineConfig(seed=7, max_rounds=8)
        service = AggregateQueryService(
            world.kg, world.embedding, config, backend="processes", workers=2
        )
        runner = serve_in_thread(service, owns_service=True)
        try:
            client = ReproClient(*runner.address)
            accepted = client.submit(COUNT_AQL, seed=3)
            client.wait(accepted["id"], timeout=60.0)
            samples = _parse_prometheus(client.metrics())
        finally:
            runner.stop()

        assert samples["repro_plan_builds"] == 1  # S1
        # S2: the family is registered (worker rounds validate inside the
        # worker process, so the parent-side counter may legitimately be 0;
        # TestExecMetrics pins the in-process case where it must tick)
        assert "repro_exec_validated_entries_total" in samples
        assert samples["repro_scheduler_rounds_total"] >= 1  # S3/S4
        assert samples['repro_scheduler_queries_settled_total{status="succeeded"}'] == 1
        assert samples["repro_workers_respawns_total"] == 0  # S5
        dispatches = (samples["repro_workers_delta_dispatches_total"]
                      + samples["repro_workers_full_dispatches_total"])
        assert dispatches >= 1
        assert samples["repro_server_requests_total"] >= 2  # S6
        assert samples["repro_server_queries_submitted_total"] == 1
        assert 'repro_server_request_seconds_bucket{le="+Inf"}' in samples

    def test_server_counters_live_on_the_service_registry(self, world):
        """One scrape covers the whole stack because the server registers
        its instruments on the service's registry, not a private one."""
        with _service(world) as service:
            runner = serve_in_thread(service, owns_service=False)
            try:
                client = ReproClient(*runner.address)
                client.healthz()
                text = service.registry.render_prometheus()
            finally:
                runner.stop()
        assert "repro_server_requests_total" in text


class TestExecMetrics:
    def test_in_process_rounds_tick_the_validation_counters(self, world):
        with _service(world) as service:
            service.submit(world.count_query(), seed=3).result(timeout=30.0)
            samples = _parse_prometheus(service.registry.render_prometheus())
        assert samples["repro_exec_validated_entries_total"] > 0
        assert samples["repro_exec_validate_batch_pending_count"] > 0
        # one component: nothing for the lazy conjunction to skip
        assert samples["repro_exec_conjunction_skips"] == 0
        # ... and no chain component: the chain DFS never ran
        for name in CHAIN_COUNTERS:
            assert samples[name] == 0
        # the replay-vs-search split: the shared trace settled every answer
        assert samples["repro_exec_private_searches"] == 0
        assert "repro_exec_replay_deletions" in samples
        assert "repro_exec_trace_extension_pops" in samples

    def test_cold_chain_count_replays_more_than_it_walks(self):
        """The golden ``chain_count`` case, cold: the hubs behind its
        answers are walked once and replayed for every later answer, and
        the ``chain_prefix`` spans say in which level the DFS ran."""
        from repro import QueryShape
        from repro.datasets import ALL_PRESETS, queries_of_shape, standard_workload

        bundle = ALL_PRESETS["yago2-like"](seed=0, scale=1.0)
        chain = queries_of_shape(  # COUNT first, then AVG
            standard_workload(bundle), QueryShape.CHAIN
        )[0].aggregate_query
        assert chain.function is AggregateFunction.COUNT
        shared_plan_cache().clear()
        with AggregateQueryService(
            bundle.kg, bundle.embedding, EngineConfig(seed=0)
        ) as service:
            handle = service.submit(chain)
            handle.result(timeout=60.0)
            samples = _parse_prometheus(service.registry.render_prometheus())
            trace = handle.trace()
        replayed = samples["repro_exec_chain_expansions_replayed"]
        live = samples["repro_exec_chain_expansions_live"]
        assert replayed > live > 0
        assert samples["repro_exec_chain_tour_replays"] > (
            samples["repro_exec_chain_tour_records"]
        ) > 0

        # the first validating round resolves both levels of the 2-hop
        # chain (level 1 nested in level 2); the DFS is level 2's alone
        first = _spans_below(_spans_named(trace, "round")[0], "validate_batch")[0]
        (outer,) = _spans_named(first, "chain_prefix")
        (inner,) = _spans_named(outer, "chain_prefix")
        assert outer["attributes"]["level"] == 2
        assert inner["attributes"]["level"] == 1
        assert inner["attributes"]["frontier"] > 0
        assert inner["attributes"]["replayed"] == inner["attributes"]["live"] == 0
        spans = _spans_below(trace, "chain_prefix")
        assert sum(span["attributes"]["replayed"] for span in spans) == replayed
        assert sum(span["attributes"]["live"] for span in spans) == live

    def test_s1_stage_spans_account_for_every_walk(self):
        """Cold plans say how S1 ran: one ``s1_stage`` span per call of the
        batched stage kernel, under ``plan_build`` — one per hop for a chain,
        one for a simple plan — and the two ``repro_plan_stage_*`` gauges
        count the same calls and walks."""
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
            handle = service.submit(chain)
            handle.result(timeout=60.0)
            chain_trace = handle.trace()
            after_chain = _parse_prometheus(service.registry.render_prometheus())
            handle = service.submit(simple)
            handle.result(timeout=60.0)
            simple_trace = handle.trace()
            after_both = _parse_prometheus(service.registry.render_prometheus())

        (build,) = _spans_below(chain_trace, "plan_build")
        stages = _spans_named(build, "s1_stage")
        assert stages == _spans_below(chain_trace, "s1_stage")
        first, second = (span["attributes"] for span in stages)
        assert (first["hop"], first["sources"]) == (0, 1)
        assert second["hop"] == 1 and second["sources"] > 1
        assert second["reached"] > first["reached"] > 0
        assert after_chain["repro_plan_stage_batches"] == 2
        assert after_chain["repro_plan_stage_sources"] == 1 + second["sources"]

        (stage,) = _spans_below(simple_trace, "s1_stage")
        assert (stage["attributes"]["hop"], stage["attributes"]["sources"]) == (0, 1)
        assert after_both["repro_plan_stage_batches"] == 3
        assert after_both["repro_plan_stage_sources"] == 2 + second["sources"]

    def test_star_query_ticks_the_conjunction_skips(self):
        """The golden ``star_count`` case: answers a simple component put
        below tau never reach the chain component's search."""
        from repro import QueryShape
        from repro.datasets import ALL_PRESETS, queries_of_shape, standard_workload

        bundle = ALL_PRESETS["yago2-like"](seed=0, scale=1.0)
        star = queries_of_shape(  # COUNT first, then AVG
            standard_workload(bundle), QueryShape.STAR
        )[0].aggregate_query
        shared_plan_cache().clear()
        with AggregateQueryService(
            bundle.kg, bundle.embedding, EngineConfig(seed=0)
        ) as service:
            service.submit(star).result(timeout=60.0)
            samples = _parse_prometheus(service.registry.render_prometheus())
        assert samples["repro_exec_conjunction_skips"] > 0

    def test_only_avg_and_paper_sigmas_pay_for_an_index_stream(self):
        """A ``dashboard_refresh``-shaped batch — one hub's COUNT, SUM,
        binned GROUP-BY COUNT, MAX and MIN — takes every sigma in closed
        form; the hub's AVG then bootstraps its three bags every round."""
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
        with AggregateQueryService(
            bundle.kg, bundle.embedding, EngineConfig(seed=0)
        ) as service:
            for handle in service.submit_batch([(query, 5) for query in hub]):
                handle.result(timeout=60.0)
            batch = _parse_prometheus(service.registry.render_prometheus())
            result = service.submit(avg, seed=5).result(timeout=60.0)
            after = _parse_prometheus(service.registry.render_prometheus())
        assert batch["repro_exec_sigma_bootstrap"] == 0
        assert batch["repro_exec_sigma_closed_form"] > 0
        assert after["repro_exec_sigma_bootstrap"] == 3 * len(result.rounds)
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

    def test_cooperative_health_keys(self, world):
        with _service(world) as service:
            health = service.health()
        assert set(health) == self.SERVICE_KEYS | {"backend"}
        assert set(health["live_by_kind"]) == set(KINDS)
        assert health["sheds"] == 0
        assert health["deadline_expiries"] == 0

    def test_processes_health_keys(self, world):
        with _service(world, backend="processes", workers=2) as service:
            service.submit(world.count_query(), seed=3).result(timeout=60.0)
            health = service.health()
        assert set(health) == self.SERVICE_KEYS | {
            "backend", "workers", "respawns", "retries", "local_fallbacks",
            "memo_deltas", "memo_entries_shipped", "memo_entries_saved",
            "delta_dispatches", "full_dispatches",
        }
        for key in ("respawns", "retries", "local_fallbacks"):
            assert isinstance(health[key], int)


# ---------------------------------------------------------------------------
# Fault injection: counters stay readable and end up visible (chaos tests)
# ---------------------------------------------------------------------------
class TestFaultInjectionChaos:
    def _crash_plan(self) -> FaultPlan:
        return FaultPlan([
            FaultSpec(site="worker_round", action="crash_worker",
                      match={"round": 2}, times=1),
        ])

    def test_chaos_health_polls_race_a_worker_crash(self, world):
        """Regression: ``health()`` used to read backend counters without
        any lock; a poll racing a respawn could observe a torn update.
        Counter reads are atomic now — hammer health() through the crash
        window and require every snapshot to be well-formed."""
        plan = self._crash_plan()
        stop = threading.Event()
        errors: list[BaseException] = []
        snapshots: list[dict] = []

        with _service(world, backend="processes", workers=2,
                      fault_plan=plan) as service:
            def hammer():
                try:
                    while not stop.is_set():
                        health = service.health()
                        assert health["respawns"] >= 0
                        assert isinstance(health["retries"], int)
                        snapshots.append(health)
                except BaseException as exc:  # surfaced after the join
                    errors.append(exc)

            pollers = [threading.Thread(target=hammer) for _ in range(3)]
            for poller in pollers:
                poller.start()
            try:
                handles = service.submit_batch(
                    [(world.count_query(), 3), (world.avg_query(), 4),
                     (world.sum_query(), 5)]
                )
                for handle in handles:
                    handle.result(timeout=120.0)
            finally:
                stop.set()
                for poller in pollers:
                    poller.join(timeout=10.0)
            assert not errors, errors
            assert plan.specs[0].fired == 1, "the crash fault never fired"
            assert service.health()["respawns"] >= 1
            assert snapshots, "health() was never sampled"

    def test_chaos_crash_leaves_respawn_metrics_in_exposition(self, world):
        """A fault-injected run must be visible on /metrics afterwards:
        the respawn and retry counters are the forensic record."""
        plan = self._crash_plan()
        with _service(world, backend="processes", workers=2,
                      fault_plan=plan) as service:
            handles = service.submit_batch(
                [(world.count_query(), 3), (world.avg_query(), 4)]
            )
            for handle in handles:
                handle.result(timeout=120.0)
            samples = _parse_prometheus(service.registry.render_prometheus())
            health = service.health()
        assert samples["repro_workers_respawns_total"] >= 1
        assert samples["repro_workers_retries_total"] >= 1
        # the registry and health() read the same counters — never diverge
        assert samples["repro_workers_respawns_total"] == health["respawns"]
        assert samples["repro_workers_retries_total"] == health["retries"]
