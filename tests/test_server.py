"""The HTTP/SSE front-end: the wire is as good as the library.

The contract under test is *equivalence*: a fixed-seed query submitted
over HTTP must return exactly what ``service.submit`` returns in-process
(byte-identical JSON once wall-clock timings are stripped), and the SSE
stream must replay the handle's anytime trace entry-for-entry — plus the
protocol edges: the error taxonomy mapped onto status codes, per-client
quota sheds, admission-control 429s with ``Retry-After``, deadline
expiry carrying the partial trace, cancellation mid-stream, and graceful
shutdown draining a live stream.  Under all of it, the wire itself:
persistent connections (one per client, chunked SSE bodies), malformed
and smuggling-shaped requests answered with their own 4xx and a close,
a byte-mutation fuzz of the request parser over a raw socket, and the
client's own reading of hostile responses from a raw-socket stub (broken
HTTP framing, each body framing, non-JSON error bodies, broken event
frames, mutated JSON responses and a mutated chunked event stream).
"""

from __future__ import annotations

import contextlib
import json
import math
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AggregateQueryService,
    EngineConfig,
    parse_query,
)
from repro.bench.sampled import PaperConfig
from repro.core.plan import shared_plan_cache
from repro.core.resilience import ServiceLimits
from repro.errors import ReproError
from repro.server import (
    ClientQuota,
    HttpStatusError,
    MalformedResponseError,
    ReproClient,
    ReproHTTPServer,
    ServerThread,
    encode_result,
    encode_trace,
    serve_in_thread,
)

COUNT_AQL = "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
AVG_AQL = "AVG(price) MATCH (Germany:Country)-[product]->(x:Automobile)"
MAX_AQL = "MAX(price) MATCH (Germany:Country)-[product]->(x:Automobile)"
GROUPED_AQL = (
    "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile) "
    "GROUP BY price BIN 20000"
)
#: an unreachable bound: the query runs until its service's round budget is
#: spent (or, under a stalled scheduler, stays live)
NEVER = {"error_bound": 1e-12}


def _stall(service, rounds: int, nap: float = 0.01):
    """``service`` with its first ``rounds`` scheduler passes run normally
    and every later one stalled (napping without progress) until cancelled
    — a query that stays live indefinitely while its early rounds are
    already streamed.  The draw budget settles even 1e-12-bound queries in
    well under a second, so liveness for cancel/drain/overload tests needs
    a scheduler that holds the door open, not a tighter bound."""
    run_cohort = service._run_cohort
    passes = 0

    def stalling(cohort) -> None:
        nonlocal passes
        if passes < rounds:
            passes += 1
            run_cohort(cohort)
        elif cohort:
            time.sleep(nap)

    service._run_cohort = stalling
    return service


@pytest.fixture
def world(toy_world_factory):
    """A fresh toy world per test: isolates the process-wide plan cache."""
    return toy_world_factory()


def _service(
    world, *, limits=None, make=AggregateQueryService
) -> AggregateQueryService:
    """A service over the toy world; ``make`` is its constructor (the
    ``sampled_service`` fixture, under the sampler's config, for a run that
    must not end in a census)."""
    if make is AggregateQueryService:
        config = EngineConfig(seed=7)
    else:
        config = PaperConfig(seed=7, max_rounds=8)
    return make(world.kg, world.embedding, config, limits=limits)


@contextlib.contextmanager
def _serve(service, **server_kwargs):
    """A server thread over ``service`` plus a client pointed at it."""
    server_kwargs.setdefault("owns_service", True)
    runner = serve_in_thread(service, **server_kwargs)
    try:
        with ReproClient(*runner.address) as client:
            yield client, runner
    finally:
        runner.stop()


def _strip_timings(payload):
    """Drop every wall-clock field, recursively (results and traces)."""
    if isinstance(payload, dict):
        return {
            key: _strip_timings(value)
            for key, value in payload.items()
            if key not in ("stage_ms", "seconds")
        }
    if isinstance(payload, list):
        return [_strip_timings(item) for item in payload]
    return payload


def _canonical(payload) -> bytes:
    return json.dumps(_strip_timings(payload), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# Equivalence: the wire returns exactly what the library returns
# ---------------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("aql", [COUNT_AQL, AVG_AQL, MAX_AQL, GROUPED_AQL])
    def test_http_result_byte_identical_to_direct_submit(
        self, toy_world_factory, aql
    ):
        shared_plan_cache().clear()
        with _serve(_service(toy_world_factory())) as (client, _runner):
            accepted = client.submit(aql, error_bound=0.2, seed=11)
            over_http = client.wait(accepted["id"])["result"]

        shared_plan_cache().clear()
        with _service(toy_world_factory()) as service:
            handle = service.submit(aql, error_bound=0.2, seed=11)
            direct = encode_result(handle.result(), timings=False)

        assert _canonical(over_http) == json.dumps(
            direct, sort_keys=True
        ).encode(), "HTTP result must be byte-identical to direct submit"

    def test_grouped_entries_carry_each_groups_distinct_answers(
        self, world, drive_lifecycle, sampled_engine, sampled_service
    ):
        """Every per-group entry on the wire reports its group's distinct
        drawn support entries, not the 0 it used to repeat."""
        with _serve(_service(world, make=sampled_service)) as (client, _runner):
            accepted = client.submit(GROUPED_AQL, error_bound=0.2, seed=11)
            payload = client.wait(accepted["id"])["result"]
        engine = sampled_engine(
            world.kg, world.embedding, PaperConfig(seed=7, max_rounds=8)
        )
        state, _result = drive_lifecycle(
            engine.executor, parse_query(GROUPED_AQL), 11, 0.2
        )
        drawn_keys = state.support_group[state.distinct_support_indices()]
        assert payload["groups"]
        wire = {
            group["key"]: group["result"]["distinct_answers"]
            for group in payload["groups"]
        }
        assert wire == {
            key: int(np.count_nonzero(drawn_keys == key)) for key in wire
        }
        assert sum(wire.values()) == np.count_nonzero(~np.isnan(drawn_keys)) > 0

    def test_batch_matches_direct_submit_batch(self, toy_world_factory):
        specs = [{"aql": COUNT_AQL}, {"aql": AVG_AQL}, {"aql": MAX_AQL}]
        shared_plan_cache().clear()
        with _serve(_service(toy_world_factory())) as (client, _runner):
            batch = client.submit_batch(specs, error_bound=0.2, seed=3)
            assert batch["accepted"] == 3 and batch["rejected"] == 0
            over_http = [
                client.wait(entry["id"])["result"]
                for entry in batch["queries"]
            ]

        shared_plan_cache().clear()
        with _service(toy_world_factory()) as service:
            handles = service.submit_batch(
                [spec["aql"] for spec in specs], error_bound=0.2, seed=3
            )
            direct = [
                encode_result(handle.result(), timings=False)
                for handle in handles
            ]

        for http_result, direct_result in zip(over_http, direct):
            assert _canonical(http_result) == json.dumps(
                direct_result, sort_keys=True
            ).encode()

    def test_batch_reports_per_entry_rejections(self, world):
        with _serve(_service(world)) as (client, _runner):
            batch = client.submit_batch(
                [{"aql": COUNT_AQL}, {"aql": "NOT AQL"}, {"aql": ""}],
                error_bound=0.2,
            )
            assert batch["accepted"] == 1 and batch["rejected"] == 2
            statuses = [
                entry.get("status") for entry in batch["queries"]
            ]
            assert statuses[1] == 400  # parse error
            assert statuses[2] == 400  # missing aql
            assert batch["queries"][0]["id"].startswith("q")


# ---------------------------------------------------------------------------
# SSE: the anytime trace over the wire
# ---------------------------------------------------------------------------
class TestEvents:
    def test_stream_replays_the_trace_entry_for_entry(self, world):
        with _serve(_service(world)) as (client, _runner):
            accepted = client.submit(COUNT_AQL, error_bound=0.2, seed=11)
            rounds, terminal = [], None
            for event, data in client.events(accepted["id"]):
                if event == "round":
                    rounds.append(data)
                else:
                    terminal = (event, data)
            assert terminal is not None and terminal[0] == "result"
            result = terminal[1]["result"]
            # entry-for-entry: the streamed rounds ARE the result's trace
            assert [_strip_timings(r) for r in rounds] == [
                _strip_timings(r) for r in result["rounds"]
            ]
            # monotone: draws never shrink, round indexes increase
            draws = [r["total_draws"] for r in rounds]
            assert draws == sorted(draws)
            assert [r["round"] for r in rounds] == sorted(
                {r["round"] for r in rounds}
            )

    def test_extreme_rounds_carry_the_no_guarantee_sentinel(
        self, world, sampled_service
    ):
        with _serve(_service(world, make=sampled_service)) as (client, _runner):
            accepted = client.submit(MAX_AQL, error_bound=0.2, seed=11)
            assert accepted["kind"] == "extreme"
            rounds = [
                data
                for event, data in client.events(accepted["id"])
                if event == "round"
            ]
            assert rounds, "extreme queries stream rounds too"
            for entry in rounds:
                # JSON-clean: moe is the 0.0 sentinel, never NaN (the
                # client's json.loads would already have rejected NaN)
                assert entry["guaranteed"] is False
                assert entry["moe"] == 0.0
                assert isinstance(entry["estimate"], float)

    @pytest.mark.parametrize("aql", [COUNT_AQL, AVG_AQL, MAX_AQL, GROUPED_AQL])
    def test_census_first_streams_one_round_then_the_result(self, world, aql):
        """A support under the sample cap: the stream is the census round
        alone, then the result — the handle's whole ``progress()``."""
        with _serve(_service(world)) as (client, runner):
            accepted = client.submit(aql, error_bound=0.2, seed=11)
            events = list(client.events(accepted["id"]))
            progress = runner.server._entries[accepted["id"]].handle.progress()
        assert [event for event, _data in events] == ["round", "result"]
        (census,) = progress
        assert events[0][1] == encode_trace(census)
        assert census.total_draws == 0 and census.guaranteed and census.satisfied
        result = events[1][1]["result"]
        assert result["stop_reason"] == "census"
        assert result["rounds"] == [encode_trace(census)]

    def test_late_subscriber_still_sees_every_round(self, world):
        with _serve(_service(world)) as (client, _runner):
            accepted = client.submit(COUNT_AQL, error_bound=0.2, seed=11)
            final = client.wait(accepted["id"])  # settle first
            events = list(client.events(accepted["id"]))
            rounds = [data for event, data in events if event == "round"]
            assert [_strip_timings(r) for r in rounds] == [
                _strip_timings(r) for r in final["result"]["rounds"]
            ]
            assert events[-1][0] == "result"

    def test_cancel_mid_stream_ends_with_cancelled_event(self, world, sampled_service):
        service = _stall(_service(world, make=sampled_service), rounds=2)
        with _serve(service) as (client, _runner):
            accepted = client.submit(COUNT_AQL, **NEVER)
            seen = threading.Event()
            events = []

            def consume():
                for event, data in client.events(accepted["id"]):
                    events.append((event, data))
                    if event == "round":
                        seen.set()

            reader = threading.Thread(target=consume)
            reader.start()
            assert seen.wait(timeout=30), "no round arrived over SSE"
            response = client.cancel(accepted["id"])
            assert response["cancelled"] is True
            reader.join(timeout=30)
            assert not reader.is_alive(), "stream must end after cancel"
            assert events[-1][0] == "cancelled"
            assert client.status(accepted["id"])["status"] == "cancelled"


# ---------------------------------------------------------------------------
# The error taxonomy on the wire
# ---------------------------------------------------------------------------
class TestErrorMapping:
    def test_parse_error_is_400(self, world):
        with _serve(_service(world)) as (client, _runner):
            with pytest.raises(HttpStatusError) as info:
                client.submit("COUNT( MATCH broken")
            assert info.value.status == 400
            assert info.value.payload["error"] == "ParseError"

    @pytest.mark.parametrize(
        "bound", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1.0, 5.0]
    )
    def test_a_non_finite_error_bound_is_400_with_no_query(self, world, bound):
        """``json.dumps`` writes ``Infinity`` / ``NaN`` and ``json.loads``
        reads them back: submit and refine refuse them, and every other
        bound outside (0, 1), before a query or a run exists."""
        with _serve(_service(world)) as (client, _runner):
            with pytest.raises(HttpStatusError) as info:
                client.submit(COUNT_AQL, error_bound=bound)
            assert info.value.status == 400
            assert "id" not in info.value.payload
            accepted = client.submit(COUNT_AQL, error_bound=0.2)
            assert accepted["id"] == "q0"
            client.wait(accepted["id"])
            with pytest.raises(HttpStatusError) as info:
                client.refine(accepted["id"], bound)
            assert info.value.status == 400
            assert client.status(accepted["id"])["status"] == "succeeded"

    def test_unknown_id_is_404_everywhere(self, world):
        with _serve(_service(world)) as (client, _runner):
            for call in (
                lambda: client.status("q999"),
                lambda: client.cancel("q999"),
                lambda: client.refine("q999", 0.1),
                lambda: list(client.events("q999")),
            ):
                with pytest.raises(HttpStatusError) as info:
                    call()
                assert info.value.status == 404

    def test_an_id_cannot_break_the_request_line(self, world):
        """An id is percent-encoded into the path: spaces and line breaks
        in it are part of an unknown id, not a second request."""
        smuggled = "q1 HTTP/1.1\r\n\r\nDELETE /v1/queries/q1"
        with _serve(_service(world)) as (client, _runner):
            accepted = client.submit(COUNT_AQL, error_bound=0.2)
            with pytest.raises(HttpStatusError) as info:
                client.status(smuggled)
            assert info.value.status == 404
            assert client.wait(accepted["id"])["status"] == "succeeded"
            server = client.healthz()["server"]
        assert server["error_responses"] == 1

    def test_overload_is_429_with_retry_after(
        self, world, sampled_service, monkeypatch
    ):
        service = _stall(
            _service(
                world, limits=ServiceLimits(max_pending=1), make=sampled_service
            ),
            rounds=1,
        )
        # the stalled query is still live at stop(): drain briefly, the
        # test asserts nothing about shutdown
        monkeypatch.setattr("repro.server.app.DRAIN_TIMEOUT_SECONDS", 0.2)
        with _serve(service) as (client, _runner):
            client.submit(COUNT_AQL, **NEVER)  # occupies the only slot
            with pytest.raises(HttpStatusError) as info:
                client.submit(AVG_AQL, error_bound=0.2)
            assert info.value.status == 429
            assert info.value.payload["error"] == "ServiceOverloadedError"
            assert int(info.value.retry_after) >= 1

    def test_client_quota_sheds_before_the_service(self, world):
        quota = ClientQuota(rate=0.001, burst=2)
        with _serve(_service(world), quota=quota) as (client, _runner):
            client.submit(COUNT_AQL, error_bound=0.2)
            client.submit(AVG_AQL, error_bound=0.2)
            with pytest.raises(HttpStatusError) as info:
                client.submit(MAX_AQL, error_bound=0.2)
            assert info.value.status == 429
            assert info.value.payload["error"] == "ClientQuotaExceeded"
            assert int(info.value.retry_after) >= 1
            health = client.healthz()
            assert health["server"]["quota_sheds"] == 1
            # reads are not quota-charged: status/healthz still answer
            assert health["status"] == "ok"

    def test_invalid_submit_fields_are_400(self, world):
        with _serve(_service(world)) as (client, _runner):
            for params in (
                {"error_bound": -1.0},
                {"confidence": 1.5},
                {"seed": "seven"},
                {"deadline": -2.0},
                {"deadline": math.nan},
            ):
                with pytest.raises(HttpStatusError) as info:
                    client.submit(COUNT_AQL, **params)
                assert info.value.status == 400, params

    def test_an_integer_past_the_digit_limit_is_400(self, world):
        body = (
            '{"aql": %s, "seed": 1%s}' % (json.dumps(COUNT_AQL), "0" * 4300)
        ).encode()
        request = (
            "POST /v1/queries HTTP/1.1\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        with _serve(_service(world)) as (client, runner):
            ((status, _headers, reply),) = _wire(runner.address, request)
            assert status == 400
            assert "not valid JSON" in json.loads(reply)["message"]
            assert client.healthz()["server"]["queries_submitted"] == 0

    def test_a_deadline_past_the_float_range_is_400(self, world):
        with _serve(_service(world)) as (client, _runner):
            with pytest.raises(HttpStatusError) as info:
                client.submit(COUNT_AQL, deadline=10**400)
            assert info.value.status == 400
            assert info.value.payload["error"] == "QueryError"
            assert client.healthz()["server"]["queries_submitted"] == 0

    def test_a_refine_bound_past_the_float_range_is_400(self, world):
        with _serve(_service(world)) as (client, _runner):
            accepted = client.submit(AVG_AQL, error_bound=0.2)
            client.wait(accepted["id"])
            with pytest.raises(HttpStatusError) as info:
                client.refine(accepted["id"], 10**400)
            assert info.value.status == 400
            assert info.value.payload["error"] == "QueryError"

    def test_an_unknown_refine_field_is_400_naming_it(self, world):
        with _serve(_service(world)) as (client, _runner):
            accepted = client.submit(AVG_AQL, error_bound=0.2)
            settled = client.wait(accepted["id"])
            with pytest.raises(HttpStatusError) as info:
                client._request(
                    "POST",
                    f"/v1/queries/{accepted['id']}/refine",
                    {"error_bound": 0.05, "max_rounds": 3},
                )
            assert info.value.status == 400
            assert "'max_rounds'" in info.value.payload["message"]
            # nothing was queued: the query is as it settled
            assert client.status(accepted["id"]) == settled

    def test_an_unknown_submit_field_is_400_naming_it(self, world):
        with _serve(_service(world)) as (client, _runner):
            with pytest.raises(HttpStatusError) as info:
                client.submit(COUNT_AQL, max_rounds=0, error_bnd=0.5)
            assert info.value.status == 400
            message = info.value.payload["message"]
            assert "'error_bnd'" in message and "'max_rounds'" in message
            assert client.healthz()["server"]["queries_submitted"] == 0

    def test_an_unknown_batch_default_rejects_the_whole_batch(self, world):
        with _serve(_service(world)) as (client, _runner):
            with pytest.raises(HttpStatusError) as info:
                client.submit_batch([{"aql": COUNT_AQL}], error_bnd=0.5)
            assert info.value.status == 400
            assert "'error_bnd'" in info.value.payload["message"]
            assert client.healthz()["server"]["queries_submitted"] == 0

    def test_an_unknown_batch_entry_field_rejects_only_that_entry(self, world):
        with _serve(_service(world)) as (client, _runner):
            batch = client.submit_batch(
                [
                    {"aql": COUNT_AQL, "seed": 1},
                    {"aql": COUNT_AQL, "max_rounds": 0},
                    {"aql": AVG_AQL, "seed": 2},
                ],
                error_bound=0.2,
            )
            assert (batch["accepted"], batch["rejected"]) == (2, 1)
            first, rejected, last = batch["queries"]
            assert rejected["status"] == 400
            assert "'max_rounds'" in rejected["message"]
            assert "id" in first and "id" in last

    def test_refine_wrong_kind_is_400_not_503(self, world):
        with _serve(_service(world)) as (client, _runner):
            accepted = client.submit(MAX_AQL, error_bound=0.2)
            client.wait(accepted["id"])
            with pytest.raises(HttpStatusError) as info:
                client.refine(accepted["id"], 0.05)
            assert info.value.status == 400
            assert info.value.payload["error"] == "ServiceError"

    def test_method_mismatch_is_405_with_allow(self, world):
        with _serve(_service(world)) as (client, _runner):
            with pytest.raises(HttpStatusError) as info:
                client._request("GET", "/v1/queries")
            assert info.value.status == 405
            assert info.value.headers.get("allow") == "POST"


# ---------------------------------------------------------------------------
# Deadlines over the wire
# ---------------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _step_clock(service, step: float = 1.0) -> None:
    """Give ``service`` a fake clock that each non-empty scheduler pass
    advances by ``step`` — deadline expiry is driven by completed rounds,
    not by sleeping."""
    clock = _FakeClock()
    run_cohort = service._run_cohort

    def stepping(cohort) -> None:
        run_cohort(cohort)
        if cohort:
            clock.now += step

    service._clock = clock
    service._run_cohort = stepping


class TestDeadlines:
    def test_expiry_carries_the_partial_trace_over_http(self, world, sampled_service):
        config = PaperConfig(seed=7, max_rounds=50)
        service = sampled_service(world.kg, world.embedding, config)
        _step_clock(service)
        with _serve(service) as (client, _runner):
            accepted = client.submit(
                AVG_AQL, seed=5, error_bound=1e-12, deadline=2.5
            )
            final = client.wait(accepted["id"])
            assert final["status"] == "failed"
            error = final["error"]
            assert error["error"] == "DeadlineExceededError"
            assert error["status"] == 504
            # the anytime contract survives the failure: >= 2 completed
            # rounds (2.5 fake seconds) ride along with the error
            assert len(error["trace"]) >= 2
            last = error["trace"][-1]
            assert isinstance(last["estimate"], float)
            assert isinstance(last["moe"], float)
            # the SSE stream for an expired query ends with the same error
            events = list(client.events(accepted["id"]))
            assert events[-1][0] == "error"
            assert events[-1][1]["error"] == "DeadlineExceededError"
            assert len(events[-1][1]["trace"]) >= 2


# ---------------------------------------------------------------------------
# Lifecycle: refine, health, shutdown
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_refine_tightens_over_http(self, world):
        with _serve(_service(world)) as (client, _runner):
            accepted = client.submit(COUNT_AQL, error_bound=0.2, seed=11)
            first = client.wait(accepted["id"])
            refined = client.refine(accepted["id"], 0.05)
            assert refined["status"] in ("running", "succeeded")
            second = client.wait(accepted["id"])
            assert second["status"] == "succeeded"
            assert (
                second["result"]["moe"] <= first["result"]["moe"]
            ), "a tighter bound cannot loosen the interval"
            assert second["rounds_completed"] >= first["rounds_completed"]

    def test_healthz_surfaces_service_and_server_counters(self, world, sampled_service):
        service = _stall(_service(world, make=sampled_service), rounds=1)
        with _serve(service) as (client, _runner):
            accepted = client.submit(COUNT_AQL, **NEVER)
            health = client.healthz()
            assert health["status"] == "ok"
            service_health = health["service"]
            assert service_health["uptime_s"] > 0.0
            assert service_health["live_queries"] == 1
            assert service_health["live_by_kind"]["rounds"] == 1
            assert service_health["live_by_kind"]["extreme"] == 0
            server_health = health["server"]
            assert server_health["queries_submitted"] == 1
            assert server_health["uptime_s"] > 0.0
            assert server_health["requests"] >= 2
            client.cancel(accepted["id"])

    def test_graceful_shutdown_drains_a_live_stream(
        self, world, sampled_service, monkeypatch
    ):
        monkeypatch.setattr("repro.server.app.DRAIN_TIMEOUT_SECONDS", 0.2)
        service = _stall(_service(world, make=sampled_service), rounds=1)
        runner = ServerThread(
            ReproHTTPServer(service, "127.0.0.1", 0, owns_service=True)
        ).start()
        client = ReproClient(*runner.address)
        accepted = client.submit(COUNT_AQL, **NEVER)
        seen = threading.Event()
        events = []

        def consume():
            for event, data in client.events(accepted["id"]):
                events.append((event, data))
                if event == "round":
                    seen.set()

        reader = threading.Thread(target=consume)
        reader.start()
        assert seen.wait(timeout=30), "no round arrived over SSE"
        runner.stop()  # drain: cancels the straggler, settles the stream
        reader.join(timeout=30)
        assert not reader.is_alive(), "the live stream must drain on stop"
        assert events[-1][0] == "cancelled", (
            "a drained stream ends with its terminal event, not a cut socket"
        )
        assert service.health()["closed"] is True
        client.close()

    def test_draining_server_rejects_new_work_with_503(self, world, monkeypatch):
        monkeypatch.setattr("repro.server.app.DRAIN_TIMEOUT_SECONDS", 0.2)
        service = _service(world)
        server = ReproHTTPServer(service, "127.0.0.1", 0, owns_service=True)
        runner = ServerThread(server).start()
        client = ReproClient(*runner.address)
        accepted = client.submit(COUNT_AQL, error_bound=0.2)
        client.wait(accepted["id"])
        server._closing = True  # what shutdown() sets first
        with pytest.raises(HttpStatusError) as info:
            client.submit(AVG_AQL, error_bound=0.2)
        assert info.value.status == 503
        assert info.value.payload["error"] == "ServerDraining"
        assert info.value.headers["connection"] == "close"
        # reads still answer while draining (health reports it)
        assert client.healthz()["status"] == "draining"
        server._closing = False
        client.close()
        runner.stop()

    def test_status_before_first_round_is_clean(self, world, sampled_service):
        service = _stall(_service(world, make=sampled_service), rounds=1)
        with _serve(service) as (client, _runner):
            accepted = client.submit(COUNT_AQL, **NEVER)
            payload = client.status(accepted["id"])
            assert payload["status"] in ("pending", "running")
            assert payload["result"] is None and payload["error"] is None
            client.cancel(accepted["id"])

    def test_tracked_ids_prune_the_oldest_settled_first(self, world, monkeypatch):
        """Past ``MAX_TRACKED_QUERIES`` a submit prunes settled entries,
        oldest first, and never a live one; a pruned id answers 404."""
        monkeypatch.setattr("repro.server.app.MAX_TRACKED_QUERIES", 2)
        monkeypatch.setattr("repro.server.app.DRAIN_TIMEOUT_SECONDS", 0.2)
        service = AggregateQueryService(
            world.kg, world.embedding, EngineConfig(seed=7), autostart=False
        )
        with _serve(service) as (client, _runner):

            def submit() -> str:
                return client.submit(COUNT_AQL)["id"]

            def tracked(query_id: str) -> bool:
                try:
                    client.status(query_id)
                except HttpStatusError as error:
                    assert error.status == 404
                    return False
                return True

            settled = [submit(), submit()]
            for query_id in settled:
                client.cancel(query_id)  # a pending query settles at once
            live = [submit()]
            assert [tracked(i) for i in settled + live] == [False, True, True]
            live.append(submit())
            assert [tracked(i) for i in settled + live] == [False, False, True, True]
            live.append(submit())  # three live entries: none may go
            assert [tracked(i) for i in live] == [True, True, True]
            assert client.healthz()["server"]["queries_tracked"] == 3

    def test_an_idle_stream_carries_a_heartbeat(self, world, monkeypatch):
        """A stream with no round to send writes a ``: heartbeat`` comment
        every ``HEARTBEAT_SECONDS``: here, before the first round of a
        query that the service holds pending."""
        monkeypatch.setattr("repro.server.app.HEARTBEAT_SECONDS", 0.05)
        service = AggregateQueryService(
            world.kg, world.embedding, EngineConfig(seed=7), autostart=False
        )
        with _serve(service) as (client, runner):
            query_id = client.submit(COUNT_AQL)["id"]
            raw = b""
            with socket.create_connection(runner.address, timeout=10) as sock:
                sock.sendall(
                    b"GET /v1/queries/%s/events HTTP/1.1\r\n\r\n" % query_id.encode()
                )
                while b": heartbeat" not in raw:
                    chunk = sock.recv(4096)
                    assert chunk, "the stream ended before a heartbeat"
                    raw += chunk
                service.start()
                while b"event: result" not in raw:
                    chunk = sock.recv(4096)
                    assert chunk, "the stream ended before its result"
                    raw += chunk
        assert b" 200 " in raw.split(b"\r\n", 1)[0]
        assert raw.index(b": heartbeat") < raw.index(b"event: round")

    @pytest.mark.parametrize(
        "knob",
        [
            "heartbeat_seconds",
            "max_tracked_queries",
            "drain_timeout",
            "request_timeout",
        ],
    )
    def test_the_heartbeat_and_tracking_bound_are_no_keywords(self, world, knob):
        with _service(world) as service, pytest.raises(TypeError):
            ReproHTTPServer(service, **{knob: 1})


# ---------------------------------------------------------------------------
# The wire: persistent connections, framing, hostile bytes
# ---------------------------------------------------------------------------
def _post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _parse_responses(data: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Split a server's bytes into ``(status, headers, body)`` triples;
    AssertionError on anything that is not a well-framed HTTP/1.1 response."""
    responses = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"unterminated response head: {data[:80]!r}"
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        version, status, _phrase = status_line.split(" ", 2)
        assert version == "HTTP/1.1", status_line
        headers = {
            name.lower(): value.strip()
            for name, _, value in (line.partition(":") for line in header_lines)
        }
        body = b""
        if headers.get("transfer-encoding") == "chunked":
            while True:
                size_line, _, rest = rest.partition(b"\r\n")
                size = int(size_line, 16)
                body, rest = body + rest[:size], rest[size:]
                assert rest[:2] == b"\r\n", "chunk not terminated"
                rest = rest[2:]
                if size == 0:
                    break
        else:
            length = int(headers["content-length"])
            body, rest = rest[:length], rest[length:]
            assert len(body) == length, "body shorter than its Content-Length"
        responses.append((int(status), headers, body))
        data = rest
    return responses


def _wire(address, data: bytes, *, half_close: bool = True, timeout: float = 5.0):
    """Send raw bytes on a fresh socket and parse what comes back until the
    server closes (a server that never closes fails on ``timeout``).
    ``half_close`` sends EOF after the bytes, as a client that is done."""
    with socket.create_connection(address, timeout=timeout) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server already answered and closed
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return _parse_responses(received)


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"


class TestKeepAlive:
    def test_a_clients_queries_share_one_connection(self, world):
        asked = 3
        with _serve(_service(world)) as (client, _runner):
            for _ in range(asked):
                accepted = client.submit(COUNT_AQL, error_bound=0.2)
                events = list(client.events(accepted["id"]))
                assert events[-1][0] == "result"
            server = client.healthz()["server"]
        assert server["connections"] == 1
        # submit + events per query, then the healthz itself
        assert server["requests"] == 2 * asked + 1
        assert server["error_responses"] == 0

    def test_a_connection_the_server_timed_out_is_replaced(self, world, monkeypatch):
        monkeypatch.setattr("repro.server.app.REQUEST_TIMEOUT_SECONDS", 0.2)
        with _serve(_service(world)) as (client, _runner):
            client.healthz()
            time.sleep(0.5)  # the server closes the idle connection
            server = client.healthz()["server"]
        assert server["connections"] == 2

    def test_stop_closes_idle_connections_while_a_stream_drains(
        self, world, sampled_service, monkeypatch
    ):
        service = _stall(_service(world, make=sampled_service), rounds=1)
        monkeypatch.setattr("repro.server.app.DRAIN_TIMEOUT_SECONDS", 0.2)
        runner = serve_in_thread(service, owns_service=True)
        with ReproClient(*runner.address) as client:
            accepted = client.submit(COUNT_AQL, **NEVER)
            with ReproClient(*runner.address) as idle_client:
                idle_client.healthz()  # leaves an idle kept-alive connection
                seen = threading.Event()
                events = []

                def consume():
                    for event, data in client.events(accepted["id"]):
                        events.append((event, data))
                        seen.set()

                reader = threading.Thread(target=consume)
                reader.start()
                assert seen.wait(timeout=30), "no round arrived over SSE"
                started = time.monotonic()
                runner.stop()
                stopped_in = time.monotonic() - started
                reader.join(timeout=30)
        assert not reader.is_alive(), "the live stream must drain on stop"
        assert stopped_in < 1.0, f"stop() took {stopped_in:.2f}s"
        assert events[-1][0] == "cancelled"

    def test_connection_close_is_honoured(self, world):
        with _serve(_service(world)) as (_client, runner):
            close = HEALTHZ.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")
            responses = _wire(runner.address, close + HEALTHZ, half_close=False)
        assert [(status, headers["connection"]) for status, headers, _ in responses] == [
            (200, "close")
        ]

    def test_pipelined_requests_are_answered_in_order(self, world):
        pipeline = (
            HEALTHZ
            + b"GET /v1/queries/q999 HTTP/1.1\r\n\r\n"
            + b"GET /metrics HTTP/1.1\r\n\r\n"
        )
        with _serve(_service(world)) as (_client, runner):
            responses = _wire(runner.address, pipeline)
        assert [status for status, _, _ in responses] == [200, 404, 200]
        assert json.loads(responses[0][2])["status"] == "ok"
        assert responses[2][2].startswith(b"# HELP")
        assert {headers["connection"] for _, headers, _ in responses} == {"keep-alive"}

    def test_body_past_its_content_length_is_not_a_second_query(self, world):
        submit = _post("/v1/queries", {"aql": COUNT_AQL, "error_bound": 0.2})
        tail = _post("/v1/queries", {"aql": AVG_AQL}).split(b"\r\n\r\n")[1]
        with _serve(_service(world)) as (client, runner):
            responses = _wire(runner.address, submit + tail + b"\r\n\r\n")
            server = client.healthz()["server"]
        assert [status for status, _, _ in responses] == [202, 400]
        assert responses[-1][1]["connection"] == "close"
        assert server["queries_submitted"] == 1
        assert server["error_responses"] == 1


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "head, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"POST /v1/queries HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST /v1/queries HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 413),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 20_000 + b"\r\n\r\n", 431),
            (b"GET /healthz HTTP/1.0\r\n\r\n", 505),
            (
                b"POST /v1/queries HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n",
                400,
            ),
            (
                b"POST /v1/queries HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 3\r\n\r\n{}",
                400,
            ),
            (b"GET /healthz HTTP/1.1\r\nHost : localhost\r\n\r\n", 400),
        ],
        ids=[
            "request-line", "length-not-a-number", "length-too-large",
            "header-too-large", "http-1.0", "transfer-encoding",
            "conflicting-lengths", "space-before-colon",
        ],
    )
    def test_answered_with_its_status_then_closed(self, world, head, status):
        """The request after a malformed one is never read: past it the
        stream position is unknown."""
        with _serve(_service(world)) as (client, runner):
            responses = _wire(runner.address, head + HEALTHZ, half_close=False)
            server = client.healthz()["server"]
        ((answered, headers, body),) = responses
        assert answered == status
        assert headers["connection"] == "close"
        assert json.loads(body)["status"] == status
        assert server["error_responses"] == 1


#: what the fuzz mutates: every request kind the parser has a path for
_FUZZ_REQUESTS = (
    HEALTHZ,
    b"GET /v1/queries/q1 HTTP/1.1\r\n\r\n",
    b"DELETE /v1/queries/q404 HTTP/1.1\r\n\r\n",
    b"GET /metrics HTTP/1.1\r\n\r\n",
    _post("/v1/queries", {"aql": COUNT_AQL, "error_bound": 0.2}),
    _post("/v1/queries:batch", {"queries": [{"aql": "NOT AQL"}]}),
)
_FUZZ_TIMEOUT = 0.5


@st.composite
def _mutated_pipelines(draw) -> bytes:
    """A pipeline of valid requests, then truncated, duplicated, flipped
    and spliced bytes."""
    data = bytearray(
        b"".join(draw(st.lists(st.sampled_from(_FUZZ_REQUESTS), min_size=1, max_size=3)))
    )
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("flip", "truncate", "duplicate", "insert")))
        if kind == "flip" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "truncate":
            del data[at:]
        elif kind == "duplicate":
            end = draw(st.integers(at, len(data)))
            data[at:at] = data[at:end]
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


@pytest.fixture
def fuzz_server(world, monkeypatch):
    monkeypatch.setattr("repro.server.app.REQUEST_TIMEOUT_SECONDS", _FUZZ_TIMEOUT)
    with _serve(_service(world)) as (client, runner):
        yield client, runner


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=_mutated_pipelines())
def test_mutated_requests_end_in_a_framed_answer_or_a_clean_close(fuzz_server, data):
    client, runner = fuzz_server
    started = time.monotonic()
    responses = _wire(runner.address, data, timeout=_FUZZ_TIMEOUT + 2.0)
    assert time.monotonic() - started < _FUZZ_TIMEOUT + 1.0
    statuses = [status for status, _, _ in responses]
    assert all(status < 500 or status == 505 for status in statuses), statuses
    closes = [headers["connection"] == "close" for _, headers, _ in responses]
    assert not any(closes[:-1]), "a response after Connection: close"
    assert client.healthz()["status"] == "ok"


# ---------------------------------------------------------------------------
# The client against hostile responses
# ---------------------------------------------------------------------------
class _StubServer:
    """A raw localhost socket that answers every request with ``reply``
    (whatever bytes it holds at the time), then closes the connection."""

    def __init__(self) -> None:
        self.reply = b""
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.address = self._listener.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                connection, _peer = self._listener.accept()
            except TimeoutError:
                continue
            with connection:
                connection.settimeout(2.0)
                head = b""
                with contextlib.suppress(OSError):
                    while b"\r\n\r\n" not in head:
                        received = connection.recv(4096)
                        if not received:
                            break
                        head += received
                    connection.sendall(self.reply)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._listener.close()


@pytest.fixture
def stub():
    server = _StubServer()
    yield server
    server.close()


def _chunked(head: bytes, body: bytes) -> bytes:
    return head + b"".join(
        b"%x\r\n%s\r\n" % (len(piece), piece) for piece in body.split(b"|") if piece
    ) + b"0\r\n\r\n"


_SSE_HEAD = (
    b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
    b"Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
)
#: one chunk per ``|``-separated frame: two rounds, a heartbeat, the result
_SSE_FRAMES = (
    b'event: round\ndata: {"round_index": 0, "estimate": 1.5}\n\n|'
    b": heartbeat\n\n|"
    b'event: round\ndata: {"round_index": 1, "estimate": 2.0}\n\n|'
    b'event: result\ndata: {"status": "succeeded", "value": 2.0}\n\n'
)


#: a ``/healthz``-shaped JSON body; one chunk per ``,`` when chunked
_HEALTHY = b'{"status": "ok", "service": {"live": 0}, "server": {"requests": 1}}\n'
_JSON_HEAD = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n%s\r\n"
    b"Cache-Control: no-store\r\nConnection: keep-alive\r\n\r\n"
)


def _mutated(data, raw: bytes) -> bytes:
    """``raw`` with one to three truncated, duplicated, flipped or
    spliced spans."""
    raw = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(raw)))
        kind = data.draw(st.sampled_from(("flip", "truncate", "duplicate", "insert")))
        if kind == "flip" and at < len(raw):
            raw[at] = data.draw(st.integers(0, 255))
        elif kind == "truncate":
            del raw[at:]
        elif kind == "duplicate":
            end = data.draw(st.integers(at, len(raw)))
            raw[at:at] = raw[at:end]
        elif kind == "insert":
            raw[at:at] = data.draw(st.binary(min_size=1, max_size=8))
    return bytes(raw)


class TestClientHostileResponses:
    """``ReproClient`` raises only ``repro.errors`` errors, whatever the
    bytes a server (or whatever answers in its place) sends back."""

    def test_a_non_json_error_body_is_an_http_status_error(self, stub):
        page = b"<html><body>502 Bad Gateway</body></html>"
        stub.reply = (
            b"HTTP/1.1 502 Bad Gateway\r\nContent-Type: text/html\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (len(page), page)
        )
        with ReproClient(*stub.address, timeout=2.0) as client:
            with pytest.raises(HttpStatusError) as info:
                client.healthz()
        assert info.value.status == 502
        assert info.value.payload == {"message": page.decode()}
        # a body that is not even UTF-8 keeps its text, replaced
        stub.reply = (
            b"HTTP/1.1 500 Oops\r\nContent-Length: 3\r\nConnection: close\r\n\r\n\xff\xfe!"
        )
        with ReproClient(*stub.address, timeout=2.0) as client:
            with pytest.raises(HttpStatusError) as info:
                client.status("q1")
        assert info.value.status == 500
        assert info.value.payload["message"].endswith("!")

    def test_a_non_json_success_body_is_malformed(self, stub):
        stub.reply = (
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello"
        )
        with ReproClient(*stub.address, timeout=2.0) as client:
            with pytest.raises(MalformedResponseError):
                client.healthz()

    @pytest.mark.parametrize(
        "reply",
        [
            b"GARBAGE\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nGARBAGE\r\n\r\n",
            b"",
            b"HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n" + _HEALTHY[:10],
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (10**15, _HEALTHY),
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"
            + _HEALTHY + b"\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n" + _HEALTHY,
            b"HTTP/1.1 200 OK\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n" + b"X-Many: a\r\n" * 7_000 + b"\r\n",
        ],
        ids=[
            "garbage-status-line", "garbage-header-line", "closed-before-any-byte",
            "truncated-length-body", "petabyte-length", "bad-chunk-size",
            "length-not-a-number", "header-line-too-long", "head-too-long",
        ],
    )
    def test_a_response_that_breaks_http_framing_is_malformed(self, stub, reply):
        stub.reply = reply
        with ReproClient(*stub.address, timeout=2.0) as client:
            with pytest.raises(MalformedResponseError):
                client.healthz()

    @pytest.mark.parametrize(
        "reply, pooled",
        [
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                % (len(_HEALTHY), _HEALTHY),
                True,
            ),
            (_chunked(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
                      _HEALTHY.replace(b",", b",|")), True),
            (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + _HEALTHY,
             False),
            (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
             % (len(_HEALTHY), _HEALTHY), False),
        ],
        ids=["content-length", "chunked", "close-delimited", "connection-close"],
    )
    def test_each_body_framing_decodes_and_pools_only_when_reusable(
        self, stub, reply, pooled
    ):
        stub.reply = reply
        with ReproClient(*stub.address, timeout=2.0) as client:
            assert client.healthz() == json.loads(_HEALTHY)
            assert len(client._idle) == pooled

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_json_responses_end_in_a_dict_or_an_error(self, stub, data):
        """Truncated, duplicated, flipped and spliced bytes anywhere in a
        JSON response, head included, framed either way: the client
        returns a dict or raises a ``repro.errors`` error, within its
        timeout."""
        if data.draw(st.booleans()):
            framing = b"Transfer-Encoding: chunked"
            reply = _chunked(_JSON_HEAD % framing, _HEALTHY.replace(b",", b",|"))
        else:
            framing = b"Content-Length: %d" % len(_HEALTHY)
            reply = _JSON_HEAD % framing + _HEALTHY
        stub.reply = _mutated(data, reply)
        started = time.monotonic()
        with ReproClient(*stub.address, timeout=1.0) as client:
            with contextlib.suppress(ReproError):
                assert isinstance(client.healthz(), dict)
        assert time.monotonic() - started < 2.0

    def test_a_malformed_event_frame_is_malformed(self, stub):
        stub.reply = _chunked(
            _SSE_HEAD, b'event: round\ndata: {"round_index": 0}\n\n|data: {not json\n\n'
        )
        frames = []
        with ReproClient(*stub.address, timeout=2.0) as client:
            with pytest.raises(MalformedResponseError):
                for frame in client.events("q1"):
                    frames.append(frame)
        assert frames == [("round", {"round_index": 0})]

    def test_the_unmutated_stream_reads_every_frame(self, stub):
        stub.reply = _chunked(_SSE_HEAD, _SSE_FRAMES)
        with ReproClient(*stub.address, timeout=2.0) as client:
            events = [event for event, _data in client.events("q1")]
        assert events == ["round", "round", "result"]

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_event_streams_end_in_frames_an_error_or_a_clean_end(
        self, stub, data
    ):
        """Truncated, duplicated, flipped and spliced bytes anywhere in the
        chunked body: the reader yields well-formed frames and then ends,
        or raises a ``repro.errors`` error, within its timeout."""
        body = bytearray(_chunked(b"", _SSE_FRAMES))
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(body)))
            kind = data.draw(st.sampled_from(("flip", "truncate", "duplicate", "insert")))
            if kind == "flip" and at < len(body):
                body[at] = data.draw(st.integers(0, 255))
            elif kind == "truncate":
                del body[at:]
            elif kind == "duplicate":
                end = data.draw(st.integers(at, len(body)))
                body[at:at] = body[at:end]
            elif kind == "insert":
                body[at:at] = data.draw(st.binary(min_size=1, max_size=8))
        stub.reply = _SSE_HEAD + bytes(body)
        started = time.monotonic()
        with ReproClient(*stub.address, timeout=1.0) as client:
            with contextlib.suppress(ReproError):
                for event, payload in client.events("q1"):
                    assert isinstance(event, str)
                    json.dumps(payload)
        assert time.monotonic() - started < 2.0
