"""The four workloads: what one operation is, and how each is set up.

All four are closed loops — the callers are analysts and dashboards that
wait for their reply — driven from this one process with at most two
client threads.  End-to-end code touches only the stable public surface:
the ``repro`` top-level exports, ``repro.datasets``,
``shared_plan_cache()``, ``ReproClient`` and ``python -m repro serve``.
``README.md`` records why each workload was chosen.
"""

from __future__ import annotations

import atexit
import json
import os
import random
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro import AggregateQueryService, ApproximateAggregateEngine
from repro.core.plan import shared_plan_cache
from repro.kg import csr_snapshot
from repro.server import ReproClient

from benchmarks.ledger import inputs
from benchmarks.ledger.hostspeed import SpeedProbe
from benchmarks.ledger.inputs import QuerySpec, Seeds
from benchmarks.ledger.layers import TARGETS
from benchmarks.ledger.spans import Tracer

#: a query that has not settled by then is a failed operation
OP_TIMEOUT_S = 60.0
#: nproc on the reference host; never more client threads than cores
HTTP_CLIENTS = 2
HTTP_PRESET = "yago2-like"

#: what ``http_mixed`` reads off the wire (``server.<name>`` per-layer metrics)
SERVER_METRICS = (
    "accept_ms", "first_event_ms", "wire_overhead_ms",
    "sse_events", "requests", "http_errors",
)

_LEDGER_DIR = Path(__file__).resolve().parent
_SOURCE_DIR = _LEDGER_DIR.parents[1] / "src"


# ----------------------------------------------------------------------
# Outcomes: the value fields of a result, in the wire payload's shape, so
# in-process results, wire payloads and the blocking reference compare
# with plain ``==``
# ----------------------------------------------------------------------
_ROUND_KEYS = ("total_draws", "estimate", "moe", "satisfied")
_VALUE_KEYS = ("estimate", "moe", "converged", "total_draws", "correct_draws")


def values_of_result(result) -> dict:
    """The value fields of an ``ApproximateResult`` / ``GroupedResult``."""
    rounds = [[getattr(r, key) for key in _ROUND_KEYS] for r in result.rounds]
    if hasattr(result, "groups"):
        return {
            "type": "grouped",
            "converged": result.converged,
            "total_draws": result.total_draws,
            "groups": [
                [key, values_of_result(result.groups[key])]
                for key in sorted(result.groups)
            ],
            "rounds": rounds,
        }
    return {
        "type": "approximate",
        "estimate": result.value,
        "moe": result.moe,
        "converged": result.converged,
        "total_draws": result.total_draws,
        "correct_draws": result.correct_draws,
        "rounds": rounds,
    }


def values_of_payload(payload: dict) -> dict:
    """The same fields read off a wire ``result`` payload."""
    rounds = [[r[key] for key in _ROUND_KEYS] for r in payload["rounds"]]
    if payload["type"] == "grouped":
        return {
            "type": "grouped",
            "converged": payload["converged"],
            "total_draws": payload["total_draws"],
            "groups": [
                [group["key"], values_of_payload(group["result"])]
                for group in payload["groups"]
            ],
            "rounds": rounds,
        }
    return {
        "type": "approximate",
        **{key: payload[key] for key in _VALUE_KEYS},
        "rounds": rounds,
    }


def _outcome(spec: QuerySpec, seed: int, values: dict, stage_ms) -> dict:
    return {
        "index": spec.index,
        "seed": seed,
        "guaranteed": spec.guaranteed,
        "values": values,
        "stage_ms": dict(stage_ms),
    }


def _operation(specs, seeds, started, outcomes=None, error=None, **extra) -> dict:
    """One attempted operation, ended now; a failed one carries no
    latency sample."""
    ended = time.perf_counter()
    return {
        "indices": [spec.index for spec in specs],
        "seeds": list(seeds),
        "ok": error is None,
        "started": started,
        "ended": ended,
        "latency_s": ended - started if error is None else None,
        "outcomes": outcomes or [],
        "error": error,
        **extra,
    }


class _Workload:
    """What every workload is: seeded operations, asked pass by pass.

    A pass has an order (``pass_no``, shuffled by the workload seed) and
    the engine seeds its queries run on (``draw_pass``).  The passes of an
    untraced window all run on the same engine seeds, so they repeat the
    same work and an operation's samples compare.
    """

    name = ""
    #: the warm workloads reuse plans; ``cold_shapes`` rebuilds per operation
    expects_builds = False

    def __init__(
        self, specs: list[QuerySpec], seeds: Seeds, profile, probe: SpeedProbe
    ) -> None:
        self.specs = specs
        self.seeds = seeds
        self.profile = profile
        self.probe = probe

    def operations(self, pass_no: int) -> list:
        """The pass's operations in its seeded order."""
        raise NotImplementedError

    def ask(self, operation, draw_pass: int) -> dict:
        """Run one operation to the end and return its record."""
        raise NotImplementedError

    def run_pass(self, pass_no: int, draw_pass: int) -> list[dict]:
        return [
            self.ask(operation, draw_pass)
            for operation in self.operations(pass_no)[: self.profile.op_cap]
        ]

    def query_seed(self, draw_pass: int, spec: QuerySpec) -> int:
        return inputs.query_seed(self.seeds, draw_pass, spec.index)


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
class _InProcess(_Workload):
    """Shared set-up of the workloads that call the service directly."""

    def __init__(
        self, specs: list[QuerySpec], seeds: Seeds, profile, probe: SpeedProbe
    ) -> None:
        super().__init__(specs, seeds, profile, probe)
        self.presets = tuple(dict.fromkeys(spec.preset for spec in specs))
        self.bundles: dict[str, object] = {}
        self.spaces: dict[str, object] = {}
        self.services: dict[str, object] = {}
        self._engines: dict[str, object] = {}
        self._tracer = Tracer()

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        """Dataset build, predicate space, CSR compile, services, warm-up."""
        self.close()
        inputs.forget_bundles()
        shared_plan_cache().clear()
        for preset in self.presets:
            bundle = inputs.load_bundle(preset, self.profile.scale)
            csr_snapshot(bundle.kg)
            self.bundles[preset] = bundle
            self.spaces[preset] = bundle.space()
            self.services[preset] = AggregateQueryService(
                bundle.kg, self.spaces[preset]
            )
        self.warm_up()

    def warm_up(self) -> None:
        """One untimed pass that builds every plan the timed passes use.

        The non-AVG queries cover every query graph of the workload, and
        plans and verdict memos are per graph, not per aggregate
        function, so this warms ``adhoc_avg`` too at a third of the cost
        of an AVG pass.
        """
        for spec in self.specs:
            if not spec.plain_avg:
                self.ask_query(spec, 0)

    def close(self) -> None:
        for service in self.services.values():
            service.close()
        self.services.clear()
        self.spaces.clear()
        self.bundles.clear()

    # -- operations ------------------------------------------------------
    def ask(self, spec: QuerySpec, draw_pass: int) -> dict:
        return self.ask_query(spec, draw_pass)

    def ask_query(self, spec: QuerySpec, draw_pass: int) -> dict:
        """One query, submit to settled, on its graph's service."""
        seed = self.query_seed(draw_pass, spec)
        self.probe.tick()
        started = time.perf_counter()
        try:
            result = (
                self.services[spec.preset]
                .submit(spec.query, seed=seed)
                .result(timeout=OP_TIMEOUT_S)
            )
        except Exception as exc:  # a failed operation is counted, not raised
            return _operation([spec], [seed], started, error=repr(exc))
        operation = _operation([spec], [seed], started)
        operation["outcomes"].append(
            _outcome(spec, seed, values_of_result(result), result.stage_ms)
        )
        return operation

    def plan_builds(self) -> int:
        return sum(s.planner.build_count for s in self.services.values())

    # -- the traced pass ---------------------------------------------------
    def start_tracing(self) -> None:
        self._tracer.install(TARGETS)

    def stop_tracing(self) -> dict:
        self._tracer.uninstall()
        return self._tracer.to_json()

    def server_counters(self) -> dict:
        return {}

    def server_metrics(self, operations: list[dict], before: dict) -> dict:
        """No server on this path: the ``server.*`` metrics read 0."""
        return dict.fromkeys(SERVER_METRICS, 0.0)

    def health(self) -> dict:
        """Admission sheds and deadline expiries summed over the services."""
        reports = [service.health() for service in self.services.values()]
        return {
            key: sum(report[key] for report in reports)
            for key in ("sheds", "deadline_expiries")
        }

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def reference(self, spec: QuerySpec, seed: int) -> dict:
        """A plain blocking ``engine.execute`` of the same query and seed."""
        engine = self._engines.get(spec.preset)
        if engine is None:
            bundle = self.bundles[spec.preset]
            # the services' own space where there is one, so the
            # reference shares their plans instead of rebuilding them
            space = self.spaces.get(spec.preset) or bundle.space()
            engine = self._engines[spec.preset] = ApproximateAggregateEngine(
                bundle.kg, space
            )
        return values_of_result(engine.execute(spec.query, seed=seed))

    def close_reference(self) -> None:
        for engine in self._engines.values():
            engine.service.close()
        self._engines.clear()


class AdhocAvg(_InProcess):
    """One analyst asking the 35 plain AVG queries one at a time."""

    name = "adhoc_avg"

    def operations(self, pass_no: int) -> list:
        asked = [spec for spec in self.specs if spec.plain_avg]
        return inputs.pass_order(self.seeds, self.name, pass_no, asked)


class DashboardRefresh(_InProcess):
    """One dashboard per hub refreshing its non-AVG tiles as one batch."""

    name = "dashboard_refresh"

    def operations(self, pass_no: int) -> list:
        hubs: dict[tuple[str, str], list[QuerySpec]] = {}
        for spec in self.specs:
            if not spec.plain_avg:
                hubs.setdefault((spec.preset, spec.hub), []).append(spec)
        return inputs.pass_order(self.seeds, self.name, pass_no, list(hubs.values()))

    def ask(self, batch: list[QuerySpec], draw_pass: int) -> dict:
        seeds = [self.query_seed(draw_pass, spec) for spec in batch]
        service = self.services[batch[0].preset]
        self.probe.tick()
        started = time.perf_counter()
        try:
            handles = service.submit_batch(
                [(spec.query, seed) for spec, seed in zip(batch, seeds)]
            )
            results = [handle.result(timeout=OP_TIMEOUT_S) for handle in handles]
        except Exception as exc:  # a failed operation is counted, not raised
            return _operation(batch, seeds, started, error=repr(exc))
        operation = _operation(batch, seeds, started)
        operation["outcomes"] = [
            _outcome(spec, seed, values_of_result(result), result.stage_ms)
            for spec, seed, result in zip(batch, seeds, results)
        ]
        return operation


class ColdShapes(_InProcess):
    """The first query on a new component: empty plan cache, fresh service."""

    name = "cold_shapes"
    expects_builds = True

    def __init__(
        self, specs: list[QuerySpec], seeds: Seeds, profile, probe: SpeedProbe
    ) -> None:
        super().__init__(specs, seeds, profile, probe)
        # every operation closes its service, so the counters are kept here
        self._builds = 0
        self._health = {"sheds": 0, "deadline_expiries": 0}

    def setup(self) -> None:
        self.close()
        inputs.forget_bundles()
        for preset in self.presets:
            bundle = inputs.load_bundle(preset, self.profile.scale)
            csr_snapshot(bundle.kg)
            self.bundles[preset] = bundle
        # one throwaway operation per graph pages the cold code path in
        for preset in self.presets:
            self.ask_query(next(s for s in self.specs if s.preset == preset), 0)

    def operations(self, pass_no: int) -> list:
        asked = [spec for spec in self.specs if not spec.plain_avg]
        return inputs.pass_order(self.seeds, self.name, pass_no, asked)

    def ask_query(self, spec: QuerySpec, draw_pass: int) -> dict:
        seed = self.query_seed(draw_pass, spec)
        bundle = self.bundles[spec.preset]
        shared_plan_cache().clear()
        self.probe.tick()
        started = time.perf_counter()
        # the bare embedding: a fresh predicate space, so no similarity
        # row survives from the previous operation either
        service = AggregateQueryService(bundle.kg, bundle.embedding)
        try:
            result = service.submit(spec.query, seed=seed).result(timeout=OP_TIMEOUT_S)
            operation = _operation(
                [spec], [seed], started, builds=service.planner.build_count
            )
            health = service.health()
        except Exception as exc:  # a failed operation is counted, not raised
            return _operation([spec], [seed], started, error=repr(exc))
        finally:
            service.close()
        self._builds += operation["builds"]
        for key in self._health:
            self._health[key] += health[key]
        operation["outcomes"].append(
            _outcome(spec, seed, values_of_result(result), result.stage_ms)
        )
        return operation

    def plan_builds(self) -> int:
        return self._builds

    def health(self) -> dict:
        return dict(self._health)


# ----------------------------------------------------------------------
# The wire workload
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _scrape(text: str, name: str) -> float:
    """The value of an unlabelled sample in Prometheus text format."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise KeyError(name)


class HttpMixed(_Workload):
    """Two clients, each looping submit -> SSE until the terminal frame."""

    name = "http_mixed"

    def __init__(
        self, specs: list[QuerySpec], seeds: Seeds, profile, probe: SpeedProbe
    ) -> None:
        specs = [spec for spec in specs if spec.preset == HTTP_PRESET]
        super().__init__(specs, seeds, profile, probe)
        self.clients: list[ReproClient] = []
        self.server: subprocess.Popen | None = None
        self.port = 0
        self.trace_path: Path | None = None
        self.http_errors = 0
        self._engine = None
        atexit.register(self.close)

    # -- set-up ----------------------------------------------------------
    def setup(self, trace_path: Path | None = None) -> None:
        """Start the server (under spans when ``trace_path`` is given),
        wait for ``/healthz``, then run the untimed warm-up pass."""
        self.close()
        self.port = _free_port()
        self.trace_path = trace_path
        launcher = (
            ["-m", "repro"]
            if trace_path is None
            else [str(_LEDGER_DIR / "traced_serve.py"), str(trace_path)]
        )
        command = [
            sys.executable, *launcher, "serve",
            "--http", f"127.0.0.1:{self.port}",
            "--dataset", HTTP_PRESET, "--scale", str(self.profile.scale),
        ]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(_SOURCE_DIR)] + [p for p in [environment.get("PYTHONPATH")] if p]
        )
        inputs.CACHE_DIR.mkdir(exist_ok=True)
        with open(inputs.CACHE_DIR / "server.log", "w") as log:
            self.server = subprocess.Popen(
                command, env=environment, stdout=log, stderr=log,
                cwd=str(_LEDGER_DIR.parents[1]),
            )
        self.clients = [
            ReproClient("127.0.0.1", self.port, timeout=OP_TIMEOUT_S)
            for _ in range(HTTP_CLIENTS)
        ]
        deadline = time.monotonic() + OP_TIMEOUT_S
        while True:
            try:
                self.clients[0].healthz()
                break
            except OSError:
                if self.server.poll() is not None or time.monotonic() > deadline:
                    log_text = (inputs.CACHE_DIR / "server.log").read_text()
                    raise RuntimeError(f"server did not come up:\n{log_text}")
                time.sleep(0.05)
        for spec in self.specs:
            if not spec.plain_avg:
                self.probe.tick()
                self._single(self.clients[0], spec, self.query_seed(0, spec))

    def close(self) -> None:
        """Stop the server and wait until it has ended (no orphan)."""
        server, self.server = self.server, None
        if server is None:
            return
        server.terminate()
        try:
            server.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()

    # -- operations ------------------------------------------------------
    def operations(self, pass_no: int) -> list:
        """The 36 queries as 18 fixed pairs, in this pass's order.

        Left to run freely, which query meets which on the server is
        chaotic: a 20 ms COUNT beside a 1 s AVG waits a full AVG round per
        round of its own, and one pass's p50 lands anywhere from 93 to
        187 ms on identical inputs.  So who meets whom is an input: the
        draw seed pairs the queries up, the two clients submit a pair at
        the same moment, and the pair is one operation, settled when both
        streams have ended.  The workload seed only orders the pairs.
        """
        shuffled = list(self.specs)
        random.Random(f"{self.seeds.draws}/pairs").shuffle(shuffled)
        pairs = [shuffled[i : i + HTTP_CLIENTS] for i in range(0, len(shuffled), 2)]
        return inputs.pass_order(self.seeds, self.name, pass_no, pairs)

    def ask(self, pair: list[QuerySpec], draw_pass: int) -> dict:
        seeds = [self.query_seed(draw_pass, spec) for spec in pair]
        settled: list[dict | None] = [None] * len(pair)

        def ask_one(slot: int) -> None:
            settled[slot] = self._single(self.clients[slot], pair[slot], seeds[slot])

        self.probe.tick()
        threads = [
            threading.Thread(target=ask_one, args=(slot,)) for slot in range(len(pair))
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        errors = [single["error"] for single in settled if not single["ok"]]
        if errors:
            return _operation(pair, seeds, started, error="; ".join(errors))
        return _operation(
            pair, seeds, started,
            outcomes=[single["outcomes"][0] for single in settled],
            wire=[
                {key: single[key] for key in ("latency_s", "accept_s", "first_event_s")}
                for single in settled
            ],
        )

    def _single(self, client, spec: QuerySpec, seed: int) -> dict:
        """One query over the wire: POST, then its SSE stream to the end."""
        started = time.perf_counter()
        first_event = None
        terminal = None
        try:
            accepted = client.submit(spec.aql, seed=seed)
            accept = time.perf_counter() - started
            for event, data in client.events(accepted["id"]):
                if first_event is None:
                    first_event = time.perf_counter() - started
                if event != "round":
                    terminal = (event, data)
            operation = _operation(
                [spec], [seed], started, accept_s=accept, first_event_s=first_event
            )
            if terminal is None or terminal[0] != "result":
                raise RuntimeError(f"stream ended with {terminal!r}")
            payload = terminal[1]["result"]
        except Exception as exc:  # a failed operation is counted, not raised
            self.http_errors += 1
            return _operation([spec], [seed], started, error=repr(exc))
        operation["outcomes"].append(
            _outcome(spec, seed, values_of_payload(payload), payload["stage_ms"])
        )
        return operation

    # -- counters read over the wire --------------------------------------
    def server_counters(self) -> dict[str, float]:
        text = self.clients[0].metrics()
        return {
            "requests": _scrape(text, "repro_server_requests_total"),
            "sse_events": _scrape(text, "repro_server_sse_events_total"),
            "plan_builds": _scrape(text, "repro_plan_builds"),
        }

    def plan_builds(self) -> int:
        return int(self.server_counters()["plan_builds"])

    # -- the traced pass ---------------------------------------------------
    def start_tracing(self) -> None:
        """Restart the server under spans (and warm it up again)."""
        self.setup(inputs.CACHE_DIR / "server_spans.json")

    def stop_tracing(self) -> dict:
        self.close()  # the server writes its spans as it stops
        return json.loads(self.trace_path.read_text())

    def server_metrics(self, operations: list[dict], before: dict) -> dict:
        after = self.server_counters()
        wire = [
            (record, outcome)
            for op in operations
            if op["ok"]
            for record, outcome in zip(op["wire"], op["outcomes"])
        ]
        return {
            "accept_ms": statistics.fmean(r["accept_s"] for r, _ in wire) * 1e3,
            "first_event_ms": statistics.fmean(r["first_event_s"] for r, _ in wire)
            * 1e3,
            # client latency minus the payload's own stage_ms: the wire
            # plus the rounds of the paired query it waited behind
            "wire_overhead_ms": statistics.fmean(
                record["latency_s"] * 1e3 - sum(outcome["stage_ms"].values())
                for record, outcome in wire
            ),
            "sse_events": after["sse_events"] - before["sse_events"],
            "requests": after["requests"] - before["requests"],
            "http_errors": float(self.http_errors),
        }

    def health(self) -> dict:
        report = self.clients[0].healthz()["service"]
        return {key: report[key] for key in ("sheds", "deadline_expiries")}

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server subprocess, the process under test."""
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def reference(self, spec: QuerySpec, seed: int) -> dict:
        """A plain blocking ``engine.execute`` of the AQL text the wire carried."""
        if self._engine is None:
            bundle = inputs.load_bundle(HTTP_PRESET, self.profile.scale)
            self._engine = ApproximateAggregateEngine(bundle.kg, bundle.embedding)
        return values_of_result(self._engine.execute(spec.aql, seed=seed))

    def close_reference(self) -> None:
        if self._engine is not None:
            self._engine.service.close()
            self._engine = None


WORKLOADS = {
    workload.name: workload
    for workload in (AdhocAvg, DashboardRefresh, ColdShapes, HttpMixed)
}
