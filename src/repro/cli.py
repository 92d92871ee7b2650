"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``query``      — parse AQL string(s) and run them on a synthetic dataset,
  printing the approximate result (and optionally the exact tau-GT);
  several queries (or ``--batch``) go through the serving layer, which
  interleaves their rounds over shared plans.
* ``serve``      — read AQL queries from stdin and serve them concurrently
  through :class:`AggregateQueryService`, reporting per-round progress;
  ``--backend processes [--workers N]`` fans rounds out to worker
  processes.
* ``snapshot``   — save/load a dataset's CSR snapshot (and optionally plan
  artifacts) through a :class:`repro.store.SnapshotCatalog`, so later
  invocations memory-map S1 instead of recompiling it.
* ``datasets``   — list the bundled synthetic datasets with their sizes.
* ``experiment`` — regenerate one paper table/figure by name (``--list``
  shows all names; ``--plot`` adds an ASCII chart for figures).
* ``workload``   — run (a slice of) the standard benchmark workload.

The CLI is a thin layer over the public API; everything it does can be
done in a few lines of Python (see ``examples/``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Sequence

from repro.bench import experiments as _experiments
from repro.bench.plots import Series, line_chart
from repro.core.config import EngineConfig
from repro.core.engine import ApproximateAggregateEngine
from repro.core.resilience import ServiceLimits
from repro.core.result import ApproximateResult, GroupedResult
from repro.core.service import BACKENDS, AggregateQueryService
from repro.errors import ReproError
from repro.query.parser import parse_query

#: experiment name -> driver; names match the benches under benchmarks/
EXPERIMENTS: dict[str, Callable[..., "_experiments.ExperimentResult"]] = {
    "table5": _experiments.table5_ajs,
    "table6": _experiments.table6_tau_gt_error,
    "table7": _experiments.table7_ha_gt_error,
    "table8": _experiments.table8_response_time,
    "table9": _experiments.table9_case_study,
    "table10": _experiments.table10_operator_time,
    "table11": _experiments.table11_operator_error,
    "table12": _experiments.table12_step_timing,
    "table13": _experiments.table13_embeddings,
    "fig5a": _experiments.fig5a_sampling_ablation,
    "fig5b": _experiments.fig5b_validation_ablation,
    "fig5c": _experiments.fig5c_delta_ablation,
    "fig6a": _experiments.fig6a_interactive,
    "fig6b": _experiments.fig6b_confidence_level,
    "fig6c": _experiments.fig6c_repeat_factor,
    "fig6d": _experiments.fig6d_sample_ratio,
    "fig6e": _experiments.fig6e_nbound,
    "fig6f": _experiments.fig6f_tau_threshold,
    "scaling": _experiments.scaling_crossover,
    "ext_evt": _experiments.ext_evt_extremes,
    "ext_normalization": _experiments.ext_normalization,
}


def _dataset_registry() -> dict[str, Callable]:
    from repro.datasets import ALL_PRESETS

    return dict(ALL_PRESETS)


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution-backend flags shared by the serving commands."""
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="cooperative",
        help="how scheduler slots execute: the scheduler thread itself "
        "(default) or worker processes attached to the shared snapshot "
        "store",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --backend processes (default: CPU "
        "count); an error with any other backend",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query wall-clock budget; past it a query settles as "
        "DeadlineExceededError carrying its last anytime estimate + CI "
        "(default: no deadline)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="admission control: live queries accepted before the service "
        "sheds submissions with ServiceOverloadedError (default: unlimited)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate aggregate queries on knowledge graphs "
        "(ICDE 2022 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="run AQL aggregate queries")
    query.add_argument("aql", nargs="+",
                       help='e.g. "AVG(price) MATCH (Germany:Country)'
                       '-[product]->(x:Automobile)"; several queries are '
                       "served as one concurrent batch")
    query.add_argument("--dataset", default="dbpedia-like")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--scale", type=float, default=1.0)
    query.add_argument("--error-bound", type=float, default=0.01)
    query.add_argument("--confidence", type=float, default=0.95)
    query.add_argument("--tau", type=float, default=0.85)
    query.add_argument(
        "--batch",
        action="store_true",
        help="route through the serving layer even for a single query",
    )
    _add_backend_arguments(query)
    query.add_argument(
        "--ground-truth",
        action="store_true",
        help="also compute the exact tau-GT via SSB (slow) and the error",
    )
    query.add_argument(
        "--trace", action="store_true", help="print the per-round refinement trace"
    )

    serve = commands.add_parser(
        "serve",
        help="serve AQL queries from stdin (one per line, one JSON result "
        "line each) or over HTTP/SSE with --http HOST:PORT",
    )
    serve.add_argument(
        "--http",
        metavar="HOST:PORT",
        default=None,
        help="serve over HTTP instead of stdin: POST /v1/queries, "
        "per-round SSE at /v1/queries/{id}/events, /healthz "
        "(port 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--quota-rps",
        type=float,
        default=None,
        metavar="RATE",
        help="HTTP mode: per-client token-bucket rate (requests/second) "
        "shedding with 429 before the service queue fills "
        "(default: no per-client quota)",
    )
    serve.add_argument(
        "--quota-burst",
        type=int,
        default=10,
        metavar="N",
        help="HTTP mode: per-client burst size for --quota-rps (default: 10)",
    )
    serve.add_argument("--dataset", default="dbpedia-like")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--scale", type=float, default=1.0)
    serve.add_argument("--error-bound", type=float, default=0.01)
    serve.add_argument("--confidence", type=float, default=0.95)
    serve.add_argument("--tau", type=float, default=0.85)
    serve.add_argument(
        "--trace", action="store_true", help="print each query's round trace"
    )
    serve.add_argument(
        "--audit-log",
        metavar="PATH",
        default=None,
        help="append one JSON line per settled query (query, backend, "
        "rounds, per-stage ms, retries, estimate + CI) to this file",
    )
    serve.add_argument(
        "--audit-log-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="rotate the --audit-log file to PATH.1 before a write would "
        "push it past N bytes (one rotated generation kept; "
        "default: no rotation)",
    )
    _add_backend_arguments(serve)

    metrics = commands.add_parser(
        "metrics",
        help="fetch a running server's /metrics (Prometheus text format)",
    )
    metrics.add_argument(
        "address", metavar="HOST:PORT", help="a repro serve --http address"
    )

    snapshot = commands.add_parser(
        "snapshot",
        help="save/load CSR snapshots + plan artifacts through a catalog",
    )
    snapshot.add_argument("action", choices=["save", "load"])
    snapshot.add_argument("path", help="catalog root directory")
    snapshot.add_argument("--dataset", default="dbpedia-like")
    snapshot.add_argument("--seed", type=int, default=0)
    snapshot.add_argument("--scale", type=float, default=1.0)
    snapshot.add_argument(
        "--plan",
        action="append",
        default=[],
        metavar="AQL",
        help="also save/load the S1 plan artifacts of this AQL query "
        "(repeatable)",
    )
    snapshot.add_argument(
        "--verify-fingerprint",
        action="store_true",
        help="on load: additionally check the graph content hash",
    )

    commands.add_parser("datasets", help="list the synthetic datasets")

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table or figure"
    )
    experiment.add_argument("name", nargs="?", help="e.g. table6, fig6b, scaling")
    experiment.add_argument("--list", action="store_true", help="list experiments")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--plot",
        action="store_true",
        help="for figures: also draw an ASCII chart of the first series group",
    )

    workload = commands.add_parser(
        "workload", help="run part of the standard benchmark workload"
    )
    workload.add_argument("--dataset", default="dbpedia-like")
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--limit", type=int, default=5)
    workload.add_argument(
        "--shape", choices=["simple", "chain", "star", "cycle", "flower"]
    )

    export = commands.add_parser(
        "export", help="write a synthetic dataset's KG to disk"
    )
    export.add_argument("path", help="output file; format chosen by --format")
    export.add_argument("--dataset", default="dbpedia-like")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--scale", type=float, default=1.0)
    export.add_argument(
        "--format",
        choices=["json", "triples", "graphml"],
        default="json",
        help="json = full fidelity; triples = TSV (names/predicates only); "
        "graphml = via NetworkX for external tooling",
    )

    lint = commands.add_parser(
        "lint",
        help="statically check the concurrency & determinism contracts "
        "(see repro.analysis; also python -m repro.analysis)",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def _load_bundle(args: argparse.Namespace):
    """The dataset bundle named by ``args``, or None (error printed)."""
    presets = _dataset_registry()
    if args.dataset not in presets:
        print(
            f"unknown dataset {args.dataset!r}; choose from "
            f"{', '.join(sorted(presets))}",
            file=sys.stderr,
        )
        return None
    return presets[args.dataset](seed=args.seed, scale=args.scale)


def _query_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        error_bound=args.error_bound,
        confidence_level=args.confidence,
        tau=args.tau,
        seed=args.seed,
    )


def _print_round_trace(result: ApproximateResult | GroupedResult) -> None:
    print("\nround  estimate        MoE        satisfied   ms")
    for trace in result.rounds:
        # extreme rounds carry no CI: render the no-guarantee marker, not
        # a number (their moe is the 0.0 sentinel, never NaN)
        moe_text = (
            f"{trace.moe:>9,.2f}" if trace.guaranteed else f"{'n/a':>9}"
        )
        print(
            f"{trace.round_index:>5}  {trace.estimate:>12,.2f}"
            f"  {moe_text}  {trace.satisfied!s:<9}"
            f" {trace.seconds * 1e3:>6,.1f}"
        )


def _cmd_query(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args)
    if bundle is None:
        return 2
    queries = [parse_query(aql) for aql in args.aql]
    config = _query_config(args)
    print(f"dataset: {bundle.name} ({bundle.kg.num_nodes:,} nodes, "
          f"{bundle.kg.num_edges:,} edges)")
    if (
        len(queries) > 1
        or args.batch
        or args.backend != "cooperative"
        or args.workers is not None
        or args.deadline is not None
        or args.max_pending is not None
    ):
        # a requested execution backend always routes through the serving
        # layer — silently ignoring --backend/--workers (or the serving
        # limits --deadline/--max-pending) for a lone query would run the
        # wrong execution mode; the service rejects --workers on any
        # backend but processes
        return _run_query_batch(bundle, config, queries, args)
    aggregate_query = queries[0]
    engine = ApproximateAggregateEngine(bundle.kg, bundle.embedding, config=config)
    print(f"query:   {aggregate_query.describe()}")
    started = time.perf_counter()
    result = engine.execute(aggregate_query)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    if isinstance(result, GroupedResult):
        print(result.describe())
        if args.trace:
            _print_round_trace(result)
    else:
        print(f"result:  {result.describe()}")
        if args.trace:
            _print_round_trace(result)
    print(f"time:    {elapsed_ms:,.1f} ms")
    if args.ground_truth and isinstance(result, ApproximateResult):
        from repro.baselines.ssb import tau_ground_truth

        truth = tau_ground_truth(bundle.kg, bundle.space(), aggregate_query,
                                 tau=args.tau)
        print(f"tau-GT:  {truth.value:,.2f}   "
              f"error: {result.relative_error(truth.value):.2%}")
    return 0


def _run_query_batch(bundle, config: EngineConfig, queries, args) -> int:
    """Serve ``queries`` as one concurrent batch and print each result."""
    started = time.perf_counter()
    with AggregateQueryService(
        bundle.kg,
        bundle.embedding,
        config,
        backend=getattr(args, "backend", "cooperative"),
        workers=getattr(args, "workers", None),
        default_deadline=getattr(args, "deadline", None),
        limits=ServiceLimits(max_pending=getattr(args, "max_pending", None)),
    ) as service:
        handles = service.submit_batch(queries)
        exit_code = 0
        for position, handle in enumerate(handles):
            label = f"[{position + 1}/{len(handles)}]"
            print(f"\n{label} {handle.query.describe()}")
            try:
                result = handle.result()
            except ReproError as exc:
                print(f"{label} error: {exc}", file=sys.stderr)
                exit_code = 1
                continue
            print(f"{label} {result.describe()}")
            if args.trace:
                _print_round_trace(result)
            if args.ground_truth and isinstance(result, ApproximateResult):
                from repro.baselines.ssb import tau_ground_truth

                truth = tau_ground_truth(
                    bundle.kg, bundle.space(), handle.query, tau=args.tau
                )
                print(f"{label} tau-GT: {truth.value:,.2f}   "
                      f"error: {result.relative_error(truth.value):.2%}")
    elapsed_ms = (time.perf_counter() - started) * 1e3
    print(f"\nbatch time: {elapsed_ms:,.1f} ms ({len(handles)} queries, "
          "rounds interleaved over shared plans)")
    return exit_code


def _service_for(bundle, config: EngineConfig, args) -> AggregateQueryService:
    """A service wired up with the shared serving flags."""
    return AggregateQueryService(
        bundle.kg,
        bundle.embedding,
        config,
        backend=args.backend,
        workers=args.workers,
        default_deadline=args.deadline,
        limits=ServiceLimits(max_pending=args.max_pending),
        audit_log=getattr(args, "audit_log", None),
        audit_log_max_bytes=getattr(args, "audit_log_max_bytes", None),
    )


def _print_health(service: AggregateQueryService) -> None:
    """Dump ``service.health()`` to stderr (the SIGINT farewell)."""
    import json

    print(
        "health: " + json.dumps(service.health(), sort_keys=True),
        file=sys.stderr,
    )


def _wait_for_interrupt(runner) -> None:
    """Block until SIGINT stops the HTTP server.

    A module-level hook so tests can drive requests against the bound
    address and then raise :class:`KeyboardInterrupt` themselves.
    """
    while True:
        time.sleep(0.25)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve AQL queries: JSON lines over stdin, or HTTP with ``--http``."""
    bundle = _load_bundle(args)
    if bundle is None:
        return 2
    config = _query_config(args)
    if args.http is not None:
        return _serve_http(bundle, config, args)
    return _serve_stdin(bundle, config, args)


def _serve_http(bundle, config: EngineConfig, args) -> int:
    from repro.server import ClientQuota, ReproHTTPServer, ServerThread

    host, _, port_text = args.http.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"--http expects HOST:PORT, got {args.http!r}", file=sys.stderr)
        return 2
    quota = None
    if args.quota_rps is not None:
        quota = ClientQuota(rate=args.quota_rps, burst=args.quota_burst)
    service = _service_for(bundle, config, args)
    runner = ServerThread(
        ReproHTTPServer(
            service, host or "127.0.0.1", port, quota=quota, owns_service=True
        )
    )
    try:
        runner.start()
    except Exception as exc:
        service.close()
        print(f"cannot bind {args.http!r}: {exc}", file=sys.stderr)
        return 2
    bound_host, bound_port = runner.address
    print(
        f"serving {bundle.name} ({bundle.kg.num_nodes:,} nodes) on "
        f"http://{bound_host}:{bound_port} (backend={args.backend}); "
        "Ctrl-C stops gracefully",
        file=sys.stderr,
    )
    try:
        _wait_for_interrupt(runner)
    except KeyboardInterrupt:
        _print_health(service)
        runner.stop()
        return 130
    runner.stop()
    return 0


def _serve_stdin(bundle, config: EngineConfig, args) -> int:
    """One AQL query per stdin line; one flushed JSON result line each."""
    import json
    from collections import deque

    from repro.server.app import encode_result, error_payload

    print(f"serving {bundle.name} ({bundle.kg.num_nodes:,} nodes); "
          "one AQL query per line, blank/# lines ignored", file=sys.stderr)
    exit_code = 0
    served = 0

    def emit(line_number: int, aql: str, payload: dict) -> None:
        record = {"line": line_number, "aql": aql, **payload}
        # one self-contained JSON object per line, flushed immediately so
        # a pipe consumer sees each result as soon as it settles
        print(json.dumps(record, sort_keys=True), flush=True)

    def settle(line_number: int, aql: str, handle, trace: bool) -> None:
        nonlocal exit_code, served
        try:
            result = handle.result()
        except ReproError as exc:
            emit(line_number, aql, {
                "status": handle.status.value,
                "error": error_payload(exc),
            })
            exit_code = 1
            return
        emit(line_number, aql, {
            "status": "succeeded",
            "result": encode_result(result),
        })
        served += 1
        if trace:
            _print_round_trace(result)

    pending: deque = deque()
    with _service_for(bundle, config, args) as service:
        try:
            for line_number, raw_line in enumerate(sys.stdin, start=1):
                aql = raw_line.strip()
                if not aql or aql.startswith("#"):
                    continue
                try:
                    handle = service.submit(aql)
                except ReproError as exc:
                    emit(line_number, aql, {
                        "status": "rejected",
                        "error": error_payload(exc),
                    })
                    exit_code = 1
                    continue
                pending.append((line_number, aql, handle))
                # flush whatever already settled, keeping submission order
                while pending and pending[0][2].status.terminal:
                    settle(*pending.popleft(), args.trace)
            while pending:  # EOF: wait out the stragglers
                settle(*pending.popleft(), args.trace)
        except KeyboardInterrupt:
            # SIGINT mid-serve: report health, let the context manager
            # cancel what's still running, and exit without a stack trace
            _print_health(service)
            print(
                f"interrupted; served {served} queries "
                f"({len(pending)} cancelled)",
                file=sys.stderr,
            )
            return 130
    print(f"served {served} queries", file=sys.stderr)
    return exit_code


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Print a running server's Prometheus exposition to stdout."""
    from repro.server import ReproClient

    host, _, port_text = args.address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(
            f"metrics expects HOST:PORT, got {args.address!r}", file=sys.stderr
        )
        return 2
    print(ReproClient(host or "127.0.0.1", port).metrics(), end="")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """Save or load a dataset's snapshot (+ plan artifacts) via a catalog."""
    from repro.core.plan import PlanCache
    from repro.core.planner import QueryPlanner
    from repro.kg.csr import build_call_count
    from repro.store import SnapshotCatalog, load_snapshot

    bundle = _load_bundle(args)
    if bundle is None:
        return 2
    kg = bundle.kg
    config = EngineConfig(seed=args.seed)
    catalog = SnapshotCatalog(args.path)
    components = [
        component
        for aql in args.plan
        for component in parse_query(aql).query.components
    ]

    if args.action == "save":
        started = time.perf_counter()
        path = catalog.save_snapshot(kg)
        snapshot_ms = (time.perf_counter() - started) * 1e3
        print(
            f"snapshot: {kg.num_nodes:,} nodes / {kg.num_edges:,} edges -> "
            f"{path} ({path.stat().st_size:,} bytes, {snapshot_ms:,.1f} ms)"
        )
        if components:
            planner = QueryPlanner(
                kg, bundle.space(), config, cache=PlanCache(), catalog=catalog
            )
            started = time.perf_counter()
            for component in components:
                planner.plan_for(component)
            plans_ms = (time.perf_counter() - started) * 1e3
            print(
                f"plans:    {planner.build_count} built, "
                f"{planner.catalog_hits} already stored ({plans_ms:,.1f} ms)"
            )
        return 0

    # load: memory-map the stored artefacts and prove nothing recompiles
    builds_before = build_call_count()
    started = time.perf_counter()
    load_snapshot(
        catalog.snapshot_path(kg),
        kg,
        verify_fingerprint=args.verify_fingerprint,
    )
    load_ms = (time.perf_counter() - started) * 1e3
    print(
        f"snapshot: mmap-loaded {kg.num_nodes:,} nodes / {kg.num_edges:,} "
        f"edges in {load_ms:,.2f} ms "
        f"(build_csr calls: {build_call_count() - builds_before})"
    )
    if components:
        planner = QueryPlanner(
            kg, bundle.space(), config, cache=PlanCache(), catalog=catalog
        )
        started = time.perf_counter()
        for component in components:
            planner.plan_for(component)
        plans_ms = (time.perf_counter() - started) * 1e3
        print(
            f"plans:    {planner.catalog_hits} loaded from the catalog, "
            f"{planner.build_count} S1 builds ({plans_ms:,.1f} ms)"
        )
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    for name, preset in sorted(_dataset_registry().items()):
        bundle = preset(seed=0)
        hubs = ", ".join(hub.key for hub in bundle.spec.hubs)
        print(f"{name}: {bundle.kg.num_nodes:,} nodes, "
              f"{bundle.kg.num_edges:,} edges, "
              f"{bundle.kg.num_predicates} predicates")
        print(f"  hubs: {hubs}")
    return 0


def _as_float(value: object) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _figure_series(
    result: "_experiments.ExperimentResult",
) -> tuple[list[Series], int, int]:
    """Best-effort series extraction from a figure's rows.

    Figure rows come in two layouts: ``(label, x, y, ...)`` (Fig. 5) and
    ``(x, label, y, ...)`` (Fig. 6 sweeps).  Whichever of the first two
    columns is numeric is the x axis; the other is the series label; the
    first numeric column after them is y.  Returns the series plus the
    (x, y) column indexes for axis labelling.
    """
    if not result.rows or len(result.headers) < 3:
        return [], 0, 0
    first_numeric = all(_as_float(row[0]) is not None for row in result.rows)
    x_column, label_column = (0, 1) if first_numeric else (1, 0)
    grouped: dict[str, list[tuple[float, float]]] = {}
    y_column = 2
    for row in result.rows:
        if len(row) <= y_column:
            continue
        x = _as_float(row[x_column])
        y = _as_float(row[y_column])
        if x is None or y is None:
            continue
        grouped.setdefault(str(row[label_column]), []).append((x, y))
    series = [
        Series.from_rows(name, points)
        for name, points in grouped.items()
        if len(points) >= 2
    ]
    return series, x_column, y_column


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.list or not args.name:
        for name in EXPERIMENTS:
            print(name)
        return 0
    driver = EXPERIMENTS.get(args.name)
    if driver is None:
        print(
            f"unknown experiment {args.name!r}; run "
            "'python -m repro experiment --list'",
            file=sys.stderr,
        )
        return 2
    result = driver(seed=args.seed)
    print(result.text)
    if args.plot:
        series, x_column, y_column = _figure_series(result)
        if series:
            print()
            print(
                line_chart(
                    series,
                    title=args.name,
                    x_label=str(result.headers[x_column]),
                    y_label=str(result.headers[y_column]),
                )
            )
        else:
            print("(no plottable series in this experiment's rows)")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.baselines.ssb import tau_ground_truth
    from repro.datasets import standard_workload

    presets = _dataset_registry()
    if args.dataset not in presets:
        print(
            f"unknown dataset {args.dataset!r}; choose from "
            f"{', '.join(sorted(presets))}",
            file=sys.stderr,
        )
        return 2
    bundle = presets[args.dataset](seed=args.seed)
    engine = ApproximateAggregateEngine(
        bundle.kg, bundle.embedding, config=EngineConfig(seed=args.seed)
    )
    queries = standard_workload(bundle)
    if args.shape:
        queries = [query for query in queries if query.shape.value == args.shape]
    queries = queries[: args.limit]
    if not queries:
        print("no workload queries match the given filters", file=sys.stderr)
        return 2
    print(f"{'qid':<14} {'shape':<7} {'fn':<6} {'estimate':>14} "
          f"{'tau-GT':>14} {'error':>7}  time")
    for query in queries:
        started = time.perf_counter()
        result = engine.execute(query.aggregate_query)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        if isinstance(result, GroupedResult):
            print(f"{query.qid:<14} {query.shape.value:<7} "
                  f"{query.function.value:<6} {result.num_groups:>10} groups"
                  f" {'-':>14} {'-':>7}  {elapsed_ms:,.0f} ms")
            continue
        truth = tau_ground_truth(bundle.kg, bundle.space(), query.aggregate_query)
        error = result.relative_error(truth.value)
        print(f"{query.qid:<14} {query.shape.value:<7} "
              f"{query.function.value:<6} {result.value:>14,.2f} "
              f"{truth.value:>14,.2f} {error:>7.2%}  {elapsed_ms:,.0f} ms")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    presets = _dataset_registry()
    if args.dataset not in presets:
        print(
            f"unknown dataset {args.dataset!r}; choose from "
            f"{', '.join(sorted(presets))}",
            file=sys.stderr,
        )
        return 2
    bundle = presets[args.dataset](seed=args.seed, scale=args.scale)
    if args.format == "json":
        from repro.kg import save_json

        save_json(bundle.kg, args.path)
    elif args.format == "triples":
        from repro.kg import save_triples

        save_triples(bundle.kg, args.path)
    else:
        import networkx as nx

        from repro.kg import to_networkx

        graph = to_networkx(bundle.kg)
        # GraphML cannot serialise lists/dicts; flatten the payloads.
        for _node, data in graph.nodes(data=True):
            data["types"] = "|".join(data.pop("types"))
            for key, value in data.pop("attributes").items():
                data[f"attr_{key}"] = value
        nx.write_graphml(graph, args.path)
    print(
        f"wrote {bundle.kg.num_nodes:,} nodes / {bundle.kg.num_edges:,} edges "
        f"({args.format}) to {args.path}"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "query": _cmd_query,
    "serve": _cmd_serve,
    "metrics": _cmd_metrics,
    "snapshot": _cmd_snapshot,
    "datasets": _cmd_datasets,
    "experiment": _cmd_experiment,
    "workload": _cmd_workload,
    "export": _cmd_export,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
