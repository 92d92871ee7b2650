"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.bench.experiments import Claim, ExperimentResult, _result
from repro.bench.sampled import PaperConfig
from repro.cli import EXPERIMENTS, _figure_series, main


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------
def test_datasets_lists_all_presets(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("dbpedia-like", "freebase-like", "yago2-like"):
        assert name in out
    assert "nodes" in out


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------
def test_query_simple_count(capsys):
    code = main(
        [
            "query",
            "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)",
            "--dataset",
            "dbpedia-like",
            "--error-bound",
            "0.05",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "COUNT" in out
    assert "CI" in out
    assert "ms" in out


def test_query_with_trace(capsys):
    code = main(
        [
            "query",
            "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)",
            "--error-bound",
            "0.05",
            "--trace",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "round" in out


def test_query_group_by(capsys):
    code = main(
        [
            "query",
            "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
            " GROUP BY body_style_code",
            "--error-bound",
            "0.05",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "groups" in out


def test_query_extreme_trace_renders_no_nan(capsys, monkeypatch, sampled_service):
    """Regression: extreme round traces carried moe=NaN, which the trace
    table rendered as 'nan'; the sentinel renders as the n/a marker.  The
    service samples: a census round has a CI, so it has no sentinel."""

    def sampled(kg, embedding, config, **kwargs):
        # the CLI's census config, under the sampler's defaults
        return sampled_service(kg, embedding, PaperConfig(**asdict(config)), **kwargs)

    monkeypatch.setattr("repro.cli.AggregateQueryService", sampled)
    code = main(
        [
            "query",
            "MAX(price) MATCH (Germany:Country)-[product]->(x:Automobile)",
            "--trace",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "round" in out  # the trace table printed
    assert "nan" not in out.lower()
    assert "n/a" in out


def test_query_group_by_trace_prints_rounds(capsys):
    """GROUP-BY results now carry an anytime trace the CLI can render."""
    code = main(
        [
            "query",
            "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
            " GROUP BY body_style_code",
            "--error-bound",
            "0.05",
            "--trace",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "groups" in out
    assert "round" in out
    assert "nan" not in out.lower()


def test_query_unknown_dataset(capsys):
    code = main(["query", "COUNT(*) MATCH (A:B)-[c]->(x:D)", "--dataset", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown dataset" in err


def test_query_parse_error_is_reported(capsys):
    code = main(["query", "THIS IS NOT AQL"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_query_missing_mapping_node(capsys):
    code = main(
        ["query", "COUNT(*) MATCH (Atlantis:Country)-[product]->(x:Automobile)"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------
def test_experiment_list(capsys):
    assert main(["experiment", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("table6", "fig6b", "scaling", "ext_evt"):
        assert name in out


_HOLDS = [Claim("stub claim", True)]


@pytest.mark.parametrize(
    "claim, code, printed",
    [
        (Claim("y stays positive", True), 0, "- y stays positive: holds"),
        (Claim("y rises with x", False), 1, "- y rises with x: FAILS"),
        (
            Claim("y rises with x", False, why_not="y is 4.00 at x = 1, 1.00 at x = 2"),
            0,
            "- y rises with x: differs: y is 4.00 at x = 1, 1.00 at x = 2",
        ),
    ],
    ids=["holds", "fails", "differs"],
)
def test_experiment_exit_code_follows_its_claims(capsys, monkeypatch, claim, code, printed):
    """A claim the rows contradict fails the command unless the driver
    says why this implementation differs; every verdict is printed."""
    stub = _result("stub", "Stub", ["x", "y"], [[1.0, 4.0], [2.0, 1.0]], claims=[claim])
    monkeypatch.setitem(EXPERIMENTS, "stub", lambda seed=0: stub)
    assert main(["experiment", "stub"]) == code
    assert printed in capsys.readouterr().out


def test_an_experiment_states_a_claim():
    with pytest.raises(ValueError, match="states no claim"):
        _result("stub", "Stub", ["x"], [[1.0]], claims=[])


def test_experiment_unknown_name(capsys):
    code = main(["experiment", "never-heard-of-it"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown experiment" in err


def test_experiment_runs_stub_driver(capsys, monkeypatch):
    stub = _result(
        "stub",
        "Stub experiment",
        ["Label", "x", "y"],
        [["a", 1.0, 2.0], ["a", 2.0, 3.0], ["b", 1.0, 4.0], ["b", 2.0, 1.0]],
        claims=_HOLDS,
    )
    monkeypatch.setitem(EXPERIMENTS, "stub", lambda seed=0: stub)
    assert main(["experiment", "stub"]) == 0
    out = capsys.readouterr().out
    assert "Stub experiment" in out


def test_experiment_plot_draws_chart(capsys, monkeypatch):
    stub = _result(
        "stub",
        "Stub experiment",
        ["Label", "x", "y"],
        [["a", 1.0, 2.0], ["a", 2.0, 3.0], ["b", 1.0, 4.0], ["b", 2.0, 1.0]],
        claims=_HOLDS,
    )
    monkeypatch.setitem(EXPERIMENTS, "stub", lambda seed=0: stub)
    assert main(["experiment", "stub", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "* a" in out
    assert "o b" in out


def test_experiment_plot_without_series(capsys, monkeypatch):
    stub = _result("stub", "Stub", ["A", "B", "C"], [["x", "y", "z"]], claims=_HOLDS)
    monkeypatch.setitem(EXPERIMENTS, "stub", lambda seed=0: stub)
    assert main(["experiment", "stub", "--plot"]) == 0
    assert "no plottable series" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# _figure_series layouts
# ---------------------------------------------------------------------------
def test_figure_series_label_first_layout():
    result = _result(
        "f", "t", ["Sampler", "x", "err"],
        [["semantic", 1, 2.0], ["semantic", 2, 1.0], ["cnarw", 1, 8.0], ["cnarw", 2, 7.0]],
        claims=_HOLDS,
    )
    series, x_column, y_column = _figure_series(result)
    assert {one.name for one in series} == {"semantic", "cnarw"}
    assert (x_column, y_column) == (1, 2)


def test_figure_series_x_first_layout():
    result = _result(
        "f", "t", ["r", "Function", "err"],
        [[1, "COUNT", 2.0], [2, "COUNT", 1.5], [1, "AVG", 1.0], [2, "AVG", 0.5]],
        claims=_HOLDS,
    )
    series, x_column, y_column = _figure_series(result)
    assert {one.name for one in series} == {"COUNT", "AVG"}
    assert (x_column, y_column) == (0, 2)


def test_figure_series_skips_short_groups():
    result = _result("f", "t", ["L", "x", "y"], [["only-one-point", 1, 2.0]], claims=_HOLDS)
    series, _x, _y = _figure_series(result)
    assert series == []


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------
def test_workload_runs_a_slice(capsys):
    code = main(["workload", "--dataset", "dbpedia-like", "--limit", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "qid" in out
    assert "Q001" in out


def test_workload_unknown_dataset(capsys):
    code = main(["workload", "--dataset", "nope"])
    assert code == 2
    assert "unknown dataset" in capsys.readouterr().err


def test_workload_empty_filter(capsys):
    code = main(["workload", "--limit", "0"])
    assert code == 2
    assert "no workload queries" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------
def test_export_json_round_trips(tmp_path, capsys):
    from repro.kg import load_json

    path = tmp_path / "kg.json"
    assert main(["export", str(path), "--dataset", "dbpedia-like"]) == 0
    assert "wrote" in capsys.readouterr().out
    kg = load_json(path)
    assert kg.num_nodes > 0
    assert kg.num_edges > 0


def test_export_graphml_is_readable_by_networkx(tmp_path):
    import networkx as nx

    path = tmp_path / "kg.graphml"
    assert main(["export", str(path), "--format", "graphml"]) == 0
    graph = nx.read_graphml(path)
    assert graph.number_of_nodes() > 0
    some_node = next(iter(graph.nodes(data=True)))[1]
    assert "types" in some_node


def test_export_triples_is_tsv(tmp_path):
    path = tmp_path / "kg.tsv"
    assert main(["export", str(path), "--format", "triples"]) == 0
    first_line = path.read_text().splitlines()[0]
    assert len(first_line.split("\t")) == 3


def test_export_unknown_dataset(tmp_path, capsys):
    code = main(["export", str(tmp_path / "x.json"), "--dataset", "nope"])
    assert code == 2
    assert "unknown dataset" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------
def test_snapshot_save_then_load_skips_recompiles(tmp_path, capsys):
    catalog_root = tmp_path / "catalog"
    assert main(
        ["snapshot", "save", str(catalog_root), "--dataset", "dbpedia-like"]
    ) == 0
    saved = capsys.readouterr().out
    assert "snapshot:" in saved

    assert main(
        ["snapshot", "load", str(catalog_root), "--dataset", "dbpedia-like",
         "--verify-fingerprint"]
    ) == 0
    loaded = capsys.readouterr().out
    assert "build_csr calls: 0" in loaded


def test_snapshot_load_without_save_reports_store_error(tmp_path, capsys):
    code = main(
        ["snapshot", "load", str(tmp_path / "empty"), "--dataset", "dbpedia-like"]
    )
    assert code == 1
    assert "no store file" in capsys.readouterr().err


def test_query_has_no_batch_flag(capsys):
    """Every query goes through the serving layer, so there is no flag to
    choose it."""
    aql = "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
    with pytest.raises(SystemExit) as exit_info:
        main(["query", aql, "--batch"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --batch" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["backend", "workers"])
@pytest.mark.parametrize("command", ["query", "serve"])
def test_backend_and_workers_flags_are_unrecognised(capsys, command, flag):
    """There is one execution path, so the backend and worker-count flags
    are usage errors on both serving commands — not silently accepted."""
    aql = "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
    argv = ["query", aql] if command == "query" else ["serve"]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, f"--{flag}", "2"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: --{flag} 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# serve (stdin mode): one flushed JSON result line per query
# ---------------------------------------------------------------------------
_SERVE_AQL = "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"


def _serve_payloads(captured_out: str) -> list[dict]:
    import json

    return [json.loads(line) for line in captured_out.strip().splitlines()]


def test_serve_stdin_emits_one_json_line_per_query(monkeypatch, capsys):
    """Regression: stdin serve used to print human chatter on stdout; now
    each query yields exactly one machine-readable JSON line, and the
    banner/summary chatter lives on stderr."""
    import io

    lines = (
        f"{_SERVE_AQL}\n"
        "# a comment line\n"
        "\n"
        "MAX(price) MATCH (Germany:Country)-[product]->(x:Automobile)\n"
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code = main(["serve", "--error-bound", "0.2"])
    captured = capsys.readouterr()
    assert code == 0
    payloads = _serve_payloads(captured.out)
    assert len(payloads) == 2, "one JSON line per query, nothing else"
    assert [payload["line"] for payload in payloads] == [1, 4]
    for payload in payloads:
        assert payload["status"] == "succeeded"
        assert "estimate" in payload["result"]
    assert payloads[0]["result"]["function"] == "COUNT"
    assert payloads[1]["result"]["function"] == "MAX"
    assert "served 2 queries" in captured.err


def test_serve_stdin_reports_rejections_as_json(monkeypatch, capsys):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO(f"THIS IS NOT AQL\n{_SERVE_AQL}\n")
    )
    code = main(["serve", "--error-bound", "0.2"])
    captured = capsys.readouterr()
    assert code == 1, "a rejected line is a non-zero exit"
    payloads = _serve_payloads(captured.out)
    assert payloads[0]["status"] == "rejected"
    assert payloads[0]["error"]["error"] == "ParseError"
    assert payloads[1]["status"] == "succeeded"


def test_serve_stdin_sigint_exits_cleanly(monkeypatch, capsys):
    """Regression: Ctrl-C mid-serve used to dump a KeyboardInterrupt
    traceback; now it prints service health and exits 130."""

    class _InterruptingStdin:
        def __iter__(self):
            yield f"{_SERVE_AQL}\n"
            raise KeyboardInterrupt

    monkeypatch.setattr("sys.stdin", _InterruptingStdin())
    code = main(["serve", "--error-bound", "0.2"])
    captured = capsys.readouterr()
    assert code == 130
    assert "health:" in captured.err
    assert "interrupted" in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# serve --http: the full CLI -> HTTP -> SSE -> shutdown path
# ---------------------------------------------------------------------------
def test_serve_http_end_to_end(monkeypatch, capsys):
    from repro.server import ReproClient

    observed: dict = {}

    def drive(runner):
        with ReproClient(*runner.address) as client:
            accepted = client.submit(_SERVE_AQL, error_bound=0.2)
            events = list(client.events(accepted["id"]))
            observed["rounds"] = [d for e, d in events if e == "round"]
            observed["terminal"] = events[-1]
            observed["health"] = client.healthz()
        raise KeyboardInterrupt  # what Ctrl-C would do

    monkeypatch.setattr("repro.cli._wait_for_interrupt", drive)
    code = main(
        ["serve", "--http", "127.0.0.1:0", "--error-bound", "0.2",
         "--quota-rps", "100"]
    )
    captured = capsys.readouterr()
    assert code == 130
    assert observed["terminal"][0] == "result"
    assert observed["terminal"][1]["result"]["function"] == "COUNT"
    assert observed["rounds"], "SSE streamed at least one round"
    assert observed["health"]["service"]["uptime_s"] > 0.0
    assert "serving" in captured.err
    assert "health:" in captured.err, "SIGINT prints service health"
    assert "Traceback" not in captured.err


def test_serve_http_rejects_malformed_address(capsys):
    code = main(["serve", "--http", "not-an-address"])
    assert code == 2
    assert "--http expects HOST:PORT" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bad input is refused before any graph is built
# ---------------------------------------------------------------------------
@pytest.fixture
def no_graph_build(monkeypatch):
    """Every dataset preset fails the test if a command loads it."""

    def refuse(**_kwargs):
        raise AssertionError("a graph was built before the input was checked")

    monkeypatch.setattr(
        "repro.cli._dataset_registry",
        lambda: dict.fromkeys(("dbpedia-like", "freebase-like", "yago2-like"), refuse),
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["query", _SERVE_AQL, "--tau", "2"], "tau must be in (0, 1]"),
        (["query", _SERVE_AQL, "COUNT MATCH nothing"], "error:"),
        (["serve", "--tau", "2"], "tau must be in (0, 1]"),
        (["serve", "--http", "127.0.0.1:0", "--confidence", "1"], "confidence"),
    ],
    ids=["query-tau", "query-aql", "serve-tau", "serve-http-confidence"],
)
def test_query_and_serve_check_their_input_before_the_graph(
    no_graph_build, capsys, argv, message
):
    assert main([*argv, "--scale", "30"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("address", ["nonsense", "127.0.0.1:http", "host:70000"])
def test_serve_checks_its_http_address_before_the_graph(
    no_graph_build, capsys, address
):
    assert main(["serve", "--http", address, "--scale", "30"]) == 2
    assert "--http expects HOST:PORT" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["query", _SERVE_AQL],
        ["serve"],
        ["snapshot", "save", "catalog"],
        ["export", "kg.json"],
    ],
    ids=["query", "serve", "snapshot", "export"],
)
@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "big"])
def test_every_scale_flag_is_finite_and_positive(
    no_graph_build, capsys, command, scale
):
    with pytest.raises(SystemExit) as exited:
        main([*command, "--scale", scale])
    assert exited.value.code == 2
    assert "--scale: must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["query", _SERVE_AQL], ["serve"]], ids=["query", "serve"]
)
@pytest.mark.parametrize(
    "flag, value, message",
    [("--deadline", value, "must be finite and > 0") for value in ("0", "-5", "nan", "inf", "soon")]
    + [("--max-pending", value, "must be an integer >= 1") for value in ("0", "-1", "1.5", "many")],
)
def test_serving_flags_are_checked_before_the_graph(
    no_graph_build, capsys, command, flag, value, message
):
    with pytest.raises(SystemExit) as exited:
        main([*command, flag, value])
    assert exited.value.code == 2
    assert f"{flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--quota-rps", "0", "must be finite and > 0"),
        ("--quota-rps", "-1", "must be finite and > 0"),
        ("--quota-rps", "nan", "must be finite and > 0"),
        ("--quota-burst", "0", "must be an integer >= 1"),
        ("--audit-log-max-bytes", "0", "must be an integer >= 1"),
    ],
)
def test_serve_limits_are_checked_before_the_graph(no_graph_build, capsys, flag, value, message):
    with pytest.raises(SystemExit) as exited:
        main(["serve", "--http", "127.0.0.1:0", flag, value])
    assert exited.value.code == 2
    assert f"{flag}: {message}" in capsys.readouterr().err
