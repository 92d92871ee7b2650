"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.bench.experiments import ExperimentResult, _result
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


def test_query_extreme_trace_renders_no_nan(capsys):
    """Regression: extreme round traces carried moe=NaN, which the trace
    table rendered as 'nan'; the sentinel renders as the n/a marker."""
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


def test_experiment_registry_covers_every_bench():
    import pathlib

    bench_dir = pathlib.Path(__file__).parent.parent / "benchmarks"
    bench_stems = {
        # bench files zero-pad table numbers (bench_table06_...)
        path.stem.removeprefix("bench_").replace("table0", "table")
        for path in bench_dir.glob("bench_*.py")
    }
    # every registry name must be the prefix of some bench file stem
    for name in EXPERIMENTS:
        assert any(stem.startswith(name) for stem in bench_stems), name


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
    )
    monkeypatch.setitem(EXPERIMENTS, "stub", lambda seed=0: stub)
    assert main(["experiment", "stub", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "* a" in out
    assert "o b" in out


def test_experiment_plot_without_series(capsys, monkeypatch):
    stub = _result("stub", "Stub", ["A", "B", "C"], [["x", "y", "z"]])
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
    )
    series, x_column, y_column = _figure_series(result)
    assert {one.name for one in series} == {"semantic", "cnarw"}
    assert (x_column, y_column) == (1, 2)


def test_figure_series_x_first_layout():
    result = _result(
        "f", "t", ["r", "Function", "err"],
        [[1, "COUNT", 2.0], [2, "COUNT", 1.5], [1, "AVG", 1.0], [2, "AVG", 0.5]],
    )
    series, x_column, y_column = _figure_series(result)
    assert {one.name for one in series} == {"COUNT", "AVG"}
    assert (x_column, y_column) == (0, 2)


def test_figure_series_skips_short_groups():
    result = _result("f", "t", ["L", "x", "y"], [["only-one-point", 1, 2.0]])
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
    aql = "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)"
    catalog_root = tmp_path / "catalog"
    assert main(
        ["snapshot", "save", str(catalog_root), "--dataset", "dbpedia-like",
         "--plan", aql]
    ) == 0
    saved = capsys.readouterr().out
    assert "snapshot:" in saved
    assert "1 built" in saved

    assert main(
        ["snapshot", "load", str(catalog_root), "--dataset", "dbpedia-like",
         "--verify-fingerprint", "--plan", aql]
    ) == 0
    loaded = capsys.readouterr().out
    assert "build_csr calls: 0" in loaded
    assert "1 loaded from the catalog, 0 S1 builds" in loaded


def test_snapshot_load_without_save_reports_store_error(tmp_path, capsys):
    code = main(
        ["snapshot", "load", str(tmp_path / "empty"), "--dataset", "dbpedia-like"]
    )
    assert code == 1
    assert "no store file" in capsys.readouterr().err


def test_query_batch_with_process_backend(capsys):
    code = main(
        ["query", "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)",
         "--batch", "--backend", "processes", "--workers", "2"]
    )
    assert code == 0
    assert "COUNT" in capsys.readouterr().out


def test_query_single_with_backend_routes_through_service(capsys):
    code = main(
        ["query", "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)",
         "--backend", "processes", "--workers", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    # a requested backend must not be silently ignored: the serving-layer
    # batch path (which honours it) prints its batch-time summary
    assert "batch time" in out


def test_query_workers_without_process_backend_is_an_error(capsys):
    """Only ``--backend processes`` has a pool for ``--workers`` to size;
    alone it must fail, not run the cooperative backend without it."""
    code = main(
        ["query", "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)",
         "--workers", "2"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "only the processes backend" in captured.err
    assert "batch time" not in captured.out


def test_query_batch_cooperative_backend_with_workers_is_an_error(capsys):
    code = main(
        ["query", "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)",
         "--batch", "--backend", "cooperative", "--workers", "2"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "only the processes backend" in captured.err
    assert "batch time" not in captured.out


def test_backend_choices_are_the_service_backends(capsys):
    """``--backend`` offers exactly the service's backends; any other name
    is a usage error that lists them."""
    from repro.core.service import BACKENDS

    with pytest.raises(SystemExit) as exit_info:
        main(["query", "COUNT(*) MATCH (Germany:Country)-[product]->(x:Automobile)",
              "--backend", "quantum"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'quantum'" in err
    assert f"choose from {', '.join(map(repr, BACKENDS))}" in err


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


def test_serve_workers_without_process_backend_is_an_error(monkeypatch, capsys):
    """``serve`` shares ``query``'s rule: no query is read, none served."""
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(f"{_SERVE_AQL}\n"))
    code = main(["serve", "--error-bound", "0.2", "--workers", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "only the processes backend" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# serve --http: the full CLI -> HTTP -> SSE -> shutdown path
# ---------------------------------------------------------------------------
def test_serve_http_end_to_end(monkeypatch, capsys):
    from repro.server import ReproClient

    observed: dict = {}

    def drive(runner):
        client = ReproClient(*runner.address)
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
