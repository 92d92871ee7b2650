"""Tier-1 smoke run of the S4 serving benchmark.

Runs ``benchmarks/bench_perf_serving.py --smoke`` in-process (the script
verifies batch-vs-sequential result equality and the one-build-per-plan
invariant before timing anything) so serving regressions — diverging
results, duplicate plan builds or a vanished batching speedup — fail the
normal test pass without a separate CI system.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_perf_serving.py"


def _load_bench_module():
    specification = importlib.util.spec_from_file_location(
        "bench_perf_serving", BENCH_PATH
    )
    module = importlib.util.module_from_spec(specification)
    sys.modules[specification.name] = module
    specification.loader.exec_module(module)
    return module


def test_smoke_bench_runs_fast_and_reports_speedup(tmp_path):
    bench = _load_bench_module()
    output = tmp_path / "serving.json"
    started = time.perf_counter()
    exit_code = bench.main(["--smoke", "--output", str(output)])
    elapsed = time.perf_counter() - started
    assert exit_code == 0
    assert elapsed < 120.0, f"smoke bench took {elapsed:.1f}s, budget is 120s"

    report = json.loads(output.read_text())
    assert report["smoke"] is True
    assert report["equivalent"] is True
    assert report["batch_size"] == 8
    assert report["planner_builds_batch"] == report["distinct_components"]
    # The smoke run reports the speedup and puts no floor under it: eight
    # queries' cold plan builds are a few tens of ms, so the ratio sits
    # near 1 and a loaded machine tips it either way.  The checked-in full
    # run (BENCH_serving.json) documents the acceptance numbers.
    assert report["serving"]["speedup_vs_cold"] > 0.0
    # grouped + extreme queries interleave with plain aggregates: at
    # least one scheduler pass stepped rounds of several kinds, and a
    # multi-round extreme query spans several passes (the discriminator
    # that would fail under atomic one-pass slots)
    assert report["mixed"]["kinds"]["grouped"] >= 1
    assert report["mixed"]["kinds"]["extreme"] >= 1
    assert report["mixed"]["interleaved_passes"] >= 1
    assert report["mixed"]["extreme_passes"] >= 2
    # an injected worker crash recovered: the pool respawned, the lost
    # round replayed (or fell back in-process) and results stayed
    # byte-identical to sequential execution
    assert report["resilience"]["crash_equivalent"] is True
    assert report["resilience"]["respawns"] >= 1
    assert report["resilience"]["retries"] + report["resilience"][
        "local_fallbacks"
    ] >= 1


def test_checked_in_report_meets_acceptance():
    report = json.loads((REPO_ROOT / "BENCH_serving.json").read_text())
    assert report["smoke"] is False
    assert report["equivalent"] is True
    assert report["batch_size"] == 8
    assert report["planner_builds_batch"] == report["distinct_components"]
    assert report["serving"]["speedup_vs_cold"] >= 2.0
    assert report["mixed"]["interleaved_passes"] >= 1
    assert report["mixed"]["extreme_passes"] >= 2
    assert report["resilience"]["crash_equivalent"] is True
    assert report["resilience"]["respawns"] >= 1
