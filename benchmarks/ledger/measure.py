"""One run of one workload: set-up, timed passes, metrics and checks.

A run is either untraced (the end-to-end metrics) or traced (the
per-layer metrics): timings always come from passes without spans, and
the traced pass runs after an untraced one in the same process so the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats.mstats import hdquantiles

from benchmarks.ledger import inputs, layers
from benchmarks.ledger.hostspeed import SpeedProbe
from benchmarks.ledger.spans import since
from benchmarks.ledger.workloads import HTTP_PRESET, WORKLOADS

#: gross-error guard: the median relative error of guaranteed queries
#: against exact tau-GT; a healthy engine sits well under the 1% bound
MAX_REL_ERROR_P50 = 0.05


@dataclass(frozen=True)
class Profile:
    """The size of a run; ``--smoke`` swaps the whole profile."""

    smoke: bool
    scale: float
    presets: tuple[str, ...]
    #: at most this many operations per pass (None: the whole pass)
    op_cap: int | None
    #: keep adding passes until a window has at least this many operations
    min_ops: int


FULL = Profile(False, inputs.FULL_SCALE, inputs.PRESETS, None, 1)
SMOKE = Profile(True, inputs.SMOKE_SCALE, ("dbpedia-like",), 12, 8)

#: operations the determinism check re-executes on a blocking engine: in a
#: full-ledger window, and in a ``--seconds`` window, which a
#: BENCHMARK.json session repeats 22 times per workload (a smoke window
#: checks as many as it must hold, ``SMOKE.min_ops``)
CHECK_OPS_LEDGER = 20
CHECK_OPS_RUN = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "queries_per_s": "1/s",
    "draws_per_query": "count",
    "rel_error_p50": "share",
    "ci_cover_share": "share",
    "eb_met_share": "share",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# Windows
# ----------------------------------------------------------------------
#: what ``run_seconds`` in BENCHMARK.json says, and the passes each
#: workload runs when asked for that long.  The count is fixed before the
#: run: a window that stopped on the clock would hold 1 pass on a slow day
#: and 2 on a fast one, and every metric would shift with the count.  It
#: is what each workload needs to be steady on the reference host, not an
#: equal share of the seconds.  A pass takes about 7 / 1.4 / 10 / 5 s
#: there, so the windows are about 14 / 11 / 20 / 30 s.  ``http_mixed``
#: gets the most: over ten runs the quartiles of its p90 lay 14% apart
#: with 4 passes (and 20-28% on a busier day), 4-9% with 5 to 8.
#: ``adhoc_avg`` gets 2: its heaviest queries draw index matrices of tens
#: of MB, and how fast a process does that differs by 10% from one launch
#: to the next whatever the pass count.  All 92 runs of a BENCHMARK.json
#: session must end within 3420 s; these counts take about three quarters
#: of it.
RUN_SECONDS = 20.0
PASSES_PER_RUN = {
    "adhoc_avg": 2,
    "dashboard_refresh": 8,
    "cold_shapes": 2,
    "http_mixed": 6,
}


def passes_for(name: str, seconds: float) -> int:
    """``seconds`` as a whole number of passes, at least one."""
    return max(1, round(PASSES_PER_RUN[name] * seconds / RUN_SECONDS))


def run_window(
    workload, passes: int, min_ops: int, *, repeat: bool
) -> tuple[list[dict], list[float]]:
    """Whole passes only: ``(operations, wall seconds of each pass)``.

    Every pass submits the same operations in its own seeded order.
    With ``repeat`` they also run on the same engine seeds (draw pass 1;
    pass 0 is the warm-up), so every pass is the same work and an
    operation's samples differ by the host alone.  Without it pass ``k``
    draws on seeds of its own, which is what the traced run needs: there
    a seed identifies its query among the spans.
    ``min_ops`` adds passes until the window holds that many operations.
    Each settled operation also gets its latency at reference host speed
    (see :mod:`benchmarks.ledger.hostspeed`).
    """
    operations: list[dict] = []
    walls: list[float] = []
    while len(walls) < passes or len(operations) < min_ops:
        pass_no = 1 + len(walls)
        started = time.perf_counter()
        done = workload.run_pass(pass_no, 1 if repeat else pass_no)
        walls.append(time.perf_counter() - started)
        workload.probe.tick()  # close the bracket around the last operation
        for op in done:
            op["pass"] = len(walls) - 1
            if op["ok"]:
                op["at_reference_s"] = op["latency_s"] / workload.probe.slowdown(
                    op["started"], op["ended"]
                )
        operations.extend(done)
    return operations, walls


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def percentiles(samples: list[float]) -> tuple[float, float]:
    """Harrell-Davis estimates of the median and the 90th percentile.

    A workload has 18 to 61 distinct operations whose latencies lie 10-20%
    apart, so a percentile interpolated between two order statistics jumps
    by that much whenever one slow sample changes rank (p90 of
    ``adhoc_avg`` spread 20% over ten runs).  Harrell-Davis weights every
    order statistic, peaked at the percentile; on the same samples the
    spread fell from 8-10% to under 3%.
    """
    if len(samples) < 2:
        return samples[0], samples[0]
    p50, p90 = hdquantiles(np.asarray(samples), prob=(0.5, 0.9))
    return float(p50), float(p90)


def end_to_end(
    operations, truths, setup_s, peak_rss_mb, sample: str = "at_reference_s"
) -> dict[str, float]:
    """The end-to-end metrics of one timed window.

    The reference host has slow phases of seconds at a time (a fixed
    Python loop takes 75 to 135 ms), so one latency sample per operation
    says more about the host than about the program.  Every distinct
    operation (one query, one hub's batch or one pair) is therefore run
    once per pass, on the same engine seeds every time, and is counted at
    the median of its samples (the lower of the middle two when there is
    no middle one, which drops a pre-empted sample even from two);
    percentiles are taken over those.  The median, not the fastest: a
    sample at reference speed is a quotient of two noisy timings, so it
    errs both ways, and the fastest of more passes only finds the probe
    that read most too long (over ten runs the quartiles of
    ``dashboard_refresh`` lay 27% apart with the fastest of 16 passes and
    6% with their median).
    Each workload has one operation in flight at a time, so throughput
    follows from the same samples: queries asked / time they took.
    """
    settled = [op for op in operations if op["ok"]]
    samples: dict[tuple, list[float]] = {}
    for op in settled:
        samples.setdefault(tuple(op["indices"]), []).append(op[sample])
    typical = {
        key: statistics.median_low(values) for key, values in samples.items()
    }
    p50, p90 = percentiles([seconds * 1e3 for seconds in typical.values()])
    guaranteed = [
        outcome["values"] | {"truth": truths[outcome["index"]]}
        for op in settled
        for outcome in op["outcomes"]
        if outcome["guaranteed"]
    ]
    errors = [abs(g["estimate"] - g["truth"]) for g in guaranteed]
    return {
        "setup_s": setup_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "queries_per_s": sum(map(len, typical)) / sum(typical.values()),
        "draws_per_query": statistics.fmean(g["total_draws"] for g in guaranteed),
        "rel_error_p50": statistics.median(
            error / abs(g["truth"]) for error, g in zip(errors, guaranteed)
        ),
        "ci_cover_share": statistics.fmean(
            error <= g["moe"] for error, g in zip(errors, guaranteed)
        ),
        "eb_met_share": statistics.fmean(g["converged"] for g in guaranteed),
        "peak_rss_mb": peak_rss_mb,
    }


def pass_spread(operations, passes: int, truths) -> dict[str, float]:
    """Each metric's own spread inside one window: the distance between
    the quartiles of its per-pass values, as a share of their median.
    ``--compare`` calls a difference unresolved where this exceeds the bound."""
    if passes < 2:
        return {}
    per_pass = [
        end_to_end(
            [op for op in operations if op["pass"] == number], truths, 0.0, 0.0
        )
        for number in range(passes)
    ]
    spread = {}
    for name in per_pass[0]:
        values = [metrics[name] for metrics in per_pass]
        low, middle, high = statistics.quantiles(values, n=4)
        if middle:
            spread[name] = (high - low) / abs(middle)
    return spread


# ----------------------------------------------------------------------
# Checks (all outside the timed windows)
# ----------------------------------------------------------------------
def check_determinism(workload, operations, specs, count: int) -> dict:
    """A seeded sample of settled operations against blocking ``execute``."""
    by_index = {spec.index: spec for spec in specs}
    settled = [op for op in operations if op["ok"]]
    sample = random.Random(f"{workload.seeds.order}/check").sample(
        settled, min(count, len(settled))
    )
    mismatches = []
    try:
        for op in sample:
            for outcome in op["outcomes"]:
                spec = by_index[outcome["index"]]
                if workload.reference(spec, outcome["seed"]) != outcome["values"]:
                    mismatches.append({"qid": spec.qid, "seed": outcome["seed"]})
    finally:
        workload.close_reference()
    return {"operations": len(sample), "mismatches": mismatches}


def check_builds(workload, operations, builds_in_window: int) -> dict:
    """Warm windows build no plan; every cold operation builds at least one."""
    if workload.expects_builds:
        starved = [op["indices"] for op in operations if op["ok"] and op["builds"] < 1]
        return {"builds": builds_in_window, "ok": not starved}
    return {"builds": builds_in_window, "ok": builds_in_window == 0}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(
    name: str,
    seeds: inputs.Seeds,
    *,
    passes: int,
    check_ops: int,
    trace: bool,
    profile: Profile,
    import_s: float,
    out_dir: Path,
) -> dict:
    """Run workload ``name`` once and return the full detail record."""
    probe = SpeedProbe()
    probe.tick()
    imported = time.perf_counter()
    import_s /= probe.slowdown(imported - import_s, imported)
    presets = (HTTP_PRESET,) if name == "http_mixed" else profile.presets
    specs = inputs.generate(presets, profile.scale)
    inputs.forget_bundles()  # inputs are made; set-up rebuilds the graphs
    truths = {spec.index: spec.truth for spec in specs}
    workload = WORKLOADS[name](specs, seeds, profile, probe)
    try:
        probe.tick()
        started = time.perf_counter()
        workload.setup()
        ended = time.perf_counter()
        probe.tick()
        setup_s = import_s + (ended - started) / probe.slowdown(started, ended)
        if trace:
            detail = _traced(workload, specs, profile, out_dir)
        else:
            detail = _untraced(
                workload, specs, truths, passes, profile, check_ops, setup_s
            )
    finally:
        workload.close()
    operations = detail.pop("operations")
    failures = [op["error"] for op in operations if not op["ok"]]
    detail.update(
        workload=name,
        seed=seeds.order,
        draw_seed=seeds.draws,
        trace=trace,
        smoke=profile.smoke,
        scale=profile.scale,
        attempted=len(operations),
        failed=len(failures),
        fail_share=len(failures) / len(operations),
        samples=len(operations) - len(failures),
        failures=failures[:5],
        correct=all(check["ok"] for check in detail["checks"].values()),
    )
    return detail


def _untraced(workload, specs, truths, passes, profile, check_ops, setup_s) -> dict:
    builds = workload.plan_builds()
    operations, walls = run_window(workload, passes, profile.min_ops, repeat=True)
    builds = workload.plan_builds() - builds
    peak_rss_mb = workload.peak_rss_mb()
    metrics = end_to_end(operations, truths, setup_s, peak_rss_mb)
    determinism = check_determinism(workload, operations, specs, check_ops)
    determinism["ok"] = not determinism["mismatches"]
    return {
        "operations": operations,
        "metrics": _with_units(metrics, END_TO_END_UNITS),
        "raw_wall_clock": end_to_end(
            operations, truths, setup_s, peak_rss_mb, "latency_s"
        ),
        "spread": pass_spread(operations, len(walls), truths),
        "passes": len(walls),
        "timed_wall_s": sum(walls),
        "checks": {
            "determinism": determinism,
            "plan_builds": check_builds(workload, operations, builds),
            "accuracy": {
                "rel_error_p50": metrics["rel_error_p50"],
                "ok": metrics["rel_error_p50"] <= MAX_REL_ERROR_P50,
            },
        },
    }


def _traced(workload, specs, profile, out_dir: Path) -> dict:
    # the same window untraced first: the base the tracing overhead is
    # read against
    plain, plain_walls = run_window(workload, 1, profile.min_ops, repeat=False)
    workload.start_tracing()
    builds = workload.plan_builds()
    counters = workload.server_counters()
    window_started = time.perf_counter()
    operations, walls = run_window(
        workload, len(plain_walls), profile.min_ops, repeat=False
    )
    builds = workload.plan_builds() - builds
    health = workload.health()
    server = workload.server_metrics(operations, counters)
    trace = since(workload.stop_tracing(), window_started)

    queries = sum(len(op["indices"]) for op in operations)
    metrics, obs_gaps = layers.layer_metrics(
        trace, operations, queries=queries, plan_builds=builds
    )
    metrics["query.parse_us"] = layers.parse_us([spec.query for spec in specs])
    metrics["service.sheds"] = float(health["sheds"])
    metrics["service.deadline_expiries"] = float(health["deadline_expiries"])
    metrics.update({f"server.{key}": value for key, value in server.items()})
    metrics["trace.overhead_share"] = (
        _reference_seconds(operations) / _reference_seconds(plain) - 1.0
    )
    if server["requests"]:
        obs_gaps.append(
            {"missing": "repro_server http error counter on /metrics; "
             "server.http_errors counts the failures the clients saw"}
        )
    (out_dir / f"trace_{workload.name}.json").write_text(json.dumps(trace))
    csr_builds = metrics.get("kg.csr_builds", 0.0)
    return {
        "operations": operations,
        "metrics": _with_units(metrics, layers.PER_LAYER_UNITS),
        "passes": len(walls),
        "timed_wall_s": sum(walls),
        "untraced": trace["untraced"],
        "obs_gaps": obs_gaps,
        "checks": {
            "plan_builds": check_builds(workload, operations, builds),
            "csr_builds": {"builds": csr_builds, "ok": csr_builds == 0},
        },
    }


def _reference_seconds(operations: list[dict]) -> float:
    return sum(op["at_reference_s"] for op in operations if op["ok"])


def _with_units(metrics: dict[str, float], units: dict[str, str]) -> dict:
    """``name -> {value, unit}`` in the declared order; a metric whose
    span target no longer resolves is left out."""
    return {
        name: {"value": float(metrics[name]), "unit": unit}
        for name, unit in units.items()
        if name in metrics and math.isfinite(metrics[name])
    }
