"""Command line of the ledger.

``--workload W --seed N --seconds T --trace 0|1``
    one run of one workload; the last line of stdout is one JSON object
    (``correct``, ``attempted``, ``failed``, ``metrics``).  This is the
    form ``BENCHMARK.json`` names.
no ``--workload``
    the full ledger: every workload, untraced then traced, each in a
    fresh interpreter, with fixed pass counts; prints every metric by
    name with its unit, writes ``DIR/report.json`` and exits non-zero if
    a check failed.
``--compare A.json B.json``
    a workload x metric table of two reports against the recorded bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata, util
from pathlib import Path

_LEDGER_DIR = Path(__file__).resolve().parent
_ROOT = _LEDGER_DIR.parents[1]
WORKLOAD_NAMES = ("adhoc_avg", "dashboard_refresh", "cold_shapes", "http_mixed")
#: the full ledger's windows: at least 30 s and 100 operations each on the
#: reference host (2 cores); fixed counts make the draw counts repeat exactly
FULL_PASSES = {
    "adhoc_avg": 5, "dashboard_refresh": 25, "cold_shapes": 3, "http_mixed": 7,
}
#: a child run that has not ended by then is killed and counted as failed
RUN_TIMEOUT_S = 900.0


def main(argv: list[str], *, started: float) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="the workload seed: the order of every pass")
    parser.add_argument("--draw-seed", type=int, default=0,
                        help="seeds every query's engine; the full ledger "
                        "sets it to --seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="window length; turned into whole passes at "
                        "the reference host's speed")
    parser.add_argument("--passes", type=int, default=None,
                        help="the number of passes itself (the full ledger)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=_LEDGER_DIR / "out")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        from benchmarks.ledger.compare import compare

        return compare(*args.compare)
    if args.workload:
        return _one_run(args, started)
    return _full_ledger(args)


# ----------------------------------------------------------------------
# One run (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def _one_run(args, started: float) -> int:
    # importing the run's modules imports the program under test, and that
    # is the first part of set-up time
    from benchmarks.ledger import measure
    from benchmarks.ledger.inputs import Seeds

    import_s = time.perf_counter() - started
    args.out.mkdir(parents=True, exist_ok=True)
    detail = measure.run(
        args.workload,
        Seeds(order=args.seed, draws=args.draw_seed),
        passes=args.passes or measure.passes_for(args.workload, args.seconds),
        check_ops=(
            measure.SMOKE.min_ops if args.smoke
            else measure.CHECK_OPS_LEDGER if args.passes
            else measure.CHECK_OPS_RUN
        ),
        trace=bool(args.trace),
        profile=measure.SMOKE if args.smoke else measure.FULL,
        import_s=import_s,
        out_dir=args.out,
    )
    path = args.out / f"run_{args.workload}_trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1))

    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    metrics = {
        # a metric whose span target no longer resolves is dropped from
        # the report and listed under ``untraced``; this line still names it
        name: detail["metrics"].get(name, {"value": 0.0, "unit": unit})
        for name, unit in declared.items()
    }
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0


def _benchmark_json() -> dict:
    return json.loads((_ROOT / "BENCHMARK.json").read_text())


def _declared_metrics(section: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in _benchmark_json()[section]}


# ----------------------------------------------------------------------
# The full ledger
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "numba": util.find_spec("numba") is not None,
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
    }


def _child(args, name: str, trace: int) -> dict | None:
    """One workload run in a fresh interpreter; None if it did not finish."""
    command = [
        sys.executable, str(_LEDGER_DIR / "run.py"),
        "--workload", name, "--seed", str(args.seed),
        "--draw-seed", str(args.seed), "--trace", str(trace),
        "--out", str(args.out),
    ]
    if args.smoke:
        command += ["--smoke", "--passes", "1"]
    else:
        command += ["--passes", str(FULL_PASSES[name])]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{name} trace={trace}: no result after {RUN_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}",
              file=sys.stderr)
        return None
    return json.loads((args.out / f"run_{name}_trace{trace}.json").read_text())


def _full_ledger(args) -> int:
    benchmark = _benchmark_json()
    report = {
        "schema": 1,
        "smoke": args.smoke,
        "seed": args.seed,
        "host": host_fingerprint(),
        "bounds": {
            entry["name"]: {"better": entry["better"], "bound": entry["bound"]}
            for entry in benchmark["end_to_end"]
        },
        "workloads": {},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in WORKLOAD_NAMES:
        plain = _child(args, name, 0)
        traced = _child(args, name, 1)
        if plain is None or traced is None:
            ok = False
            continue
        entry = report["workloads"][name] = {
            "end_to_end": plain["metrics"],
            "spread": plain["spread"],
            "fail_share": plain["fail_share"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failures": plain["failures"] + traced["failures"],
            "samples": plain["samples"],
            "passes": plain["passes"],
            "timed_wall_s": plain["timed_wall_s"],
            "per_layer": traced["metrics"],
            "traced_passes": traced["passes"],
            "traced_wall_s": traced["timed_wall_s"],
            "traced_failed": traced["failed"],
            "untraced": traced["untraced"],
            "obs_gaps": traced["obs_gaps"],
            "checks": {**traced["checks"], **plain["checks"]},
        }
        entry["ok"] = (
            plain["correct"] and traced["correct"]
            and plain["failed"] == 0 and traced["failed"] == 0
        )
        ok = ok and entry["ok"]
        _print_workload(name, entry)
    report["ok"] = ok
    path = args.out / "report.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"\nreport: {path}    checks: {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def _print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}: {entry['samples']} samples in {entry['passes']} passes, "
          f"{entry['timed_wall_s']:.1f} s timed ==")
    for section in ("end_to_end", "per_layer"):
        for metric, reading in entry[section].items():
            print(f"  {metric:32s} {reading['value']:14.4f} {reading['unit']}")
        if section == "end_to_end":
            print(f"  {'fail_share':32s} {entry['fail_share']:14.4f} share")
    for check, outcome in entry["checks"].items():
        print(f"  check {check:26s} {'ok' if outcome['ok'] else 'FAILED'}")
    if entry["untraced"]:
        print(f"  untraced: {', '.join(entry['untraced'])}")
    for gap in entry["obs_gaps"]:
        print(f"  obs gap: {json.dumps(gap)}")
