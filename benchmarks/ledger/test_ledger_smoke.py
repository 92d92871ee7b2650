"""Tier-1 smoke of the ledger: ``python -m benchmarks.ledger --smoke``.

Runs the real command in a subprocess (the way CI and a person would), so
it needs none of the fixtures in ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_smoke_report_names_every_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["smoke"] is True and report["ok"] is True
    assert set(report["workloads"]) == {w["name"] for w in benchmark["workloads"]}
    for name, entry in report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            missing = {m["name"] for m in benchmark[section]} - set(entry[section])
            assert not missing, f"{name}: {section} lacks {sorted(missing)}"
        assert entry["fail_share"] == 0 and entry["traced_failed"] == 0
        assert entry["samples"] >= 8
        assert entry["checks"]["determinism"]["ok"]
        assert entry["checks"]["determinism"]["operations"] >= 8
        assert entry["untraced"] == [], f"{name}: span targets no longer resolve"
        assert (tmp_path / f"trace_{name}.json").exists()
