"""``--compare A.json B.json``: two ledger reports against the bounds.

Each workload x end-to-end metric pair is marked ``ok``, ``worse`` (B is
worse than A by more than the recorded bound) or ``unresolved`` (the
metric's own spread inside either report, taken between the quartiles of
its per-pass values, is wider than the bound, so a difference of that
size cannot be told from noise).  Exits 1 if any pair is ``worse``.
"""

from __future__ import annotations

import json
from pathlib import Path


def verdict(a: float, b: float, better: str, bound: float, spread: float) -> str:
    if spread > bound:
        return "unresolved"
    worse_by = (b - a) / abs(a) if a else 0.0
    if better == "higher":
        worse_by = -worse_by
    return "worse" if worse_by > bound else "ok"


def compare(path_a: Path, path_b: Path) -> int:
    report_a = json.loads(path_a.read_text())
    report_b = json.loads(path_b.read_text())
    bounds = report_a["bounds"]
    print(f"A = {path_a} (seed {report_a['seed']}, {report_a['host']['git_commit'][:12]})")
    print(f"B = {path_b} (seed {report_b['seed']}, {report_b['host']['git_commit'][:12]})")
    print(f"{'workload':18s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'delta':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    any_worse = False
    for name, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:18s} missing from B")
            any_worse = True
            continue
        for metric, limits in bounds.items():
            a = entry_a["end_to_end"][metric]["value"]
            b = entry_b["end_to_end"][metric]["value"]
            spread = max(
                entry_a["spread"].get(metric, 0.0), entry_b["spread"].get(metric, 0.0)
            )
            outcome = verdict(a, b, limits["better"], limits["bound"], spread)
            any_worse = any_worse or outcome == "worse"
            delta = (b - a) / abs(a) if a else 0.0
            print(f"{name:18s} {metric:16s} {a:12.5g} {b:12.5g} {delta:+8.1%} "
                  f"{limits['bound']:6.0%} {spread:7.1%}  {outcome}")
        # any rise in the share of failed operations is a regression
        a, b = entry_a["fail_share"], entry_b["fail_share"]
        outcome = "worse" if b > a else "ok"
        any_worse = any_worse or outcome == "worse"
        print(f"{name:18s} {'fail_share':16s} {a:12.5g} {b:12.5g} "
              f"{b - a:+8.4f} {'0':>6s} {'':7s}  {outcome}")
    return 1 if any_worse else 0
