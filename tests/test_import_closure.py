"""Production's import closure holds what a census runs, and nothing else.

A fresh interpreter imports every production entry point — ``repro``,
``repro.cli``, ``repro.server.app`` and ``repro.store`` — and answers a
COUNT and a chain COUNT on the toy world through
``AggregateQueryService``.  Afterwards none of the paper's sampling and
guarantee machinery may be loaded: no scipy, no networkx, no
``repro.bench`` (the figures), no ``repro.sampling`` (S1), no
``repro.estimation.accuracy`` (Theorem 2 and the BLB sizes), no
``repro.estimation.bootstrap`` (the BLB) and no
``repro.estimation.extreme`` (the EVT fit).  Each of them only loads
where a run draws or a figure is drawn, so ``repro serve`` and every CLI
call start without paying for them.  Nor may ``http.client`` or the
``email`` package it parses headers with: ``ReproClient`` speaks HTTP/1.1
through its own codec.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_TESTS = Path(__file__).resolve().parent
_SRC = _TESTS.parent / "src"

#: module-name prefixes production must not load; a prefix matches the
#: module itself and everything below it
_FORBIDDEN = (
    "scipy",
    "networkx",
    "repro.bench",
    "repro.sampling",
    "repro.estimation.accuracy",
    "repro.estimation.bootstrap",
    "repro.estimation.extreme",
    "http.client",
    "email",
)

_PROBE = """
import json
import sys

import repro
import repro.cli
import repro.server.app
import repro.store
from repro import AggregateQueryService, EngineConfig

from toy_world import build_toy_world

toy = build_toy_world()
with AggregateQueryService(toy.kg, toy.embedding, EngineConfig(seed=0)) as service:
    handles = [
        service.submit(query, seed=1)
        for query in (toy.count_query(), toy.chain_count_query())
    ]
    results = [handle.result(timeout=60.0) for handle in handles]
print(json.dumps({
    "values": [result.value for result in results],
    "stop_reasons": [result.stop_reason for result in results],
    "modules": sorted(sys.modules),
}))
"""


def _loaded(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def test_a_census_loads_neither_scipy_networkx_nor_the_paper_sampler():
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC), str(_TESTS), environment.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=environment,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    # the toy world's COUNT: its 60 correct cars; its chain COUNT: the 20
    # cars Germany's people designed
    assert report["stop_reasons"] == ["census", "census"]
    assert report["values"] == [60.0, 20.0]
    loaded = [
        module
        for module in report["modules"]
        if any(_loaded(module, prefix) for prefix in _FORBIDDEN)
    ]
    assert loaded == []
    # the probe did load what a census runs
    assert {"repro.core.executor", "repro.semantics.validation"} <= set(
        report["modules"]
    )
