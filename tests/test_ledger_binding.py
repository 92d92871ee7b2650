"""The ledger's span targets against the executor's one round lifecycle.

``benchmarks/ledger/layers.py`` binds ``QueryExecutor.{step,grow,finalise}``
and their six ``_grouped`` / ``_extreme`` alias names by ``getattr`` and
rebinds the class attributes.  The ledger's own smoke test (a 45 s
subprocess) only sees that each metric is present; the two invariants its
``executor.rounds`` and ``executor.step_self_ms`` rest on are checked
here in-process on the production executor, which the ledger measures:
every target still resolves, and each round fires exactly one
``executor.step*`` span — none ``executor.grow*``, as a census grows
nothing — whatever the query's kind, a refine's re-emitted round included.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import (
    AggregateFunction,
    AggregateQuery,
    AggregateQueryService,
    EngineConfig,
    GroupBy,
    QueryGraph,
)
from repro.core.plan import shared_plan_cache

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.ledger.layers import TARGETS  # noqa: E402
from benchmarks.ledger.spans import Tracer  # noqa: E402

_GRAPH = QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"])


def test_each_round_fires_one_step_span_and_no_grow_span(toy_world_factory):
    world = toy_world_factory()
    workload = [  # one query per kind; the draw seed is the ledger's query id
        (world.avg_query(), 11),
        (
            AggregateQuery(
                query=_GRAPH,
                function=AggregateFunction.COUNT,
                group_by=GroupBy("price", bin_width=1000.0),
            ),
            12,
        ),
        (
            AggregateQuery(
                query=_GRAPH, function=AggregateFunction.MAX, attribute="price"
            ),
            13,
        ),
    ]
    config = EngineConfig(seed=7, error_bound=0.001)
    shared_plan_cache().clear()
    tracer = Tracer()
    with AggregateQueryService(world.kg, world.embedding, config) as service:
        # like the ledger: the class is rebound after the executor exists
        tracer.install(TARGETS)
        try:
            handles = service.submit_batch(workload)
            results = [handle.result(timeout=60.0) for handle in handles]
            # a refine re-emits the census round: one more step, no growth
            refined = handles[0].refine(0.0001).result(timeout=60.0)
        finally:
            tracer.uninstall()
    assert tracer.untraced == []
    assert refined.stop_reason == "census" and len(refined.rounds) == 1
    for position, ((_query, seed), result) in enumerate(zip(workload, results)):
        fired = [span.name for span in tracer.spans if span.query_id == seed]

        def count(prefix: str) -> int:
            return sum(name.startswith(f"executor.{prefix}") for name in fired)

        runs = 2 if position == 0 else 1
        assert result.stop_reason == "census" and len(result.rounds) == 1
        assert count("step") == runs
        assert count("grow") == 0
        assert count("finalise") == runs
