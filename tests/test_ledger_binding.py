"""The ledger's span targets against the executor's one round lifecycle.

``benchmarks/ledger/layers.py`` binds ``QueryExecutor.{step,grow,finalise}``
and their six ``_grouped`` / ``_extreme`` alias names by ``getattr`` and
rebinds the class attributes.  The ledger's own smoke test (a 45 s
subprocess) only sees that each metric is present; the two invariants its
``executor.rounds`` and ``executor.step_self_ms`` rest on are checked
here in-process: every target still resolves, and each round fires
exactly one ``executor.step*`` span — each growth one ``executor.grow*``
span — whatever the query's kind.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import (
    AggregateFunction,
    AggregateQuery,
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


def test_each_round_fires_one_step_span_and_each_growth_one_grow_span(
    toy_world_factory, sampled_service
):
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
    config = EngineConfig(
        seed=7, max_rounds=8, error_bound=0.001, min_group_draws=1
    )
    shared_plan_cache().clear()
    tracer = Tracer()
    # a sampled run: a census-first one takes one step and no growth
    with sampled_service(world.kg, world.embedding, config) as service:
        # like the ledger: the class is rebound after the executor exists
        tracer.install(TARGETS)
        try:
            results = [
                handle.result(timeout=60.0)
                for handle in service.submit_batch(workload)
            ]
        finally:
            tracer.uninstall()
    assert tracer.untraced == []
    for (_query, seed), result in zip(workload, results):
        fired = [span.name for span in tracer.spans if span.query_id == seed]

        def count(prefix: str) -> int:
            return sum(name.startswith(f"executor.{prefix}") for name in fired)

        assert len(result.rounds) >= 2
        assert count("step") == len(result.rounds)
        assert count("grow") == len(result.rounds) - 1
        assert count("finalise") == 1
