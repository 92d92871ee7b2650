#!/usr/bin/env python
"""Quickstart: the paper's running example (Figure 1/2).

"What is the average price of cars produced in Germany?" is answered two
ways on the DBpedia-flavoured synthetic knowledge graph:

1. exactly, with the Semantic Similarity Baseline (SSB, Algorithm 1) —
   slow but it defines the tau-relevant ground truth; and
2. approximately, through the serving API (Algorithm 2 behind an
   :class:`AggregateQueryService`): ``submit`` returns a query *handle*
   immediately, ``result()`` blocks for the guaranteed answer, and
   ``progress()`` exposes the anytime estimate + CI per round.

The legacy one-shot call — ``engine.execute(query)`` — is shown once at
the end; it is now a thin synchronous wrapper over the same service and
returns byte-identical results for a fixed seed.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro import (
    AggregateFunction,
    AggregateQuery,
    AggregateQueryService,
    ApproximateAggregateEngine,
    EngineConfig,
    QueryGraph,
)
from repro.baselines.ssb import tau_ground_truth
from repro.datasets import dbpedia_like


def main() -> None:
    # A seed-deterministic, schema-flexible KG standing in for DBpedia.
    bundle = dbpedia_like(seed=7)
    print(f"dataset: {bundle.name}")
    print(f"  nodes: {bundle.kg.num_nodes:,}   edges: {bundle.kg.num_edges:,}")

    # The Figure-2 query graph: (Germany:Country) -[product]-> (?:Automobile)
    query = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.AVG,
        attribute="price",
    )
    print(f"\nquery: {query.describe()}")

    # --- exact: SSB enumerates every candidate within 3 hops (Algorithm 1)
    started = time.perf_counter()
    truth = tau_ground_truth(bundle.kg, bundle.space(), query, tau=0.85)
    ssb_seconds = time.perf_counter() - started
    print(f"\nSSB (exact, Algorithm 1): {truth.value:,.2f}")
    print(f"  correct answers: {len(truth.answers)}   time: {ssb_seconds * 1e3:,.1f} ms")

    # --- approximate: submit to the serving layer, read the result handle
    config = EngineConfig(error_bound=0.01, confidence_level=0.95, seed=7)
    started = time.perf_counter()
    with AggregateQueryService(bundle.kg, bundle.embedding, config) as service:
        handle = service.submit(query)  # returns immediately
        result = handle.result()  # blocks until Theorem 2 holds
        engine_seconds = time.perf_counter() - started
        print(f"\nservice (approximate, Algorithm 2): {result.describe()}")
        print(f"  time: {engine_seconds * 1e3:,.1f} ms   status: {handle.status.value}")

        # --- the anytime view: estimate + CI per round, as in Table IX
        print("\nround  estimate        MoE        satisfied      ms")
        for trace in handle.progress():
            print(
                f"{trace.round_index:>5}  {trace.estimate:>12,.2f}  {trace.moe:>9,.2f}"
                f"  {trace.satisfied!s:<9} {trace.seconds * 1e3:>7,.1f}"
            )

    error = result.relative_error(truth.value)
    print(f"\nrelative error vs tau-GT: {error:.2%} (bound was 1%)")
    if ssb_seconds > 0:
        print(f"speedup over SSB: {ssb_seconds / engine_seconds:,.1f}x")
    print(
        "(at this toy scale SSB can win; `python -m repro experiment scaling`"
        " sweeps graph size and shows where sampling takes over)"
    )

    # --- legacy API: the blocking engine call, unchanged and equivalent
    engine = ApproximateAggregateEngine(bundle.kg, bundle.embedding, config=config)
    legacy = engine.execute(query)
    assert legacy.value == result.value  # same seed -> byte-identical
    print(f"\nlegacy engine.execute (same seed): {legacy.describe()}")


if __name__ == "__main__":
    main()
