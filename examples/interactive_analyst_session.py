#!/usr/bin/env python
"""Interactive error-bound refinement (paper §IV-C, Fig. 6(a)).

An analyst starts with a loose 5% error bound on a SUM query — the paper's
Q6 analogue, "total box office of the movies directed by Steven Spielberg" —
and tightens it step by step to 1%.  Each tightening reuses every draw
collected so far; Eq. 12 sizes only the missing increment, so later steps
cost milliseconds instead of a fresh execution.

The production engine never samples: its first round is the census —
the exact SUM, MoE 0, no draws — and every tighter bound after it is
free.  To show refinement, the example runs the paper's sampling loop
instead, on :func:`repro.bench.harness.sampled_engine` (an engine whose
executor, :class:`repro.bench.sampled.SampledExecutor`, always
samples).

Refinement is now handle-native: ``service.submit`` returns a
:class:`QueryHandle` and every ``handle.refine(eb).result()`` runs one
incremental Theorem-2 pass over the same live sampling state, with
``handle.progress()`` exposing the anytime trace across all steps.  The
legacy :class:`InteractiveSession` wrapper (now a thin shim over exactly
this handle API) is shown once at the end.

Run it with::

    python examples/interactive_analyst_session.py
"""

from __future__ import annotations

import time

from repro import (
    AggregateFunction,
    AggregateQuery,
    EngineConfig,
    InteractiveSession,
    QueryGraph,
)
from repro.baselines.ssb import tau_ground_truth
from repro.bench.harness import sampled_engine
from repro.datasets import freebase_like


def main() -> None:
    bundle = freebase_like(seed=3)
    q6 = AggregateQuery(
        query=QueryGraph.simple(
            "Steven_Spielberg", ["Person"], "director", ["Film"]
        ),
        function=AggregateFunction.SUM,
        attribute="box_office",
    )
    truth = tau_ground_truth(bundle.kg, bundle.space(), q6)
    print("query:", q6.describe())
    print(f"tau-GT: {truth.value:,.0f}\n")

    engine = sampled_engine(bundle.kg, bundle.embedding, EngineConfig(seed=3))
    with engine.service as service:
        # start=False: S1 and the initial draws run, but no rounds — the
        # analyst decides each bound interactively via refine()
        handle = service.submit(q6, seed=3, start=False)

        print("eb      estimate             MoE             time (ms)  +draws  error")
        for error_bound in (0.05, 0.04, 0.03, 0.02, 0.01):
            draws_before = handle.total_draws
            started = time.perf_counter()
            result = handle.refine(error_bound).result()
            elapsed_ms = (time.perf_counter() - started) * 1e3
            error = result.relative_error(truth.value)
            print(
                f"{error_bound:>4.0%}  {result.value:>18,.0f}  {result.moe:>14,.0f}"
                f"  {elapsed_ms:>9,.1f}  {handle.total_draws - draws_before:>6}"
                f"  {error:>6.2%}"
            )

        final = result
        print(
            f"\nanytime trace: {len(handle.progress())} rounds across all "
            "refinements (one shared sampling state)"
        )
        print(f"final: {final.describe()}")
        print(f"relative error vs tau-GT: {final.relative_error(truth.value):.2%}")

    # --- legacy API, shown once: the InteractiveSession wrapper drives the
    # same handle machinery and adds the free-loosening bookkeeping
    engine = sampled_engine(bundle.kg, bundle.embedding, EngineConfig(seed=3))
    session = InteractiveSession(engine, q6, seed=3)
    session.refine(0.02)
    step = session.refine(0.03)  # loosening is free: CI already satisfies it
    print(
        f"\nlegacy InteractiveSession: loosen 2% -> 3% cost "
        f"{step.incremental_seconds * 1e3:,.1f} ms and "
        f"{step.additional_draws} draws (state is reused)"
    )


if __name__ == "__main__":
    main()
