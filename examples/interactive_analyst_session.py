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

``service.submit`` returns a :class:`QueryHandle` and runs the first
bound; every later ``handle.refine(eb).result()`` runs one incremental
Theorem-2 pass over the same live sampling state, with
``handle.progress()`` exposing the anytime trace across all steps.

Run it with::

    python examples/interactive_analyst_session.py
"""

from __future__ import annotations

import time

from repro import AggregateFunction, AggregateQuery, QueryGraph
from repro.baselines.ssb import tau_ground_truth
from repro.bench.harness import sampled_engine
from repro.bench.sampled import PaperConfig
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

    engine = sampled_engine(bundle.kg, bundle.embedding, PaperConfig(seed=3))
    with engine.service as service:
        print("eb      estimate             MoE             time (ms)  +draws  error")
        handle = None
        for error_bound in (0.05, 0.04, 0.03, 0.02, 0.01):
            started = time.perf_counter()
            if handle is None:
                # the first bound starts the query: S1, the initial
                # sample, then rounds until Theorem 2 holds at 5%
                handle = service.submit(q6, seed=3, error_bound=error_bound)
                result = handle.result()
                added = result.total_draws - result.rounds[0].total_draws
            else:
                # each tighter bound reuses every draw made so far
                draws_before = handle.total_draws
                result = handle.refine(error_bound).result()
                added = handle.total_draws - draws_before
            elapsed_ms = (time.perf_counter() - started) * 1e3
            error = result.relative_error(truth.value)
            print(
                f"{error_bound:>4.0%}  {result.value:>18,.0f}  {result.moe:>14,.0f}"
                f"  {elapsed_ms:>9,.1f}  {added:>6}  {error:>6.2%}"
            )

        final = result
        print(
            f"\nanytime trace: {len(handle.progress())} rounds across all "
            "refinements (one shared sampling state)"
        )
        print(f"final: {final.describe()}")
        print(f"relative error vs tau-GT: {final.relative_error(truth.value):.2%}")


if __name__ == "__main__":
    main()
