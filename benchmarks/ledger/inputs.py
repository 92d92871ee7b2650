"""Benchmark inputs: the three graphs, their 96 queries, seeds and tau-GT.

The graphs are the stored data and stay fixed (dataset seed 0).  The
workload seed decides the order every pass asks its operations in; the
draw seed decides the engine seed of every query, that is, how much work
each query is (a query converges in 6 rounds on one engine seed and in 9
on another, which moves a 35-query median by 17%).  ``BENCHMARK.json``
runs hold the draw seed at 0, so runs on different workload seeds time
the same work in a different order; the full ledger sets both from
``--seed``, so a claim can be checked on draws it was not tuned on.
The program only ever receives the generated queries and seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro import EngineConfig, format_query, parse_query
from repro.baselines.ssb import SemanticSimilarityBaseline
from repro.datasets import ALL_PRESETS, guaranteed_queries, standard_workload

PRESETS = ("dbpedia-like", "freebase-like", "yago2-like")
DATASET_SEED = 0
FULL_SCALE = 3.0
SMOKE_SCALE = 1.0
ERROR_BOUND = 0.01
CONFIDENCE = 0.95

#: tau-GT is exact and depends only on the fixed graphs, so it is computed
#: once per checkout (about 10 s) and reread by every later run
CACHE_DIR = Path(__file__).resolve().parent / ".cache"


@dataclass(frozen=True)
class Seeds:
    """``order`` shuffles each pass; ``draws`` seeds every query's engine."""

    order: int
    draws: int


@dataclass(frozen=True)
class QuerySpec:
    """One workload query plus what the benchmark knows about it."""

    index: int
    preset: str
    qid: str
    shape: str
    function: str
    #: the query as its AQL text states it (see :func:`generate`)
    query: object
    aql: str
    hub: str
    #: AVG without GROUP-BY: the S3 bootstrap path
    plain_avg: bool
    #: COUNT/SUM/AVG without GROUP-BY: carries a Theorem-2 guarantee
    guaranteed: bool
    #: exact tau-GT (None where the query has no guarantee to check)
    truth: float | None


def load_bundle(preset: str, scale: float):
    """The preset's bundle over the fixed dataset seed."""
    return ALL_PRESETS[preset](seed=DATASET_SEED, scale=scale)


def forget_bundles() -> None:
    """Drop the memoised bundles so the next set-up rebuilds the graphs."""
    for preset in ALL_PRESETS.values():
        preset.cache_clear()


def _ground_truth(preset: str, scale: float, bundle, queries) -> dict[str, float]:
    path = CACHE_DIR / f"tau_gt-{preset}-seed{DATASET_SEED}-scale{scale}.json"
    wanted = [query.qid for query in queries]
    if path.exists():
        cached = json.loads(path.read_text())
        if sorted(cached) == sorted(wanted):
            return cached
    config = EngineConfig()
    oracle = SemanticSimilarityBaseline(
        bundle.kg, bundle.space(), tau=config.tau, n_bound=config.n_bound
    )
    truths = {
        query.qid: oracle.ground_truth(
            parse_query(format_query(query.aggregate_query))
        ).value
        for query in queries
    }
    CACHE_DIR.mkdir(exist_ok=True)
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps(truths))
    scratch.replace(path)
    return truths


def generate(presets: tuple[str, ...], scale: float) -> list[QuerySpec]:
    """``standard_workload`` of each preset, in a fixed canonical order.

    Every query is taken through its AQL text once: AQL prints filter
    bounds to six significant digits, and the in-process workloads, the
    wire workload and tau-GT must all mean the same query.
    """
    specs: list[QuerySpec] = []
    for preset in presets:
        bundle = load_bundle(preset, scale)
        workload = standard_workload(bundle)
        truths = _ground_truth(preset, scale, bundle, guaranteed_queries(workload))
        for query in workload:
            aql = format_query(query.aggregate_query)
            aggregate = parse_query(aql)
            grouped = aggregate.group_by is not None
            specs.append(
                QuerySpec(
                    index=len(specs),
                    preset=preset,
                    qid=query.qid,
                    shape=query.shape.value,
                    function=query.function.value,
                    query=aggregate,
                    aql=aql,
                    hub=query.hub_keys[0],
                    plain_avg=query.function.value == "AVG" and not grouped,
                    guaranteed=query.function.has_guarantee and not grouped,
                    truth=truths.get(query.qid),
                )
            )
    return specs


def query_seed(seeds: Seeds, draw_pass: int, index: int) -> int:
    """The engine seed of query ``index`` on draw pass ``draw_pass``.  The
    passes of a traced window each draw on their own, so there a seed also
    identifies its query among the spans."""
    return (seeds.draws * 1000 + draw_pass) * 1000 + index


def pass_order(seeds: Seeds, workload: str, pass_no: int, items: list) -> list:
    """The seeded shuffle every pass submits its operations in."""
    ordered = list(items)
    random.Random(f"{seeds.order}/{workload}/{pass_no}").shuffle(ordered)
    return ordered
