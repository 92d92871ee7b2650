"""Dump every ledger query's fixed-seed result as ``float.hex()`` JSON.

The wide bit-identity check for a change that must move no draw, verdict
or output byte: run this on a clean export of the parent and on the
change, then ``cmp`` the two files.  It covers what the ten golden cases
of ``test_golden_fixed_seed.py`` cannot — all 96 ledger queries of the
three presets, on the paths the ledger's workloads time::

    PYTHONPATH=src python tests/dump_fixed_seed.py --mode warm --scale 3 --out warm.json
    PYTHONPATH=src python tests/dump_fixed_seed.py --mode cold --scale 3 --out cold.json

Each run also prints the sha256 of the file it wrote, so two CI logs
compare without downloading either artifact.

``warm``
    one live service per graph; every plain AVG as a single ``submit``
    and the rest as one ``submit_batch`` per hub (so the scheduler's
    cross-query prewarm runs), at draw seeds 0 and 7.  The second seed
    runs on plans and verdict memos the first one warmed.
``cold``
    the 61 non-AVG queries, each on a fresh engine with a cleared plan
    cache, at draw seed 0.

Uses only the public surface (``repro`` exports, ``shared_plan_cache``)
and ``benchmarks.ledger.inputs``, so the same file runs on either tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from benchmarks.ledger import inputs  # noqa: E402
from repro import (  # noqa: E402
    AggregateQueryService,
    ApproximateAggregateEngine,
    EngineConfig,
)
from repro.core.plan import shared_plan_cache  # noqa: E402

WARM_DRAW_SEEDS = (0, 7)
COLD_DRAW_SEED = 0


def flatten(result) -> dict:
    """Value, MoE, every round, draws and per-group intervals, floats as hex."""
    record = {
        "converged": result.converged,
        "draws": result.total_draws,
        "rounds": [
            [
                trace.total_draws,
                trace.correct_draws,
                trace.estimate.hex(),
                trace.moe.hex(),
                trace.satisfied,
                trace.guaranteed,
            ]
            for trace in result.rounds
        ],
    }
    if hasattr(result, "groups"):
        record["groups"] = {
            float(key).hex(): flatten(group)
            for key, group in result.groups.items()
        }
    else:
        record["estimate"] = float(result.value).hex()
        record["moe"] = float(result.moe).hex()
        record["correct_draws"] = result.correct_draws
        record["distinct_answers"] = result.distinct_answers
    return record


def dump_warm(specs, scale: float) -> dict:
    """Single submits and per-hub batches on one live service per graph."""
    services = {}
    for preset in inputs.PRESETS:
        bundle = inputs.load_bundle(preset, scale)
        services[preset] = AggregateQueryService(bundle.kg, bundle.space())
    hubs: dict[tuple[str, str], list] = {}
    for spec in specs:
        if not spec.plain_avg:
            hubs.setdefault((spec.preset, spec.hub), []).append(spec)
    records = {}
    try:
        for draws in WARM_DRAW_SEEDS:
            seeds = inputs.Seeds(order=0, draws=draws)
            for spec in specs:
                if spec.plain_avg:
                    seed = inputs.query_seed(seeds, 0, spec.index)
                    handle = services[spec.preset].submit(spec.query, seed=seed)
                    records[f"{spec.qid}/draws{draws}"] = flatten(handle.result())
            for batch in hubs.values():
                handles = services[batch[0].preset].submit_batch(
                    [
                        (spec.query, inputs.query_seed(seeds, 0, spec.index))
                        for spec in batch
                    ]
                )
                for spec, handle in zip(batch, handles):
                    records[f"{spec.qid}/draws{draws}"] = flatten(handle.result())
    finally:
        for service in services.values():
            service.close()
    return records


def dump_cold(specs, scale: float) -> dict:
    """Every non-AVG query on a fresh engine with an empty plan cache."""
    seeds = inputs.Seeds(order=0, draws=COLD_DRAW_SEED)
    records = {}
    for spec in specs:
        if spec.plain_avg:
            continue
        bundle = inputs.load_bundle(spec.preset, scale)
        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(
            bundle.kg, bundle.embedding, EngineConfig(seed=0)
        )
        try:
            result = engine.execute(
                spec.aql, seed=inputs.query_seed(seeds, 0, spec.index)
            )
        finally:
            engine.service.close()
        records[f"{spec.qid}/draws{COLD_DRAW_SEED}"] = flatten(result)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("warm", "cold"), required=True)
    parser.add_argument("--scale", type=float, default=inputs.FULL_SCALE)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    specs = inputs.generate(inputs.PRESETS, args.scale)
    records = (dump_warm if args.mode == "warm" else dump_cold)(specs, args.scale)
    text = json.dumps(records, indent=1, sort_keys=True) + "\n"
    args.out.write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"wrote {len(records)} results to {args.out} sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
