"""Dump every ledger query's fixed-seed result as ``float.hex()`` JSON.

The wide bit-identity check for a change that must move no draw, verdict
or output byte: run this on a clean export of the parent and on the
change, then ``cmp`` the two files.  It covers what the ten golden cases
of ``test_golden_fixed_seed.py`` cannot — all 96 ledger queries of the
three presets, on the paths the ledger's workloads time::

    PYTHONPATH=src python tests/dump_fixed_seed.py --mode warm --scale 3 --out warm.json
    PYTHONPATH=src python tests/dump_fixed_seed.py --mode cold --scale 3 --out cold.json
    PYTHONPATH=src python tests/dump_fixed_seed.py --mode cold-batch --scale 3 --out cold-batch.json

Each run also prints the sha256 of the file it wrote, so two CI logs
compare without downloading either artifact.  With ``--check`` it also
prints the digest committed in ``tests/data/fixed_seed_dump_sha256.json``
for that mode and scale and exits 1 when the two differ: CI gates on the
scale-1 files, under the numpy / scipy pins of ``requirements-ci.txt``.  A
change meant to move fixed-seed results commits the new digests with it.

``warm``
    one live service per graph; every plain AVG as a single ``submit``
    and the rest as one ``submit_batch`` per hub (so queries of a hub
    validate against each other's verdict memos), at draw seeds 0 and 7.
    The second seed runs on plans and verdict memos the first one warmed.
``cold``
    the 61 non-AVG queries, each on a fresh engine with a cleared plan
    cache, at draw seed 0.
``cold-batch``
    the same 61 queries and seeds, one ``submit_batch`` per hub on a
    fresh service with a cleared plan cache: a hub's queries build and
    validate shared plans while interleaved.  The file must equal
    ``cold``'s byte for byte, so ``--check`` compares it with the
    ``cold`` digest.

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
#: the committed digests ``--check`` compares against, keyed "mode/scaleS"
DIGESTS = _ROOT / "tests" / "data" / "fixed_seed_dump_sha256.json"


def flatten(result) -> dict:
    """Value, MoE, every round, draws, why the run stopped and per-group
    intervals, floats as hex."""
    record = {
        "converged": result.converged,
        "stop_reason": result.stop_reason,
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


def hub_batches(specs) -> list[list]:
    """The non-AVG queries grouped per (preset, hub), in workload order."""
    hubs: dict[tuple[str, str], list] = {}
    for spec in specs:
        if not spec.plain_avg:
            hubs.setdefault((spec.preset, spec.hub), []).append(spec)
    return list(hubs.values())


def dump_warm(specs, scale: float) -> dict:
    """Single submits and per-hub batches on one live service per graph."""
    services = {}
    for preset in inputs.PRESETS:
        bundle = inputs.load_bundle(preset, scale)
        services[preset] = AggregateQueryService(bundle.kg, bundle.space())
    records = {}
    try:
        for draws in WARM_DRAW_SEEDS:
            seeds = inputs.Seeds(order=0, draws=draws)
            for spec in specs:
                if spec.plain_avg:
                    seed = inputs.query_seed(seeds, 0, spec.index)
                    handle = services[spec.preset].submit(spec.query, seed=seed)
                    records[f"{spec.qid}/draws{draws}"] = flatten(handle.result())
            for batch in hub_batches(specs):
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


def dump_cold_batch(specs, scale: float) -> dict:
    """Each hub's non-AVG queries as one batch on a fresh service and an
    empty plan cache, at the seeds of :func:`dump_cold`."""
    seeds = inputs.Seeds(order=0, draws=COLD_DRAW_SEED)
    records = {}
    for batch in hub_batches(specs):
        bundle = inputs.load_bundle(batch[0].preset, scale)
        shared_plan_cache().clear()
        with AggregateQueryService(
            bundle.kg, bundle.embedding, EngineConfig(seed=0)
        ) as service:
            handles = service.submit_batch(
                [
                    (spec.query, inputs.query_seed(seeds, 0, spec.index))
                    for spec in batch
                ]
            )
            for spec, handle in zip(batch, handles):
                records[f"{spec.qid}/draws{COLD_DRAW_SEED}"] = flatten(
                    handle.result()
                )
    return records


MODES = {"warm": dump_warm, "cold": dump_cold, "cold-batch": dump_cold_batch}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=tuple(MODES), required=True)
    parser.add_argument("--scale", type=float, default=inputs.FULL_SCALE)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"compare the file's sha256 with the one committed in {DIGESTS.name}; "
        "exit 1 on a mismatch",
    )
    args = parser.parse_args(argv)
    specs = inputs.generate(inputs.PRESETS, args.scale)
    records = MODES[args.mode](specs, args.scale)
    text = json.dumps(records, indent=1, sort_keys=True) + "\n"
    args.out.write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"wrote {len(records)} results to {args.out} sha256 {digest}")
    if not args.check:
        return 0
    # a cold batch must answer like the cold one-at-a-time run, byte for byte
    digest_mode = "cold" if args.mode == "cold-batch" else args.mode
    key = f"{digest_mode}/scale{args.scale:g}"
    expected = json.loads(DIGESTS.read_text())["sha256"].get(key)
    print(f"{key}: expected sha256 {expected}")
    print(f"{key}:   actual sha256 {digest}")
    if digest != expected:
        print(f"{key}: MISMATCH — a fixed-seed result moved (or no digest is committed)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
