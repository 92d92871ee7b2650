"""Fixed-seed golden results: bit-identity over time as a tier-1 assertion.

``tests/data/golden_fixed_seed.json`` was generated from the parent of the
PR that replaced the bootstrap's ``(B, |S_A|)`` index matrix with the
blocked ``_resampled_sums`` kernel, *before* the kernel landed.  Every
float is stored as ``float.hex()``, so a refactor of S3 (or anything
upstream of it) that changes one bit of a fixed-seed answer fails here
instead of in a scratch comparison.  Regenerate only when a change is
*meant* to move fixed-seed results::

    PYTHONPATH=src python tests/test_golden_fixed_seed.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import ApproximateAggregateEngine, EngineConfig
from repro.core.result import GroupedResult
from repro.datasets import ALL_PRESETS
from repro.estimation import Normalization

GOLDEN = Path(__file__).parent / "data" / "golden_fixed_seed.json"

_SOCCER = "(FC_Barcelona:SoccerClub)-[playsFor]->(x:SoccerPlayer)"
#: name -> (AQL, normalisation).  The plain AVG's last round holds more
#: draws than one kernel block; the chain AVG's fit in one.
CASES = {
    "plain_avg": (f"AVG(transfer_value) MATCH {_SOCCER}", Normalization.SAMPLE),
    "count_paper": (
        "COUNT(*) MATCH (Spain:Country)-[bornIn]->(x:SoccerPlayer)",
        Normalization.PAPER,
    ),
    "group_by_avg": (
        f"AVG(transfer_value) MATCH {_SOCCER} GROUP BY age BIN 4",
        Normalization.SAMPLE,
    ),
    "chain_avg": (
        "AVG(transfer_value) MATCH (FC_Barcelona:SoccerClub)-[academy]->"
        "(n1:Academy)-[trained]->(x:SoccerPlayer)",
        Normalization.SAMPLE,
    ),
}


def _trace(rounds) -> list:
    return [
        [t.total_draws, t.correct_draws, t.estimate.hex(), t.moe.hex()]
        for t in rounds
    ]


def compute(name: str) -> dict:
    """Run one golden case on a fresh engine and flatten its result."""
    aql, normalization = CASES[name]
    bundle = ALL_PRESETS["yago2-like"](seed=0, scale=1.0)
    engine = ApproximateAggregateEngine(
        bundle.kg, bundle.embedding, EngineConfig(seed=0, normalization=normalization)
    )
    result = engine.execute(aql)
    record = {
        "draws": result.total_draws,
        "rounds": _trace(result.rounds),
    }
    if isinstance(result, GroupedResult):
        record["groups"] = {
            repr(key): [group.value.hex(), group.moe.hex(), group.correct_draws]
            for key, group in sorted(result.groups.items())
        }
    else:
        record["estimate"] = result.value.hex()
        record["moe"] = result.moe.hex()
        record["distinct_answers"] = result.distinct_answers
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_seed_result_is_bit_identical_to_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert compute(name) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({name: compute(name) for name in sorted(CASES)}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
