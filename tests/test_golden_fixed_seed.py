"""Fixed-seed golden results: bit-identity over time as a tier-1 assertion.

``tests/data/golden_fixed_seed.json`` stores every float as
``float.hex()``, so a refactor of S3 (or anything upstream of it) that
changes one bit of a fixed-seed answer fails here instead of in a scratch
comparison.  It was last regenerated on purpose by the PR that made the
closed-form stationary distribution the production S1 path (``plain_avg``,
``count_paper`` and ``group_by_avg`` moved from the unconverged power
iterate to the exact pi; ``chain_avg`` was closed-form already and did
not).  The multi-component cases (``star_count``, ``flower_count``,
``cycle_sum``) were added on unchanged code ahead of the lazy S2
conjunction, which must not move them; ``filtered_avg``,
``group_by_count`` and ``max_simple`` likewise ahead of the array S2
screen, and ``chain_count`` (the cold path's tail query) ahead of the
chain DFS's shared tours.  Regenerate only when a change is
*meant* to move fixed-seed results, and review the move first::

    PYTHONPATH=src python tests/test_golden_fixed_seed.py --diff   # prints, writes nothing
    PYTHONPATH=src python tests/test_golden_fixed_seed.py          # rewrites the file

``--diff`` exits 1 when any case moved or is new, so CI can gate on it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro import (
    AggregateFunction,
    ApproximateAggregateEngine,
    EngineConfig,
    QueryShape,
)
from repro.core.result import GroupedResult
from repro.datasets import ALL_PRESETS, queries_of_shape, standard_workload
from repro.query.parser import format_query

GOLDEN = Path(__file__).parent / "data" / "golden_fixed_seed.json"

_SOCCER = "(FC_Barcelona:SoccerClub)-[playsFor]->(x:SoccerPlayer)"


def _bundle():
    return ALL_PRESETS["yago2-like"](seed=0, scale=1.0)


def _first_workload_aql(wanted) -> str:
    """The preset's first standard-workload query that ``wanted`` accepts."""
    return format_query(
        next(
            stated.aggregate_query
            for stated in standard_workload(_bundle())
            if wanted(stated.aggregate_query)
        )
    )


def _workload_aql(shape: QueryShape, function: AggregateFunction) -> str:
    """The standard workload's ``shape`` query of the preset, as ``function``.

    The workload states each composite as COUNT, then as AVG; SUM reuses
    the AVG query's graph and attribute.
    """
    count, avg = queries_of_shape(standard_workload(_bundle()), shape)
    stated = count if function is AggregateFunction.COUNT else avg
    return format_query(
        dataclasses.replace(stated.aggregate_query, function=function)
    )


#: name -> AQL or a callable returning it.  The plain AVG's last round
#: holds more draws than one kernel block; the chain AVG's fit in one.
#: The star and the flower mix simple and chain components, the cycle
#: has two simple ones.  The filtered AVG, the binned GROUP-BY COUNT and
#: the MAX are the workload's first of each: the S2 attribute/filter
#: screen, the group-key binning and the extreme round loop.  The chain
#: COUNT is the workload's first single-component chain query: every
#: answer's verdict comes from the budgeted chain DFS.  (``count_paper``
#: keeps the name of the estimator normalisation it once ran under, which
#: a census does not read.)
CASES = {
    "plain_avg": f"AVG(transfer_value) MATCH {_SOCCER}",
    "count_paper": "COUNT(*) MATCH (Spain:Country)-[bornIn]->(x:SoccerPlayer)",
    "group_by_avg": f"AVG(transfer_value) MATCH {_SOCCER} GROUP BY age BIN 4",
    "chain_avg": (
        "AVG(transfer_value) MATCH (FC_Barcelona:SoccerClub)-[academy]->"
        "(n1:Academy)-[trained]->(x:SoccerPlayer)"
    ),
    "chain_count": lambda: _first_workload_aql(
        lambda query: query.query.shape is QueryShape.CHAIN
        and query.function is AggregateFunction.COUNT
    ),
    "star_count": lambda: _workload_aql(QueryShape.STAR, AggregateFunction.COUNT),
    "flower_count": lambda: _workload_aql(QueryShape.FLOWER, AggregateFunction.COUNT),
    "cycle_sum": lambda: _workload_aql(QueryShape.CYCLE, AggregateFunction.SUM),
    "filtered_avg": lambda: _first_workload_aql(lambda query: query.has_filters),
    "group_by_count": lambda: _first_workload_aql(
        lambda query: query.group_by is not None
        and query.function is AggregateFunction.COUNT
    ),
    "max_simple": lambda: _first_workload_aql(
        lambda query: query.function is AggregateFunction.MAX
    ),
}


def _trace(rounds) -> list:
    return [
        [t.total_draws, t.correct_draws, t.estimate.hex(), t.moe.hex()]
        for t in rounds
    ]


def compute(name: str) -> dict:
    """Run one golden case on a fresh engine and flatten its result."""
    aql = CASES[name]
    if callable(aql):
        aql = aql()
    bundle = _bundle()
    engine = ApproximateAggregateEngine(
        bundle.kg, bundle.embedding, EngineConfig(seed=0)
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


def _relative_change(old_hex: str, new_hex: str) -> str:
    old, new = float.fromhex(old_hex), float.fromhex(new_hex)
    if old == new:
        return "equal"
    return f"{(new - old) / abs(old):+.3e}" if old else f"{old!r} -> {new!r}"


def diff_against_golden() -> list[str]:
    """Per case, which golden fields a fresh run moves and by how much."""
    golden = json.loads(GOLDEN.read_text())
    lines = []
    for name in sorted(CASES):
        old, new = golden.get(name), compute(name)
        if old == new:
            lines.append(f"{name}: unchanged")
            continue
        if old is None:
            lines.append(f"{name}: new case")
            continue
        draws = (
            "equal" if old["draws"] == new["draws"]
            else f"{old['draws']} -> {new['draws']}"
        )
        lines.append(
            f"{name}: draws {draws}, rounds {len(old['rounds'])} -> {len(new['rounds'])}"
        )
        if "estimate" in new:
            lines.append(
                f"  estimate {_relative_change(old['estimate'], new['estimate'])}, "
                f"moe {_relative_change(old['moe'], new['moe'])}, "
                f"distinct_answers {old['distinct_answers']} -> {new['distinct_answers']}"
            )
        for key in sorted(set(old.get("groups", {})) | set(new.get("groups", {}))):
            before, after = old["groups"].get(key), new["groups"].get(key)
            if before is None or after is None:
                lines.append(f"  group {key}: {'added' if before is None else 'removed'}")
            elif before != after:
                lines.append(
                    f"  group {key}: value {_relative_change(before[0], after[0])}, "
                    f"moe {_relative_change(before[1], after[1])}, "
                    f"correct_draws {before[2]} -> {after[2]}"
                )
    return lines


if __name__ == "__main__":
    if "--diff" in sys.argv[1:]:
        report = diff_against_golden()
        print("\n".join(report))
        sys.exit(0 if all(line.endswith(": unchanged") for line in report) else 1)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({name: compute(name) for name in sorted(CASES)}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
