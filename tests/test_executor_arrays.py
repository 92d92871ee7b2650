"""The array-valued S2/S3 round against its per-entry oracles.

``QueryExecutor`` screens, keys and assembles whole batches as array
operations over ``KnowledgeGraph.attribute_column``.  Each array path is
pinned here to the per-node definition it replaced — ``Filter.matches``
and ``Node.attribute`` for the screen, ``GroupBy.key_for`` for group keys,
the dict-and-``math.prod`` assembly for the joint distribution — which
live on in the query model (or in this file) and which no engine option
reaches.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    AggregateFunction,
    AggregateQuery,
    ApproximateAggregateEngine,
    EngineConfig,
    Filter,
    GroupBy,
    QueryGraph,
    QueryShape,
)
from repro.core.executor import QueryExecutor, _QueryState
from repro.datasets import ALL_PRESETS, queries_of_shape, standard_workload
from repro.errors import NodeNotFoundError, QueryError
from repro.kg import KnowledgeGraph
from repro.sampling.collector import AnswerDistribution

_GRAPH = QueryGraph.simple("hub", ["Hub"], "related", ["Thing"])
_ATTRIBUTES = ("price", "weight")


def _kg_of(rows) -> KnowledgeGraph:
    """One ``Thing`` per row; a row gives (price, weight), None = absent."""
    kg = KnowledgeGraph("rows")
    for index, row in enumerate(rows):
        attributes = {
            name: value for name, value in zip(_ATTRIBUTES, row) if value is not None
        }
        kg.add_node(f"thing_{index}", ["Thing"], attributes)
    return kg


def _executor(kg: KnowledgeGraph) -> QueryExecutor:
    """An executor for the methods that only read the graph."""
    return QueryExecutor(kg, None, EngineConfig(), None)


# ----------------------------------------------------------------------
# _screen == Node.attribute + Filter.matches, node by node
# ----------------------------------------------------------------------
@st.composite
def screened_rows(draw):
    low, high = sorted(draw(st.tuples(st.floats(-100, 100), st.floats(-100, 100))))
    value = st.one_of(
        st.none(),
        st.just(float("nan")),
        st.floats(-200, 200),
        st.integers(-200, 200),
        st.sampled_from([low, high]),  # exactly on a bound
    )
    rows = draw(st.lists(st.tuples(value, value), min_size=1, max_size=12))
    bounds = st.sampled_from([(low, high), (low, None), (None, high)])
    filters = tuple(
        Filter(name, *draw(bounds))
        for name in draw(st.lists(st.sampled_from(_ATTRIBUTES), unique=True))
    )
    function = draw(st.sampled_from(list(AggregateFunction)))
    node_ids = draw(st.lists(st.integers(0, len(rows) - 1), max_size=20))
    query = AggregateQuery(
        query=_GRAPH,
        function=function,
        attribute="price" if function.needs_attribute else None,
        filters=filters,
    )
    return rows, query, np.asarray(node_ids, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(screened_rows())
def test_screen_is_the_per_node_attribute_and_filter_check(case):
    rows, query, node_ids = case
    kg = _kg_of(rows)
    passes, values = _executor(kg)._screen(query, node_ids)
    assert passes.dtype == bool and len(passes) == len(values) == len(node_ids)
    for position, node_id in enumerate(node_ids.tolist()):
        node = kg.node(node_id)
        value = query.value_of(node)  # 1.0 for COUNT, else the attribute
        expected = (
            value is not None
            and not math.isnan(value)
            and query.passes_filters(node)
        )
        assert passes[position] == expected
        if expected:
            assert values[position] == value


def test_screen_refuses_an_out_of_range_node_id():
    kg = _kg_of([(1.0, None), (2.0, None)])
    executor = _executor(kg)
    query = AggregateQuery(query=_GRAPH, function=AggregateFunction.AVG, attribute="price")
    for bad in (-1, 2):  # -1 would wrap around to the last node
        with pytest.raises(NodeNotFoundError):
            executor._screen(query, np.asarray([0, bad], dtype=np.int64))


@pytest.mark.parametrize("validate", [True, False])
def test_round_verdicts_are_screen_and_similarity(toy, drive_lifecycle, validate):
    """``_validate_entries``: correct = screen, and (when S2 validates) the
    composite similarity at ``>= tau``; the value is kept only for correct
    answers."""
    config = EngineConfig(seed=7, validate_correctness=validate)
    engine = ApproximateAggregateEngine(toy.kg, toy.embedding, config)
    query = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.AVG,
        attribute="price",
        filters=(Filter("price", 31_000.0, 91_000.0),),
    )
    state, _result = drive_lifecycle(engine.executor, query, 3, 0.001, max_rounds=5)
    verdicts = set()
    for index in np.flatnonzero(state.support_known):
        node_id = int(state.joint.answers[index])
        node = toy.kg.node(node_id)
        screened = query.passes_filters(node)
        expected = screened and (
            not validate
            or engine.answer_similarity(state, node_id) >= config.tau
        )
        assert state.support_correct[index] == expected
        assert state.support_value[index] == (
            node.attribute("price") if expected else 0.0
        )
        verdicts.add((screened, expected))
    assert {(False, False), (True, True)} <= verdicts
    assert ((True, False) in verdicts) == validate


# ----------------------------------------------------------------------
# _group_keys == GroupBy.key_for, bit for bit
# ----------------------------------------------------------------------
_KEY_VALUE = st.one_of(
    st.none(),
    st.floats(min_value=-1e300, max_value=1e300),
    st.integers(-(10**6), 10**6),
    st.sampled_from([float("nan"), -5e-324, -0.0, 0.0, 5e-324]),
)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.tuples(_KEY_VALUE, st.booleans()), min_size=1, max_size=16),
    width=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e6)),
)
# -5e-324 / 4.0 underflows to -0.0: the key lands one bin up and steps down
@example(
    entries=[(-5e-324, True), (-0.0, True), (0.0, True), (-7.25, True),
             (float("nan"), True), (None, True), (9, True), (9.5, False)],
    width=4.0,
)
@example(entries=[(-0.0, True), (3, True), (-2.5, True)], width=None)
def test_group_keys_are_group_by_key_for(entries, width):
    kg = _kg_of([(value, None) for value, _correct in entries])
    size = len(entries)
    group_by = GroupBy("price", bin_width=width)
    state = _QueryState(
        aggregate_query=AggregateQuery(
            query=_GRAPH, function=AggregateFunction.COUNT, group_by=group_by
        ),
        components=[],
        joint=AnswerDistribution(
            answers=np.arange(size), probabilities=np.full(size, 1.0 / size)
        ),
        collector=None,
        little_samples=[np.arange(size)],
        desired_n=size,
        num_candidates=size,
        walk_iterations=0,
        support_known=np.ones(size, dtype=bool),
        support_correct=np.asarray([correct for _value, correct in entries]),
        support_value=np.ones(size),
    )
    keys = _executor(kg)._group_keys(state)
    assert state.support_group_known.all()
    for node_id, (_value, correct) in enumerate(entries):
        expected = group_by.key_for(kg.node(node_id)) if correct else None
        if expected is None:
            assert math.isnan(keys[node_id])
        else:
            assert float(keys[node_id]).hex() == float(expected).hex()


# ----------------------------------------------------------------------
# _joint_distribution == the dict-and-math.prod assembly
# ----------------------------------------------------------------------
def _joint_by_dicts(components) -> tuple[np.ndarray, np.ndarray]:
    """Decomposition-assembly one answer at a time (the seed's loop)."""
    mappings = [
        {
            int(node): float(probability)
            for node, probability in zip(
                plan.distribution.answers, plan.distribution.probabilities
            )
        }
        for plan in components
    ]
    support = set(mappings[0])
    for mapping in mappings[1:]:
        support &= set(mapping)
    answers = np.asarray(sorted(support), dtype=np.int64)
    weights = np.asarray(
        [
            math.prod(mapping[int(answer)] for mapping in mappings)
            for answer in answers
        ],
        dtype=np.float64,
    )
    return answers, weights / weights.sum()


def _assert_joint_matches_dicts(components) -> None:
    joint = QueryExecutor._joint_distribution(components)
    answers, weights = _joint_by_dicts(components)
    assert joint.answers.dtype == answers.dtype
    np.testing.assert_array_equal(joint.answers, answers)
    assert joint.probabilities.tobytes() == weights.tobytes()


@pytest.mark.parametrize("preset", sorted(ALL_PRESETS))
@pytest.mark.parametrize(
    "shape", [QueryShape.STAR, QueryShape.FLOWER, QueryShape.CYCLE]
)
def test_joint_distribution_matches_dict_assembly(preset, shape):
    bundle = ALL_PRESETS[preset](seed=0, scale=1.0)
    stated = queries_of_shape(standard_workload(bundle), shape)[0]
    planner = ApproximateAggregateEngine(bundle.kg, bundle.embedding).planner
    components = [
        planner.plan_for(component)
        for component in stated.aggregate_query.query.components
    ]
    assert len(components) >= 2
    _assert_joint_matches_dicts(components)


def _fake_plan(rng, answers) -> SimpleNamespace:
    """A stand-in plan: a distribution over ``answers`` in shuffled order."""
    answers = rng.permutation(np.asarray(answers, dtype=np.int64))
    weights = rng.random(len(answers)) + 0.01
    return SimpleNamespace(
        distribution=AnswerDistribution(
            answers=answers, probabilities=weights / weights.sum()
        )
    )


def test_joint_distribution_of_unsorted_partially_overlapping_supports():
    rng = np.random.default_rng(5)
    components = [
        _fake_plan(rng, range(0, 60)),
        _fake_plan(rng, range(20, 90, 2)),
        _fake_plan(rng, range(10, 70, 3)),
    ]
    _assert_joint_matches_dicts(components)
    assert len(QueryExecutor._joint_distribution(components).answers) == 7


def test_joint_distribution_of_disjoint_supports_is_a_query_error():
    rng = np.random.default_rng(6)
    components = [_fake_plan(rng, range(0, 5)), _fake_plan(rng, range(5, 9))]
    with pytest.raises(QueryError, match="empty intersection"):
        QueryExecutor._joint_distribution(components)
