"""The array-valued S2/S3 round against its per-entry oracles.

``QueryExecutor`` screens, keys and assembles whole batches as array
operations over ``KnowledgeGraph.attribute_column``.  Each array path is
pinned here to the per-node definition it replaced — ``Filter.matches``
and ``Node.attribute`` for the screen, ``GroupBy.key_for`` for group keys,
the dict-and-``math.prod`` assembly for the joint distribution, the
``EstimationSample`` estimators and BLB for the round's estimate and CI —
which live on in the query model, in ``repro.estimation`` (or in this
file) and which no engine option reaches.
"""

from __future__ import annotations

import math
import warnings
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
from repro.errors import EstimationError, NodeNotFoundError, QueryError
from repro.estimation import (
    EstimationSample,
    Normalization,
    estimate,
    normal_critical_value,
    satisfies_error_bound,
)
from repro.estimation.bootstrap import (
    blb_confidence_interval,
    fast_bootstrap_sigma,
    mean_estimator_sigma,
)
from repro.kg import KnowledgeGraph
from repro.sampling.collector import AnswerDistribution
from repro.utils.rng import derive_seed, ensure_rng

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


def _executor(kg: KnowledgeGraph, config: EngineConfig | None = None) -> QueryExecutor:
    """An executor for the methods that only read the graph."""
    return QueryExecutor(kg, None, config or EngineConfig(), None)


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


# ----------------------------------------------------------------------
# the round's estimate and CI == estimate() + blb_confidence_interval()
# over the EstimationSamples, bit for bit
# ----------------------------------------------------------------------
_GUARANTEED = (AggregateFunction.COUNT, AggregateFunction.SUM, AggregateFunction.AVG)


def _oracle_round(executor, state, error_bound):
    """``_estimate_guaranteed`` as the per-draw ``EstimationSample`` code
    computes it: ``(estimate, moe or None, correct_draws, satisfied)``."""
    config = executor.config
    function = state.aggregate_query.function
    round_index = len(state.rounds) + 1
    littles, combined = executor._estimation_samples(state)
    if combined.correct_draws == 0:
        return 0.0, None, 0, False
    point = estimate(function, combined, config.normalization)
    try:
        moe = blb_confidence_interval(
            littles,
            function,
            config.normalization,
            estimate=point,
            confidence_level=config.confidence_level,
            config=config.blb,
            seed=derive_seed(config.seed, "blb", round_index),
        ).moe
    except EstimationError:
        moe = float("inf")
    satisfied = (
        round_index >= config.min_rounds
        and combined.correct_draws >= config.min_correct_for_termination
        and satisfies_error_bound(moe, point, error_bound)
    )
    return point, moe if math.isfinite(moe) else None, combined.correct_draws, satisfied


def _hexed(round_estimate):
    point, moe, correct_draws, satisfied = round_estimate
    return (
        float(point).hex(),
        None if moe is None else float(moe).hex(),
        correct_draws,
        satisfied,
    )


def _assert_rounds_match_oracle(executor, query, seed, error_bound, rounds):
    """Drive ``rounds`` rounds; each must equal its oracle, and the trace
    must carry it."""
    state = executor.initialise(query, seed)
    for taken in range(rounds):
        if taken:
            executor.grow(state, state.rounds[-1], error_bound)
        executor._ensure_validated(state)
        expected = _hexed(_oracle_round(executor, state, error_bound))
        assert _hexed(executor._estimate_guaranteed(state, error_bound)) == expected
        trace = executor.step(state, error_bound).trace
        assert (
            trace.estimate.hex(),
            trace.moe.hex() if trace.guaranteed else None,
            trace.correct_draws,
            trace.satisfied,
        ) == expected
    assert state.rounds[-1].correct_draws > 0


@pytest.mark.parametrize("normalization", list(Normalization))
@pytest.mark.parametrize("function", _GUARANTEED)
def test_round_is_the_estimation_sample_estimate_and_blb_on_the_toy_world(
    toy, function, normalization
):
    config = EngineConfig(seed=7, normalization=normalization)
    engine = ApproximateAggregateEngine(toy.kg, toy.embedding, config)
    query = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=function,
        attribute="price" if function.needs_attribute else None,
    )
    _assert_rounds_match_oracle(engine.executor, query, 3, 0.01, rounds=4)


@pytest.mark.parametrize("normalization", list(Normalization))
@pytest.mark.parametrize("function", _GUARANTEED)
def test_round_is_the_estimation_sample_estimate_and_blb_on_yago(
    function, normalization
):
    """The yago2-like workload's first plain COUNT, SUM and AVG."""
    bundle = ALL_PRESETS["yago2-like"](seed=0, scale=1.0)
    query = next(
        stated.aggregate_query
        for stated in standard_workload(bundle)
        if stated.aggregate_query.function is function
        and stated.aggregate_query.query.shape is QueryShape.SIMPLE
        and not stated.aggregate_query.has_filters
        and stated.aggregate_query.group_by is None
    )
    engine = ApproximateAggregateEngine(
        bundle.kg, bundle.embedding, EngineConfig(seed=0, normalization=normalization)
    )
    _assert_rounds_match_oracle(engine.executor, query, 11, 0.01, rounds=3)


def _hand_state(function, values, probabilities, correct, little_samples):
    """A validated state over a hand-written support."""
    size = len(values)
    return _QueryState(
        aggregate_query=AggregateQuery(
            query=_GRAPH,
            function=function,
            attribute="price" if function.needs_attribute else None,
        ),
        components=[],
        joint=AnswerDistribution(
            answers=np.arange(size),
            probabilities=np.asarray(probabilities, dtype=np.float64),
        ),
        collector=None,
        little_samples=[np.asarray(s, dtype=np.int64) for s in little_samples],
        desired_n=size,
        num_candidates=size,
        walk_iterations=0,
        support_known=np.ones(size, dtype=bool),
        support_correct=np.asarray(correct, dtype=bool),
        support_value=np.where(correct, np.asarray(values, dtype=np.float64), 0.0),
    )


def _hand_executor(normalization) -> QueryExecutor:
    config = EngineConfig(normalization=normalization, min_rounds=1)
    return _executor(KnowledgeGraph("unread"), config)


@pytest.mark.parametrize("normalization", list(Normalization))
@pytest.mark.parametrize("function", _GUARANTEED)
def test_round_edge_cases_match_the_oracle(function, normalization):
    rng = np.random.default_rng(22)
    probabilities = rng.dirichlet(np.ones(30))
    values = rng.lognormal(3.0, 1.0, size=30)
    correct = rng.random(30) < 0.7
    # a correct answer worth 0.0 is a draw of the compressed sum: the
    # verdict mask, not ``terms != 0``, says which draws enter it
    values[np.flatnonzero(correct)[::3]] = 0.0
    zero_valued = [rng.choice(30, size=400, p=probabilities) for _ in range(3)]
    terms = np.where(correct, values / probabilities, 0.0)[np.concatenate(zero_valued)]
    masked = terms[correct[np.concatenate(zero_valued)]]
    # the case under test exists at this seed: dropping the zeros moves a bit
    assert np.sum(masked) != np.sum(terms[terms != 0])
    executor = _hand_executor(normalization)
    one_correct = int(np.flatnonzero(correct)[1])
    cases = {
        "zero-valued correct answers": zero_valued,
        "a bag of one draw": [[one_correct], [3, 4, 3, 9, 11], [5, 5, 6]],
        "an empty bag": [[], [3, 4, 3, 9, 11, 2, 2], [5, 5, 6, 7]],
    }
    for name, little_samples in cases.items():
        state = _hand_state(function, values, probabilities, correct, little_samples)
        assert _hexed(executor._estimate_guaranteed(state, 0.5)) == _hexed(
            _oracle_round(executor, state, 0.5)
        ), name


@pytest.mark.parametrize("function", _GUARANTEED)
def test_round_without_a_correct_draw_has_no_estimate_and_no_ci(function):
    state = _hand_state(
        function, [1.0, 2.0, 3.0], [0.2, 0.3, 0.5], [False, False, True],
        [[0, 1, 1], [1, 0], [0, 0, 1]],
    )
    executor = _hand_executor(Normalization.SAMPLE)
    assert executor._estimate_guaranteed(state, 0.5) == (0.0, None, 0, False)


def test_round_checks_the_drawn_probabilities_like_estimation_sample():
    """``pi' = 0`` may sit in the support (a composite's product can
    underflow) but not in a draw: same error class and message as the
    per-draw check; undrawn, it is never read."""
    executor = _hand_executor(Normalization.SAMPLE)
    values, probabilities, correct = [4.0, 2.0, 3.0], [0.0, 0.5, 0.5], [True, True, True]
    drawn = _hand_state(
        AggregateFunction.SUM, values, probabilities, correct, [[1, 0], [2, 2], [1]]
    )
    with pytest.raises(EstimationError) as oracle:
        executor._estimation_samples(drawn)
    with pytest.raises(EstimationError) as raised:
        executor._estimate_guaranteed(drawn, 0.5)
    assert str(raised.value) == str(oracle.value) == "probabilities must lie in (0, 1]"
    undrawn = _hand_state(
        AggregateFunction.SUM, values, probabilities, correct, [[1, 2], [2, 2], [1, 1]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        round_estimate = executor._estimate_guaranteed(undrawn, 0.5)
    assert _hexed(round_estimate) == _hexed(_oracle_round(executor, undrawn, 0.5))


@pytest.mark.parametrize("normalization", list(Normalization))
@pytest.mark.parametrize("function", _GUARANTEED)
def test_group_estimates_are_the_masked_estimation_samples(
    toy, drive_lifecycle, function, normalization
):
    """Each group is an ``EstimationSample`` over every draw whose verdict
    mask is the group's membership: same estimate bit for bit, the
    closed-form sigma when the estimator is mean-shaped, else the
    bootstrap on the round's one generator in key order."""
    config = EngineConfig(seed=7, normalization=normalization, max_rounds=3)
    engine = ApproximateAggregateEngine(toy.kg, toy.embedding, config)
    query = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=function,
        attribute="price" if function.needs_attribute else None,
        group_by=GroupBy("price", bin_width=2000.0),
    )
    state, result = drive_lifecycle(engine.executor, query, 3, 0.01)
    _littles, combined = engine.executor._estimation_samples(state)
    draw_keys = state.support_group[np.concatenate(state.little_samples)]
    mean_shaped = (
        function is not AggregateFunction.AVG and normalization is Normalization.SAMPLE
    )
    rng = ensure_rng(derive_seed(config.seed, "group-bootstrap", len(state.rounds) - 1))
    assert len(result.groups) == 3
    for key, group in result.groups.items():  # ascending, the bootstrap's order
        members = draw_keys == key
        sample = EstimationSample(
            values=np.where(members, combined.values, 0.0),
            probabilities=combined.probabilities,
            correct=members,
        )
        if mean_shaped:
            sigma = mean_estimator_sigma(
                sample, function, resample_size=sample.total_draws
            )
        else:
            sigma = fast_bootstrap_sigma(
                sample, function, normalization,
                num_resamples=config.blb.num_resamples,
                resample_size=sample.total_draws, rng=rng,
            )
        assert group.value.hex() == estimate(function, sample, normalization).hex()
        assert group.moe.hex() == (
            normal_critical_value(config.confidence_level) * sigma
        ).hex()
        assert group.correct_draws == sample.correct_draws
