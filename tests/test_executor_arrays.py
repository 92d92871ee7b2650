"""The array-valued S2/S3 round against its per-entry oracles.

``QueryExecutor`` screens and keys whole batches, and ``SampledExecutor``
(the paper's sampled rounds) assembles and estimates them, as array
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
from repro.bench.sampled import (
    BLB,
    MIN_CORRECT_FOR_TERMINATION,
    DeltaStrategy,
    PaperConfig,
    PlanSampler,
    SampledExecutor,
    _SampledState,
    _within_cap,
)
from repro.core.executor import QueryExecutor, _keys_of
from repro.datasets import ALL_PRESETS, queries_of_shape, standard_workload
from repro.errors import EstimationError, NodeNotFoundError, QueryError
from repro.estimation.accuracy import satisfies_error_bound
from repro.estimation.bootstrap import (
    blb_confidence_interval,
    fast_bootstrap_sigma,
    mean_estimator_sigma,
    normal_critical_value,
)
from repro.estimation.estimators import EstimationSample, Normalization, estimate
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


@pytest.mark.parametrize("shape", ["simple", "chain"])
@pytest.mark.parametrize("end", ["below", "above"])
def test_similarity_front_doors_refuse_an_out_of_range_node_id(
    toy_world_factory, shape, end
):
    """``answer_similarity`` and ``prewarm_similarities`` raise
    ``NodeNotFoundError`` for an id outside the graph, on a simple plan and
    a chain plan alike, before the validator's row or any memo is read
    (-1 would wrap around to the last node); both valid ends answer."""
    world = toy_world_factory()
    engine = ApproximateAggregateEngine(
        world.kg, world.embedding, EngineConfig(seed=7)
    )
    query = world.count_query() if shape == "simple" else world.chain_count_query()
    (plan,) = [engine.planner.plan_for(c) for c in query.query.components]
    assert plan.component.is_simple == (shape == "simple")
    bad = -1 if end == "below" else world.kg.num_nodes
    with pytest.raises(NodeNotFoundError):
        engine.answer_similarity([plan], bad)
    with pytest.raises(NodeNotFoundError):
        engine.executor.prewarm_similarities([plan], [0, bad])
    assert plan.validator._row is None
    for node_id in (0, world.kg.num_nodes - 1):
        assert 0.0 <= engine.answer_similarity([plan], node_id) <= 1.0


@pytest.mark.parametrize("kind", ["exact", "chain", "reference"])
def test_validators_refuse_an_out_of_range_node_id(toy_world_factory, kind):
    """Every validator's ``validate_batch`` raises ``NodeNotFoundError``
    for an id outside ``[0, num_nodes)`` before its row or memo is read
    (-1 would read the last node, ``num_nodes`` raise a bare IndexError):
    the exact row, the chain validator and the figures' r-path search."""
    from repro.bench.harness import PaperPlanner
    from repro.core.plan import PlanCache
    from repro.core.planner import QueryPlanner
    from repro.semantics.reference import ReferenceValidator
    from repro.semantics.validation import ChainValidator, CorrectnessValidator

    world = toy_world_factory()
    config = EngineConfig(seed=7)
    if kind == "reference":
        planner = PaperPlanner(world.kg, world.space)
    else:
        planner = QueryPlanner(world.kg, world.space, config, cache=PlanCache())
    query = world.chain_count_query() if kind == "chain" else world.count_query()
    validator = planner.plan_for(query.query.components[0]).validator
    assert type(validator) is {
        "exact": CorrectnessValidator,
        "chain": ChainValidator,
        "reference": ReferenceValidator,
    }[kind]
    for bad in (-1, world.kg.num_nodes):
        with pytest.raises(NodeNotFoundError):
            validator.validate_batch([0, bad])
        with pytest.raises(NodeNotFoundError):
            validator.validate(bad)
    assert getattr(validator, "_row", None) is None
    assert getattr(validator, "_memo", None) is None
    batch = validator.validate_batch([0, world.kg.num_nodes - 1])
    assert batch.answers.tolist() == [0, world.kg.num_nodes - 1]
    assert ((batch.similarity >= 0.0) & (batch.similarity <= 1.0)).all()


@pytest.mark.parametrize("validate", [True, False])
def test_round_verdicts_are_screen_and_similarity(
    toy, drive_lifecycle, sampled_engine, validate
):
    """A candidate is correct when it passes the screen and (when S2
    validates) its composite similarity is ``>= tau``; only a correct
    answer's value counts.  The census, which always validates, counts
    exactly the correct joint candidates, with their values
    (``_census_answers``), and a sampled round's ``_validate_entries``
    records that verdict per drawn entry, Fig. 5(b)'s ablation included."""
    engine = ApproximateAggregateEngine(toy.kg, toy.embedding, EngineConfig(seed=7))
    query = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.AVG,
        attribute="price",
        filters=(Filter("price", 31_000.0, 91_000.0),),
    )

    state, _result = drive_lifecycle(engine.executor, query, 3, 0.001)
    components = state.components

    def expected(node_id: int) -> tuple[bool, bool]:
        screened = query.passes_filters(toy.kg.node(node_id))
        return screened, screened and (
            not validate
            or engine.answer_similarity(components, node_id) >= engine.config.tau
        )

    if validate:
        answers, values = engine.executor._census_answers(state)
        counted = dict(zip(answers.tolist(), values.tolist()))
        verdicts = set()
        for node_id in state.joint.answers.tolist():
            screened, correct = expected(node_id)
            assert (node_id in counted) == correct
            if correct:
                assert counted[node_id] == toy.kg.node(node_id).attribute("price")
            verdicts.add((screened, correct))
        assert {(False, False), (True, True), (True, False)} <= verdicts

    sampled = sampled_engine(
        toy.kg,
        toy.embedding,
        PaperConfig(seed=7, validate_correctness=validate, max_rounds=5),
    )
    state, _result = drive_lifecycle(sampled.executor, query, 3, 0.001)
    validated = np.flatnonzero(state.support_known)
    assert len(validated)
    for index in validated.tolist():
        node_id = int(state.joint.answers[index])
        _screened, correct = expected(node_id)
        assert state.support_correct[index] == correct
        assert state.support_value[index] == (
            toy.kg.node(node_id).attribute("price") if correct else 0.0
        )


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
    """The census keys its answers with ``_keys_of``; a sampled round keys
    its correct drawn entries with ``_group_keys`` through it."""
    kg = _kg_of([(value, None) for value, _correct in entries])
    size = len(entries)
    group_by = GroupBy("price", bin_width=width)
    census_keys = _keys_of(group_by, kg.attribute_column("price")[np.arange(size)])
    state = _SampledState(
        aggregate_query=AggregateQuery(
            query=_GRAPH, function=AggregateFunction.COUNT, group_by=group_by
        ),
        components=[],
        joint=AnswerDistribution(
            answers=np.arange(size), probabilities=np.full(size, 1.0 / size)
        ),
        collector=None,
        little_samples=[],
        desired_n=size,
        num_candidates=size,
        walk_iterations=0,
        confidence_level=EngineConfig().confidence_level,
        structure_version=kg.structure_version,
        support_known=np.ones(size, dtype=bool),
        support_correct=np.asarray([correct for _value, correct in entries]),
        support_value=np.ones(size),
    )
    executor = SampledExecutor(kg, None, PaperConfig(), None)
    keys = executor._group_keys(state, np.arange(size))
    assert state.support_group_known.all()
    for node_id, (_value, correct) in enumerate(entries):
        key = group_by.key_for(kg.node(node_id))
        for got, expected in (
            (census_keys[node_id], key),
            (keys[node_id], key if correct else None),
        ):
            if expected is None:
                assert math.isnan(got)
            else:
                assert float(got).hex() == float(expected).hex()


# ----------------------------------------------------------------------
# _joint_distribution == the dict-and-math.prod assembly
# ----------------------------------------------------------------------
def _joint_by_dicts(distributions) -> tuple[np.ndarray, np.ndarray]:
    """Decomposition-assembly one answer at a time (the seed's loop)."""
    mappings = [
        {
            int(node): float(probability)
            for node, probability in zip(
                distribution.answers, distribution.probabilities
            )
        }
        for distribution in distributions
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


def _assert_joint_matches_dicts(distributions) -> None:
    joint = SampledExecutor._joint_distribution(distributions)
    answers, weights = _joint_by_dicts(distributions)
    assert joint.answers.dtype == answers.dtype
    np.testing.assert_array_equal(joint.answers, answers)
    assert joint.probabilities.tobytes() == weights.tobytes()
    # every component's support holds the joint's answers
    for distribution in distributions:
        assert np.isin(answers, distribution.answers).all()


@pytest.mark.parametrize("preset", sorted(ALL_PRESETS))
@pytest.mark.parametrize(
    "shape", [QueryShape.STAR, QueryShape.FLOWER, QueryShape.CYCLE]
)
def test_joint_distribution_matches_dict_assembly(preset, shape):
    bundle = ALL_PRESETS[preset](seed=0, scale=1.0)
    stated = queries_of_shape(standard_workload(bundle), shape)[0]
    engine = ApproximateAggregateEngine(bundle.kg, bundle.embedding)
    sampler = PlanSampler(bundle.kg, engine.space)
    distributions = [
        sampler.sample(engine.planner.plan_for(component)).distribution
        for component in stated.aggregate_query.query.components
    ]
    assert len(distributions) >= 2
    _assert_joint_matches_dicts(distributions)


def _fake_distribution(rng, answers) -> AnswerDistribution:
    """A stand-in pi_A over ``answers`` in shuffled order."""
    answers = rng.permutation(np.asarray(answers, dtype=np.int64))
    weights = rng.random(len(answers)) + 0.01
    return AnswerDistribution(answers=answers, probabilities=weights / weights.sum())


def test_joint_distribution_of_unsorted_partially_overlapping_supports():
    rng = np.random.default_rng(5)
    components = [
        _fake_distribution(rng, range(0, 60)),
        _fake_distribution(rng, range(20, 90, 2)),
        _fake_distribution(rng, range(10, 70, 3)),
    ]
    _assert_joint_matches_dicts(components)
    joint = SampledExecutor._joint_distribution(components)
    assert len(joint.answers) == 7


def test_joint_distribution_of_disjoint_supports_is_a_query_error():
    rng = np.random.default_rng(6)
    components = [
        _fake_distribution(rng, range(0, 5)),
        _fake_distribution(rng, range(5, 9)),
    ]
    with pytest.raises(QueryError, match="empty intersection"):
        SampledExecutor._joint_distribution(components)


# ----------------------------------------------------------------------
# the round's estimate and CI == estimate() + blb_confidence_interval()
# over the EstimationSamples, bit for bit
# ----------------------------------------------------------------------
_GUARANTEED = (AggregateFunction.COUNT, AggregateFunction.SUM, AggregateFunction.AVG)


def _estimation_samples(state):
    """Per-little-sample and combined draw slices with validity masks: the
    per-draw oracle's input.  The little samples are views into the
    combined gather."""
    combined = SampledExecutor._combined_sample(state)
    littles = []
    stop = 0
    for indexes in state.little_samples:
        start, stop = stop, stop + len(indexes)
        littles.append(
            EstimationSample(
                values=combined.values[start:stop],
                probabilities=combined.probabilities[start:stop],
                correct=combined.correct[start:stop],
            )
        )
    return littles, combined


def _oracle_round(executor, state, error_bound):
    """``_estimate_guaranteed`` as the per-draw ``EstimationSample`` code
    computes it: ``(estimate, moe or None, correct_draws, satisfied)``."""
    config = executor.config
    function = state.aggregate_query.function
    round_index = len(state.rounds) + 1
    littles, combined = _estimation_samples(state)
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
            config=BLB,
            seed=derive_seed(config.seed, "blb", round_index),
        ).moe
    except EstimationError:
        moe = float("inf")
    satisfied = (
        round_index >= config.min_rounds
        and combined.correct_draws >= MIN_CORRECT_FOR_TERMINATION
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
    toy, function, normalization, sampled_engine
):
    config = PaperConfig(seed=7, normalization=normalization)
    engine = sampled_engine(toy.kg, toy.embedding, config)
    query = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=function,
        attribute="price" if function.needs_attribute else None,
    )
    _assert_rounds_match_oracle(engine.executor, query, 3, 0.01, rounds=4)


@pytest.mark.parametrize("normalization", list(Normalization))
@pytest.mark.parametrize("function", _GUARANTEED)
def test_round_is_the_estimation_sample_estimate_and_blb_on_yago(
    function, normalization, sampled_engine
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
    engine = sampled_engine(
        bundle.kg, bundle.embedding, PaperConfig(seed=0, normalization=normalization)
    )
    _assert_rounds_match_oracle(engine.executor, query, 11, 0.01, rounds=3)


def _hand_state(function, values, probabilities, correct, little_samples):
    """A validated state over a hand-written support."""
    size = len(values)
    return _SampledState(
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
        confidence_level=EngineConfig().confidence_level,
        structure_version=0,
        support_known=np.ones(size, dtype=bool),
        support_correct=np.asarray(correct, dtype=bool),
        support_value=np.where(correct, np.asarray(values, dtype=np.float64), 0.0),
    )


def _hand_executor(normalization) -> SampledExecutor:
    config = PaperConfig(normalization=normalization, min_rounds=1)
    return SampledExecutor(KnowledgeGraph("unread"), None, config, None)


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
        SampledExecutor._combined_sample(drawn)
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
    toy, drive_lifecycle, sampled_engine, function, normalization
):
    """Each group is an ``EstimationSample`` over every draw whose verdict
    mask is the group's membership: same estimate bit for bit, the
    closed-form sigma when the estimator is mean-shaped, else the
    bootstrap on the round's one generator in key order."""
    config = PaperConfig(seed=7, normalization=normalization, max_rounds=3)
    engine = sampled_engine(toy.kg, toy.embedding, config)
    query = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=function,
        attribute="price" if function.needs_attribute else None,
        group_by=GroupBy("price", bin_width=2000.0),
    )
    state, result = drive_lifecycle(engine.executor, query, 3, 0.01)
    combined = SampledExecutor._combined_sample(state)
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
                num_resamples=BLB.num_resamples,
                resample_size=sample.total_draws, rng=rng,
            )
        assert group.value.hex() == estimate(function, sample, normalization).hex()
        assert group.moe.hex() == (
            normal_critical_value(config.confidence_level) * sigma
        ).hex()
        assert group.correct_draws == sample.correct_draws


# ----------------------------------------------------------------------
# the one-pass grouped round == the per-group loop it replaced
# ----------------------------------------------------------------------
def _groups_by_loop(executor, state, numerators, denominators, draw_keys, error_bound):
    """The per-group loop: each group's columns zeroed outside it, then
    ``_column_estimate`` and ``_column_moe`` group by group in key order,
    the bootstrapped ones on one generator built at the first of them."""
    config = executor.config
    results = {}
    gated = 0
    all_satisfied = True
    rng = derive_seed(config.seed, "group-bootstrap", len(state.rounds))
    drawn_keys = state.support_group[state.distinct_support_indices()]
    for key in np.unique(drawn_keys[~np.isnan(drawn_keys)]):
        members = draw_keys == key
        group = (
            np.where(members, numerators, 0.0),
            None if denominators is None else np.where(members, denominators, 0.0),
        )
        if denominators is not None:
            rng = ensure_rng(rng)
        point_estimate = executor._column_estimate(*group, members)
        moe = executor._column_moe(state, *group, [len(members)], rng)
        satisfied = math.isfinite(moe) and satisfies_error_bound(
            moe, point_estimate, error_bound
        )
        correct_draws = int(np.count_nonzero(members))
        if correct_draws >= config.min_group_draws:
            gated += 1
            all_satisfied = all_satisfied and satisfied
        results[float(key)] = (
            point_estimate,
            moe if math.isfinite(moe) else 0.0,
            satisfied,
            correct_draws,
            int(np.count_nonzero(drawn_keys == key)),
        )
    return results, all_satisfied and gated > 0


def _grouped_round_case(rng, support_keys, draws, mean_shaped):
    """A state whose support is keyed by ``support_keys`` (NaN = not
    grouped, so incorrect) drawn as ``draws``, plus its round columns."""
    support_keys = np.asarray(support_keys, dtype=np.float64)
    size = len(support_keys)
    probabilities = rng.dirichlet(np.ones(size))
    correct = ~np.isnan(support_keys)
    values = rng.lognormal(3.0, 1.0, size=size)
    draws = np.asarray(draws, dtype=np.int64)
    cut = len(draws) // 3
    state = _hand_state(
        AggregateFunction.SUM, values, probabilities, correct,
        [draws[:cut], draws[cut:]],
    )
    state.support_group = support_keys
    numerators = np.where(correct, values / probabilities, 0.0)[draws]
    denominators = None
    if not mean_shaped:
        denominators = np.where(correct, 1.0 / probabilities, 0.0)[draws]
    return state, numerators, denominators, support_keys[draws]


def _hexed_groups(groups):
    results, satisfied = groups
    return {
        key.hex(): (value.hex(), moe.hex(), converged, draws, distinct)
        for key, (value, moe, converged, draws, distinct) in results.items()
    }, satisfied


def _random_grouped_cases(rng):
    for size, num_draws, num_groups in [
        (7, 7, 1), (40, 300, 5), (300, 2000, 66), (1500, 5000, 12),
    ]:
        keys = rng.integers(0, num_groups, size=size) * 2.5 - 10.0
        keys = np.where(rng.random(size) < 0.3, np.nan, keys)
        yield f"random {num_groups} groups", keys, rng.integers(0, size, num_draws)
    # entry 5 is the only member of its group and is drawn once
    keys = np.where(np.arange(10) % 2 == 0, 1.0, np.nan)
    keys[5] = 7.0
    yield "a single-draw group", keys, [0, 0, 1, 2, 2, 3, 4, 5, 6, 8, 8, 9]
    yield "no group", np.full(6, np.nan), [0, 1, 1, 2, 5, 4]
    yield "one draw", np.asarray([3.0, np.nan]), [0]


@pytest.mark.parametrize("mean_shaped", [True, False], ids=["closed-form", "bootstrap"])
def test_grouped_round_is_the_per_group_loop(mean_shaped):
    rng = np.random.default_rng(34)
    executor = _hand_executor(Normalization.SAMPLE)
    for name, keys, draws in _random_grouped_cases(rng):
        state, numerators, denominators, draw_keys = _grouped_round_case(
            rng, keys, draws, mean_shaped
        )
        expected = _hexed_groups(
            _groups_by_loop(executor, state, numerators, denominators, draw_keys, 0.05)
        )
        actual = _hexed_groups(
            executor._estimate_groups(
                state, numerators, denominators, draw_keys, 0.05
            )
        )
        assert actual == expected, name
        if name == "no group":
            assert actual == ({}, False)


def test_grouped_round_does_not_depend_on_the_block_size(monkeypatch):
    """A block boundary falling inside the groups (two rows a block over
    seven groups) reduces every row as one block does."""
    import repro.bench.sampled as sampled_module

    rng = np.random.default_rng(35)
    keys = np.where(rng.random(200) < 0.2, np.nan, rng.integers(0, 7, 200) * 1.0)
    state, numerators, _none, draw_keys = _grouped_round_case(
        rng, keys, rng.integers(0, 200, 900), mean_shaped=True
    )
    executor = _hand_executor(Normalization.SAMPLE)
    whole = _hexed_groups(
        executor._estimate_groups(state, numerators, None, draw_keys, 0.05)
    )
    assert len(whole[0]) == 7
    monkeypatch.setattr(sampled_module, "_GROUP_BLOCK_ELEMENTS", 2 * 900 + 1)
    blocked = _hexed_groups(
        executor._estimate_groups(state, numerators, None, draw_keys, 0.05)
    )
    assert blocked == whole == _hexed_groups(
        _groups_by_loop(executor, state, numerators, None, draw_keys, 0.05)
    )


# ----------------------------------------------------------------------
# the incremental drawn set == np.unique over every draw
# ----------------------------------------------------------------------
_TOY_PRODUCT = QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"])
_KIND_QUERIES = {
    "guaranteed": AggregateQuery(
        query=_TOY_PRODUCT, function=AggregateFunction.AVG, attribute="price"
    ),
    "grouped": AggregateQuery(
        query=_TOY_PRODUCT,
        function=AggregateFunction.COUNT,
        group_by=GroupBy("price", bin_width=2000.0),
    ),
    "extreme": AggregateQuery(
        query=_TOY_PRODUCT, function=AggregateFunction.MAX, attribute="price"
    ),
}


def _assert_drawn_set_is_unique_draws(state) -> None:
    drawn = state.distinct_support_indices()
    expected = np.unique(np.concatenate(state.little_samples))
    assert drawn.dtype == expected.dtype
    np.testing.assert_array_equal(drawn, expected)
    assert not drawn.flags.writeable


@pytest.mark.parametrize("delta_strategy", list(DeltaStrategy))
@pytest.mark.parametrize("kind", sorted(_KIND_QUERIES))
def test_drawn_set_follows_every_grow(toy, sampled_engine, kind, delta_strategy):
    """Only the tail each little sample gained is scattered into the drawn
    mask; after every growth the set is still every distinct draw."""
    config = PaperConfig(seed=7, delta_strategy=delta_strategy)
    executor = sampled_engine(toy.kg, toy.embedding, config).executor
    state = executor.initialise(_KIND_QUERIES[kind], 3)
    _assert_drawn_set_is_unique_draws(state)
    for _ in range(4):
        outcome = executor.step(state, 0.001)
        _assert_drawn_set_is_unique_draws(state)
        executor.grow(state, outcome.trace, 0.001)
        _assert_drawn_set_is_unique_draws(state)
    assert len(state.distinct_support_indices()) > 1


def test_drawn_set_follows_interactive_refinement(toy, sampled_engine):
    engine = sampled_engine(toy.kg, toy.embedding, PaperConfig(seed=11))
    with engine.service as service:
        handle = service.submit(toy.avg_query(), seed=3, error_bound=0.05)
        initial_draws = handle.result().rounds[0].total_draws
        state = handle._record.state
        _assert_drawn_set_is_unique_draws(state)
        for error_bound in (0.02, 0.01):
            handle.refine(error_bound).result()
            _assert_drawn_set_is_unique_draws(state)
    assert state.total_draws > initial_draws


@pytest.mark.parametrize(
    "counts, room, expected",
    [
        ([10, 20, 30], 60, [10, 20, 30]),
        ([10, 0, 30], 20, [5, 0, 15]),
        ([5, 5, 5], 7, [3, 2, 2]),
        ([1, 1, 1], 2, [1, 1, 0]),
        ([7, 3], 0, [0, 0]),
    ],
    ids=["fits", "proportional", "remainder", "floors-all-zero", "no-room"],
)
def test_within_cap_cases(counts, room, expected):
    assert _within_cap(counts, room) == expected


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 2000), min_size=1, max_size=8),
    room=st.integers(0, 10000),
)
def test_within_cap_lands_on_the_room_and_keeps_each_share(counts, room):
    """A cut top-up sums to exactly ``room``; no little sample gets more
    than it asked for or less than its proportional floor."""
    shares = _within_cap(counts, room)
    total = sum(counts)
    assert sum(shares) == min(total, room)
    for count, share in zip(counts, shares):
        assert 0 <= share <= count
        if total > room:
            assert share >= count * room // total
