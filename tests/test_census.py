"""The census: every production query validates its whole joint
candidate set at its first round, draws nothing and returns the exact
aggregate, whatever ``max_sample_size`` says (the paper's sampled rounds
run only on ``repro.bench.sampled.SampledExecutor``).

The oracle is :func:`repro.query.evaluate.aggregate_over` over ``{a in the
joint support : every component keeps a at >= tau, a usable}``: SUM and AVG
equal it bit for bit (both are ``math.fsum``), COUNT, MAX and MIN exactly,
and every summation order of the same values lands inside the census's MoE
(the rounding bound).
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import (
    AggregateQueryService,
    ApproximateAggregateEngine,
    EngineConfig,
    Filter,
    LookupEmbedding,
    PredicateVectorSpace,
    QueryGraph,
    QueryShape,
)
from repro.bench.harness import sampled_engine
from repro.bench.sampled import PaperConfig, PlanSampler, SamplerKind
from repro.core.plan import shared_plan_cache
from repro.core.result import STOP_CENSUS, GroupedResult
from repro.datasets import ALL_PRESETS, standard_workload
from repro.errors import (
    EmbeddingError,
    GraphChangedError,
    NodeNotFoundError,
    QueryError,
    SamplingError,
)
from repro.estimation.estimators import census_estimate
from repro.kg import KnowledgeGraph
from repro.query.aggregate import AggregateFunction, AggregateQuery, GroupBy
from repro.query.evaluate import aggregate_over, is_usable_answer
from repro.semantics.matching import best_matches_from
from repro.server.app import encode_result, status_for

_ATTRIBUTE_FUNCTIONS = (
    AggregateFunction.SUM,
    AggregateFunction.AVG,
    AggregateFunction.MAX,
    AggregateFunction.MIN,
)


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def _kept_answers(engine, state) -> set[int]:
    """``{a in support : every component keeps a >= tau, a usable}``."""
    query = state.aggregate_query
    return {
        answer
        for answer in state.joint.answers.tolist()
        if engine.executor.answer_similarity(state, answer) >= engine.config.tau
        and is_usable_answer(engine.kg, query, answer)
    }


def _assert_exact(result, function, values) -> None:
    """``result`` is the exactly rounded aggregate of ``values``, and the
    naive left-to-right sum of them lies inside its MoE."""
    if not values:
        assert (result.value, result.moe) == (0.0, 0.0)
        return
    if function is AggregateFunction.COUNT:
        assert (result.value, result.moe) == (float(len(values)), 0.0)
    elif function is AggregateFunction.MAX:
        assert (result.value, result.moe) == (max(values), 0.0)
    elif function is AggregateFunction.MIN:
        assert (result.value, result.moe) == (min(values), 0.0)
    else:
        divisor = len(values) if function is AggregateFunction.AVG else 1
        assert result.value.hex() == (math.fsum(values) / divisor).hex()
        naive = sum(values) / divisor
        assert abs(result.value - naive) <= result.moe
        assert result.moe <= 1e-9 * max(1.0, math.fsum(map(abs, values)) / divisor)


def _assert_census_is_the_oracle(engine, state, result) -> None:
    query = state.aggregate_query
    kg = engine.kg
    assert result.stop_reason == STOP_CENSUS and result.converged
    census = result.rounds[-1]
    assert census.guaranteed and census.satisfied
    assert census.total_draws == result.total_draws == state.total_draws
    kept = _kept_answers(engine, state)
    value, groups = aggregate_over(kg, query, kept)
    if query.group_by is None:
        assert result.value.hex() == value.hex()
        values = [query.value_of(kg.node(answer)) for answer in kept]
        _assert_exact(result, query.function, [v for v in values if v is not None])
        return
    assert isinstance(result, GroupedResult)
    partitions: dict[float, list[float]] = {}
    for answer in kept:
        node = kg.node(answer)
        key, v = query.group_by.key_for(node), query.value_of(node)
        if key is not None and v is not None:
            partitions.setdefault(key, []).append(v)
    assert sorted(result.groups) == sorted(groups) == sorted(partitions)
    for key, group in result.groups.items():
        assert group.value.hex() == groups[key].hex()
        assert group.converged
        _assert_exact(group, query.function, partitions[key])


def _bin_width(kg, attribute: str) -> float:
    """About five bins over the attribute's spread."""
    column = kg.attribute_column(attribute)
    spread = float(np.nanmax(column) - np.nanmin(column))
    return spread / 5.0 if spread > 0.0 else 1.0


def _variants(bundle, shape: QueryShape) -> list[AggregateQuery]:
    """Every aggregate kind over the workload's query graphs of ``shape``:
    COUNT, SUM, AVG, MAX, MIN and a binned GROUP-BY COUNT and AVG, on the
    attribute (and filters) of each stated AVG."""
    queries = []
    for stated in standard_workload(bundle):
        stated_query = stated.aggregate_query
        if (
            stated_query.query.shape is not shape
            or stated_query.function is not AggregateFunction.AVG
            or stated_query.group_by is not None
        ):
            continue
        graph, attribute = stated_query.query, stated_query.attribute
        filters = stated_query.filters
        group_by = GroupBy(attribute, bin_width=_bin_width(bundle.kg, attribute))
        queries.append(
            AggregateQuery(query=graph, function=AggregateFunction.COUNT, filters=filters)
        )
        queries.extend(
            AggregateQuery(
                query=graph, function=function, attribute=attribute, filters=filters
            )
            for function in _ATTRIBUTE_FUNCTIONS
        )
        queries.append(
            AggregateQuery(
                query=graph, function=AggregateFunction.COUNT, group_by=group_by
            )
        )
        queries.append(
            AggregateQuery(
                query=graph,
                function=AggregateFunction.AVG,
                attribute=attribute,
                group_by=group_by,
            )
        )
    return queries


# ----------------------------------------------------------------------
# the census against the oracle on the presets
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "shape",
    [QueryShape.SIMPLE, QueryShape.CHAIN, QueryShape.STAR, QueryShape.FLOWER,
     QueryShape.CYCLE],
    ids=lambda shape: shape.value,
)
@pytest.mark.parametrize("preset", sorted(ALL_PRESETS))
def test_census_is_the_exact_aggregate_on_every_shape_and_kind(
    preset, shape, drive_lifecycle
):
    """Every query takes the census at its first round and draws
    nothing."""
    bundle = ALL_PRESETS[preset](seed=0, scale=1.0)
    queries = _variants(bundle, shape)
    assert queries
    engine = ApproximateAggregateEngine(
        bundle.kg, bundle.embedding, EngineConfig(seed=0)
    )
    for query in queries:
        state, result = drive_lifecycle(engine.executor, query, 1, 0.01)
        assert len(result.rounds) == 1 and state.total_draws == 0
        _assert_census_is_the_oracle(engine, state, result)


# ----------------------------------------------------------------------
# census-first: the whole support is validated at once, whatever its size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preset", sorted(ALL_PRESETS))
def test_census_first_max_min_is_exact_and_fits_no_tail(
    preset, monkeypatch, drive_lifecycle
):
    """MAX / MIN take the census like every other kind: the extremum of
    the kept answers, guaranteed with MoE 0 — and no EVT fit."""

    def no_tail_fit(*_args, **_kwargs):
        raise AssertionError("a census fits no tail")

    monkeypatch.setattr("repro.bench.sampled.estimate_extreme_evt", no_tail_fit)
    bundle = ALL_PRESETS[preset](seed=0, scale=1.0)
    engine = ApproximateAggregateEngine(
        bundle.kg, bundle.embedding, EngineConfig(seed=0)
    )
    queries = [
        query
        for shape in (QueryShape.SIMPLE, QueryShape.CHAIN, QueryShape.STAR)
        for query in _variants(bundle, shape)
        if query.function in (AggregateFunction.MAX, AggregateFunction.MIN)
    ]
    assert queries
    for query in queries:
        state, result = drive_lifecycle(engine.executor, query, 1, 0.01)
        assert state.total_draws == 0 and len(result.rounds) == 1
        assert result.stop_reason == STOP_CENSUS and result.converged
        assert result.rounds[0].guaranteed and result.moe == 0.0
        value, _groups = aggregate_over(engine.kg, query, _kept_answers(engine, state))
        assert result.value == value
        # the served run, at another draw seed, is the same census
        assert _values(engine.execute(query, seed=4)) == _values(result)


def _toy_query(toy, kind: str) -> AggregateQuery:
    if kind == "count":
        return toy.count_query()
    if kind == "avg":
        return toy.avg_query()
    if kind == "grouped":
        return AggregateQuery(
            query=toy.count_query().query,
            function=AggregateFunction.COUNT,
            group_by=GroupBy("price", bin_width=1000.0),
        )
    return AggregateQuery(
        query=toy.count_query().query,
        function=AggregateFunction.MAX,
        attribute="price",
    )


@pytest.mark.parametrize("kind", ["count", "avg", "grouped", "max"])
def test_a_cap_below_the_support_still_answers_by_census(toy, kind, drive_lifecycle):
    """No sample cap chooses the path: production has none to set, and
    over the whole toy support a production query is a 0-draw census
    equal to the oracle, and its service counts one ``census`` stop and
    nothing else."""
    query = _toy_query(toy, kind)
    engine = ApproximateAggregateEngine(toy.kg, toy.embedding, EngineConfig(seed=7))
    state, result = drive_lifecycle(engine.executor, query, 5, 0.01)
    assert state.joint.support_size == toy.support_size > 1
    assert state.total_draws == 0 and len(result.rounds) == 1
    _assert_census_is_the_oracle(engine, state, result)
    with AggregateQueryService(toy.kg, toy.embedding, engine.config) as service:
        served = service.submit(query, seed=5).result(timeout=60.0)
        stops = service.registry.snapshot()["repro_exec_stop_reasons_total"]
    assert _values(served) == _values(result)
    assert {
        label: count for label, count in stops.items() if label.startswith("{")
    } == {
        '{reason="census"}': 1,
        '{reason="bound_met"}': 0,
        '{reason="sample_cap"}': 0,
        '{reason="round_budget"}': 0,
    }


def test_census_first_is_byte_identical_cold_and_warm_for_any_seed():
    """Every kind over the dbpedia-like simple, chain and star graphs: a
    cold engine per query (cleared plan cache) and one warm service answer
    alike, in one round with no draws, whatever the draw seed."""
    bundle = ALL_PRESETS["dbpedia-like"](seed=0, scale=1.0)
    queries = [
        query
        for shape in (QueryShape.SIMPLE, QueryShape.CHAIN, QueryShape.STAR)
        for query in _variants(bundle, shape)
    ]
    config = EngineConfig(seed=0)
    cold = []
    for query in queries:
        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(bundle.kg, bundle.embedding, config)
        try:
            cold.append(engine.execute(query, seed=2))
        finally:
            engine.service.close()
    with AggregateQueryService(bundle.kg, bundle.space(), config) as service:
        first = [
            handle.result(timeout=60.0)
            for handle in service.submit_batch([(query, 1) for query in queries])
        ]
        warm = [service.submit(query, seed=2).result(timeout=60.0) for query in queries]

    def wire(result) -> str:
        return json.dumps(encode_result(result, timings=False), sort_keys=True)

    for results in zip(cold, first, warm):
        for result in results:
            assert result.stop_reason == STOP_CENSUS
            assert len(result.rounds) == 1 and result.total_draws == 0
        assert wire(results[0]) == wire(results[1]) == wire(results[2])


# ----------------------------------------------------------------------
# determinism: memo state changes the cost, not the result
# ----------------------------------------------------------------------
def test_warm_service_census_equals_a_cold_engine_byte_for_byte():
    bundle = ALL_PRESETS["yago2-like"](seed=0, scale=1.0)
    queries = [
        stated.aggregate_query
        for stated in standard_workload(bundle)
        if stated.aggregate_query.function is AggregateFunction.AVG
        and stated.aggregate_query.group_by is None
    ]
    shared_plan_cache().clear()
    with AggregateQueryService(
        bundle.kg, bundle.space(), EngineConfig(seed=0)
    ) as service:
        for handle in service.submit_batch([(query, 1) for query in queries]):
            handle.result(timeout=60.0)  # warms every plan and verdict memo
        warm = [service.submit(query, seed=2).result(timeout=60.0) for query in queries]
    cold = []
    for query in queries:
        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(
            bundle.kg, bundle.embedding, EngineConfig(seed=0)
        )
        try:
            cold.append(engine.execute(query, seed=2))
        finally:
            engine.service.close()
    assert sum(result.stop_reason == STOP_CENSUS for result in warm) >= 5
    for served, blocking in zip(warm, cold):
        assert len(served.rounds) == len(blocking.rounds)
        assert json.dumps(
            encode_result(served, timings=False), sort_keys=True
        ) == json.dumps(encode_result(blocking, timings=False), sort_keys=True)


# ----------------------------------------------------------------------
# refine on a census
# ----------------------------------------------------------------------
def _values(result):
    return dataclasses.replace(
        result, stage_ms={}, rounds=tuple(
            dataclasses.replace(trace, seconds=0.0) for trace in result.rounds
        )
    )


def test_refine_on_a_census_is_a_no_op(toy):
    engine = ApproximateAggregateEngine(
        toy.kg, toy.embedding, EngineConfig(seed=11, error_bound=0.001)
    )
    handle = engine.service.submit(toy.avg_query(), seed=3)
    first = handle.result(timeout=30.0)
    assert first.stop_reason == STOP_CENSUS
    draws = handle.total_draws
    for error_bound in (0.5, 1e-9):
        again = handle.refine(error_bound).result(timeout=30.0)
        assert _values(again) == _values(first)
        assert handle.total_draws == draws
        assert len(handle.progress()) == len(first.rounds)
    engine.service.close()


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_census_span_and_counter(toy):
    """A census counts as one ``census`` stop and opens one leaf
    ``census`` span in its round, over the joint support."""
    shared_plan_cache().clear()
    with AggregateQueryService(
        toy.kg, toy.embedding, EngineConfig(seed=11, error_bound=0.001)
    ) as service:
        handle = service.submit(toy.avg_query(), seed=3)
        result = handle.result(timeout=30.0)
        counters = service.registry.snapshot()
        trace = handle.trace()
    assert result.stop_reason == STOP_CENSUS
    assert counters["repro_exec_stop_reasons_total"]['{reason="census"}'] == 1
    rounds = [child for child in trace["children"] if child["name"] == "round"]
    census = [
        child
        for child in rounds[-1]["children"]
        if child["name"] == "census"
    ]
    assert len(rounds) == len(result.rounds)
    (span,) = census
    support = span["attributes"]["support"]
    assert support == result.num_candidates
    assert set(span["attributes"]) == {"support", "kept"}
    assert span["children"] == []
    assert not any(
        child["name"] == "census" for node in rounds[:-1] for child in node["children"]
    )


def test_census_span_counts_the_answers_it_screened(toy):
    """``kept`` on the census span is what the census screened: the
    candidates the plan keeps at tau."""
    shared_plan_cache().clear()
    config = EngineConfig(seed=11)
    with AggregateQueryService(toy.kg, toy.embedding, config) as service:
        handle = service.submit(toy.avg_query(), seed=3)
        handle.result(timeout=30.0)
        trace = handle.trace()
        (plan,) = [
            service.planner.plan_for(component)
            for component in toy.avg_query().query.components
        ]
    (span,) = [
        child
        for node in trace["children"] if node["name"] == "round"
        for child in node["children"] if child["name"] == "census"
    ]
    support = span["attributes"]["support"]
    kept = span["attributes"]["kept"]
    assert support == plan.candidates(toy.kg).support_size
    assert kept == len(plan.kept(toy.kg, config.tau)) < support


# ----------------------------------------------------------------------
# a plan whose bound reaches an uncovered predicate
# ----------------------------------------------------------------------
def test_cnarw_plan_over_an_uncovered_predicate_fails_at_first_validation():
    """``near``'s ``rare_pred`` edge lies within the bound, and the
    embedding does not cover it.  The CNARW walk weighs no predicate, so
    pi_A builds; the exact row weighs every edge within the bound, so the
    query's first validation fails — the census candidates a production
    ``initialise`` reads off the row, or a sampled round, for any answer —
    as SSB fails the whole query."""
    kg = KnowledgeGraph()
    hub = kg.add_node("hub", ["Hub"])
    near = kg.add_node("near", ["Car"])
    other = kg.add_node("other", ["Car"])
    far = kg.add_node("far", ["Thing"])
    kg.add_edge(near, "knows", hub)
    kg.add_edge(other, "likes", hub)
    kg.add_edge(far, "rare_pred", near)
    space = PredicateVectorSpace(
        LookupEmbedding(
            {"knows": np.array([1.0, 0.0]), "likes": np.array([0.6, 0.8])}
        )
    )
    census_config = EngineConfig(seed=1, n_bound=2)
    config = PaperConfig(seed=1, n_bound=2, sampler=SamplerKind.CNARW)
    query = AggregateQuery(
        query=QueryGraph.simple("hub", ["Hub"], "knows", ["Car"]),
        function=AggregateFunction.COUNT,
    )
    engine = ApproximateAggregateEngine(kg, space, census_config)
    plan = engine.planner.plan_for(query.query.components[0])
    distribution = PlanSampler(kg, space, config).sample(plan).distribution
    assert distribution.answers.tolist() == [near, other]
    for answer in (near, other):
        with pytest.raises(EmbeddingError, match="rare_pred"):
            plan.validator.validate(answer)

    # a census-first query validates first when its initialise reads the
    # candidates off the row; a sampled one in its first step
    with pytest.raises(EmbeddingError, match="rare_pred"):
        engine.executor.initialise(query, 3)
    sampled = sampled_engine(kg, space, config).executor
    state = sampled.initialise(query, 3)
    assert state.total_draws > 0
    with pytest.raises(EmbeddingError, match="rare_pred"):
        sampled.step(state, 0.01)
    with pytest.raises(EmbeddingError, match="rare_pred"):
        ApproximateAggregateEngine(kg, space, census_config).execute(query, seed=3)
    with pytest.raises(EmbeddingError, match="rare_pred"):
        sampled_engine(kg, space, config).execute(query, seed=3)
    # one edge shorter, the bound stops before the uncovered edge
    assert ApproximateAggregateEngine(
        kg, space, census_config.with_(n_bound=1)
    ).execute(query, seed=3).value == 1.0


# ----------------------------------------------------------------------
# census_estimate
# ----------------------------------------------------------------------
def test_census_estimate_bounds_every_summation_order():
    values = np.array([1e16, 1.0, -1e16, 3.5, 1e-3, -7.25, 2.0**-30] * 5)
    rng = np.random.default_rng(0)
    for function in (AggregateFunction.SUM, AggregateFunction.AVG):
        value, moe = census_estimate(function, values)
        divisor = len(values) if function is AggregateFunction.AVG else 1
        assert value == math.fsum(values.tolist()) / divisor
        assert moe > 0.0
        for _ in range(50):
            shuffled = rng.permutation(values).tolist()
            assert abs(sum(shuffled) / divisor - value) <= moe
            assert abs(float(np.sum(shuffled)) / divisor - value) <= moe
    assert census_estimate(AggregateFunction.COUNT, values) == (float(len(values)), 0.0)
    assert census_estimate(AggregateFunction.MAX, values) == (1e16, 0.0)
    assert census_estimate(AggregateFunction.MIN, values) == (-1e16, 0.0)
    assert census_estimate(AggregateFunction.AVG, np.empty(0)) == (0.0, 0.0)


# ----------------------------------------------------------------------
# a property over random small graphs (SSB's enumeration as the oracle)
# ----------------------------------------------------------------------
_PREDICATES = {
    "product": np.array([1.0, 0.0]),
    "maker": np.array([0.95, np.sqrt(1.0 - 0.95**2)]),
    "designer": np.array([0.3, np.sqrt(1.0 - 0.3**2)]),
}
_VALUES = st.one_of(
    st.none(),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([1e16, -1e16, 0.1, 3.0, float("nan")]),
)


@st.composite
def small_worlds(draw):
    kg = KnowledgeGraph()
    hub = kg.add_node("hub", ["Hub"])
    middles = [kg.add_node(f"m{i}", ["Firm"]) for i in range(draw(st.integers(0, 3)))]
    for middle in middles:
        kg.add_edge(hub, draw(st.sampled_from(sorted(_PREDICATES))), middle)
    for index in range(draw(st.integers(1, 14))):
        value = draw(_VALUES)
        answer = kg.add_node(
            f"a{index}",
            ["Car"],
            attributes={} if value is None else {"price": value},
        )
        anchor = draw(st.sampled_from([hub, *middles]))
        predicate = draw(st.sampled_from(sorted(_PREDICATES)))
        if draw(st.booleans()):
            kg.add_edge(anchor, predicate, answer)
        else:
            kg.add_edge(answer, predicate, anchor)
    function = draw(st.sampled_from(list(AggregateFunction)))
    group_by = None
    if function.has_guarantee and draw(st.booleans()):
        group_by = GroupBy("price", bin_width=draw(st.sampled_from([0.5, 1e3, 1e7])))
    query = AggregateQuery(
        query=QueryGraph.simple("hub", ["Hub"], "product", ["Car"]),
        function=function,
        attribute="price" if function.needs_attribute else None,
        group_by=group_by,
    )
    return kg, query


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(small_worlds())
def test_census_is_aggregate_over_on_random_small_graphs(drive_lifecycle, world):
    kg, query = world
    space = PredicateVectorSpace(LookupEmbedding(dict(_PREDICATES)))
    config = EngineConfig(seed=0)
    engine = ApproximateAggregateEngine(kg, space, config)
    plan = engine.planner.plan_for(query.query.components[0])
    distribution = PlanSampler(kg, space).sample(plan).distribution
    assume(distribution.support_size > 0)
    state, result = drive_lifecycle(engine.executor, query, 1, 0.01)
    matches = best_matches_from(kg, space, "product", plan.source, config.n_bound)
    kept = {
        answer
        for answer in distribution.answers.tolist()
        if answer in matches
        and matches[answer].similarity >= config.tau
        and is_usable_answer(kg, query, answer)
    }
    assert kept == _kept_answers(engine, state)
    _assert_census_is_the_oracle(engine, state, result)


# ----------------------------------------------------------------------
# the kept sets: a property over random small graphs, composites, filters,
# GROUP-BY and tau (SSB's enumeration as the oracle)
# ----------------------------------------------------------------------
_COMPONENTS = (
    QueryGraph.simple("hub", ["Hub"], "product", ["Car"]),
    QueryGraph.simple("depot", ["Depot"], "maker", ["Car"]),
)


@st.composite
def kept_set_worlds(draw):
    kg = KnowledgeGraph()
    anchors = [kg.add_node("hub", ["Hub"]), kg.add_node("depot", ["Depot"])]
    for index in range(draw(st.integers(0, 3))):
        middle = kg.add_node(f"m{index}", ["Firm"])
        kg.add_edge(
            draw(st.sampled_from(anchors)),
            draw(st.sampled_from(sorted(_PREDICATES))),
            middle,
        )
        anchors.append(middle)
    for index in range(draw(st.integers(1, 14))):
        attributes = {}
        price = draw(_VALUES)
        if price is not None:
            attributes["price"] = price
        weight = draw(st.one_of(st.none(), st.integers(0, 3)))
        if weight is not None:
            attributes["weight"] = float(weight)
        answer = kg.add_node(f"a{index}", ["Car"], attributes=attributes)
        for anchor in draw(
            st.lists(st.sampled_from(anchors), min_size=1, max_size=3, unique=True)
        ):
            predicate = draw(st.sampled_from(sorted(_PREDICATES)))
            if draw(st.booleans()):
                kg.add_edge(anchor, predicate, answer)
            else:
                kg.add_edge(answer, predicate, anchor)
    function = draw(st.sampled_from(list(AggregateFunction)))
    group_by = None
    if function.has_guarantee and draw(st.booleans()):
        group_by = GroupBy(
            draw(st.sampled_from(["price", "weight"])),
            bin_width=draw(st.sampled_from([None, 0.5, 1e3, 1e7])),
        )
    filters = ()
    if draw(st.booleans()):
        lower = draw(st.integers(0, 3))
        filters = (Filter("weight", float(lower), float(draw(st.integers(lower, 3)))),)
    composite = draw(st.booleans())
    query = AggregateQuery(
        query=QueryGraph.compose(_COMPONENTS) if composite else _COMPONENTS[0],
        function=function,
        attribute="price" if function.needs_attribute else None,
        filters=filters,
        group_by=group_by,
    )
    # 1.0, 0.95 and 0.3 are similarities a path attains exactly: a tie
    # there holds only if SSB and the row sum each path in the same order
    return kg, query, draw(
        st.sampled_from([0.25, 0.3, 0.5, 0.85, 0.9, 0.95, 0.97, 1.0])
    )


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(kept_set_worlds())
def test_the_kept_set_census_is_aggregate_over_at_tau(drive_lifecycle, world):
    """Each plan's kept set at tau is its candidates whose SSB similarity
    clears tau; a census — cold, then warm off the kept sets — equals
    ``aggregate_over`` over the joint candidates every component keeps."""
    kg, query, tau = world
    space = PredicateVectorSpace(LookupEmbedding(dict(_PREDICATES)))
    config = EngineConfig(seed=0, tau=tau)
    engine = ApproximateAggregateEngine(kg, space, config)
    try:
        state, result = drive_lifecycle(engine.executor, query, 1, 0.01)
    except (QueryError, SamplingError):
        assume(False)  # no candidate, or no joint one
    matches = [
        best_matches_from(
            kg, space, plan.component.hops[0][0], plan.source, config.n_bound
        )
        for plan in state.components
    ]
    for plan, found in zip(state.components, matches):
        candidates = plan.candidates(kg).answers.tolist()
        kept = plan.kept(kg, tau)
        assert not kept.flags.writeable
        assert kept.tolist() == [
            answer
            for answer in candidates
            if answer in found and found[answer].similarity >= tau
        ]
    kept = {
        answer
        for answer in state.joint.answers.tolist()
        if all(
            answer in found and found[answer].similarity >= tau for found in matches
        )
        and is_usable_answer(kg, query, answer)
    }
    assert kept == _kept_answers(engine, state)
    if query.group_by is None:
        assert result.num_candidates == state.joint.support_size
    _assert_census_is_the_oracle(engine, state, result)
    _state, warm = drive_lifecycle(engine.executor, query, 2, 0.01)
    assert _values(warm) == _values(result)


# ----------------------------------------------------------------------
# a structural write between initialise and the census
# ----------------------------------------------------------------------
def _add_german_car(world, name):
    """One more Automobile, assembled in Germany: a correct answer."""
    car = world.kg.add_node(name, ["Automobile"], {"price": 50_000.0})
    world.kg.add_edge(car, "assembly", world.germany)
    return car


def test_a_census_after_a_structural_write_reads_the_new_graph(
    toy_world_factory,
):
    """The write lands after ``initialise`` read the plans and their
    candidates: the census re-plans once and counts the new car, as a
    fresh engine does."""
    world = toy_world_factory()
    config = EngineConfig(seed=1)
    query = world.count_query()
    shared_plan_cache().clear()
    engine = ApproximateAggregateEngine(world.kg, world.embedding, config)
    executor = engine.executor
    state = executor.initialise(query, 1)
    planned = state.structure_version
    assert planned == world.kg.structure_version
    _add_german_car(world, "Car_late")
    assert world.kg.structure_version != planned

    outcome = executor.step(state, 0.01)
    result = executor.finalise(state, outcome)
    assert state.structure_version == world.kg.structure_version
    assert result.stop_reason == STOP_CENSUS
    assert result.value == world.count_truth + 1.0 == 61.0
    assert result.num_candidates == world.support_size + 1
    fresh = ApproximateAggregateEngine(world.kg, world.embedding, config)
    assert fresh.execute(query, seed=1).value == result.value
    fresh.service.close()


@pytest.mark.parametrize("shape", ["simple", "chain"])
def test_a_row_older_than_the_graph_refuses_the_new_node(toy_world_factory, shape):
    """A node added after a plan's row was built is one the row cannot
    answer for: reading it raises GraphChangedError (409), not a bare
    IndexError, while an id outside the graph stays NodeNotFoundError."""
    world = toy_world_factory()
    shared_plan_cache().clear()
    engine = ApproximateAggregateEngine(world.kg, world.embedding, EngineConfig())
    query = world.count_query() if shape == "simple" else world.chain_count_query()
    state = engine.executor.initialise(query, 1)
    car = world.kg.add_node("Car_late", ["Automobile"], {"price": 50_000.0})
    world.kg.add_edge(world.germany, "product", car)
    with pytest.raises(GraphChangedError, match="added after") as caught:
        engine.answer_similarity(state, car)
    assert status_for(caught.value) == 409
    with pytest.raises(NodeNotFoundError):
        engine.answer_similarity(state, world.kg.num_nodes)
    assert 0.0 <= engine.answer_similarity(state, world.germany) <= 1.0


def test_a_reference_memo_older_than_the_graph_refuses_the_new_node(
    toy_world_factory,
):
    """The figures' r-path validator sizes its node-indexed memo at its
    first read: a node added afterwards is a GraphChangedError (409) there
    too, not a bare IndexError, and an id outside the graph stays
    NodeNotFoundError."""
    from repro.bench.harness import PaperPlanner

    world = toy_world_factory()
    planner = PaperPlanner(world.kg, world.space)
    validator = planner.plan_for(world.count_query().query.components[0]).validator
    validator.validate_batch([world.correct_cars[0]])
    car = world.kg.add_node("Car_late", ["Automobile"], {"price": 50_000.0})
    world.kg.add_edge(world.germany, "product", car)
    with pytest.raises(GraphChangedError, match="added after") as caught:
        validator.validate_batch([world.correct_cars[1], car])
    assert status_for(caught.value) == 409
    with pytest.raises(NodeNotFoundError):
        validator.validate_batch([world.kg.num_nodes])
    assert 0.0 <= validator.validate(world.correct_cars[1]).similarity <= 1.0


def test_a_graph_that_moves_again_while_the_census_replans_fails_it(
    toy_world_factory, monkeypatch
):
    """A second structural write during the re-plan leaves no one graph
    version to answer from: the query fails with GraphChangedError, which
    the wire maps to 409 like any other conflict."""
    world = toy_world_factory()
    shared_plan_cache().clear()
    engine = ApproximateAggregateEngine(world.kg, world.embedding, EngineConfig())
    executor = engine.executor
    state = executor.initialise(world.count_query(), 1)
    _add_german_car(world, "Car_late")

    plan_for = engine.planner.plan_for

    def writing_plan_for(component):
        _add_german_car(world, f"Car_later_{world.kg.structure_version}")
        return plan_for(component)

    monkeypatch.setattr(engine.planner, "plan_for", writing_plan_for)
    with pytest.raises(GraphChangedError, match="re-planned") as caught:
        executor.step(state, 0.01)
    assert not state.rounds
    assert status_for(caught.value) == 409
