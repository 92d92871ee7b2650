"""Extended property-based tests on query-model and accuracy invariants.

Complements tests/test_properties.py (estimator concentration, Markov
chain structure) with hypothesis coverage of Eq. 2's algebra, filter and
group-by semantics, exact aggregation, and the Theorem-2 accuracy
arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.embedding import LookupEmbedding, PredicateVectorSpace
from repro.estimation.accuracy import moe_target, satisfies_error_bound
from repro.estimation.bootstrap import normal_critical_value
from repro.estimation.confidence import ConfidenceInterval
from repro.kg import KnowledgeGraph
from repro.query.aggregate import AggregateFunction, Filter, GroupBy, exact_aggregate
from repro.semantics.similarity import clamp_similarity

_finite = st.floats(-1e6, 1e6, allow_nan=False)
_values = st.lists(_finite, min_size=1, max_size=50)


# ---------------------------------------------------------------------------
# Eq. 2 — geometric-mean path similarity, as the exact row reads it
# ---------------------------------------------------------------------------
def _space_with(similarities: list[float]) -> tuple[PredicateVectorSpace, list[str]]:
    """A 2-D space where predicate p{i} has the given cosine to 'query'."""
    vectors = {"query": np.array([1.0, 0.0])}
    names = []
    for index, cosine in enumerate(similarities):
        angle = math.acos(max(-1.0, min(1.0, cosine)))
        name = f"p{index}"
        vectors[name] = np.array([math.cos(angle), math.sin(angle)])
        names.append(name)
    return PredicateVectorSpace(LookupEmbedding(vectors)), names


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6))
def test_path_similarity_bounded_by_edge_extremes(path_similarity, similarities):
    space, names = _space_with(similarities)
    value = path_similarity(space, "query", names)
    clamped = [clamp_similarity(s) for s in similarities]
    assert min(clamped) - 1e-6 <= value <= max(clamped) + 1e-6


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6), st.randoms())
def test_path_similarity_is_order_invariant(path_similarity, similarities, random):
    space, names = _space_with(similarities)
    shuffled = list(names)
    random.shuffle(shuffled)
    assert path_similarity(space, "query", names) == pytest.approx(
        path_similarity(space, "query", shuffled)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.05, 0.9), min_size=1, max_size=5),
    st.floats(0.05, 0.09),
)
def test_path_similarity_monotone_in_each_edge(path_similarity, similarities, bump):
    """Raising any single edge similarity never lowers Eq. 2."""
    space_low, names = _space_with(similarities)
    base = path_similarity(space_low, "query", names)
    for index in range(len(similarities)):
        raised = list(similarities)
        raised[index] = min(1.0, raised[index] + bump)
        space_high, names_high = _space_with(raised)
        assert path_similarity(space_high, "query", names_high) >= base - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 1.0), st.integers(1, 8))
def test_path_similarity_of_identical_edges_is_the_edge(path_similarity, value, length):
    space, names = _space_with([value] * length)
    assert path_similarity(space, "query", names) == pytest.approx(
        clamp_similarity(value), abs=1e-9
    )


# ---------------------------------------------------------------------------
# Filters and GROUP-BY
# ---------------------------------------------------------------------------
def _node_with(value: float):
    kg = KnowledgeGraph()
    node_id = kg.add_node("n", ["T"], attributes={"a": value})
    return kg.node(node_id)


@settings(max_examples=80, deadline=None)
@given(_finite, _finite, _finite)
def test_filter_matches_iff_within_bounds(lower, upper, value):
    assume(lower <= upper)
    filter_ = Filter("a", lower=lower, upper=upper)
    assert filter_.matches(_node_with(value)) == (lower <= value <= upper)


@settings(max_examples=40, deadline=None)
@given(_finite)
def test_filter_rejects_missing_and_nan(value):
    filter_ = Filter("a", lower=value)
    kg = KnowledgeGraph()
    bare = kg.node(kg.add_node("bare", ["T"]))
    assert not filter_.matches(bare)
    assert not filter_.matches(_node_with(math.nan))


@settings(max_examples=80, deadline=None)
@given(_finite, st.floats(0.001, 1e4))
def test_group_by_bin_contains_its_value(value, bin_width):
    group_by = GroupBy("a", bin_width=bin_width)
    key = group_by.key_for(_node_with(value))
    assert key is not None
    assert key <= value < key + bin_width * (1.0 + 1e-9) + 1e-9


@settings(max_examples=40, deadline=None)
@given(_finite)
def test_group_by_categorical_key_is_value(value):
    group_by = GroupBy("a")
    assert group_by.key_for(_node_with(value)) == value


# ---------------------------------------------------------------------------
# exact_aggregate
# ---------------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(_values)
def test_exact_aggregate_identities(values):
    count = exact_aggregate(AggregateFunction.COUNT, values)
    total = exact_aggregate(AggregateFunction.SUM, values)
    mean = exact_aggregate(AggregateFunction.AVG, values)
    low = exact_aggregate(AggregateFunction.MIN, values)
    high = exact_aggregate(AggregateFunction.MAX, values)
    assert count == len(values)
    assert total == pytest.approx(sum(values))
    assert mean == pytest.approx(sum(values) / len(values))
    tolerance = 1e-9 * max(1.0, abs(low), abs(high))  # fp summation slack
    assert low - tolerance <= mean <= high + tolerance
    assert mean * count == pytest.approx(total, abs=1e-6 * max(1.0, abs(total)))


# ---------------------------------------------------------------------------
# Theorem 2
# ---------------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(st.floats(1e-6, 1e9), st.floats(1e-4, 0.5))
def test_theorem2_target_is_below_naive_bound(estimate, error_bound):
    """eb/(1+eb) < eb: the Theorem-2 target is the tighter of the two
    half-width cases."""
    target = moe_target(estimate, error_bound)
    assert 0.0 < target < estimate * error_bound


@settings(max_examples=80, deadline=None)
@given(st.floats(1e-6, 1e9), st.floats(1e-4, 0.5), st.floats(0.0, 1e9))
def test_satisfies_error_bound_agrees_with_target(estimate, error_bound, moe):
    expected = moe <= moe_target(estimate, error_bound)
    assert satisfies_error_bound(moe, estimate, error_bound) == expected


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------
def test_normal_critical_value_monotone_in_confidence():
    values = [normal_critical_value(level) for level in (0.80, 0.90, 0.95, 0.99)]
    assert values == sorted(values)
    assert values[2] == pytest.approx(1.96, abs=0.01)


@settings(max_examples=60, deadline=None)
@given(_finite, st.floats(0.0, 1e6), st.floats(0.5, 0.999))
def test_confidence_interval_contains_its_estimate(estimate, moe, level):
    interval = ConfidenceInterval(estimate=estimate, moe=moe, confidence_level=level)
    assert interval.lower <= interval.estimate <= interval.upper
    assert interval.upper - interval.lower == pytest.approx(2.0 * moe, abs=1e-9)
