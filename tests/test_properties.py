"""Property-based tests on the core statistical and graph invariants.

These go beyond the unit suites: hypothesis drives randomised populations
and graph shapes through the estimators, samplers and similarity machinery
and asserts the paper's theoretical claims (unbiasedness, stochasticity,
stationarity, termination soundness) hold for *arbitrary* inputs, not just
the handcrafted fixtures.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.estimation.accuracy import moe_target, satisfies_error_bound
from repro.estimation.estimators import (
    EstimationSample,
    Normalization,
    estimate_avg,
    estimate_count,
    estimate_sum,
)
from repro.kg import KnowledgeGraph
from repro.query.aggregate import AggregateFunction


@st.composite
def population(draw):
    """A finite answer population with probabilities and correctness."""
    size = draw(st.integers(min_value=2, max_value=12))
    raw = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=size,
            max_size=size,
        )
    )
    probabilities = np.asarray(raw)
    probabilities = probabilities / probabilities.sum()
    values = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=1.0, max_value=100.0),
                min_size=size,
                max_size=size,
            )
        )
    )
    correct = np.asarray(
        draw(st.lists(st.booleans(), min_size=size, max_size=size))
    )
    assume(correct.any())
    return values, probabilities, correct


def draw_sample(rng, values, probabilities, correct, n):
    picks = rng.choice(len(values), size=n, p=probabilities)
    return EstimationSample(
        values=values[picks],
        probabilities=probabilities[picks],
        correct=correct[picks],
    )


class TestEstimatorProperties:
    @given(population(), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_count_concentrates_on_truth(self, pop, seed):
        """Hansen-Hurwitz COUNT concentrates around |A+| as n grows."""
        values, probabilities, correct = pop
        rng = np.random.default_rng(seed)
        truth = float(correct.sum())
        sample = draw_sample(rng, values, probabilities, correct, 20_000)
        estimate_value = estimate_count(sample, Normalization.SAMPLE)
        # CLT band: sigma <= max(1/p) / sqrt(n); use a generous multiple
        sigma_cap = (1.0 / probabilities.min()) / math.sqrt(20_000)
        assert abs(estimate_value - truth) < 6 * sigma_cap + 0.05 * truth

    @given(population(), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sum_concentrates_on_truth(self, pop, seed):
        values, probabilities, correct = pop
        rng = np.random.default_rng(seed)
        truth = float(values[correct].sum())
        sample = draw_sample(rng, values, probabilities, correct, 20_000)
        estimate_value = estimate_sum(sample, Normalization.SAMPLE)
        sigma_cap = (values.max() / probabilities.min()) / math.sqrt(20_000)
        assert abs(estimate_value - truth) < 6 * sigma_cap + 0.05 * max(truth, 1.0)

    @given(population(), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_avg_is_between_min_and_max(self, pop, seed):
        """The self-normalised AVG always lies inside the value range."""
        values, probabilities, correct = pop
        rng = np.random.default_rng(seed)
        sample = draw_sample(rng, values, probabilities, correct, 200)
        assume(sample.correct_draws > 0)
        average = estimate_avg(sample)
        correct_values = values[correct]
        assert correct_values.min() - 1e-9 <= average <= correct_values.max() + 1e-9

    @given(population(), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_avg_invariant_to_probability_scaling(self, pop, seed):
        """AVG is a ratio: rescaling all probabilities leaves it unchanged."""
        values, probabilities, correct = pop
        rng = np.random.default_rng(seed)
        sample = draw_sample(rng, values, probabilities, correct, 300)
        assume(sample.correct_draws > 0)
        scaled = EstimationSample(
            values=sample.values,
            probabilities=sample.probabilities * 0.5,
            correct=sample.correct,
        )
        assert estimate_avg(sample) == pytest.approx(estimate_avg(scaled))

    @given(st.floats(1.0, 1e6), st.floats(0.001, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_theorem2_soundness(self, estimate_value, error_bound):
        """Any truth inside V_hat ± target has relative error <= eb."""
        target = moe_target(estimate_value, error_bound)
        assert satisfies_error_bound(target, estimate_value, error_bound)
        for offset in (-target, 0.0, target):
            truth = estimate_value + offset
            assert abs(estimate_value - truth) / truth <= error_bound + 1e-9


@st.composite
def weighted_graph(draw):
    """A connected weighted KG with 2-20 nodes for walk properties."""
    size = draw(st.integers(min_value=2, max_value=20))
    kg = KnowledgeGraph()
    for index in range(size):
        kg.add_node(f"n{index}", ["T"])
    # spanning chain keeps it connected
    predicates = ["strong", "weak", "mid"]
    for index in range(1, size):
        kg.add_edge(index - 1, draw(st.sampled_from(predicates)), index)
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, size - 1),
                st.integers(0, size - 1),
                st.sampled_from(predicates),
            ),
            max_size=20,
        )
    )
    for subject, obj, predicate in extra:
        if subject != obj:
            kg.add_edge(subject, predicate, obj)
    return kg


@pytest.fixture(scope="module")
def walk_space():
    from repro.embedding import LookupEmbedding, PredicateVectorSpace

    return PredicateVectorSpace(
        LookupEmbedding(
            {
                "query": np.array([1.0, 0.0, 0.0]),
                "strong": np.array([0.95, np.sqrt(1 - 0.95**2), 0.0]),
                "mid": np.array([0.5, np.sqrt(1 - 0.25), 0.0]),
                "weak": np.array([0.1, 0.0, np.sqrt(1 - 0.01)]),
            }
        )
    )


class TestWalkProperties:
    @given(kg=weighted_graph())
    @settings(max_examples=25, deadline=None)
    def test_transition_rows_stochastic(self, walk_space, kg):
        from repro.sampling.scope import build_scope
        from repro.sampling.reference import ReferenceTransitionModel

        scope = build_scope(kg, 0, 3, frozenset({"T"}))
        transition = ReferenceTransitionModel(kg, scope, walk_space, "query")
        row_sums = np.asarray(transition.to_sparse().sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-9)

    @given(kg=weighted_graph())
    @settings(max_examples=25, deadline=None)
    def test_stationary_is_fixed_point(self, walk_space, kg):
        from repro.sampling.scope import build_scope
        from repro.sampling.stationary import stationary_distribution
        from repro.sampling.reference import ReferenceTransitionModel

        scope = build_scope(kg, 0, 3, frozenset({"T"}))
        transition = ReferenceTransitionModel(kg, scope, walk_space, "query")
        result = stationary_distribution(transition)
        pi = result.probabilities
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert (pi >= 0).all()
        advanced = pi @ transition.to_sparse()
        np.testing.assert_allclose(advanced, pi, atol=1e-6)

    @given(kg=weighted_graph())
    @settings(max_examples=25, deadline=None)
    def test_stationary_matches_strength_form(self, walk_space, kg):
        """Reversibility: power iteration == strength-proportional closed form."""
        from repro.sampling.scope import build_scope
        from repro.sampling.stationary import stationary_distribution
        from repro.sampling.reference import ReferenceTransitionModel
        from repro.sampling.strength import strength_distribution

        scope = build_scope(kg, 0, 3, frozenset({"T"}))
        transition = ReferenceTransitionModel(kg, scope, walk_space, "query")
        iterated = stationary_distribution(
            transition,
            tolerance=1e-13,
            max_iterations=20_000,
            require_convergence=True,
        ).probabilities
        closed = strength_distribution(kg, walk_space, scope, "query")
        np.testing.assert_allclose(iterated, closed, rtol=1e-8, atol=1e-15)


class TestMatchingProperties:
    @given(kg=weighted_graph())
    @settings(max_examples=20, deadline=None)
    def test_best_match_similarity_bounds(self, walk_space, kg):
        from repro.semantics import best_matches_from

        matches = best_matches_from(kg, walk_space, "query", 0, 3)
        for node, match in matches.items():
            assert 0.0 < match.similarity <= 1.0
            assert 1 <= match.length <= 3
            assert match.node_path[0] == 0
            assert match.node_path[-1] == node

    @given(kg=weighted_graph())
    @settings(max_examples=20, deadline=None)
    def test_longer_bound_never_reduces_similarity(self, walk_space, kg):
        """Eq. 3 is a max over more paths as the bound grows."""
        from repro.semantics import best_matches_from

        short = best_matches_from(kg, walk_space, "query", 0, 2)
        longer = best_matches_from(kg, walk_space, "query", 0, 3)
        for node, match in short.items():
            assert longer[node].similarity >= match.similarity - 1e-12
