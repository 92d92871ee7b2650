"""Tests for path similarity (Eq. 2-3), matching, and greedy validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semantics import (
    SIMILARITY_FLOOR,
    best_matches_from,
    clamp_similarity,
    find_best_match,
    match_similarity,
    path_similarity,
)
from repro.semantics.matching import best_matches_iterative
from repro.semantics.similarity import chain_similarity
from repro.semantics.validation import CorrectnessValidator


class TestClampSimilarity:
    def test_in_range_passthrough(self):
        assert clamp_similarity(0.5) == 0.5

    def test_negative_clamped(self):
        assert clamp_similarity(-0.3) == SIMILARITY_FLOOR

    def test_above_one_clamped(self):
        assert clamp_similarity(1.2) == 1.0

    @given(st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_always_in_bounds(self, value):
        assert SIMILARITY_FLOOR <= clamp_similarity(value) <= 1.0


class TestPathSimilarity:
    def test_example_3(self, toy):
        """The paper's Example 3: geomean(0.98, 0.81) ~ 0.89."""
        value = path_similarity(toy.space, "product", ["assembly", "country"])
        assert value == pytest.approx(math.sqrt(0.98 * 0.81), abs=1e-6)

    def test_single_edge(self, toy):
        assert path_similarity(toy.space, "product", ["assembly"]) == pytest.approx(
            0.98, abs=1e-9
        )

    def test_empty_path_rejected(self, toy):
        with pytest.raises(ValueError):
            path_similarity(toy.space, "product", [])

    def test_match_similarity_takes_max(self, toy):
        value = match_similarity(
            toy.space, "product", [["assembly"], ["designer", "nationality"]]
        )
        assert value == pytest.approx(0.98, abs=1e-9)

    def test_match_similarity_empty(self, toy):
        assert match_similarity(toy.space, "product", []) == 0.0

    def test_geometric_mean_non_monotone(self, toy):
        """Adding a high-similarity edge can RAISE the mean (paper remark 2)."""
        short = path_similarity(toy.space, "product", ["designer"])
        longer = path_similarity(toy.space, "product", ["designer", "assembly"])
        assert longer > short

    def test_chain_similarity_per_leg_predicates(self, toy):
        value = chain_similarity(
            toy.space,
            ["nationality", "designer"],
            [["nationality"], ["designer"]],
        )
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_chain_similarity_validates_input(self, toy):
        with pytest.raises(ValueError):
            chain_similarity(toy.space, ["a", "b"], [["a"]])
        with pytest.raises(ValueError):
            chain_similarity(toy.space, ["nationality"], [[]])

    @given(predicates=st.lists(
        st.sampled_from(["assembly", "country", "designer", "misc"]),
        min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_similarity_bounded(self, toy, predicates):
        value = path_similarity(toy.space, "product", predicates)
        assert SIMILARITY_FLOOR <= value <= 1.0


class TestBestMatches:
    def test_direct_answer_similarity_one_ish(self, toy):
        matches = best_matches_from(toy.kg, toy.space, "product", toy.germany, 3)
        direct_car = toy.correct_cars[0]  # wired assembly -> Germany
        assert matches[direct_car].similarity == pytest.approx(0.98, abs=1e-6)

    def test_via_company_similarity(self, toy):
        matches = best_matches_from(toy.kg, toy.space, "product", toy.germany, 3)
        via_car = toy.correct_cars[1]  # assembly -> company -> country
        assert matches[via_car].similarity == pytest.approx(
            math.sqrt(0.98 * 0.81), abs=1e-3
        )

    def test_near_miss_below_tau(self, toy):
        matches = best_matches_from(toy.kg, toy.space, "product", toy.germany, 3)
        for car in toy.near_miss_cars:
            assert matches[car].similarity < 0.85

    def test_targets_filtering(self, toy):
        target = toy.correct_cars[0]
        matches = best_matches_from(
            toy.kg, toy.space, "product", toy.germany, 3, targets=[target]
        )
        assert set(matches) == {target}

    def test_match_paths_are_consistent(self, toy):
        matches = best_matches_from(toy.kg, toy.space, "product", toy.germany, 2)
        for node, match in matches.items():
            assert match.node_path[0] == toy.germany
            assert match.node_path[-1] == node
            assert len(match.edge_path) == match.length <= 2

    def test_find_best_match_unreachable(self, toy):
        isolated_kg_target = toy.noise_nodes[0]
        match = find_best_match(
            toy.kg, toy.space, "product", toy.germany, isolated_kg_target, 1
        )
        # noise nodes attached to companies are 2 hops away: unreachable at 1
        if toy.kg.neighbor_ids(isolated_kg_target) == [toy.germany]:
            assert match is not None
        else:
            assert match is None

    def test_invalid_length(self, toy):
        with pytest.raises(ValueError):
            best_matches_from(toy.kg, toy.space, "product", toy.germany, 0)

    def test_iterative_deepening_records_direct_edges(self, toy):
        """Even with a tiny budget the depth-1 edges must be present."""
        matches = best_matches_iterative(
            toy.kg, toy.space, "product", toy.correct_cars[0], 3, budget_per_level=5
        )
        assert toy.germany in matches
        assert matches[toy.germany].length == 1

    def test_exhaustive_equals_iterative_with_big_budget(self, toy):
        exhaustive = best_matches_from(toy.kg, toy.space, "product", toy.germany, 3)
        iterative = best_matches_iterative(
            toy.kg, toy.space, "product", toy.germany, 3, budget_per_level=10**7
        )
        assert set(exhaustive) == set(iterative)
        for node in exhaustive:
            assert exhaustive[node].similarity == pytest.approx(
                iterative[node].similarity, abs=1e-12
            )


class TestCorrectnessValidator:
    @pytest.fixture
    def visiting(self, toy):
        """A strength-like visiting map over the toy scope."""
        from repro.sampling import build_scope, stationary_distribution
        from repro.sampling.transition import TransitionModel

        scope = build_scope(toy.kg, toy.germany, 3, frozenset({"Automobile"}))
        transition = TransitionModel(toy.kg, scope, toy.space, "product")
        result = stationary_distribution(transition)
        return {
            node: float(p)
            for node, p in zip(scope.nodes, result.probabilities)
            if p > 0
        }

    def test_direct_answer_validates(self, toy, visiting):
        validator = CorrectnessValidator(toy.kg, toy.space)
        outcome = validator.validate(
            toy.germany, toy.correct_cars[0], "product", visiting
        )
        assert outcome.paths_found >= 1
        assert outcome.similarity == pytest.approx(0.98, abs=1e-6)
        assert outcome.best_length == 1
        assert outcome.is_correct(0.85)

    def test_via_company_answer_validates(self, toy, visiting):
        validator = CorrectnessValidator(toy.kg, toy.space)
        outcome = validator.validate(
            toy.germany, toy.correct_cars[1], "product", visiting
        )
        assert outcome.is_correct(0.85)
        assert outcome.best_length == 2

    def test_near_miss_never_false_positive(self, toy, visiting):
        """No false positives: incorrect answers can never clear tau."""
        validator = CorrectnessValidator(toy.kg, toy.space, expansion_budget=5000)
        for car in toy.near_miss_cars:
            outcome = validator.validate(toy.germany, car, "product", visiting)
            assert not outcome.is_correct(0.85)

    def test_stop_threshold_short_circuits(self, toy, visiting):
        validator = CorrectnessValidator(toy.kg, toy.space, repeat_factor=5)
        full = validator.validate(toy.germany, toy.correct_cars[0], "product", visiting)
        quick = validator.validate(
            toy.germany, toy.correct_cars[0], "product", visiting, stop_threshold=0.9
        )
        assert quick.similarity >= 0.9
        assert quick.expansions <= full.expansions

    def test_repeat_factor_monotone_similarity(self, toy, visiting):
        """More paths can only improve the best similarity found."""
        results = []
        for r in (1, 3, 5):
            validator = CorrectnessValidator(
                toy.kg, toy.space, repeat_factor=r, expansion_budget=3000
            )
            outcome = validator.validate(
                toy.germany, toy.near_miss_cars[0], "product", visiting
            )
            results.append(outcome.similarity)
        assert results[0] <= results[1] <= results[2]

    def test_validate_batch_dedupes(self, toy, visiting):
        validator = CorrectnessValidator(toy.kg, toy.space)
        answers = [toy.correct_cars[0], toy.correct_cars[0], toy.correct_cars[2]]
        outcomes = validator.validate_batch(toy.germany, answers, "product", visiting)
        assert set(outcomes) == {toy.correct_cars[0], toy.correct_cars[2]}

    def test_invalid_parameters(self, toy):
        with pytest.raises(ValueError):
            CorrectnessValidator(toy.kg, toy.space, repeat_factor=0)
        with pytest.raises(ValueError):
            CorrectnessValidator(toy.kg, toy.space, max_length=0)
        with pytest.raises(ValueError):
            CorrectnessValidator(toy.kg, toy.space, branch_cap=0)

    def test_unreachable_answer(self, toy, visiting):
        validator = CorrectnessValidator(toy.kg, toy.space, max_length=1)
        outcome = validator.validate(
            toy.germany, toy.correct_cars[1], "product", visiting
        )
        # via-company car is 2 hops away; with max_length=1 nothing is found
        assert outcome.paths_found == 0
        assert outcome.similarity == 0.0
