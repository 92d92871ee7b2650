"""Tests for path similarity (Eq. 2-3), matching, and greedy validation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import KnowledgeGraph
from repro.semantics import (
    SIMILARITY_FLOOR,
    CorrectnessValidator,
    best_matches_from,
    clamp_similarity,
)
from repro.semantics.matching import best_sums_by_length


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
    """Eq. 2 as the production row computes it."""

    def test_example_3(self, toy, path_similarity):
        """The paper's Example 3: geomean(0.98, 0.81) ~ 0.89."""
        value = path_similarity(toy.space, "product", ["assembly", "country"])
        assert value == pytest.approx(math.sqrt(0.98 * 0.81), abs=1e-6)

    def test_single_edge(self, toy, path_similarity):
        assert path_similarity(toy.space, "product", ["assembly"]) == pytest.approx(
            0.98, abs=1e-9
        )

    def test_geometric_mean_non_monotone(self, toy, path_similarity):
        """Adding a high-similarity edge can RAISE the mean (paper remark 2),
        so the row keeps the longer match: s -designer-> a loses to
        s -designer-> m -assembly-> a."""
        kg = KnowledgeGraph()
        s, m, a = (kg.add_node(name, ["T"]) for name in "sma")
        kg.add_edge(s, "designer", a)
        kg.add_edge(s, "designer", m)
        kg.add_edge(m, "assembly", a)
        outcome = CorrectnessValidator(
            kg, toy.space, s, "product", max_length=2
        ).validate(a)
        short = path_similarity(toy.space, "product", ["designer"])
        assert outcome.similarity > short
        assert outcome.similarity == pytest.approx(
            path_similarity(toy.space, "product", ["designer", "assembly"])
        )
        assert outcome.best_length == 2

    @given(predicates=st.lists(
        st.sampled_from(["assembly", "country", "designer", "misc"]),
        min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_similarity_bounded(self, toy, path_similarity, predicates):
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

    def test_match_paths_are_consistent(self, toy):
        matches = best_matches_from(toy.kg, toy.space, "product", toy.germany, 2)
        for node, match in matches.items():
            assert match.node_path[0] == toy.germany
            assert match.node_path[-1] == node
            assert len(match.edge_path) == match.length <= 2

    def test_best_match_unreachable(self, toy):
        """A node farther than the length bound has no match: noise nodes
        hang off Germany (1 hop) or off a company (2 hops)."""
        near = [
            node
            for node in toy.noise_nodes
            if toy.kg.neighbor_ids(node) == [toy.germany]
        ]
        far = [node for node in toy.noise_nodes if node not in near]
        assert near and far
        matches = best_matches_from(toy.kg, toy.space, "product", toy.germany, 1)
        assert set(near) <= set(matches)
        assert not set(far) & set(matches)
        wider = best_matches_from(toy.kg, toy.space, "product", toy.germany, 2)
        assert set(far) <= set(wider)

    def test_invalid_length(self, toy):
        with pytest.raises(ValueError):
            best_matches_from(toy.kg, toy.space, "product", toy.germany, 0)

    def test_per_length_sums_give_the_best_match(self, toy):
        """The best mean over the per-length sums is the best match, over
        the same reached nodes; the source is never recorded."""
        exhaustive = best_matches_from(toy.kg, toy.space, "product", toy.germany, 3)
        sums = best_sums_by_length(toy.kg, toy.space, "product", toy.germany, 3)
        assert set(sums) == set(exhaustive) and toy.germany not in sums
        for node, ((first, second, third),) in sums.items():
            best = max(
                math.exp(total / length)
                for length, total in ((1, first), (2, second), (3, third))
            )
            assert best == pytest.approx(exhaustive[node].similarity, rel=1e-12)
            assert sums[node][0][exhaustive[node].length - 1] > -math.inf

    def test_offsets_start_every_sum(self, toy):
        """Each offset starts its own running sums, added in path order."""
        plain = best_sums_by_length(toy.kg, toy.space, "product", toy.germany, 2)
        offset = best_sums_by_length(
            toy.kg, toy.space, "product", toy.germany, 2, offsets=(0.0, -1.5)
        )
        assert set(plain) == set(offset)
        for node, (zero, shifted) in offset.items():
            assert zero == plain[node][0]
            for base, moved in zip(zero, shifted):
                assert moved == pytest.approx(base - 1.5, rel=1e-12) or (
                    base == moved == -math.inf
                )


class TestCorrectnessValidator:
    """The exact Eq. 3 row: Definition 4's best path within the bound."""

    @pytest.fixture
    def bound(self, toy):
        """Binds validators to Germany and ``product``."""
        from repro.semantics.validation import CorrectnessValidator

        return lambda **overrides: CorrectnessValidator(
            toy.kg, toy.space, toy.germany, "product", **overrides
        )

    def test_direct_answer_validates(self, toy, bound):
        outcome = bound().validate(toy.correct_cars[0])
        assert outcome.similarity == pytest.approx(0.98, abs=1e-6)
        assert outcome.best_length == 1
        assert outcome.is_correct(0.85)

    def test_via_company_answer_validates(self, toy, bound):
        outcome = bound().validate(toy.correct_cars[1])
        assert outcome.is_correct(0.85)
        assert outcome.best_length == 2

    def test_near_miss_never_false_positive(self, toy, bound):
        """Incorrect answers never clear tau (their best path does not)."""
        validator = bound()
        for car in toy.near_miss_cars:
            assert not validator.validate(car).is_correct(0.85)

    def test_validate_batch_is_aligned_with_its_answers(self, toy, bound):
        answers = [toy.correct_cars[0], toy.correct_cars[0], toy.correct_cars[2]]
        validator = bound()
        batch = validator.validate_batch(answers)
        assert len(batch) == 3
        assert batch.answers.tolist() == answers
        for position, answer in enumerate(answers):
            assert batch.outcome(position) == validator.validate(answer)

    def test_invalid_parameters(self, bound):
        with pytest.raises(ValueError):
            bound(max_length=0)

    def test_unreachable_answer(self, toy, bound):
        outcome = bound(max_length=1).validate(toy.correct_cars[1])
        # via-company car is 2 hops away; with max_length=1 nothing is found
        assert outcome.best_length == 0
        assert outcome.similarity == 0.0

    def test_row_is_read_only_and_built_once(self, bound):
        validator = bound()
        similarity, best_length = validator.row()
        assert validator.row()[0] is similarity
        assert not similarity.flags.writeable
        assert not best_length.flags.writeable


    def test_racing_readers_of_a_cold_row_share_one_build(self, toy):
        """Threads racing on a cold row — more than there are cores — wait
        for the first builder (its build holds until all have entered
        ``row``), so the row is built once and all read the same arrays."""
        import sys
        import threading

        from repro.semantics.validation import CorrectnessValidator

        readers = 4
        all_in = threading.Event()
        entered = []

        class Counting(CorrectnessValidator):
            builds = 0

            def row(self):
                entered.append(threading.get_ident())
                if len(entered) == readers:
                    all_in.set()
                return super().row()

            def _build_row(self):
                Counting.builds += 1
                all_in.wait(timeout=10.0)
                return super()._build_row()

        validator = Counting(toy.kg, toy.space, toy.germany, "product")
        rows: list = [None] * readers

        def read(slot: int) -> None:
            rows[slot] = validator.row()

        threads = [
            threading.Thread(target=read, args=(slot,)) for slot in range(readers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all_in.is_set() and Counting.builds == 1
        similarity, best_length = rows[0]
        assert all(row[0] is similarity and row[1] is best_length for row in rows)

class TestPaperSearch:
    """The paper's greedy r-path search (§IV-B2), which the figures bind."""

    @pytest.fixture
    def bound(self, toy):
        """Binds searches to Germany and the closed-form stationary
        visiting map over the toy scope."""
        from repro.sampling.scope import build_scope
        from repro.sampling.strength import strength_distribution
        from repro.semantics.reference import ReferenceValidator

        scope = build_scope(toy.kg, toy.germany, 3, frozenset({"Automobile"}))
        probabilities = strength_distribution(toy.kg, toy.space, scope, "product")
        visiting = {
            node: float(p) for node, p in zip(scope.nodes, probabilities) if p > 0
        }
        return lambda **overrides: ReferenceValidator(
            toy.kg, toy.space, toy.germany, "product", visiting, **overrides
        )

    def test_direct_answer_validates(self, toy, bound):
        similarity, paths, _expansions, length = bound().search(toy.correct_cars[0])
        assert paths >= 1
        assert similarity == pytest.approx(0.98, abs=1e-6)
        assert length == 1

    def test_near_miss_never_false_positive(self, toy, bound):
        """No false positives: incorrect answers can never clear tau."""
        validator = bound(expansion_budget=5000)
        for car in toy.near_miss_cars:
            assert not validator.validate(car).is_correct(0.85)

    def test_stop_threshold_short_circuits(self, toy, bound):
        full = bound(repeat_factor=5).search(toy.correct_cars[0])
        quick = bound(repeat_factor=5, stop_threshold=0.9).search(
            toy.correct_cars[0]
        )
        assert quick[0] >= 0.9
        assert quick[2] <= full[2]

    def test_repeat_factor_monotone_similarity(self, toy, bound):
        """More paths can only improve the best similarity found."""
        results = [
            bound(repeat_factor=r, expansion_budget=3000)
            .validate(toy.near_miss_cars[0])
            .similarity
            for r in (1, 3, 5)
        ]
        assert results[0] <= results[1] <= results[2]

    def test_never_above_the_exact_row(self, toy, bound):
        """A greedy search finds some of an answer's paths: its similarity
        is at most the exact one."""
        from repro.semantics.validation import CorrectnessValidator

        exact = CorrectnessValidator(toy.kg, toy.space, toy.germany, "product")
        search = bound(repeat_factor=1)
        for car in (*toy.correct_cars, *toy.near_miss_cars):
            assert search.validate(car).similarity <= exact.validate(car).similarity

    def test_batch_equals_per_answer(self, toy, bound):
        answers = [*toy.correct_cars, toy.correct_cars[0]]
        batch = bound().validate_batch(answers)
        assert batch.answers.tolist() == answers
        for position, answer in enumerate(answers):
            assert batch.outcome(position) == bound().validate(answer)

    def test_invalid_repeat_factor(self, bound):
        with pytest.raises(ValueError):
            bound(repeat_factor=0)

    def test_unreachable_answer(self, toy, bound):
        similarity, paths, _expansions, length = bound(max_length=1).search(
            toy.correct_cars[1]
        )
        assert (similarity, paths, length) == (0.0, 0, 0)
