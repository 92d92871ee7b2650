"""Tests for scopes, transition matrices, stationary distributions, sampling."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, MappingNodeNotFoundError, SamplingError
from repro.sampling import (
    AnswerCollector,
    RandomWalker,
    build_scope,
    stationary_distribution,
)
from repro.sampling.collector import AnswerDistribution, restrict_to_answers
from repro.sampling.scope import SamplingScope, resolve_mapping_node
from repro.sampling.strength import strength_distribution
from repro.sampling.topology import (
    cnarw_transition_model,
    node2vec_visit_distribution,
    uniform_transition_model,
)
from repro.sampling.transition import TransitionModel


def converged_oracle(transition):
    """The power iteration run until it really is the fix-point (the
    default budget stops at residual 1e-10 or 1000 steps, whichever
    comes first — too loose for an ``rtol`` of 1e-8 on small masses)."""
    return stationary_distribution(
        transition, tolerance=1e-13, max_iterations=20_000, require_convergence=True
    )


@pytest.fixture(scope="module")
def toy_scope(toy):
    return build_scope(toy.kg, toy.germany, 3, frozenset({"Automobile"}))


@pytest.fixture(scope="module")
def toy_transition(toy, toy_scope):
    return TransitionModel(toy.kg, toy_scope, toy.space, "product")


class TestScope:
    def test_source_and_bound(self, toy, toy_scope):
        assert toy_scope.source == toy.germany
        assert toy_scope.n_bound == 3
        assert toy_scope.contains(toy.germany)

    def test_candidates_are_type_matched(self, toy, toy_scope):
        for candidate in toy_scope.candidate_answers:
            assert toy.kg.node(candidate).has_type("Automobile")

    def test_all_cars_in_scope(self, toy, toy_scope):
        candidates = set(toy_scope.candidate_answers)
        assert set(toy.correct_cars) <= candidates
        assert set(toy.near_miss_cars) <= candidates

    def test_source_not_a_candidate(self, toy, toy_scope):
        assert toy.germany not in toy_scope.candidate_answers

    def test_index_mapping(self, toy_scope):
        index = toy_scope.index_of()
        assert len(index) == toy_scope.size
        for node, position in index.items():
            assert toy_scope.nodes[position] == node

    def test_invalid_bound(self, toy):
        with pytest.raises(SamplingError):
            build_scope(toy.kg, toy.germany, 0, frozenset({"Automobile"}))

    def test_resolve_mapping_node(self, toy):
        assert (
            resolve_mapping_node(toy.kg, "Germany", frozenset({"Country"}))
            == toy.germany
        )

    def test_resolve_unknown_name(self, toy):
        with pytest.raises(MappingNodeNotFoundError):
            resolve_mapping_node(toy.kg, "Atlantis", frozenset({"Country"}))

    def test_resolve_type_mismatch(self, toy):
        with pytest.raises(MappingNodeNotFoundError):
            resolve_mapping_node(toy.kg, "Germany", frozenset({"Automobile"}))


class TestTransitionModel:
    def test_rows_are_stochastic(self, toy_transition):
        assert toy_transition.validate_stochastic()

    def test_higher_similarity_higher_probability(self, toy, toy_transition):
        """Eq. 5: p_ij proportional to predicate similarity (Example 4)."""
        index = toy_transition.scope.index_of()
        source_index = index[toy.germany]
        direct_car = index[toy.correct_cars[0]]  # assembly, 0.98
        person = index[toy.people[0]]  # nationality, 0.52
        assert toy_transition.probability(source_index, direct_car) > (
            toy_transition.probability(source_index, person)
        )

    def test_self_loop_on_source(self, toy, toy_transition):
        index = toy_transition.scope.index_of()
        source_index = index[toy.germany]
        assert toy_transition.probability(source_index, source_index) > 0.0

    def test_sparse_matrix_matches_rows(self, toy_transition):
        matrix = toy_transition.to_sparse()
        assert matrix.shape == (toy_transition.size, toy_transition.size)
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-9)

    def test_invalid_self_loop_weight(self, toy, toy_scope):
        with pytest.raises(SamplingError):
            TransitionModel(
                toy.kg, toy_scope, toy.space, "product", self_loop_weight=0.0
            )


class TestStationary:
    def test_converges_and_sums_to_one(self, toy_transition):
        result = stationary_distribution(toy_transition)
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert result.residual < 1e-9
        assert result.iterations >= 1

    def test_fixed_point_property(self, toy_transition):
        """pi P = pi at convergence (Eq. 6)."""
        result = stationary_distribution(toy_transition)
        pi = result.probabilities
        advanced = pi @ toy_transition.to_sparse()
        np.testing.assert_allclose(advanced, pi, atol=1e-7)

    def test_matches_strength_closed_form(self, toy, toy_scope, toy_transition):
        """Reversible walk: stationary == strength-proportional distribution."""
        result = converged_oracle(toy_transition)
        closed_form = strength_distribution(toy.kg, toy.space, toy_scope, "product")
        np.testing.assert_allclose(result.probabilities, closed_form, rtol=1e-8)

    def test_closed_form_counts_the_mapping_nodes_self_loop(self, toy, toy_scope):
        """A heavy Lemma-2 self-loop moves the source's mass in both forms."""
        transition = TransitionModel(
            toy.kg, toy_scope, toy.space, "product", self_loop_weight=5.0
        )
        heavy = strength_distribution(
            toy.kg, toy.space, toy_scope, "product", self_loop_weight=5.0
        )
        light = strength_distribution(toy.kg, toy.space, toy_scope, "product")
        assert toy_scope.nodes[0] == toy_scope.source
        assert heavy[0] > 1.05 * light[0]
        np.testing.assert_allclose(
            converged_oracle(transition).probabilities, heavy, rtol=1e-8
        )

    def test_isolated_scope_node_has_mass_zero_in_both_forms(self, toy_world_factory):
        """A scope node with no in-scope edge is never reached from the
        source: 0 under iteration, strength 0 in closed form, and dropped
        from the answer support."""
        world = toy_world_factory()
        island = world.kg.add_node("Island_Car", ["Automobile"])
        reached = build_scope(world.kg, world.germany, 3, frozenset({"Automobile"}))
        assert island not in reached.nodes
        scope = SamplingScope(
            source=reached.source,
            n_bound=reached.n_bound,
            distances={**reached.distances, island: 3},
            nodes=reached.nodes + (island,),
            candidate_answers=reached.candidate_answers + (island,),
        )
        closed_form = strength_distribution(world.kg, world.space, scope, "product")
        iterated = converged_oracle(
            TransitionModel(world.kg, scope, world.space, "product")
        ).probabilities
        assert closed_form[-1] == 0.0 and iterated[-1] == 0.0
        np.testing.assert_allclose(iterated, closed_form, rtol=1e-8)
        assert island not in restrict_to_answers(scope, closed_form).answers

    def test_unconverged_iterate_is_flagged_or_refused(self, toy_transition):
        starved = stationary_distribution(toy_transition, max_iterations=3)
        assert not starved.converged and starved.residual >= 1e-10
        assert stationary_distribution(toy_transition).converged
        with pytest.raises(ConvergenceError):
            stationary_distribution(
                toy_transition, max_iterations=3, require_convergence=True
            )

    def test_as_mapping_drops_zeros(self, toy_transition):
        result = stationary_distribution(toy_transition)
        mapping = result.as_mapping(toy_transition.scope.nodes)
        assert all(probability > 0 for probability in mapping.values())

    def test_walker_visits_match_stationary(self, toy_transition):
        """The literal walking-with-rejection walker agrees with Eq. 6."""
        result = stationary_distribution(toy_transition)
        walker = RandomWalker(toy_transition, seed=5)
        record = walker.walk(60_000, burn_in=2_000)
        empirical = record.empirical_distribution()
        # Compare on the highest-probability states (the rest are noisy).
        top = np.argsort(-result.probabilities)[:10]
        np.testing.assert_allclose(
            empirical[top], result.probabilities[top], atol=0.02
        )


class TestClosedFormIsProduction:
    """S1 of every semantic plan is the closed form; the iteration is its oracle."""

    @pytest.mark.parametrize(
        "hub, hub_type, predicate, target",
        [
            ("Spain", "Country", "bornIn", "SoccerPlayer"),
            # the default 1000-step budget leaves this scope unconverged
            ("FC_Barcelona", "SoccerClub", "playsFor", "SoccerPlayer"),
            ("FC_Barcelona", "SoccerClub", "academy", "Academy"),
        ],
    )
    def test_matches_converged_iteration_on_yago2_scopes(
        self, hub, hub_type, predicate, target
    ):
        from repro.datasets import ALL_PRESETS
        from repro.embedding.predicate_space import PredicateVectorSpace

        bundle = ALL_PRESETS["yago2-like"](seed=0, scale=1.0)
        space = PredicateVectorSpace(bundle.embedding)
        source = resolve_mapping_node(bundle.kg, hub, frozenset({hub_type}))
        scope = build_scope(bundle.kg, source, 3, frozenset({target}))
        closed_form = strength_distribution(bundle.kg, space, scope, predicate)
        oracle = converged_oracle(TransitionModel(bundle.kg, scope, space, predicate))
        np.testing.assert_allclose(oracle.probabilities, closed_form, rtol=1e-8)

    def test_semantic_plan_builds_never_iterate(self, toy, monkeypatch):
        """Simple and chain ``plan_for`` assemble no transition matrix and
        run no power iteration (the CNARW ablation still may)."""
        from repro import EngineConfig
        from repro.core import planner as planner_module
        from repro.core.plan import PlanCache
        from repro.query.graph import QueryGraph

        calls = []
        for holder, name in (
            (planner_module, "stationary_distribution"),
            (TransitionModel, "__init__"),
            (TransitionModel, "to_sparse"),
        ):
            monkeypatch.setattr(
                holder, name, lambda *a, _name=name, **k: calls.append(_name)
            )
        planner = planner_module.QueryPlanner(
            toy.kg, toy.space, EngineConfig(seed=7), cache=PlanCache()
        )
        chain = QueryGraph.chain(
            "Germany",
            ["Country"],
            [("nationality", ["Person"]), ("designer", ["Automobile"])],
        ).components[0]
        simple = planner.plan_for(toy.count_query().query.components[0])
        chained = planner.plan_for(chain)
        assert planner.build_count == 2 and calls == []
        assert simple.walk_iterations == 0 and chained.chain is not None
        assert simple.visiting[toy.germany] > 0 and chained.visiting[toy.germany] > 0


class TestAnswerDistribution:
    def test_restrict_to_answers(self, toy, toy_scope, toy_transition):
        result = stationary_distribution(toy_transition)
        distribution = restrict_to_answers(toy_scope, result.probabilities)
        assert distribution.probabilities.sum() == pytest.approx(1.0)
        assert set(distribution.answers) <= set(toy_scope.candidate_answers)

    def test_candidate_outside_the_scope_is_refused(self, toy_scope):
        """A hand-built scope whose candidate is not one of its nodes must
        not read another node's probability."""
        stray = max(toy_scope.nodes) + 5
        for candidates in ((stray,), toy_scope.candidate_answers + (stray,)):
            broken = SamplingScope(
                source=toy_scope.source,
                n_bound=toy_scope.n_bound,
                distances=toy_scope.distances,
                nodes=toy_scope.nodes[:-1],
                candidate_answers=candidates,
            )
            uniform = np.full(len(broken.nodes), 1.0 / len(broken.nodes))
            with pytest.raises(SamplingError, match="outside the scope"):
                restrict_to_answers(broken, uniform)

    def test_correct_cars_have_higher_mass(self, toy, toy_scope, toy_transition):
        """Semantic-aware sampling prefers semantically similar answers."""
        result = stationary_distribution(toy_transition)
        distribution = restrict_to_answers(toy_scope, result.probabilities)
        correct_mass = sum(
            distribution.probability_of(car) for car in toy.correct_cars
        )
        near_miss_mass = sum(
            distribution.probability_of(car) for car in toy.near_miss_cars
        )
        assert correct_mass > 4 * near_miss_mass

    def test_validation_errors(self):
        with pytest.raises(SamplingError):
            AnswerDistribution(np.array([1]), np.array([0.5, 0.5]))
        with pytest.raises(SamplingError):
            AnswerDistribution(np.array([], dtype=np.int64), np.array([]))
        with pytest.raises(SamplingError):
            AnswerDistribution(np.array([1, 2]), np.array([0.7, 0.7]))

    def test_sign_and_finiteness_are_checked_where_pi_is_built(self):
        """``collect_indices`` no longer goes through ``Generator.choice``,
        which refused such a vector on every draw — so pi_A refuses it."""
        with pytest.raises(SamplingError, match="non-negative"):
            AnswerDistribution(np.array([1, 2, 3]), np.array([0.75, -0.25, 0.5]))
        for bad in (np.nan, np.inf):
            with pytest.raises(SamplingError):
                AnswerDistribution(np.array([1, 2]), np.array([bad, 1.0]))

    def test_probability_of_unknown(self):
        distribution = AnswerDistribution(np.array([5]), np.array([1.0]))
        assert distribution.probability_of(99) == 0.0


class TestCollector:
    @pytest.fixture(scope="class")
    def distribution(self):
        return AnswerDistribution(
            answers=np.array([10, 20, 30]),
            probabilities=np.array([0.6, 0.3, 0.1]),
        )

    def test_collect_respects_distribution(self, distribution):
        collector = AnswerCollector(distribution, seed=1)
        draws = collector.collect(6_000)
        share_10 = sum(1 for d in draws if d.node_id == 10) / len(draws)
        assert share_10 == pytest.approx(0.6, abs=0.03)

    def test_draws_carry_probabilities(self, distribution):
        collector = AnswerCollector(distribution, seed=2)
        for draw in collector.collect(50):
            assert draw.probability == pytest.approx(
                distribution.probability_of(draw.node_id)
            )

    def test_collect_indices_bounds(self, distribution):
        collector = AnswerCollector(distribution, seed=3)
        indices = collector.collect_indices(100)
        assert indices.min() >= 0 and indices.max() < 3

    def test_invalid_sizes(self, distribution):
        collector = AnswerCollector(distribution)
        with pytest.raises(SamplingError):
            collector.collect(0)
        with pytest.raises(SamplingError):
            collector.collect_little_samples(0, 5)

    def test_little_samples(self, distribution):
        collector = AnswerCollector(distribution, seed=4)
        littles = collector.collect_little_samples(3, 7)
        assert len(littles) == 3
        assert all(len(sample) == 7 for sample in littles)

    def test_determinism(self, distribution):
        first = AnswerCollector(distribution, seed=9).collect_indices(20)
        second = AnswerCollector(distribution, seed=9).collect_indices(20)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("support_size", [1, 3, 2_000])
    def test_collect_indices_is_generator_choice(self, support_size):
        """The once-built CDF draws what ``Generator.choice(p=pi_A)`` draws:
        equal indices and an equal generator state after every call."""
        weights = np.random.default_rng(support_size).random(support_size)
        if support_size > 7:
            weights[::7] = 0.0  # zero-mass entries sit on flat CDF steps
        distribution = AnswerDistribution(
            answers=np.arange(support_size), probabilities=weights / weights.sum()
        )
        ours, reference = np.random.default_rng(11), np.random.default_rng(11)
        collector = AnswerCollector(distribution, seed=ours)
        for size in (1, 7, 10_000, 7, 7, 7):
            drawn = collector.collect_indices(size)
            expected = reference.choice(
                support_size, size=size, p=distribution.probabilities
            )
            assert drawn.dtype == expected.dtype
            np.testing.assert_array_equal(drawn, expected)
            assert ours.bit_generator.state == reference.bit_generator.state


class TestTopologySamplers:
    def test_uniform_rows_stochastic(self, toy, toy_scope):
        model = uniform_transition_model(toy.kg, toy_scope)
        assert model.validate_stochastic()

    def test_cnarw_rows_stochastic(self, toy, toy_scope):
        model = cnarw_transition_model(toy.kg, toy_scope)
        assert model.validate_stochastic()

    def test_cnarw_ignores_semantics(self, toy, toy_scope):
        """Topology samplers give near-miss cars the same visit mass."""
        model = cnarw_transition_model(toy.kg, toy_scope)
        result = stationary_distribution(model)
        distribution = restrict_to_answers(toy_scope, result.probabilities)
        direct = distribution.probability_of(toy.correct_cars[0])
        near_miss = distribution.probability_of(toy.near_miss_cars[0])
        assert near_miss == pytest.approx(direct, rel=0.5)

    def test_node2vec_distribution(self, toy, toy_scope):
        visits = node2vec_visit_distribution(toy.kg, toy_scope, steps=4_000, seed=0)
        assert visits.sum() == pytest.approx(1.0)
        assert (visits >= 0).all()

    def test_node2vec_invalid_parameters(self, toy, toy_scope):
        with pytest.raises(SamplingError):
            node2vec_visit_distribution(toy.kg, toy_scope, return_parameter=0)
