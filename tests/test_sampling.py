"""Tests for scopes, transition matrices, stationary distributions, sampling."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro import QueryGraph
from repro.bench.harness import PaperPlanner
from repro.bench.sampled import PaperConfig, PlanSampler, SamplerKind
from repro.core.plan import PlanCache
from repro.core.planner import QueryPlanner, resolve_mapping_node
from repro.errors import ConvergenceError, MappingNodeNotFoundError, SamplingError
from repro.sampling.collector import (
    AnswerCollector,
    AnswerDistribution,
    restrict_to_answers,
)
from repro.sampling.reference import ReferenceTransitionModel, cnarw_weights_python
from repro.sampling.scope import SamplingScope, build_scope
from repro.sampling.stationary import stationary_distribution
from repro.sampling.strength import strength_distribution
from repro.sampling.topology import node2vec_visit_distribution
from repro.sampling.walker import RandomWalker


def converged_oracle(transition):
    """The power iteration run until it really is the fix-point (the
    default budget stops at residual 1e-10 or 1000 steps, whichever
    comes first — too loose for an ``rtol`` of 1e-8 on small masses)."""
    return stationary_distribution(
        transition, tolerance=1e-13, max_iterations=20_000, require_convergence=True
    )


def transition_probability(transition, from_index, to_index):
    """p_ij between two scope indexes of a transition model's rows."""
    neighbours, probabilities = transition.row(from_index)
    return float(probabilities[neighbours == to_index].sum())


def cnarw_transition(kg, scope, self_loop_weight=0.001):
    """The CNARW walk over ``scope`` as a row-stochastic matrix built from
    the seed loop's weights, with the mapping node's Lemma-2 self-loop:
    what the power iteration runs on."""
    index = scope.index_of()
    rows, cols = [], []
    for node in scope.nodes:
        for _edge_id, neighbour in kg.neighbors(node):
            if neighbour in index:
                rows.append(index[node])
                cols.append(index[neighbour])
    weights = cnarw_weights_python(kg, scope, np.asarray(rows), np.asarray(cols))
    source = index[scope.source]
    size = len(scope.nodes)
    matrix = sparse.csr_matrix(
        (np.append(weights, self_loop_weight), (rows + [source], cols + [source])),
        shape=(size, size),
    )
    stochastic = sparse.diags(1.0 / np.asarray(matrix.sum(axis=1)).ravel()) @ matrix
    return SimpleNamespace(
        scope=scope, size=size, to_sparse=lambda: sparse.csr_matrix(stochastic)
    )


def planner_with(kg, space, sampler):
    """A planner under ``sampler`` with a private cache, and the S1 of its
    plans."""
    config = PaperConfig(seed=7, sampler=sampler)
    return (
        QueryPlanner(kg, space, config, cache=PlanCache()),
        PlanSampler(kg, space, config),
    )


def _probability(distribution, node_id):
    """pi'_i of one node: its support entry's probability, 0 off the support."""
    return float(distribution.probabilities[distribution.answers == node_id].sum())


def pi_a_with(kg, space, sampler, component):
    """The pi_A of a fresh plan of ``component`` under ``sampler``."""
    planner, plan_sampler = planner_with(kg, space, sampler)
    return plan_sampler.sample(planner.plan_for(component)).distribution


@pytest.fixture(scope="module")
def toy_scope(toy):
    return build_scope(toy.kg, toy.germany, 3, frozenset({"Automobile"}))


@pytest.fixture(scope="module")
def toy_transition(toy, toy_scope):
    return ReferenceTransitionModel(toy.kg, toy_scope, toy.space, "product")


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
    """Eq. 5 on the seed assembly, the matrix the power iteration runs on."""

    def test_rows_are_stochastic(self, toy_transition):
        for index in range(toy_transition.size):
            _, probabilities = toy_transition.row(index)
            assert probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_higher_similarity_higher_probability(self, toy, toy_transition):
        """Eq. 5: p_ij proportional to predicate similarity (Example 4)."""
        index = toy_transition.scope.index_of()
        source_index = index[toy.germany]
        direct_car = index[toy.correct_cars[0]]  # assembly, 0.98
        person = index[toy.people[0]]  # nationality, 0.52
        assert transition_probability(toy_transition, source_index, direct_car) > (
            transition_probability(toy_transition, source_index, person)
        )

    def test_self_loop_on_source(self, toy, toy_transition):
        index = toy_transition.scope.index_of()
        source_index = index[toy.germany]
        assert transition_probability(toy_transition, source_index, source_index) > 0.0

    def test_sparse_matrix_matches_rows(self, toy_transition):
        matrix = toy_transition.to_sparse()
        assert matrix.shape == (toy_transition.size, toy_transition.size)
        for index in range(toy_transition.size):
            neighbours, probabilities = toy_transition.row(index)
            start, end = matrix.indptr[index], matrix.indptr[index + 1]
            np.testing.assert_array_equal(matrix.indices[start:end], neighbours)
            np.testing.assert_array_equal(matrix.data[start:end], probabilities)

    def test_invalid_self_loop_weight(self, toy, toy_scope):
        with pytest.raises(SamplingError):
            ReferenceTransitionModel(
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
        transition = ReferenceTransitionModel(
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
            ReferenceTransitionModel(world.kg, scope, world.space, "product")
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
    """S1 of every semantic and CNARW plan is the closed form; the iteration
    is its oracle."""

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
        oracle = converged_oracle(
            ReferenceTransitionModel(bundle.kg, scope, space, predicate)
        )
        np.testing.assert_allclose(oracle.probabilities, closed_form, rtol=1e-8)

    @pytest.mark.parametrize(
        "preset, hub, hub_type, predicate, target",
        [
            (None, "Germany", "Country", "product", "Automobile"),
            ("dbpedia-like", "Germany", "Country", "product", "Automobile"),
            ("yago2-like", "FC_Barcelona", "SoccerClub", "playsFor", "SoccerPlayer"),
            ("yago2-like", "Spain", "Country", "bornIn", "SoccerPlayer"),
        ],
    )
    def test_cnarw_stage_equals_converged_iteration(
        self, toy, preset, hub, hub_type, predicate, target
    ):
        """CNARW's weights are symmetric, so its walk is reversible: the
        plan's closed form is the fix-point of the seed loop's matrix."""
        from repro.datasets import ALL_PRESETS
        from repro.embedding.predicate_space import PredicateVectorSpace

        if preset is None:
            kg, space = toy.kg, toy.space
        else:
            bundle = ALL_PRESETS[preset](seed=0, scale=1.0)
            kg, space = bundle.kg, PredicateVectorSpace(bundle.embedding)
        component = QueryGraph.simple(
            hub, [hub_type], predicate, [target]
        ).components[0]
        planner, plan_sampler = planner_with(kg, space, SamplerKind.CNARW)
        plan = planner.plan_for(component)
        sample = plan_sampler.sample(plan)
        scope = build_scope(kg, plan.source, 3, frozenset({target}))
        oracle = converged_oracle(cnarw_transition(kg, scope)).probabilities
        assert sample.walk_iterations == 0
        # the stage pi_A was built from: pi over its whole scope
        stage = plan_sampler.first_stage(plan.source, predicate, frozenset({target}))
        visiting = dict(zip(stage.nodes.tolist(), stage.probabilities.tolist()))
        np.testing.assert_allclose(
            [visiting.get(node, 0.0) for node in scope.nodes], oracle, rtol=1e-8
        )
        expected = restrict_to_answers(scope, oracle)
        np.testing.assert_array_equal(sample.distribution.answers, expected.answers)
        np.testing.assert_allclose(
            sample.distribution.probabilities, expected.probabilities, rtol=1e-8
        )

    @pytest.mark.parametrize("sampler", [SamplerKind.SEMANTIC, SamplerKind.CNARW])
    def test_semantic_plan_builds_never_iterate(self, toy, monkeypatch, sampler):
        """Simple and chain ``plan_for`` build no per-source scope and run
        no power iteration, under the semantic walk and CNARW alike."""
        from repro.bench import sampled as sampled_module
        from repro.sampling import scope as scope_module
        from repro.sampling import stationary as stationary_module

        calls = []
        for holder, name in (
            (stationary_module, "stationary_distribution"),
            (scope_module, "build_scope"),
            (sampled_module, "build_scope"),
        ):
            monkeypatch.setattr(
                holder, name, lambda *a, _name=name, **k: calls.append(_name)
            )
        # the figures' planner: its validators keep the first stage's map
        planner = PaperPlanner(
            toy.kg, toy.space, PaperConfig(seed=7, sampler=sampler)
        )
        chain = QueryGraph.chain(
            "Germany",
            ["Country"],
            [("nationality", ["Person"]), ("designer", ["Automobile"])],
        ).components[0]
        simple = planner.plan_for(toy.count_query().query.components[0])
        chained = planner.plan_for(chain)
        assert planner.build_count == 2 and calls == []
        assert planner.sampler.sample(simple).walk_iterations == 0
        assert planner.sampler.sample(chained).walk_iterations > 0
        assert simple.validator.visiting[toy.germany] > 0
        assert chained.validator.first_leg.visiting[toy.germany] > 0


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
        correct_mass = sum(_probability(distribution, car) for car in toy.correct_cars)
        near_miss_mass = sum(
            _probability(distribution, car) for car in toy.near_miss_cars
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


class TestCollector:
    @pytest.fixture(scope="class")
    def distribution(self):
        return AnswerDistribution(
            answers=np.array([10, 20, 30]),
            probabilities=np.array([0.6, 0.3, 0.1]),
        )

    def test_collect_respects_distribution(self, distribution):
        collector = AnswerCollector(distribution, seed=1)
        drawn = distribution.answers[collector.collect_indices(6_000)]
        assert np.mean(drawn == 10) == pytest.approx(0.6, abs=0.03)

    def test_collect_indices_bounds(self, distribution):
        collector = AnswerCollector(distribution, seed=3)
        indices = collector.collect_indices(100)
        assert indices.min() >= 0 and indices.max() < 3

    def test_invalid_sizes(self, distribution):
        collector = AnswerCollector(distribution)
        for size in (0, -1):
            with pytest.raises(SamplingError):
                collector.collect_indices(size)

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


# ----------------------------------------------------------------------
# the guide-table inverse CDF == Generator.choice(p=pi_A), on adversarial pi_A
# ----------------------------------------------------------------------
_POWERS = [1 << j for j in range(1, 15)]
_SUPPORT_SIZES = st.one_of(
    st.sampled_from([1, *_POWERS, *(power + 1 for power in _POWERS)]),
    st.integers(1, 20_000),
)
_WEIGHT_KINDS = ("random", "clustered", "edges", "zeros")


def _adversarial_weights(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """Unnormalised pi_A weights of one adversarial ``kind``."""
    if kind == "clustered":
        # runs of tiny entries between a few heavy ones: each run's CDF
        # steps crowd into one bucket, whose keys take the fallback
        weights = np.full(size, 1e-12)
        heavy = rng.integers(0, size, size=max(1, size // 50))
        weights[heavy] = rng.random(len(heavy)) + 0.5
        return weights
    if kind == "edges":
        # integer weights over a power-of-two total: every CDF step is a
        # multiple of 1/total, which divides the bucket width 1/K — the
        # steps sit exactly on bucket edges k/K (zeros make flat steps)
        total = 1 << (size - 1).bit_length()
        return rng.multinomial(total, np.full(size, 1.0 / size)).astype(np.float64)
    weights = rng.random(size)
    if kind == "zeros":
        weights[rng.random(size) < 0.3] = 0.0  # zero mass: flat CDF steps
        weights[rng.integers(size)] = 1.0  # never all zero
    return weights


class _KeyedGenerator(np.random.Generator):
    """A generator whose ``random(n)`` returns the first ``n`` given keys."""

    def __init__(self, keys: np.ndarray) -> None:
        super().__init__(np.random.PCG64(0))
        self.keys = keys

    def random(self, size=None, dtype=np.float64, out=None):
        return self.keys[:size]


def test_collect_indices_is_generator_choice_on_adversarial_pi():
    """Indices, dtype and generator state equal ``Generator.choice`` after
    every call — and on keys placed exactly on, and one ulp under, every
    CDF step and bucket edge, the indices equal the right-sided
    ``searchsorted`` ``choice`` inverts with.  Both the table path and the
    binary-search fallback must have resolved keys across the examples."""
    paths: Counter = Counter()

    @settings(max_examples=80, deadline=None)
    @given(
        size=_SUPPORT_SIZES,
        kind=st.sampled_from(_WEIGHT_KINDS),
        seed=st.integers(0, 2**32 - 1),
        draws=st.lists(st.integers(1, 5_000), min_size=1, max_size=4),
    )
    @example(size=2_000, kind="clustered", seed=0, draws=[5_000, 1])
    @example(size=1 << 10, kind="edges", seed=1, draws=[3_000])
    @example(size=1, kind="random", seed=2, draws=[1, 7])
    def check(size, kind, seed, draws):
        weights = _adversarial_weights(kind, size, np.random.default_rng(seed))
        distribution = AnswerDistribution(
            answers=np.arange(size), probabilities=weights / weights.sum()
        )
        cdf, table = distribution.cdf, distribution.guide_table
        buckets = len(table)
        assert buckets >= 4 * size and buckets & (buckets - 1) == 0
        assert buckets < 8 * size and table.dtype == np.int32
        # the table's definition, by binary search per bucket edge
        edges = np.arange(buckets + 1, dtype=np.float64) / buckets
        low = cdf.searchsorted(edges[:-1], side="right")
        high = cdf.searchsorted(edges[1:], side="left")
        np.testing.assert_array_equal(table, np.where(high - low <= 1, low, -1))
        ours, reference, twin = (np.random.default_rng(seed) for _ in range(3))
        collector = AnswerCollector(distribution, seed=ours)
        for count in draws:
            keys = twin.random(count)  # the keys collect_indices draws
            entries = table[(keys * buckets).astype(np.intp)]
            paths["table"] += int(np.count_nonzero(entries >= 0))
            paths["fallback"] += int(np.count_nonzero(entries < 0))
            drawn = collector.collect_indices(count)
            expected = reference.choice(size, size=count, p=distribution.probabilities)
            assert drawn.dtype == expected.dtype == np.int64
            np.testing.assert_array_equal(drawn, expected)
            assert ours.bit_generator.state == reference.bit_generator.state

        keys = np.concatenate([cdf, edges])
        keys = np.concatenate([keys, np.nextafter(keys, 0.0)])
        keys = keys[(keys >= 0.0) & (keys < 1.0)]
        keyed = AnswerCollector(distribution, seed=_KeyedGenerator(keys))
        np.testing.assert_array_equal(
            keyed.collect_indices(len(keys)), cdf.searchsorted(keys, side="right")
        )

    check()
    assert paths["table"] > 0 and paths["fallback"] > 0, paths


class TestTopologySamplers:
    def test_cnarw_ignores_semantics(self, toy):
        """Topology samplers give near-miss cars the same visit mass."""
        distribution = pi_a_with(
            toy.kg, toy.space, SamplerKind.CNARW, toy.count_query().query.components[0]
        )
        direct = _probability(distribution, toy.correct_cars[0])
        near_miss = _probability(distribution, toy.near_miss_cars[0])
        assert near_miss == pytest.approx(direct, rel=0.5)

    def test_node2vec_distribution(self, toy, toy_scope):
        visits = node2vec_visit_distribution(toy.kg, toy_scope, steps=4_000, seed=0)
        assert visits.sum() == pytest.approx(1.0)
        assert (visits >= 0).all()

    def test_node2vec_invalid_parameters(self, toy, toy_scope):
        with pytest.raises(SamplingError):
            node2vec_visit_distribution(toy.kg, toy_scope, return_parameter=0)
