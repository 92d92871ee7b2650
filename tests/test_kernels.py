"""Array-compiled S2 kernels vs their plain-Python oracles.

The kernels (:mod:`repro.semantics.kernels`) are the one production path
per S2 algorithm; for identical inputs they must reproduce the oracles —
SSB's exhaustive enumeration (``best_matches_from``) for the exact
similarity row and SSB's chain enumeration (``chain_similarities``) for a
chain's row, both within the oracles' float drift, and the per-entry
CNARW loop (:mod:`repro.sampling.reference`) for the structural weights,
byte for byte — with the same unknown-predicate failures.  The paper's
r-path search, which the figures bind, is checked on the same worlds
against the exact row it approximates from below.  Randomised worlds here
include multi-edges and self-loops.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AggregateQueryService,
    EngineConfig,
    LookupEmbedding,
    PredicateVectorSpace,
)
from repro.baselines.ssb import SemanticSimilarityBaseline
from repro.bench.sampled import PlanSampler
from repro.core.plan import shared_plan_cache
from repro.core.planner import resolve_mapping_node
from repro.errors import EmbeddingError
from repro.kg import KnowledgeGraph, csr_snapshot
from repro.query.graph import PathQuery
from repro.sampling.scope import build_scope
from repro.sampling.reference import cnarw_weights_python
from repro.sampling.strength import strength_distribution
from repro.sampling.topology import cnarw_entry_weights
from repro.semantics import kernels
from repro.semantics.matching import best_matches_from
from repro.semantics.reference import ReferenceValidator
from repro.semantics.similarity import SIMILARITY_FLOOR
from repro.semantics.validation import ChainValidator, CorrectnessValidator

TYPE_POOL = ("Car", "Person", "City", "Club", "Thing")
PREDICATE_POOL = ("product", "assembly", "designer", "country", "misc", "rare")


def random_world(
    seed: int,
    num_nodes: int = 60,
    num_edges: int = 150,
    known_predicates: tuple[str, ...] = PREDICATE_POOL,
):
    """A random multi-typed, multi-edged KG plus a predicate space."""
    rng = np.random.default_rng(seed)
    kg = KnowledgeGraph(f"kernel-random-{seed}")
    for index in range(num_nodes):
        num_types = int(rng.integers(1, 3))
        types = rng.choice(TYPE_POOL, size=num_types, replace=False)
        kg.add_node(f"node_{index}", types, {"value": float(rng.uniform(0, 100))})
    for _ in range(num_edges):
        subject = int(rng.integers(0, num_nodes))
        obj = int(rng.integers(0, num_nodes))  # self-loops allowed
        predicate = str(rng.choice(PREDICATE_POOL))
        kg.add_edge(subject, predicate, obj)
    vectors = {name: rng.normal(size=12) for name in known_predicates}
    space = PredicateVectorSpace(LookupEmbedding(vectors))
    return kg, space


def search_context(kg, space, seed: int, predicate: str = "product"):
    """A (source, visiting mapping, candidate answers) validation context."""
    rng = np.random.default_rng(seed + 5000)
    source = int(rng.integers(0, kg.num_nodes))
    scope = build_scope(kg, source, 3, frozenset(TYPE_POOL))
    stationary = strength_distribution(kg, space, scope, predicate)
    visiting = dict(zip((int(n) for n in scope.nodes), stationary.tolist()))
    answers = list(scope.candidate_answers[:12])
    # off-scope and on-path corner cases
    answers.append(source)
    answers.append(int(rng.integers(0, kg.num_nodes)))
    return source, visiting, answers


def synthetic_context(kg, seed: int):
    """Scope + synthetic visiting probabilities, no embedding involved.

    The unknown-predicate tests need validation to be the *first* place a
    "rare" edge is touched; a real transition build would fail during S1
    instead.  Deterministic pseudo-probabilities keep the search shaped
    like a genuine stationary map (distinct values, hubs first).
    """
    rng = np.random.default_rng(seed + 7000)
    source = int(rng.integers(0, kg.num_nodes))
    scope = build_scope(kg, source, 3, frozenset(TYPE_POOL))
    probabilities = rng.uniform(0.01, 1.0, size=len(scope.nodes))
    probabilities /= probabilities.sum()
    visiting = dict(
        zip((int(n) for n in scope.nodes), probabilities.tolist())
    )
    answers = list(scope.candidate_answers[:12]) + [source]
    return source, visiting, answers


def _dfs_row(kg, space, source, max_length, predicate="product"):
    """SSB's exhaustive DFS as ``{node: (similarity, length)}``, or the
    error it raised."""
    try:
        return {
            node: (match.similarity, match.length)
            for node, match in best_matches_from(
                kg, space, predicate, source, max_length
            ).items()
        }
    except EmbeddingError as error:
        return error


def _exact_row(kg, space, source, max_length, predicate="product"):
    """The production validator's row, or the error it raised."""
    try:
        return CorrectnessValidator(
            kg, space, source, predicate, max_length=max_length
        ).row()
    except EmbeddingError as error:
        return error


def _assert_row_matches_dfs(kg, space, source, max_length, tau=0.5):
    """The exact row equals the DFS: the same reached set, similarities
    within 1e-12 relative, the same verdicts at ``tau``, and it raises
    iff the DFS raises.  (A value within 1e-12 of ``tau`` has no verdict
    to compare: the DFS's running sum drifts by ulps.)"""
    expected = _dfs_row(kg, space, source, max_length)
    got = _exact_row(kg, space, source, max_length)
    assert isinstance(got, EmbeddingError) == isinstance(expected, EmbeddingError)
    if isinstance(expected, EmbeddingError):
        return False
    similarity, best_length = got
    assert set(np.flatnonzero(best_length).tolist()) == set(expected)
    assert set(np.flatnonzero(similarity).tolist()) == set(expected)
    for node, (value, _length) in expected.items():
        assert similarity[node] == pytest.approx(value, rel=1e-12)
    clear = [
        node for node, (value, _length) in expected.items()
        if abs(value - tau) > 1e-12 * tau
    ]
    assert {node for node in clear if similarity[node] >= tau} == {
        node for node in clear if expected[node][0] >= tau
    }
    assert best_length.max(initial=0) <= max_length
    return True


class TestExactRow:
    """The simple row — ``kernels.leg_sums`` from a one-hot seed, reduced by
    ``kernels.best_mean``, through the validator — equals SSB's exhaustive
    enumeration, ``matching.best_matches_from``."""

    @pytest.mark.parametrize("known", [PREDICATE_POOL, PREDICATE_POOL[:-1]],
                             ids=["covered", "rare_uncovered"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_worlds(self, seed, known):
        kg, space = random_world(seed, num_nodes=40, num_edges=90,
                                 known_predicates=known)
        settled = raised = 0
        for source in range(kg.num_nodes):
            for max_length in (1, 2, 3, 4):
                if _assert_row_matches_dfs(kg, space, source, max_length):
                    settled += 1
                else:
                    raised += 1
        assert settled
        assert bool(raised) == (known is not PREDICATE_POOL)

    @settings(max_examples=150, deadline=None)
    @given(
        num_nodes=st.integers(2, 8),
        raw_edges=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.sampled_from(("p", "q", "r", "rare")),
                st.integers(0, 7),
            ),
            min_size=1,
            max_size=30,
        ),
        values=st.tuples(*(st.floats(0.0, 1.0) for _ in range(3))),
        source=st.integers(0, 7),
        max_length=st.integers(1, 4),
        tau=st.floats(0.05, 1.0),
        covered=st.booleans(),
    )
    def test_small_multigraphs(
        self, num_nodes, raw_edges, values, source, max_length, tau, covered
    ):
        """Parallel edges, self-loops and an uncovered predicate on random
        small graphs, every bound from 1 to 4."""
        table = dict(zip(("p", "q", "r"), values))
        if covered:
            table["rare"] = 0.5
        edges = [
            (subject % num_nodes, predicate, obj % num_nodes)
            for subject, predicate, obj in raw_edges
        ]
        kg, space, _context = _hand_world(num_nodes, edges, table)
        _assert_row_matches_dfs(kg, space, source % num_nodes, max_length, tau)

    def test_two_predecessors_at_length_three(self):
        """s -> a -> x -> b and s -> b -> x -> a: each length-3 path to a
        node must avoid it as its first hop, so a node whose best
        predecessor of x is itself takes the second best."""
        edges = [(0, "p", 1), (0, "q", 2), (1, "p", 3), (2, "p", 3),
                 (3, "p", 1), (3, "r", 2)]
        kg, space, _context = _hand_world(4, edges, {"p": 0.9, "q": 0.2, "r": 0.5})
        assert _assert_row_matches_dfs(kg, space, 0, 3)
        _similarity, best_length = CorrectnessValidator(
            kg, space, 0, "p", max_length=3
        ).row()
        assert best_length[0] == 0  # the source is never an answer

    def test_shortest_length_wins_ties(self):
        """A one-edge and a two-edge path of equal similarity: the best
        length is 1."""
        edges = [(0, "p", 1), (0, "p", 2), (2, "p", 1)]
        kg, space, _context = _hand_world(3, edges, {"p": 0.5})
        similarity, best_length = CorrectnessValidator(
            kg, space, 0, "p", max_length=2
        ).row()
        assert similarity[1] == pytest.approx(0.5)
        assert best_length[1] == 1

    def test_kernel_rejects_bounds_it_cannot_settle(self, toy):
        log_row = np.zeros(len(toy.kg.predicates))
        seed = np.full(toy.kg.num_nodes, -np.inf)
        seed[toy.germany] = 0.0
        with pytest.raises(ValueError):
            kernels.leg_sums(
                toy.kg, toy.space, csr_snapshot(toy.kg), log_row, seed, 4
            )

    def test_dedup_adjacency_is_built_once_and_never_exported(self):
        kg, _space = random_world(0)
        snapshot = csr_snapshot(kg)
        dedup = snapshot.dedup_adjacency
        assert snapshot.dedup_adjacency is dedup
        members = (dedup.pair_predicate, dedup.extras, dedup.owner, dedup.nbr,
                   dedup.indptr)
        _metadata, arrays = snapshot.export_arrays()
        assert not any(
            np.shares_memory(exported, member)
            for exported in arrays.values() for member in members
        )
        assert not any(member.flags.writeable for member in members)
        # parallel edges and both directions collapse onto one entry
        for node in range(kg.num_nodes):
            start, end = dedup.indptr[node], dedup.indptr[node + 1]
            assert dedup.nbr[start:end].tolist() == sorted(
                {neighbour for _edge, neighbour in kg.neighbors(node)}
            )
            assert (dedup.owner[start:end] == node).all()
        # a pair's edges, in adjacency order, are its first predicate and
        # its extras: the extras are exactly the parallel edges
        edges_of: dict[tuple[int, int], list[int]] = {}
        for node in range(kg.num_nodes):
            for edge, neighbour in kg.neighbors(node):
                edges_of.setdefault((node, neighbour), []).append(
                    int(snapshot.edge_predicate_ids[edge])
                )
        extras_of: dict[int, list[int]] = {}
        for pair, predicate in dedup.extras.tolist():
            extras_of.setdefault(pair, []).append(predicate)
        assert len(dedup.extras) == sum(len(p) - 1 for p in edges_of.values()) > 0
        for pair, key in enumerate(zip(dedup.owner.tolist(), dedup.nbr.tolist())):
            assert [int(dedup.pair_predicate[pair])] + extras_of.get(pair, []) == (
                edges_of[key]
            )
        assert dedup.has_self_loop is any(a == b for a, b in edges_of)
        assert dedup.has_self_loop
        kg.add_edge(0, "misc", 1)  # a structural write: new snapshot, new member
        assert csr_snapshot(kg).dedup_adjacency is not dedup
        _kg, _space, loopless = _hand_world(3, [(0, "p", 1), (1, "p", 2)], {"p": 0.5})
        assert not loopless.dedup_adjacency.has_self_loop
        assert loopless.dedup_adjacency.extras.shape == (0, 2)

    @pytest.mark.parametrize(
        "first, second, culprit",
        [("q", "rare", "rare"), ("rare", "q", "rare"), ("odd", "rare", "odd")],
    )
    def test_an_uncovered_parallel_edge_fails_the_rows_that_weigh_it(
        self, first, second, culprit
    ):
        """The pair 1 - 2 has two edges, one or both uncovered: a row that
        weighs the pair raises naming the pair's first uncovered edge, as
        the DFS does; a row that never weighs it does not raise."""
        edges = [(0, "p", 1), (1, first, 2), (2, second, 1), (3, "p", 4)]
        kg, space, snapshot = _hand_world(5, edges, {"p": 0.9, "q": 0.4})
        assert len(snapshot.dedup_adjacency.extras) == 2
        for max_length in (2, 3):
            with pytest.raises(EmbeddingError, match=repr(culprit)):
                CorrectnessValidator(kg, space, 0, "p", max_length=max_length).row()
        for source, max_length in ((0, 1), (3, 3), (4, 2)):
            similarity, _best_length = CorrectnessValidator(
                kg, space, source, "p", max_length=max_length
            ).row()
            assert similarity.max() == pytest.approx(0.9)
        for source in (0, 3):
            for max_length in (1, 2, 3):
                _assert_row_matches_dfs(kg, space, source, max_length)


#: (expansion budget, branch cap, max length) of the paper search
SEARCH_SHAPES = ((120, 16, 3), (30, 16, 3), (9, 3, 3), (17, 3, 2), (5, 2, 1))


def _paper_search(kg, space, source, visiting, **overrides):
    """The figures' r-path search over ``visiting``, on "product"."""
    return ReferenceValidator(kg, space, source, "product", visiting, **overrides)


def _shape(budget, cap, max_length) -> dict:
    return dict(expansion_budget=budget, branch_cap=cap, max_length=max_length)


@pytest.mark.parametrize("seed", range(5))
class TestPaperSearchOnRandomWorlds:
    """The paper's r-path search (§IV-B2), which the figures' engine binds,
    on the random multigraphs with S1's stationary visiting map: a lower
    bound of the exact row, monotone in ``r`` and in its budget, whose
    stop threshold and batching change no verdict."""

    def test_never_above_the_exact_row(self, seed):
        kg, space = random_world(seed)
        source, visiting, answers = search_context(kg, space, seed)
        found = 0
        for budget, cap, max_length in SEARCH_SHAPES:
            similarity, _best_length = CorrectnessValidator(
                kg, space, source, "product", max_length=max_length
            ).row()
            search = _paper_search(
                kg, space, source, visiting, **_shape(budget, cap, max_length)
            )
            for answer in answers:
                outcome = search.validate(answer)
                # np.exp and math.exp may differ in the last ulp
                assert outcome.similarity <= similarity[answer] * (1 + 1e-12)
                assert 0 <= outcome.best_length <= max_length
                assert (outcome.best_length == 0) == (outcome.similarity == 0.0)
                found += outcome.best_length > 0
        assert found, "no search found a path"

    @pytest.mark.parametrize("quantile", [0.25, 0.75])
    def test_stop_threshold_keeps_the_verdict(self, seed, quantile):
        """Stopping at the first path that reaches ``stop`` gives the same
        verdict at ``stop`` as the full search, after no more pops.  The
        random embeddings put most similarities far below the production
        tau, so ``stop`` is a quantile of the first paths' similarities."""
        kg, space = random_world(seed)
        source, visiting, answers = search_context(kg, space, seed)
        first = _paper_search(kg, space, source, visiting, repeat_factor=1)
        found = [first.search(answer)[0] for answer in answers]
        stop = float(np.quantile([value for value in found if value > 0], quantile))
        shortened = 0
        for shape in SEARCH_SHAPES:
            full = _paper_search(kg, space, source, visiting, **_shape(*shape))
            quick = _paper_search(
                kg, space, source, visiting, stop_threshold=stop, **_shape(*shape)
            )
            for answer in answers:
                whole, short = full.search(answer), quick.search(answer)
                assert (short[0] >= stop) == (whole[0] >= stop)
                assert short[0] <= whole[0]
                assert short[2] <= whole[2]
                if short[0] < stop:  # never stopped: the same search
                    assert short == whole
                shortened += short[2] < whole[2]
        assert shortened, "the threshold never cut a search short"

    def test_repeat_factor_monotone_similarity(self, seed):
        """A larger ``r`` continues the same pop sequence: the best
        similarity and the paths found never drop."""
        kg, space = random_world(seed)
        source, visiting, answers = search_context(kg, space, seed)
        for answer in answers:
            searched = [
                _paper_search(
                    kg, space, source, visiting, repeat_factor=r,
                    expansion_budget=3000,
                ).search(answer)
                for r in (1, 3, 5)
            ]
            for fewer, more in zip(searched, searched[1:]):
                assert fewer[0] <= more[0]
                assert fewer[1] <= more[1]

    def test_more_budget_never_lowers_the_similarity(self, seed):
        kg, space = random_world(seed)
        source, visiting, answers = search_context(kg, space, seed)
        for cap, max_length in ((16, 3), (3, 2)):
            for answer in answers:
                searched = [
                    _paper_search(
                        kg, space, source, visiting,
                        **_shape(budget, cap, max_length),
                    ).search(answer)
                    for budget in (5, 17, 40, 120)
                ]
                for smaller, larger in zip(searched, searched[1:]):
                    assert smaller[0] <= larger[0]
                    assert smaller[2] <= larger[2]

    def test_batch_equals_per_answer(self, seed):
        """A batch (duplicates included) equals fresh per-answer searches,
        and the validator's memoised expansions change no later search."""
        kg, space = random_world(seed)
        source, visiting, answers = search_context(kg, space, seed)
        batch_answers = answers + answers[:3]
        for shape in SEARCH_SHAPES:
            shared = _paper_search(kg, space, source, visiting, **_shape(*shape))
            batch = shared.validate_batch(batch_answers)
            assert batch.answers.tolist() == batch_answers
            for position, answer in enumerate(batch_answers):
                fresh = _paper_search(
                    kg, space, source, visiting, **_shape(*shape)
                ).validate(answer)
                assert batch.outcome(position) == fresh
                assert shared.validate(answer) == fresh


class _RecordingSearch(ReferenceValidator):
    """The paper search, recording every node it expands."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.expanded: list[int] = []

    def _expand(self, node):
        self.expanded.append(node)
        return super()._expand(node)


def _settle(validate, *args):
    """``validate(*args)``, or ``("raised", message)`` for an EmbeddingError."""
    try:
        return validate(*args)
    except EmbeddingError as error:
        return ("raised", str(error))


@pytest.mark.parametrize("seed", [10, 11, 12, 13])
class TestUnknownPredicateFailures:
    """The paper search raises lazily, as the seed's did.

    "rare" edges exist in the graph but are unknown to the embedding; an
    answer's search fails exactly when it expands a node carrying a
    "rare" edge — never earlier, never later, whatever the validator
    expanded for other answers.  (Synthetic visiting probabilities: a
    real transition build would fail in S1 first.)
    """

    def _worlds(self, seed):
        """Per shape and stop threshold: the context, the covered world's
        recorded search per answer, and the uncovered world's outcome."""
        covered_kg, covered_space = random_world(seed)
        kg, space = random_world(seed, known_predicates=PREDICATE_POOL[:-1])
        source, visiting, answers = synthetic_context(kg, seed)
        snapshot = csr_snapshot(kg)
        rare = kg.predicates.index("rare")
        carries_rare = {
            node for node in range(kg.num_nodes)
            if (snapshot.edge_predicate_ids[snapshot.neighbors(node)[0]] == rare).any()
        }
        for shape in SEARCH_SHAPES:
            for stop in (None, 0.5, 0.9):
                settings = dict(stop_threshold=stop, **_shape(*shape))
                uncovered = ReferenceValidator(
                    kg, space, source, "product", visiting, **settings
                )
                outcomes = {}
                for answer in answers:
                    recorded = _RecordingSearch(
                        covered_kg, covered_space, source, "product", visiting,
                        **settings,
                    )
                    covered = recorded.validate(answer)
                    touches = not carries_rare.isdisjoint(recorded.expanded)
                    outcomes[answer] = (
                        covered, touches, _settle(uncovered.validate, answer)
                    )
                yield kg, space, source, visiting, settings, outcomes

    def test_search_raises_iff_it_expands_an_uncovered_edge(self, seed):
        raised = kept = 0
        for *_context, outcomes in self._worlds(seed):
            for covered, touches, outcome in outcomes.values():
                if touches:
                    assert isinstance(outcome, tuple)
                    assert "rare" in outcome[1]
                    raised += 1
                else:
                    assert outcome == covered
                    kept += 1
        assert raised and kept, "world must exercise both outcomes"

    def test_batch_raises_when_an_answer_would(self, seed):
        """The whole batch raises iff some answer's own search does — with
        the first such answer's error — and otherwise equals the answers
        one at a time; the answers that do not raise settle together."""
        raised = kept = 0
        for kg, space, source, visiting, settings, outcomes in self._worlds(seed):
            def bound():
                return ReferenceValidator(
                    kg, space, source, "product", visiting, **settings
                )

            failing = [a for a, o in outcomes.items() if isinstance(o[2], tuple)]
            passing = [a for a in outcomes if a not in failing]
            batch = _settle(bound().validate_batch, list(outcomes))
            if failing:
                assert batch == outcomes[failing[0]][2]
            else:
                assert [
                    batch.outcome(position) for position in range(len(batch))
                ] == [outcome for _c, _t, outcome in outcomes.values()]
            passed = bound().validate_batch(passing)
            assert [
                passed.outcome(position) for position in range(len(passed))
            ] == [outcomes[answer][2] for answer in passing]
            raised += bool(failing)
            kept += not failing
        assert raised and kept, "world must exercise both batch outcomes"


class TestCnarwEquivalence:
    """The vectorised CNARW weights are byte-identical to the loop."""

    @pytest.mark.parametrize("seed", range(4))
    def test_weights_byte_identical(self, seed):
        kg, _ = random_world(seed, num_nodes=80, num_edges=260)
        rng = np.random.default_rng(seed + 9000)
        source = int(rng.integers(0, kg.num_nodes))
        scope = build_scope(kg, source, 3, frozenset(TYPE_POOL))
        self._assert_weights_match(kg, scope)

    def test_kernel_function_matches_reference_loop(self, toy):
        scope = build_scope(toy.kg, toy.germany, 3, frozenset(["Automobile"]))
        self._assert_weights_match(toy.kg, scope)

    @pytest.mark.parametrize("seed", range(4))
    def test_weights_are_symmetric(self, seed):
        """(u, v) weighs what (v, u) weighs, bit for bit — parallel edges
        and self-loops included — so the CNARW walk is reversible and the
        stage kernel's strengths are its stationary distribution."""
        kg, _ = random_world(seed, num_nodes=30, num_edges=200)
        snapshot = csr_snapshot(kg)
        owners = np.repeat(np.arange(kg.num_nodes), np.diff(snapshot.indptr))
        keys = owners * kg.num_nodes + snapshot.neighbor_ids
        assert (owners == snapshot.neighbor_ids).any()  # self-loops
        assert len(np.unique(keys)) < len(keys)  # parallel edges
        nodes = np.arange(kg.num_nodes)
        forward = kernels.cnarw_weights(snapshot, nodes, owners, snapshot.neighbor_ids)
        backward = kernels.cnarw_weights(snapshot, nodes, snapshot.neighbor_ids, owners)
        assert forward.tobytes() == backward.tobytes()
        assert cnarw_entry_weights(kg).values.tobytes() == forward.tobytes()
        # every entry (u, v) meets an equal weight on each (v, u) entry
        reverse = snapshot.neighbor_ids * kg.num_nodes + owners
        order = np.argsort(keys, kind="stable")
        position = np.searchsorted(keys[order], reverse)
        assert (keys[order][position] == reverse).all()
        assert forward.tobytes() == forward[order][position].tobytes()

    @staticmethod
    def _assert_weights_match(kg, scope):
        _, rows, cols, _ = csr_snapshot(kg).gather_within(np.asarray(scope.nodes))
        assert len(rows) > 0
        expected = cnarw_weights_python(kg, scope, rows, cols)
        got = kernels.cnarw_weights(
            csr_snapshot(kg), np.asarray(scope.nodes), rows, cols
        )
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_empty_pairs(self, toy):
        got = kernels.cnarw_weights(
            csr_snapshot(toy.kg),
            np.asarray([toy.germany]),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        assert got.shape == (0,)


def _result_fingerprint(result) -> tuple:
    return (
        result.value,
        result.moe,
        result.converged,
        result.total_draws,
        result.correct_draws,
        result.distinct_answers,
        tuple(
            (t.round_index, t.total_draws, t.correct_draws, t.estimate,
             t.satisfied, t.guaranteed)
            for t in result.rounds
        ),
    )


class _TableSpace:
    """``space.similarity`` read from a table; anything else is uncovered."""

    def __init__(self, table: dict[str, float]) -> None:
        self._table = table

    def similarity(self, predicate: str, query_predicate: str) -> float:
        self.vector(predicate)
        return self._table[predicate]

    def vector(self, predicate: str) -> None:
        if predicate not in self._table:
            raise EmbeddingError(f"no vector for predicate {predicate!r}")

    def known_similarity_row(self, query_predicate: str, predicates) -> np.ndarray:
        return np.array([self._table.get(name, np.nan) for name in predicates])


def _hand_world(num_nodes: int, edges, table: dict[str, float], types=None):
    """A KG from an edge list (adjacency = insertion order), a table space
    and the graph's CSR snapshot.  ``types[i]`` are node ``i``'s types
    (``Thing`` by default)."""
    kg = KnowledgeGraph("hand-built")
    for index in range(num_nodes):
        kg.add_node(f"n{index}", types[index] if types else ["Thing"])
    for subject, predicate, obj in edges:
        kg.add_edge(subject, predicate, obj)
    return kg, _TableSpace(table), csr_snapshot(kg)


def _chain(source_name: str, source_types, hops) -> PathQuery:
    return PathQuery(
        specific_name=source_name,
        specific_types=frozenset(source_types),
        hops=tuple((predicate, frozenset(types)) for predicate, types in hops),
    )


def _chain_row(kg, space, component: PathQuery, n_bound: int, first_leg=None):
    """A chain validator's row, or the error it raised.  The first leg is
    the exact row's validator unless one is given."""
    source = resolve_mapping_node(
        kg, component.specific_name, component.specific_types
    )
    if first_leg is None:
        first_leg = CorrectnessValidator(
            kg, space, source, component.predicates[0], max_length=n_bound
        )
    try:
        return ChainValidator(
            kg, space, component, first_leg,
            max_length=n_bound, floor=SIMILARITY_FLOOR,
        ).row()
    except EmbeddingError as error:
        return error


def _ssb_chain(kg, space, component: PathQuery, n_bound: int):
    """SSB's chain enumeration — ``(chain_similarities, chain_sums)`` — or
    the error it raised."""
    ssb = SemanticSimilarityBaseline(kg, space, n_bound=n_bound)
    try:
        return ssb.chain_similarities(component), ssb.chain_sums(component)
    except EmbeddingError as error:
        return error


def _assert_chain_row_matches_ssb(kg, space, component, n_bound, tau=0.5):
    """The chain row equals SSB's enumeration: the same reached set and
    best lengths, similarities within 1e-12 relative, the same verdicts
    at ``tau`` (but for a value within 1e-12 of it), and it raises iff SSB
    raises.  Returns whether it settled.

    Where another total length's mean lies within 1e-12 of the best (equal
    edge weights make such ties common; the row and SSB weigh an edge
    through different float paths), either length is the best: the row's
    must attain SSB's value there."""
    oracle = _ssb_chain(kg, space, component, n_bound)
    got = _chain_row(kg, space, component, n_bound)
    assert isinstance(got, EmbeddingError) == isinstance(oracle, EmbeddingError)
    if isinstance(oracle, EmbeddingError):
        return False
    expected, sums = oracle
    similarity, best_length = got
    assert set(np.flatnonzero(best_length).tolist()) == set(expected)
    assert set(np.flatnonzero(similarity).tolist()) == set(expected)
    for node, (value, length) in expected.items():
        assert similarity[node] == pytest.approx(value, rel=1e-12)
        if best_length[node] != length:
            at = int(best_length[node])
            assert math.exp(sums[node][at] / at) == pytest.approx(value, rel=1e-12)
    clear = [
        node for node, (value, _length) in expected.items()
        if abs(value - tau) > 1e-12 * tau
    ]
    assert {node for node in clear if similarity[node] >= tau} == {
        node for node in clear if expected[node][0] >= tau
    }
    assert best_length.max(initial=0) <= n_bound * component.num_hops
    return True


def _random_chains(kg, seed: int) -> list[PathQuery]:
    """Two- and three-hop chains from a few random sources, with
    intermediate types that overlap the answer types."""
    rng = np.random.default_rng(seed + 3000)
    chains = []
    for source in rng.choice(kg.num_nodes, size=4, replace=False).tolist():
        node = kg.node(source)
        hops = [
            (str(rng.choice(PREDICATE_POOL)),
             [str(name) for name in rng.choice(TYPE_POOL, size=2, replace=False)])
            for _ in range(int(rng.integers(2, 4)))
        ]
        chains.append(_chain(node.name, node.types, hops))
    return chains


class TestChainRow:
    """``ChainValidator``'s row — the kernel's seeded leg passes, chained —
    equals SSB's chain enumeration (``chain_similarities``)."""

    @pytest.mark.parametrize("known", [PREDICATE_POOL, PREDICATE_POOL[:-1]],
                             ids=["covered", "rare_uncovered"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_worlds(self, seed, known):
        kg, space = random_world(seed, num_nodes=30, num_edges=60,
                                 known_predicates=known)
        settled = raised = 0
        for component in _random_chains(kg, seed):
            for n_bound in (1, 2, 3):
                if _assert_chain_row_matches_ssb(kg, space, component, n_bound):
                    settled += 1
                else:
                    raised += 1
        # an uncovered edge within the bound of any leg fails the whole row
        if known is PREDICATE_POOL:
            assert settled and not raised
        else:
            assert raised

    @settings(max_examples=150, deadline=None)
    @given(
        num_nodes=st.integers(2, 7),
        raw_edges=st.lists(
            st.tuples(
                st.integers(0, 6),
                st.sampled_from(("p", "q", "r", "rare")),
                st.integers(0, 6),
            ),
            min_size=1,
            max_size=16,
        ),
        node_types=st.lists(
            st.sampled_from((("A",), ("B",), ("A", "B"))), min_size=7, max_size=7
        ),
        hops=st.lists(
            st.tuples(
                st.sampled_from(("p", "q", "r")),
                st.sampled_from((("A",), ("B",), ("A", "B"))),
            ),
            min_size=2,
            max_size=3,
        ),
        values=st.tuples(*(st.floats(0.0, 1.0) for _ in range(3))),
        source=st.integers(0, 6),
        n_bound=st.integers(1, 3),
        tau=st.floats(0.05, 1.0),
        covered=st.booleans(),
    )
    def test_small_multigraphs(
        self, num_nodes, raw_edges, node_types, hops, values, source, n_bound,
        tau, covered,
    ):
        """Parallel edges, self-loops, intermediate types that overlap the
        answer types and an uncovered predicate, on 2- and 3-hop chains at
        every bound from 1 to 3."""
        table = dict(zip(("p", "q", "r"), values))
        if covered:
            table["rare"] = 0.5
        edges = [
            (subject % num_nodes, predicate, obj % num_nodes)
            for subject, predicate, obj in raw_edges
        ]
        kg, space, _snapshot = _hand_world(num_nodes, edges, table, node_types)
        source %= num_nodes
        component = _chain(f"n{source}", node_types[source], hops)
        _assert_chain_row_matches_ssb(kg, space, component, n_bound, tau)

    def test_a_leg_never_returns_to_its_start(self):
        """s -p- a -one- b: ``a`` is the only intermediate, so no second
        leg may end at it; a -> b -> a would, at a higher mean than
        anything legal."""
        kg, space, _snapshot = _hand_world(
            3, [(0, "p", 1), (1, "one", 2)], {"p": 0.9, "one": 1.0},
            [("Src",), ("Mid", "End"), ("End",)],
        )
        component = _chain("n0", ["Src"], [("p", ["Mid"]), ("one", ["End"])])
        assert _assert_chain_row_matches_ssb(kg, space, component, 3)
        similarity, best_length = _chain_row(kg, space, component, 3)
        assert best_length[1] == 0 and similarity[1] == 0.0
        assert best_length[2] == 2

    # s = 0; the intermediates x1 = 1 (seed log .95) and x2 = 2 (log .3);
    # x1 -one- u1 -one- z and x2 -one- u2 -one- z, z -one- x1 and z -one- u1
    _TWO_STARTS = (
        [(0, "p", 1), (0, "r", 2), (1, "one", 3), (3, "one", 5),
         (2, "one", 4), (4, "one", 5), (5, "one", 1), (5, "one", 3)],
        {"p": 0.95, "r": 0.3, "one": 1.0},
        [("Src",), ("Mid", "End"), ("Mid",), ("End",), ("Thing",), ("Thing",)],
    )

    def test_a_length_three_leg_avoids_its_best_entrys_start(self):
        """z's best length-2 entry comes from x1 (x1 -> u1 -> z); the
        length-3 leg into x1 must take z's best entry that avoids x1,
        x2 -> u2 -> z -> x1, not the walk back to its own start."""
        kg, space, _snapshot = _hand_world(6, *self._TWO_STARTS)
        component = _chain("n0", ["Src"], [("p", ["Mid"]), ("one", ["End"])])
        assert _assert_chain_row_matches_ssb(kg, space, component, 3)
        similarity, best_length = _chain_row(kg, space, component, 3)
        assert best_length[1] == 4
        assert similarity[1] == pytest.approx(math.exp(math.log(0.3) / 4))

    def test_a_length_three_leg_avoids_its_best_entrys_first_hop(self):
        """The length-3 leg into u1 through z must avoid z's best entry
        x1 -> u1 -> z, whose first hop is u1 itself: u1 keeps its
        two-edge leg x1 -> z -> u1."""
        kg, space, _snapshot = _hand_world(6, *self._TWO_STARTS)
        component = _chain("n0", ["Src"], [("p", ["Mid"]), ("one", ["End"])])
        assert _assert_chain_row_matches_ssb(kg, space, component, 3)
        similarity, best_length = _chain_row(kg, space, component, 3)
        assert best_length[3] == 3
        assert similarity[3] == pytest.approx(0.95 ** (1 / 3))

    @pytest.mark.parametrize("seed", range(2))
    def test_bounds_past_three_enumerate(self, seed):
        """Past ``EXACT_MAX_LENGTH`` the leg sums come from the per-length
        DFS, every seeded start in turn."""
        kg, space = random_world(seed, num_nodes=20, num_edges=34)
        for component in _random_chains(kg, seed)[:2]:
            assert _assert_chain_row_matches_ssb(kg, space, component, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_the_r_path_first_leg_gives_a_lower_bound(self, seed):
        """The figures' chain row, seeded by the paper's r-path search
        over the first leg, never exceeds the exact chain row: the search
        finds no path better than the best."""
        kg, space = random_world(seed, num_nodes=30, num_edges=60)
        reached = 0
        for component in _random_chains(kg, seed):
            source = resolve_mapping_node(
                kg, component.specific_name, component.specific_types
            )
            scope = build_scope(kg, source, 3, frozenset(TYPE_POOL))
            stationary = strength_distribution(
                kg, space, scope, component.predicates[0]
            )
            search = ReferenceValidator(
                kg, space, source, component.predicates[0],
                dict(zip(scope.nodes, stationary.tolist())), max_length=3,
            )
            found, found_length = _chain_row(kg, space, component, 3, search)
            exact, _exact_length = _chain_row(kg, space, component, 3)
            assert (found <= exact * (1 + 1e-12)).all()
            assert ((found_length > 0) <= (exact > 0)).all()
            reached += int(np.count_nonzero(found_length))
        assert reached, "the search seeded no chain answer"


class TestSeededLegPass:
    """``kernels.leg_sums`` from many starts is the best, per node and
    length, of the one-start passes shifted by each start's seed."""

    @pytest.mark.parametrize("n_bound", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_best_single_start_pass(self, seed, n_bound):
        kg, space = random_world(seed)
        snapshot = csr_snapshot(kg)
        log_row = np.log(np.clip(
            space.known_similarity_row("product", kg.predicates),
            SIMILARITY_FLOOR, 1.0,
        ))
        rng = np.random.default_rng(seed + 11000)
        seed_vector = np.full(kg.num_nodes, -np.inf)
        starts = rng.choice(kg.num_nodes, size=8, replace=False)
        seed_vector[starts] = rng.uniform(-3.0, 0.0, size=len(starts))
        got = kernels.leg_sums(kg, space, snapshot, log_row, seed_vector, n_bound)
        expected = [np.full(kg.num_nodes, -np.inf) for _ in range(n_bound)]
        for start in starts.tolist():
            one_hot = np.full(kg.num_nodes, -np.inf)
            one_hot[start] = 0.0
            alone = kernels.leg_sums(kg, space, snapshot, log_row, one_hot, n_bound)
            for level, sums in zip(expected, alone):
                np.maximum(level, sums + seed_vector[start], out=level)
        assert len(got) == n_bound
        for level, sums in zip(expected, got):
            assert np.array_equal(np.isinf(level), np.isinf(sums))
            finite = np.isfinite(level)
            assert finite.any()
            np.testing.assert_allclose(sums[finite], level[finite], rtol=1e-12)


class TestEngineLevelEquivalence:
    @pytest.mark.parametrize("query_name", ["count", "chain", "star"])
    def test_cold_answer_similarity_equals_executed_plan(
        self, toy_world_factory, query_name, memoised
    ):
        """``answer_similarity`` on cold plans (one answer at a time: a
        batch of one per component, which builds the component's row)
        equals what a full ``execute`` read in bulk, per component and,
        for the star
        (yago2-like's first star COUNT at scale 1), as the minimum over
        the components."""
        from repro import ApproximateAggregateEngine
        from repro.datasets import ALL_PRESETS, standard_workload
        from repro.query.graph import QueryShape

        if query_name == "star":
            bundle = ALL_PRESETS["yago2-like"](seed=0, scale=1.0)
            kg, embedding = bundle.kg, bundle.embedding
            query = next(
                item.aggregate_query
                for item in standard_workload(bundle)
                if item.shape is QueryShape.STAR and item.function.value == "COUNT"
            )
        else:
            world = toy_world_factory()
            kg, embedding = world.kg, world.embedding
            query = (
                world.count_query()
                if query_name == "count"
                else world.chain_count_query()
            )
        components = query.query.components
        assert (len(components) > 1) == (query_name == "star")
        config = EngineConfig(seed=7)

        shared_plan_cache().clear()
        cold_engine = ApproximateAggregateEngine(kg, embedding, config)
        cold_plans = [cold_engine.planner.plan_for(c) for c in components]
        for cold_plan in cold_plans:
            assert not memoised(cold_plan.validator)
        sampler = PlanSampler(kg, cold_engine.space)
        cold = [
            {
                answer: cold_engine.answer_similarity([cold_plan], answer)
                for answer in sampler.sample(cold_plan).distribution.answers.tolist()
            }
            for cold_plan in cold_plans
        ]

        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(kg, embedding, config)
        engine.execute(query)
        plans = [engine.planner.plan_for(c) for c in components]
        # what each validator holds for its support (an exact row holds
        # every node)
        memos = [
            {
                answer: similarity
                for answer, similarity in memoised(plan.validator).items()
                if answer in cold_memo
            }
            for plan, cold_memo in zip(plans, cold)
        ]
        for plan, cold_plan, cold_memo, memo in zip(plans, cold_plans, cold, memos):
            assert plan is not cold_plan
            assert memo
            for answer, similarity in memo.items():
                assert engine.answer_similarity([plan], answer) == similarity
                assert cold_memo[answer] == similarity
        assert any(not p.component.is_simple for p in plans) == (
            query_name != "count"
        )
        # every component judged these: the composite is their minimum
        judged = set.intersection(*(set(memo) for memo in memos))
        assert judged
        for answer in judged:
            assert cold_engine.answer_similarity(cold_plans, answer) == min(
                memo[answer] for memo in memos
            )

    @pytest.mark.parametrize(
        "preset", ["dbpedia-like", "freebase-like", "yago2-like"]
    )
    def test_workload_verdicts_equal_ssb(self, preset):
        """At scale 1, every component of the preset's standard workload
        keeps exactly SSB's tau-GT answers among its support (the greedy
        search missed some on two components), and its similarities are
        SSB's, simple and chain components alike."""
        from repro.baselines.ssb import SemanticSimilarityBaseline
        from repro.core.plan import PlanCache
        from repro.core.planner import QueryPlanner
        from repro.datasets import ALL_PRESETS, standard_workload

        bundle = ALL_PRESETS[preset](seed=0, scale=1.0)
        config = EngineConfig(seed=0)
        space = bundle.space()
        planner = QueryPlanner(bundle.kg, space, config, cache=PlanCache())
        sampler = PlanSampler(bundle.kg, space)
        ssb = SemanticSimilarityBaseline(bundle.kg, space)
        components = dict.fromkeys(
            component
            for query in standard_workload(bundle)
            for component in query.aggregate_query.query.components
        )
        for component in components:
            plan = planner.plan_for(component)
            answers = sampler.sample(plan).distribution.answers.tolist()
            similarities = plan.validator.validate_batch(answers).similarity
            truth = ssb.component_similarities(component)
            kept = {
                answer
                for answer, similarity in zip(answers, similarities.tolist())
                if similarity >= config.tau
            }
            assert kept == {a for a in answers if truth.get(a, 0.0) >= config.tau}
            for answer, similarity in zip(answers, similarities.tolist()):
                assert similarity == pytest.approx(truth.get(answer, 0.0), rel=1e-12)

    @staticmethod
    def _chain_workload(world) -> list:
        return [
            (world.count_query(), 3),
            (world.avg_query(), 4),
            (world.chain_count_query(), 5),
        ]

    def test_concurrent_services_over_shared_plans(self, toy_world_factory):
        """Services over one graph get the same plans and validators from
        the plan cache, and each steps them from its own scheduler thread:
        two of them released at once build and publish the same simple
        and chain similarity rows concurrently, and still answer like one
        service asked query by query."""
        import sys
        import threading

        world = toy_world_factory()
        workload = self._chain_workload(world)
        config = EngineConfig(seed=7)

        shared_plan_cache().clear()
        with AggregateQueryService(world.kg, world.embedding, config) as service:
            sequential = [
                _result_fingerprint(service.submit(query, seed=seed).result())
                for query, seed in workload
            ]

        barrier = threading.Barrier(2)
        results: dict = {}
        failures: list = []

        def drive(position: int) -> None:
            try:
                with AggregateQueryService(
                    world.kg, world.embedding, config
                ) as service:
                    barrier.wait(timeout=30)
                    handles = service.submit_batch(workload)
                    results[position] = [
                        _result_fingerprint(h.result(timeout=60)) for h in handles
                    ]
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        shared_plan_cache().clear()
        threads = [threading.Thread(target=drive, args=(p,)) for p in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert results[0] == results[1] == sequential
