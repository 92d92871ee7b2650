"""Array-compiled S2 kernels vs their plain-Python oracles.

The kernels (:mod:`repro.semantics.kernels`) are the one production path
per S2 algorithm; for identical inputs they must reproduce the oracles
**exactly** — the seed validator (:mod:`repro.semantics.reference`) for
search and the deletion replay, ``best_matches_iterative`` and the recursive
chain-prefix resolution for chain enumeration, the per-entry CNARW loop
(:mod:`repro.sampling.reference`) for the structural weights: equal
outcome dataclasses, byte-equal transition arrays, the same lazy
unknown-predicate failures.  Randomised worlds here include multi-edges,
self-loops and out-of-scope sources.  A production validator is bound to
one ``(source, predicate, visiting)`` context; ``bind_validator`` binds it
to the dense form of the mapping the oracle reads.
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
    QueryGraph,
)
from repro.core.plan import shared_plan_cache
from repro.errors import EmbeddingError
from repro.kg import KnowledgeGraph, csr_snapshot
from repro.sampling.scope import build_scope
from repro.sampling.reference import cnarw_weights_python
from repro.sampling.strength import strength_distribution
from repro.sampling.topology import cnarw_entry_weights
from repro.semantics import kernels
from repro.semantics.matching import best_matches_iterative
from repro.semantics.reference import ReferenceValidator, chain_prefixes_recursive
from repro.semantics.similarity import SIMILARITY_FLOOR
from repro.semantics.validation import CorrectnessValidator

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


@pytest.mark.parametrize("seed", range(5))
class TestSearchEquivalence:
    """validate (a batch of one) and validate_batch (the deletion replay
    of the shared trace) both equal the seed ReferenceValidator."""

    def test_validate_matches_reference(self, seed, bind_validator):
        kg, space = random_world(seed)
        source, visiting, answers = search_context(kg, space, seed)
        reference = ReferenceValidator(kg, space)
        compiled = bind_validator(kg, space, source, visiting)
        for answer in answers:
            for stop in (None, 0.5, 0.9):
                assert compiled.validate(
                    answer, stop_threshold=stop
                ) == reference.validate(
                    source, answer, "product", visiting, stop_threshold=stop
                )

    @pytest.mark.parametrize("stop", [None, 0.5, 0.9])
    def test_validate_batch_matches_reference_on_both_branches(
        self, seed, stop, monkeypatch, bind_validator
    ):
        """Every batched outcome equals the oracle's, and the batch really
        took both branches of the replay:
        answers settled with deleted pops inside the recorded trace and
        answers whose deletions forced a trace extension.  (Budget 30: at
        the default 120 some of these 60-node worlds run the heap dry
        first, and a dry heap cannot be extended.)"""
        kg, space = random_world(seed)
        source, visiting, answers = search_context(kg, space, seed)
        # the scope's full candidate list plus the corner cases;
        # duplicates exercise the per-answer dedup
        scope = build_scope(kg, source, 3, frozenset(TYPE_POOL))
        batch = list(scope.candidate_answers) + answers + answers[:3]
        branch: dict[int, str] = {}
        real_replay = kernels.replay

        def recording_replay(trace, answer, repeat_factor, threshold, bounds, tallies):
            own = dict.fromkeys(kernels.REPLAY_TALLIES, 0)
            result = real_replay(
                trace, answer, repeat_factor, threshold, bounds, own
            )
            # the batch's precomputed table slice changes nothing, and
            # neither does finding the extension already recorded
            assert result == real_replay(trace, answer, repeat_factor, threshold)
            if own["trace_extension_pops"]:
                branch[answer] = "extended"
            elif own["replay_deletions"]:
                branch[answer] = "deleted"
            else:
                branch[answer] = "clean"
            for name, count in own.items():
                tallies[name] += count
            return result

        monkeypatch.setattr(kernels, "replay", recording_replay)
        tallies = dict.fromkeys(kernels.REPLAY_TALLIES, 0)
        got = bind_validator(
            kg, space, source, visiting, expansion_budget=30
        ).validate_batch(batch, stop_threshold=stop, tallies=tallies)
        reference = ReferenceValidator(kg, space, expansion_budget=30)
        assert set(got) == set(batch) == set(branch)
        for answer, outcome in got.items():
            assert outcome == reference.validate(
                source, answer, "product", visiting, stop_threshold=stop
            )
        taken = set(branch.values())
        assert "deleted" in taken, "no answer was settled with deleted pops"
        assert "extended" in taken, "no answer forced a trace extension"
        assert tallies["replay_deletions"] == sum(
            kind != "clean" for kind in branch.values()
        )
        assert tallies["trace_extension_pops"] >= 1

    def test_tight_budgets_and_caps(self, seed, bind_validator):
        """Small budgets/beams magnify any pop-order or tie-break drift."""
        kg, space = random_world(seed)
        source, visiting, answers = search_context(kg, space, seed)
        for budget, cap, max_length in ((5, 2, 1), (17, 3, 2), (40, 16, 3)):
            overrides = dict(
                expansion_budget=budget, branch_cap=cap, max_length=max_length
            )
            reference = ReferenceValidator(kg, space, **overrides)
            compiled = bind_validator(kg, space, source, visiting, **overrides)
            batched = bind_validator(
                kg, space, source, visiting, **overrides
            ).validate_batch(answers[:8])
            for answer in answers[:8]:
                expected = reference.validate(source, answer, "product", visiting)
                assert compiled.validate(answer) == expected
                assert batched[answer] == expected


def _settle(validate, *args):
    """``validate(*args)``, or ``("raised", message)`` for an EmbeddingError."""
    try:
        return validate(*args)
    except EmbeddingError as error:
        return ("raised", str(error))


@pytest.mark.parametrize("seed", [10, 11, 12, 13])
class TestUnknownPredicateFailures:
    """The lazy NaN raise fires at the same expansions as the seed's.

    "rare" edges exist in the graph but are unknown to the embedding; an
    answer's validation fails only when its own search expands a node with
    a "rare" edge — never earlier, never later, whatever the shared trace
    expanded for other answers.
    """

    #: (expansion budget, branch cap, max length)
    SHAPES = ((120, 16, 3), (30, 16, 3), (9, 3, 3), (17, 3, 2), (5, 2, 1))

    def _worlds(self, seed):
        """Per shape and stop threshold: the validator overrides, the
        context and every answer's reference outcome or error."""
        kg, space = random_world(seed, known_predicates=PREDICATE_POOL[:-1])
        source, visiting, answers = synthetic_context(kg, seed)
        for budget, cap, max_length in self.SHAPES:
            overrides = dict(
                expansion_budget=budget, branch_cap=cap, max_length=max_length
            )
            reference = ReferenceValidator(kg, space, **overrides)
            for stop in (None, 0.5, 0.9):
                expected = {
                    answer: _settle(
                        reference.validate, source, answer, "product",
                        visiting, stop,
                    )
                    for answer in answers
                }
                yield kg, space, overrides, source, visiting, stop, expected

    def test_raises_match_reference(self, seed, bind_validator):
        raised = kept = 0
        for kg, space, overrides, source, visiting, stop, expected in self._worlds(seed):
            compiled = bind_validator(kg, space, source, visiting, **overrides)
            for answer, outcome in expected.items():
                assert _settle(compiled.validate, answer, stop) == outcome
                if isinstance(outcome, tuple):
                    raised += 1
                else:
                    kept += 1
        assert raised and kept, "world must exercise both outcomes"

    def test_batch_raises_when_an_answer_would(self, seed, bind_validator):
        """The whole batch raises iff some answer's own search does — with
        the first such answer's error — and otherwise equals the reference
        per answer; the answers that do not raise settle together."""
        raised = kept = 0
        for kg, space, overrides, source, visiting, stop, expected in self._worlds(seed):
            failing = [a for a, o in expected.items() if isinstance(o, tuple)]
            passing = [a for a in expected if a not in failing]
            batch = _settle(
                bind_validator(kg, space, source, visiting, **overrides).validate_batch,
                list(expected), stop,
            )
            assert batch == (expected[failing[0]] if failing else expected)
            assert bind_validator(
                kg, space, source, visiting, **overrides
            ).validate_batch(passing, stop) == {
                answer: expected[answer] for answer in passing
            }
            raised += bool(failing)
            kept += not failing
        assert raised and kept, "world must exercise both batch outcomes"


def _search_world(edges, probabilities, known=("p", "q")):
    """A hand-built search world: a KG from an edge list, a lookup space
    knowing ``known``, and ``{node: visiting probability}`` — the heap
    pops higher probabilities first, so the numbers script the pop order."""
    kg = KnowledgeGraph("hand-built-search")
    for index in range(1 + max(max(s, o) for s, _, o in edges)):
        kg.add_node(f"n{index}", ["Thing"])
    for subject, predicate, obj in edges:
        kg.add_edge(subject, predicate, obj)
    rng = np.random.default_rng(3)
    space = PredicateVectorSpace(
        LookupEmbedding({name: rng.normal(size=8) for name in known})
    )
    return kg, space, dict(probabilities)


#: S = 0 reaches A = 1 and B = 2.  Below A hang eight leaves (3..10), the
#: first with a grandchild (11); below B two nodes (12, 13) and below 12
#: one more (14).  B also reaches leaf 3, so leaf 3 has two parents.
_S, _A, _B = 0, 1, 2
_SUBTREE_EDGES = (
    [(_S, "p", _A), (_S, "q", _B)]
    + [(_A, "p" if leaf % 2 else "q", leaf) for leaf in range(3, 11)]
    + [(3, "p", 11), (_B, "p", 12), (_B, "q", 13), (12, "p", 14), (_B, "q", 3)]
)
#: A and everything below it outrank B and everything below B, so the
#: shared sequence is S, A, 3, 4, ... 10, 11, B, 12, 13, 14
_SUBTREE_PROBABILITIES = {
    _S: 0.30, _A: 0.20, **{leaf: 0.10 - 0.001 * leaf for leaf in range(3, 11)},
    11: 0.05, _B: 0.02, 12: 0.012, 13: 0.011, 14: 0.010,
}


class TestDeletionReplay:
    """Every edge of the deletion replay, on a graph small enough to read.

    Each case is compared with ``ReferenceValidator`` and then asked,
    through the tallies, whether it took the branch it was built for.
    """

    @pytest.fixture(autouse=True)
    def _binder(self, bind_validator):
        self.bind_validator = bind_validator

    def bind(self, kg, space, visiting, source=_S, **overrides):
        """A validator bound to ``source`` and the ``p`` predicate."""
        return self.bind_validator(kg, space, source, visiting, "p", **overrides)

    def _batch(self, kg, space, visiting, answers, source=_S, **overrides):
        validator = self.bind(kg, space, visiting, source, **overrides)
        tallies = dict.fromkeys(kernels.REPLAY_TALLIES, 0)
        got = validator.validate_batch(answers, tallies=tallies)
        reference = ReferenceValidator(kg, space, **overrides)
        for answer in answers:
            assert got[answer] == reference.validate(source, answer, "p", visiting)
        return got, tallies, validator._trace()

    def test_subtree_larger_than_the_remaining_budget(self):
        """Budget 6 records S, A and four of A's leaves.  For answer A
        five of those pops go, so its search runs on: through the rest of
        A's subtree (deleted too), then B and what lies below B — where
        leaf 3, reached through B this time, is adjacent to A: a path the
        recorded pops do not hold."""
        kg, space, visiting = _search_world(_SUBTREE_EDGES, _SUBTREE_PROBABILITIES)
        got, tallies, trace = self._batch(
            kg, space, visiting, [_A], expansion_budget=6
        )
        assert trace.total_pops == 6
        assert trace.on_path_of[_A] == [1, 2, 3, 4, 5]
        assert [pop[0] for pop in trace.pops] == [
            _S, _A, 3, 4, 5, 6,  # recorded
            7, 8, 9, 10, 11,  # the rest of A's subtree: deleted
            _B, 3, _A, 11, _B, 12, 13,  # A and B below leaf 3: deleted
        ]
        # the survivors: S, B, 3, 11, 12, 13
        assert got[_A].expansions == 6
        assert got[_A].paths_found == 2  # from S and from leaf 3
        assert trace.heap  # 14 is still waiting
        assert tallies == {"replay_deletions": 1, "trace_extension_pops": 12}

    def test_extension_is_shared_by_later_answers(self):
        kg, space, visiting = _search_world(_SUBTREE_EDGES, _SUBTREE_PROBABILITIES)
        validator = self.bind(kg, space, visiting, expansion_budget=6)
        validator.validate_batch([_A])
        recorded = len(validator._trace().pops)
        tallies = dict.fromkeys(kernels.REPLAY_TALLIES, 0)
        validator.validate_batch([_A, 3, 4], tallies=tallies)
        assert tallies["replay_deletions"] == 3
        assert tallies["trace_extension_pops"] == 0  # all read, none recorded
        assert len(validator._trace().pops) == recorded == 18

    def test_answer_is_the_source(self):
        """The source is on every path: nothing is deleted, the goal
        check never fires, the recorded pops are the outcome."""
        kg, space, visiting = _search_world(_SUBTREE_EDGES, _SUBTREE_PROBABILITIES)
        got, tallies, trace = self._batch(
            kg, space, visiting, [_S], expansion_budget=6
        )
        assert got[_S] == type(got[_S])(_S, 0.0, 0, 6, 0)
        assert len(trace.pops) == trace.total_pops == 6
        assert not any(tallies.values())

    def test_heap_exhausted_before_the_budget(self):
        """At budget 3000 the whole graph is recorded and the heap is
        empty: an answer's deletions just shorten its count."""
        kg, space, visiting = _search_world(_SUBTREE_EDGES, _SUBTREE_PROBABILITIES)
        answers = list(range(kg.num_nodes))
        got, tallies, trace = self._batch(
            kg, space, visiting, answers, expansion_budget=3000
        )
        assert not trace.heap and len(trace.pops) == trace.total_pops < 3000
        assert tallies["trace_extension_pops"] == 0
        assert tallies["replay_deletions"] >= 1
        assert got[_B].expansions == trace.total_pops - len(trace.on_path_of[_B])

    @pytest.mark.parametrize(
        "budget, cap, max_length", [(5, 2, 1), (17, 3, 2), (6, 16, 3), (9, 3, 3)]
    )
    def test_tight_budgets_and_caps(self, budget, cap, max_length):
        kg, space, visiting = _search_world(_SUBTREE_EDGES, _SUBTREE_PROBABILITIES)
        for source in (_S, _B, 3):
            self._batch(
                kg, space, visiting, list(range(kg.num_nodes)), source=source,
                expansion_budget=budget, branch_cap=cap, max_length=max_length,
            )

    def test_uncovered_predicate_below_the_answer_is_never_touched(self):
        """Leaf 10's edge to 15 is uncovered and leaf 10 is popped only in
        the extension A's deletions force.  A's own search never goes
        below A, so it must not raise: the extension records leaf 10 as
        poisoned and walks on, and A deletes it."""
        edges = _SUBTREE_EDGES + [(10, "uncovered", 15)]
        kg, space, visiting = _search_world(
            edges, {**_SUBTREE_PROBABILITIES, 15: 0.001}
        )
        got, tallies, trace = self._batch(
            kg, space, visiting, [3, _A, _B], expansion_budget=6
        )
        # leaf 3 (one pop past the budget) and A
        assert tallies == {"replay_deletions": 2, "trace_extension_pops": 12}
        assert trace.poisoned == [9] and trace.pops[9][0] == 10
        assert got[_A].expansions == 6 and got[_A].paths_found == 2

    def test_uncovered_predicate_inside_the_budget(self):
        """The same world at budget 120: the recorded pops take in the
        whole graph, leaf 10 included, and the trace marks that pop
        poisoned instead of raising for everyone.  A's own search never
        goes below A, so it equals the reference through both entry
        points; the source's search pops leaf 10 and raises like the
        reference."""
        edges = _SUBTREE_EDGES + [(10, "uncovered", 15)]
        kg, space, visiting = _search_world(
            edges, {**_SUBTREE_PROBABILITIES, 15: 0.001}
        )
        reference = ReferenceValidator(kg, space)
        for stop in (None, 0.5):
            expected = reference.validate(_S, _A, "p", visiting, stop)
            assert self.bind(kg, space, visiting).validate(_A, stop) == expected
            validator = self.bind(kg, space, visiting)
            assert validator.validate_batch([_A], stop) == {_A: expected}
            trace = validator._trace()
            assert [trace.pops[index][0] for index in trace.poisoned] == [10]
        error = _settle(reference.validate, _S, _S, "p", visiting)
        assert error[0] == "raised"
        assert _settle(self.bind(kg, space, visiting).validate, _S) == error
        assert _settle(validator.validate_batch, [_A, _S]) == error

    def test_uncovered_predicate_in_the_extension_raises_like_the_reference(self):
        """Node 12's edge to 14 is uncovered.  The recorded pops never
        reach 12, A's extension does — and so does A's own search, so the
        batch raises where the reference raises; leaf 4, one pop short,
        is settled from leaf 7 and raises nothing."""
        edges = [
            (s, "uncovered" if (s, o) == (12, 14) else p, o)
            for s, p, o in _SUBTREE_EDGES
        ]
        kg, space, visiting = _search_world(edges, _SUBTREE_PROBABILITIES)
        _got, _tallies, trace = self._batch(
            kg, space, visiting, [4, _B, _S], expansion_budget=6
        )
        assert len(trace.pops) == 7
        error = _settle(
            ReferenceValidator(kg, space, expansion_budget=6).validate,
            _S, _A, "p", visiting,
        )
        assert error[0] == "raised"
        validator = self.bind(kg, space, visiting, expansion_budget=6)
        assert _settle(validator.validate_batch, [4, _A]) == error
        trace = validator._trace()
        assert [trace.pops[index][0] for index in trace.poisoned] == [12]

    @pytest.mark.parametrize("uncovered", [0, 2])
    def test_two_threads_extending_one_trace(self, uncovered):
        """Services over one graph share validators through the plan cache,
        so two batches can extend one trace at once: every outcome still
        equals the oracle's and the pops — poisoned ones included, when
        ``uncovered`` edges the embedding does not cover are added — are
        the ones a single thread records."""
        import sys
        import threading

        kg, space = random_world(4, num_nodes=80, num_edges=260)
        rng = np.random.default_rng(4)
        for _ in range(uncovered):
            kg.add_edge(int(rng.integers(0, 80)), "uncovered", int(rng.integers(0, 80)))
        source, visiting, _answers = synthetic_context(kg, 4)
        overrides = dict(expansion_budget=12)
        reference = ReferenceValidator(kg, space, **overrides)
        outcomes = {
            answer: _settle(reference.validate, source, answer, "product", visiting)
            for answer in range(kg.num_nodes)
        }
        expected = {a: o for a, o in outcomes.items() if not isinstance(o, tuple)}
        answers = list(expected)
        assert (len(answers) < kg.num_nodes) == bool(uncovered)
        validator = self.bind_validator(kg, space, source, visiting, **overrides)
        validator.validate_batch([source])
        trace = validator._trace()
        assert len(trace.pops) == trace.total_pops == 12

        failures: list = []
        tallies = [dict.fromkeys(kernels.REPLAY_TALLIES, 0) for _ in range(6)]

        def work(position: int) -> None:
            try:
                order = answers[position::6] + answers  # six different orders
                got = validator.validate_batch(order, tallies=tallies[position])
                assert got == expected
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [threading.Thread(target=work, args=(p,)) for p in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert validator._trace() is trace
        # each extension pop was recorded by exactly one thread ...
        extension = len(trace.pops) - trace.total_pops
        assert extension > 0
        assert sum(t["trace_extension_pops"] for t in tallies) == extension
        # ... and the sequence is the single-threaded one
        alone = kernels.build_trace(
            validator._context(), source, validator.max_length, 12
        )
        assert alone.extend(len(trace.pops) - 1, dict(tallies[0]))
        assert alone.pops == trace.pops
        assert alone.poisoned == trace.poisoned
        assert bool(trace.poisoned) == bool(uncovered)
        for answer, outcome in outcomes.items():
            if answer not in expected:
                assert _settle(validator.validate, answer) == outcome


class TestContextCompile:
    """``build_context`` over the snapshot-wide deduplicated adjacency ==
    the seed's node-by-node expansion, row for row."""

    @pytest.mark.parametrize("known", [PREDICATE_POOL, PREDICATE_POOL[:-1]],
                             ids=["covered", "rare_uncovered"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_the_per_node_expansion(self, seed, known, bind_validator):
        kg, space = random_world(seed, known_predicates=known)
        source, visiting, _answers = synthetic_context(kg, seed)
        del visiting[source]  # the mapping node outside its own scope
        for branch_cap in (16, 2):
            validator = bind_validator(
                kg, space, source, visiting, branch_cap=branch_cap
            )
            context = validator._context()
            reference = ReferenceValidator(kg, space, branch_cap=branch_cap)
            reference._reset_cache("product", id(visiting))
            flagged = 0
            for node in range(kg.num_nodes):
                in_scope = node in visiting
                assert bool(context.in_scope[node]) == in_scope
                try:
                    beam, adjacency = reference._expand(node, "product", visiting)
                except EmbeddingError:
                    flagged += 1
                    assert not in_scope or context.nan_flag[node]
                    with pytest.raises(EmbeddingError):
                        context.beam(node)
                    continue
                assert not context.nan_flag[node]
                nbr, logs = context.adjacency_arrays(node)
                assert nbr.tolist() == list(adjacency)
                assert logs.tobytes() == np.array(
                    list(adjacency.values()), dtype=np.float64
                ).tobytes()
                assert context.beam(node) == beam
                assert context.goal_map(node) == adjacency
            assert (flagged > 0) == (known is not PREDICATE_POOL)
            # out-of-scope nodes (the source among them) took the lazy path
            assert context.extra and not set(context.extra) & set(visiting)

    def test_dedup_adjacency_is_built_once_and_never_exported(self):
        kg, _space = random_world(0)
        snapshot = csr_snapshot(kg)
        dedup = snapshot.dedup_adjacency
        assert snapshot.dedup_adjacency is dedup
        _metadata, arrays = snapshot.export_arrays()
        assert not any(
            exported is member for exported in arrays.values() for member in dedup
        )
        # parallel edges and both directions collapse onto one entry
        for node in range(kg.num_nodes):
            start, end = dedup.indptr[node], dedup.indptr[node + 1]
            assert dedup.nbr[start:end].tolist() == sorted(
                {neighbour for _edge, neighbour in kg.neighbors(node)}
            )
            assert (dedup.owner[start:end] == node).all()
        assert not any(member.flags.writeable for member in dedup)
        kg.add_edge(0, "misc", 1)  # a structural write: new snapshot, new member
        assert csr_snapshot(kg).dedup_adjacency is not dedup


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


def _chain_oracle(kg, space, predicate, source, max_length, targets, budget):
    """``best_matches_iterative`` reduced to what ``chain_matches`` returns."""
    return {
        node: (match.similarity, match.length)
        for node, match in best_matches_iterative(
            kg,
            space,
            predicate,
            source,
            max_length,
            targets=targets,
            floor=SIMILARITY_FLOOR,
            budget_per_level=budget,
        ).items()
    }


def _new_tallies() -> dict:
    return dict.fromkeys(kernels.CHAIN_TALLIES, 0)


class TestChainKernelEquivalence:
    """kernels.chain_matches == matching.best_matches_iterative, exactly."""

    @pytest.mark.parametrize("tour_min_entries", [None, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_values_and_order(
        self, seed, tour_min_entries, monkeypatch
    ):
        """At the real hub threshold these 60-node worlds hold no hub and
        every frame is walked; patched to 1, every frame below the source
        goes through a tour, and one context serves every source, budget
        and target set below, so tours recorded under one budget are
        replayed — or declined — under another."""
        if tour_min_entries is not None:
            monkeypatch.setattr(kernels, "_TOUR_MIN_ENTRIES", tour_min_entries)
        kg, space = random_world(seed)
        context = kernels.build_chain_context(
            kg, space, csr_snapshot(kg), "designer", SIMILARITY_FLOOR
        )
        rng = np.random.default_rng(seed + 9000)
        typed = frozenset(kg.nodes_with_any_type(["Person", "Club"]))
        tallies = _new_tallies()
        for source in rng.integers(0, kg.num_nodes, size=6):
            source = int(source)
            for max_length, budget in ((1, 3000), (2, 3000), (3, 3000),
                                       (3, 37), (2, 5), (3, 11), (4, 60)):
                for targets in (typed, None):
                    got = kernels.chain_matches(
                        context, source, max_length, targets, budget, tallies
                    )
                    # same keys, same floats, same *insertion order* (the
                    # chain-prefix best-mean scan tie-breaks by iteration
                    # order)
                    assert list(got.items()) == list(
                        _chain_oracle(
                            kg, space, "designer", source, max_length, targets, budget
                        ).items()
                    )
        if tour_min_entries is None:
            assert not context.tours
            assert tallies["chain_expansions_replayed"] == 0
        else:
            assert tallies["chain_tour_replays"] >= 1
            assert tallies["chain_tour_fallbacks"] >= 1
            assert tallies["chain_tour_records"] == len(context.tours) >= 1
            assert tallies["chain_expansions_replayed"] >= 1
        assert tallies["chain_expansions_live"] >= 1

    def test_unknown_predicate_raises_like_reference(self):
        kg, space = random_world(11, known_predicates=PREDICATE_POOL[:-1])
        # building the context must NOT touch the embedding eagerly
        context = kernels.build_chain_context(
            kg, space, csr_snapshot(kg), "designer", SIMILARITY_FLOOR
        )
        targets = frozenset(range(kg.num_nodes))
        outcomes = []
        for source in range(0, kg.num_nodes, 7):
            try:
                expected = {
                    node: (match.similarity, match.length)
                    for node, match in best_matches_iterative(
                        kg, space, "designer", source, 3, targets=targets
                    ).items()
                }
            except EmbeddingError:
                expected = EmbeddingError
            try:
                got = kernels.chain_matches(context, source, 3, targets, 3000)
            except EmbeddingError:
                got = EmbeddingError
            if expected is EmbeddingError or got is EmbeddingError:
                assert got is expected
            else:
                assert list(got.items()) == list(expected.items())
            outcomes.append(expected)
        assert EmbeddingError in outcomes  # the corner case actually fired

    @pytest.mark.parametrize(
        "hops",
        [
            [("nationality", ["Person"]), ("designer", ["Automobile"])],
            [("country", ["Company"]), ("assembly", ["Automobile"]),
             ("assembly", ["Company"])],
        ],
        ids=["two_hops", "three_hops"],
    )
    def test_batched_memo_equals_recursive_oracle(self, toy, hops):
        """``_chain_prefix_batch`` writes the recursion's memo, row for row."""
        from repro.core.executor import QueryExecutor
        from repro.core.plan import PlanCache
        from repro.core.planner import QueryPlanner

        component = QueryGraph.chain("Germany", ["Country"], hops).components[0]
        config = EngineConfig(seed=7)
        planner = QueryPlanner(toy.kg, toy.space, config, cache=PlanCache())
        executor = QueryExecutor(toy.kg, toy.space, config, planner)
        plan = planner.plan_for(component)
        answers = sorted(plan.distribution.answers.tolist())

        expected = chain_prefixes_recursive(
            toy.kg, toy.space, config, plan, answers
        )
        assert any(row is not None for row in expected.values())
        assert {level for level, _ in expected} == set(range(1, len(hops) + 1))
        executor._chain_prefix_batch(plan, component.num_hops, answers)
        assert plan.chain_prefix_memo == expected


class _TableSpace:
    """``space.similarity`` read from a table; anything else is uncovered."""

    def __init__(self, table: dict[str, float]) -> None:
        self._table = table

    def similarity(self, predicate: str, query_predicate: str) -> float:
        if predicate not in self._table:
            raise EmbeddingError(f"no vector for predicate {predicate!r}")
        return self._table[predicate]


def _hand_world(num_nodes: int, edges, table: dict[str, float]):
    """A KG from an edge list (adjacency = insertion order) + a table space."""
    kg = KnowledgeGraph("hand-built")
    for index in range(num_nodes):
        kg.add_node(f"n{index}", ["Thing"])
    for subject, predicate, obj in edges:
        kg.add_edge(subject, predicate, obj)
    space = _TableSpace(table)
    context = kernels.build_chain_context(
        kg, space, csr_snapshot(kg), "q", SIMILARITY_FLOOR
    )
    return kg, space, context


def _hub_edges(leaves: int, b_position: int, leaf_predicate=lambda index: "p"):
    """Nodes A = 0, B = 1, the hub H = 2 and ``leaves`` leaves from 3 on.

    H's adjacency reads A, then the leaves in order with B slipped in
    ahead of leaf ``b_position``; A and B reach H over a ``p`` edge each.
    """
    edges = [(0, "p", 2)]
    for index in range(leaves):
        if index == b_position:
            edges.append((1, "p", 2))
        edges.append((2, leaf_predicate(index), 3 + index))
    return edges


#: ``one`` edges have log-similarity 0.0 and so can never move a float
_TABLE = {"one": 1.0, "p": 0.8, "r": 0.5, "s": 0.9}


def _solo(kg, space, context, source, max_length, budget, targets=None) -> dict:
    """One ``chain_matches`` call checked against the oracle; its tallies."""
    tallies = _new_tallies()
    got = kernels.chain_matches(
        context, source, max_length, targets, budget, tallies
    )
    assert list(got.items()) == list(
        _chain_oracle(kg, space, "q", source, max_length, targets, budget).items()
    )
    return tallies


class TestChainTours:
    """Every branch of a tour replay, on graphs small enough to read.

    Each case is compared with ``best_matches_iterative`` (inside
    :func:`_solo`) and then asked, through the tallies, whether it took the
    branch it was built for.  The hub has 36 or more leaves, so the real
    ``_TOUR_MIN_ENTRIES`` applies.
    """

    def test_source_is_a_leaf_inside_the_tour(self):
        """At ``max_length`` 2 the hub's frame is a leaf frame and B — on
        B's own path — is one of its leaves: deleted, not counted."""
        kg, space, context = _hand_world(39, _hub_edges(36, 3), _TABLE)
        first = _solo(kg, space, context, 0, 2, 3000)
        assert first["chain_tour_records"] == 1
        assert first["chain_tour_replays"] == 1  # A is deleted the same way
        second = _solo(kg, space, context, 1, 2, 3000)
        assert second["chain_tour_records"] == 0
        assert second["chain_tour_replays"] == 1
        assert second["chain_tour_fallbacks"] == 0
        # H's 38 neighbours minus B itself
        assert second["chain_expansions_replayed"] == 37

    def test_source_is_an_interior_node_whose_subtree_goes(self):
        """At ``max_length`` 3 B is expanded inside the hub's tour with its
        two other neighbours below it; all three expansions are deleted."""
        edges = _hub_edges(36, 3) + [(1, "one", 39), (1, "one", 40)]
        kg, space, context = _hand_world(41, edges, _TABLE)
        _solo(kg, space, context, 0, 3, 3000)
        tallies = _solo(kg, space, context, 1, 3, 3000)
        assert tallies["chain_tour_records"] == 0
        assert tallies["chain_tour_fallbacks"] == 0
        assert tallies["chain_tour_replays"] == 2  # the depth-2 and depth-3 pass
        # depth-2 pass: 38 leaves minus B; depth-3 pass: 40 recorded minus
        # B and the two nodes below it
        assert tallies["chain_expansions_replayed"] == 37 + 37

    @pytest.mark.parametrize("b_position", [3, 30], ids=["moved", "plain"])
    def test_budget_cut_inside_the_tour(self, b_position):
        """Budget 20: one expansion reaches H, 19 are left for its frame.
        With B ahead of the cut its deletion moves the cut one leaf to the
        right (the oracle comparison sees which leaves made it)."""
        kg, space, context = _hand_world(39, _hub_edges(36, b_position), _TABLE)
        _solo(kg, space, context, 0, 2, 3000)
        tallies = _solo(kg, space, context, 1, 2, 20)
        assert tallies["chain_tour_replays"] == 1
        assert tallies["chain_tour_fallbacks"] == 0
        assert tallies["chain_expansions_replayed"] == 19

    @pytest.mark.parametrize("neutral", [True, False])
    def test_removal_that_moves_a_float_runs_live(self, neutral):
        """S -a- M -one- H -r- S: the depth-3 pass enters H below M with
        ``log a`` and meets S across the ``r`` edge.  Deleting that leaf is
        exact only when ``(log a + log r) - log r == log a``; otherwise the
        frame is walked."""
        log_a = math.log(_TABLE["p"])
        r = 1.0 if neutral else next(
            value
            for value in (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.85, 0.9, 0.95)
            if (log_a + math.log(value)) - math.log(value) != log_a
        )
        edges = [(0, "p", 1), (1, "one", 2), (2, "r", 0)]
        edges += [(2, "one", 3 + index) for index in range(36)]
        kg, space, context = _hand_world(39, edges, {**_TABLE, "r": r})
        tallies = _solo(kg, space, context, 0, 3, 3000)
        assert tallies["chain_tour_replays"] >= 1
        if neutral:
            assert tallies["chain_tour_fallbacks"] == 0
        else:
            assert tallies["chain_tour_fallbacks"] >= 1

    def test_incomplete_tour_asked_for_more_runs_live(self):
        """A tour recorded under budget 10 holds 74 of the hub's 122
        expansions; a later pass with budget to spare cannot use it."""
        kg, space, context = _hand_world(123, _hub_edges(120, 3), _TABLE)
        small = _solo(kg, space, context, 1, 2, 10)
        assert small["chain_tour_records"] == 1
        assert small["chain_tour_replays"] == 1
        (tour,) = context.tours.values()
        assert not tour.complete and len(tour.skip) == 10 + kernels._TOUR_SLACK
        large = _solo(kg, space, context, 1, 2, 3000)
        assert large["chain_tour_records"] == 0
        assert large["chain_tour_replays"] == 0
        assert large["chain_tour_fallbacks"] == 1
        assert large["chain_expansions_replayed"] == 0

    def test_parallel_edges_and_a_self_loop_on_the_hub(self):
        edges = _hub_edges(36, 3) + [
            (2, "r", 2),  # self-loop: H is always on its own path
            (1, "s", 2),  # a second B-H edge: B occurs twice in the tour
            (2, "r", 3),  # a second H-leaf edge
            (3, "s", 4),
        ]
        kg, space, context = _hand_world(39, edges, _TABLE)
        replays = 0
        for source in (0, 1, 3, 4):
            for max_length, budget in ((2, 3000), (3, 3000), (3, 25), (4, 90)):
                replays += _solo(
                    kg, space, context, source, max_length, budget
                )["chain_tour_replays"]
        assert replays >= 8

    def test_uncovered_predicate_in_the_slack_does_not_raise(self):
        """The edge to leaf 29 is uncovered.  Budget 20 never reaches it,
        but a recording (budget 20 + 64) would: it publishes nothing and
        the frame is walked, silently like the reference.  With budget to
        reach it, both raise."""
        edges = _hub_edges(
            36, 3, lambda index: "uncovered" if index == 29 else "p"
        )
        kg, space, context = _hand_world(39, edges, _TABLE)
        tallies = _solo(kg, space, context, 1, 2, 20)
        assert not context.tours
        assert tallies["chain_tour_records"] == 0
        assert tallies["chain_expansions_replayed"] == 0
        with pytest.raises(EmbeddingError):
            _chain_oracle(kg, space, "q", 1, 2, None, 3000)
        with pytest.raises(EmbeddingError):
            kernels.chain_matches(context, 1, 2, None, 3000)

    @settings(max_examples=120, deadline=None)
    @given(
        num_nodes=st.integers(2, 7),
        raw_edges=st.lists(
            st.tuples(
                st.integers(0, 6), st.sampled_from(sorted(_TABLE)), st.integers(0, 6)
            ),
            min_size=1,
            max_size=14,
        ),
        max_length=st.integers(1, 4),
        budget=st.integers(1, 40),
        typed=st.none() | st.frozensets(st.integers(0, 6)),
    )
    def test_small_multigraphs_match_the_oracle(
        self, num_nodes, raw_edges, max_length, budget, typed
    ):
        """One context over every source in turn, every frame a hub."""
        edges = [
            (subject % num_nodes, predicate, obj % num_nodes)
            for subject, predicate, obj in raw_edges
        ]
        kg, space, context = _hand_world(num_nodes, edges, _TABLE)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_TOUR_MIN_ENTRIES", 1)
            for source in range(num_nodes):
                _solo(kg, space, context, source, max_length, budget, typed)
                _solo(kg, space, context, source, max_length, 3000, typed)


class TestEngineLevelEquivalence:
    @pytest.mark.parametrize("query_name", ["count", "chain", "star"])
    def test_cold_answer_similarity_equals_executed_plan(
        self, toy_world_factory, query_name
    ):
        """``answer_similarity`` on cold memos (one answer at a time: a
        batch of one per component — a trace replay for a simple plan, a
        one-element chain-prefix batch for a chain) equals what a full
        ``execute`` memoised in bulk, per component and, for the star
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
        config = EngineConfig(seed=7, max_rounds=8)

        shared_plan_cache().clear()
        cold_engine = ApproximateAggregateEngine(kg, embedding, config)
        cold_plans = [cold_engine.planner.plan_for(c) for c in components]
        for cold_plan in cold_plans:
            assert not cold_plan.memoised_similarities()
            assert not cold_plan.chain_prefix_memo
        cold = [
            {
                answer: cold_engine.answer_similarity([cold_plan], answer)
                for answer in cold_plan.distribution.answers.tolist()
            }
            for cold_plan in cold_plans
        ]

        shared_plan_cache().clear()
        engine = ApproximateAggregateEngine(kg, embedding, config)
        engine.execute(query)
        plans = [engine.planner.plan_for(c) for c in components]
        for plan, cold_plan, cold_memo in zip(plans, cold_plans, cold):
            assert plan is not cold_plan
            memo = plan.memoised_similarities()
            assert memo
            for answer, similarity in memo.items():
                assert engine.answer_similarity([plan], answer) == similarity
                assert cold_memo[answer] == similarity
            for key, row in plan.chain_prefix_memo.items():
                assert cold_plan.chain_prefix_memo[key] == row
        for plan in plans:
            assert bool(plan.chain_prefix_memo) == (plan.chain is not None)
        assert any(p.chain is not None for p in plans) == (query_name != "count")
        # every component judged these: the composite is their minimum
        memos = [plan.memoised_similarities() for plan in plans]
        judged = set.intersection(*(set(memo) for memo in memos))
        assert judged
        for answer in judged:
            assert cold_engine.answer_similarity(cold_plans, answer) == min(
                memo[answer] for memo in memos
            )

    @pytest.mark.parametrize(
        "preset", ["dbpedia-like", "freebase-like", "yago2-like"]
    )
    def test_cold_workload_pass_equals_the_reference(self, preset, monkeypatch):
        """One cold pass of the preset's non-AVG workload queries (the
        ledger's ``cold_shapes``, at scale 1): every ``validate_batch``
        outcome equals the seed ``ReferenceValidator``'s, and both edges
        of the replay occur — deletions and trace extensions."""
        from repro import ApproximateAggregateEngine, format_query
        from repro.datasets import ALL_PRESETS, standard_workload

        real = CorrectnessValidator.validate_batch
        checked = 0
        #: id -> (pinned validator, its reference validator and visiting
        #: mapping), so the oracle's per-context expansion cache is reused
        #: across batches
        oracles: dict[int, tuple] = {}

        def checking(self, answers, stop_threshold=None, tallies=None):
            nonlocal checked
            outcomes = real(self, answers, stop_threshold, tallies)
            pinned = oracles.get(id(self))
            if pinned is None:
                pinned = oracles[id(self)] = (
                    self,
                    ReferenceValidator(
                        self._kg, self._space, repeat_factor=self.repeat_factor,
                        max_length=self.max_length, floor=self.floor,
                        expansion_budget=self.expansion_budget,
                        branch_cap=self.branch_cap,
                    ),
                    {
                        node: probability
                        for node, probability in enumerate(self.visiting.tolist())
                        if probability > 0.0
                    },
                )
            _validator, reference, mapping = pinned
            for answer, outcome in outcomes.items():
                assert outcome == reference.validate(
                    self.source, answer, self.query_predicate, mapping,
                    stop_threshold,
                )
            checked += len(outcomes)
            return outcomes

        monkeypatch.setattr(CorrectnessValidator, "validate_batch", checking)
        bundle = ALL_PRESETS[preset](seed=0, scale=1.0)
        totals = dict.fromkeys(kernels.REPLAY_TALLIES, 0)
        for index, query in enumerate(standard_workload(bundle)):
            aggregate = query.aggregate_query
            if query.function.value == "AVG" and aggregate.group_by is None:
                continue  # the warm workloads' queries
            shared_plan_cache().clear()
            engine = ApproximateAggregateEngine(
                bundle.kg, bundle.embedding, EngineConfig(seed=0)
            )
            try:
                engine.execute(format_query(aggregate), seed=index)
                counters = engine.service.registry.snapshot()
            finally:
                engine.service.close()
            for name in totals:
                totals[name] += counters[f"repro_exec_{name}"]["{}"]
        assert checked > 1000
        assert totals["replay_deletions"] > 0
        assert totals["trace_extension_pops"] > 0

    @staticmethod
    def _chain_workload(world) -> list:
        return [
            (world.count_query(), 3),
            (world.avg_query(), 4),
            (world.chain_count_query(), 5),
        ]

    def test_concurrent_services_over_shared_plans(self, toy_world_factory):
        """Services over one graph get the same plans, validators and chain
        contexts from the plan cache, and each steps them from its own
        scheduler thread: two of them released at once replay shared traces
        and record and publish the same tours concurrently, and still answer
        like one service asked query by query.  (The toy traces never run
        short; ``test_two_threads_extending_one_trace`` races an extension.)"""
        import sys
        import threading

        world = toy_world_factory()
        workload = self._chain_workload(world)
        config = EngineConfig(seed=7, max_rounds=8)

        shared_plan_cache().clear()
        with AggregateQueryService(world.kg, world.embedding, config) as service:
            sequential = [
                _result_fingerprint(service.submit(query, seed=seed).result())
                for query, seed in workload
            ]

        barrier = threading.Barrier(2)
        results: dict = {}
        replays: list = []
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
                    replays.append(service.registry.snapshot()[
                        "repro_exec_chain_tour_replays"
                    ]["{}"])
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
        assert sum(replays) > 0
