"""Correctness validation: Definition 4's n-bounded best-path similarity.

An answer is correct when its similarity (Eq. 3) — the best Eq. 2
geometric mean over the simple paths of at most ``n_bound`` edges from
the mapping node — reaches ``tau``.  The paper (§IV-B2) approximates that
maximum with a greedy best-first search that stops after ``r`` paths and
accepts the search's false negatives.  Here a validator computes it
exactly instead: one (max, +) pass per plan over the CSR snapshot
(:func:`repro.semantics.kernels.exact_similarities`) yields the row for
every node at once, so validating an answer is one array read and the
verdicts equal SSB's tau ground truth.  The paper's r-path search lives
on as :class:`repro.semantics.reference.ReferenceValidator`, which only
the figures' engine binds (Fig. 5(b) and Fig. 6(c) chart its false
negatives).

A validator is bound to one plan's ``(source, query predicate)`` context
and builds its row lazily, once.  A chain plan's validator is a
:class:`ChainValidator`: it wraps its first leg's validator and composes
the later legs per answer (§V-B).  Whatever a plan's validator is,
``plan.validator.validate_batch(node_ids)`` is the only S2 call, and each
validator keeps what it computed by node id — the exact row, or a
:class:`MemoisedSearch` memo of the answers it has searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import NodeNotFoundError
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.obs.trace import child_span
from repro.query.graph import PathQuery
from repro.semantics import kernels
from repro.semantics.matching import best_matches_from
from repro.semantics.similarity import SIMILARITY_FLOOR


@dataclass(frozen=True)
class ValidationOutcome:
    """Result of validating one answer."""

    answer: int
    similarity: float
    #: length (edges) of the best path found; 0 when none was found
    best_length: int = 0

    def is_correct(self, tau: float) -> bool:
        """True when the answer's best match clears tau."""
        return self.similarity >= tau


@dataclass(frozen=True)
class ValidationBatch:
    """Outcomes of one ``validate_batch`` call, aligned with its answers."""

    answers: np.ndarray
    similarity: np.ndarray
    #: 0 where no path reached the answer
    best_length: np.ndarray
    #: what a chain validator's DFS did for this batch, over
    #: :data:`~repro.semantics.kernels.CHAIN_TALLIES`; None elsewhere
    tallies: dict[str, int] | None = None

    def __len__(self) -> int:
        return len(self.answers)

    def outcome(self, position: int) -> ValidationOutcome:
        """The :class:`ValidationOutcome` of ``answers[position]``."""
        return ValidationOutcome(
            int(self.answers[position]),
            float(self.similarity[position]),
            int(self.best_length[position]),
        )


def require_node_ids(
    kg: KnowledgeGraph, node_ids: Sequence[int] | np.ndarray
) -> np.ndarray:
    """``node_ids`` as an int64 array; :class:`NodeNotFoundError` unless
    every id is a graph node (fancy indexing would wrap -1 around)."""
    ids = np.asarray(node_ids, dtype=np.int64)
    if len(ids) and not (0 <= ids.min() and ids.max() < kg.num_nodes):
        raise NodeNotFoundError(
            f"an answer's node id is outside [0, {kg.num_nodes})"
        )
    return ids


class CorrectnessValidator:
    """The exact Eq. 3 row from one source: one plan's ``(source,
    predicate)`` context."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        source: int,
        query_predicate: str,
        *,
        max_length: int = 3,
        floor: float = SIMILARITY_FLOOR,
    ) -> None:
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        self._kg = kg
        self._space = space
        self.source = source
        self.query_predicate = query_predicate
        self.max_length = max_length
        self.floor = floor
        self._row: tuple[np.ndarray, np.ndarray] | None = None

    def row(self) -> tuple[np.ndarray, np.ndarray]:
        """``(similarity, best_length)`` per node id, computed on first use.

        Read-only and published with one attribute store, so services and
        sessions sharing the plan read either nothing or the whole row;
        concurrent builders compute identical arrays.  Raises
        :class:`~repro.errors.EmbeddingError` when an edge the row weighs
        carries a predicate the embedding does not cover — for every
        answer of the plan, as SSB fails the whole query.
        """
        row = self._row
        if row is None:
            if self.max_length <= kernels.EXACT_MAX_LENGTH:
                row = kernels.exact_similarities(
                    self._kg,
                    self._space,
                    csr_snapshot(self._kg),
                    self._log_similarities(),
                    self.source,
                    self.max_length,
                )
            else:
                row = self._enumerated_row()
            for array in row:
                array.setflags(write=False)
            self._row = row
        return row

    def _log_similarities(self) -> np.ndarray:
        """Dense log-clamped similarity per predicate id (NaN where the
        embedding has no vector)."""
        row = self._space.known_similarity_row(
            self.query_predicate, self._kg.predicates
        )
        with np.errstate(invalid="ignore"):
            return np.log(np.clip(row, self.floor, 1.0))

    def _enumerated_row(self) -> tuple[np.ndarray, np.ndarray]:
        """The row past :data:`~repro.semantics.kernels.EXACT_MAX_LENGTH`:
        every simple path enumerated (SSB's DFS), so exponential in the
        bound — no workload runs a bound this long."""
        num_nodes = self._kg.num_nodes
        similarity = np.zeros(num_nodes)
        best_length = np.zeros(num_nodes, dtype=np.int8)
        matches = best_matches_from(
            self._kg,
            self._space,
            self.query_predicate,
            self.source,
            self.max_length,
            floor=self.floor,
        )
        for node, match in matches.items():
            similarity[node] = match.similarity
            best_length[node] = match.length
        return similarity, best_length

    def validate_batch(self, answers: Sequence[int] | np.ndarray) -> ValidationBatch:
        """Every answer's outcome, read off the row."""
        answers = require_node_ids(self._kg, answers)
        similarity, best_length = self.row()
        return ValidationBatch(answers, similarity[answers], best_length[answers])

    def validate(self, answer: int) -> ValidationOutcome:
        """One answer's outcome: a batch of one."""
        return self.validate_batch([answer]).outcome(0)

    def unsearched(self, answers: np.ndarray) -> int:
        """How many of ``answers`` a batch would still search: none, as
        the row holds every node."""
        return 0


class MemoisedSearch:
    """A validator whose per-answer search is memoised by node id.

    The memo is ``(similarity, best_length)`` over every graph node,
    similarity NaN until the node is searched.  It is allocated on first
    read and published with one attribute store, as
    :meth:`CorrectnessValidator.row` publishes its row, and each cell is
    written once — ``best_length`` first — with its final value, so
    services and sessions sharing the plan read NaN or that value.
    Subclasses set ``_kg`` and implement :meth:`_search`.
    """

    _memo: tuple[np.ndarray, np.ndarray] | None = None

    def memo(self) -> tuple[np.ndarray, np.ndarray]:
        """``(similarity, best_length)`` per node id, NaN where unsearched."""
        memo = self._memo
        if memo is None:
            num_nodes = self._kg.num_nodes
            memo = (np.full(num_nodes, np.nan), np.zeros(num_nodes, dtype=np.int16))
            self._memo = memo
        return memo

    def _search(
        self, answers: np.ndarray
    ) -> tuple[Sequence[float], Sequence[int], dict[str, int] | None]:
        """``(similarity, best_length, tallies)`` of unsearched answers."""
        raise NotImplementedError

    def validate_batch(self, answers: Sequence[int] | np.ndarray) -> ValidationBatch:
        """Every answer's outcome: the memo, after one :meth:`_search`
        over the answers it does not hold yet."""
        answers = require_node_ids(self._kg, answers)
        memo_similarity, memo_length = self.memo()
        similarity = memo_similarity[answers]
        misses = np.isnan(similarity)
        tallies = None
        if misses.any():
            missed = answers[misses]
            found, lengths, tallies = self._search(missed)
            memo_length[missed] = lengths
            memo_similarity[missed] = found
            similarity[misses] = found
        return ValidationBatch(answers, similarity, memo_length[answers], tallies)

    def validate(self, answer: int) -> ValidationOutcome:
        """One answer's outcome: a batch of one."""
        return self.validate_batch([answer]).outcome(0)

    def unsearched(self, answers: np.ndarray) -> int:
        """How many of ``answers`` (graph node ids) a batch would still
        search: the conjunction's skip count when an earlier component
        rejected them."""
        memo = self._memo
        if memo is None:
            return len(answers)
        return int(np.count_nonzero(np.isnan(memo[0][answers])))


class ChainValidator(MemoisedSearch):
    """A chain component's similarity, composed leg by leg (§V-B).

    A prefix is the best ``(log-similarity sum, edge count)`` for
    ``source ->hops[:level]-> node``, or ``None``; an answer's similarity
    is its full-chain prefix's Eq. 2 geometric mean.  Level 1 reads the
    first leg's validator (bound to the plan's mapping node); deeper
    levels enumerate backwards from each endpoint with a capped DFS —
    :func:`repro.semantics.kernels.chain_matches` over the level's
    :class:`~repro.semantics.kernels.ChainContext` — and keep the best
    geometric mean over the typed intermediates they reach one level
    down.  Prefixes are memoised per ``(level, node)`` and the level
    contexts built once, both on this validator, so they live and die
    with the plan.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        component: PathQuery,
        first_leg: CorrectnessValidator | MemoisedSearch,
        *,
        max_length: int,
        floor: float,
        budget_per_level: int,
    ) -> None:
        self._kg = kg
        self._space = space
        self.component = component
        #: the validator of ``(source, predicates[0])``
        self.first_leg = first_leg
        self.max_length = max_length
        self.floor = floor
        self.budget_per_level = budget_per_level
        #: (hop level, node) -> best (log-similarity sum, edge count) | None
        self.prefixes: dict[tuple[int, int], tuple[float, int] | None] = {}
        #: hop level (>= 2) -> its ``(ChainContext, typed intermediates)``,
        #: built on first use and published with ``setdefault``
        self.levels: dict[int, tuple] = {}

    def _search(
        self, answers: np.ndarray
    ) -> tuple[list[float], list[int], dict[str, int]]:
        """Resolve the batch's prefix levels together; each answer's
        similarity is its full-chain prefix's geometric mean."""
        num_hops = self.component.num_hops
        node_ids = answers.tolist()
        tallies = dict.fromkeys(kernels.CHAIN_TALLIES, 0)
        self._prefix_batch(num_hops, node_ids, tallies)
        prefixes = [self.prefixes[(num_hops, node_id)] for node_id in node_ids]
        return (
            [
                math.exp(prefix[0] / prefix[1]) if prefix and prefix[1] else 0.0
                for prefix in prefixes
            ],
            [prefix[1] if prefix else 0 for prefix in prefixes],
            tallies,
        )

    def _level_context(self, level: int) -> tuple:
        """``(ChainContext, typed intermediates)`` of a chain level >= 2.

        Both are functions of the plan — the level's query predicate, the
        types of the hop below it, the graph structure — built on first
        use from the shared CSR snapshot, so every prefix resolution at
        the level enumerates through plain-list adjacency with memoised
        per-predicate edge logs.  ``setdefault`` publishes: every reader
        uses the first pair stored.
        """
        cached = self.levels.get(level)
        if cached is None:
            component = self.component
            cached = self.levels.setdefault(
                level,
                (
                    kernels.build_chain_context(
                        self._kg,
                        self._space,
                        csr_snapshot(self._kg),
                        component.predicates[level - 1],
                        self.floor,
                    ),
                    frozenset(
                        self._kg.nodes_with_any_type(component.hops[level - 2][1])
                    ),
                ),
            )
        return cached

    def _prefix_batch(self, level: int, node_ids: list[int], tallies: dict) -> None:
        """Resolve ``(level, node)`` prefixes for many endpoints at once.

        A level with misses is one ``chain_prefix`` span (the level below
        nests in it) annotated with what its own DFS replayed and walked;
        ``tallies`` adds every level's.
        """
        memo = self.prefixes
        frontier = [
            node_id
            for node_id in dict.fromkeys(node_ids)
            if (level, node_id) not in memo
        ]
        if not frontier:
            return
        with child_span("chain_prefix", level=level, frontier=len(frontier)) as span:
            own = dict.fromkeys(kernels.CHAIN_TALLIES, 0)
            self._resolve_level(level, frontier, own, tallies)
            if span is not None:
                span.annotate(
                    replayed=own["chain_expansions_replayed"],
                    live=own["chain_expansions_live"],
                )
        for name, count in own.items():
            tallies[name] += count

    def _resolve_level(
        self, level: int, frontier: list[int], own: dict, tallies: dict
    ) -> None:
        """Fill the ``(level, node)`` prefixes of ``frontier`` (all misses).

        ``own`` takes what this level's DFS walked, replayed and recorded;
        the levels below add theirs to ``tallies`` themselves.
        """
        memo = self.prefixes
        if level == 1:
            batch = self.first_leg.validate_batch(frontier)
            for node_id, similarity, length in zip(
                frontier, batch.similarity.tolist(), batch.best_length.tolist()
            ):
                memo[(1, node_id)] = (
                    (length * math.log(max(similarity, 1e-12)), length)
                    if length
                    else None
                )
            return
        context, typed_nodes = self._level_context(level)
        matches_of = {
            node_id: kernels.chain_matches(
                context,
                node_id,
                self.max_length,
                typed_nodes,
                self.budget_per_level,
                own,
            )
            for node_id in frontier
        }
        endpoints = [
            endpoint for matches in matches_of.values() for endpoint in matches
        ]
        self._prefix_batch(level - 1, endpoints, tallies)
        for node_id, matches in matches_of.items():
            best_mean = 0.0
            result = None
            for endpoint, (similarity, match_length) in matches.items():
                prefix = memo[(level - 1, endpoint)]
                if prefix is None:
                    continue
                log_sum = prefix[0] + match_length * math.log(
                    max(similarity, 1e-12)
                )
                length = prefix[1] + match_length
                mean = math.exp(log_sum / length)
                if mean > best_mean:
                    best_mean = mean
                    result = (log_sum, length)
            memo[(level, node_id)] = result
