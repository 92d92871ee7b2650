"""Correctness validation: Definition 4's n-bounded best-path similarity.

An answer is correct when its similarity (Eq. 3) — the best Eq. 2
geometric mean over the simple paths of at most ``n_bound`` edges from
the mapping node — reaches ``tau``.  The paper (§IV-B2) approximates that
maximum with a greedy best-first search that stops after ``r`` paths and
accepts the search's false negatives.  Here a validator computes it
exactly instead: (max, +) passes over the CSR snapshot
(:mod:`repro.semantics.kernels`) yield the row for every node at once, so
validating an answer is one array read and the verdicts equal SSB's tau
ground truth.  The paper's r-path search lives on as
:class:`repro.semantics.reference.ReferenceValidator`, which only the
figures' engine binds (Fig. 5(b) and Fig. 6(c) chart its false negatives).

A validator is bound to one plan and builds its row lazily, once, in one
``similarity_row`` span.  A simple plan's is a :class:`CorrectnessValidator`
(bound to the mapping node and the query predicate).  A chain plan's is a
:class:`ChainValidator`: a chain answer's similarity is the best Eq. 2
geometric mean over concatenations of per-leg simple paths (§V-B), each
leg at most ``n_bound`` edges weighed against its own hop's predicate and
each running between nodes typed as its hop requires.  Its row chains
the kernel's seeded leg passes, seeded by the first leg's validator.
Whatever a plan's validator is, ``plan.validator.validate_batch(node_ids)``
is the only S2 call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import GraphChangedError, NodeNotFoundError
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.obs.trace import Clock
from repro.query.graph import PathQuery
from repro.semantics import kernels
from repro.semantics.matching import best_sums_by_length
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


def log_similarities(
    kg: KnowledgeGraph, space: PredicateVectorSpace, predicate: str, floor: float
) -> np.ndarray:
    """Dense log-clamped similarity to ``predicate`` per predicate id (NaN
    where the embedding has no vector)."""
    row = space.known_similarity_row(predicate, kg.predicates)
    with np.errstate(invalid="ignore"):
        return np.log(np.clip(row, floor, 1.0))


def _leg_sums(
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    predicate: str,
    log_row: np.ndarray,
    seed: np.ndarray,
    max_length: int,
    floor: float,
) -> list[np.ndarray]:
    """:func:`~repro.semantics.kernels.leg_sums` of one leg weighed
    against ``predicate`` (its :func:`log_similarities`: ``log_row``); past
    :data:`~repro.semantics.kernels.EXACT_MAX_LENGTH`, every simple path
    from every seeded start enumerated (SSB's per-length DFS), so
    exponential in the bound — no workload runs a bound this long."""
    if max_length <= kernels.EXACT_MAX_LENGTH:
        return kernels.leg_sums(
            kg, space, csr_snapshot(kg), log_row, seed, max_length
        )
    sums = [np.full(kg.num_nodes, -np.inf) for _ in range(max_length)]
    for start in np.flatnonzero(seed > -np.inf).tolist():
        reached = best_sums_by_length(
            kg, space, predicate, start, max_length,
            offsets=(float(seed[start]),), floor=floor,
        )
        for node, (totals,) in reached.items():
            for level, total in zip(sums, totals):
                level[node] = max(level[node], total)
    return sums


class _RowValidator:
    """A validator that reads one lazily built, read-only row.

    Subclasses set ``kind``, pass their graph to ``__init__`` and
    implement :meth:`_build_row`.
    """

    kind = ""

    def __init__(self, kg: KnowledgeGraph) -> None:
        self._kg = kg
        self._row: tuple[np.ndarray, np.ndarray] | None = None
        self._row_lock = threading.Lock()

    def _build_row(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def row(self) -> tuple[np.ndarray, np.ndarray]:
        """``(similarity, best_length)`` per node id, computed on first use
        in one ``similarity_row`` span (``kind``, ``reached`` = nodes with
        a path).

        Built under the validator's own lock, at most once: queries and
        services racing on a cold plan wait for the first builder and read
        its row, which is read-only and published whole.  Raises
        :class:`~repro.errors.EmbeddingError` when an edge the row weighs
        carries a predicate the embedding does not cover — for every
        answer of the plan, as SSB fails the whole query.
        """
        row = self._row
        if row is None:
            with self._row_lock:
                row = self._row
                if row is None:
                    with Clock("similarity_row", kind=self.kind) as span:
                        row = self._build_row()
                        if span is not None:
                            span.annotate(reached=int(np.count_nonzero(row[1])))
                    for array in row:
                        array.setflags(write=False)
                    self._row = row
        return row

    def validate_batch(self, answers: Sequence[int] | np.ndarray) -> ValidationBatch:
        """Every answer's outcome, read off the row; a node the graph
        gained after the row was built is a :class:`GraphChangedError`."""
        answers = require_node_ids(self._kg, answers)
        similarity, best_length = self.row()
        if len(answers) and answers.max() >= len(similarity):
            raise GraphChangedError(
                f"node {answers.max()} was added after the row was built"
            )
        return ValidationBatch(answers, similarity[answers], best_length[answers])

    def validate(self, answer: int) -> ValidationOutcome:
        """One answer's outcome: a batch of one."""
        return self.validate_batch([answer]).outcome(0)


class CorrectnessValidator(_RowValidator):
    """The exact Eq. 3 row from one source: one plan's ``(source,
    predicate)`` context."""

    kind = "simple"

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
        super().__init__(kg)
        self._space = space
        self.source = source
        self.query_predicate = query_predicate
        self.max_length = max_length
        self.floor = floor

    def _sums(self) -> list[np.ndarray]:
        """The leg pass from a one-hot ``0.0`` seed at the source: the best
        log-sum of a simple path of each length to every node."""
        seed = np.full(self._kg.num_nodes, -np.inf)
        seed[self.source] = 0.0
        return _leg_sums(
            self._kg, self._space, self.query_predicate,
            log_similarities(self._kg, self._space, self.query_predicate, self.floor),
            seed, self.max_length, self.floor,
        )

    def _build_row(self) -> tuple[np.ndarray, np.ndarray]:
        return kernels.best_mean(enumerate(self._sums(), start=1), self._kg.num_nodes)

    def leg_sums(self, typed: np.ndarray) -> dict[int, np.ndarray]:
        """As a chain's first leg: path length -> the best log-sum of a
        simple path of that length to each node where ``typed`` holds
        (``-inf`` elsewhere)."""
        return {
            length: np.where(typed, level, -np.inf)
            for length, level in enumerate(self._sums(), start=1)
        }


class ChainValidator(_RowValidator):
    """A chain component's exact similarity row (§V-B).

    ``P_t(y)`` is the best total log-sum of a concatenation of per-leg
    simple paths of total length ``t`` ending at ``y``: leg ``k`` has at
    most ``max_length`` edges weighed against ``predicates[k]`` and runs
    from a node typed as hop ``k - 1`` requires (the mapping node for the
    first leg) to one typed as hop ``k`` requires.  The similarity is
    ``max_t exp(P_t(y) / t)`` and ``best_length`` the smallest ``t`` that
    attains it.  The first leg comes from ``first_leg`` (the exact row's
    validator in production, the paper's r-path search in the figures);
    each later leg is one seeded leg pass per total length so far, whose
    output, restricted to the hop's types, seeds the next leg.
    """

    kind = "chain"

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        component: PathQuery,
        first_leg,
        *,
        max_length: int,
        floor: float = SIMILARITY_FLOOR,
    ) -> None:
        super().__init__(kg)
        self._space = space
        self.component = component
        #: the validator of ``(source, predicates[0])``; anything with a
        #: ``leg_sums(typed)`` method
        self.first_leg = first_leg
        self.max_length = max_length
        self.floor = floor

    def _build_row(self) -> tuple[np.ndarray, np.ndarray]:
        snapshot = csr_snapshot(self._kg)
        hops = self.component.hops
        by_total = self.first_leg.leg_sums(snapshot.type_mask(hops[0][1]))
        for predicate, node_types in hops[1:]:
            by_total = {t: s for t, s in by_total.items() if (s > -np.inf).any()}
            if not by_total:  # nothing reached: no log row to compute
                break
            typed = snapshot.type_mask(node_types)
            log_row = log_similarities(self._kg, self._space, predicate, self.floor)
            following: dict[int, np.ndarray] = {}
            for total, seed in by_total.items():
                sums = _leg_sums(
                    self._kg, self._space, predicate, log_row, seed,
                    self.max_length, self.floor,
                )
                for length, level in enumerate(sums, start=1):
                    level = np.where(typed, level, -np.inf)
                    known = following.get(total + length)
                    following[total + length] = (
                        level if known is None else np.maximum(known, level)
                    )
            by_total = following
        return kernels.best_mean(sorted(by_total.items()), self._kg.num_nodes)
