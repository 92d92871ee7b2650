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
— a chain plan's first leg included — and builds its row lazily, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
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

    def __len__(self) -> int:
        return len(self.answers)

    def outcome(self, position: int) -> ValidationOutcome:
        """The :class:`ValidationOutcome` of ``answers[position]``."""
        return ValidationOutcome(
            int(self.answers[position]),
            float(self.similarity[position]),
            int(self.best_length[position]),
        )


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
        similarity, best_length = self.row()
        answers = np.asarray(answers, dtype=np.int64)
        return ValidationBatch(answers, similarity[answers], best_length[answers])

    def validate(self, answer: int) -> ValidationOutcome:
        """One answer's outcome: a batch of one."""
        return self.validate_batch([answer]).outcome(0)
