"""Predicate similarity space (Eq. 4 of the paper).

Wraps any :class:`PredicateEmbedding` and serves cached cosine similarities
between predicate names.  The sampler needs a similarity per edge per
transition row; rather than one cached pairwise call per edge, the hot path
asks for a dense :meth:`~PredicateVectorSpace.similarity_row` — one
matrix-vector product over the stacked unit-normalised predicate matrix,
cached per query predicate — and indexes it by dense predicate id.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.embedding.base import PredicateEmbedding
from repro.errors import EmbeddingError


def cosine_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Plain cosine similarity between two vectors (Eq. 4)."""
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    denominator = float(np.linalg.norm(left) * np.linalg.norm(right))
    if denominator == 0.0:
        return 0.0
    return float(np.dot(left, right) / denominator)


class PredicateVectorSpace:
    """Cached pairwise predicate similarities over an embedding."""

    def __init__(self, embedding: PredicateEmbedding) -> None:
        self._embedding = embedding
        self._vectors: dict[str, np.ndarray] = {}
        self._norms: dict[str, float] = {}
        self._pair_cache: dict[tuple[str, str], float] = {}
        #: vocabulary tuple -> stacked unit-normalised (P, d) matrix
        self._matrix_cache: dict[tuple[str, ...], np.ndarray] = {}
        #: (query predicate, vocabulary tuple) -> dense similarity row
        self._row_cache: dict[tuple[str, tuple[str, ...]], np.ndarray] = {}
        #: as _row_cache but with NaN marking unknown predicates
        self._known_row_cache: dict[tuple[str, tuple[str, ...]], np.ndarray] = {}

    @property
    def embedding(self) -> PredicateEmbedding:
        """The wrapped predicate embedding."""
        return self._embedding

    def vector(self, predicate: str) -> np.ndarray:
        """The (cached) vector of ``predicate``, as the embedding gives it."""
        cached = self._vectors.get(predicate)
        if cached is None:
            cached = np.asarray(self._embedding.predicate_vector(predicate), dtype=np.float64)
            self._vectors[predicate] = cached
        return cached

    def _norm(self, predicate: str) -> float:
        """The (cached) norm of ``predicate``'s vector, computed on first read."""
        cached = self._norms.get(predicate)
        if cached is None:
            cached = float(np.linalg.norm(self.vector(predicate)))
            self._norms[predicate] = cached
        return cached

    def similarity(self, predicate_a: str, predicate_b: str) -> float:
        """Cosine similarity, symmetric-cached; identical names give 1.0."""
        if predicate_a == predicate_b:
            return 1.0
        key = (predicate_a, predicate_b) if predicate_a <= predicate_b else (
            predicate_b,
            predicate_a,
        )
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        vector_a = self.vector(predicate_a)
        vector_b = self.vector(predicate_b)
        denominator = self._norm(predicate_a) * self._norm(predicate_b)
        value = float(np.dot(vector_a, vector_b) / denominator) if denominator else 0.0
        # Guard against floating-point drift outside the cosine range.
        value = max(-1.0, min(1.0, value))
        self._pair_cache[key] = value
        return value

    def _unit_matrix(self, predicates: tuple[str, ...], *, cache: bool) -> np.ndarray:
        """Stacked unit-normalised vectors of ``predicates``.

        ``cache`` should be set only for stable vocabularies (the
        embedding's own names, a graph's interned predicates) — ad-hoc
        lists would otherwise pin a (P, d) matrix each forever.
        """
        cached = self._matrix_cache.get(predicates) if cache else None
        if cached is not None:
            return cached
        rows = np.stack([self.vector(name) for name in predicates])
        norms = np.linalg.norm(rows, axis=1)
        unit = rows / np.where(norms > 0.0, norms, 1.0)[:, None]
        if cache:
            unit.setflags(write=False)
            self._matrix_cache[predicates] = unit
        return unit

    def _compute_similarity_row(
        self, query_predicate: str, vocabulary: tuple[str, ...], *, cache_matrix: bool
    ) -> np.ndarray:
        if not vocabulary:
            return np.empty(0, dtype=np.float64)
        if all(name == query_predicate for name in vocabulary):
            # Identical names give 1.0 without any vector lookup, exactly
            # like pairwise similarity() — even for unembedded predicates.
            return np.ones(len(vocabulary), dtype=np.float64)
        query_vector = self.vector(query_predicate)
        query_norm = self._norm(query_predicate)
        unit_query = (
            query_vector / query_norm if query_norm > 0.0 else np.zeros_like(query_vector)
        )
        matrix = self._unit_matrix(vocabulary, cache=cache_matrix)
        row = np.clip(matrix @ unit_query, -1.0, 1.0)
        for position, name in enumerate(vocabulary):
            if name == query_predicate:
                row[position] = 1.0  # identical names give exactly 1.0
        return row

    def similarity_row(
        self, query_predicate: str, predicates: Sequence[str] | None = None
    ) -> np.ndarray:
        """Dense similarities from every predicate in a vocabulary to the query.

        ``predicates`` fixes the row's ordering (default: the embedding's
        ``predicate_names``); callers index the result by dense predicate id.
        One matmul over the stacked unit-normalised predicate matrix, cached
        per (query predicate, vocabulary); the returned array is read-only.
        Intended for stable vocabularies (a graph's interned predicates) —
        for throwaway lists use :meth:`similarities_to`, which does not
        populate the caches.
        """
        vocabulary = tuple(
            self._embedding.predicate_names if predicates is None else predicates
        )
        key = (query_predicate, vocabulary)
        cached = self._row_cache.get(key)
        if cached is not None:
            return cached
        row = self._compute_similarity_row(query_predicate, vocabulary, cache_matrix=True)
        row.setflags(write=False)
        self._row_cache[key] = row
        return row

    def known_similarity_row(
        self, query_predicate: str, predicates: Sequence[str]
    ) -> np.ndarray:
        """Like :meth:`similarity_row`, but NaN where the embedding has no vector.

        This is the hot-path variant for a graph's full predicate
        vocabulary: consumers index the row by dense predicate id and defer
        the unknown-predicate failure until an edge labelled by one is
        actually touched (the seed's lazy per-edge behaviour), by checking
        the gathered values for NaN.  Cached per (query, vocabulary); the
        returned array is read-only.
        """
        vocabulary = tuple(predicates)
        key = (query_predicate, vocabulary)
        cached = self._known_row_cache.get(key)
        if cached is not None:
            return cached
        known = [
            (position, name)
            for position, name in enumerate(vocabulary)
            if self._embedding.knows_predicate(name)
        ]
        row = np.full(len(vocabulary), np.nan, dtype=np.float64)
        if known:
            values = self.similarity_row(
                query_predicate, tuple(name for _, name in known)
            )
            row[[position for position, _ in known]] = values
        row.setflags(write=False)
        self._known_row_cache[key] = row
        return row

    def similarities_to(self, query_predicate: str, predicates: Iterable[str]) -> np.ndarray:
        """Vector of similarities from each of ``predicates`` to the query.

        One matmul, uncached: ad-hoc predicate lists do not grow the
        per-vocabulary caches.
        """
        return self._compute_similarity_row(
            query_predicate, tuple(predicates), cache_matrix=False
        )

    def most_similar(self, query_predicate: str, top_k: int = 5) -> list[tuple[str, float]]:
        """The ``top_k`` known predicates most similar to ``query_predicate``.

        Routed through :meth:`similarity_row` so ranking the whole
        vocabulary costs one matmul instead of populating the O(P^2)
        pairwise cache.
        """
        if top_k <= 0:
            raise EmbeddingError("top_k must be positive")
        vocabulary = tuple(self._embedding.predicate_names)
        row = self.similarity_row(query_predicate, vocabulary)
        scored = [
            (name, float(value))
            for name, value in zip(vocabulary, row)
            if name != query_predicate
        ]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:top_k]
