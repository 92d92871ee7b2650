"""Semantic similarity of paths and subgraph matches (paper §III, §IV-B2).

* :mod:`repro.semantics.similarity` — Eq. 2-3: geometric-mean path
  similarity and per-answer best-match similarity.
* :mod:`repro.semantics.matching` — exhaustive single-pass enumeration of
  best matches within the n-bounded scope (the expensive step of SSB).
* :mod:`repro.semantics.validation` — correctness validation: the exact
  similarity row of a simple or a chain component, a few (max, +) array
  passes per plan (:mod:`repro.semantics.kernels`).
* :mod:`repro.semantics.reference` — the paper's greedy r-path search,
  which only the figures bind.
"""

from repro.semantics.matching import SubgraphMatch, best_matches_from, find_best_match
from repro.semantics.similarity import (
    SIMILARITY_FLOOR,
    clamp_similarity,
    match_similarity,
    path_similarity,
)
from repro.semantics.validation import CorrectnessValidator, ValidationOutcome

__all__ = [
    "SIMILARITY_FLOOR",
    "clamp_similarity",
    "path_similarity",
    "match_similarity",
    "SubgraphMatch",
    "find_best_match",
    "best_matches_from",
    "CorrectnessValidator",
    "ValidationOutcome",
]
