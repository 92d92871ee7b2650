"""Semantic similarity of paths and subgraph matches (paper §III, §IV-B2).

* :mod:`repro.semantics.similarity` — the clamped predicate similarity
  Eq. 2-3 weigh edges by.
* :mod:`repro.semantics.matching` — exhaustive single-pass enumeration of
  best matches within the n-bounded scope (the expensive step of SSB, and
  the exact rows' oracle).
* :mod:`repro.semantics.validation` — correctness validation: the exact
  similarity row of a simple or a chain component, a few (max, +) array
  passes per plan (:mod:`repro.semantics.kernels`).
* :mod:`repro.semantics.reference` — the paper's greedy r-path search,
  which only the figures bind.
"""

from repro.semantics.matching import SubgraphMatch, best_matches_from
from repro.semantics.similarity import SIMILARITY_FLOOR, clamp_similarity
from repro.semantics.validation import CorrectnessValidator, ValidationOutcome

__all__ = [
    "SIMILARITY_FLOOR",
    "clamp_similarity",
    "SubgraphMatch",
    "best_matches_from",
    "CorrectnessValidator",
    "ValidationOutcome",
]
