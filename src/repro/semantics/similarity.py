"""Predicate similarity as Eq. 2-3 weigh it: the clamp and its floor.

The similarity of a subgraph match (an edge-to-path mapping from the query
edge to a KG path) is the geometric mean of each path edge's predicate
similarity to the query edge's predicate; an answer's similarity is the
maximum over its matches.  Both are computed per plan, for every node at
once, by :mod:`repro.semantics.kernels` (SSB's enumeration,
:mod:`repro.semantics.matching`, is the oracle).  Cosines can be
non-positive, so similarities are clamped to a small positive floor —
Lemma 1 assumes strictly positive edge weights, and a geometric mean dies
on zeros.
"""

from __future__ import annotations

import numpy as np

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import EmbeddingError
from repro.kg.graph import KnowledgeGraph

#: smallest predicate similarity the pipeline will use; keeps the geometric
#: mean well-defined and the random walk irreducible (Lemma 1).
SIMILARITY_FLOOR = 1e-3


def require_known_predicates(
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    predicate_ids: np.ndarray,
    values: np.ndarray,
) -> None:
    """Raise ``EmbeddingError`` where per-edge ``values`` carry NaN.

    ``values`` are gathers from a
    :meth:`~repro.embedding.predicate_space.PredicateVectorSpace.known_similarity_row`
    aligned with ``predicate_ids``; NaN marks an edge whose predicate the
    embedding does not cover.  Such edges only fail when actually touched,
    matching the pipeline's original lazy per-edge similarity lookups.
    """
    missing = np.isnan(values)
    if missing.any():
        unknown = kg.predicate_name(int(predicate_ids[missing.argmax()]))
        space.vector(unknown)  # names the culprit when it is truly unknown
        raise EmbeddingError(
            f"stale similarity row: predicate {unknown!r} resolved to NaN "
            "but the embedding now knows it"
        )


def clamp_similarity(value: float, floor: float = SIMILARITY_FLOOR) -> float:
    """Clamp a raw cosine into ``[floor, 1]``."""
    if value > 1.0:
        return 1.0
    if value < floor:
        return floor
    return value
