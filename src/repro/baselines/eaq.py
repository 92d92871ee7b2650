"""EAQ analog — link-prediction-based aggregate answering.

EAQ (Li, Ge & Chen, ICDE 2020) collects candidate entities via embedding
link prediction and aggregates over them.  Our analog scores every
candidate triple ``(candidate, query_predicate, us)`` (both orientations)
with a trained triple-scoring model and admits candidates whose best score
clears an absolute threshold calibrated from the model's positive triples.

Characteristics the paper attributes to EAQ are preserved:

* **simple queries only** — no edge-to-path mapping, so chains/stars raise;
* **no user accuracy contract** — no error bound or confidence level;
* lower answer quality: link prediction confuses semantically related but
  incorrect neighbours, and misses answers whose connection is a
  multi-edge path.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineMethod, require_simple
from repro.core.planner import resolve_mapping_node
from repro.embedding.base import EmbeddingModel
from repro.errors import EmbeddingError
from repro.kg.graph import KnowledgeGraph
from repro.query.aggregate import AggregateQuery
from repro.sampling.scope import build_scope


class EaqBaseline(BaselineMethod):
    """Link-prediction candidate collection + exact aggregation."""

    method_name = "EAQ"

    def __init__(
        self,
        kg: KnowledgeGraph,
        model: EmbeddingModel,
        *,
        n_bound: int = 3,
        score_quantile: float = 0.9,
    ) -> None:
        super().__init__(kg)
        if not 0.0 < score_quantile < 1.0:
            raise ValueError("score_quantile must be in (0, 1)")
        self._model = model
        self.n_bound = n_bound
        self.score_quantile = score_quantile
        self._threshold_cache: dict[int, float] = {}

    def _score_threshold(self, predicate_id: int) -> float:
        """Score at the configured quantile of the predicate's true triples.

        Candidates scoring better (lower) than most known positives are
        predicted links; the quantile controls precision vs. recall.
        """
        cached = self._threshold_cache.get(predicate_id)
        if cached is not None:
            return cached
        triples = self._kg.triple_array()
        triples = triples[triples[:, 1] == predicate_id]
        if not len(triples):
            predicate = self._kg.predicate_name(predicate_id)
            raise EmbeddingError(
                f"predicate {predicate!r} has no triples to calibrate on"
            )
        scores = self._model.score(triples[:, 0], triples[:, 1], triples[:, 2])
        threshold = float(np.quantile(scores, self.score_quantile))
        self._threshold_cache[predicate_id] = threshold
        return threshold

    def collect_answers(self, aggregate_query: AggregateQuery) -> set[int]:
        """The factoid answer set for the query graph (BaselineMethod hook)."""
        require_simple(aggregate_query, self.method_name)
        component = aggregate_query.query.components[0]
        predicate, target_types = component.hops[0]
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        if not self._kg.has_predicate(predicate):
            return set()
        predicate_id = self._kg.predicate_id(predicate)
        threshold = self._score_threshold(predicate_id)

        scope = build_scope(self._kg, source, self.n_bound, target_types)
        candidates = np.asarray(scope.candidate_answers, dtype=np.int64)
        if candidates.size == 0:
            return set()
        relations = np.full(candidates.size, predicate_id)
        sources = np.full(candidates.size, source)
        forward = self._model.score(candidates, relations, sources)
        backward = self._model.score(sources, relations, candidates)
        best = np.minimum(forward, backward)
        return {int(node) for node in candidates[best <= threshold]}
