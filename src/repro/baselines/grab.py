"""GraB analog — structural-similarity graph matching.

GraB (Jin et al., WWW 2015) ranks matches by *structural* similarity:
shorter connections score higher, predicates' semantics are ignored.  Our
analog scores a candidate ``delta^(dist - 1)`` (distance = hop count from
the mapping node) and admits candidates whose score clears a structural
threshold.  Chains multiply per-hop scores via typed waypoints.

Because path length correlates only loosely with semantic similarity (the
paper's §III remark 1), GraB both misses long-path correct answers and
admits short-path incorrect ones — the source of its Table VI/VII errors.
"""

from __future__ import annotations

from repro.baselines.base import BaselineMethod
from repro.core.planner import resolve_mapping_node
from repro.kg.graph import KnowledgeGraph
from repro.kg.traversal import hop_distances
from repro.query.aggregate import AggregateQuery
from repro.query.graph import PathQuery


class GrabBaseline(BaselineMethod):
    """Distance-decay structural matching."""

    method_name = "GraB"

    def __init__(
        self,
        kg: KnowledgeGraph,
        *,
        decay: float = 0.5,
        threshold: float = 0.25,
        n_bound: int = 3,
    ) -> None:
        super().__init__(kg)
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.decay = decay
        self.threshold = threshold
        self.n_bound = n_bound

    def _component_answers(self, component: PathQuery) -> set[int]:
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        # Chains walk hop by hop through typed frontiers; simple queries
        # have a single frontier step.
        frontier = {source}
        for hop_index, (_predicate, node_types) in enumerate(component.hops):
            reached: set[int] = set()
            for start in frontier:
                distances = hop_distances(self._kg, start, self.n_bound)
                for node, distance in distances.items():
                    if node == start or distance == 0:
                        continue
                    score = self.decay ** (distance - 1)
                    if score < self.threshold:
                        continue
                    if self._kg.node(node).shares_type_with(node_types):
                        reached.add(node)
            if not reached:
                return set()
            frontier = reached
        frontier.discard(source)
        return frontier

    def collect_answers(self, aggregate_query: AggregateQuery) -> set[int]:
        """The factoid answer set for the query graph (BaselineMethod hook)."""
        components = aggregate_query.query.components
        answers = self._component_answers(components[0])
        for component in components[1:]:
            answers &= self._component_answers(component)
            if not answers:
                break
        return answers
