"""QGA analog — keyword-driven query-graph assembly.

QGA (Han et al., CIKM 2017) assembles a query graph from keywords and
evaluates it.  The assembly step is lossy: the chosen predicates are those
whose *names* share tokens with the query keywords, not those that are
semantically equivalent.  Our analog tokenises the query predicate(s) and
admits any candidate connected to the mapping node through a path whose
predicates all have token overlap (or whose best token-overlap product
clears a threshold) — a deliberately string-level approximation that
produces the largest errors of the comparator set, as in Tables VI/VII.
"""

from __future__ import annotations

import re

from repro.baselines.base import BaselineMethod
from repro.core.planner import resolve_mapping_node
from repro.kg.graph import KnowledgeGraph
from repro.query.aggregate import AggregateQuery
from repro.query.graph import PathQuery
from repro.sampling.scope import build_scope

_TOKEN_PATTERN = re.compile(r"[a-z]+")


def tokenize(predicate: str) -> frozenset[str]:
    """Lower-cased word tokens of a predicate name (camelCase/snake split)."""
    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", predicate)
    return frozenset(_TOKEN_PATTERN.findall(spaced.lower()))


def token_overlap(left: frozenset[str], right: frozenset[str]) -> float:
    """Jaccard overlap of token sets."""
    if not left or not right:
        return 0.0
    return len(left & right) / len(left | right)


class QgaBaseline(BaselineMethod):
    """Keyword overlap matching over the n-bounded neighbourhood."""

    method_name = "QGA"

    def __init__(
        self,
        kg: KnowledgeGraph,
        *,
        n_bound: int = 3,
        overlap_threshold: float = 0.34,
    ) -> None:
        super().__init__(kg)
        self.n_bound = n_bound
        self.overlap_threshold = overlap_threshold

    def _component_answers(self, component: PathQuery) -> set[int]:
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        target_types = component.target_types
        query_tokens = [tokenize(predicate) for predicate in component.predicates]
        scope = build_scope(self._kg, source, self.n_bound, target_types)

        # BFS over the scope keeping the best keyword-overlap seen on the
        # way; a candidate qualifies if it is reachable through edges of
        # which at least one overlaps any query keyword strongly enough.
        best_overlap: dict[int, float] = {source: 0.0}
        frontier = [source]
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                for edge_id, neighbour in self._kg.neighbors(node):
                    if neighbour not in scope.distances:
                        continue
                    predicate_tokens = tokenize(self._kg.edge(edge_id).predicate)
                    overlap = max(
                        token_overlap(predicate_tokens, tokens)
                        for tokens in query_tokens
                    )
                    score = max(best_overlap[node], overlap)
                    if score > best_overlap.get(neighbour, -1.0):
                        best_overlap[neighbour] = score
                        next_frontier.append(neighbour)
            frontier = next_frontier

        return {
            node
            for node in scope.candidate_answers
            if best_overlap.get(node, 0.0) >= self.overlap_threshold
        }

    def collect_answers(self, aggregate_query: AggregateQuery) -> set[int]:
        """The factoid answer set for the query graph (BaselineMethod hook)."""
        components = aggregate_query.query.components
        answers = self._component_answers(components[0])
        for component in components[1:]:
            answers &= self._component_answers(component)
            if not answers:
                break
        return answers
