"""Exact-schema SPARQL-style engine (the paper's JENA / Virtuoso rows).

Evaluates the query graph as a basic graph pattern with *exact* predicate
matching: a query edge ``(qs) -[product]-> (?t)`` only matches KG triples
whose predicate is literally ``product`` (in either direction, with the
target type check).  Schema-flexible answers — connected through synonym
predicates or multi-edge paths — are invisible to it, which is exactly why
the paper's Tables VI/VII show double-digit relative errors for the RDF
stores despite their answers being "exact".
"""

from __future__ import annotations

from repro.baselines.base import BaselineMethod
from repro.core.planner import resolve_mapping_node
from repro.kg.graph import KnowledgeGraph
from repro.query.aggregate import AggregateQuery
from repro.query.graph import PathQuery


class SparqlStyleEngine(BaselineMethod):
    """Conjunctive BGP evaluation with exact predicate names."""

    method_name = "SPARQL"

    def __init__(self, kg: KnowledgeGraph, *, label: str = "SPARQL") -> None:
        super().__init__(kg)
        self.method_name = label

    def _expand_hop(
        self, frontier: set[int], predicate: str, node_types: frozenset[str]
    ) -> set[int]:
        """One BGP join step: follow exact-predicate edges, check types."""
        reached: set[int] = set()
        for node in frontier:
            for matched in self._kg.objects_of(node, predicate):
                reached.add(matched)
            for matched in self._kg.subjects_of(node, predicate):
                reached.add(matched)
        return {
            node
            for node in reached
            if self._kg.node(node).shares_type_with(node_types)
        }

    def _component_answers(self, component: PathQuery) -> set[int]:
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        frontier = {source}
        for predicate, node_types in component.hops:
            frontier = self._expand_hop(frontier, predicate, node_types)
            if not frontier:
                return set()
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
