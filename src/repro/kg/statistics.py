"""Descriptive statistics of a knowledge graph.

Mirrors Table III of the paper (node / edge / type / predicate counts) plus
degree statistics the samplers care about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics in the shape of the paper's Table III."""

    name: str
    num_nodes: int
    num_edges: int
    num_node_types: int
    num_edge_predicates: int
    mean_degree: float
    max_degree: int
    num_attributes: int

    def as_table_row(self) -> dict[str, object]:
        """Row dict for the reporting layer (Table III columns)."""
        return {
            "Dataset": self.name,
            "#Nodes": self.num_nodes,
            "#Edges": self.num_edges,
            "#Node-Types": self.num_node_types,
            "#Edge-Predicates": self.num_edge_predicates,
            "MeanDegree": round(self.mean_degree, 2),
        }


def compute_statistics(kg: KnowledgeGraph) -> GraphStatistics:
    """Compute :class:`GraphStatistics` for ``kg``."""
    degrees = np.diff(csr_snapshot(kg).indptr)
    attribute_names: set[str] = set()
    for node_id in kg.nodes():
        attribute_names.update(kg.node(node_id).attributes)
    return GraphStatistics(
        name=kg.name,
        num_nodes=kg.num_nodes,
        num_edges=kg.num_edges,
        num_node_types=len(kg.types),
        num_edge_predicates=kg.num_predicates,
        mean_degree=float(degrees.mean()) if degrees.size else 0.0,
        max_degree=int(degrees.max()) if degrees.size else 0,
        num_attributes=len(attribute_names),
    )
