"""Knowledge-graph substrate: storage, indexes, traversal, IO, statistics.

The store follows Definition 1 of the paper: nodes are entities carrying a
unique name, one or more types, and a set of numeric attributes; edges carry
a predicate.  Traversal treats edges as bidirectional (the paper's random
walk and subgraph matches move along paths regardless of triple direction)
while the triple orientation is preserved for the SPARQL-style baseline.
NetworkX conversion is :mod:`repro.kg.interop`, imported by name so that
only its callers load networkx.
"""

from repro.kg.csr import (
    CSRGraph,
    build_csr,
    csr_from_arrays,
    csr_snapshot,
    install_snapshot,
)
from repro.kg.graph import Edge, KnowledgeGraph, Node
from repro.kg.io import (
    graph_fingerprint,
    load_json,
    load_triples,
    save_json,
    save_triples,
)
from repro.kg.statistics import GraphStatistics, compute_statistics
from repro.kg.traversal import hop_distances

__all__ = [
    "CSRGraph",
    "Edge",
    "KnowledgeGraph",
    "Node",
    "build_csr",
    "csr_from_arrays",
    "csr_snapshot",
    "graph_fingerprint",
    "install_snapshot",
    "GraphStatistics",
    "compute_statistics",
    "hop_distances",
    "load_json",
    "load_triples",
    "save_json",
    "save_triples",
]
