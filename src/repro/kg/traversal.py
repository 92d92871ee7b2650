"""Graph traversal: hop distances of the n-bounded scope (BFS).

The paper restricts both the exact baseline (SSB, Algorithm 1) and the
semantic-aware random walk to the *n-bounded subgraph* G' of the mapping
node ``us``: the induced graph over every node within ``n`` hops of ``us``
(§III / §IV-A2).  The walks' scopes come from the CSR snapshot
(:mod:`repro.kg.csr`); :func:`hop_distances` serves GRAB's hop-based
scoring.
"""

from __future__ import annotations

import numpy as np

from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph


def hop_distances(kg: KnowledgeGraph, source: int, max_hops: int) -> dict[int, int]:
    """BFS hop distance from ``source`` for all nodes within ``max_hops``.

    Distances treat edges as undirected, matching the paper's edge-to-path
    mapping.  The source itself has distance 0.  Runs as a frontier-array
    BFS over the graph's CSR snapshot — one adjacency gather per level.
    """
    distances = csr_snapshot(kg).hop_distance_array(source, max_hops)
    reached = np.flatnonzero(distances >= 0)
    return {int(node): int(distances[node]) for node in reached}
