"""Immutable CSR snapshot of a :class:`KnowledgeGraph` (the S1 kernel).

The graph stores its edges as three append-only columns ``(subject,
predicate_id, object)``; every traversal reads them in the compressed form
this module compiles once per graph structure version:

* ``indptr`` / ``neighbor_ids`` / ``edge_ids`` — the direction-agnostic
  adjacency in compressed-sparse-row form (per node in edge id order, a
  self-loop once), which ``KnowledgeGraph.neighbors`` reads;
* ``edge_predicate_ids`` — dense predicate id per edge, so a per-query
  similarity table indexed by predicate id turns per-edge weighting into
  one fancy-index.

It also precomputes per-type dense node-id arrays and a node x type
membership bitmask so candidate filtering (Definition 4's "shares a type
with the target") becomes a boolean gather instead of a per-node
``frozenset`` intersection.

Snapshots are cached on the graph and invalidated by the graph's
*structure* version counter, which the structural mutators (``add_node`` /
``add_edge``) bump.  Attribute writes (``set_attribute``) bump a separate
counter and leave the snapshot untouched — a CSR snapshot holds no
attribute data, so attribute-streaming workloads never pay a recompile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

import numpy as np

from repro.errors import NodeNotFoundError, StoreError

if TYPE_CHECKING:  # the graph module reads its adjacency from this one
    from scipy import sparse

    from repro.kg.graph import KnowledgeGraph

#: attribute name under which the (version, snapshot) pair is memoised
_SNAPSHOT_ATTR = "_csr_snapshot_cache"


class DedupAdjacency(NamedTuple):
    """Every node's *distinct* neighbours, ascending, for the whole graph.

    ``nbr[indptr[u]:indptr[u+1]]`` are the distinct neighbours of ``u``
    and ``owner`` repeats ``u`` alongside.  A distinct pair's edges are
    its first edge's predicate, ``pair_predicate[k]``, plus the parallel
    edges past it, rare in real graphs, as ``extras`` rows ``(pair,
    predicate id)`` in adjacency order.  So a per-predicate value folds
    onto the pairs with one gather, ``values[pair_predicate]``, and one
    ``ufunc.at`` over the extras.  ``has_self_loop`` says whether any
    pair is a node's own.
    """

    pair_predicate: np.ndarray  # (num_pairs,) the first edge's predicate id
    extras: np.ndarray  # (num_extras, 2) (pair, predicate id) per further edge
    has_self_loop: bool
    owner: np.ndarray
    nbr: np.ndarray
    indptr: np.ndarray  # (num_nodes + 1,)


@dataclass(frozen=True)
class CSRGraph:
    """Read-only array view of one graph version.

    ``neighbor_ids[indptr[u]:indptr[u+1]]`` lists the neighbours of ``u``
    (both edge directions, insertion order) and ``edge_ids`` the incident
    edge per entry; ``KnowledgeGraph.neighbors(u)`` is :meth:`neighbor_pairs`.
    """

    num_nodes: int
    num_edges: int
    indptr: np.ndarray  # (num_nodes + 1,) int64
    neighbor_ids: np.ndarray  # (num_endpoints,) int64
    edge_ids: np.ndarray  # (num_endpoints,) int64, aligned with neighbor_ids
    edge_predicate_ids: np.ndarray  # (num_edges,) int64
    type_names: tuple[str, ...]
    type_index: Mapping[str, int]
    type_matrix: np.ndarray  # (num_nodes, num_types) bool membership bitmask
    nodes_by_type: Mapping[str, np.ndarray]  # per-type dense node-id arrays

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, node_id: int) -> tuple[np.ndarray, np.ndarray]:
        """``(edge_ids, neighbour_ids)`` array views incident to ``node_id``."""
        self._check_node(node_id)
        start, end = self.indptr[node_id], self.indptr[node_id + 1]
        return self.edge_ids[start:end], self.neighbor_ids[start:end]

    def degree(self, node_id: int) -> int:
        """Number of incident edge endpoints (both directions)."""
        self._check_node(node_id)
        return int(self.indptr[node_id + 1] - self.indptr[node_id])

    def gather_neighbors(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated adjacency of ``nodes`` in one vectorised gather.

        Returns ``(rows, neighbour_ids, edge_ids)`` where ``rows[k]`` is the
        position within ``nodes`` that entry ``k`` belongs to.  Entries keep
        per-node adjacency order, so the result is the flattened equivalent
        of ``[kg.neighbors(n) for n in nodes]``.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - starts
        total = int(counts.sum())
        cumulative = np.concatenate(([0], np.cumsum(counts)))
        gather = np.repeat(starts - cumulative[:-1], counts) + np.arange(
            total, dtype=np.int64
        )
        rows = np.repeat(np.arange(len(nodes), dtype=np.int64), counts)
        return rows, self.neighbor_ids[gather], self.edge_ids[gather]

    def gather_within(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Adjacency of ``nodes`` restricted to endpoints inside ``nodes``.

        Returns ``(positions, rows, cols, edge_ids)``: ``positions`` maps
        every graph node id to its index within ``nodes`` (-1 outside), and
        the entry arrays cover only edges whose far endpoint is also in
        ``nodes`` — the shared gather behind Eq. 5 assembly and the
        strength closed form.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        positions = np.full(self.num_nodes, -1, dtype=np.int64)
        positions[nodes] = np.arange(len(nodes), dtype=np.int64)
        rows, neighbours, edge_ids = self.gather_neighbors(nodes)
        cols = positions[neighbours]
        keep = cols >= 0
        return positions, rows[keep], cols[keep], edge_ids[keep]

    def neighbor_pairs(self, node_id: int) -> list[tuple[int, int]]:
        """:meth:`neighbors` as a list of Python-int pairs, for Python loops
        (``KnowledgeGraph.neighbors``): built per node on first use and
        kept, as slicing the arrays per call costs such loops several-fold.
        """
        pairs = self._pair_lists.get(node_id)
        if pairs is None:
            edge_ids, neighbours = self.neighbors(node_id)
            pairs = list(zip(edge_ids.tolist(), neighbours.tolist()))
            self._pair_lists[node_id] = pairs
        return pairs

    # ------------------------------------------------------------------
    # Derived members: built once per snapshot on first use, never exported
    # (a loaded snapshot rebuilds them lazily).  The first
    # two serve the batched S1 stage (repro.sampling.strength), the third
    # S2's exact similarity rows (repro.semantics.kernels.leg_sums)
    # and CNARW's weights, the last :meth:`neighbor_pairs`.
    # ------------------------------------------------------------------
    @cached_property
    def adjacency_matrix(self) -> "sparse.csr_matrix":
        """The adjacency as a ``(num_nodes, num_nodes)`` matrix of ones.

        Built once per snapshot on first use and never exported
        (:meth:`export_arrays`): a loaded snapshot rebuilds it lazily.
        Nothing canonicalises it — no ``sum_duplicates``, no
        ``sort_indices`` — so parallel edges and self-loops stay separate
        entries in adjacency order, which is the order a product
        accumulates a row in and what the stage kernel's float order
        rests on.  Only S1 reads it: scipy is imported here, not at load.
        """
        from scipy import sparse

        return sparse.csr_matrix(
            (
                np.ones(len(self.neighbor_ids), dtype=np.float64),
                self.neighbor_ids,
                self.indptr,
            ),
            shape=(self.num_nodes, self.num_nodes),
        )

    @cached_property
    def entry_predicate_ids(self) -> np.ndarray:
        """Dense predicate id per adjacency entry (aligned with ``edge_ids``)."""
        predicate_ids = self.edge_predicate_ids[self.edge_ids]
        predicate_ids.setflags(write=False)
        return predicate_ids

    @cached_property
    def dedup_adjacency(self) -> DedupAdjacency:
        """The adjacency with parallel edges grouped (:class:`DedupAdjacency`).

        Everything about S2's exact similarity row that depends on the
        graph alone: which adjacency entries collapse onto which distinct
        ``(node, neighbour)`` pair.  What depends on the query — the max
        log-similarity per pair — is one gather over ``pair_predicate``
        and one ``np.maximum.at`` over the extras.
        """
        num_nodes = np.int64(self.num_nodes)
        entry_owner = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)
        )
        keys = entry_owner * num_nodes + self.neighbor_ids
        perm = np.argsort(keys, kind="stable")
        keys = keys[perm]
        predicate_ids = self.entry_predicate_ids[perm]
        fresh = np.ones(len(keys), dtype=bool)
        fresh[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(fresh)
        parallel = np.flatnonzero(~fresh)
        extras = np.column_stack(
            (np.searchsorted(starts, parallel, "right") - 1, predicate_ids[parallel])
        )
        distinct = keys[starts]
        owner = distinct // num_nodes
        nbr = distinct % num_nodes
        indptr = np.searchsorted(
            owner, np.arange(self.num_nodes + 1, dtype=np.int64)
        )
        members = DedupAdjacency(
            predicate_ids[starts], extras, bool((owner == nbr).any()), owner, nbr, indptr
        )
        for member in members:
            if isinstance(member, np.ndarray):
                member.setflags(write=False)
        return members

    @cached_property
    def _pair_lists(self) -> dict[int, list[tuple[int, int]]]:
        """node id -> its :meth:`neighbor_pairs`, once built."""
        return {}

    # ------------------------------------------------------------------
    # BFS
    # ------------------------------------------------------------------
    def hop_distance_array(self, source: int, max_hops: int) -> np.ndarray:
        """Frontier-array BFS: hop distance per node, -1 beyond ``max_hops``.

        Each level gathers the whole frontier's adjacency in one slice
        gather, masks already-visited nodes, and dedupes with ``np.unique``
        — no per-edge Python.
        """
        if max_hops < 0:
            raise ValueError("max_hops must be >= 0")
        self._check_node(source)
        distances = np.full(self.num_nodes, -1, dtype=np.int64)
        distances[source] = 0
        frontier = np.asarray([source], dtype=np.int64)
        for depth in range(1, max_hops + 1):
            _, neighbours, _ = self.gather_neighbors(frontier)
            fresh = neighbours[distances[neighbours] < 0]
            if len(fresh) == 0:
                break
            frontier = np.unique(fresh)
            distances[frontier] = depth
        return distances

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def type_mask(self, types: Iterable[str]) -> np.ndarray:
        """Boolean mask over node ids: carries at least one of ``types``.

        Unknown type names contribute nothing (matching
        ``Node.shares_type_with`` on an absent type).
        """
        columns = [self.type_index[name] for name in types if name in self.type_index]
        if not columns:
            return np.zeros(self.num_nodes, dtype=bool)
        if len(columns) == 1:
            return self.type_matrix[:, columns[0]].copy()
        return self.type_matrix[:, columns].any(axis=1)

    def nodes_with_type(self, type_name: str) -> np.ndarray:
        """Dense node-id array of one type ([] for unknown types)."""
        nodes = self.nodes_by_type.get(type_name)
        if nodes is None:
            return np.empty(0, dtype=np.int64)
        return nodes

    def nodes_with_any_type(self, types: Iterable[str]) -> np.ndarray:
        """Sorted distinct node ids carrying any of ``types``."""
        parts = [self.nodes_with_type(name) for name in types]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    # ------------------------------------------------------------------
    # Store hooks (repro.store)
    # ------------------------------------------------------------------
    def export_arrays(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(metadata, arrays)`` capturing this snapshot for persistence.

        The arrays are exactly the snapshot's own (read-only) buffers —
        no copy is made here; the store layer writes them to disk.
        ``nodes_by_type`` is *not* exported: it is derivable column by
        column from ``type_matrix`` (see :func:`csr_from_arrays`).
        """
        metadata = {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "type_names": list(self.type_names),
        }
        arrays = {
            "indptr": self.indptr,
            "neighbor_ids": self.neighbor_ids,
            "edge_ids": self.edge_ids,
            "edge_predicate_ids": self.edge_predicate_ids,
            "type_matrix": self.type_matrix,
        }
        return metadata, arrays

    # ------------------------------------------------------------------
    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.num_nodes:
            raise NodeNotFoundError(f"node id {node_id} out of range")


def csr_from_arrays(metadata: Mapping, arrays: Mapping[str, np.ndarray]) -> CSRGraph:
    """Rebuild a :class:`CSRGraph` from :meth:`CSRGraph.export_arrays` output.

    The arrays are adopted as-is (zero-copy: memory-mapped or shared
    segments stay memory-mapped or shared); only the small per-type id
    lists are materialised, by reading ``type_matrix`` columns.
    :func:`build_csr` assembles its snapshots here too.
    """
    required = ("indptr", "neighbor_ids", "edge_ids", "edge_predicate_ids",
                "type_matrix")
    missing = [name for name in required if name not in arrays]
    if missing:
        raise StoreError(f"snapshot arrays missing segments: {missing}")
    type_names = tuple(metadata["type_names"])
    type_matrix = arrays["type_matrix"]
    type_index = {name: column for column, name in enumerate(type_names)}
    nodes_by_type: dict[str, np.ndarray] = {}
    for name, column in type_index.items():
        typed = np.flatnonzero(type_matrix[:, column]).astype(np.int64)
        typed.setflags(write=False)
        nodes_by_type[name] = typed
    return CSRGraph(
        num_nodes=int(metadata["num_nodes"]),
        num_edges=int(metadata["num_edges"]),
        indptr=arrays["indptr"],
        neighbor_ids=arrays["neighbor_ids"],
        edge_ids=arrays["edge_ids"],
        edge_predicate_ids=arrays["edge_predicate_ids"],
        type_names=type_names,
        type_index=type_index,
        type_matrix=type_matrix,
        nodes_by_type=nodes_by_type,
    )


def install_snapshot(kg: KnowledgeGraph, snapshot: CSRGraph) -> CSRGraph:
    """Seed ``kg``'s snapshot cache with an externally loaded snapshot.

    After installation :func:`csr_snapshot` returns ``snapshot`` without
    running :func:`build_csr` — the point of loading a memory-mapped
    snapshot from the store.  The snapshot must describe the graph's
    *current* structure; size mismatches are rejected here, version/key
    validation happens in the store layer before this call.
    """
    if snapshot.num_nodes != kg.num_nodes or snapshot.num_edges != kg.num_edges:
        raise StoreError(
            f"snapshot shape ({snapshot.num_nodes} nodes, {snapshot.num_edges} "
            f"edges) does not match the graph ({kg.num_nodes} nodes, "
            f"{kg.num_edges} edges)"
        )
    setattr(kg, _SNAPSHOT_ATTR, (kg.structure_version, snapshot))
    return snapshot


#: number of full ``build_csr`` compilations this process has run; the
#: store tests assert (and the CLI's ``snapshot load`` reports) that a
#: memory-mapped snapshot load leaves this counter untouched
_BUILD_CALLS = 0


def build_call_count() -> int:
    """How many times :func:`build_csr` has actually compiled a snapshot."""
    return _BUILD_CALLS


def build_csr(kg: KnowledgeGraph) -> CSRGraph:
    """Compile a fresh :class:`CSRGraph` from the graph's edge columns.

    The adjacency comes out of one stable sort: endpoint entries are
    interleaved (subject entry, then object entry, per edge) so that each
    node lists its entries in edge id order, the subject's first.
    """
    global _BUILD_CALLS
    _BUILD_CALLS += 1
    num_nodes = kg.num_nodes
    triples = kg.triple_array()
    num_edges = len(triples)
    subjects, predicate_ids, objects = triples[:, 0], triples[:, 1], triples[:, 2]

    # Interleave the two directions per edge; a self-loop contributes one
    # endpoint entry only.
    endpoint_src = np.empty(2 * num_edges, dtype=np.int64)
    endpoint_dst = np.empty(2 * num_edges, dtype=np.int64)
    endpoint_src[0::2], endpoint_src[1::2] = subjects, objects
    endpoint_dst[0::2], endpoint_dst[1::2] = objects, subjects
    endpoint_edge = np.repeat(np.arange(num_edges, dtype=np.int64), 2)
    keep = np.ones(2 * num_edges, dtype=bool)
    keep[1::2] = subjects != objects
    endpoint_src = endpoint_src[keep]
    endpoint_dst = endpoint_dst[keep]
    endpoint_edge = endpoint_edge[keep]

    order = np.argsort(endpoint_src, kind="stable")
    neighbor_ids = endpoint_dst[order]
    edge_ids = endpoint_edge[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(endpoint_src, minlength=num_nodes))

    type_names = kg.types
    type_matrix = np.zeros((num_nodes, len(type_names)), dtype=bool)
    for column, name in enumerate(type_names):
        type_matrix[kg.nodes_with_type(name), column] = True

    arrays = {
        "indptr": indptr,
        "neighbor_ids": neighbor_ids,
        "edge_ids": edge_ids,
        "edge_predicate_ids": predicate_ids,
        "type_matrix": type_matrix,
    }
    for array in arrays.values():
        array.setflags(write=False)
    metadata = {"num_nodes": num_nodes, "num_edges": num_edges, "type_names": type_names}
    return csr_from_arrays(metadata, arrays)


def csr_snapshot(kg: KnowledgeGraph) -> CSRGraph:
    """The cached snapshot of ``kg``'s current structure (compiled on miss).

    Keyed on ``kg.structure_version`` only: attribute writes do not evict.
    """
    cached = getattr(kg, _SNAPSHOT_ATTR, None)
    version = kg.structure_version
    if cached is not None and cached[0] == version:
        return cached[1]
    snapshot = build_csr(kg)
    setattr(kg, _SNAPSHOT_ATTR, (version, snapshot))
    return snapshot
