"""In-memory knowledge-graph store (Definition 1 of the paper).

Nodes and predicates are interned to dense integer ids so that samplers and
matchers can use array-based bookkeeping.  The store keeps three access
structures in sync:

* per-node adjacency lists of ``(edge_id, neighbour_id)`` pairs used by the
  random walk and path search (direction-agnostic, as in the paper),
* a triple view ``(subject, predicate, object)`` used by the SPARQL-style
  exact-schema baseline,
* secondary indexes: name -> node, type -> nodes, predicate -> edges.

Names are unique per Definition 1 (KGs are assumed entity-disambiguated);
adding a second node with an existing name raises :class:`GraphError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError


@dataclass(frozen=True)
class Node:
    """A read-only view of one entity."""

    node_id: int
    name: str
    types: frozenset[str]
    attributes: Mapping[str, float]

    def attribute(self, name: str, default: float | None = None) -> float | None:
        """Value of numeric attribute ``name``, or ``default`` if absent."""
        return self.attributes.get(name, default)

    def has_type(self, type_name: str) -> bool:
        """True when the node carries ``type_name``."""
        return type_name in self.types

    def shares_type_with(self, types: Iterable[str]) -> bool:
        """True when the node's type set intersects ``types`` (Def. 4.1)."""
        return not self.types.isdisjoint(types)


@dataclass(frozen=True)
class Edge:
    """A read-only view of one triple ``(subject, predicate, object)``."""

    edge_id: int
    subject: int
    object: int
    predicate_id: int
    predicate: str

    def other_endpoint(self, node_id: int) -> int:
        """The endpoint opposite ``node_id`` (edges traverse both ways)."""
        if node_id == self.subject:
            return self.object
        if node_id == self.object:
            return self.subject
        raise GraphError(f"node {node_id} is not an endpoint of edge {self.edge_id}")


@dataclass
class _NodeRecord:
    name: str
    types: frozenset[str]
    attributes: dict[str, float] = field(default_factory=dict)


@dataclass
class _EdgeRecord:
    subject: int
    object: int
    predicate_id: int


class KnowledgeGraph:
    """A mutable, indexed property graph.

    >>> kg = KnowledgeGraph()
    >>> germany = kg.add_node("Germany", types=["Country"])
    >>> bmw = kg.add_node("BMW_320", types=["Automobile"], attributes={"price": 36_000})
    >>> _ = kg.add_edge(bmw, "assembly", germany)
    >>> kg.num_nodes, kg.num_edges
    (2, 1)
    >>> [kg.node(n).name for n in kg.nodes_with_type("Automobile")]
    ['BMW_320']
    """

    def __init__(self, name: str = "kg") -> None:
        self.name = name
        self._nodes: list[_NodeRecord] = []
        self._edges: list[_EdgeRecord] = []
        # adjacency[u] holds (edge_id, neighbour) for both edge directions.
        self._adjacency: list[list[tuple[int, int]]] = []
        self._predicates: list[str] = []
        self._predicate_ids: dict[str, int] = {}
        self._name_index: dict[str, int] = {}
        self._type_index: dict[str, list[int]] = {}
        self._predicate_edge_index: dict[int, list[int]] = {}
        # Monotone mutation counters.  Structure covers nodes, edges and
        # types — everything a CSR snapshot or a cached query plan depends
        # on; attributes cover numeric property writes only.  Splitting the
        # two means attribute streams (``set_attribute``) never recompile
        # snapshots or evict plans, while structural edits invalidate both.
        self._structure_version = 0
        self._attribute_version = 0
        # attribute name -> float64 column over node ids (NaN = absent),
        # built on first read; set_attribute writes through, add_node
        # drops them all (their length is the node count)
        self._attribute_columns: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        types: Iterable[str],
        attributes: Mapping[str, float] | None = None,
    ) -> int:
        """Add an entity and return its dense integer id."""
        if name in self._name_index:
            raise GraphError(f"duplicate node name: {name!r}")
        type_set = frozenset(types)
        if not type_set:
            raise GraphError(f"node {name!r} must have at least one type")
        node_id = len(self._nodes)
        self._nodes.append(
            _NodeRecord(name=name, types=type_set, attributes=dict(attributes or {}))
        )
        self._adjacency.append([])
        self._name_index[name] = node_id
        for type_name in type_set:
            self._type_index.setdefault(type_name, []).append(node_id)
        self._structure_version += 1
        self._attribute_columns.clear()  # after the bump: see attribute_column
        return node_id

    def add_edge(self, subject: int, predicate: str, obj: int) -> int:
        """Add a triple and return its edge id."""
        self._check_node(subject)
        self._check_node(obj)
        predicate_id = self.intern_predicate(predicate)
        edge_id = len(self._edges)
        self._edges.append(_EdgeRecord(subject=subject, object=obj, predicate_id=predicate_id))
        self._adjacency[subject].append((edge_id, obj))
        if obj != subject:
            self._adjacency[obj].append((edge_id, subject))
        self._predicate_edge_index.setdefault(predicate_id, []).append(edge_id)
        self._structure_version += 1
        return edge_id

    def set_attribute(self, node_id: int, name: str, value: float) -> None:
        """Set (or overwrite) numeric attribute ``name`` on ``node_id``."""
        self._check_node(node_id)
        self._nodes[node_id].attributes[name] = float(value)
        self._attribute_version += 1
        # after the bump: see attribute_column
        column = self._attribute_columns.get(name)
        if column is not None:
            column[node_id] = value

    def intern_predicate(self, predicate: str) -> int:
        """Return the dense id for ``predicate``, creating one if needed."""
        existing = self._predicate_ids.get(predicate)
        if existing is not None:
            return existing
        predicate_id = len(self._predicates)
        self._predicates.append(predicate)
        self._predicate_ids[predicate] = predicate_id
        return predicate_id

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Total mutation counter: bumped by every structural or attribute change."""
        return self._structure_version + self._attribute_version

    @property
    def structure_version(self) -> int:
        """Counter of structural mutations (``add_node`` / ``add_edge``).

        CSR snapshots and cached query plans key on this counter only, so
        attribute writes never invalidate them.
        """
        return self._structure_version

    @property
    def attribute_version(self) -> int:
        """Counter of attribute writes (``set_attribute``)."""
        return self._attribute_version

    @property
    def num_nodes(self) -> int:
        """Number of entities in the graph."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of stored triples."""
        return len(self._edges)

    @property
    def num_predicates(self) -> int:
        """Number of distinct (interned) predicates."""
        return len(self._predicates)

    def node(self, node_id: int) -> Node:
        """Read-only view of ``node_id``; raises :class:`NodeNotFoundError`."""
        self._check_node(node_id)
        record = self._nodes[node_id]
        return Node(
            node_id=node_id,
            name=record.name,
            types=record.types,
            attributes=record.attributes,
        )

    def attribute_column(self, name: str) -> np.ndarray:
        """Attribute ``name`` of every node as a read-only float64 array.

        Indexed by node id; NaN where the node lacks the attribute.  The
        array-valued form of :meth:`Node.attribute` for code that screens
        many answers at once.  Built on first use and then kept current:
        the returned view shares the column ``set_attribute`` writes
        through to, so it never shows a value older than the last write.
        ``add_node`` drops the columns — fetch one per use, do not hold
        it across structural mutation.

        A mutation on another thread may land while a column is being
        built.  Writers bump their version counter *before* they touch
        the columns and the build re-reads it *after* publishing, so such
        a write either finds the published column or forces a rebuild.
        """
        column = self._attribute_columns.get(name)
        while column is None:
            version = self.version
            column = np.full(len(self._nodes), np.nan, dtype=np.float64)
            for node_id, record in zip(range(len(column)), self._nodes):
                value = record.attributes.get(name)
                if value is not None:
                    column[node_id] = value
            self._attribute_columns[name] = column
            if version != self.version:
                column = None
        view = column.view()
        view.setflags(write=False)
        return view

    def edge(self, edge_id: int) -> Edge:
        """Read-only view of ``edge_id``; raises :class:`EdgeNotFoundError`."""
        if not 0 <= edge_id < len(self._edges):
            raise EdgeNotFoundError(f"edge id {edge_id} out of range")
        record = self._edges[edge_id]
        return Edge(
            edge_id=edge_id,
            subject=record.subject,
            object=record.object,
            predicate_id=record.predicate_id,
            predicate=self._predicates[record.predicate_id],
        )

    def predicate_of(self, edge_id: int) -> str:
        """The predicate name of ``edge_id`` without building an Edge view.

        Hot-path accessor: samplers and validators call this once per
        traversed edge, so it skips the dataclass construction of
        :meth:`edge`.
        """
        if not 0 <= edge_id < len(self._edges):
            raise EdgeNotFoundError(f"edge id {edge_id} out of range")
        return self._predicates[self._edges[edge_id].predicate_id]

    def node_by_name(self, name: str) -> int:
        """The id of the (unique) node named ``name`` (Definition 1)."""
        node_id = self._name_index.get(name)
        if node_id is None:
            raise NodeNotFoundError(f"no node named {name!r}")
        return node_id

    def has_node_named(self, name: str) -> bool:
        """True when some node carries the name ``name``."""
        return name in self._name_index

    def predicate_name(self, predicate_id: int) -> str:
        """The predicate string behind a dense predicate id."""
        if not 0 <= predicate_id < len(self._predicates):
            raise GraphError(f"predicate id {predicate_id} out of range")
        return self._predicates[predicate_id]

    def predicate_id(self, predicate: str) -> int:
        """The dense id of ``predicate``; raises for unknown predicates."""
        predicate_id = self._predicate_ids.get(predicate)
        if predicate_id is None:
            raise GraphError(f"unknown predicate {predicate!r}")
        return predicate_id

    def has_predicate(self, predicate: str) -> bool:
        """True when ``predicate`` labels at least one edge."""
        return predicate in self._predicate_ids

    @property
    def predicates(self) -> tuple[str, ...]:
        """All predicate names, in interning (insertion) order."""
        return tuple(self._predicates)

    def nodes(self) -> Iterator[int]:
        """Iterate node ids (0..num_nodes-1, insertion order)."""
        return iter(range(len(self._nodes)))

    def edges(self) -> Iterator[Edge]:
        """Iterate all edges as read-only views."""
        for edge_id in range(len(self._edges)):
            yield self.edge(edge_id)

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """``(subject, predicate_id, object)`` triples for embedding trainers."""
        for record in self._edges:
            yield record.subject, record.predicate_id, record.object

    def edge_predicate_ids(self) -> np.ndarray:
        """Dense ``predicate_id`` per edge id (vectorised edge weighting)."""
        return np.fromiter(
            (record.predicate_id for record in self._edges),
            dtype=np.int64,
            count=len(self._edges),
        )

    def neighbors(self, node_id: int) -> list[tuple[int, int]]:
        """``(edge_id, neighbour_id)`` pairs incident to ``node_id``.

        Both edge directions are listed, matching the paper's treatment of
        subgraph matches as undirected paths (Definition 5).
        """
        self._check_node(node_id)
        return self._adjacency[node_id]

    def degree(self, node_id: int) -> int:
        """Number of incident edge endpoints (both directions)."""
        self._check_node(node_id)
        return len(self._adjacency[node_id])

    def neighbor_ids(self, node_id: int) -> list[int]:
        """Neighbour node ids of ``node_id`` (with multiplicity)."""
        return [neighbour for _, neighbour in self.neighbors(node_id)]

    def nodes_with_type(self, type_name: str) -> list[int]:
        """All node ids carrying ``type_name`` (possibly among other types)."""
        return list(self._type_index.get(type_name, ()))

    def nodes_with_any_type(self, types: Iterable[str]) -> list[int]:
        """Union of :meth:`nodes_with_type` over ``types`` (sorted, distinct)."""
        collected: set[int] = set()
        for type_name in types:
            collected.update(self._type_index.get(type_name, ()))
        return sorted(collected)

    @property
    def types(self) -> tuple[str, ...]:
        """All node type names, sorted."""
        return tuple(sorted(self._type_index))

    def edges_with_predicate(self, predicate: str) -> list[int]:
        """Edge ids labelled ``predicate`` ([] for unknown predicates)."""
        predicate_id = self._predicate_ids.get(predicate)
        if predicate_id is None:
            return []
        return list(self._predicate_edge_index.get(predicate_id, ()))

    def objects_of(self, subject: int, predicate: str) -> list[int]:
        """Objects ``o`` with a triple ``(subject, predicate, o)`` (directed)."""
        self._check_node(subject)
        if predicate not in self._predicate_ids:
            return []
        predicate_id = self._predicate_ids[predicate]
        result = []
        for edge_id, _neighbour in self._adjacency[subject]:
            record = self._edges[edge_id]
            if record.subject == subject and record.predicate_id == predicate_id:
                result.append(record.object)
        return result

    def subjects_of(self, obj: int, predicate: str) -> list[int]:
        """Subjects ``s`` with a triple ``(s, predicate, obj)`` (directed)."""
        self._check_node(obj)
        if predicate not in self._predicate_ids:
            return []
        predicate_id = self._predicate_ids[predicate]
        result = []
        for edge_id, _neighbour in self._adjacency[obj]:
            record = self._edges[edge_id]
            if record.object == obj and record.predicate_id == predicate_id:
                result.append(record.subject)
        return result

    def __contains__(self, node_id: object) -> bool:
        return isinstance(node_id, int) and 0 <= node_id < len(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"KnowledgeGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, predicates={self.num_predicates})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < len(self._nodes):
            raise NodeNotFoundError(f"node id {node_id} out of range")
