"""In-memory knowledge-graph store (Definition 1 of the paper).

Nodes and predicates are interned to dense integer ids, and the graph is a
set of columns over them: append-only ``(subject, predicate_id, object)``
edge columns (``array.array("q")``: fast appends, fast scalar reads), one
float64 column per numeric attribute (NaN = absent, grown by amortised
doubling), names with their index, and per node one interned frozenset of
type names.  :class:`Node` and :class:`Edge` are views built on demand;
the direction-agnostic adjacency is the CSR snapshot :mod:`repro.kg.csr`
compiles from the edge columns.

Names are unique per Definition 1 (KGs are assumed entity-disambiguated);
adding a second node with an existing name raises :class:`GraphError`.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass
from numbers import Integral
from operator import index
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.kg.csr import csr_snapshot


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


class _NodeAttributes(Mapping[str, float]):
    """One node's attributes, read live from the graph's columns by name (a
    moved column is never read stale); a NaN cell is an absent attribute."""

    def __init__(self, columns: dict[str, np.ndarray], node_id: int) -> None:
        self._columns, self._node_id = columns, node_id

    def __getitem__(self, name: str) -> float:
        value = self._columns[name].item(self._node_id)
        if math.isnan(value):
            raise KeyError(name)
        return value

    def __iter__(self) -> Iterator[str]:
        return (name for name in list(self._columns) if name in self)

    def __len__(self) -> int:
        return sum(1 for _ in self)


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
        # Mutators write under this lock; readers take none (but
        # triple_array), as the counts (``_num_nodes``, ``len(_objects)``)
        # are published after the data they cover.
        self._lock = threading.Lock()
        self._num_nodes = 0
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._node_types: list[frozenset[str]] = []
        self._type_sets: dict[frozenset[str], frozenset[str]] = {}
        self._type_index: dict[str, array] = {}
        # attribute name -> column of ``_capacity`` cells over node ids
        self._columns: dict[str, np.ndarray] = {}
        self._capacity = 0
        self._subjects = array("q")
        self._predicate_column = array("q")
        self._objects = array("q")
        self._predicates: list[str] = []
        self._predicate_ids: dict[str, int] = {}
        # Monotone mutation counters.  Structure covers nodes, edges and
        # types — everything a CSR snapshot or a cached query plan depends
        # on; attributes cover numeric property writes only.  Splitting the
        # two means attribute streams (``set_attribute``) never recompile
        # snapshots or evict plans, while structural edits invalidate both.
        self._structure_version = 0
        self._attribute_version = 0

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
        type_set = frozenset(types)
        if not type_set:
            raise GraphError(f"node {name!r} must have at least one type")
        values = {key: float(value) for key, value in (attributes or {}).items()}
        with self._lock:
            if name in self._name_index:
                raise GraphError(f"duplicate node name: {name!r}")
            node_id = self._num_nodes
            if node_id == self._capacity:
                self._grow_columns()
            for key, value in values.items():
                self._column_locked(key)[node_id] = value
            self._names.append(name)
            self._name_index[name] = node_id
            self._node_types.append(self._type_sets.setdefault(type_set, type_set))
            for type_name in type_set:
                self._type_index.setdefault(type_name, array("q")).append(node_id)
            self._num_nodes = node_id + 1
            self._structure_version += 1
        return node_id

    def add_edge(self, subject: int, predicate: str, obj: int) -> int:
        """Add a triple and return its edge id."""
        subject, obj = index(subject), index(obj)  # fail before any append
        self._check_node(subject)
        self._check_node(obj)
        predicate_id = self.intern_predicate(predicate)
        with self._lock:
            edge_id = len(self._objects)
            self._subjects.append(subject)
            self._predicate_column.append(predicate_id)
            self._objects.append(obj)
            self._structure_version += 1
        return edge_id

    def set_attribute(self, node_id: int, name: str, value: float) -> None:
        """Set (or overwrite) numeric attribute ``name`` on ``node_id``.

        Setting NaN removes the attribute (NaN is the absent marker).
        """
        self._check_node(node_id)
        value = float(value)
        with self._lock:
            self._column_locked(name)[node_id] = value
            self._attribute_version += 1

    def intern_predicate(self, predicate: str) -> int:
        """Return the dense id for ``predicate``, creating one if needed."""
        with self._lock:
            predicate_id = self._predicate_ids.setdefault(predicate, len(self._predicates))
            if predicate_id == len(self._predicates):
                self._predicates.append(predicate)
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
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of stored triples."""
        return len(self._objects)

    @property
    def num_predicates(self) -> int:
        """Number of distinct (interned) predicates."""
        return len(self._predicates)

    def node(self, node_id: int) -> Node:
        """Read-only view of ``node_id``; raises :class:`NodeNotFoundError`."""
        self._check_node(node_id)
        return Node(
            node_id=node_id,
            name=self._names[node_id],
            types=self._node_types[node_id],
            attributes=_NodeAttributes(self._columns, node_id),
        )

    def attribute_column(self, name: str) -> np.ndarray:
        """Attribute ``name`` of every node as a read-only float64 array.

        Indexed by node id; NaN where the node lacks the attribute.  The
        array-valued form of :meth:`Node.attribute` for code that screens
        many answers at once.  The array is a view of the column itself,
        so ``set_attribute`` writes show through it — until ``add_node``
        outgrows the column and moves it; a view fetched before that keeps
        its old length and values.  Fetch one per use.
        """
        num_nodes = self._num_nodes  # before the column: it has >= this many cells
        column = self._columns.get(name)
        view = np.full(num_nodes, np.nan) if column is None else column[:num_nodes]
        view.setflags(write=False)
        return view

    def edge(self, edge_id: int) -> Edge:
        """Read-only view of ``edge_id``; raises :class:`EdgeNotFoundError`."""
        if not 0 <= edge_id < len(self._objects):
            raise EdgeNotFoundError(f"edge id {edge_id} out of range")
        predicate_id = self._predicate_column[edge_id]
        return Edge(
            edge_id=edge_id,
            subject=self._subjects[edge_id],
            object=self._objects[edge_id],
            predicate_id=predicate_id,
            predicate=self._predicates[predicate_id],
        )

    def predicate_of(self, edge_id: int) -> str:
        """The predicate name of ``edge_id`` without building an Edge view.

        Hot-path accessor: samplers and validators call this once per
        traversed edge, so it skips the dataclass construction of
        :meth:`edge`.
        """
        if not 0 <= edge_id < len(self._objects):
            raise EdgeNotFoundError(f"edge id {edge_id} out of range")
        return self._predicates[self._predicate_column[edge_id]]

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
        return iter(range(self._num_nodes))

    def edges(self) -> Iterator[Edge]:
        """Iterate all edges as read-only views."""
        return map(self.edge, range(self.num_edges))

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """``(subject, predicate_id, object)`` triples, in edge-id order."""
        return zip(self._subjects, self._predicate_column, self._objects)

    def triple_array(self) -> np.ndarray:
        """The edge columns as a fresh ``(num_edges, 3)`` int64 array.

        Row ``e`` is edge ``e``'s ``(subject, predicate_id, object)``.
        """
        columns = (self._subjects, self._predicate_column, self._objects)
        with self._lock:  # an append would fail on an exported buffer
            return np.stack([np.frombuffer(c, dtype=np.int64) for c in columns], axis=1)

    def edge_predicate_ids(self) -> np.ndarray:
        """Dense ``predicate_id`` per edge id (vectorised edge weighting)."""
        return self.triple_array()[:, 1]

    def neighbors(self, node_id: int) -> list[tuple[int, int]]:
        """``(edge_id, neighbour_id)`` pairs incident to ``node_id``.

        Both edge directions are listed, matching the paper's treatment of
        subgraph matches as undirected paths (Definition 5).  Read from the
        CSR snapshot: do not mutate the returned list.
        """
        return csr_snapshot(self).neighbor_pairs(node_id)

    def degree(self, node_id: int) -> int:
        """Number of incident edge endpoints (both directions)."""
        return csr_snapshot(self).degree(node_id)

    def neighbor_ids(self, node_id: int) -> list[int]:
        """Neighbour node ids of ``node_id`` (with multiplicity)."""
        return [neighbour for _, neighbour in self.neighbors(node_id)]

    def nodes_with_type(self, type_name: str) -> list[int]:
        """All node ids carrying ``type_name`` (possibly among other types)."""
        return self._type_index.get(type_name, array("q")).tolist()

    def nodes_with_any_type(self, types: Iterable[str]) -> list[int]:
        """Union of :meth:`nodes_with_type` over ``types`` (sorted, distinct)."""
        return csr_snapshot(self).nodes_with_any_type(types).tolist()

    @property
    def types(self) -> tuple[str, ...]:
        """All node type names, sorted."""
        return tuple(sorted(self._type_index))

    def edges_with_predicate(self, predicate: str) -> list[int]:
        """Edge ids labelled ``predicate`` ([] for unknown predicates)."""
        predicate_id = self._predicate_ids.get(predicate)
        if predicate_id is None:
            return []
        return np.flatnonzero(self.edge_predicate_ids() == predicate_id).tolist()

    def objects_of(self, subject: int, predicate: str) -> list[int]:
        """Objects ``o`` with a triple ``(subject, predicate, o)`` (directed)."""
        return self._directed(subject, predicate, self._subjects)

    def subjects_of(self, obj: int, predicate: str) -> list[int]:
        """Subjects ``s`` with a triple ``(s, predicate, obj)`` (directed)."""
        return self._directed(obj, predicate, self._objects)

    def __contains__(self, node_id: object) -> bool:
        return isinstance(node_id, Integral) and 0 <= node_id < self._num_nodes

    def __len__(self) -> int:
        return self._num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"KnowledgeGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, predicates={self.num_predicates})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self._num_nodes:
            raise NodeNotFoundError(f"node id {node_id} out of range")

    def _column_locked(self, name: str) -> np.ndarray:
        """The column of attribute ``name``, created all-NaN on first use."""
        if name not in self._columns:
            self._columns[name] = np.full(self._capacity, np.nan)
        return self._columns[name]

    def _grow_columns(self) -> None:
        """Double every column's capacity; the new cells are NaN."""
        added = max(16, self._capacity)
        for name, column in self._columns.items():
            self._columns[name] = np.append(column, np.full(added, np.nan))
        self._capacity += added

    def _directed(self, node_id: int, predicate: str, end: array) -> list[int]:
        """Far ends of ``node_id``'s ``predicate`` edges whose ``end`` column holds it."""
        self._check_node(node_id)
        predicate_id = self._predicate_ids.get(predicate)
        return [
            neighbour
            for edge_id, neighbour in self.neighbors(node_id)
            if end[edge_id] == node_id and self._predicate_column[edge_id] == predicate_id
        ]
