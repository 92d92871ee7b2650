"""Array-compiled S2 kernels: the one production path per algorithm.

Everything S2 runs per answer — the greedy r-path search as a shared-trace
replay, chain-prefix enumeration — and CNARW's structural weights are
array programs over the CSR snapshot here.  Each is outcome-identical to a
plain-Python oracle that only tests call
(:class:`repro.semantics.reference.ReferenceValidator`,
:func:`repro.semantics.matching.best_matches_iterative`,
:func:`repro.sampling.reference.cnarw_weights_python`):

* :class:`CompiledContext` — per ``(query predicate, visiting)`` context,
  the whole in-scope neighbourhood is gathered **once** into pruned
  CSR-style arrays: deduplicated per-node adjacency with max
  log-similarity per neighbour (the goal-shortcut table) and the
  probability-ordered, branch-capped successor beam, in exactly the
  ``(probability desc, id asc)`` order the seed validator sorts node by node.
* :class:`SharedTrace` / :func:`replay` — the one best-first search: the
  answer-independent pop sequence, recorded once per ``(context,
  source)`` with parent-pointer paths and ``(priority, slot)`` heap
  entries.  An answer's private search is that sequence with the pops
  below the answer's own pushes *deleted* (:func:`build_trace` has the
  argument), so a replay never runs a heap: an inverted goal table sorted
  by neighbour id (:func:`replay_bounds` — one vectorised lookup per
  batch) names the few pops whose node is adjacent to the answer, a
  per-node index names the pops to delete, and an answer left short of its
  budget by its deletions extends the shared sequence for everyone.
* :func:`cnarw_weights` — CNARW's per-entry set intersections as one
  sorted-key merge count over the pairs' CSR neighbourhoods.
* :class:`ChainContext` / :func:`chain_matches` — the backwards
  chain-prefix enumeration (§V-B) over list-unpacked adjacency.  The
  budgeted DFS walks small frames itself and settles a frame entered on
  a hub from a *tour*: the traversal below that node, recorded once per
  context by the same loop and replayed for every later answer with the
  answer's own on-path nodes deleted and its remaining budget applied.
  The work is shared across answers, not batched across them: nothing
  is vectorised and no float is computed in a different order.

Exactness notes.  All similarity arithmetic keeps the oracles' operation
order and uses scalar :func:`math.exp` (numpy's SIMD ``exp`` may differ in
the last ulp), so outcomes are byte-identical, not merely close.  NaN
log-similarities (predicates the embedding does not cover) stay lazy: a
per-node flag raises through
:func:`~repro.semantics.similarity.require_known_predicates` only when an
answer's own search expands an offending node, matching the seed's
per-edge lookup failure timing.  The shared trace records such a pop as
*poisoned* instead of raising; :func:`replay` raises for exactly the
answers that reach it.
"""

from __future__ import annotations

import math
import threading
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.errors import EmbeddingError
from repro.semantics.similarity import clamp_similarity, require_known_predicates

__all__ = [
    "CHAIN_TALLIES",
    "ChainContext",
    "CompiledContext",
    "REPLAY_TALLIES",
    "SharedTrace",
    "build_chain_context",
    "build_context",
    "build_trace",
    "chain_matches",
    "cnarw_weights",
    "replay",
    "replay_bounds",
]


# ---------------------------------------------------------------------------
# Context compilation
# ---------------------------------------------------------------------------
@dataclass
class CompiledContext:
    """One ``(query predicate, visiting)`` context lowered to arrays.

    Rows are node ids; ``in_scope`` marks the ones with ``visiting > 0``.
    Per node the context holds the deduplicated adjacency
    (ascending neighbour id — the snapshot's own arrays — with the max
    log-similarity per neighbour: the goal-shortcut table) and, for
    in-scope nodes, the probability-ordered branch-capped beam,
    entry-for-entry identical to what the seed validator's per-node
    expansion computes.  Out-of-scope search sources (the mapping node can
    sit outside its own scope) are expanded lazily into ``extra`` with the
    same per-node math.
    """

    kg: object
    space: object
    snapshot: object
    log_row: np.ndarray
    visiting: np.ndarray
    branch_cap: int
    num_nodes: int
    in_scope: np.ndarray  # per node: visiting > 0
    adj_indptr: np.ndarray
    adj_nbr: np.ndarray  # ascending within each node
    adj_log: np.ndarray  # max log-similarity per (node, neighbour)
    beam_indptr: np.ndarray
    beam_child: np.ndarray
    beam_log: np.ndarray
    beam_priority: np.ndarray  # negated visiting probability
    nan_flag: np.ndarray  # per node: some incident edge has a NaN log-sim
    #: lazily expanded out-of-scope nodes: node -> (sorted neighbour ids,
    #: log-sims, beam list)
    extra: dict = field(default_factory=dict)
    #: per-node beam lists materialised for the scalar search loop
    _beam_lists: dict = field(default_factory=dict)
    #: per-node ``{neighbour: log-sim}`` goal tables for the scalar loop —
    #: a dict probe per pop beats a binary search plus array boxing
    _goal_maps: dict = field(default_factory=dict)

    # -- per-node views -------------------------------------------------
    def beam(self, node: int) -> list:
        """``[(priority, child, log_similarity), ...]`` — may raise on NaN."""
        cached = self._beam_lists.get(node)
        if cached is not None:
            return cached
        if node < self.num_nodes and self.in_scope[node]:
            if self.nan_flag[node]:
                self._raise_unknown(node)
            start, end = int(self.beam_indptr[node]), int(self.beam_indptr[node + 1])
            beam = list(
                zip(
                    self.beam_priority[start:end].tolist(),
                    self.beam_child[start:end].tolist(),
                    self.beam_log[start:end].tolist(),
                )
            )
        else:
            beam = self._expand_extra(node)[2]
        self._beam_lists[node] = beam
        return beam

    def goal_map(self, node: int) -> dict:
        """``{neighbour: max log-similarity}`` for one (expanded) node.

        Raises where :meth:`beam` raises: the seed reads both off one
        expansion.
        """
        cached = self._goal_maps.get(node)
        if cached is None:
            nbr, logs = self.adjacency_arrays(node)
            cached = dict(zip(nbr.tolist(), logs.tolist()))
            self._goal_maps[node] = cached
        return cached

    def adjacency_arrays(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted neighbour ids, log-sims)`` for one (expanded) node."""
        if not (node < self.num_nodes and self.in_scope[node]):
            nbr, logs, _beam = self._expand_extra(node)
            return nbr, logs
        if self.nan_flag[node]:
            self._raise_unknown(node)
        start, end = int(self.adj_indptr[node]), int(self.adj_indptr[node + 1])
        return self.adj_nbr[start:end], self.adj_log[start:end]

    def _expand_extra(self, node: int):
        """Seed-style single-node expansion for out-of-scope sources."""
        cached = self.extra.get(node)
        if cached is not None:
            return cached
        edge_ids, neighbours = self.snapshot.neighbors(node)
        predicate_ids = self.snapshot.edge_predicate_ids[edge_ids]
        log_similarities = self.log_row[predicate_ids]
        require_known_predicates(
            self.kg, self.space, predicate_ids, log_similarities
        )
        distinct, inverse = np.unique(neighbours, return_inverse=True)
        best = np.full(len(distinct), -np.inf, dtype=np.float64)
        np.maximum.at(best, inverse, log_similarities)
        probabilities = np.where(
            distinct < len(self.visiting), self.visiting[np.minimum(distinct, len(self.visiting) - 1)], 0.0
        ) if len(self.visiting) else np.zeros(len(distinct))
        kept = np.flatnonzero(probabilities > 0.0)
        order = kept[np.argsort(-probabilities[kept], kind="stable")]
        order = order[: self.branch_cap]
        beam = [
            (-float(probabilities[index]), int(distinct[index]), float(best[index]))
            for index in order
        ]
        entry = (distinct, best, beam)
        self.extra[node] = entry
        return entry

    def _raise_unknown(self, node: int) -> None:
        """Raise the seed's lazy unknown-predicate error for ``node``."""
        edge_ids, _neighbours = self.snapshot.neighbors(node)
        predicate_ids = self.snapshot.edge_predicate_ids[edge_ids]
        values = self.log_row[predicate_ids]
        require_known_predicates(self.kg, self.space, predicate_ids, values)
        raise AssertionError(  # pragma: no cover - flag implies NaN edges
            f"node {node} flagged NaN but require_known_predicates passed"
        )


def build_context(
    kg,
    space,
    snapshot,
    log_row: np.ndarray,
    visiting: np.ndarray,
    branch_cap: int,
) -> CompiledContext:
    """Compile one visiting context into a :class:`CompiledContext`.

    Which adjacency entries collapse onto which distinct ``(node,
    neighbour)`` pair is the snapshot's business
    (:attr:`~repro.kg.csr.CSRGraph.dedup_adjacency`, built once per graph
    version); a context adds the two things that depend on the query.  The
    max log-similarity per pair is one ``np.maximum.reduceat`` over the
    grouped entries — a max has no summation order, and a NaN propagates
    through it as through the seed's ``np.maximum.at``.  The beams are the
    pairs with both ends in scope under one stable ``argsort`` on ``node *
    num_nodes + rank of the neighbour`` — the exact ``(probability desc,
    id asc)`` order the seed's tuple sort produces.
    """
    num_nodes = int(snapshot.num_nodes)
    dense = visiting
    limit = min(len(dense), num_nodes)
    in_scope = np.zeros(num_nodes, dtype=bool)
    in_scope[:limit] = dense[:limit] > 0.0
    scope_nodes = np.flatnonzero(in_scope)

    predicate_ids, starts, adj_owner, adj_nbr, adj_indptr = snapshot.dedup_adjacency
    # NaN entries (unknown predicates) flow through here on purpose — the
    # lazy raise happens only if their node is actually expanded.
    with np.errstate(invalid="ignore"):
        best = np.maximum.reduceat(log_row[predicate_ids], starts)
    nan_flag = np.zeros(num_nodes, dtype=bool)
    nan_flag[adj_owner[np.isnan(best)]] = True

    kept = np.flatnonzero(in_scope[adj_owner] & in_scope[adj_nbr])
    kept_owner = adj_owner[kept]
    # (node, -probability, neighbour id).  An entry's probability is its
    # neighbour's visiting probability, so the in-scope nodes are ranked
    # once — a stable argsort of ascending ids is the (probability desc,
    # id asc) total order — and one integer key sorts the entries.
    rank = np.empty(num_nodes, dtype=np.int64)
    rank[scope_nodes[np.argsort(-dense[scope_nodes], kind="stable")]] = np.arange(
        len(scope_nodes), dtype=np.int64
    )
    order = np.argsort(
        kept_owner * np.int64(num_nodes) + rank[adj_nbr[kept]], kind="stable"
    )
    sorted_owner = kept_owner[order]
    # rank within each node, to apply the branch cap
    if len(sorted_owner):
        first = np.flatnonzero(
            np.concatenate(([True], sorted_owner[1:] != sorted_owner[:-1]))
        )
        segment_start = np.repeat(first, np.diff(np.concatenate((first, [len(sorted_owner)]))))
        rank = np.arange(len(sorted_owner), dtype=np.int64) - segment_start
    else:
        rank = np.zeros(0, dtype=np.int64)
    beam_take = kept[order[rank < branch_cap]]
    beam_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(adj_owner[beam_take], minlength=num_nodes), out=beam_indptr[1:]
    )
    beam_child = adj_nbr[beam_take]

    return CompiledContext(
        kg=kg,
        space=space,
        snapshot=snapshot,
        log_row=log_row,
        visiting=dense,
        branch_cap=branch_cap,
        num_nodes=num_nodes,
        in_scope=in_scope,
        adj_indptr=adj_indptr,
        adj_nbr=adj_nbr,
        adj_log=best,
        beam_indptr=beam_indptr,
        beam_child=beam_child,
        beam_log=best[beam_take],
        beam_priority=-dense[beam_child],
        nan_flag=nan_flag,
    )


# ---------------------------------------------------------------------------
# Shared trace + per-answer deletion replay: the best-first search
# ---------------------------------------------------------------------------
#: The per-batch tallies :func:`replay` feeds, named like the
#: ``repro_exec_*`` counters the executor forwards them to.
REPLAY_TALLIES = (
    "replay_deletions",
    "trace_extension_pops",
)


class SharedTrace:
    """The answer-independent pop sequence of one ``(context, source)``.

    The best-first search run with *no* goal: no goal shortcut, no
    answer-push skip, no termination.  :func:`build_trace` records its
    first ``budget`` pops and compiles them for sparse replay — the goal
    condition *inverted* into a neighbour-sorted table (``goal_nbr``), so
    one answer resolves to the handful of pops whose node is actually
    adjacent to it, and ``on_path_of`` naming the pops an answer's own
    subtree accounts for.  The heap and the slots stay alive: an answer
    whose deletions leave fewer than ``budget`` survivors *extends* the
    sequence (:meth:`extend`), for every later answer too.

    The trace is total: a pop whose node has an edge the embedding does
    not cover is recorded as *poisoned* — no children, no goal entries —
    and the search goes on.  Its children would carry it on their paths,
    so an answer that reads past it either deletes it with its whole
    subtree or reaches it, and :func:`replay` raises for those, where the
    seed raises.

    ``pops`` is append-only and one record per pop, so a reader in another
    service or session (plans, and with them validators, are shared
    through the plan cache) indexes below a ``len()`` it read and never
    sees a half-written pop; extension itself takes the trace's lock.  The
    inverted tables cover ``pops[:total_pops]`` and are never written
    after the build.
    """

    __slots__ = (
        "context", "source", "max_length", "budget",
        "pops", "poisoned", "slots", "heap", "_lock",
        "total_pops", "pops_of", "on_path_of",
        "goal_nbr", "goal_node", "goal_log",
    )

    def __init__(
        self, context: CompiledContext, source: int, max_length: int, budget: int
    ) -> None:
        self.context = context
        self.source = source
        self.max_length = max_length
        self.budget = budget
        visiting = context.visiting
        source_probability = (
            float(visiting[source]) if source < len(visiting) else 0.0
        )
        if source_probability <= 0.0:
            source_probability = 1.0
        #: ``(node, log_sum, depth, on-path node ids)`` per pop
        self.pops: list[tuple] = []
        #: indices of the poisoned pops, ascending; an index is appended
        #: before its pop is
        self.poisoned: list[int] = []
        #: one packed ``(node, log_sum, parent slot, depth)`` record per push
        self.slots: list[tuple] = [(source, 0.0, -1, 0)]
        #: ``(priority, slot)``: a slot's number is its push's ordinal, so it
        #: is also the seed heap's tiebreak
        self.heap: list[tuple[float, int]] = [(-source_probability, 0)]
        self._lock = threading.Lock()
        #: pops inside the budget: the answer-independent search's own length
        self.total_pops = 0
        #: node -> [expanded pop indices]
        self.pops_of: dict[int, list[int]] = {}
        #: node -> [pop indices with the node on their path], the source
        #: left out (it is on every path)
        self.on_path_of: dict[int, list[int]] = {}
        # goal_nbr (sorted neighbour ids over the expanded nodes), goal_node
        # (the owning node per entry) and goal_log: set by build_trace

    def advance(self) -> bool:
        """Pop the shared heap once more; ``False`` when it is empty."""
        heap = self.heap
        if not heap:
            return False
        slots = self.slots
        _priority, slot = heappop(heap)
        node, log_sum, parent, depth = slots[slot]
        path = [node]
        cursor = parent
        while cursor != -1:
            record = slots[cursor]
            path.append(record[0])
            cursor = record[2]
        beam = ()
        if depth < self.max_length:
            try:
                beam = self.context.beam(node)
            except EmbeddingError:
                self.poisoned.append(len(self.pops))
        child_depth = depth + 1
        for priority, child, log_similarity in beam:
            if child in path:
                continue
            slots.append((child, log_sum + log_similarity, slot, child_depth))
            heappush(heap, (priority, len(slots) - 1))
        self.pops.append((node, log_sum, depth, tuple(path)))
        return True

    def extend(self, index: int, tallies: dict) -> bool:
        """Make ``pops[index]`` exist; ``False`` when the heap ran dry first."""
        with self._lock:
            while len(self.pops) <= index:
                if not self.advance():
                    return False
                tallies["trace_extension_pops"] += 1
        return True


def build_trace(
    context: CompiledContext, source: int, max_length: int, budget: int
) -> SharedTrace:
    """Record the answer-independent budgeted pop sequence from ``source``.

    A private search for answer ``a`` differs from this sequence only in
    never pushing ``a``.  The seed's heap entries are ``(priority,
    tiebreak, ...)`` with ``priority`` a function of the child node alone
    and ``tiebreak`` the push counter, so dropping the pushes of ``a`` —
    and with them everything pushed below ``a`` — keeps the relative order
    of every other entry: **the private pop sequence is this one with the
    pops whose path contains** ``a`` **deleted**, run on past the shared
    budget by the number of deletions.  :func:`replay` walks exactly that.
    A poisoned pop's missing children change nothing an answer reads: they
    are pops it deletes or pops past the one it raises at.
    """
    trace = SharedTrace(context, source, max_length, budget)
    pops = trace.pops
    while len(pops) < budget and trace.advance():
        pass
    trace.total_pops = len(pops)

    pops_of = trace.pops_of
    on_path_of = trace.on_path_of
    poisoned = set(trace.poisoned)
    for index, (node, _log_sum, depth, path) in enumerate(pops):
        for member in path[:-1]:
            on_path_of.setdefault(member, []).append(index)
        # counted but not expanded past max_length or when poisoned
        if depth < max_length and index not in poisoned:
            pops_of.setdefault(node, []).append(index)

    # Invert the expanded nodes' adjacency into a neighbour-sorted lookup
    # table for O(log) per-answer relevance queries.
    goal_nbr_parts: list[np.ndarray] = []
    goal_node_parts: list[np.ndarray] = []
    goal_log_parts: list[np.ndarray] = []
    for node in pops_of:
        nbr, logs = context.adjacency_arrays(node)
        goal_nbr_parts.append(np.asarray(nbr, dtype=np.int64))
        goal_node_parts.append(np.full(len(nbr), node, dtype=np.int64))
        goal_log_parts.append(np.asarray(logs, dtype=np.float64))
    if goal_nbr_parts:
        goal_nbr = np.concatenate(goal_nbr_parts)
        order = np.argsort(goal_nbr, kind="stable")
        trace.goal_nbr = goal_nbr[order]
        trace.goal_node = np.concatenate(goal_node_parts)[order]
        trace.goal_log = np.concatenate(goal_log_parts)[order]
    else:
        trace.goal_nbr = np.zeros(0, dtype=np.int64)
        trace.goal_node = np.zeros(0, dtype=np.int64)
        trace.goal_log = np.zeros(0, dtype=np.float64)
    return trace


def replay_bounds(trace: SharedTrace, answers) -> list[tuple[int, int]]:
    """Per answer, its ``(lo, hi)`` slice of the trace's goal table.

    Two vectorised ``searchsorted`` calls for a whole batch: per answer
    they would be two numpy scalar calls, most of a replay's own time.
    """
    keys = np.asarray(answers, dtype=np.int64)
    return list(
        zip(
            trace.goal_nbr.searchsorted(keys, side="left").tolist(),
            trace.goal_nbr.searchsorted(keys, side="right").tolist(),
        )
    )


def replay(
    trace: SharedTrace,
    answer: int,
    repeat_factor: int,
    stop_threshold: float | None,
    bounds: tuple[int, int] | None = None,
    tallies: dict | None = None,
) -> tuple[float, int, int, int]:
    """One answer's best-first search outcome, read off the shared trace.

    Returns ``(similarity, paths, expansions, length)``, equal to
    ``ReferenceValidator.validate``'s.  The answer's private pop sequence
    is the shared one minus the pops with the answer on their path
    (:func:`build_trace`), so the replay walks the seed's search pop for
    pop over the *survivors*: the goal shortcut fires off the recorded
    adjacency, an expansion is a survivor, termination counts the same
    expansions.  Inside the budget it visits only the pops whose node is
    adjacent to the answer (the goal table) and counts deletions by
    bisection; when the deletions leave fewer than ``budget`` survivors it
    walks — and, where nobody has yet, records — the pops past the budget
    one by one, reading each node's goal table from the context.

    ``answer == source`` is its own case: the source is on every path, so
    the goal check can never fire and no push is ever skipped for being
    the answer — the search pops the shared sequence and finds nothing.

    Raises :class:`EmbeddingError` when a poisoned pop the answer does not
    delete comes before its termination, and only then — inside the
    budget, past it (a poisoned node's goal table raises like its beam)
    and for the source — with the error the seed raises there.

    ``bounds`` is the answer's entry of :func:`replay_bounds` when the
    caller computed a batch's at once; ``tallies`` a dict over
    :data:`REPLAY_TALLIES` the caller owns.
    """
    total_pops = trace.total_pops
    pops = trace.pops
    poisoned = trace.poisoned
    if answer == trace.source:
        if poisoned and poisoned[0] < total_pops:
            _raise_poisoned(trace, poisoned[0])
        return 0.0, 0, total_pops, 0
    if bounds is None:
        bounds = replay_bounds(trace, [answer])[0]
    goal_lo, goal_hi = bounds
    deleted = trace.on_path_of.get(answer)
    # the first poisoned pop inside the budget that the answer keeps
    poison = total_pops
    for index in poisoned:
        if index >= total_pops:
            break
        if answer not in pops[index][3]:
            poison = index
            break
    if goal_lo == goal_hi and deleted is None:
        if poison < total_pops:
            _raise_poisoned(trace, poison)
        return 0.0, 0, total_pops, 0
    if tallies is None:
        tallies = dict.fromkeys(REPLAY_TALLIES, 0)
    goal_map: dict[int, float] = dict(
        zip(
            trace.goal_node[goal_lo:goal_hi].tolist(),
            trace.goal_log[goal_lo:goal_hi].tolist(),
        )
    )
    relevant: list[int] = []
    pops_of = trace.pops_of
    for node in goal_map:
        relevant.extend(pops_of[node])
    relevant.sort()

    best_similarity = 0.0
    best_length = 0
    paths_found = 0
    for index in relevant:
        node, log_sum, depth, path = pops[index]
        if answer in path:
            continue  # a deleted pop
        similarity = math.exp((log_sum + goal_map[node]) / (depth + 1))
        paths_found += 1
        if similarity > best_similarity:
            best_similarity = similarity
            best_length = depth + 1
        if paths_found >= repeat_factor or (
            stop_threshold is not None and best_similarity >= stop_threshold
        ):
            if poison < index:
                _raise_poisoned(trace, poison)
            removed = bisect_left(deleted, index) if deleted is not None else 0
            if removed:
                tallies["replay_deletions"] += 1
            return best_similarity, paths_found, index + 1 - removed, best_length
    if poison < total_pops:
        _raise_poisoned(trace, poison)
    if deleted is None:
        return best_similarity, paths_found, total_pops, best_length

    # Deletions left the answer short of its budget: on past the shared one.
    tallies["replay_deletions"] += 1
    survivors = total_pops - len(deleted)
    budget = trace.budget
    max_length = trace.max_length
    goal_map_of = trace.context.goal_map
    index = total_pops
    while survivors < budget:
        if index >= len(pops) and not trace.extend(index, tallies):
            break  # the heap ran dry
        node, log_sum, depth, path = pops[index]
        index += 1
        if answer in path:
            continue
        survivors += 1
        if depth >= max_length:
            continue
        goal_log = goal_map_of(node).get(answer)  # raises on a poisoned pop
        if goal_log is None:
            continue
        similarity = math.exp((log_sum + goal_log) / (depth + 1))
        paths_found += 1
        if similarity > best_similarity:
            best_similarity = similarity
            best_length = depth + 1
        if paths_found >= repeat_factor or (
            stop_threshold is not None and best_similarity >= stop_threshold
        ):
            break
    return best_similarity, paths_found, survivors, best_length


def _raise_poisoned(trace: SharedTrace, index: int) -> None:
    """Raise the seed's error for poisoned pop ``index``, afresh: its
    node's beam raises each time it is asked for."""
    trace.context.beam(trace.pops[index][0])
    raise AssertionError(  # pragma: no cover - a poisoned node's beam raises
        f"pop {index} is poisoned but its beam expanded"
    )


# ---------------------------------------------------------------------------
# CNARW structural weights
# ---------------------------------------------------------------------------
def cnarw_weights(
    snapshot,
    scope_nodes: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    floor: float = 0.05,
) -> np.ndarray:
    """``max(1 - |N(u) ∩ N(v)| / min(d(u), d(v)), floor)`` per (u, v) pair.

    The per-entry Python set intersections become one vectorised
    membership pass over the snapshot's distinct neighbourhoods
    (:attr:`~repro.kg.csr.CSRGraph.dedup_adjacency`, sorted
    ``(node, neighbour)`` keys).  Like a set intersection (which iterates
    the smaller set), only each pair's *smaller* neighbourhood expands —
    crucial around hubs, whose huge neighbour lists would otherwise
    replicate into every incident pair — into ``(larger node, neighbour)``
    probe keys resolved by binary search.  The counts are integers and the
    arithmetic replays the reference expression operation for operation,
    so the weights are byte-identical to
    :func:`repro.sampling.reference.cnarw_weights_python`'s loop — and to
    the weights of the swapped pairs.
    """
    dedup = snapshot.dedup_adjacency
    num_nodes = np.int64(snapshot.num_nodes)
    keys = dedup.owner * num_nodes + dedup.nbr
    degrees = np.diff(dedup.indptr)
    scope_nodes = np.asarray(scope_nodes, dtype=np.int64)
    left = scope_nodes[np.asarray(rows, dtype=np.int64)]
    right = scope_nodes[np.asarray(cols, dtype=np.int64)]
    left_is_small = degrees[left] <= degrees[right]
    small = np.where(left_is_small, left, right)
    large = np.where(left_is_small, right, left)
    small_degree = degrees[small]
    cumulative = np.concatenate(([0], np.cumsum(small_degree)))
    gather = np.repeat(dedup.indptr[small] - cumulative[:-1], small_degree)
    gather += np.arange(cumulative[-1], dtype=np.int64)
    pair_of = np.repeat(np.arange(len(small), dtype=np.int64), small_degree)
    probe_keys = large[pair_of] * num_nodes + dedup.nbr[gather]
    # no probe without an edge, so ``keys`` is never empty where it is read
    positions = np.minimum(np.searchsorted(keys, probe_keys), len(keys) - 1)
    common_mask = keys[positions] == probe_keys
    common = np.bincount(pair_of[common_mask], minlength=len(small))
    denominator = np.maximum(1, np.minimum(degrees[left], degrees[right]))
    weights = np.maximum(1.0 - common / denominator, floor)
    return weights.astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# Chain-prefix enumeration
# ---------------------------------------------------------------------------
#: A DFS frame entered on a node with at least this many adjacency entries
#: is settled from a shared tour instead of being walked.  Selected by what
#: the loop sees in its input; the value sits on a measured plateau (all
#: chain DFS of the 12 chain-carrying cold ledger queries: 0.48 / 0.45 /
#: 0.47 s at 16 / 32 / 64, 1.10 s at 8, where thousands of small frames get
#: recorded for a handful of replays each).
_TOUR_MIN_ENTRIES = 32
#: A tour is recorded this many expansions past the pass's budget: the
#: on-path nodes a replay deletes move its budget cut to the right.
_TOUR_SLACK = 64
#: A context stops recording once its tours hold this many expansions
#: (~25 bytes each plus ~28 per target hit), so memory is bounded on any
#: graph; a frame without a tour runs live, which is always correct.
_TOUR_EVENT_CAP = 1 << 18

#: The per-batch tallies :func:`chain_matches` feeds, named like the
#: ``repro_exec_*`` counters the executor forwards them to.
CHAIN_TALLIES = (
    "chain_expansions_live",
    "chain_expansions_replayed",
    "chain_tour_replays",
    "chain_tour_records",
    "chain_tour_fallbacks",
)


class _Tour:
    """The traversal below one hub frame, recorded once and replayed.

    :func:`_chain_level` writes the columns while it records — one entry
    per expansion in visit order, an expansion's *ordinal* being the number
    of expansions before it — and :meth:`close` turns the visited nodes
    into the occurrence index.  Nothing writes to a closed tour, so a
    context shared by several services or sessions publishes it with one
    dict store.
    Columnar on purpose: ~25 bytes per expansion where a tuple per event
    would take ~150.
    """

    __slots__ = (
        "node", "neutral", "skip",
        "hit_ordinal", "hit_node", "hit_similarity", "hit_depth",
        "occurrence_node", "occurrence_ordinal", "complete", "exit_log",
    )

    def __init__(self) -> None:
        #: the expanded node (recording only: :meth:`close` drops it)
        self.node = array("q")
        #: ``log_sum`` after the expansion and its whole subtree returned
        #: equals ``log_sum`` before it: deleting it moves no later float
        self.neutral = bytearray()
        #: the ordinal one past the expansion's subtree
        self.skip = array("q")
        #: the target hits in visit order, one column per field
        self.hit_ordinal = array("q")
        self.hit_node = array("q")
        self.hit_similarity = array("d")
        self.hit_depth = array("i")

    def close(self, complete: bool, exit_log: float) -> None:
        """Seal the recording.

        ``complete``: the traversal ended on its own, not on the recording
        budget.  ``exit_log``: ``log_sum`` once the frame's last neighbour
        had returned.  The occurrence index is a node-sorted permutation
        (stable, so one node's ordinals ascend), probed by bisection.
        """
        order = sorted(range(len(self.node)), key=self.node.__getitem__)
        self.occurrence_node = array("q", [self.node[ordinal] for ordinal in order])
        self.occurrence_ordinal = array("q", order)
        self.node = None
        self.complete = complete
        self.exit_log = exit_log


@dataclass
class ChainContext:
    """Flattened per-predicate enumeration context for chain prefixes.

    :func:`~repro.semantics.matching.best_matches_from` pays four Python
    calls per path extension — ``kg.neighbors``, ``kg.predicate_of``,
    ``space.similarity`` and ``clamp_similarity`` — and the batched
    chain-prefix driver re-pays them for every frontier node.  A chain
    context hoists all of it out of the hot loop once per chain level of a
    plan (``QueryPlan.chain_levels``): the CSR snapshot's adjacency is
    unpacked into plain Python lists (list indexing beats numpy scalar
    extraction in an interpreter loop), each adjacency entry is mapped to
    its predicate id, and per-predicate edge log-similarities memoise into
    :attr:`predicate_log` *lazily* — an unknown predicate must keep
    raising only when a traversal actually touches one of its edges,
    exactly like the reference's per-edge lookup.

    The CSR arrays list every node's neighbours in the same order as
    ``KnowledgeGraph.neighbors``, so :func:`chain_matches` visits paths in
    the reference's exact order — which makes its tie-breaks (strict ``>``
    keeps the first-recorded match) and float accumulation identical.

    **Tours.**  The backwards DFS of every answer of a query runs into the
    same few hubs, and below a hub it does the same work each time: the
    loop is a deterministic function of the node, the depth, the entering
    ``log_sum``, the pass's ``max_length`` and the target set.  The first
    traversal below such a frame is recorded as a :class:`_Tour` under
    exactly that key and every later frame with the key is *replayed* from
    it — the answer's own on-path nodes deleted, its remaining budget
    applied — instead of walked (see :func:`_chain_level`).  Tours live
    and die with the context, i.e. with its plan.
    """

    query_predicate: str
    #: CSR ``indptr`` over adjacency entries, as a Python list
    indptr: list
    #: adjacency entry -> neighbour node id
    neighbours: list
    #: adjacency entry -> predicate id of the connecting edge
    entry_predicate: list
    #: predicate id -> ``log(clamp(similarity))`` or ``None`` (unresolved)
    predicate_log: list
    #: adjacency entry -> resolved edge log, or ``None`` (warm-path cache:
    #: one list probe per extension instead of entry -> predicate -> log)
    entry_log: list
    _kg: object
    _space: object
    _floor: float
    #: ``(node, depth, entering log_sum, max_length, target set)`` -> tour
    tours: dict = field(default_factory=dict)
    #: expansions held by :attr:`tours`, against ``_TOUR_EVENT_CAP`` (two
    #: services sharing this context and recording one key at once count
    #: it twice: the cap is a bound on memory, not an exact size)
    tour_events: int = 0

    def resolve_predicate(self, predicate_id: int) -> float:
        """Compute + memoise one predicate's edge log-similarity.

        Raises through ``space.similarity`` for predicates the embedding
        does not cover, at first-touch time like the reference DFS.
        """
        value = math.log(
            clamp_similarity(
                self._space.similarity(
                    self._kg.predicate_name(predicate_id), self.query_predicate
                ),
                self._floor,
            )
        )
        self.predicate_log[predicate_id] = value
        return value


def build_chain_context(
    kg, space, snapshot, query_predicate: str, floor: float
) -> ChainContext:
    """Compile one predicate's chain-enumeration context from a CSR snapshot."""
    entry_predicate = snapshot.edge_predicate_ids[snapshot.edge_ids].tolist()
    return ChainContext(
        query_predicate=query_predicate,
        indptr=snapshot.indptr.tolist(),
        neighbours=snapshot.neighbor_ids.tolist(),
        entry_predicate=entry_predicate,
        predicate_log=[None] * len(kg.predicates),
        entry_log=[None] * len(entry_predicate),
        _kg=kg,
        _space=space,
        _floor=floor,
    )


def chain_matches(
    context: ChainContext,
    source: int,
    max_length: int,
    target_set: frozenset | set | None,
    budget_per_level: int,
    tallies: dict | None = None,
) -> dict:
    """``best_matches_iterative`` over a compiled context.

    Returns ``{node: (similarity, path length)}`` — the two fields the
    chain-prefix arithmetic consumes — with the same keys, values and
    *insertion order* as the reference (order matters: the caller's
    best-mean scan breaks similarity ties by iteration order).  Iterative
    deepening, per-level budgets and the merge rule are replicated
    verbatim.  ``tallies`` (a dict over :data:`CHAIN_TALLIES`, owned by
    the caller) is added to: expansions walked and replayed, tours
    recorded, replays and fallbacks.
    """
    if tallies is None:
        tallies = dict.fromkeys(CHAIN_TALLIES, 0)
    if target_set is not None and not isinstance(target_set, frozenset):
        target_set = frozenset(target_set)  # tours are keyed by it
    merged: dict = {}
    for depth in range(1, max_length + 1):
        level = _chain_level(
            context, source, depth, target_set, budget_per_level, tallies
        )
        for node, entry in level.items():
            current = merged.get(node)
            if current is None or entry[0] > current[0]:
                merged[node] = entry
    return merged


def _chain_level(
    context: ChainContext,
    root: int,
    max_length: int,
    target_set,
    max_expansions: int,
    tallies: dict,
    depth: int = 0,
    log_sum: float = 0.0,
    tape: _Tour | None = None,
) -> dict:
    """One budgeted depth-limited DFS pass, equal to
    :func:`repro.semantics.matching.best_matches_from` in visit order, float
    sequence and budget accounting (minus the path tuples, which
    chain-prefix callers never read).

    A frame at ``depth == max_length - 1`` only has leaves below it: its
    neighbours are scanned in a tight loop that adds and removes each edge
    log in the reference's order (``t = log_sum + x`` ... ``log_sum = t - x``)
    without touching the stacks.

    This loop is the only DFS here.  Called with the defaults it is one
    pass from the source.  Called with a ``tape`` it *records a tour*: the
    traversal below ``root`` entered at ``depth`` with ``log_sum``, only
    ``root`` on the path, every expansion and target hit written to the
    tape instead of to ``best``, no nested replay.

    A pass from the source hands each frame it enters on a node with
    ``_TOUR_MIN_ENTRIES`` or more adjacency entries to
    :func:`_settle_from_tour`, which replays the frame's tour (recording
    it first if need be).  Every other frame is walked here — *runs live*:
    the source's own frame, frames on smaller nodes, and a hub frame that
    function declines because (1) no tour exists and none can be recorded
    (the context's tours are full, or the recording raised), (2) deleting
    one of this answer's on-path nodes from the tour would move a later
    float, or (3) the tour was cut short of what this answer's budget
    still allows.
    """
    indptr = context.indptr
    neighbours = context.neighbours
    entry_log = context.entry_log
    exp = math.exp
    leaf_parent_depth = max_length - 1
    recording = tape is not None
    if recording:
        tape_node = tape.node.append
        tape_neutral = tape.neutral
        tape_skip = tape.skip
        hit_ordinal = tape.hit_ordinal.append
        hit_node = tape.hit_node.append
        hit_similarity = tape.hit_similarity.append
        hit_depth = tape.hit_depth.append
        #: (ordinal, log_sum before it) of the expansions still open
        open_stack: list = []
    min_entries = _TOUR_MIN_ENTRIES

    best: dict = {}
    expansions = 0
    replayed = 0
    log_stack: list = []
    on_path = {root}
    # the active frame lives in locals; only suspended frames hit the stacks
    node_stack: list = []
    index_stack: list = []
    end_stack: list = []
    node = root
    index = indptr[root]
    end = indptr[root + 1]

    while True:
        if depth == leaf_parent_depth:
            for entry in range(index, end):
                if expansions >= max_expansions:
                    break
                neighbour = neighbours[entry]
                if neighbour in on_path:
                    continue
                expansions += 1
                log_similarity = entry_log[entry]
                if log_similarity is None:
                    log_similarity = _resolve_entry(context, entry)
                extended = log_sum + log_similarity
                if target_set is None or neighbour in target_set:
                    similarity = exp(extended / max_length)
                    if recording:
                        hit_ordinal(expansions - 1)
                        hit_node(neighbour)
                        hit_similarity(similarity)
                        hit_depth(max_length)
                    else:
                        current = best.get(neighbour)
                        if current is None or similarity > current[0]:
                            best[neighbour] = (similarity, max_length)
                returned = extended - log_similarity
                if recording:
                    tape_node(neighbour)
                    tape_neutral.append(returned == log_sum)
                    tape_skip.append(expansions)
                log_sum = returned
            index = end
        if index >= end or expansions >= max_expansions:
            if not node_stack:
                break
            depth -= 1
            log_sum -= log_stack.pop()
            on_path.discard(node)
            if recording:
                ordinal, before = open_stack.pop()
                tape_neutral[ordinal] = log_sum == before
                tape_skip[ordinal] = expansions
            node = node_stack.pop()
            index = index_stack.pop()
            end = end_stack.pop()
            continue
        neighbour = neighbours[index]
        index += 1
        if neighbour in on_path:
            continue
        if recording:
            open_stack.append((expansions, log_sum))
            tape_node(neighbour)
            tape_neutral.append(False)
            tape_skip.append(0)
        expansions += 1
        log_similarity = entry_log[index - 1]
        if log_similarity is None:
            log_similarity = _resolve_entry(context, index - 1)
        log_sum += log_similarity
        log_stack.append(log_similarity)
        depth += 1
        if target_set is None or neighbour in target_set:
            similarity = exp(log_sum / depth)
            if recording:
                hit_ordinal(expansions - 1)
                hit_node(neighbour)
                hit_similarity(similarity)
                hit_depth(depth)
            else:
                current = best.get(neighbour)
                if current is None or similarity > current[0]:
                    best[neighbour] = (similarity, depth)
        # depth < max_length here: leaves are only reached from leaf frames
        on_path.add(neighbour)
        node_stack.append(node)
        index_stack.append(index)
        end_stack.append(end)
        node = neighbour
        index = indptr[neighbour]
        end = indptr[neighbour + 1]
        if (
            end - index >= min_entries
            and not recording
            and expansions < max_expansions
        ):
            settled = _settle_from_tour(
                context, node, depth, log_sum, max_length, target_set,
                node_stack, max_expansions - expansions, max_expansions,
                best, tallies,
            )
            if settled is not None:
                # the frame is done; the next iteration pops it
                consumed, log_sum = settled
                expansions += consumed
                replayed += consumed
                index = end
    if recording:
        tape.close(expansions < max_expansions, log_sum)
    tallies["chain_expansions_live"] += expansions - replayed
    tallies["chain_expansions_replayed"] += replayed
    return best


def _settle_from_tour(
    context: ChainContext,
    node: int,
    depth: int,
    log_sum: float,
    max_length: int,
    target_set,
    prefix: list,
    remaining: int,
    max_expansions: int,
    best: dict,
    tallies: dict,
):
    """Settle the frame just entered on ``node`` from its tour.

    ``prefix`` is the path above the frame (the source first), ``remaining``
    the pass's unspent budget.  Returns ``(expansions, exit log_sum)`` after
    applying the frame's target hits to ``best``, or ``None`` with ``best``
    untouched when the frame must run live:

    1. no tour exists and none can be recorded — the context's tours are
       full, or the recording raised: it walks edges this answer's own
       traversal may never touch, so a lazy unknown-predicate error must
       come from the live frame, where the reference raises it, or not at
       all;
    2. deleting an on-path node's expansion would move a later float (it is
       not ``neutral``);
    3. the tour was cut by its recording budget before this answer's budget
       runs out.

    Why a replay is exact.  The live traversal differs from the recorded
    one only where a ``prefix`` node occurs among the scanned neighbours —
    recorded as an expansion with a subtree, skipped live without being
    counted — and where the budget truncates it.  The loop is a
    deterministic function of ``(log_sum, adjacency position)``, so
    deleting an expansion whose subtree returned ``log_sum`` to the value
    it had before changes no later float.  (``==`` on the two floats is
    enough: they are finite sums of finite logs, never NaN, and a ``+0.0``
    standing in for a ``-0.0`` adds and subtracts to the same non-zero
    floats and to a zero of either sign, whose ``exp`` is 1.0 both ways.)
    After a budget cut no float is read again, so the returned ``log_sum``
    only has to be right when the whole tour was consumed.
    """
    key = (node, depth, log_sum, max_length, target_set)
    tour = context.tours.get(key)
    if tour is None:
        if context.tour_events >= _TOUR_EVENT_CAP:
            return None
        tour = _Tour()
        try:
            _chain_level(
                context, node, max_length, target_set,
                max_expansions + _TOUR_SLACK, tallies, depth, log_sum, tour,
            )
        except EmbeddingError:
            return None
        context.tours[key] = tour
        context.tour_events += len(tour.skip)
        tallies["chain_tour_records"] += 1

    skip = tour.skip
    recorded = len(skip)
    occurrence_node = tour.occurrence_node
    occurrence_ordinal = tour.occurrence_ordinal
    occurrences = []
    for member in prefix:
        position = bisect_left(occurrence_node, member)
        while position < recorded and occurrence_node[position] == member:
            occurrences.append(occurrence_ordinal[position])
            position += 1
    if len(prefix) > 1:
        occurrences.sort()
    # the removed ordinal ranges, ascending and disjoint
    ranges = []
    removed = 0
    resume = 0
    for ordinal in occurrences:
        if ordinal < resume:
            continue  # inside a subtree that is already gone
        if ordinal - removed >= remaining:
            break  # the budget runs out before the traversal gets here
        if not tour.neutral[ordinal]:
            tallies["chain_tour_fallbacks"] += 1
            return None
        resume = skip[ordinal]
        ranges.append((ordinal, resume))
        removed += resume - ordinal
    cut = remaining + removed
    if cut > recorded:
        if not tour.complete:
            tallies["chain_tour_fallbacks"] += 1
            return None
        cut = recorded
    ranges.append((cut, cut))

    hit_ordinal = tour.hit_ordinal
    hit_node = tour.hit_node
    hit_similarity = tour.hit_similarity
    hit_depth = tour.hit_depth
    start = 0
    for lower, upper in ranges:
        stop = bisect_left(hit_ordinal, lower, start)
        for target, similarity, length in zip(
            hit_node[start:stop], hit_similarity[start:stop], hit_depth[start:stop]
        ):
            current = best.get(target)
            if current is None or similarity > current[0]:
                best[target] = (similarity, length)
        start = bisect_left(hit_ordinal, upper, stop)
    tallies["chain_tour_replays"] += 1
    return cut - removed, tour.exit_log


def _resolve_entry(context: ChainContext, entry: int) -> float:
    """Cold-path entry-log fill: predicate table first, embedding second."""
    predicate_id = context.entry_predicate[entry]
    value = context.predicate_log[predicate_id]
    if value is None:
        value = context.resolve_predicate(predicate_id)
    context.entry_log[entry] = value
    return value
