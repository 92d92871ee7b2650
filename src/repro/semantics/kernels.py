"""Array-compiled S2 kernels: the one production path per algorithm.

Everything S2 runs per plan — the exact Eq. 3 similarity row, chain-prefix
enumeration — and CNARW's structural weights are array programs over the
CSR snapshot here.  Each has a plain-Python oracle that only tests call
(:func:`repro.semantics.matching.best_matches_from`,
:func:`repro.semantics.matching.best_matches_iterative`,
:func:`repro.sampling.reference.cnarw_weights_python`):

* :func:`exact_similarities` — Definition 4's n-bounded best-path
  similarity of *every* node from one mapping node, for ``n_bound <= 3``:
  one (max, +) pass per path length over the snapshot's deduplicated
  adjacency, so a plan validates its whole support at the cost of three
  array passes.  It replaces the paper's greedy r-path search (§IV-B2),
  which approximates the same quantity and accepts false negatives; the
  figures still run that search
  (:class:`repro.semantics.reference.ReferenceValidator`).
* :func:`cnarw_weights` — CNARW's per-entry set intersections as one
  sorted-key merge count over the pairs' CSR neighbourhoods.
* :class:`ChainContext` / :func:`chain_matches` — the backwards
  chain-prefix enumeration (§V-B) over list-unpacked adjacency, driven
  level by level by a chain plan's validator
  (:class:`repro.semantics.validation.ChainValidator`).  The
  budgeted DFS walks small frames itself and settles a frame entered on
  a hub from a *tour*: the traversal below that node, recorded once per
  context by the same loop and replayed for every later answer with the
  answer's own on-path nodes deleted and its remaining budget applied.
  The work is shared across answers, not batched across them: nothing
  is vectorised and no float is computed in a different order.

Exactness notes.  The exact row adds a path's edge logs in path order,
as the DFS oracle does, and picks the best sum per length, so its values
differ from the oracle's only by the oracle's own drift (it subtracts an
edge log on the way back up) and ``np.exp``'s last ulp.  The chain DFS
keeps the oracle's operation order and uses scalar :func:`math.exp`, so
its outcomes are byte-identical, not merely close.  NaN log-similarities
(predicates the embedding does not cover) raise through
:func:`~repro.semantics.similarity.require_known_predicates` exactly
where the oracle would touch them: for the exact row, any edge it weighs
(the whole plan fails, as SSB does); for the chain DFS, lazily, when an
answer's own traversal reaches the edge.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.errors import EmbeddingError
from repro.semantics.similarity import clamp_similarity, require_known_predicates

__all__ = [
    "CHAIN_TALLIES",
    "EXACT_MAX_LENGTH",
    "ChainContext",
    "build_chain_context",
    "chain_matches",
    "cnarw_weights",
    "exact_similarities",
]


# ---------------------------------------------------------------------------
# The exact Eq. 3 row
# ---------------------------------------------------------------------------
#: the longest ``n_bound`` :func:`exact_similarities` settles; past it a
#: best path may revisit a node the two-predecessor argument cannot rule out
EXACT_MAX_LENGTH = 3


def _weighed_pairs(kg, space, snapshot, log_row, owners: np.ndarray):
    """``(owner, neighbour, max log-similarity)`` of every distinct pair
    ``owners`` hold, self-loops dropped (a simple path never takes one).

    Raises the unknown-predicate :class:`~repro.errors.EmbeddingError`
    when one of these pairs has an edge the embedding does not cover: the
    DFS oracle weighs every edge of a node it expands.
    """
    predicate_ids, starts, owner, nbr, indptr = snapshot.dedup_adjacency
    first = indptr[owners]
    counts = indptr[owners + 1] - first
    offsets = np.cumsum(counts) - counts
    pairs = np.repeat(first - offsets, counts) + np.arange(
        counts.sum(), dtype=np.int64
    )
    pairs = pairs[owner[pairs] != nbr[pairs]]
    if len(pairs) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.float64)
    # the entries of pair p are starts[p]:starts[p + 1] (the last runs to
    # the end), so the pairs' entries are gathered and max-reduced per pair
    ends = np.append(starts[1:], len(predicate_ids))[pairs]
    sizes = ends - starts[pairs]
    entry_offsets = np.cumsum(sizes) - sizes
    entries = np.repeat(starts[pairs] - entry_offsets, sizes) + np.arange(
        sizes.sum(), dtype=np.int64
    )
    values = log_row[predicate_ids[entries]]
    if np.isnan(values).any():
        require_known_predicates(kg, space, predicate_ids[entries], values)
    return owner[pairs], nbr[pairs], np.maximum.reduceat(values, entry_offsets)


def exact_similarities(
    kg, space, snapshot, log_row: np.ndarray, source: int, n_bound: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(similarity, best_length)`` of every node id from ``source``.

    ``similarity[v]`` is Eq. 3 under Definition 4: the best geometric mean
    of edge similarities over the simple paths ``source -> v`` of at most
    ``n_bound`` edges (0 where no such path exists, and at ``source``);
    ``best_length[v]`` is the smallest path length that attains it (0
    where unreached).  ``log_row`` is the log-clamped similarity per
    predicate id (NaN for predicates the embedding does not cover).

    Eq. 2 is not monotone in path length, so the pass keeps the best log
    *sum* per length ``l`` — ``A_l[v]``, the best simple ``l``-edge path —
    and takes ``max_l exp(A_l / l)``.  Per length it is a (max, +)
    product over the touched pairs (the max log-similarity per distinct
    ``(node, neighbour)``):

    * ``A_1[v] = w(s, v)``;
    * ``A_2[v] = max_u A_1[u] + w(u, v)`` for ``v`` not ``s`` (``v != u``
      holds: no self-loops);
    * ``A_3[v] = max_x B_v[x] + w(x, v)`` for ``v`` not ``s``, where
      ``B_v[x]`` is the best ``A_1[u] + w(u, x)`` over ``u != v`` — so
      each ``x`` keeps its best **two** predecessors ``u``, and a pair
      ``(x, v)`` whose best ``u`` is ``v`` itself takes the second.

    Every other repeat is ruled out by construction, so the three
    candidates are exactly the simple paths the DFS oracle enumerates.
    """
    if not 1 <= n_bound <= EXACT_MAX_LENGTH:
        raise ValueError(f"n_bound must be in [1, {EXACT_MAX_LENGTH}]")
    num_nodes = int(snapshot.num_nodes)
    best = [np.full(num_nodes, -np.inf)]  # A_1, A_2, A_3
    _, reached, weights = _weighed_pairs(
        kg, space, snapshot, log_row, np.asarray([source], dtype=np.int64)
    )
    best[0][reached] = weights
    if n_bound >= 2:
        middle, ends, weights = _weighed_pairs(kg, space, snapshot, log_row, reached)
        keep = ends != source
        middle, ends = middle[keep], ends[keep]
        sums = best[0][middle] + weights[keep]
        level = np.full(num_nodes, -np.inf)
        np.maximum.at(level, ends, sums)
        best.append(level)
    if n_bound >= 3:
        # per second node x: its best and second-best (sum, first node u),
        # the candidates grouped by x, best first
        order = np.lexsort((-sums, ends))
        ends, middle, sums = ends[order], middle[order], sums[order]
        head = np.ones(len(ends), dtype=bool)
        head[1:] = ends[1:] != ends[:-1]
        firsts = np.flatnonzero(head)
        frontier = ends[firsts]
        first_node = np.full(num_nodes, -1, dtype=np.int64)
        first_node[frontier] = middle[firsts]
        # a group's second entry is the one after its first, if in the group
        paired = firsts[np.append(~head[1:], False)[firsts]]
        second_sum = np.full(num_nodes, -np.inf)
        second_sum[ends[paired]] = sums[paired + 1]
        owners, targets, weights = _weighed_pairs(
            kg, space, snapshot, log_row, frontier
        )
        keep = targets != source
        owners, targets, weights = owners[keep], targets[keep], weights[keep]
        through = np.where(
            first_node[owners] == targets, second_sum[owners], best[1][owners]
        )
        level = np.full(num_nodes, -np.inf)
        np.maximum.at(level, targets, through + weights)
        best.append(level)

    similarity = np.zeros(num_nodes)
    best_length = np.zeros(num_nodes, dtype=np.int8)
    for length, totals in enumerate(best, start=1):
        candidate = np.exp(totals / length)
        better = candidate > similarity  # strict: the shortest length wins ties
        similarity[better] = candidate[better]
        best_length[better] = length
    return similarity, best_length


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
    plan (``ChainValidator.levels``): the CSR snapshot's adjacency is
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
