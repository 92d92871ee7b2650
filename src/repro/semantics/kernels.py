"""Array-compiled S2 kernels: the one production path per algorithm.

Everything S2 runs per plan — the exact Eq. 3 similarity row of a simple
or a chain component — and CNARW's structural weights are array programs
over the CSR snapshot here.  Each has a plain-Python oracle that only
tests call (:func:`repro.semantics.matching.best_matches_from` and SSB's
chain enumeration, :meth:`repro.baselines.ssb.SemanticSimilarityBaseline.chain_similarities`,
:func:`repro.sampling.reference.cnarw_weights_python`):

* :func:`leg_sums` — one *seeded leg pass*: from a log-sum seed per start
  node, the best seed-plus-path log-sum per path length into every node,
  over simple paths of at most ``n_bound <= 3`` edges; one (max, +) pass
  per length over the snapshot's deduplicated adjacency.  A pass weighs
  each distinct pair once, up front; each length gathers the weights of
  the pairs it touches.
* :func:`best_mean` — Eq. 2's best geometric mean over those lengths.
* The simple row (:class:`repro.semantics.validation.CorrectnessValidator`)
  is Definition 4's n-bounded best-path similarity of *every* node from
  one mapping node: the leg pass from a one-hot seed, reduced by
  :func:`best_mean`, for every bound (past ``n_bound`` 3 the leg is SSB's
  per-length enumeration, :func:`repro.semantics.matching.best_sums_by_length`).
  It replaces the paper's greedy r-path search (§IV-B2), which
  approximates the same quantity and accepts false negatives; the figures
  still run that search
  (:class:`repro.semantics.reference.ReferenceValidator`).
* A chain row (§V-B) chains leg passes: each leg's output, restricted to
  its hop's types, seeds the next leg with one seed vector per total
  length (:class:`repro.semantics.validation.ChainValidator`).
* :func:`cnarw_weights` — CNARW's per-entry set intersections as one
  sorted-key merge count over the pairs' CSR neighbourhoods.

Exactness notes.  A leg pass adds a path's edge logs in path order, after
its seed, and picks the best sum per length; rounding is monotone, so
each sum is the best path-order float sum, the one an enumeration that
carries its running sum down the path computes.  The one-hot seed is
``0.0`` and adding it is exact, so the simple row is the same floats it
was before seeds existed.  A pair's weight is a max, which is exact, so
which of its edges is folded first does not matter.  NaN
log-similarities (predicates the embedding does not cover) propagate
into their pairs' weights and raise through
:func:`~repro.semantics.similarity.require_known_predicates` for any pair
a pass touches: the whole plan fails, as SSB does.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.semantics.similarity import require_known_predicates

__all__ = [
    "EXACT_MAX_LENGTH",
    "best_mean",
    "cnarw_weights",
    "leg_sums",
]


# ---------------------------------------------------------------------------
# The exact Eq. 3 row
# ---------------------------------------------------------------------------
#: the longest ``n_bound`` :func:`leg_sums` settles; past it a best path may
#: revisit a node the few entries kept per node cannot rule out
EXACT_MAX_LENGTH = 3


def _weighed_pairs(kg, space, dedup, log_row, weights, owners: np.ndarray):
    """``(owner, neighbour, weight)`` of every distinct pair ``owners``
    hold, with its weight from the pass's ``weights``, self-loops dropped
    on a graph that has one (a simple path never takes one).

    Raises the unknown-predicate :class:`~repro.errors.EmbeddingError`
    when one of these pairs has an edge the embedding does not cover: the
    DFS oracle weighs every edge of a node it expands.  It names the
    first such edge in pair order, and in adjacency order within a pair.
    """
    first = dedup.indptr[owners]
    counts = dedup.indptr[owners + 1] - first
    offsets = np.cumsum(counts) - counts
    pairs = np.repeat(first - offsets, counts) + np.arange(
        counts.sum(), dtype=np.int64
    )
    if dedup.has_self_loop:
        pairs = pairs[dedup.owner[pairs] != dedup.nbr[pairs]]
    values = weights[pairs]
    missing = np.isnan(values)
    if missing.any():
        pair = pairs[missing.argmax()]
        predicates = np.append(
            dedup.pair_predicate[pair], dedup.extras[dedup.extras[:, 0] == pair, 1]
        )
        require_known_predicates(kg, space, predicates, log_row[predicates])
    return dedup.owner[pairs], dedup.nbr[pairs], values


def _heads(grouped: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values."""
    head = np.ones(len(grouped), dtype=bool)
    head[1:] = grouped[1:] != grouped[:-1]
    return head


def _ranked(groups: np.ndarray, totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, rank)``: ``order`` sorts the entries by group, best total
    first, and ``rank[i]`` is entry ``order[i]``'s place in its group."""
    order = np.lexsort((-totals, groups))
    firsts = np.flatnonzero(_heads(groups[order]))
    sizes = np.diff(np.append(firsts, len(order)))
    return order, np.arange(len(order)) - np.repeat(firsts, sizes)


def _max_into(num_nodes: int, nodes: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """The best of ``totals`` per node id, ``-inf`` where none lands."""
    level = np.full(num_nodes, -np.inf)
    np.maximum.at(level, nodes, totals)
    return level


def leg_sums(
    kg, space, snapshot, log_row: np.ndarray, seed: np.ndarray, n_bound: int
) -> list[np.ndarray]:
    """One seeded leg pass: ``sums[l - 1][v]``, the best ``seed[x]`` plus
    the log-sum of a simple path ``x -> v`` of ``l`` edges, over every
    start ``x`` with a finite seed (``-inf`` where no such path exists).

    ``log_row`` is the log-clamped similarity per predicate id (NaN for
    predicates the embedding does not cover); a pair's weight ``w(a, b)``
    is its best edge's.  A path is simple, so its end is never its start.
    Per length it is a (max, +) product over the touched pairs, and what
    a node keeps for the next length is just enough to exclude the one
    node a path through it may not repeat:

    * ``L_1[u] = max_x seed[x] + w(x, u)``.  Each ``u`` keeps its best
      ``n_bound`` entries ``(total, start x)``, one per start.
    * ``L_2[z] = max seed[x] + w(x, u) + w(u, z)`` over ``x != z``.  The
      pair ``(u, z)`` needs ``u``'s best start other than ``z``: one of
      its best two.
    * ``L_3[v]`` extends a length-2 entry ``(total, x, u)`` at ``z`` by
      ``(z, v)``; the path is simple iff ``v`` is neither ``x`` nor ``u``.
      So ``z`` keeps three entries: its best ``e = (x1, u1)``, its best
      that avoids the node ``x1`` (as start and as first hop), and its
      best that avoids ``u1``.  A ``v`` outside ``{x1, u1}`` takes ``e``;
      ``v == x1`` takes the first of the other two and ``v == u1`` the
      second, each the best entry not containing ``v``.  An entry at
      ``z`` through ``u`` that avoids a node ``a`` needs ``u``'s best
      start outside ``{z, a}``: one of its best three, which is why
      ``u`` keeps ``n_bound`` entries.

    ``x != u``, ``u != z`` and ``z != v`` hold because self-loops are
    dropped; every other repeat is excluded above, so the candidates are
    exactly the simple paths an enumeration from each start visits.  With
    one start the entries are the start's own and the argument is the
    two-predecessor one: a pair ``(z, v)`` whose best first hop is ``v``
    takes the second best.  Rounding is monotone, so each sum is the best
    of the paths' path-order float sums.
    """
    if not 1 <= n_bound <= EXACT_MAX_LENGTH:
        raise ValueError(f"n_bound must be in [1, {EXACT_MAX_LENGTH}]")
    num_nodes = int(snapshot.num_nodes)
    dedup = snapshot.dedup_adjacency
    # each distinct pair's best edge log-similarity; NaN propagates
    pair_weights = log_row[dedup.pair_predicate]
    with np.errstate(invalid="ignore"):
        np.maximum.at(pair_weights, dedup.extras[:, 0], log_row[dedup.extras[:, 1]])

    def weighed(owners):
        return _weighed_pairs(kg, space, dedup, log_row, pair_weights, owners)

    starts = np.flatnonzero(seed > -np.inf)
    start, ends, weights = weighed(starts)
    totals = seed[start] + weights
    sums = [_max_into(num_nodes, ends, totals)]
    if n_bound == 1:
        return sums
    if len(starts) > 1:
        # each first node's best n_bound entries, grouped by node, best
        # first (one start's pairs are sorted by node already)
        order, rank = _ranked(ends, totals)
        order = order[rank < n_bound]
        start, ends, totals = start[order], ends[order], totals[order]
    firsts = np.flatnonzero(_heads(ends))
    entry_start, entry_total, first_nodes = start, totals, ends[firsts]
    owners, ends, weights = weighed(first_nodes)
    # every pair (u, z) once per entry of u
    group = np.searchsorted(first_nodes, owners)
    if len(firsts) == len(entry_start):  # one entry per node
        entries = firsts[group]
        pair = slice(None)
    else:
        counts = np.diff(np.append(firsts, len(entry_start)))[group]
        offsets = np.cumsum(counts) - counts
        entries = np.repeat(firsts[group] - offsets, counts) + np.arange(
            counts.sum(), dtype=np.int64
        )
        pair = np.repeat(np.arange(len(owners)), counts)
    ends, middle = ends[pair], owners[pair]
    start, totals = entry_start[entries], entry_total[entries] + weights[pair]
    totals[start == ends] = -np.inf  # a path back to its start is not simple
    level = _max_into(num_nodes, ends, totals)
    sums.append(level)
    if n_bound == 2:
        return sums
    # per second node z: one of its best entries, e = (x1, u1), and its
    # best avoiding each of e's two earlier nodes (ties between best
    # entries are equal floats, so any of them serves)
    frontier = np.flatnonzero(level > -np.inf)
    best = np.zeros(num_nodes, dtype=np.int64)
    tied = np.flatnonzero(totals == level[ends])
    best[ends[tied]] = tied
    owners, targets, weights = weighed(frontier)
    through = level[owners]
    for earlier in (start, middle):
        node = np.full(num_nodes, -1, dtype=np.int64)
        node[frontier] = earlier[best[frontier]]
        avoided = node[ends]
        clear = (start != avoided) & (middle != avoided)
        avoiding = _max_into(num_nodes, ends[clear], totals[clear])
        hit = np.flatnonzero(targets == node[owners])
        through[hit] = avoiding[owners[hit]]
    sums.append(_max_into(num_nodes, targets, through + weights))
    return sums


def best_mean(
    sums_by_length: Iterable[tuple[int, np.ndarray]], num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(similarity, best_length)`` from the best log-sum per length.

    Eq. 2 is not monotone in path length, so the best geometric mean is
    ``max_l exp(A_l / l)``; ``best_length`` is the smallest ``l`` that
    attains it (0 and similarity 0 where every ``A_l`` is ``-inf``).
    ``sums_by_length`` runs over ascending lengths.
    """
    similarity = np.zeros(num_nodes)
    best_length = np.zeros(num_nodes, dtype=np.int8)
    for length, totals in sums_by_length:
        reached = np.flatnonzero(totals > -np.inf)
        candidate = np.exp(totals[reached] / length)
        better = candidate > similarity[reached]  # strict: the shortest length wins ties
        similarity[reached[better]] = candidate[better]
        best_length[reached[better]] = length
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
