"""The execution layer: S2 validation + estimation and the S3 loop.

:class:`QueryExecutor` runs Algorithm 2 over ``(QueryPlan, _QueryState)``
pairs: plans are the immutable S1 artefacts produced by the planning layer
(:mod:`repro.core.planner`), states hold everything mutable about one query
execution — draw index arrays, per-support verdicts, round traces, stage
timers.  The split mirrors the paper's pipeline: the planner owns S1, this
module owns S2 (validation + Eq. 7-9 estimation) and S3 (BLB confidence,
Theorem-2 termination, Eq. 12 growth).

Every query kind runs one round lifecycle — :meth:`QueryExecutor.grow`,
:meth:`QueryExecutor.step`, :meth:`QueryExecutor.finalise` under
:meth:`QueryExecutor.round_budget` — advanced one round at a time.  The
paper's GROUP-BY (§V-A) and MAX/MIN (§IV-B1) extensions change only the
estimator inside the round, the growth rule before it and what the final
result packages, so the kind is resolved here (:func:`kind_for`) and
nowhere else.  This module holds no loop: the serving scheduler's slot
(:mod:`repro.core.service`) is the only driver, interleaving rounds
across live queries of all kinds.

Validation is **batched**: each round's pending support entries pass one
array-valued attribute/filter screen over the graph's attribute columns
(:meth:`KnowledgeGraph.attribute_column` — no per-answer ``Node`` view),
and the survivors are validated in one
:meth:`CorrectnessValidator.validate_batch` pass per component over the
validator's shared expansion trace (chain components resolve their prefix
levels through the same pass), with verdicts memoised on the plan —
refinement rounds and interactive sessions never revalidate an answer.
It is also a **lazy conjunction**: an answer of a composite
query is correct only when every component keeps it, so components are
validated cheapest-first (simple before chain) and each one sees only the
answers every earlier one kept.  Validation time is attributed to its own
``"validation"`` stage bucket (the paper's Table XII folds it into S2).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DeltaStrategy, EngineConfig, ExtremeMethod
from repro.core.plan import QueryPlan
from repro.core.planner import QueryPlanner
from repro.core.result import (
    STOP_BOUND_MET,
    STOP_ROUND_BUDGET,
    STOP_SAMPLE_CAP,
    ApproximateResult,
    GroupedResult,
    RoundTrace,
)
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import EstimationError, NodeNotFoundError, QueryError
from repro.estimation.accuracy import moe_target, satisfies_error_bound
from repro.estimation.bootstrap import blb_moe
from repro.estimation.confidence import ConfidenceInterval, normal_critical_value
from repro.estimation.estimators import (
    EstimationSample,
    Normalization,
    estimate_extreme,
)
from repro.estimation.extreme import estimate_extreme_evt
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.obs.trace import child_span
from repro.query.aggregate import AggregateFunction, AggregateQuery
from repro.sampling.collector import AnswerCollector, AnswerDistribution
from repro.semantics import kernels
from repro.utils.rng import derive_seed, ensure_rng
from repro.utils.timing import StageTimer, Timer

STAGE_SAMPLING = "sampling"
STAGE_VALIDATION = "validation"
STAGE_ESTIMATION = "estimation"
STAGE_GUARANTEE = "guarantee"
#: serving overhead (queue management, cohort selection, cross-query
#: batching bookkeeping) attributed by the AggregateQueryService scheduler
STAGE_SCHEDULER = "scheduler"
#: processes-backend transport: RoundWorkItem export + pickling + queue
#: round-trip + result apply, attributed by ProcessBackend.run_cohort as
#: the per-round parent wall minus the worker's own stage seconds
STAGE_IPC = "ipc"

#: What a query's round estimates, how its sample grows and what its
#: result packages.  Only :class:`QueryExecutor` branches on these; to the
#: serving scheduler and the worker protocol a kind is a label.
KIND_ROUNDS = "rounds"  # guaranteed aggregates: BLB CI + Theorem 2
KIND_GROUPED = "grouped"  # GROUP-BY (§V-A): one CI per group
KIND_EXTREME = "extreme"  # MAX/MIN (§IV-B1): sample extremum, no CI
#: every label :func:`kind_for` can return
KINDS = (KIND_ROUNDS, KIND_GROUPED, KIND_EXTREME)


def kind_for(aggregate_query: AggregateQuery) -> str:
    """The execution kind of ``aggregate_query``."""
    if aggregate_query.group_by is not None:
        return KIND_GROUPED
    if not aggregate_query.function.has_guarantee:
        return KIND_EXTREME
    return KIND_ROUNDS


@dataclass
class _QueryState:
    """Mutable state of one query execution (kept alive by sessions)."""

    aggregate_query: AggregateQuery
    components: list[QueryPlan]
    joint: AnswerDistribution
    collector: AnswerCollector
    #: per-little-sample arrays of support indices
    little_samples: list[np.ndarray]
    desired_n: int
    num_candidates: int
    walk_iterations: int
    #: per-support-entry verdicts, filled lazily as entries are first drawn
    support_known: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    support_correct: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    support_value: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: per-support group keys (NaN = not grouped / invalid), built lazily
    support_group: np.ndarray | None = None
    support_group_known: np.ndarray | None = None
    rounds: list[RoundTrace] = field(default_factory=list)
    timers: StageTimer = field(default_factory=StageTimer)
    #: GROUP-BY only: the latest round's per-group results, refreshed by
    #: every step and packaged by finalise
    grouped_results: dict[float, "ApproximateResult"] | None = None
    #: distinct_support_indices memo: (per-sample lengths, read-only indices)
    _drawn: tuple | None = field(default=None, repr=False)
    #: ``components`` in the order S2 validates them: simple components
    #: (one shared-trace pass per batch) before chain components (an
    #: enumeration per answer per level), ties in plan order.  Fixed once
    #: per query so the lazy conjunction never sorts per entry.
    validation_order: tuple[QueryPlan, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.validation_order = tuple(
            sorted(self.components, key=lambda plan: plan.chain is not None)
        )

    @property
    def total_draws(self) -> int:
        """Draws collected so far across all little samples."""
        return int(sum(len(sample) for sample in self.little_samples))

    def distinct_support_indices(self) -> np.ndarray:
        """Sorted unique support indices present in the draws.

        A drawn-mask over the support instead of a sort over every draw,
        computed once per growth: little samples only ever grow by
        appending, so their lengths identify the draw set.
        """
        lengths = tuple(len(sample) for sample in self.little_samples)
        if self._drawn is None or self._drawn[0] != lengths:
            mask = np.zeros(self.joint.support_size, dtype=bool)
            for sample in self.little_samples:
                mask[sample] = True
            indices = np.flatnonzero(mask)
            indices.setflags(write=False)
            self._drawn = (lengths, indices)
        return self._drawn[1]


@dataclass(frozen=True)
class StepOutcome:
    """One S2/S3 round's verdict: the trace plus the loop-control flags.

    ``satisfied`` means the run converged this round — Theorem 2 held,
    or every sufficiently-drawn group met the bound; never for MAX/MIN.
    ``exhausted`` means the sample hit ``max_sample_size`` and further
    growth is pointless.  The serving scheduler's slot stops a run on
    either flag or on :meth:`QueryExecutor.round_budget`.
    """

    trace: RoundTrace
    satisfied: bool
    exhausted: bool


@dataclass(frozen=True)
class RoundWorkItem:
    """One S2/S3 round as a picklable work item for a worker process.

    Captures only what changes round to round: the draw index arrays and
    the verdicts of the support entries drawn so far (compacted to
    ``support_indices`` — the undrawn tail of the support is all-false
    and never shipped).  The heavy immutable payloads — the plan
    artefacts *and* the query's joint answer distribution — travel as
    shared-memory tickets alongside the item, attached once per worker
    (see :mod:`repro.store.workers`), never pickled per round.  The memo
    snapshots let the worker skip answers the shared plan has already
    validated, exactly like the in-process path.  Sampling (RNG) never
    crosses the process boundary: growth runs in the parent before the
    item is exported, so fixed-seed draw sequences are identical no
    matter which backend executes the round.
    """

    config: EngineConfig
    aggregate_query: AggregateQuery
    error_bound: float
    carried_seconds: float
    #: per-component snapshot of ``plan.similarity_cache``
    memos: tuple[dict, ...]
    #: per-component snapshot of ``plan.chain_prefix_memo``
    chain_memos: tuple[dict, ...]
    little_samples: tuple[np.ndarray, ...]
    #: the distinct support indices drawn so far; the verdict arrays
    #: below are compacted to exactly these positions
    support_indices: np.ndarray
    support_known: np.ndarray
    support_correct: np.ndarray
    support_value: np.ndarray
    desired_n: int
    num_candidates: int
    walk_iterations: int
    prior_rounds: tuple[RoundTrace, ...]
    #: True — ``memos``/``chain_memos`` are full snapshots; the executing
    #: plan replicas are cleared before the overlay.  False — they are
    #: *deltas* (only entries past the receiving worker's known version;
    #: see the version counters in :mod:`repro.store.workers`) and the
    #: overlay is update-only.  Safe because memo entries are
    #: deterministic pure values: a worker missing some entries only
    #: recomputes identical values, so outcomes are unchanged either way.
    full_memos: bool = True


@dataclass(frozen=True)
class RoundWorkResult:
    """What a worker sends back: the trace plus the state/memo deltas."""

    trace: RoundTrace
    satisfied: bool
    exhausted: bool
    #: support indices whose verdict was decided this round
    updated_indices: np.ndarray
    updated_correct: np.ndarray
    updated_value: np.ndarray
    #: per-component new ``similarity_cache`` entries
    memo_updates: tuple[dict, ...]
    #: per-component new ``chain_prefix_memo`` entries
    chain_memo_updates: tuple[dict, ...]
    #: seconds per stage bucket measured in the worker
    stage_seconds: dict
    #: GROUP-BY only: the round's per-group results (small dataclasses;
    #: the parent installs them as ``state.grouped_results``)
    grouped_results: dict | None = None
    #: pid of the worker process that executed the item (-1 = in-process);
    #: the pool's memo version table is keyed on it
    worker_pid: int = -1


@dataclass(frozen=True)
class PrewarmWorkItem:
    """A cross-query validation batch for one shared plan, picklable.

    The plan itself travels as a shared-memory ticket next to the item.
    """

    config: EngineConfig
    memo: dict
    chain_memo: dict
    node_ids: tuple[int, ...]
    #: same contract as :attr:`RoundWorkItem.full_memos`
    full_memos: bool = True


@dataclass(frozen=True)
class PrewarmWorkResult:
    """New verdict-memo entries computed by a prewarm item."""

    memo_updates: dict
    chain_memo_updates: dict
    seconds: float
    #: pid of the worker process that executed the item (-1 = in-process)
    worker_pid: int = -1


def memo_delta(memo: dict, floor: int) -> dict:
    """The entries added to ``memo`` since it had ``floor`` entries.

    Memo dicts are append-only journals: every write site only inserts
    missing keys (plain memoisation or ``setdefault`` merges), and dict
    insertion order is preserved, so slicing the item view at a recorded
    length yields exactly the entries added since that length was
    recorded.
    """
    if floor <= 0:
        return dict(memo)
    return dict(itertools.islice(memo.items(), floor, None))


def export_round_item(
    state: _QueryState,
    error_bound: float,
    carried_seconds: float,
    config: EngineConfig,
    memo_floors: "tuple[tuple[int, int], ...] | None" = None,
) -> RoundWorkItem:
    """Snapshot ``state`` into a :class:`RoundWorkItem` (parent side).

    ``memo_floors`` — per-component ``(similarity, chain)`` memo lengths
    the executing worker is already known to hold — switches the item to
    delta mode: only entries past each floor ship, and the worker's
    overlay becomes update-only (see :attr:`RoundWorkItem.full_memos`).
    """
    indices = state.distinct_support_indices()
    if memo_floors is None:
        memos = tuple(dict(plan.similarity_cache) for plan in state.components)
        chain_memos = tuple(
            dict(plan.chain_prefix_memo) for plan in state.components
        )
        full_memos = True
    else:
        memos = tuple(
            memo_delta(plan.similarity_cache, floors[0])
            for plan, floors in zip(state.components, memo_floors)
        )
        chain_memos = tuple(
            memo_delta(plan.chain_prefix_memo, floors[1])
            for plan, floors in zip(state.components, memo_floors)
        )
        full_memos = False
    return RoundWorkItem(
        config=config,
        aggregate_query=state.aggregate_query,
        error_bound=error_bound,
        carried_seconds=carried_seconds,
        memos=memos,
        chain_memos=chain_memos,
        full_memos=full_memos,
        little_samples=tuple(state.little_samples),
        support_indices=indices,
        support_known=state.support_known[indices],
        support_correct=state.support_correct[indices],
        support_value=state.support_value[indices],
        desired_n=state.desired_n,
        num_candidates=state.num_candidates,
        walk_iterations=state.walk_iterations,
        prior_rounds=tuple(state.rounds),
    )


def execute_round_item(
    item: RoundWorkItem,
    plans: list[QueryPlan],
    joint: AnswerDistribution,
    executor: "QueryExecutor",
) -> RoundWorkResult:
    """Run one exported round in this process (worker side).

    ``plans`` are the worker's replicas of the state's components and
    ``joint`` the query's answer distribution, both resolved from shared
    segments; the plans' memos are overlaid with the item's snapshots so
    the worker validates exactly the answers the parent would have.  The
    replica state is rebuilt (the compacted verdicts scattered back over
    the full support — undrawn entries are all-false by construction),
    stepped once, and diffed against the shipped arrays — validation
    verdicts are deterministic, so the returned deltas are byte-identical
    to what an in-process step would have written.  GROUP-BY keys do not
    travel either way: they are a pure function of the attribute column,
    ``joint.answers`` and the verdicts the step settles first, so the
    replica rebuilds the keys of its drawn support (one gather).
    """
    for plan, memo, chain_memo in zip(plans, item.memos, item.chain_memos):
        if item.full_memos:
            plan.similarity_cache.clear()
            plan.chain_prefix_memo.clear()
        plan.similarity_cache.update(memo)
        plan.chain_prefix_memo.update(chain_memo)
    # Memo lengths after the overlay: memo writes are append-only, so the
    # round's new entries are exactly the items past these positions.
    memo_sizes = [len(plan.similarity_cache) for plan in plans]
    chain_sizes = [len(plan.chain_prefix_memo) for plan in plans]
    support_size = joint.support_size
    indices = np.asarray(item.support_indices, dtype=np.int64)
    shipped_known = np.zeros(support_size, dtype=bool)
    shipped_known[indices] = item.support_known
    support_correct = np.zeros(support_size, dtype=bool)
    support_correct[indices] = item.support_correct
    support_value = np.zeros(support_size, dtype=np.float64)
    support_value[indices] = item.support_value
    state = _QueryState(
        aggregate_query=item.aggregate_query,
        components=list(plans),
        joint=joint,
        collector=None,  # growth never runs in a worker
        little_samples=[
            np.asarray(sample, dtype=np.int64) for sample in item.little_samples
        ],
        desired_n=item.desired_n,
        num_candidates=item.num_candidates,
        walk_iterations=item.walk_iterations,
        support_known=shipped_known.copy(),
        support_correct=support_correct,
        support_value=support_value,
        rounds=list(item.prior_rounds),
    )
    outcome = executor.step(
        state, item.error_bound, carried_seconds=item.carried_seconds
    )
    updated = np.flatnonzero(state.support_known & ~shipped_known)
    memo_updates = tuple(
        memo_delta(plan.similarity_cache, size)
        for plan, size in zip(plans, memo_sizes)
    )
    chain_memo_updates = tuple(
        memo_delta(plan.chain_prefix_memo, size)
        for plan, size in zip(plans, chain_sizes)
    )
    return RoundWorkResult(
        trace=outcome.trace,
        satisfied=outcome.satisfied,
        exhausted=outcome.exhausted,
        updated_indices=updated,
        updated_correct=state.support_correct[updated],
        updated_value=state.support_value[updated],
        memo_updates=memo_updates,
        chain_memo_updates=chain_memo_updates,
        stage_seconds={
            name: timer.elapsed for name, timer in state.timers.stages.items()
        },
        grouped_results=state.grouped_results,
    )


def apply_round_result(state: _QueryState, result: RoundWorkResult) -> StepOutcome:
    """Merge a worker's :class:`RoundWorkResult` back into the live state.

    Verdict deltas land in the state's support arrays, memo deltas in the
    *shared* plans (``setdefault``: concurrent workers can only ever
    compute identical values for one answer), the trace is appended and
    the worker's stage seconds are credited to the state's timers.
    Returns the same :class:`StepOutcome` an in-process step would have.
    """
    indices = np.asarray(result.updated_indices, dtype=np.int64)
    state.support_known[indices] = True
    state.support_correct[indices] = result.updated_correct
    state.support_value[indices] = result.updated_value
    if result.grouped_results is not None:
        state.grouped_results = result.grouped_results
    for plan, memo_update, chain_update in zip(
        state.components, result.memo_updates, result.chain_memo_updates
    ):
        for node, value in memo_update.items():
            plan.similarity_cache.setdefault(node, value)
        for key, value in chain_update.items():
            plan.chain_prefix_memo.setdefault(key, value)
    state.rounds.append(result.trace)
    for stage, seconds in result.stage_seconds.items():
        state.timers.stages.setdefault(stage, Timer()).elapsed += seconds
    return StepOutcome(
        trace=result.trace,
        satisfied=result.satisfied,
        exhausted=result.exhausted,
    )


def execute_prewarm_item(
    item: PrewarmWorkItem, plan: QueryPlan, executor: "QueryExecutor"
) -> PrewarmWorkResult:
    """Run one cross-query validation batch in this process (worker side)."""
    if item.full_memos:
        plan.similarity_cache.clear()
        plan.chain_prefix_memo.clear()
    plan.similarity_cache.update(item.memo)
    plan.chain_prefix_memo.update(item.chain_memo)
    memo_size = len(plan.similarity_cache)
    chain_size = len(plan.chain_prefix_memo)
    started = time.perf_counter()
    executor.prewarm_similarities([plan], list(item.node_ids))
    seconds = time.perf_counter() - started
    return PrewarmWorkResult(
        memo_updates=memo_delta(plan.similarity_cache, memo_size),
        chain_memo_updates=memo_delta(plan.chain_prefix_memo, chain_size),
        seconds=seconds,
    )


def apply_prewarm_result(plan: QueryPlan, result: PrewarmWorkResult) -> None:
    """Merge a prewarm delta into the live shared plan (parent side)."""
    for node, value in result.memo_updates.items():
        plan.similarity_cache.setdefault(node, value)
    for key, value in result.chain_memo_updates.items():
        plan.chain_prefix_memo.setdefault(key, value)


class QueryExecutor:
    """Runs S2 + S3 of Algorithm 2 over plans produced by the planner."""

    #: fault-injection hook (a :class:`~repro.core.resilience.FaultPlan`)
    #: installed by a service under test; None — one attribute check —
    #: in production
    fault_hook = None

    #: observability instruments (dict of repro.obs metrics) installed by
    #: the owning service; None — one attribute check — standalone
    obs_metrics = None

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        config: EngineConfig,
        planner: QueryPlanner,
    ) -> None:
        self._kg = kg
        self._space = space
        self.config = config
        self._planner = planner
        self._typed_nodes_cache: dict[frozenset[str], frozenset[int]] = {}
        self._typed_nodes_version = kg.structure_version
        #: compiled chain-enumeration contexts, keyed by query predicate;
        #: follow the graph's structure version like plans and snapshots
        self._chain_context_cache: dict[str, object] = {}
        self._chain_context_version = kg.structure_version

    def _typed_nodes(self, types: frozenset[str]) -> frozenset[int]:
        """All KG nodes carrying any of ``types``.

        Cached per graph structure version: like plans and CSR snapshots,
        the sets survive attribute writes but follow structural mutation.
        """
        if self._typed_nodes_version != self._kg.structure_version:
            self._typed_nodes_cache.clear()
            self._typed_nodes_version = self._kg.structure_version
        cached = self._typed_nodes_cache.get(types)
        if cached is None:
            cached = frozenset(self._kg.nodes_with_any_type(types))
            self._typed_nodes_cache[types] = cached
        return cached

    def _chain_context(self, predicate: str):
        """Compiled chain-enumeration context for one query predicate.

        Built once per ``(predicate, structure version)`` from the shared
        CSR snapshot; every chain-prefix resolution over the same
        predicate then enumerates through plain-list adjacency with
        memoised per-predicate edge logs instead of re-paying the
        ``neighbors``/``predicate_of``/``similarity`` call chain per path
        extension.
        """
        if self._chain_context_version != self._kg.structure_version:
            self._chain_context_cache.clear()
            self._chain_context_version = self._kg.structure_version
        context = self._chain_context_cache.get(predicate)
        if context is None:
            context = kernels.build_chain_context(
                self._kg,
                self._space,
                csr_snapshot(self._kg),
                predicate,
                self.config.similarity_floor,
            )
            self._chain_context_cache[predicate] = context
        return context

    # ------------------------------------------------------------------
    # Initialisation (S1 hand-off)
    # ------------------------------------------------------------------
    @staticmethod
    def _joint_distribution(components: list[QueryPlan]) -> AnswerDistribution:
        """Decomposition-assembly: intersect supports, multiply weights.

        The joint support is the sorted intersection of the components'
        answers; an answer's weight is the product of its per-component
        probabilities, multiplied up in plan order, renormalised.
        """
        if len(components) == 1:
            return components[0].distribution
        answers = components[0].distribution.answers
        for plan in components[1:]:
            answers = np.intersect1d(answers, plan.distribution.answers)
        if len(answers) == 0:
            raise QueryError(
                "the query components share no candidate answer; the "
                "composite query has an empty intersection sample"
            )
        weights = np.ones(len(answers), dtype=np.float64)
        for plan in components:
            distribution = plan.distribution
            # ``answers`` is sorted and contained in every support, so the
            # positions come back aligned with it
            _, _, where = np.intersect1d(
                answers, distribution.answers, return_indices=True
            )
            weights *= distribution.probabilities[where]
        weights = weights / weights.sum()
        return AnswerDistribution(answers=answers, probabilities=weights)

    def initialise(
        self, aggregate_query: AggregateQuery, seed: int | None
    ) -> _QueryState:
        """Plan every component and draw the initial BLB little samples."""
        config = self.config
        effective_seed = config.seed if seed is None else seed
        rng = ensure_rng(derive_seed(effective_seed, "engine"))
        timers = StageTimer()

        with child_span("initialise", seed=effective_seed), timers.measure(
            STAGE_SAMPLING
        ):
            components = [
                self._planner.plan_for(component)
                for component in aggregate_query.query.components
            ]
            joint = self._joint_distribution(components)
            collector = AnswerCollector(joint, seed=rng)
            num_candidates = max(plan.num_candidates for plan in components)
            if aggregate_query.function.has_guarantee:
                ratio = config.sample_ratio
            else:
                ratio = config.extreme_sample_ratio
            desired_n = max(
                config.min_initial_sample, int(math.ceil(ratio * num_candidates))
            )
            little_size = config.blb.little_sample_size(desired_n)
            little_samples = [
                collector.collect_indices(little_size)
                for _ in range(config.blb.num_little_samples)
            ]
        support_size = joint.support_size
        return _QueryState(
            aggregate_query=aggregate_query,
            components=components,
            joint=joint,
            collector=collector,
            little_samples=little_samples,
            desired_n=desired_n,
            num_candidates=num_candidates,
            walk_iterations=max(plan.walk_iterations for plan in components),
            support_known=np.zeros(support_size, dtype=bool),
            support_correct=np.zeros(support_size, dtype=bool),
            support_value=np.zeros(support_size, dtype=np.float64),
            timers=timers,
        )

    # ------------------------------------------------------------------
    # Validation (S2, batched)
    # ------------------------------------------------------------------
    def _component_similarity(self, plan: QueryPlan, node_id: int) -> float:
        """Best-match similarity of ``node_id`` for one component (memoised)."""
        cached = plan.similarity_cache.get(node_id)
        if cached is not None:
            return cached
        if plan.chain is not None:
            similarity = self._chain_similarity(plan, node_id)
        else:
            assert plan.validator is not None
            outcome = plan.validator.validate(
                plan.source,
                node_id,
                plan.component.predicates[0],
                plan.visiting,
                stop_threshold=self.config.tau,
            )
            similarity = outcome.similarity
        plan.similarity_cache[node_id] = similarity
        return similarity

    def _validate_batch(
        self,
        plan: QueryPlan,
        node_ids: list[int],
        predicate: str,
        stop_threshold: float,
    ) -> dict:
        """One :meth:`CorrectnessValidator.validate_batch` pass from the
        plan's source, its replay tallies forwarded to the ``exec`` counters
        (owned per call, so two services batching over one shared plan
        keep exact numbers)."""
        assert plan.validator is not None
        tallies = dict.fromkeys(kernels.REPLAY_TALLIES, 0)
        outcomes = plan.validator.validate_batch(
            plan.source,
            node_ids,
            predicate,
            plan.visiting,
            stop_threshold=stop_threshold,
            tallies=tallies,
        )
        self._count(tallies)
        return outcomes

    def _count(self, tallies: dict) -> None:
        """Add a kernel call's tallies to the like-named ``exec`` counters."""
        metrics = self.obs_metrics
        if metrics is not None:
            for name, count in tallies.items():
                if count:
                    metrics[name].inc(count)

    def _chain_prefix(
        self, plan: QueryPlan, level: int, node_id: int
    ) -> tuple[float, int] | None:
        """Best (log-similarity sum, edge count) for source ->hops[:level]-> node.

        A read of the plan's ``(level, node)`` memo; a miss (a single
        answer asked for on a cold plan) resolves through
        :meth:`_chain_prefix_batch`.
        """
        memo = plan.chain_prefix_memo
        key = (level, node_id)
        if key not in memo:
            self._chain_prefix_batch(plan, level, [node_id])
        return memo[key]

    def _chain_prefix_batch(
        self, plan: QueryPlan, level: int, node_ids: list[int]
    ) -> None:
        """Resolve ``(level, node)`` chain prefixes for many endpoints at once.

        Each level's whole endpoint set resolves together.  Level 1 uses
        the greedy r-path validator on the first hop's stationary map: one
        :meth:`CorrectnessValidator.validate_batch` pass over the shared
        trace.  Deeper levels enumerate backwards from each endpoint with
        a capped DFS (the answer-side neighbourhood is small) —
        :func:`repro.semantics.kernels.chain_matches` over a cached
        :class:`~repro.semantics.kernels.ChainContext` — batch the union
        of the typed intermediates they reach one level down, and keep the
        best geometric mean per endpoint, memoised per ``(level, node)``.

        A level with misses is one ``chain_prefix`` span (the level below
        nests in it) and feeds the ``chain_*`` counters from a tally this
        call owns, so the numbers stay exact when two services run
        batches over one shared context at once.
        """
        memo = plan.chain_prefix_memo
        frontier = [
            node_id
            for node_id in dict.fromkeys(node_ids)
            if (level, node_id) not in memo
        ]
        if not frontier:
            return
        with child_span("chain_prefix", level=level, frontier=len(frontier)) as span:
            tallies = dict.fromkeys(kernels.CHAIN_TALLIES, 0)
            self._resolve_chain_level(plan, level, frontier, tallies)
            if span is not None:
                span.annotate(
                    replayed=tallies["chain_expansions_replayed"],
                    live=tallies["chain_expansions_live"],
                )
        self._count(tallies)

    def _resolve_chain_level(
        self, plan: QueryPlan, level: int, frontier: list[int], tallies: dict
    ) -> None:
        """Fill the ``(level, node)`` memo rows of ``frontier`` (all misses).

        ``tallies`` takes what the level's own chain DFS walked, replayed
        and recorded; the levels below report theirs separately.
        """
        memo = plan.chain_prefix_memo
        component = plan.component
        config = self.config
        predicate = component.predicates[level - 1]
        if level == 1:
            outcomes = self._validate_batch(plan, frontier, predicate, 1.0)
            for node_id in frontier:
                outcome = outcomes[int(node_id)]
                result: tuple[float, int] | None = None
                if outcome.paths_found:
                    result = (
                        outcome.best_length
                        * math.log(max(outcome.similarity, 1e-12)),
                        outcome.best_length,
                    )
                memo[(1, node_id)] = result
            return
        typed_nodes = self._typed_nodes(component.hops[level - 2][1])
        context = self._chain_context(predicate)
        matches_of = {
            node_id: kernels.chain_matches(
                context,
                node_id,
                config.n_bound,
                typed_nodes,
                config.validation_expansions * 5,
                tallies,
            )
            for node_id in frontier
        }
        endpoints = [
            endpoint
            for matches in matches_of.values()
            for endpoint in matches
        ]
        self._chain_prefix_batch(plan, level - 1, endpoints)
        for node_id, matches in matches_of.items():
            best_mean = 0.0
            result = None
            for endpoint, (similarity, match_length) in matches.items():
                prefix = memo[(level - 1, endpoint)]
                if prefix is None:
                    continue
                log_sum = prefix[0] + match_length * math.log(
                    max(similarity, 1e-12)
                )
                length = prefix[1] + match_length
                mean = math.exp(log_sum / length)
                if mean > best_mean:
                    best_mean = mean
                    result = (log_sum, length)
            memo[(level, node_id)] = result

    def _chain_similarity(self, plan: QueryPlan, node_id: int) -> float:
        """Eq. 2 geometric mean over the best chain match ending at ``node_id``."""
        prefix = self._chain_prefix(plan, plan.component.num_hops, node_id)
        if prefix is None:
            return 0.0
        log_sum, length = prefix
        if length == 0:
            return 0.0
        return math.exp(log_sum / length)

    def answer_similarity(self, state_or_components, node_id: int) -> float:
        """Composite answer similarity: minimum across components."""
        components = (
            state_or_components.components
            if isinstance(state_or_components, _QueryState)
            else state_or_components
        )
        return min(
            self._component_similarity(plan, node_id) for plan in components
        )

    def _fill_similarities(self, plan: QueryPlan, node_ids: list[int]) -> None:
        """Fill one component's verdict memo for ``node_ids`` in bulk.

        A simple component goes through the validator's batched pass (one
        shared expansion trace); a chain component resolves the whole
        batch's prefix levels together, so the per-node similarity reads
        that follow run on warm memos.
        """
        missing = [
            node_id
            for node_id in dict.fromkeys(node_ids)
            if node_id not in plan.similarity_cache
        ]
        if not missing:
            return
        if plan.chain is None:
            outcomes = self._validate_batch(
                plan, missing, plan.component.predicates[0], self.config.tau
            )
            for node_id, outcome in outcomes.items():
                plan.similarity_cache[node_id] = outcome.similarity
        else:
            self._chain_prefix_batch(plan, plan.component.num_hops, missing)
            for node_id in missing:
                self._component_similarity(plan, node_id)

    def _batch_similarities(
        self, order: tuple[QueryPlan, ...], node_ids: list[int]
    ) -> np.ndarray:
        """Lazy conjunction: which of ``node_ids`` every component keeps.

        An answer is correct only when *every* component keeps it at
        ``>= tau``, so each component of ``order`` (a state's
        ``validation_order``) is handed only the answers every earlier
        one kept, and what the last one keeps is the verdict — returned
        as a mask over ``node_ids``.  Memo values are per answer —
        independent of the batch they were computed in — so every verdict
        equals the eager one.  The answer x component searches an earlier
        rejection saved are counted on ``conjunction_skips``.
        """
        tau = self.config.tau
        alive = list(range(len(node_ids)))
        rejected: list[int] = []
        skips = 0
        for position, plan in enumerate(order):
            cache = plan.similarity_cache
            skips += sum(1 for node_id in rejected if node_id not in cache)
            kept = [node_ids[index] for index in alive]
            self._fill_similarities(plan, kept)
            if position + 1 < len(order):
                rejected += [n for n in kept if cache[n] < tau]
            alive = [index for index, n in zip(alive, kept) if cache[n] >= tau]
        if skips and self.obs_metrics is not None:
            self.obs_metrics["conjunction_skips"].inc(skips)
        keeps = np.zeros(len(node_ids), dtype=bool)
        keeps[alive] = True
        return keeps

    def _screen(
        self, aggregate_query: AggregateQuery, node_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cheap attribute/filter screen: ``(passes, values)`` per node id.

        ``values`` is the aggregated attribute (1.0 for COUNT).  An answer
        passes when it carries that attribute and lies inside every
        filter's inclusive bounds.  A NaN attribute counts as missing: one
        NaN draw would poison every estimator sum and the Eq.-12 sizing
        arithmetic.
        """
        kg = self._kg
        if len(node_ids) and not (
            0 <= node_ids.min() and node_ids.max() < kg.num_nodes
        ):
            # fancy indexing would wrap a negative id around silently
            raise NodeNotFoundError("an answer's node id is out of range")
        if aggregate_query.function.needs_attribute:
            values = kg.attribute_column(aggregate_query.attribute or "")[node_ids]
            passes = ~np.isnan(values)
        else:
            values = np.ones(len(node_ids), dtype=np.float64)
            passes = np.ones(len(node_ids), dtype=bool)
        for filter_ in aggregate_query.filters:
            bounded = kg.attribute_column(filter_.attribute)[node_ids]
            passes &= ~np.isnan(bounded)
            if filter_.lower is not None:
                passes &= ~(bounded < filter_.lower)
            if filter_.upper is not None:
                passes &= ~(bounded > filter_.upper)
        return passes, values

    def pending_validation_nodes(self, state: _QueryState) -> list[int]:
        """Node ids the next validation pass will run correctness searches on.

        Read-only preview of what :meth:`_validate_entries` hands the
        conjunction: the drawn-but-unverdicted support entries that
        survive the attribute/filter screen.  The serving scheduler unions
        these across every live query sharing a plan and pre-warms the
        plan's verdict memo with one cross-query ``validate_batch`` pass.
        The screen is a handful of column gathers, so previewing it here
        and running it again inside the step costs next to nothing.
        """
        if not self.config.validate_correctness:
            return []
        drawn = state.distinct_support_indices()
        node_ids = state.joint.answers[drawn[~state.support_known[drawn]]]
        passes, _values = self._screen(state.aggregate_query, node_ids)
        return node_ids[passes].tolist()

    def prewarm_similarities(
        self, components: list[QueryPlan], node_ids: list[int]
    ) -> None:
        """Fill the components' verdict memos for ``node_ids`` in bulk.

        The cross-query batching entry point: validation outcomes are
        deterministic per answer regardless of batch composition, so
        pre-warming a shared plan's memo with the union of several queries'
        pending answers leaves every query's results byte-identical while
        collapsing their validation into one pass.  Eager: every component
        gets every answer (the scheduler hands over one shared plan).
        """
        for plan in components:
            self._fill_similarities(plan, node_ids)

    def _validate_entries(self, state: _QueryState, pending: np.ndarray) -> None:
        """Fill verdicts and values for ``pending`` support entries.

        The attribute/filter screen runs over the whole batch as array
        operations; the expensive correctness searches for everything that
        survives it run in one batched pass, and an answer is correct when
        the conjunction keeps it.
        """
        node_ids = state.joint.answers[pending]
        correct, values = self._screen(state.aggregate_query, node_ids)
        if self.config.validate_correctness and correct.any():
            # the conjunction's verdict on what the screen let through
            correct[correct] = self._batch_similarities(
                state.validation_order, node_ids[correct].tolist()
            )
        state.support_known[pending] = True
        state.support_correct[pending] = correct
        state.support_value[pending] = np.where(correct, values, 0.0)

    def _ensure_validated(self, state: _QueryState) -> None:
        """Validate every support entry present in the current draws."""
        drawn = state.distinct_support_indices()
        pending = drawn[~state.support_known[drawn]]
        if len(pending) == 0:
            return
        hook = self.fault_hook
        if hook is not None:
            hook.fire("validate_batch", pending=len(pending))
        metrics = self.obs_metrics
        if metrics is not None:
            metrics["validated_entries"].inc(int(len(pending)))
            metrics["validate_batch_pending"].observe(float(len(pending)))
        with child_span("validate_batch", pending=int(len(pending))):
            with state.timers.measure(STAGE_VALIDATION):
                self._validate_entries(state, pending)

    def _estimation_samples(
        self, state: _QueryState
    ) -> tuple[list[EstimationSample], EstimationSample]:
        """Per-little-sample and combined draw slices with validity masks.

        What MAX/MIN rounds and the EVT fit estimate from, and how the
        tests build the per-draw oracle of :meth:`_contribution_columns`.
        Callers must have run :meth:`_ensure_validated` first.  The
        verdict arrays are gathered once over all draws; the little
        samples are views into that gather.
        """
        draws = np.concatenate(state.little_samples)
        combined = EstimationSample(
            values=state.support_value[draws],
            probabilities=state.joint.probabilities[draws],
            correct=state.support_correct[draws],
        )
        littles = []
        stop = 0
        for indexes in state.little_samples:
            start, stop = stop, stop + len(indexes)
            littles.append(
                EstimationSample(
                    values=combined.values[start:stop],
                    probabilities=combined.probabilities[start:stop],
                    correct=combined.correct[start:stop],
                )
            )
        return littles, combined

    # ------------------------------------------------------------------
    # The round lifecycle (S2 + S3): grow / step / finalise, every kind
    # ------------------------------------------------------------------
    def round_budget(self, state: _QueryState) -> int:
        """How many rounds a run takes before it is finalised regardless.

        ``config.max_rounds`` where a round can end the run by itself;
        MAX/MIN never converge, so ``config.extreme_rounds`` is their
        only stop besides sample exhaustion.
        """
        if kind_for(state.aggregate_query) == KIND_EXTREME:
            return self.config.extreme_rounds
        return self.config.max_rounds

    def grow(
        self, state: _QueryState, last: RoundTrace, error_bound: float
    ) -> None:
        """Alg. 2 lines 11-13: enlarge S_A before a non-first round.

        ``last`` is the previous round's trace.  Guaranteed aggregates
        size the top-up against its estimate and MoE (Eq. 12); a round
        that stored the no-CI sentinel still has to read as "no CI yet",
        so the infinity is restored from ``last.guaranteed``.  GROUP-BY
        has no single Eq.-12 target (each group carries its own CI) and
        runs the delta strategy with an unknown MoE — doubling under
        ``ERROR_BASED``, the fixed top-up otherwise.  MAX/MIN have no
        error sensing at all (§VII-B): each round doubles the draw set.

        Growth is the only RNG in a round and runs in whichever slot owns
        the state, never in a worker process; the slot grows first so the
        scheduler can batch a cohort's validation across queries.
        """
        kind = kind_for(state.aggregate_query)
        if kind == KIND_EXTREME:
            with state.timers.measure(STAGE_SAMPLING):
                for position, sample in enumerate(state.little_samples):
                    state.little_samples[position] = np.concatenate(
                        [sample, state.collector.collect_indices(len(sample))]
                    )
        elif kind == KIND_GROUPED:
            self._grow_sample(state, 1.0, float("inf"), error_bound)
        else:
            moe = last.moe if last.guaranteed else float("inf")
            self._grow_sample(state, last.estimate, moe, error_bound)

    def step(
        self,
        state: _QueryState,
        error_bound: float,
        *,
        carried_seconds: float = 0.0,
    ) -> StepOutcome:
        """Run exactly one validate-estimate round and append its trace.

        The sample is estimated as it stands: a caller that grew it first
        (:meth:`grow`) passes the growth's wall-clock as
        ``carried_seconds`` so the trace still reports the full round.
        What the round estimates depends on the kind — see
        :meth:`_estimate_guaranteed`, :meth:`_estimate_worst_group` and
        :meth:`_estimate_extremum`, each returning ``(estimate, moe or
        None, correct_draws, satisfied)``.  A round without a CI (no
        correct draws, a failed bootstrap, any MAX/MIN round) is traced
        as ``moe=0.0, guaranteed=False`` — never inf or NaN, which break
        rendering and strict JSON.
        """
        step_started = time.perf_counter() - carried_seconds
        round_index = len(state.rounds) + 1
        self._ensure_validated(state)
        kind = kind_for(state.aggregate_query)
        if kind == KIND_GROUPED:
            round_estimate = self._estimate_worst_group(state, error_bound)
        elif kind == KIND_EXTREME:
            round_estimate = self._estimate_extremum(state)
        else:
            round_estimate = self._estimate_guaranteed(state, error_bound)
        point_estimate, moe, correct_draws, satisfied = round_estimate
        trace = RoundTrace(
            round_index=round_index,
            total_draws=state.total_draws,
            correct_draws=correct_draws,
            estimate=point_estimate,
            moe=0.0 if moe is None else moe,
            satisfied=satisfied,
            seconds=time.perf_counter() - step_started,
            guaranteed=moe is not None,
        )
        state.rounds.append(trace)
        return StepOutcome(
            trace=trace,
            satisfied=satisfied,
            exhausted=state.total_draws >= self.config.max_sample_size,
        )

    def finalise(
        self, state: _QueryState, converged: bool
    ) -> ApproximateResult | GroupedResult:
        """Package the state after its run's last step.

        ``converged`` is that step's ``satisfied``; with the draw count it
        also says why the run stopped (``stop_reason``: the bound was met,
        else the sample cap was reached, else the round budget — the
        caller's — was spent).  GROUP-BY packages the
        latest per-group estimates; everything else the last round's
        estimate and MoE (``state.rounds[-1]``), which a MAX/MIN query
        under ``ExtremeMethod.EVT`` first extrapolates past the sample
        extremum.
        """
        config = self.config
        function = state.aggregate_query.function
        kind = kind_for(state.aggregate_query)
        if converged:
            stop_reason = STOP_BOUND_MET
        elif state.total_draws >= config.max_sample_size:
            stop_reason = STOP_SAMPLE_CAP
        else:
            stop_reason = STOP_ROUND_BUDGET
        if kind == KIND_GROUPED:
            group_by = state.aggregate_query.group_by
            groups = state.grouped_results or {}
            return GroupedResult(
                function=function,
                groups=groups,
                labels={key: group_by.label_for(key) for key in groups},
                converged=converged,
                total_draws=state.total_draws,
                stage_ms=state.timers.as_dict_ms(),
                rounds=tuple(state.rounds),
                stop_reason=stop_reason,
            )
        last = state.rounds[-1]
        value, moe = last.estimate, last.moe
        if (
            kind == KIND_EXTREME
            and config.extreme_method is ExtremeMethod.EVT
            and last.correct_draws
        ):
            # The future-work extension: extrapolate past the sample
            # extremum with a POT/GPD tail fit (see estimation.extreme).
            with state.timers.measure(STAGE_GUARANTEE):
                _littles, combined = self._estimation_samples(state)
                evt = estimate_extreme_evt(
                    combined,
                    function,
                    exceedance_quantile=config.evt_exceedance_quantile,
                    confidence_level=config.confidence_level,
                    bootstrap_rounds=config.evt_bootstrap_rounds,
                    seed=derive_seed(config.seed, "evt"),
                )
            value, moe = evt.value, evt.moe
        return ApproximateResult(
            function=function,
            interval=ConfidenceInterval(
                estimate=value, moe=moe, confidence_level=config.confidence_level
            ),
            converged=converged,
            rounds=tuple(state.rounds),
            total_draws=state.total_draws,
            distinct_answers=int(len(state.distinct_support_indices())),
            correct_draws=last.correct_draws,
            stage_ms=state.timers.as_dict_ms(),
            walk_iterations=state.walk_iterations,
            num_candidates=state.num_candidates,
            stop_reason=stop_reason,
        )

    # The ledger's binding names: benchmarks/ledger/layers.py::_STATE_STEPS
    # resolves all nine by getattr and rebinds the class attributes, so the
    # lifecycle above must be called as self.step / executor.grow at call
    # time.  No src/ caller; they go when _STATE_STEPS is re-pointed.
    step_grouped = step_extreme = step
    grow_grouped = grow_extreme = grow
    finalise_grouped = finalise_extreme = finalise

    def _grow_sample(
        self,
        state: _QueryState,
        point_estimate: float,
        moe: float,
        error_bound: float,
    ) -> None:
        """Extend the little samples per the configured delta strategy."""
        config = self.config
        with state.timers.measure(STAGE_SAMPLING):
            if config.delta_strategy is DeltaStrategy.ERROR_BASED:
                target = moe_target(point_estimate, error_bound)
                if math.isinf(moe) or target <= 0.0:
                    growth = 2.0  # no usable CI yet: double the sample
                else:
                    # Eq. 12: N grows by (eps / target)^2, so |S_A| = t N^m
                    # grows by ratio^(2m) — exactly |dS_A| of the paper.
                    ratio = max(moe / target, 1.0)
                    growth = min(ratio * ratio, config.max_growth_factor)
                    growth = max(growth, 1.1)  # always make visible progress
                state.desired_n = int(math.ceil(state.desired_n * growth))
                little_size = config.blb.little_sample_size(state.desired_n)
                for position, sample in enumerate(state.little_samples):
                    shortfall = little_size - len(sample)
                    if shortfall > 0:
                        state.little_samples[position] = np.concatenate(
                            [sample, state.collector.collect_indices(shortfall)]
                        )
            else:
                per_sample = max(
                    1, config.fixed_delta // len(state.little_samples)
                )
                for position, sample in enumerate(state.little_samples):
                    state.little_samples[position] = np.concatenate(
                        [sample, state.collector.collect_indices(per_sample)]
                    )

    # ------------------------------------------------------------------
    # What one round estimates, per kind
    # ------------------------------------------------------------------
    def _contribution_columns(
        self, state: _QueryState, draws: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Per-draw ``(numerators, denominators, correct)`` over ``draws``.

        The Eq. 7-9 terms are formed once per support entry —
        ``1{correct} / pi'`` for COUNT, ``1{correct} * v / pi'`` otherwise,
        the divisions :class:`EstimationSample` does per draw — and
        gathered: a lone numerator column is a mean-shaped estimator
        (COUNT/SUM under ``Normalization.SAMPLE``); AVG divides by the
        COUNT terms, the PAPER normalisation by the verdict mask.  Callers
        must have run :meth:`_ensure_validated` first.
        """
        function = state.aggregate_query.function
        probabilities = state.joint.probabilities
        drawn = probabilities[state.distinct_support_indices()]
        if np.any(drawn <= 0.0) or np.any(drawn > 1.0):
            raise EstimationError("probabilities must lie in (0, 1]")
        correct = state.support_correct

        def terms(values) -> np.ndarray:
            # an undrawn entry may carry pi' = 0; it is never gathered
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(correct, values / probabilities, 0.0)[draws]

        draw_correct = correct[draws]
        counted = function is AggregateFunction.COUNT
        numerators = terms(1.0 if counted else state.support_value)
        if function is AggregateFunction.AVG:
            denominators = terms(1.0)
        elif self.config.normalization is Normalization.SAMPLE:
            denominators = None
        else:
            denominators = draw_correct.astype(np.float64)
        return numerators, denominators, draw_correct

    @staticmethod
    def _column_estimate(
        numerators: np.ndarray, denominators: np.ndarray | None, correct: np.ndarray
    ) -> float:
        """Eq. 7-9 off contribution columns.

        ``correct`` (holding at least one draw) drives the compressed
        pairwise sums — a correct answer may contribute ``0.0`` — exactly
        as :func:`repro.estimation.estimators.estimate` sums per draw; a
        lone column divides by |S_A|.
        """
        kept = np.flatnonzero(correct)  # twice as fast as a mask index
        weighted = float(np.sum(numerators.take(kept)))
        if denominators is None:
            return weighted / len(numerators)
        return weighted / float(np.sum(denominators.take(kept)))

    def _column_moe(
        self,
        numerators: np.ndarray,
        denominators: np.ndarray | None,
        bag_stops: list[int],
        rng: np.random.Generator,
    ) -> float:
        """Eq. 10-11 over the contiguous column views ending at
        ``bag_stops``; inf when no bag yields a sigma."""
        config = self.config
        bags = [
            (
                numerators[start:stop],
                None if denominators is None else denominators[start:stop],
            )
            for start, stop in zip([0] + bag_stops, bag_stops)
        ]
        # which formula each bag's sigma takes
        name = "sigma_closed_form" if denominators is None else "sigma_bootstrap"
        self._count({name: len(bags)})
        try:
            return blb_moe(
                bags,
                critical=normal_critical_value(config.confidence_level),
                num_resamples=config.blb.num_resamples,
                resample_size=len(numerators),
                rng=rng,
            )
        except EstimationError:
            return float("inf")

    def _estimate_guaranteed(
        self, state: _QueryState, error_bound: float
    ) -> tuple[float, float | None, int, bool]:
        """Eq. 7-9 estimate, BLB interval and the Theorem-2 check."""
        config = self.config
        round_index = len(state.rounds) + 1
        point_estimate, moe = 0.0, float("inf")
        with state.timers.measure(STAGE_ESTIMATION):
            numerators, denominators, correct = self._contribution_columns(
                state, np.concatenate(state.little_samples)
            )
            correct_draws = int(np.count_nonzero(correct))
            if correct_draws > 0:
                point_estimate = self._column_estimate(
                    numerators, denominators, correct
                )
        with state.timers.measure(STAGE_GUARANTEE):
            if correct_draws > 0:
                # each little sample is a contiguous view of the gather
                moe = self._column_moe(
                    numerators,
                    denominators,
                    list(itertools.accumulate(map(len, state.little_samples))),
                    ensure_rng(derive_seed(config.seed, "blb", round_index)),
                )
            satisfied = (
                correct_draws >= config.min_correct_for_termination
                and round_index >= config.min_rounds
                and satisfies_error_bound(moe, point_estimate, error_bound)
            )
        return (
            point_estimate,
            moe if math.isfinite(moe) else None,
            correct_draws,
            satisfied,
        )

    def _estimate_worst_group(
        self, state: _QueryState, error_bound: float
    ) -> tuple[float, float | None, int, bool]:
        """Re-estimate every observed group; report the one gating the run.

        The groups land on ``state.grouped_results``; the round carries
        the *worst* group's estimate and MoE, so the anytime
        ``progress()`` view is meaningful for grouped queries, and is
        satisfied when every sufficiently-drawn group met the bound (and
        there is one).
        """
        with state.timers.measure(STAGE_ESTIMATION):
            keys = self._group_keys(state)
            draws = np.concatenate(state.little_samples)
            numerators, denominators, _correct = self._contribution_columns(
                state, draws
            )
        with state.timers.measure(STAGE_GUARANTEE):
            groups, satisfied = self._estimate_groups(
                state, numerators, denominators, keys[draws], error_bound
            )
        state.grouped_results = groups
        correct_draws = sum(result.correct_draws for result in groups.values())
        worst = self._worst_group(groups)
        if worst is None:
            return 0.0, None, correct_draws, False
        # a group without a sigma is stored as an unconverged moe=0.0
        # interval: no CI exists this round
        has_ci = not (worst.moe == 0.0 and not worst.converged)
        return worst.value, worst.moe if has_ci else None, correct_draws, satisfied

    def _estimate_extremum(
        self, state: _QueryState
    ) -> tuple[float, None, int, bool]:
        """The sample extremum: no interval (§IV-B1 remarks), never
        satisfied — the round budget is the only stop condition besides
        sample exhaustion."""
        function = state.aggregate_query.function
        with state.timers.measure(STAGE_ESTIMATION):
            _littles, combined = self._estimation_samples(state)
            if combined.correct_draws:
                value = estimate_extreme(combined, function)
            elif state.rounds:
                value = state.rounds[-1].estimate
            else:
                value = 0.0
        return value, None, combined.correct_draws, False

    @staticmethod
    def _worst_group(
        groups: dict[float, ApproximateResult]
    ) -> ApproximateResult | None:
        """The group gating convergence: unsatisfied first, widest MoE.

        Iteration is over sorted keys, so the pick is deterministic and
        identical no matter which backend estimated the round.
        """
        worst: tuple[tuple[bool, float], ApproximateResult] | None = None
        for key in sorted(groups):
            result = groups[key]
            rank = (not result.converged, result.moe)
            if worst is None or rank > worst[0]:
                worst = (rank, result)
        return worst[1] if worst is not None else None

    def _group_keys(self, state: _QueryState) -> np.ndarray:
        """Per-support group keys (NaN where ungrouped), built lazily."""
        group_by = state.aggregate_query.group_by
        assert group_by is not None
        if state.support_group is None:
            state.support_group = np.full(
                state.joint.support_size, np.nan, dtype=np.float64
            )
            state.support_group_known = np.zeros(
                state.joint.support_size, dtype=bool
            )
        assert state.support_group_known is not None
        known = state.support_group_known
        drawn = state.distinct_support_indices()
        pending = drawn[~known[drawn]]
        known[pending] = True
        # only correct entries are keyed, and those went through _screen
        pending = pending[state.support_correct[pending]]
        # GroupBy.key_for over the attribute column, the same IEEE
        # operations: an absent or NaN attribute stays NaN (ungrouped)
        values = self._kg.attribute_column(group_by.attribute)[
            state.joint.answers[pending]
        ]
        width = group_by.bin_width
        if width is None:
            keys = values
        else:
            # + 0.0: floor() keeps the sign of a -0.0 quotient, the
            # integer floor of key_for does not
            keys = np.floor(values / width) * width + 0.0
            keys = np.where(keys > values, keys - width, keys)
        state.support_group[pending] = keys
        return state.support_group

    def _estimate_groups(
        self,
        state: _QueryState,
        numerators: np.ndarray,
        denominators: np.ndarray | None,
        draw_keys: np.ndarray,
        error_bound: float,
    ) -> tuple[dict[float, ApproximateResult], bool]:
        """One estimate and CI per group; whether the round is satisfied.

        A group's columns are the round's, zeroed outside the group: they
        span every draw, so the SAMPLE-normalised estimators keep their
        |S_A| denominator and the sigma — one bag; closed form when
        mean-shaped like an ungrouped round, else bootstrapped on one
        generator in key order — sees the group-membership mixture
        variance.  The round is satisfied when every group with
        ``min_group_draws`` correct draws met the bound and at least one
        group has that many: a round that gates no group checked nothing.
        """
        config = self.config
        results: dict[float, ApproximateResult] = {}
        gated = 0
        all_satisfied = True
        rng = ensure_rng(derive_seed(config.seed, "group-bootstrap", len(state.rounds)))
        drawn_keys = state.support_group[state.distinct_support_indices()]
        for key in np.unique(drawn_keys[~np.isnan(drawn_keys)]):
            # only correct entries are keyed, so members are correct draws
            members = draw_keys == key
            group = (
                np.where(members, numerators, 0.0),
                None if denominators is None else np.where(members, denominators, 0.0),
            )
            point_estimate = self._column_estimate(*group, members)
            moe = self._column_moe(*group, [len(members)], rng)
            satisfied = math.isfinite(moe) and satisfies_error_bound(
                moe, point_estimate, error_bound
            )
            correct_draws = int(np.count_nonzero(members))
            if correct_draws >= config.min_group_draws:
                gated += 1
                all_satisfied = all_satisfied and satisfied
            results[float(key)] = ApproximateResult(
                function=state.aggregate_query.function,
                interval=ConfidenceInterval(
                    estimate=point_estimate,
                    moe=moe if math.isfinite(moe) else 0.0,
                    confidence_level=config.confidence_level,
                ),
                converged=satisfied,
                rounds=(),
                total_draws=state.total_draws,
                distinct_answers=0,
                correct_draws=correct_draws,
            )
        return results, all_satisfied and gated > 0
