"""The execution layer: S2 validation + estimation and the S3 loop.

:class:`QueryExecutor` runs Algorithm 2 over ``(QueryPlan, _QueryState)``
pairs: plans are the immutable shared artefacts produced by the planning
layer (:mod:`repro.core.planner`), states hold everything mutable about
one query execution — draw index arrays, per-support verdicts, round
traces, stage timers.  The split mirrors the paper's pipeline: the plans
own S1, this module owns S2 (validation + Eq. 7-9 estimation) and S3
(BLB confidence, Theorem-2 termination, Eq. 12 growth).

Every query kind runs one round lifecycle — :meth:`QueryExecutor.grow`,
:meth:`QueryExecutor.step`, :meth:`QueryExecutor.finalise` under
:meth:`QueryExecutor.round_budget` — advanced one round at a time.  The
paper's GROUP-BY (§V-A) and MAX/MIN (§IV-B1) extensions change only the
estimator inside the round, the growth rule before it and what the final
result packages, so the kind is resolved here (:func:`kind_for`) and
nowhere else.  This module holds no loop: the serving scheduler's slot
(:mod:`repro.core.service`) is the only driver, interleaving rounds
across live queries of all kinds.  The last round may be the **census**,
which validates the rest of the support and returns the exact aggregate
(:meth:`QueryExecutor._census`).  A query whose joint candidate set — the
answers its plans' exact rows reach, typed as each component's last hop
requires — is no larger than ``max_sample_size`` takes it first:
``initialise`` reads the candidates, draws nothing and runs no S1, and
the query settles in one round over them, MAX/MIN included.  Above the
cap the query samples from pi_A, which its plans build on this first
draw, and once a growth would draw at least as many answers as it has not
drawn, nothing is drawn and the next round is the census.

Validation is **batched**: each round's pending support entries pass one
array-valued attribute/filter screen over the graph's attribute columns
(:meth:`KnowledgeGraph.attribute_column` — no per-answer ``Node`` view),
and the survivors are validated in one ``plan.validator.validate_batch``
call per component — the only S2 call.  Every production validator reads
an exact similarity row its plan builds once, simple and chain components
alike (:mod:`repro.semantics.validation`), so refinement rounds and
interactive sessions never revalidate an answer.  An answer of a composite
query is correct only when every component keeps it: each component reads
the whole batch and the verdicts are ANDed — a row read has nothing to
skip.  Validation time is attributed to its own ``"validation"`` stage
bucket (the paper's Table XII folds it into S2), and so is the row build
a census-first ``initialise`` triggers by reading the candidates.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DeltaStrategy, EngineConfig, ExtremeMethod
from repro.core.plan import CandidateSet, QueryPlan, plan_key
from repro.core.planner import QueryPlanner
from repro.core.result import (
    STOP_BOUND_MET,
    STOP_CENSUS,
    STOP_ROUND_BUDGET,
    STOP_SAMPLE_CAP,
    ApproximateResult,
    GroupedResult,
    RoundTrace,
)
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import EstimationError, QueryError
from repro.estimation.accuracy import moe_target, satisfies_error_bound
from repro.estimation.bootstrap import blb_moe
from repro.estimation.confidence import ConfidenceInterval, normal_critical_value
from repro.estimation.estimators import (
    EstimationSample,
    Normalization,
    census_estimate,
    estimate_extreme,
)
from repro.estimation.extreme import estimate_extreme_evt
from repro.kg.graph import KnowledgeGraph
from repro.obs.trace import child_span
from repro.query.aggregate import AggregateFunction, AggregateQuery
from repro.query.graph import PathQuery
from repro.sampling.collector import AnswerCollector, AnswerDistribution
from repro.semantics.validation import require_node_ids
from repro.utils.rng import derive_seed, ensure_rng
from repro.utils.timing import StageTimer

STAGE_SAMPLING = "sampling"
STAGE_VALIDATION = "validation"
STAGE_ESTIMATION = "estimation"
STAGE_GUARANTEE = "guarantee"
#: serving overhead (queue management, cohort selection) attributed by
#: the AggregateQueryService scheduler
STAGE_SCHEDULER = "scheduler"

#: What a query's round estimates, how its sample grows and what its
#: result packages.  Only :class:`QueryExecutor` branches on these; to the
#: serving scheduler a kind is a label.
KIND_ROUNDS = "rounds"  # guaranteed aggregates: BLB CI + Theorem 2
KIND_GROUPED = "grouped"  # GROUP-BY (§V-A): one CI per group
KIND_EXTREME = "extreme"  # MAX/MIN (§IV-B1): sample extremum, no CI
#: every label :func:`kind_for` can return
KINDS = (KIND_ROUNDS, KIND_GROUPED, KIND_EXTREME)

_EMPTY_JOINT = (
    "the query components share no candidate answer; the composite query "
    "has an empty intersection sample"
)

#: most elements one ``(groups, draws)`` block of a closed-form GROUP-BY
#: round may hold; a round with more is reduced a block of groups at a time
_GROUP_BLOCK_ELEMENTS = 1 << 20


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
    #: the support the query runs over, in support-index order: the joint
    #: candidate set of a census-first query, else the joint pi_A its
    #: draws are taken from
    joint: AnswerDistribution | CandidateSet
    #: draws from ``joint``; None on a census-first query
    collector: AnswerCollector | None
    #: per-little-sample arrays of support indices
    little_samples: list[np.ndarray]
    desired_n: int
    num_candidates: int
    walk_iterations: int
    #: the query's 1 - alpha: the BLB critical value, every interval and
    #: the EVT fit read it
    confidence_level: float
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
    #: set by ``initialise`` when the joint candidate set fits under
    #: ``max_sample_size``, and by ``grow`` instead of drawing when the
    #: growth would add at least as many draws as the support has undrawn
    #: entries (:meth:`QueryExecutor._census_due`): the next ``step`` is
    #: the census
    census_due: bool = False
    #: the census round, once run; a later ``step`` re-emits it
    census: RoundTrace | None = None
    #: distinct_support_indices memo: (per-sample lengths scattered so
    #: far, drawn mask over the support, read-only indices)
    _drawn: tuple | None = field(default=None, repr=False)

    @property
    def total_draws(self) -> int:
        """Draws collected so far across all little samples."""
        return int(sum(len(sample) for sample in self.little_samples))

    def distinct_support_indices(self) -> np.ndarray:
        """Sorted unique support indices present in the draws.

        A drawn mask over the support instead of a sort over every draw,
        updated once per growth: little samples only ever grow by
        appending (:meth:`QueryExecutor._draw` is their only writer), so
        their lengths identify the draw set and only the tail each one
        gained since the last call is scattered.
        """
        lengths = tuple(len(sample) for sample in self.little_samples)
        if self._drawn is None:
            mask = np.zeros(self.joint.support_size, dtype=bool)
            self._drawn = ((0,) * len(lengths), mask, None)
        scattered, mask, indices = self._drawn
        if indices is None or scattered != lengths:
            for sample, start in zip(self.little_samples, scattered):
                mask[sample[start:]] = True
            indices = np.flatnonzero(mask)
            indices.setflags(write=False)
            self._drawn = (lengths, mask, indices)
        return indices


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

    # ------------------------------------------------------------------
    # Initialisation: plans, then the census or the first draws
    # ------------------------------------------------------------------
    @staticmethod
    def _joint_distribution(components: list[QueryPlan]) -> AnswerDistribution:
        """Decomposition-assembly of two or more components: intersect
        supports, multiply weights.

        The joint support is the sorted intersection of the components'
        answers; an answer's weight is the product of its per-component
        probabilities, multiplied up in plan order, renormalised.
        """
        answers = components[0].distribution.answers
        for plan in components[1:]:
            answers = np.intersect1d(answers, plan.distribution.answers)
        if len(answers) == 0:
            raise QueryError(_EMPTY_JOINT)
        weights = np.ones(len(answers), dtype=np.float64)
        for plan in components:
            distribution = plan.distribution
            # ``answers`` is sorted and contained in every support, so the
            # positions come back aligned with it
            _, _, where = np.intersect1d(
                answers, distribution.answers, return_indices=True
            )
            weights *= distribution.probabilities[where]
        return AnswerDistribution(answers=answers, probabilities=weights / weights.sum())

    def _candidate_intersection(self, plans: list[QueryPlan]) -> CandidateSet:
        """The answers every one of ``plans`` has as a candidate."""
        answers = plans[0].candidates(self._kg).answers
        for plan in plans[1:]:
            answers = np.intersect1d(
                answers, plan.candidates(self._kg).answers, assume_unique=True
            )
        if len(answers) == 0:
            raise QueryError(_EMPTY_JOINT)
        answers.setflags(write=False)
        return CandidateSet(answers)

    def _census_support(
        self, components: tuple[PathQuery, ...], plans: list[QueryPlan]
    ) -> CandidateSet | None:
        """The joint candidate set of ``plans`` (``components``' plans)
        when the query takes the census first — it has no more candidates
        than ``max_sample_size`` — else None.

        A lone plan's set is its own; a composite's is the intersection,
        assembled once per plan set and cached beside the plans
        (:meth:`PlanCache.joint_for`).  Reading a plan's candidates builds
        its validator's row if no query has yet.  The basis of the rule
        is measured, not derived: S2 is exact, so validating the whole
        set is one read of a row per component, and it beat the sampled
        run (its S1 walk, BLB little samples and 2–3 rounds) on every
        ledger query and on a yago2-like scale-30 probe whose largest
        joint support is 14 227.  Sets between that and the cap are
        unverified — chain components in particular, whose rows chain one
        leg pass per total length — and there the census is one round of
        up to ``max_sample_size`` validations, where sampled growth would
        have bounded each round.  ``SampledExecutor`` (the figures, the
        sampling tests) answers None here, as it never finds the census
        due (:meth:`_census_due`).
        """
        if len(plans) == 1:
            candidates = plans[0].candidates(self._kg)
        else:
            keys = tuple(
                plan_key(component, self._space, self.config)
                for component in components
            )
            candidates = self._planner.cache.joint_for(
                self._kg, keys, plans, lambda: self._candidate_intersection(plans)
            )
        if candidates.support_size <= self.config.max_sample_size:
            return candidates
        return None

    def initialise(
        self,
        aggregate_query: AggregateQuery,
        seed: int | None,
        *,
        confidence: float | None = None,
    ) -> _QueryState:
        """Plan every component, then settle how the query runs.

        When the joint candidate set fits under ``max_sample_size``
        (:meth:`_census_support`) the query takes the census first: its
        state runs over those candidates, holds no collector, and its
        first ``step`` is the census; no plan runs S1.  Otherwise the
        state runs over the joint pi_A — each plan runs S1 on this, its
        first draw — and draws the initial BLB little samples, unless the
        census is due at once (:meth:`_census_due`).  Reading the
        candidates builds the plans' rows, timed as validation.
        ``seed`` / ``confidence`` default to the config's.
        """
        config = self.config
        effective_seed = config.seed if seed is None else seed
        timers = StageTimer()

        with child_span("initialise", seed=effective_seed):
            query_components = aggregate_query.query.components
            with timers.measure(STAGE_SAMPLING):
                plans = [
                    self._planner.plan_for(component) for component in query_components
                ]
            with timers.measure(STAGE_VALIDATION):
                census = self._census_support(query_components, plans)
            with timers.measure(STAGE_SAMPLING):
                if census is not None:
                    # no walk ran, and the census draws nothing
                    joint, collector, desired_n = census, None, 0
                    num_candidates, walk_iterations = census.support_size, 0
                else:
                    joint = (
                        plans[0].distribution
                        if len(plans) == 1
                        else self._joint_distribution(plans)
                    )
                    collector = AnswerCollector(
                        joint, seed=ensure_rng(derive_seed(effective_seed, "engine"))
                    )
                    num_candidates = max(plan.num_candidates for plan in plans)
                    walk_iterations = max(plan.walk_iterations for plan in plans)
                    if aggregate_query.function.has_guarantee:
                        ratio = config.sample_ratio
                    else:
                        ratio = config.extreme_sample_ratio
                    desired_n = max(
                        config.min_initial_sample,
                        int(math.ceil(ratio * num_candidates)),
                    )
                support_size = joint.support_size
                state = _QueryState(
                    aggregate_query=aggregate_query,
                    components=plans,
                    joint=joint,
                    collector=collector,
                    little_samples=[
                        np.empty(0, dtype=np.int64)
                        for _ in range(config.blb.num_little_samples)
                    ],
                    desired_n=desired_n,
                    num_candidates=num_candidates,
                    walk_iterations=walk_iterations,
                    confidence_level=(
                        config.confidence_level if confidence is None else confidence
                    ),
                    support_known=np.zeros(support_size, dtype=bool),
                    support_correct=np.zeros(support_size, dtype=bool),
                    support_value=np.zeros(support_size, dtype=np.float64),
                    timers=timers,
                    census_due=census is not None,
                )
                if census is None:
                    little_size = config.blb.little_sample_size(desired_n)
                    self._draw(state, [little_size] * len(state.little_samples))
        return state

    # ------------------------------------------------------------------
    # Validation (S2, batched)
    # ------------------------------------------------------------------
    def answer_similarity(self, state_or_components, node_id: int) -> float:
        """Composite answer similarity: minimum across components."""
        components = (
            state_or_components.components
            if isinstance(state_or_components, _QueryState)
            else state_or_components
        )
        return min(
            float(plan.validator.validate_batch([node_id]).similarity[0])
            for plan in components
        )

    def _batch_similarities(
        self, state: _QueryState, entries: np.ndarray
    ) -> np.ndarray:
        """Which joint support ``entries`` every component keeps at
        ``>= tau``, as a mask over ``entries``."""
        answers = state.joint.answers[entries]
        keeps = np.ones(len(entries), dtype=bool)
        for plan in state.components:
            keeps &= plan.validator.validate_batch(answers).similarity >= self.config.tau
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
        require_node_ids(kg, node_ids)
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

    def _validate_entries(self, state: _QueryState, pending: np.ndarray) -> None:
        """Fill verdicts and values for ``pending`` support entries.

        The attribute/filter screen runs over the whole batch as array
        operations; everything that survives it is validated in one batch
        per component, and an answer is correct when every component
        keeps it.
        """
        correct, values = self._screen(
            state.aggregate_query, state.joint.answers[pending]
        )
        if self.config.validate_correctness and correct.any():
            # every component's verdict on what the screen let through
            correct[correct] = self._batch_similarities(state, pending[correct])
        state.support_known[pending] = True
        state.support_correct[pending] = correct
        state.support_value[pending] = np.where(correct, values, 0.0)

    def _ensure_validated(self, state: _QueryState) -> None:
        """Validate every support entry present in the current draws."""
        drawn = state.distinct_support_indices()
        self._validate_pending(state, drawn[~state.support_known[drawn]])

    def _validate_pending(self, state: _QueryState, pending: np.ndarray) -> None:
        """One ``validate_batch`` span over ``pending`` (unknown) entries."""
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

    @staticmethod
    def _combined_sample(state: _QueryState) -> EstimationSample:
        """Every draw with its value, probability and verdict: what MAX/MIN
        rounds and the EVT fit estimate from, and the tests' per-draw
        oracle of :meth:`_contribution_columns`.  Callers must have run
        :meth:`_ensure_validated` first."""
        draws = np.concatenate(state.little_samples)
        return EstimationSample(
            values=state.support_value[draws],
            probabilities=state.joint.probabilities[draws],
            correct=state.support_correct[draws],
        )

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

        Growth is the only RNG in a round and runs in the scheduler slot
        that owns the state, before the slot's :meth:`step` validates and
        estimates the grown sample.  The sizes are settled before any
        draw: a growth :meth:`_census_due` rejects draws nothing, and the
        next :meth:`step` is the census instead.
        """
        if state.census_due:
            return
        with state.timers.measure(STAGE_SAMPLING):
            desired_n, counts = self._growth(state, last, error_bound)
            if self._draw(state, counts):
                state.desired_n = desired_n

    def _growth(
        self, state: _QueryState, last: RoundTrace, error_bound: float
    ) -> tuple[int, list[int]]:
        """``(desired_n, draws per little sample)`` of the next growth."""
        config = self.config
        sizes = [len(sample) for sample in state.little_samples]
        kind = kind_for(state.aggregate_query)
        if kind == KIND_EXTREME:
            return state.desired_n, sizes
        if config.delta_strategy is not DeltaStrategy.ERROR_BASED:
            per_sample = max(1, config.fixed_delta // len(sizes))
            return state.desired_n, [per_sample] * len(sizes)
        if kind == KIND_GROUPED:
            point_estimate, moe = 1.0, float("inf")
        else:
            point_estimate = last.estimate
            moe = last.moe if last.guaranteed else float("inf")
        target = moe_target(point_estimate, error_bound)
        if math.isinf(moe) or target <= 0.0:
            growth = 2.0  # no usable CI yet: double the sample
        else:
            # Eq. 12: N grows by (eps / target)^2, so |S_A| = t N^m
            # grows by ratio^(2m) — exactly |dS_A| of the paper.
            ratio = max(moe / target, 1.0)
            growth = min(ratio * ratio, config.max_growth_factor)
            growth = max(growth, 1.1)  # always make visible progress
        desired_n = int(math.ceil(state.desired_n * growth))
        little_size = config.blb.little_sample_size(desired_n)
        return desired_n, [max(0, little_size - size) for size in sizes]

    def _draw(self, state: _QueryState, counts: list[int]) -> bool:
        """Append ``counts[i]`` draws to little sample ``i``, in order —
        unless the census is due, which draws nothing.  Whether it drew."""
        if self._census_due(state, sum(counts)):
            state.census_due = True
            return False
        for position, count in enumerate(counts):
            if count > 0:
                state.little_samples[position] = np.concatenate(
                    [
                        state.little_samples[position],
                        state.collector.collect_indices(count),
                    ]
                )
        return True

    def _census_due(self, state: _QueryState, need: int) -> bool:
        """Whether a growth of ``need`` draws gives way to the census.

        It does when ``need`` is at least the number of support entries
        this sampled query has not drawn: validating the rest then costs
        no more searches than the draws would, and the census returns the
        exact aggregate over the joint pi_A's support.  The rule reads
        only the query's own draws and the config, so which rounds a
        query takes is a function of (query, seed, graph, config) — memo
        state changes only the cost.
        """
        undrawn = state.joint.support_size - len(state.distinct_support_indices())
        return need >= undrawn

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

        When the census is due (:meth:`_census_due`) the round is
        :meth:`_census` instead, satisfied by construction; a step on a
        state whose census already ran (a ``refine``) re-emits that round
        and appends nothing.
        """
        if state.census is not None:
            return StepOutcome(trace=state.census, satisfied=True, exhausted=False)
        step_started = time.perf_counter() - carried_seconds
        round_index = len(state.rounds) + 1
        kind = kind_for(state.aggregate_query)
        if state.census_due:
            round_estimate = self._census(state)
        else:
            self._ensure_validated(state)
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
        if state.census_due:
            state.census = trace
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
        also says why the run stopped (``stop_reason``: the census ran,
        else the bound was met, else the sample cap was reached, else the
        round budget — the caller's — was spent).  GROUP-BY packages the
        latest per-group estimates; everything else the last round's
        estimate and MoE (``state.rounds[-1]``), which a sampled MAX/MIN
        query under ``ExtremeMethod.EVT`` first extrapolates past the
        sample extremum.
        """
        config = self.config
        function = state.aggregate_query.function
        kind = kind_for(state.aggregate_query)
        if state.census is not None:
            stop_reason = STOP_CENSUS
        elif converged:
            stop_reason = STOP_BOUND_MET
        elif state.total_draws >= config.max_sample_size:
            stop_reason = STOP_SAMPLE_CAP
        else:
            stop_reason = STOP_ROUND_BUDGET
        if self.obs_metrics is not None:
            self.obs_metrics["stop_reasons"][stop_reason].inc()
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
            and state.census is None
            and last.correct_draws
        ):
            # The future-work extension: extrapolate past the sample
            # extremum with a POT/GPD tail fit (see estimation.extreme).
            with state.timers.measure(STAGE_GUARANTEE):
                combined = self._combined_sample(state)
                evt = estimate_extreme_evt(
                    combined,
                    function,
                    exceedance_quantile=config.evt_exceedance_quantile,
                    confidence_level=state.confidence_level,
                    bootstrap_rounds=config.evt_bootstrap_rounds,
                    seed=derive_seed(config.seed, "evt"),
                )
            value, moe = evt.value, evt.moe
        return ApproximateResult(
            function=function,
            interval=ConfidenceInterval(
                estimate=value, moe=moe, confidence_level=state.confidence_level
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

    def prewarm_similarities(
        self, components: list[QueryPlan], node_ids: list[int]
    ) -> None:
        """Validate ``node_ids`` on every component's validator, eagerly.

        A ledger binding (``executor.prewarm`` in
        benchmarks/ledger/layers.py) with no src/ caller: every query
        validates in its own slot.  It goes when the ledger target does.
        """
        for plan in components:
            plan.validator.validate_batch(node_ids)

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
        state: _QueryState,
        numerators: np.ndarray,
        denominators: np.ndarray | None,
        bag_stops: list[int],
        seed: int | np.random.Generator,
    ) -> float:
        """Eq. 10-11 over the contiguous column views ending at
        ``bag_stops``, at the query's confidence level; inf when no bag
        yields a sigma.  A bootstrap draws on ``ensure_rng(seed)``, built
        only if a bag needs it."""
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
        if self.obs_metrics is not None:
            self.obs_metrics[name].inc(len(bags))
        try:
            return blb_moe(
                bags,
                critical=normal_critical_value(state.confidence_level),
                num_resamples=config.blb.num_resamples,
                resample_size=len(numerators),
                seed=seed,
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
                    state,
                    numerators,
                    denominators,
                    list(itertools.accumulate(map(len, state.little_samples))),
                    derive_seed(config.seed, "blb", round_index),
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
        """Re-estimate every observed group; report the one gating the run
        (:meth:`_group_round`), satisfied when every sufficiently-drawn
        group met the bound (and there is one)."""
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
        return self._group_round(state, groups, satisfied)

    def _estimate_extremum(
        self, state: _QueryState
    ) -> tuple[float, None, int, bool]:
        """The sample extremum: no interval (§IV-B1 remarks), never
        satisfied — the round budget is the only stop condition besides
        sample exhaustion."""
        function = state.aggregate_query.function
        with state.timers.measure(STAGE_ESTIMATION):
            combined = self._combined_sample(state)
            if combined.correct_draws:
                value = estimate_extreme(combined, function)
            elif state.rounds:
                value = state.rounds[-1].estimate
            else:
                value = 0.0
        return value, None, combined.correct_draws, False

    def _census(
        self, state: _QueryState
    ) -> tuple[float, float | None, int, bool]:
        """The exact aggregate over the whole joint support: the joint
        candidate set on a census-first query, the joint pi_A's support
        on a sampled one.

        Every support entry still unknown is validated in one batch (one
        screen plus one validation per component) inside a ``census`` span;
        the round then reads :func:`census_estimate` off the verdicts —
        per group for GROUP-BY, whose round carries the widest group
        like a sampled one.  ``correct_draws`` stays what it means on
        every round: correct draws among the draws taken, which the
        census adds none to.
        """
        aggregate_query = state.aggregate_query
        function = aggregate_query.function
        pending = np.flatnonzero(~state.support_known)
        with child_span(
            "census", support=state.joint.support_size, pending=int(len(pending))
        ):
            self._validate_pending(state, pending)
        if self.obs_metrics is not None:
            self.obs_metrics["census_queries"].inc()
        correct = state.support_correct
        draws = np.concatenate(state.little_samples)
        with state.timers.measure(STAGE_ESTIMATION):
            if aggregate_query.group_by is None:
                value, moe = census_estimate(function, state.support_value[correct])
                return value, moe, int(np.count_nonzero(correct[draws])), True
            keys = self._group_keys(state, np.arange(state.joint.support_size))
            draw_keys = keys[draws]
            drawn_keys = keys[state.distinct_support_indices()]
            groups = {
                float(key): (
                    *census_estimate(function, state.support_value[keys == key]),
                    True,
                    int(np.count_nonzero(draw_keys == key)),
                    int(np.count_nonzero(drawn_keys == key)),
                )
                for key in np.unique(keys[~np.isnan(keys)])
            }
        return self._group_round(state, groups, True)

    def _group_round(
        self, state: _QueryState, groups: dict, satisfied: bool
    ) -> tuple[float, float | None, int, bool]:
        """Package ``{key: (estimate, moe, converged, correct draws,
        distinct answers)}`` as the per-group results and the round that
        reports them.

        The groups land on ``state.grouped_results``; the round carries
        the *worst* group's estimate and MoE, so the anytime
        ``progress()`` view is meaningful for grouped queries.  A group
        without a sigma is stored as an unconverged ``moe=0.0`` interval
        and a round led by one has no CI; a census round without a group
        is exact all the same.
        """
        function = state.aggregate_query.function
        results = {
            key: ApproximateResult(
                function=function,
                interval=ConfidenceInterval(
                    estimate=value,
                    moe=moe,
                    confidence_level=state.confidence_level,
                ),
                converged=converged,
                rounds=(),
                total_draws=state.total_draws,
                distinct_answers=distinct_answers,
                correct_draws=correct_draws,
            )
            for key, (value, moe, converged, correct_draws, distinct_answers) in (
                groups.items()
            )
        }
        state.grouped_results = results
        correct_draws = sum(result.correct_draws for result in results.values())
        worst = self._worst_group(results)
        if worst is None:
            return 0.0, 0.0 if satisfied else None, correct_draws, satisfied
        has_ci = worst.converged or worst.moe != 0.0
        return worst.value, worst.moe if has_ci else None, correct_draws, satisfied

    @staticmethod
    def _worst_group(
        groups: dict[float, ApproximateResult]
    ) -> ApproximateResult | None:
        """The group gating convergence: unsatisfied first, widest MoE.

        Iteration is over sorted keys, so the pick is deterministic.
        """
        worst: tuple[tuple[bool, float], ApproximateResult] | None = None
        for key in sorted(groups):
            result = groups[key]
            rank = (not result.converged, result.moe)
            if worst is None or rank > worst[0]:
                worst = (rank, result)
        return worst[1] if worst is not None else None

    def _group_keys(
        self, state: _QueryState, entries: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-support group keys (NaN where ungrouped), built lazily for
        ``entries`` (default: the drawn ones), which must be validated."""
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
        if entries is None:
            entries = state.distinct_support_indices()
        pending = entries[~known[entries]]
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
    ) -> tuple[dict[float, tuple], bool]:
        """``{key: (estimate, moe, converged, correct draws, distinct
        answers)}`` per group; whether the round is satisfied.

        A group's columns are the round's, zeroed outside the group: they
        span every draw, so the SAMPLE-normalised estimators keep their
        |S_A| denominator and the sigma — one bag; closed form when
        mean-shaped like an ungrouped round, else bootstrapped on one
        generator in key order — sees the group-membership mixture
        variance.  A group's draws are a contiguous slice of one stable
        sort of the draw keys, so its estimate sums its members in draw
        order.  The round is satisfied when every group with
        ``min_group_draws`` correct draws met the bound and at least one
        group has that many: a round that gates no group checked nothing.
        """
        config = self.config
        drawn_keys = state.support_group[state.distinct_support_indices()]
        # only correct entries are keyed, so a group's draws are correct
        keys, distinct = np.unique(
            drawn_keys[~np.isnan(drawn_keys)], return_counts=True
        )
        order = np.argsort(draw_keys, kind="stable")
        sorted_keys = draw_keys[order]
        starts = np.searchsorted(sorted_keys, keys, side="left")
        stops = np.searchsorted(sorted_keys, keys, side="right")

        def group_sums(column: np.ndarray) -> list[float]:
            by_key = column[order]
            return [
                float(np.sum(by_key[start:stop])) for start, stop in zip(starts, stops)
            ]

        weighted = group_sums(numerators)
        if denominators is None:
            estimates = [total / len(numerators) for total in weighted]
            moes = self._closed_form_group_moes(state, numerators, draw_keys, keys)
        else:
            estimates = [
                total / count
                for total, count in zip(weighted, group_sums(denominators))
            ]
            moes = self._bootstrapped_group_moes(
                state, numerators, denominators, draw_keys, keys
            )
        results: dict[float, tuple] = {}
        gated = 0
        all_satisfied = True
        for key, estimate, moe, correct_draws, answers in zip(
            keys.tolist(), estimates, moes, (stops - starts).tolist(), distinct.tolist()
        ):
            satisfied = math.isfinite(moe) and satisfies_error_bound(
                moe, estimate, error_bound
            )
            if correct_draws >= config.min_group_draws:
                gated += 1
                all_satisfied = all_satisfied and satisfied
            results[key] = (
                estimate,
                moe if math.isfinite(moe) else 0.0,
                satisfied,
                correct_draws,
                answers,
            )
        return results, all_satisfied and gated > 0

    def _closed_form_group_moes(
        self,
        state: _QueryState,
        numerators: np.ndarray,
        draw_keys: np.ndarray,
        keys: np.ndarray,
    ) -> list[float]:
        """Each group's closed-form MoE (:func:`blb_moe` of its one
        mean-shaped bag), inf without a sigma.

        The groups' zeroed columns are the rows of one ``(groups, draws)``
        matrix, reduced ``_GROUP_BLOCK_ELEMENTS`` at a time: a row's
        ``np.std`` over the contiguous axis is the 1-D call's pairwise sum,
        so every sigma is :func:`column_mean_sigma`'s bit for bit.
        """
        if self.obs_metrics is not None:
            self.obs_metrics["sigma_closed_form"].inc(len(keys))
        draws = len(numerators)
        if draws < 2:
            return [float("inf")] * len(keys)
        sigmas = np.empty(len(keys), dtype=np.float64)
        rows = max(1, _GROUP_BLOCK_ELEMENTS // draws)
        for start in range(0, len(keys), rows):
            block = keys[start : start + rows, np.newaxis]
            sigmas[start : start + rows] = np.std(
                np.where(draw_keys == block, numerators, 0.0), axis=1, ddof=1
            )
        critical = normal_critical_value(state.confidence_level)
        return (critical * (sigmas / np.sqrt(draws))).tolist()

    def _bootstrapped_group_moes(
        self,
        state: _QueryState,
        numerators: np.ndarray,
        denominators: np.ndarray,
        draw_keys: np.ndarray,
        keys: np.ndarray,
    ) -> list[float]:
        """Each group's bootstrapped MoE, inf without a sigma: the groups
        draw in key order on one generator."""
        rng = ensure_rng(
            derive_seed(self.config.seed, "group-bootstrap", len(state.rounds))
        )
        moes = []
        for key in keys:
            members = draw_keys == key
            moes.append(
                self._column_moe(
                    state,
                    np.where(members, numerators, 0.0),
                    np.where(members, denominators, 0.0),
                    [len(members)],
                    rng,
                )
            )
        return moes
