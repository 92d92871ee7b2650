"""The execution layer: S2 validation and the census.

:class:`QueryExecutor` runs queries over ``(QueryPlan, _QueryState)``
pairs: plans are the immutable shared artefacts of the planning layer
(:mod:`repro.core.planner`); a state holds everything mutable about one
query execution — its joint candidate set, the round trace, its stage
buckets (seconds per stage, which :class:`~repro.obs.trace.Clock` adds to).

Every production query is answered by **census**: S2 is exact (each
production validator reads an exact similarity row its plan builds once,
:mod:`repro.semantics.validation`), so ``initialise`` reads the joint
candidate set — the answers the plans' rows reach, typed as each
component's last hop requires, intersected across components — and the
query's one round counts the candidates every component keeps and
returns the exact aggregate (:meth:`QueryExecutor._census`), whatever
the set's size.  No production query draws, runs S1 or bootstraps: the
paper's sampled lifecycle runs only on
:class:`repro.bench.sampled.SampledExecutor` (the figures, the sampling
tests), which overrides the lifecycle and shares the rest.

Every query kind runs one round lifecycle: :meth:`QueryExecutor.step`
runs a round and names why the run ends, if it does (the stop rule is
the executor's), and :meth:`QueryExecutor.finalise` packages that reason.
This module holds no loop: the scheduler's slot alone advances rounds.

Validation is **memoised on the plan**: each plan keeps, per ``tau``,
the sorted ids of its candidates whose row clears it
(:meth:`~repro.core.plan.QueryPlan.kept`, one ``validate_batch`` call the
first time a census asks); a census intersects its components' kept
sets, passes them through one array-valued attribute/filter screen over
the graph's attribute columns, and sums what survives, under one
``census`` clock: the round's span and its ``"validation"`` stage time,
which also holds the row build ``initialise`` triggers (the paper's
Table XII folds it into S2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import EngineConfig
from repro.core.plan import CandidateSet, QueryPlan
from repro.core.planner import QueryPlanner
from repro.core.result import (
    STOP_CENSUS,
    STOP_REASONS,
    ApproximateResult,
    GroupedResult,
    RoundTrace,
)
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import GraphChangedError, QueryError
from repro.estimation.confidence import ConfidenceInterval
from repro.estimation.estimators import census_estimate
from repro.kg.graph import KnowledgeGraph
from repro.obs.trace import Clock
from repro.query.aggregate import AggregateQuery, GroupBy
from repro.semantics.validation import require_node_ids

STAGE_SAMPLING = "sampling"
STAGE_VALIDATION = "validation"
STAGE_ESTIMATION = "estimation"
STAGE_GUARANTEE = "guarantee"
#: serving overhead (queue management, cohort selection) attributed by
#: the AggregateQueryService scheduler
STAGE_SCHEDULER = "scheduler"

#: What a query's round estimates and what its result packages.  Only the
#: executors branch on these; to the serving scheduler a kind is a label.
KIND_ROUNDS = "rounds"  # guaranteed aggregates: BLB CI + Theorem 2
KIND_GROUPED = "grouped"  # GROUP-BY (§V-A): one CI per group
KIND_EXTREME = "extreme"  # MAX/MIN (§IV-B1): sample extremum, no CI
#: every label :func:`kind_for` can return
KINDS = (KIND_ROUNDS, KIND_GROUPED, KIND_EXTREME)

_EMPTY_JOINT = (
    "the query components share no candidate answer; the composite query "
    "has an empty intersection sample"
)


def _stage_ms(state: "_QueryState") -> dict[str, float]:
    """``state``'s stage buckets in milliseconds, for a result."""
    return {stage: seconds * 1000.0 for stage, seconds in state.timers.items()}


def kind_for(aggregate_query: AggregateQuery) -> str:
    """The execution kind of ``aggregate_query``."""
    if aggregate_query.group_by is not None:
        return KIND_GROUPED
    if not aggregate_query.function.has_guarantee:
        return KIND_EXTREME
    return KIND_ROUNDS


@dataclass
class _QueryState:
    """Mutable state of one query execution (kept alive by its handle's
    record, so a refine grows it further)."""

    aggregate_query: AggregateQuery
    components: list[QueryPlan]
    #: the support the query runs over, in support-index order: the joint
    #: candidate set
    joint: CandidateSet
    num_candidates: int
    walk_iterations: int
    #: the query's 1 - alpha: every interval reads it
    confidence_level: float
    #: the graph's structure version when the plans were read: a census
    #: over a graph that has moved since re-plans first
    structure_version: int
    rounds: list[RoundTrace] = field(default_factory=list)
    #: stage bucket -> seconds, in the order the stages first ran
    timers: dict[str, float] = field(default_factory=dict)
    #: GROUP-BY only: the latest round's per-group results, refreshed by
    #: every step and packaged by finalise
    grouped_results: dict[float, "ApproximateResult"] | None = None

    @property
    def total_draws(self) -> int:
        """Draws taken so far: a census draws nothing."""
        return 0


@dataclass(frozen=True)
class StepOutcome:
    """One S2/S3 round's verdict: its trace, and whether and why its run ends.

    ``satisfied`` means the run converged this round — the census ran,
    Theorem 2 held, or every sufficiently-drawn group met the bound; never
    for a sampled MAX/MIN.  ``stop_reason`` is None while the run goes on,
    else why it ends (a :data:`~repro.core.result.STOP_REASONS` entry):
    the executor's ``step`` alone decides it, and ``finalise`` packages it.
    """

    trace: RoundTrace
    satisfied: bool
    stop_reason: str | None


class QueryExecutor:
    """Answers queries by census over plans produced by the planner."""

    #: fault-injection hook (a :class:`~repro.core.resilience.FaultPlan`)
    #: installed by a service under test; None — one attribute check —
    #: in production
    fault_hook = None

    #: the ``exec`` instruments :meth:`register_metrics` installed, by
    #: name; None — one attribute check — until a service calls it
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

    def register_metrics(self, registry) -> None:
        """Register on ``registry`` the instruments this executor
        increments and count into them: a census only finalises runs."""
        execution = registry.scope("exec")
        self.obs_metrics = {
            "stop_reasons": {
                reason: execution.counter(
                    "stop_reasons_total",
                    "Finalised runs by why they stopped: "
                    f"{', '.join(STOP_REASONS)} (S3)",
                    labels={"reason": reason},
                )
                for reason in STOP_REASONS
            },
        }

    # ------------------------------------------------------------------
    # Initialisation: plans, then the joint candidate set
    # ------------------------------------------------------------------
    def _census_support(self, plans: list[QueryPlan]) -> CandidateSet:
        """The joint candidate set of ``plans``: a lone plan's own set, a
        composite's the answers every plan has as a candidate, intersected
        per query (:meth:`_intersect`).  Reading a plan's candidates builds
        its validator's row if no query has yet.
        """
        joint = plans[0].candidates(self._kg)
        if len(plans) == 1:
            return joint
        answers = joint.answers
        for plan in plans[1:]:
            answers = self._intersect(answers, plan.candidates(self._kg).answers)
        if len(answers) == 0:
            raise QueryError(_EMPTY_JOINT)
        answers.setflags(write=False)
        return CandidateSet(answers)

    def initialise(
        self,
        aggregate_query: AggregateQuery,
        seed: int | None,
        *,
        confidence: float | None = None,
    ) -> _QueryState:
        """Plan every component, then start the query's state
        (:meth:`_start`): here the census's, over the joint candidate set
        whatever its size, with no S1 and no draw.  ``seed`` /
        ``confidence`` default to the config's."""
        config = self.config
        effective_seed = config.seed if seed is None else seed
        timers: dict[str, float] = {}
        with Clock("initialise", seed=effective_seed):
            return self._start(
                aggregate_query,
                *self._plan(aggregate_query, timers),
                timers,
                effective_seed,
                config.confidence_level if confidence is None else confidence,
            )

    def _plan(
        self, aggregate_query: AggregateQuery, timers: dict[str, float]
    ) -> tuple[list[QueryPlan], int]:
        """Every component's plan, and the structure version read before
        planning: plans keyed on a later one can only re-plan needlessly."""
        version = self._kg.structure_version
        with Clock(None, timers, STAGE_SAMPLING):
            plans = [
                self._planner.plan_for(component)
                for component in aggregate_query.query.components
            ]
        return plans, version

    def _start(
        self,
        aggregate_query: AggregateQuery,
        plans: list[QueryPlan],
        structure_version: int,
        timers: dict[str, float],
        seed: int,
        confidence_level: float,
    ) -> _QueryState:
        """The census's state over the joint candidate set
        (:meth:`_census_support`), whatever its size: its first ``step``
        is the census, and no plan runs S1.  Reading the candidates builds
        the plans' rows, timed as validation.  A census draws nothing, so
        ``seed`` is unused."""
        with Clock(None, timers, STAGE_VALIDATION):
            joint = self._census_support(plans)
        size = joint.support_size
        return _QueryState(
            aggregate_query=aggregate_query,
            components=plans,
            joint=joint,
            # no walk ran: the census counts over the candidates
            num_candidates=size,
            walk_iterations=0,
            confidence_level=confidence_level,
            structure_version=structure_version,
            timers=timers,
        )

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

    # ------------------------------------------------------------------
    # The round lifecycle: step / finalise, every kind
    # ------------------------------------------------------------------
    def grow(
        self, state: _QueryState, last: RoundTrace, error_bound: float
    ) -> None:
        """Enlarge the sample before a run's non-first round, as a sampled
        ``step`` does: a census draws nothing, so it never grows."""

    def step(
        self,
        state: _QueryState,
        error_bound: float,
        *,
        run_round: int = 1,
    ) -> StepOutcome:
        """Run the census round (:meth:`_census`) and append its trace.

        The census is exact, so the round is satisfied and ends its run
        (``census``) whatever the bound or ``run_round``; a step on a
        state whose census already ran (a ``refine``) re-emits that round
        and appends nothing.  A run's round budget is a sampled run's
        alone (:class:`repro.bench.sampled.PaperConfig`).
        """
        if not state.rounds:
            started = time.perf_counter()
            self._record_round(state, self._census(state), started)
        return StepOutcome(state.rounds[-1], True, STOP_CENSUS)

    def _record_round(
        self,
        state: _QueryState,
        round_estimate: tuple[float, float | None, int, bool],
        started: float,
    ) -> RoundTrace:
        """Append the trace of a round that began at ``started``
        (``perf_counter``) and estimated ``(estimate, moe or None,
        correct_draws, satisfied)``.

        A round without a CI (no correct draws, a failed bootstrap, any
        sampled MAX/MIN round) is traced as ``moe=0.0, guaranteed=False``
        — never inf or NaN, which break rendering and strict JSON.
        """
        point_estimate, moe, correct_draws, satisfied = round_estimate
        trace = RoundTrace(
            round_index=len(state.rounds) + 1,
            total_draws=state.total_draws,
            correct_draws=correct_draws,
            estimate=point_estimate,
            moe=0.0 if moe is None else moe,
            satisfied=satisfied,
            seconds=time.perf_counter() - started,
            guaranteed=moe is not None,
        )
        state.rounds.append(trace)
        return trace

    def finalise(
        self, state: _QueryState, outcome: StepOutcome
    ) -> ApproximateResult | GroupedResult:
        """Package the census for the reason its step's ``outcome`` names."""
        return self._package(state, outcome.satisfied, outcome.stop_reason)

    def _package(
        self,
        state: _QueryState,
        converged: bool,
        stop_reason: str,
        *,
        estimate: tuple[float, float] | None = None,
        distinct_answers: int = 0,
    ) -> ApproximateResult | GroupedResult:
        """The finalised result of ``state``'s run, which stopped for
        ``stop_reason``.

        GROUP-BY packages the latest per-group estimates; everything else
        ``estimate`` — ``(value, moe)``, by default the last round's —
        with ``distinct_answers`` distinct drawn answers.
        """
        function = state.aggregate_query.function
        if self.obs_metrics is not None:
            self.obs_metrics["stop_reasons"][stop_reason].inc()
        if kind_for(state.aggregate_query) == KIND_GROUPED:
            group_by = state.aggregate_query.group_by
            groups = state.grouped_results or {}
            return GroupedResult(
                function=function,
                groups=groups,
                labels={key: group_by.label_for(key) for key in groups},
                converged=converged,
                total_draws=state.total_draws,
                stage_ms=_stage_ms(state),
                rounds=tuple(state.rounds),
                stop_reason=stop_reason,
            )
        last = state.rounds[-1]
        value, moe = (last.estimate, last.moe) if estimate is None else estimate
        return ApproximateResult(
            function=function,
            interval=ConfidenceInterval(
                estimate=value, moe=moe, confidence_level=state.confidence_level
            ),
            converged=converged,
            rounds=tuple(state.rounds),
            total_draws=state.total_draws,
            distinct_answers=distinct_answers,
            correct_draws=last.correct_draws,
            stage_ms=_stage_ms(state),
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
    # The census, and how a round reports groups
    # ------------------------------------------------------------------
    def _census(
        self, state: _QueryState
    ) -> tuple[float, float | None, int, bool]:
        """The exact aggregate over the joint candidate set.

        After the ``validate_batch`` fault site, the answers every
        component keeps are screened (:meth:`_census_answers`) under one
        ``census`` clock of the validation bucket, whose span records the
        candidates (``support``) and the answers screened (``kept``).
        The round then reads :func:`census_estimate`
        off the survivors' values — per group for GROUP-BY, each group a
        contiguous slice of one stable sort of the keys, and the round
        carries the widest group like a sampled one.  ``correct_draws``
        counts correct draws, and the census takes none: it reads 0, per
        group too.
        """
        if state.structure_version != self._kg.structure_version:
            self._replan(state)
        aggregate_query = state.aggregate_query
        function = aggregate_query.function
        support = state.joint.support_size
        if self.fault_hook is not None:
            self.fault_hook.fire("validate_batch", pending=support)
        with Clock("census", state.timers, STAGE_VALIDATION, support=support) as span:
            answers, values = self._census_answers(state, span)
        with Clock(None, state.timers, STAGE_ESTIMATION):
            group_by = aggregate_query.group_by
            if group_by is None:
                value, moe = census_estimate(function, values)
                return value, moe, 0, True
            keys = _keys_of(
                group_by, self._kg.attribute_column(group_by.attribute)[answers]
            )
            grouped = ~np.isnan(keys)
            keys = keys[grouped]
            order = np.argsort(keys, kind="stable")
            by_key = values[grouped][order]
            unique, starts = np.unique(keys[order], return_index=True)
            stops = [*starts[1:].tolist(), len(by_key)]
            groups = {
                key: (*census_estimate(function, by_key[start:stop]), True, 0, 0)
                for key, start, stop in zip(unique.tolist(), starts.tolist(), stops)
            }
        return self._group_round(state, groups, True)

    def _census_answers(
        self, state: _QueryState, span=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(answers, values)`` a census counts, in id order: the joint
        candidates every component keeps at ``tau`` — the intersection of
        their plans' kept sets — that pass the screen.  ``span``, if any,
        records how many were screened as ``kept``."""
        tau = self.config.tau
        kept = state.components[0].kept(self._kg, tau)
        for plan in state.components[1:]:
            kept = self._intersect(kept, plan.kept(self._kg, tau))
        if span is not None:
            span.annotate(kept=len(kept))
        passes, values = self._screen(state.aggregate_query, kept)
        return kept[passes], values[passes]

    def _intersect(self, answers: np.ndarray, others: np.ndarray) -> np.ndarray:
        """The ``answers`` that ``others`` holds, in order: ``others``
        scattered into a node mask that filters ``answers`` (several times
        faster than a sorted merge or a binary search at 10^5 ids)."""
        mask = np.zeros(self._kg.num_nodes, dtype=bool)
        mask[others] = True
        return answers[mask[answers]]

    def _replan(self, state: _QueryState) -> None:
        """Plan ``state``'s query afresh, once, on a graph whose structure
        moved since its plans were read: a census has no partial state, so
        the fresh state replaces every field (the timers stay)."""
        fresh = self._start(
            state.aggregate_query,
            *self._plan(state.aggregate_query, state.timers),
            state.timers,
            self.config.seed,
            state.confidence_level,
        )
        if fresh.structure_version != self._kg.structure_version:
            raise GraphChangedError(
                "the graph's structure moved while the query was planned, "
                "and again while it re-planned; retry once the writes settle"
            )
        vars(state).update(vars(fresh))

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


def _keys_of(group_by: GroupBy, values: np.ndarray) -> np.ndarray:
    """:meth:`GroupBy.key_for` of each attribute value in ``values``, with
    the same IEEE operations; an absent or NaN attribute keys NaN
    (ungrouped)."""
    width = group_by.bin_width
    if width is None:
        return values
    # + 0.0: floor() keeps the sign of a -0.0 quotient, the integer floor
    # of key_for does not
    keys = np.floor(values / width) * width + 0.0
    return np.where(keys > values, keys - width, keys)
