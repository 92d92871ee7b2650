"""The paper's sampled lifecycle: Algorithm 2 with S1 draws, BLB rounds
and Eq. 12 growth.

Production answers every query by census (:mod:`repro.core.executor`)
and imports nothing from here.  The figures and the tests of the
sampling mechanics run :class:`SampledExecutor` instead, which always
samples: a query draws from its joint pi_A and estimates each round —
Eq. 7-9 with a BLB interval and the Theorem-2 check, one CI per group
for GROUP-BY (§V-A), the sample extremum for MAX/MIN (§IV-B1), optionally
extrapolated by an EVT tail fit.  Its per-draw verdicts and group keys
are its own (a census keeps none), as are its validation passes and
the three ``exec`` instruments it alone increments; the screen, the key
binning and packaging are the production executor's.

Its knobs are :class:`PaperConfig`'s, plus the module constants below
for the paper's values no figure varies.  S1 is :class:`PlanSampler`,
whose pi_A is a memo beside each plan.
"""

from __future__ import annotations

import enum
import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.config import EngineConfig
from repro.core.executor import (
    _EMPTY_JOINT,
    KIND_EXTREME,
    KIND_GROUPED,
    STAGE_ESTIMATION,
    STAGE_GUARANTEE,
    STAGE_SAMPLING,
    STAGE_VALIDATION,
    QueryExecutor,
    StepOutcome,
    _keys_of,
    _QueryState,
    kind_for,
)
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
from repro.errors import EstimationError, QueryError, SamplingError
from repro.estimation.accuracy import BlbConfig, moe_target, satisfies_error_bound
from repro.estimation.bootstrap import blb_moe, normal_critical_value
from repro.estimation.estimators import (
    EstimationSample,
    Normalization,
    estimate_extreme,
)
from repro.estimation.extreme import estimate_extreme_evt
from repro.kg.graph import KnowledgeGraph
from repro.obs.trace import Clock
from repro.query.aggregate import AggregateFunction, AggregateQuery
from repro.query.graph import PathQuery
from repro.sampling.chain import ChainSampler
from repro.sampling.collector import (
    AnswerCollector,
    AnswerDistribution,
    restrict_to_answers,
)
from repro.sampling.scope import build_scope
from repro.sampling.strength import (
    Stage,
    similarity_entry_weights,
    stage_distributions,
)
from repro.sampling.topology import cnarw_entry_weights, node2vec_visit_distribution
from repro.utils.rng import derive_seed, ensure_rng

#: most elements one ``(groups, draws)`` block of a closed-form GROUP-BY
#: round may hold; a round with more is reduced a block of groups at a time
_GROUP_BLOCK_ELEMENTS = 1 << 20

#: Eq. 12's per-round cap on N's growth
MAX_GROWTH_FACTOR = 16.0
#: correct draws a round needs before Theorem 2 is trusted: a CI from a
#: tiny, homogeneous sample can be degenerately narrow (sigma ~ 0)
MIN_CORRECT_FOR_TERMINATION = 30
#: the paper's BLB: t = 3 little samples of N^0.6 draws, B = 50 (§IV-C)
BLB = BlbConfig()
#: the top-up of each round under ``DeltaStrategy.FIXED`` (Fig. 5(c))
FIXED_DELTA = 50
#: MAX/MIN size their first sample at 5% of the candidates (§VII-B)
EXTREME_SAMPLE_RATIO = 0.05
#: bootstrap rounds of the CI of ``ExtremeMethod.EVT``'s tail fit
EVT_BOOTSTRAP_ROUNDS = 200
#: pops per answer of the figures' r-path validator (§IV-B2)
VALIDATION_EXPANSIONS = 120


class DeltaStrategy(enum.Enum):
    """How |dS_A| is chosen when Theorem 2 fails (Fig. 5(c) ablation)."""

    ERROR_BASED = "error-based"  # Eq. 12
    FIXED = "fixed"  # constant top-up, the relational-AQP habit


class SamplerKind(enum.Enum):
    """Which stationary distribution drives sampling (Fig. 5(a) ablation)."""

    SEMANTIC = "semantic"
    CNARW = "cnarw"
    NODE2VEC = "node2vec"


class ExtremeMethod(enum.Enum):
    """How MAX/MIN are estimated (§IV-B1 remarks).

    SAMPLE is the paper's behaviour: report the extremum of the collected
    correct draws.  EVT implements the paper's named future-work item: a
    peaks-over-threshold GPD fit extrapolating beyond the sample, with a
    bootstrap CI (still no Theorem-2 guarantee).
    """

    SAMPLE = "sample"
    EVT = "evt"


@dataclass(frozen=True)
class PaperConfig(EngineConfig):
    """A census's knobs plus those of Algorithm 2's sampled rounds; see
    the paper sections noted per field."""

    #: the paper's r: paths its greedy search finds per answer — read only
    #: by the figures' validator (repro.bench.harness)
    repeat_factor: int = 3
    # Correctness (§IV-B2): the Fig. 5(b) ablation switch; off, every
    # drawn answer that passes the screen counts as correct
    validate_correctness: bool = True
    # Walk (§IV-A): Lemma 2's self-loop weight on the mapping node
    self_loop_weight: float = 0.001
    sampler: SamplerKind = SamplerKind.SEMANTIC
    # Sample sizing (§IV-C)
    sample_ratio: float = 0.3  # lambda
    min_initial_sample: int = 50
    max_rounds: int = 10  # the paper's N_e <= 10
    delta_strategy: DeltaStrategy = DeltaStrategy.ERROR_BASED
    max_sample_size: int = 100_000
    min_rounds: int = 2  # Theorem 2 is trusted from this round on
    # Estimators (§IV-B1; DESIGN.md §4.1 discusses the normalisation)
    normalization: Normalization = Normalization.SAMPLE
    # Extreme functions: a few rounds (§VII-B)
    extreme_rounds: int = 4
    extreme_method: ExtremeMethod = ExtremeMethod.SAMPLE
    #: POT threshold quantile for ExtremeMethod.EVT
    evt_exceedance_quantile: float = 0.75
    # Chain queries (§V-B)
    max_intermediates: int = 64
    # GROUP-BY: groups smaller than this many observed draws do not gate
    # termination (their CIs are reported as-is)
    min_group_draws: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in (
            "repeat_factor",
            "min_initial_sample",
            "max_rounds",
            "min_rounds",
            "extreme_rounds",
            "max_intermediates",
        ):
            if getattr(self, name) < 1:
                raise QueryError(f"{name} must be >= 1")
        if not 0.0 < self.sample_ratio <= 1.0:
            raise QueryError("sample_ratio must be in (0, 1]")
        if not 0.0 < self.self_loop_weight < math.inf:
            raise QueryError("self_loop_weight must be positive and finite (Lemma 2)")
        if not 0.0 < self.evt_exceedance_quantile < 1.0:
            raise QueryError("evt_exceedance_quantile must be in (0, 1)")


@dataclass(frozen=True)
class PlanSample:
    """What S1 hands a plan's draws."""

    #: answer-restricted stationary distribution pi_A (Theorem 1)
    distribution: AnswerDistribution
    #: the paper's N_ws: 0 for a simple plan (closed form, no walk
    #: iterated); a chain plan reports its expanded intermediates here
    walk_iterations: int
    #: candidate answers inside the sampled scope (zero-mass included)
    num_candidates: int


#: the attributes a plan keeps its pi_A memos and their lock under
_SAMPLES_ATTR = "_s1_samples"
_LOCK_ATTR = "_s1_lock"


class PlanSampler:
    """S1 of plans (Algorithm 2, lines 1-4): scope, closed-form Eq. 5/6
    stationary distribution and Theorem-1 answer restriction, all three
    from the batched stage kernel under the semantic or the CNARW weights
    (only the Node2Vec ablation walks a per-source scope).

    A plan is keyed on what its row reads, not on what S1 reads, so one
    plan serves samplers that build different pi_A's: each plan keeps one
    pi_A per *S1 key* — the sampler kind, the Eq. 5 smoothing, the chain
    cut and, for the Node2Vec walk alone, the seed.  Samplers that agree
    on those read the same pi_A, whichever built it."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        config: PaperConfig | None = None,
    ) -> None:
        self._kg = kg
        self._space = space
        self.config = config = config or PaperConfig()
        #: this sampler's pi_A among a plan's memos: every facet S1 reads
        #: beyond the plan key
        self._s1_key: tuple = (
            config.sampler,
            config.self_loop_weight,
            config.max_intermediates,
        )
        if config.sampler is SamplerKind.NODE2VEC:
            self._s1_key += (config.seed,)
        #: calls of the batched S1 stage kernel and the walks they settled
        self.stage_batches = 0
        self.stage_sources = 0

    def sample(self, plan: QueryPlan) -> PlanSample:
        """``plan``'s S1 artefacts under this sampler's S1 key, built on
        first use under the plan's own lock: a second caller waits for the
        first and reads the same object."""
        memo = vars(plan)
        # dict.setdefault is atomic: racing callers share one dict, one lock
        samples = memo.setdefault(_SAMPLES_ATTR, {})
        sample = samples.get(self._s1_key)
        if sample is None:
            with memo.setdefault(_LOCK_ATTR, threading.Lock()):
                sample = samples.get(self._s1_key)
                if sample is None:
                    sample = self.run(plan.component, plan.source)[0]
                    samples[self._s1_key] = sample
        return sample

    def adopt(self, plan: QueryPlan, sample: PlanSample) -> None:
        """Memoise ``sample`` as this sampler's S1 of ``plan``, a plan no
        one has read yet (the figures' planner runs S1 as it builds)."""
        vars(plan).setdefault(_SAMPLES_ATTR, {})[self._s1_key] = sample

    def stage(
        self,
        sources: np.ndarray,
        predicate: str,
        node_types: frozenset[str],
        hop: int = 0,
    ) -> list[Stage | SamplingError]:
        """The closed-form S1 stage of every semantic or CNARW build, one
        kernel call: a simple plan or a chain's first hop as a batch of
        one, a later chain hop with all its kept routes."""
        config = self.config
        if config.sampler is SamplerKind.CNARW:
            # the Fig. 5(a) ablation ignores predicates, so it must not ask
            # the embedding to cover the scope's edges
            weigh = partial(cnarw_entry_weights, self._kg)
        else:
            weigh = partial(similarity_entry_weights, self._kg, self._space, predicate)
        self.stage_batches += 1
        self.stage_sources += len(sources)
        with Clock("s1_stage", hop=hop, sources=len(sources)) as span:
            stages = stage_distributions(
                self._kg,
                sources,
                node_types,
                weigh,
                n_bound=config.n_bound,
                self_loop_weight=config.self_loop_weight,
            )
            if span is not None:
                # scope nodes over the sources that have a stage
                span.annotate(
                    reached=sum(
                        len(stage.nodes)
                        for stage in stages
                        if not isinstance(stage, SamplingError)
                    )
                )
        return stages

    def first_stage(
        self, source: int, predicate: str, node_types: frozenset[str]
    ) -> Stage:
        """The one-source stage of a plan's first hop."""
        (stage,) = self.stage(np.asarray([source]), predicate, node_types)
        if isinstance(stage, SamplingError):
            raise stage
        return stage

    def run(
        self, component: PathQuery, source: int
    ) -> tuple[PlanSample, tuple[np.ndarray, np.ndarray]]:
        """S1 of ``component``: its :class:`PlanSample` and the first
        stage's ``(nodes, probabilities)`` (the figures' r-path search
        walks them).  The Node2Vec walk has no chain composition: a chain
        component under it is a :class:`~repro.errors.QueryError`, raised
        before anything is walked."""
        config = self.config
        predicate, target_types = component.hops[0]
        if config.sampler is SamplerKind.NODE2VEC:
            if not component.is_simple:
                raise QueryError(
                    f"the {config.sampler.value} sampler has no chain walk: "
                    f"the chain component from {component.specific_name!r} "
                    "needs the semantic or the cnarw sampler"
                )
            # The Fig. 5(a) Node2Vec ablation is a second-order walk: no
            # closed form, so it simulates the walk over a per-source scope.
            scope = build_scope(self._kg, source, config.n_bound, target_types)
            if scope.num_candidates == 0:
                raise SamplingError(
                    f"no candidate of types {sorted(target_types)} within "
                    f"{config.n_bound} hops of {component.specific_name!r}"
                )
            probabilities = node2vec_visit_distribution(
                self._kg, scope, seed=derive_seed(config.seed, "node2vec", source)
            )
            distribution = restrict_to_answers(scope, probabilities)
            sample = PlanSample(distribution, 0, scope.num_candidates)
            return sample, (scope.nodes, probabilities)
        first = self.first_stage(source, predicate, target_types)
        if component.is_simple:
            # the paper's N_ws is 0: closed form, no walk iterated
            sample = PlanSample(first.distribution, 0, first.num_candidates)
        else:
            # the plan keeps the composed marginal only
            distribution, expanded = ChainSampler(
                self._kg, self.stage, max_intermediates=config.max_intermediates
            ).build(component, first.distribution)
            sample = PlanSample(distribution, expanded, distribution.support_size)
        return sample, (first.nodes, first.probabilities)


@dataclass(kw_only=True)
class _SampledState(_QueryState):
    """A sampled query's state: its draws beside the verdicts."""

    #: the joint pi_A the draws are taken from, in support-index order
    joint: AnswerDistribution
    #: draws from ``joint``
    collector: AnswerCollector
    #: per-little-sample arrays of support indices
    little_samples: list[np.ndarray]
    desired_n: int
    #: per-support-entry verdicts, filled as entries are validated
    support_known: np.ndarray
    support_correct: np.ndarray
    support_value: np.ndarray
    #: per-support group keys (NaN = not grouped / invalid), built lazily
    support_group: np.ndarray | None = None
    support_group_known: np.ndarray | None = None
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
        appending (:meth:`SampledExecutor._draw` is their only writer), so
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


def _within_cap(counts: list[int], room: int) -> list[int]:
    """``counts`` unchanged if they fit in ``room`` draws, else cut to sum
    to ``room``: each little sample keeps its proportional floor, and the
    remainder (fewer than the samples that asked for any) goes one draw
    each to the first of those, so none gets more than it asked for."""
    total = sum(counts)
    if total <= room:
        return counts
    shares = [count * room // total for count in counts]
    asked = [position for position, count in enumerate(counts) if count > 0]
    for position in asked[: room - sum(shares)]:
        shares[position] += 1
    return shares


class SampledExecutor(QueryExecutor):
    """An executor that always samples, and never takes the census:
    what :func:`repro.bench.harness.figure_engine` and
    :func:`repro.bench.harness.sampled_engine` run."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        config: PaperConfig,
        planner: QueryPlanner,
    ) -> None:
        super().__init__(kg, space, config, planner)
        #: S1 of the plans this executor draws from (a plan another
        #: sampler already ran it for keeps that run's pi_A)
        self.sampler = PlanSampler(kg, space, config)

    def register_metrics(self, registry) -> None:
        """The census's instruments, plus a sampled run's validation batch
        sizes and how each of its sigmas was taken."""
        super().register_metrics(registry)
        execution = registry.scope("exec")
        self.obs_metrics.update(
            validate_batch_pending=execution.histogram(
                "validate_batch_pending",
                "Batch sizes handed to the S2 validation kernels",
                buckets=(1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                         250.0, 500.0, 1000.0),
            ),
            sigma_closed_form=execution.counter(
                "sigma_closed_form",
                "BLB bag and GROUP-BY group sigmas taken in closed form: "
                "a mean-shaped estimator, COUNT/SUM under SAMPLE (S3)",
            ),
            sigma_bootstrap=execution.counter(
                "sigma_bootstrap",
                "BLB bag and GROUP-BY group sigmas that paid for a "
                "bootstrap index stream: AVG and PAPER (S3)",
            ),
        )

    # ------------------------------------------------------------------
    # Initialisation: plans, the joint pi_A, the first draws
    # ------------------------------------------------------------------
    @staticmethod
    def _joint_distribution(
        distributions: list[AnswerDistribution],
    ) -> AnswerDistribution:
        """Decomposition-assembly of two or more components' pi_A:
        intersect supports, multiply weights.

        The joint support is the sorted intersection of the components'
        answers; an answer's weight is the product of its per-component
        probabilities, multiplied up in component order, renormalised.
        """
        answers = distributions[0].answers
        for distribution in distributions[1:]:
            answers = np.intersect1d(answers, distribution.answers)
        if len(answers) == 0:
            raise QueryError(_EMPTY_JOINT)
        weights = np.ones(len(answers), dtype=np.float64)
        for distribution in distributions:
            # ``answers`` is sorted and contained in every support, so the
            # positions come back aligned with it
            _, _, where = np.intersect1d(
                answers, distribution.answers, return_indices=True
            )
            weights *= distribution.probabilities[where]
        return AnswerDistribution(answers=answers, probabilities=weights / weights.sum())

    def _start(
        self,
        aggregate_query: AggregateQuery,
        plans: list[QueryPlan],
        structure_version: int,
        timers: dict[str, float],
        seed: int,
        confidence_level: float,
    ) -> _SampledState:
        """Draw the initial BLB little samples from the joint pi_A — each
        plan runs S1 on this, its first draw — on a generator derived from
        ``seed``."""
        config = self.config
        with Clock(None, timers, STAGE_SAMPLING):
            samples = [self.sampler.sample(plan) for plan in plans]
            joint = (
                samples[0].distribution
                if len(samples) == 1
                else self._joint_distribution(
                    [sample.distribution for sample in samples]
                )
            )
            num_candidates = max(sample.num_candidates for sample in samples)
            if aggregate_query.function.has_guarantee:
                ratio = config.sample_ratio
            else:
                ratio = EXTREME_SAMPLE_RATIO
            desired_n = max(
                config.min_initial_sample,
                int(math.ceil(ratio * num_candidates)),
            )
            size = joint.support_size
            state = _SampledState(
                aggregate_query=aggregate_query,
                components=plans,
                joint=joint,
                collector=AnswerCollector(
                    joint, seed=ensure_rng(derive_seed(seed, "engine"))
                ),
                little_samples=[
                    np.empty(0, dtype=np.int64)
                    for _ in range(BLB.num_little_samples)
                ],
                desired_n=desired_n,
                num_candidates=num_candidates,
                walk_iterations=max(sample.walk_iterations for sample in samples),
                confidence_level=confidence_level,
                structure_version=structure_version,
                support_known=np.zeros(size, dtype=bool),
                support_correct=np.zeros(size, dtype=bool),
                support_value=np.zeros(size, dtype=np.float64),
                timers=timers,
            )
            little_size = BLB.little_sample_size(desired_n)
            self._draw(state, [little_size] * len(state.little_samples))
        return state

    def _ensure_validated(self, state: _SampledState) -> None:
        """Validate every support entry present in the current draws, in
        one pass: one ``validate_batch`` span of the validation bucket."""
        drawn = state.distinct_support_indices()
        pending = drawn[~state.support_known[drawn]]
        size = len(pending)
        if not size:
            return
        if self.fault_hook is not None:
            self.fault_hook.fire("validate_batch", pending=size)
        if self.obs_metrics is not None:
            self.obs_metrics["validate_batch_pending"].observe(float(size))
        with Clock("validate_batch", state.timers, STAGE_VALIDATION, pending=size):
            self._validate_entries(state, pending)

    def _validate_entries(self, state: _SampledState, pending: np.ndarray) -> None:
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

    def _batch_similarities(
        self, state: _SampledState, entries: np.ndarray
    ) -> np.ndarray:
        """Which joint support ``entries`` every component keeps at
        ``>= tau``, as a mask over ``entries``."""
        answers = state.joint.answers[entries]
        keeps = np.ones(len(entries), dtype=bool)
        for plan in state.components:
            keeps &= plan.validator.validate_batch(answers).similarity >= self.config.tau
        return keeps

    def _group_keys(self, state: _SampledState, entries: np.ndarray) -> np.ndarray:
        """Per-support group keys (NaN where ungrouped), built lazily for
        ``entries``, which must be validated."""
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
        pending = entries[~known[entries]]
        known[pending] = True
        # only correct entries are keyed, and those went through _screen
        pending = pending[state.support_correct[pending]]
        state.support_group[pending] = _keys_of(
            group_by,
            self._kg.attribute_column(group_by.attribute)[state.joint.answers[pending]],
        )
        return state.support_group

    @staticmethod
    def _combined_sample(state: _SampledState) -> EstimationSample:
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
    # The round lifecycle (S2 + S3): step (growing first) / finalise
    # ------------------------------------------------------------------
    def grow(
        self, state: _SampledState, last: RoundTrace, error_bound: float
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

        No growth takes the draws past ``max_sample_size``: a top-up the
        cap cuts is shared out so the draws land on the cap exactly, and
        :meth:`step` then stops the run on ``sample_cap``.

        Growth is the only RNG in a round: :meth:`step` runs it first on
        every round of a run but the first, then validates and estimates
        the grown sample.
        """
        with Clock(None, state.timers, STAGE_SAMPLING):
            state.desired_n, counts = self._growth(state, last, error_bound)
            room = self.config.max_sample_size - state.total_draws
            self._draw(state, _within_cap(counts, room))

    def _growth(
        self, state: _SampledState, last: RoundTrace, error_bound: float
    ) -> tuple[int, list[int]]:
        """``(desired_n, draws per little sample)`` of the next growth."""
        config = self.config
        sizes = [len(sample) for sample in state.little_samples]
        kind = kind_for(state.aggregate_query)
        if kind == KIND_EXTREME:
            return state.desired_n, sizes
        if config.delta_strategy is not DeltaStrategy.ERROR_BASED:
            per_sample = max(1, FIXED_DELTA // len(sizes))
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
            growth = min(ratio * ratio, MAX_GROWTH_FACTOR)
            growth = max(growth, 1.1)  # always make visible progress
        desired_n = int(math.ceil(state.desired_n * growth))
        little_size = BLB.little_sample_size(desired_n)
        return desired_n, [max(0, little_size - size) for size in sizes]

    def _draw(self, state: _SampledState, counts: list[int]) -> None:
        """Append ``counts[i]`` draws to little sample ``i``, in order."""
        for position, count in enumerate(counts):
            if count > 0:
                state.little_samples[position] = np.concatenate(
                    [
                        state.little_samples[position],
                        state.collector.collect_indices(count),
                    ]
                )

    def step(
        self,
        state: _SampledState,
        error_bound: float,
        *,
        run_round: int = 1,
    ) -> StepOutcome:
        """Run round ``run_round`` of a run — grown first (:meth:`grow`)
        unless it is the run's first — append its trace and say why the
        run ends, if it does.

        What the round estimates depends on the kind — see
        :meth:`_estimate_guaranteed`, :meth:`_estimate_worst_group` and
        :meth:`_estimate_extremum`.  The first reason that holds ends the
        run: the bound was met, the draws reached ``max_sample_size``, or
        the run spent its budget — ``config.extreme_rounds`` rounds for
        MAX/MIN, ``config.max_rounds`` for every other kind.
        """
        step_started = time.perf_counter()
        if run_round > 1:
            self.grow(state, state.rounds[-1], error_bound)
        kind = kind_for(state.aggregate_query)
        self._ensure_validated(state)
        if kind == KIND_GROUPED:
            round_estimate = self._estimate_worst_group(state, error_bound)
        elif kind == KIND_EXTREME:
            round_estimate = self._estimate_extremum(state)
        else:
            round_estimate = self._estimate_guaranteed(state, error_bound)
        trace = self._record_round(state, round_estimate, step_started)
        config = self.config
        budget = config.extreme_rounds if kind == KIND_EXTREME else config.max_rounds
        if trace.satisfied:
            stop_reason = STOP_BOUND_MET
        elif state.total_draws >= config.max_sample_size:
            stop_reason = STOP_SAMPLE_CAP
        elif run_round >= budget:
            stop_reason = STOP_ROUND_BUDGET
        else:
            stop_reason = None
        return StepOutcome(trace, trace.satisfied, stop_reason)

    def finalise(
        self, state: _SampledState, outcome: StepOutcome
    ) -> ApproximateResult | GroupedResult:
        """Package the state for the reason its last step's ``outcome``
        names: GROUP-BY the latest per-group estimates, everything else the
        last round's estimate and MoE, which a MAX/MIN query under
        ``ExtremeMethod.EVT`` first extrapolates past the sample extremum.
        """
        config = self.config
        estimate = None
        if (
            kind_for(state.aggregate_query) == KIND_EXTREME
            and config.extreme_method is ExtremeMethod.EVT
            and state.rounds[-1].correct_draws
        ):
            # The future-work extension: extrapolate past the sample
            # extremum with a POT/GPD tail fit (see estimation.extreme).
            with Clock(None, state.timers, STAGE_GUARANTEE):
                combined = self._combined_sample(state)
                evt = estimate_extreme_evt(
                    combined,
                    state.aggregate_query.function,
                    exceedance_quantile=config.evt_exceedance_quantile,
                    confidence_level=state.confidence_level,
                    bootstrap_rounds=EVT_BOOTSTRAP_ROUNDS,
                    seed=derive_seed(config.seed, "evt"),
                )
            estimate = (evt.value, evt.moe)
        return self._package(
            state,
            outcome.satisfied,
            outcome.stop_reason,
            estimate=estimate,
            distinct_answers=int(len(state.distinct_support_indices())),
        )

    # ------------------------------------------------------------------
    # What one round estimates, per kind
    # ------------------------------------------------------------------
    def _contribution_columns(
        self, state: _SampledState, draws: np.ndarray
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
        state: _SampledState,
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
                num_resamples=BLB.num_resamples,
                resample_size=len(numerators),
                seed=seed,
            )
        except EstimationError:
            return float("inf")

    def _estimate_guaranteed(
        self, state: _SampledState, error_bound: float
    ) -> tuple[float, float | None, int, bool]:
        """Eq. 7-9 estimate, BLB interval and the Theorem-2 check."""
        config = self.config
        round_index = len(state.rounds) + 1
        point_estimate, moe = 0.0, float("inf")
        with Clock(None, state.timers, STAGE_ESTIMATION):
            numerators, denominators, correct = self._contribution_columns(
                state, np.concatenate(state.little_samples)
            )
            correct_draws = int(np.count_nonzero(correct))
            if correct_draws > 0:
                point_estimate = self._column_estimate(
                    numerators, denominators, correct
                )
        with Clock(None, state.timers, STAGE_GUARANTEE):
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
                correct_draws >= MIN_CORRECT_FOR_TERMINATION
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
        self, state: _SampledState, error_bound: float
    ) -> tuple[float, float | None, int, bool]:
        """Re-estimate every observed group; report the one gating the run
        (:meth:`_group_round`), satisfied when every sufficiently-drawn
        group met the bound (and there is one)."""
        with Clock(None, state.timers, STAGE_ESTIMATION):
            keys = self._group_keys(state, state.distinct_support_indices())
            draws = np.concatenate(state.little_samples)
            numerators, denominators, _correct = self._contribution_columns(
                state, draws
            )
        with Clock(None, state.timers, STAGE_GUARANTEE):
            groups, satisfied = self._estimate_groups(
                state, numerators, denominators, keys[draws], error_bound
            )
        return self._group_round(state, groups, satisfied)

    def _estimate_extremum(
        self, state: _SampledState
    ) -> tuple[float, None, int, bool]:
        """The sample extremum: no interval (§IV-B1 remarks), never
        satisfied — the round budget is the only stop condition besides
        sample exhaustion."""
        function = state.aggregate_query.function
        with Clock(None, state.timers, STAGE_ESTIMATION):
            combined = self._combined_sample(state)
            if combined.correct_draws:
                value = estimate_extreme(combined, function)
            elif state.rounds:
                value = state.rounds[-1].estimate
            else:
                value = 0.0
        return value, None, combined.correct_draws, False

    def _estimate_groups(
        self,
        state: _SampledState,
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
        state: _SampledState,
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
        state: _SampledState,
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
