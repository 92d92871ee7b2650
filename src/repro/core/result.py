"""Result containers: per-round traces, final results, grouped results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.estimation.confidence import ConfidenceInterval
from repro.query.aggregate import AggregateFunction


#: why a run stopped (``stop_reason`` on a finalised result): its last round
#: met the stop condition; the sample reached ``max_sample_size``; or the
#: round budget was spent with neither
STOP_BOUND_MET = "bound_met"
STOP_SAMPLE_CAP = "sample_cap"
STOP_ROUND_BUDGET = "round_budget"


@dataclass(frozen=True)
class RoundTrace:
    """One iteration of the sampling-estimation loop (Table IX rows)."""

    round_index: int
    total_draws: int
    correct_draws: int
    estimate: float
    moe: float
    satisfied: bool
    #: wall-clock seconds this round took (growth + validation + estimation
    #: + guarantee); lets serving clients attribute latency per round
    seconds: float = 0.0
    #: False for rounds without a Theorem-2 confidence interval (MAX/MIN
    #: estimator rounds, §IV-B1 remarks); their ``moe`` is the 0.0
    #: sentinel, never NaN, so traces stay renderable and JSON-safe
    guaranteed: bool = True

    def relative_error(self, ground_truth: float) -> float:
        """|V_hat - V| / V; infinite when the truth is zero but V_hat isn't."""
        if ground_truth == 0.0:
            return 0.0 if self.estimate == 0.0 else float("inf")
        return abs(self.estimate - ground_truth) / abs(ground_truth)


@dataclass(frozen=True)
class ApproximateResult:
    """The engine's answer: ``V_hat ± eps`` plus the full refinement trace."""

    function: AggregateFunction
    interval: ConfidenceInterval
    converged: bool
    rounds: tuple[RoundTrace, ...]
    total_draws: int
    distinct_answers: int
    correct_draws: int
    #: milliseconds per stage: sampling / estimation / guarantee (Table XII)
    stage_ms: Mapping[str, float] = field(default_factory=dict)
    #: power-iteration steps of S1 (the paper's N_ws); 0 = closed form, as
    #: in every semantic simple plan; chain plans: expanded intermediates
    walk_iterations: int = 0
    #: candidate answer count |A| in the sampling scope
    num_candidates: int = 0
    #: one of the ``STOP_*`` reasons; ``None`` on a per-group estimate
    #: inside a :class:`GroupedResult`, which is not a run of its own
    stop_reason: str | None = None

    @property
    def value(self) -> float:
        """The point estimate V-hat."""
        return self.interval.estimate

    @property
    def moe(self) -> float:
        """The margin of error (CI half-width)."""
        return self.interval.moe

    @property
    def num_rounds(self) -> int:
        """Number of sampling-estimation rounds run."""
        return len(self.rounds)

    @property
    def total_ms(self) -> float:
        """Total wall time across stages, in milliseconds."""
        return float(sum(self.stage_ms.values()))

    def relative_error(self, ground_truth: float) -> float:
        """|V_hat - V| / V against any ground truth (tau-GT or HA-GT)."""
        if ground_truth == 0.0:
            return 0.0 if self.value == 0.0 else float("inf")
        return abs(self.value - ground_truth) / abs(ground_truth)

    def describe(self) -> str:
        """One-line human-readable rendering of the result."""
        status = "converged" if self.converged else "round-budget exhausted"
        return (
            f"{self.function.value} ≈ {self.value:,.2f} ± {self.moe:,.2f} "
            f"({self.interval.confidence_level:.0%} CI, {self.num_rounds} rounds, "
            f"{self.total_draws} draws, {status})"
        )


@dataclass(frozen=True)
class GroupedResult:
    """Per-group approximate results for GROUP-BY queries (§V-A)."""

    function: AggregateFunction
    groups: Mapping[float, ApproximateResult]
    labels: Mapping[float, str]
    converged: bool
    total_draws: int
    stage_ms: Mapping[str, float] = field(default_factory=dict)
    #: anytime trace: one entry per grow-validate-estimate round, carrying
    #: the worst group's estimate/MoE (the group gating convergence)
    rounds: tuple[RoundTrace, ...] = ()
    #: one of the ``STOP_*`` reasons
    stop_reason: str | None = None

    @property
    def num_groups(self) -> int:
        """Number of groups with at least one correct draw."""
        return len(self.groups)

    @property
    def num_rounds(self) -> int:
        """Number of grow-validate-estimate rounds run."""
        return len(self.rounds)

    @property
    def total_ms(self) -> float:
        """Total wall time across stages, in milliseconds."""
        return float(sum(self.stage_ms.values()))

    def group(self, key: float) -> ApproximateResult:
        """The per-group result keyed by ``key``."""
        return self.groups[key]

    def describe(self) -> str:
        """One-line human-readable rendering of the result."""
        lines = [f"{self.function.value} by group ({self.num_groups} groups):"]
        for key in sorted(self.groups):
            result = self.groups[key]
            lines.append(
                f"  {self.labels.get(key, key)}: "
                f"{result.value:,.2f} ± {result.moe:,.2f}"
            )
        return "\n".join(lines)
