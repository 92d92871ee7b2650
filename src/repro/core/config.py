"""Engine configuration.

Defaults match the paper's §VII-A parameter block: error bound eb = 1%,
confidence level 95%, repeat factor r = 3, desired sample ratio
lambda = 0.3, n = 3 for the n-bounded subgraph, BLB with t = 3, m = 0.6,
B = 50, and a 0.001 self-loop weight on the mapping node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.errors import QueryError
from repro.estimation.bootstrap import BlbConfig
from repro.estimation.estimators import Normalization


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
class EngineConfig:
    """All knobs of Algorithm 2; see the paper sections noted per field."""

    # Accuracy contract (Problem statement, Eq. 1)
    error_bound: float = 0.01
    confidence_level: float = 0.95
    # Correctness (Definition 4, §IV-B2)
    tau: float = 0.85
    repeat_factor: int = 3
    validate_correctness: bool = True  # Fig. 5(b) ablation switch
    # Scope & walk (§IV-A)
    n_bound: int = 3
    self_loop_weight: float = 0.001
    similarity_floor: float = 1e-3
    sampler: SamplerKind = SamplerKind.SEMANTIC
    # Sample sizing (§IV-C)
    sample_ratio: float = 0.3  # lambda
    min_initial_sample: int = 50
    max_rounds: int = 10  # the paper's N_e <= 10
    delta_strategy: DeltaStrategy = DeltaStrategy.ERROR_BASED
    fixed_delta: int = 50
    max_sample_size: int = 100_000
    max_growth_factor: float = 16.0  # per-round cap on N's Eq. 12 growth
    # Termination guards: a CI from a tiny, homogeneous sample can be
    # degenerately narrow (sigma ~ 0 before the walk's low-probability
    # answers have been seen); Theorem 2 is only trusted once the loop has
    # run min_rounds and validated min_correct_for_termination draws.
    min_rounds: int = 2
    min_correct_for_termination: int = 30
    # BLB (§IV-C)
    blb: BlbConfig = BlbConfig()
    # Estimators (§IV-B1; DESIGN.md §4.1 discusses the normalisation)
    normalization: Normalization = Normalization.SAMPLE
    # Extreme functions: fixed 5%-of-candidates sample, a few rounds (§VII-B)
    extreme_sample_ratio: float = 0.05
    extreme_rounds: int = 4
    extreme_method: ExtremeMethod = ExtremeMethod.SAMPLE
    #: POT threshold quantile for ExtremeMethod.EVT
    evt_exceedance_quantile: float = 0.75
    evt_bootstrap_rounds: int = 200
    # Chain queries (§V-B)
    max_intermediates: int = 64
    # Validation search budget
    validation_expansions: int = 120
    # GROUP-BY: groups smaller than this many observed draws do not gate
    # termination (their CIs are reported as-is)
    min_group_draws: int = 8
    # Determinism
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.error_bound < 1.0:
            raise QueryError("error_bound must be in (0, 1)")
        if not 0.0 < self.confidence_level < 1.0:
            raise QueryError("confidence_level must be in (0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise QueryError("tau must be in (0, 1]")
        if self.repeat_factor < 1:
            raise QueryError("repeat_factor must be >= 1")
        if self.n_bound < 1:
            raise QueryError("n_bound must be >= 1")
        if not 0.0 < self.sample_ratio <= 1.0:
            raise QueryError("sample_ratio must be in (0, 1]")
        if self.min_initial_sample < 1:
            raise QueryError("min_initial_sample must be >= 1")
        if self.max_rounds < 1:
            raise QueryError("max_rounds must be >= 1")
        if self.fixed_delta < 1:
            raise QueryError("fixed_delta must be >= 1")
        if self.self_loop_weight <= 0:
            raise QueryError("self_loop_weight must be positive (Lemma 2)")
        if not 0.0 < self.extreme_sample_ratio <= 1.0:
            raise QueryError("extreme_sample_ratio must be in (0, 1]")
        if self.extreme_rounds < 1:
            raise QueryError("extreme_rounds must be >= 1")
        if not 0.0 < self.evt_exceedance_quantile < 1.0:
            raise QueryError("evt_exceedance_quantile must be in (0, 1)")
        if self.evt_bootstrap_rounds < 1:
            raise QueryError("evt_bootstrap_rounds must be >= 1")
        if self.max_intermediates < 1:
            raise QueryError("max_intermediates must be >= 1")
        if self.max_growth_factor <= 1.0:
            raise QueryError("max_growth_factor must exceed 1")
        if self.min_rounds < 1:
            raise QueryError("min_rounds must be >= 1")
        if self.min_correct_for_termination < 1:
            raise QueryError("min_correct_for_termination must be >= 1")

    def with_(self, **changes: object) -> "EngineConfig":
        """A copy with ``changes`` applied (frozen-dataclass convenience)."""
        return replace(self, **changes)  # type: ignore[arg-type]
