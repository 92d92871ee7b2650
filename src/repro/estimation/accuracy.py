"""Termination test (Theorem 2) and its MoE target.

Theorem 2: if the MoE satisfies ``eps <= V_hat * eb / (1 + eb)``, the
relative error of the approximate result is bounded by ``eb`` with
probability ``1 - alpha``.  When the test fails, Eq. 12 sizes the top-up
sample against the same target —

    |dS_A| = |S_A| * ((eps / target)^(2m) - 1)

— in :meth:`repro.bench.sampled.SampledExecutor._growth`, with the BLB
sizes of :class:`BlbConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EstimationError


@dataclass(frozen=True)
class BlbConfig:
    """BLB hyper-parameters; defaults follow the paper (§IV-C remarks)."""

    num_little_samples: int = 3  # t >= 3
    scale_exponent: float = 0.6  # m = 0.6
    num_resamples: int = 50  # B >= 50

    def __post_init__(self) -> None:
        if self.num_little_samples < 1:
            raise EstimationError("BLB needs at least one little sample")
        if not 0.5 <= self.scale_exponent <= 1.0:
            raise EstimationError("the BLB scale exponent m must be in [0.5, 1]")
        if self.num_resamples < 2:
            raise EstimationError("the bootstrap needs at least two resamples")

    def little_sample_size(self, desired_sample_size: int) -> int:
        """|S_i| = N^m, at least 1."""
        if desired_sample_size < 1:
            raise EstimationError("desired sample size must be positive")
        return max(1, int(round(desired_sample_size**self.scale_exponent)))


def moe_target(estimate: float, error_bound: float) -> float:
    """The Theorem-2 threshold ``V_hat * eb / (1 + eb)``.

    A non-positive estimate has no meaningful relative-error target; the
    caller should keep sampling, so the target collapses to zero.
    """
    if error_bound <= 0.0:
        raise EstimationError(f"error bound must be positive, got {error_bound}")
    if estimate <= 0.0:
        return 0.0
    return estimate * error_bound / (1.0 + error_bound)


def satisfies_error_bound(moe: float, estimate: float, error_bound: float) -> bool:
    """Theorem 2's termination condition."""
    target = moe_target(estimate, error_bound)
    return target > 0.0 and moe <= target
