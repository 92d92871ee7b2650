"""Termination test (Theorem 2) and its MoE target.

Theorem 2: if the MoE satisfies ``eps <= V_hat * eb / (1 + eb)``, the
relative error of the approximate result is bounded by ``eb`` with
probability ``1 - alpha``.  When the test fails, Eq. 12 sizes the top-up
sample against the same target —

    |dS_A| = |S_A| * ((eps / target)^(2m) - 1)

— in :meth:`repro.core.executor.QueryExecutor._growth`.
"""

from __future__ import annotations

from repro.errors import EstimationError


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
