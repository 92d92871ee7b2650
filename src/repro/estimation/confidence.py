"""CLT confidence intervals (paper Eq. 10-11).

The estimators are means of i.i.d. inverse-probability-weighted terms, so
by the Central Limit Theorem the point estimate is asymptotically normal;
the margin of error is ``z_(alpha/2) * sigma_hat`` where sigma_hat comes
from the (bag-of-little-)bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from scipy.special import ndtri

from repro.errors import EstimationError


def normal_critical_value(confidence_level: float) -> float:
    """``z_(alpha/2)`` for a two-sided interval at ``confidence_level``.

    >>> round(normal_critical_value(0.95), 2)
    1.96
    """
    if not 0.0 < confidence_level < 1.0:
        raise EstimationError(
            f"confidence level must be in (0, 1), got {confidence_level}"
        )
    return _critical_value(confidence_level)


@lru_cache(maxsize=64)
def _critical_value(confidence_level: float) -> float:
    """The normal quantile, once per level instead of 2+ times per round.

    ``ndtri`` is what ``scipy.stats.norm.ppf`` evaluates — the same float —
    without importing ``scipy.stats`` (over a second, paid by every CLI
    call and worker spawn).
    """
    alpha = 1.0 - confidence_level
    return float(ndtri(1.0 - alpha / 2.0))


@dataclass(frozen=True)
class ConfidenceInterval:
    """``estimate ± moe`` at ``confidence_level`` (Table I's CI)."""

    estimate: float
    moe: float
    confidence_level: float

    def __post_init__(self) -> None:
        if self.moe < 0.0:
            raise EstimationError("margin of error cannot be negative")
        if not 0.0 < self.confidence_level < 1.0:
            raise EstimationError("confidence level must be in (0, 1)")

    @property
    def lower(self) -> float:
        """Lower endpoint: estimate - moe."""
        return self.estimate - self.moe

    @property
    def upper(self) -> float:
        """Upper endpoint: estimate + moe."""
        return self.estimate + self.moe

    @property
    def width(self) -> float:
        """Full interval width: 2 * moe."""
        return 2.0 * self.moe

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    def relative_moe(self) -> float:
        """MoE relative to the estimate (∞ for a zero estimate)."""
        if self.estimate == 0.0:
            return float("inf")
        return self.moe / abs(self.estimate)

    @staticmethod
    def from_sigma(
        estimate: float, sigma: float, confidence_level: float
    ) -> "ConfidenceInterval":
        """Eq. 10: ``moe = z_(alpha/2) * sigma``."""
        if sigma < 0.0:
            raise EstimationError("sigma cannot be negative")
        moe = normal_critical_value(confidence_level) * sigma
        return ConfidenceInterval(
            estimate=estimate, moe=moe, confidence_level=confidence_level
        )
