"""CLT confidence intervals (paper Eq. 10-11).

The estimators are means of i.i.d. inverse-probability-weighted terms, so
by the Central Limit Theorem the point estimate is asymptotically normal;
the margin of error is ``z_(alpha/2) * sigma_hat`` where sigma_hat comes
from the (bag-of-little-)bootstrap (and ``z_(alpha/2)`` from
:func:`repro.estimation.bootstrap.normal_critical_value`: a census needs
neither).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EstimationError


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
