"""Estimators and accuracy machinery (paper §IV-B, §IV-C).

* :mod:`repro.estimation.estimators` — Eq. 7-9: unbiased COUNT/SUM and the
  consistent ratio AVG over the non-uniform sample, plus guarantee-free
  MAX/MIN.
* :mod:`repro.estimation.bootstrap` — the Bag of Little Bootstraps used to
  estimate the estimator's sigma, over one blocked resampling kernel.
* :mod:`repro.estimation.confidence` — CLT confidence intervals (Eq. 10-11).
* :mod:`repro.estimation.accuracy` — Theorem 2 termination and the Eq. 12
  error-based sample-size configuration.
* :mod:`repro.estimation.extreme` — the paper's named future-work item:
  EVT (peaks-over-threshold / GPD) estimation for MAX and MIN.
"""

from repro.estimation.accuracy import (
    additional_sample_size,
    moe_target,
    satisfies_error_bound,
)
from repro.estimation.bootstrap import BlbConfig, bootstrap_sigma
from repro.estimation.confidence import ConfidenceInterval, normal_critical_value
from repro.estimation.estimators import (
    EstimationSample,
    Normalization,
    estimate,
    estimate_avg,
    estimate_count,
    estimate_extreme,
    estimate_sum,
)
from repro.estimation.extreme import (
    EvtEstimate,
    GpdFit,
    estimate_extreme_evt,
    fit_gpd_pwm,
)

__all__ = [
    "EstimationSample",
    "Normalization",
    "estimate",
    "estimate_count",
    "estimate_sum",
    "estimate_avg",
    "estimate_extreme",
    "EvtEstimate",
    "GpdFit",
    "estimate_extreme_evt",
    "fit_gpd_pwm",
    "BlbConfig",
    "bootstrap_sigma",
    "ConfidenceInterval",
    "normal_critical_value",
    "satisfies_error_bound",
    "moe_target",
    "additional_sample_size",
]
