"""Estimators and accuracy machinery (paper §IV-B, §IV-C).

* :mod:`repro.estimation.estimators` — Eq. 7-9: unbiased COUNT/SUM and the
  consistent ratio AVG over the non-uniform sample, plus guarantee-free
  MAX/MIN, and the census's exact aggregate.
* :mod:`repro.estimation.confidence` — CLT confidence intervals (Eq. 10-11).
* :mod:`repro.estimation.accuracy` — Theorem 2 termination, its MoE
  target and the BLB sizes (the Eq. 12 growth against it is the sampled
  executor's).
* :mod:`repro.estimation.bootstrap` — the Bag of Little Bootstraps used to
  estimate the estimator's sigma, over one blocked resampling kernel, and
  the normal quantile.
* :mod:`repro.estimation.extreme` — the paper's named future-work item:
  EVT (peaks-over-threshold / GPD) estimation for MAX and MIN.

The package re-exports nothing: a census imports the first two, and
only a sampled run loads the Theorem-2 test, the bootstrap (and scipy)
or the EVT fit.
"""
