"""Bootstrap and Bag of Little Bootstraps (paper §IV-C, Eq. 11).

The paper estimates sigma_hat of the point estimator with BLB (Kleiner et
al., 2014): the sample S_A is the union of ``t`` little samples; each
little sample is bootstrapped ``B`` times (resample size |S_A|, per the
paper's text), giving a per-little-sample MoE; the final MoE is their mean.

One implementation per formula, on per-draw contribution columns:
:func:`column_mean_sigma` (the closed form of a mean-shaped estimator),
:func:`column_bootstrap_sigma` over the blocked :func:`_resampled_sums`
kernel (no ``(B, |S_A|)`` index matrix), and :func:`blb_moe` over bags of
columns.  The sampled executor (:mod:`repro.bench.sampled`) gathers
per-support columns once per round and calls these — every BLB bag,
every GROUP-BY group — at the normal quantile
:func:`normal_critical_value`; a census calls none of them.  The :class:`EstimationSample`-level functions
(:func:`mean_estimator_sigma`, :func:`fast_bootstrap_sigma`,
:func:`blb_confidence_interval`) build the same columns per draw and
delegate: they are the public API and the oracle the executor's array
path is pinned to (``tests/test_executor_arrays.py``), as the
closure-driven :func:`bootstrap_sigma` is the kernel's same-seed oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from scipy.special import ndtri

from repro.errors import EstimationError
from repro.estimation.accuracy import BlbConfig
from repro.estimation.confidence import ConfidenceInterval
from repro.estimation.estimators import EstimationSample, Normalization
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.query.aggregate import AggregateFunction

#: an estimator working on an :class:`EstimationSample`
EstimatorFn = Callable[[EstimationSample], float]


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
    call and ``repro serve`` start).
    """
    alpha = 1.0 - confidence_level
    return float(ndtri(1.0 - alpha / 2.0))


def bootstrap_sigma(
    estimator: EstimatorFn,
    sample: EstimationSample,
    *,
    num_resamples: int,
    resample_size: int,
    rng: np.random.Generator,
) -> float:
    """Eq. 11: empirical sigma of the estimator across bootstrap resamples.

    Resamples are drawn over *all* draws (correct and incorrect alike), so
    the variance of the correct/incorrect mixture — which dominates COUNT's
    error — is reflected in sigma.  Resamples that break the estimator
    (e.g. an AVG resample with zero correct draws) are skipped; at least
    two usable resamples are required.
    """
    if sample.total_draws == 0:
        raise EstimationError("cannot bootstrap an empty sample")
    estimates: list[float] = []
    for _ in range(num_resamples):
        indexes = rng.integers(0, sample.total_draws, size=resample_size)
        try:
            estimates.append(estimator(sample.subset(indexes)))
        except EstimationError:
            continue
    if len(estimates) < 2:
        raise EstimationError(
            "too few usable bootstrap resamples to estimate sigma"
        )
    values = np.asarray(estimates, dtype=np.float64)
    mean = float(values.mean())
    variance = float(np.sum((values - mean) ** 2) / (len(values) - 1))
    return float(np.sqrt(variance))


#: indices drawn (and reduced) per kernel block: 1 MB of int64, so a block
#: and the columns gathered through it stay cache-resident
_BLOCK_INDICES = 1 << 17


def _resampled_sums(
    columns: Sequence[np.ndarray],
    num_resamples: int,
    resample_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-resample sums of each column: shape ``(len(columns), B)``.

    Bit-identical to gathering every column through one
    ``rng.integers(0, b, size=(B, resample_size))`` matrix and summing
    ``axis=1`` — consecutive row blocks consume the generator exactly as
    the single call does, and each row is still one contiguous pairwise
    sum — but only ``_BLOCK_INDICES`` indices exist at a time.
    """
    population = len(columns[0])
    rows_per_block = max(1, _BLOCK_INDICES // resample_size)
    sums = np.empty((len(columns), num_resamples), dtype=np.float64)
    for start in range(0, num_resamples, rows_per_block):
        stop = min(start + rows_per_block, num_resamples)
        block = rng.integers(0, population, size=(stop - start, resample_size))
        for position, column in enumerate(columns):
            sums[position, start:stop] = column.take(block).sum(axis=1)
    return sums


def column_bootstrap_sigma(
    numerators: np.ndarray,
    denominators: np.ndarray | None,
    *,
    num_resamples: int,
    resample_size: int,
    rng: np.random.Generator,
) -> float:
    """Bootstrap sigma of an estimator given as per-draw contribution columns.

    ``sum(numerators) / sum(denominators)`` over each resample — AVG, and
    COUNT/SUM under the PAPER normalisation; resamples whose denominator
    is zero are skipped and two usable ones are required — or, with
    ``denominators`` None, ``sum(numerators) / resample_size``.
    """
    if len(numerators) == 0:
        raise EstimationError("cannot bootstrap an empty sample")
    if denominators is None:
        (sums,) = _resampled_sums((numerators,), num_resamples, resample_size, rng)
        estimates = sums / resample_size
    else:
        numerator, denominator = _resampled_sums(
            (numerators, denominators), num_resamples, resample_size, rng
        )
        usable = denominator > 0
        if int(usable.sum()) < 2:
            raise EstimationError(
                "too few usable bootstrap resamples to estimate sigma"
            )
        estimates = numerator[usable] / denominator[usable]
    return float(np.std(estimates, ddof=1))


def column_mean_sigma(contributions: np.ndarray, resample_size: int) -> float:
    """Closed-form sigma of the mean of one contribution column.

    Bootstrapping a mean of i.i.d. per-draw contributions converges to
    ``std / sqrt(n)``, so the resampling loop is skipped outright.
    """
    if len(contributions) < 2:
        raise EstimationError("need at least two draws for a sigma estimate")
    return float(np.std(contributions, ddof=1) / np.sqrt(resample_size))


def blb_moe(
    bags: Sequence[tuple[np.ndarray, np.ndarray | None]],
    *,
    critical: float,
    num_resamples: int,
    resample_size: int,
    seed: int | np.random.Generator | None,
) -> float:
    """Eq. 10-11 over ``(numerators, denominators)`` bags: the mean of the
    per-bag ``critical * sigma``.

    A lone column is a mean-shaped estimator (COUNT/SUM under SAMPLE
    normalisation) and takes the closed form; a numerator/denominator
    pair is bootstrapped, the bags drawing in turn on one generator,
    ``ensure_rng(seed)``.  It is built at the first bag that bootstraps,
    so a closed-form call never pays for one.  Bags that break the
    estimator (empty, a single draw, too few usable resamples) are
    skipped; one must survive.
    """
    moes = []
    rng = None
    for numerators, denominators in bags:
        try:
            if denominators is None:
                sigma = column_mean_sigma(numerators, resample_size)
            else:
                if rng is None:
                    rng = ensure_rng(seed)
                sigma = column_bootstrap_sigma(
                    numerators,
                    denominators,
                    num_resamples=num_resamples,
                    resample_size=resample_size,
                    rng=rng,
                )
        except EstimationError:
            continue
        moes.append(critical * sigma)
    if not moes:
        raise EstimationError("no little sample produced a usable bootstrap sigma")
    return float(np.mean(moes))


def _sample_columns(
    sample: EstimationSample,
    function: "AggregateFunction",
    normalization: "Normalization",
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(numerators, denominators)`` of ``function`` over one sample."""
    from repro.query.aggregate import AggregateFunction

    if function is AggregateFunction.COUNT:
        numerators = sample.count_contributions()
    else:
        numerators = sample.sum_contributions()
    if function is AggregateFunction.AVG:
        return numerators, sample.count_contributions()
    if normalization is Normalization.SAMPLE:
        return numerators, None
    return numerators, sample.correct.astype(np.float64)


def fast_bootstrap_sigma(
    sample: EstimationSample,
    function: "AggregateFunction",
    normalization: "Normalization",
    *,
    num_resamples: int,
    resample_size: int,
    rng: np.random.Generator,
) -> float:
    """Vectorised bootstrap sigma for the three standard estimators.

    Same resamples, same skipped (zero-denominator) resamples and — up to
    summation order — same estimates as :func:`bootstrap_sigma` fed the
    matching estimator closure and a generator of the same seed:
    :func:`column_bootstrap_sigma` over the sample's contribution columns.
    COUNT/SUM under SAMPLE normalisation are a mean of one column; AVG and
    the PAPER normalisation are a ratio of two.
    """
    return column_bootstrap_sigma(
        *_sample_columns(sample, function, normalization),
        num_resamples=num_resamples,
        resample_size=resample_size,
        rng=rng,
    )


def mean_estimator_sigma(
    sample: EstimationSample,
    function: "AggregateFunction",
    *,
    resample_size: int,
) -> float:
    """Closed-form sigma for the mean-shaped COUNT/SUM estimators:
    :func:`column_mean_sigma` of the sample's contribution column.
    (Tests confirm agreement with :func:`fast_bootstrap_sigma`.)
    """
    from repro.query.aggregate import AggregateFunction

    if function not in (AggregateFunction.COUNT, AggregateFunction.SUM):
        raise EstimationError(f"{function.value} is not mean-shaped")
    contributions, _ = _sample_columns(sample, function, Normalization.SAMPLE)
    return column_mean_sigma(contributions, resample_size)


def blb_confidence_interval(
    little_samples: list[EstimationSample],
    function: "AggregateFunction",
    normalization: "Normalization",
    *,
    estimate: float,
    confidence_level: float,
    config: BlbConfig | None = None,
    resample_size: int | None = None,
    seed: int | np.random.Generator | None = 0,
) -> ConfidenceInterval:
    """BLB over little samples (Eq. 10-11).

    Mean-shaped estimators (COUNT/SUM under SAMPLE normalisation) use the
    closed-form sigma; everything else uses the vectorised bootstrap, the
    bags drawing on one generator in turn (:func:`blb_moe` over the
    samples' contribution columns).  ``resample_size`` defaults to |S_A|
    (the paper's choice); bags that break the estimator are skipped.
    """
    config = config or BlbConfig()
    if resample_size is None:
        resample_size = sum(sample.total_draws for sample in little_samples)
    moe = blb_moe(
        [_sample_columns(sample, function, normalization) for sample in little_samples],
        critical=normal_critical_value(confidence_level),
        num_resamples=config.num_resamples,
        resample_size=resample_size,
        seed=seed,
    )
    return ConfidenceInterval(
        estimate=estimate, moe=moe, confidence_level=confidence_level
    )
