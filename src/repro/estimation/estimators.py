"""Aggregate estimators over the non-uniform answer sample (Eq. 7-9).

The sample is drawn i.i.d. from the answer-restricted stationary
distribution pi_A (Theorem 1), so each draw must be inverse-probability
weighted.  An :class:`EstimationSample` keeps *every* draw — including the
ones that failed correctness validation — with a boolean mask; bootstrap
resamples therefore reproduce the correct/incorrect mixture variance,
which dominates COUNT's sampling error.

Two normalisations are provided for COUNT and SUM:

* ``Normalization.SAMPLE`` (default) divides by the *total* number of draws
  |S_A| — the Hansen-Hurwitz estimator, exactly unbiased under i.i.d.
  draws from pi_A:  E[(1/|S_A|) sum 1{correct} v_i / pi'_i] = sum_{A+} v_i.
* ``Normalization.PAPER`` divides by |S_A+| as Eq. 7-8 are written; it is
  unbiased only when every draw validates as correct, and otherwise carries
  a 1/q bias where q is the probability mass of the correct answers.  We
  keep it for faithfulness experiments (see DESIGN.md §4.1).

AVG (Eq. 9) is the ratio of the two and is identical under either
normalisation — the factor cancels — and consistent by the SLLN argument of
Lemma 5.

These per-draw functions are the definition.  A COUNT / SUM / AVG round of
:mod:`repro.core.executor` reads the same sums off per-support contribution
columns gathered once and is pinned to :func:`estimate` bit for bit
(``tests/test_executor_arrays.py``); MAX/MIN rounds and the EVT fit still
run on an :class:`EstimationSample`.

:func:`census_estimate` is what a census round returns instead: the
exact aggregate of the whole population of correct answers, with the
floating-point rounding bound as its MoE.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import EstimationError
from repro.query.aggregate import AggregateFunction, exact_aggregate

#: the unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0**-53


class Normalization(enum.Enum):
    """How COUNT/SUM divide the inverse-probability-weighted total."""

    SAMPLE = "sample"  # divide by |S_A| (Hansen-Hurwitz, unbiased)
    PAPER = "paper"  # divide by |S_A+| (Eq. 7-8 as written)


@dataclass(frozen=True)
class EstimationSample:
    """All draws of one (little) sample, with their validation verdicts.

    ``values[i]`` is the aggregated value of draw ``i`` (1.0 for COUNT,
    the attribute value otherwise; anything for draws with
    ``correct[i] == False`` — they never enter a sum), ``probabilities[i]``
    is the draw's pi'_i, and ``correct[i]`` records whether validation
    admitted it into S_A+.
    """

    values: np.ndarray
    probabilities: np.ndarray
    correct: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.values) == len(self.probabilities) == len(self.correct)):
            raise EstimationError("values, probabilities and correct must align")
        if len(self.probabilities) and (
            np.any(self.probabilities <= 0.0) or np.any(self.probabilities > 1.0)
        ):
            raise EstimationError("probabilities must lie in (0, 1]")

    @property
    def total_draws(self) -> int:
        """Number of draws in the sample (with repetition)."""
        return len(self.values)

    @property
    def correct_draws(self) -> int:
        """Number of draws that passed correctness validation."""
        return int(np.count_nonzero(self.correct))

    def subset(self, indexes: np.ndarray) -> "EstimationSample":
        """Bootstrap-resampled view over all draws."""
        return EstimationSample(
            values=self.values[indexes],
            probabilities=self.probabilities[indexes],
            correct=self.correct[indexes],
        )

    @staticmethod
    def concatenate(samples: list["EstimationSample"]) -> "EstimationSample":
        """Union of little samples: S_A = ∪ S_i."""
        if not samples:
            raise EstimationError("cannot concatenate zero samples")
        return EstimationSample(
            values=np.concatenate([sample.values for sample in samples]),
            probabilities=np.concatenate([sample.probabilities for sample in samples]),
            correct=np.concatenate([sample.correct for sample in samples]),
        )

    def count_contributions(self) -> np.ndarray:
        """Per-draw COUNT terms: 1{correct} / pi'."""
        return np.where(self.correct, 1.0 / self.probabilities, 0.0)

    def sum_contributions(self) -> np.ndarray:
        """Per-draw SUM terms: 1{correct} * v / pi'."""
        return np.where(self.correct, self.values / self.probabilities, 0.0)


def _check_usable(sample: EstimationSample, function: str) -> None:
    if sample.total_draws == 0:
        raise EstimationError(f"cannot estimate {function} from an empty sample")


def estimate_count(
    sample: EstimationSample, normalization: Normalization = Normalization.SAMPLE
) -> float:
    """Eq. 8: estimated |A+|."""
    _check_usable(sample, "COUNT")
    weighted = float(np.sum(1.0 / sample.probabilities[sample.correct]))
    if normalization is Normalization.SAMPLE:
        return weighted / sample.total_draws
    if sample.correct_draws == 0:
        raise EstimationError("paper normalisation needs at least one correct draw")
    return weighted / sample.correct_draws


def estimate_sum(
    sample: EstimationSample, normalization: Normalization = Normalization.SAMPLE
) -> float:
    """Eq. 7: estimated sum of the attribute over A+."""
    _check_usable(sample, "SUM")
    mask = sample.correct
    weighted = float(np.sum(sample.values[mask] / sample.probabilities[mask]))
    if normalization is Normalization.SAMPLE:
        return weighted / sample.total_draws
    if sample.correct_draws == 0:
        raise EstimationError("paper normalisation needs at least one correct draw")
    return weighted / sample.correct_draws


def estimate_avg(sample: EstimationSample) -> float:
    """Eq. 9: self-normalised (consistent) ratio estimator for AVG."""
    _check_usable(sample, "AVG")
    mask = sample.correct
    if not np.any(mask):
        raise EstimationError("cannot estimate AVG with no correct draws")
    numerator = float(np.sum(sample.values[mask] / sample.probabilities[mask]))
    denominator = float(np.sum(1.0 / sample.probabilities[mask]))
    return numerator / denominator


def estimate_extreme(sample: EstimationSample, function: AggregateFunction) -> float:
    """MAX/MIN of the observed correct answers — no accuracy guarantee."""
    _check_usable(sample, function.value)
    mask = sample.correct
    if not np.any(mask):
        raise EstimationError("cannot take an extreme with no correct draws")
    if function is AggregateFunction.MAX:
        return float(np.max(sample.values[mask]))
    if function is AggregateFunction.MIN:
        return float(np.min(sample.values[mask]))
    raise EstimationError(f"{function.value} is not an extreme function")


def estimate(
    function: AggregateFunction,
    sample: EstimationSample,
    normalization: Normalization = Normalization.SAMPLE,
) -> float:
    """Dispatch to the estimator for ``function``."""
    if function is AggregateFunction.COUNT:
        return estimate_count(sample, normalization)
    if function is AggregateFunction.SUM:
        return estimate_sum(sample, normalization)
    if function is AggregateFunction.AVG:
        return estimate_avg(sample)
    return estimate_extreme(sample, function)


def census_estimate(
    function: AggregateFunction, values: np.ndarray
) -> tuple[float, float]:
    """``(exact aggregate, rounding bound)`` of a census's correct values.

    The value is :func:`~repro.query.aggregate.exact_aggregate`'s — SUM
    and AVG through ``math.fsum``, so it does not depend on the order of
    ``values`` — and an empty population reads 0.0, as
    :func:`~repro.query.evaluate.aggregate_over` reads it.  The MoE of SUM
    and AVG is ``gamma_{n+2} * fsum(|x|) / d`` with ``gamma_k = k u / (1 -
    k u)``, ``d`` = 1 for SUM and ``n`` for AVG: it contains the float
    that any summation order of the same values produces.  COUNT, MAX
    and MIN are exact, MoE 0.
    """
    if len(values) == 0:
        return 0.0, 0.0
    listed = values.tolist()
    value = exact_aggregate(function, listed)
    if function not in (AggregateFunction.SUM, AggregateFunction.AVG):
        return value, 0.0
    slack = (len(listed) + 2) * _UNIT_ROUNDOFF
    bound = slack / (1.0 - slack) * math.fsum(map(abs, listed))
    if function is AggregateFunction.AVG:
        bound /= len(listed)
    return value, bound
