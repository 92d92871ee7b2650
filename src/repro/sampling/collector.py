"""Continuous sampling of candidate answers (paper §IV-A2(3), Theorem 1).

After convergence, the stationary distribution over the scope is restricted
to the candidate answers and renormalised (pi'_i = pi_i / sum pi); the
collector then draws answers i.i.d. from that distribution — non-answer
nodes are "ignored" exactly as in the paper.  A draw is a support index,
so it reads the answer and the pi'_i the Eq. 7-9 estimators divide by.

Draws invert the distribution's CDF through a guide table (Chen and Asau's
indexed search, 1974): ``K`` buckets of width ``1/K`` over [0, 1), each
naming the first support index a key in it can map to, so a key resolves
with one table read and one comparison instead of a binary search.  The
inversion is exact — every index equals ``Generator.choice(p=pi_A)``'s —
for the reasons given on :meth:`AnswerCollector.collect_indices`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import SamplingError
from repro.sampling.scope import SamplingScope
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class AnswerDistribution:
    """The answer-restricted stationary distribution pi_A."""

    answers: np.ndarray  # node ids with positive stationary probability
    probabilities: np.ndarray  # pi'_i, sums to 1

    def __post_init__(self) -> None:
        if len(self.answers) != len(self.probabilities):
            raise SamplingError("answers and probabilities must align")
        if len(self.answers) == 0:
            raise SamplingError("no candidate answer has positive probability")
        # checked once here instead of by the generator on every draw
        if not (
            np.isfinite(self.probabilities).all()
            and (self.probabilities >= 0.0).all()
        ):
            raise SamplingError("pi_A must be finite and non-negative")
        total = float(self.probabilities.sum())
        if not np.isclose(total, 1.0, atol=1e-8):
            raise SamplingError(f"pi_A must sum to 1, got {total}")

    @property
    def support_size(self) -> int:
        """Number of distinct answers in the support."""
        return len(self.answers)

    @cached_property
    def cdf(self) -> np.ndarray:
        """The normalised cumulative distribution draws are inverted through.

        Built on first use and kept (the dataclass is frozen, the arrays
        never change): the same ``cumsum`` and division by its last entry
        that ``Generator.choice(p=...)`` redoes on every call.
        """
        cdf = np.asarray(self.probabilities, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def guide_table(self) -> np.ndarray:
        """Bucket -> first CDF index a key in it can map to; -1 where unsure.

        ``K = len(table)`` is the smallest power of two >= 4 |A|.  Entry
        ``k`` is ``cdf.searchsorted(k / K, side="right")`` — the index a
        key of exactly ``k / K`` draws — when at most one CDF entry lies in
        ``(k / K, (k + 1) / K)``, else -1 (the bucket's keys fall back to a
        binary search).  Built on first use and kept, like :attr:`cdf`;
        int32, so at most ``32 |A|`` bytes.

        Per bucket, ``low = #{cdf <= k / K}`` (the entry above) and ``high
        = #{cdf < (k + 1) / K}`` differ by the CDF entries inside it.  Both
        come from bucket histograms of the CDF in O(K + |A|) rather than
        ``K`` binary searches: ``cdf * K`` is exact, so ``cdf <= k / K``
        iff ``ceil(cdf K) <= k`` and ``cdf < (k + 1) / K`` iff ``floor(cdf
        K) <= k``.
        """
        cdf = self.cdf
        buckets = 1 << (4 * len(cdf) - 1).bit_length()
        scaled = cdf * buckets
        ceiled = np.bincount(np.ceil(scaled).astype(np.intp), minlength=buckets + 1)
        floored = np.bincount(scaled.astype(np.intp), minlength=buckets + 1)
        low = ceiled[:buckets].cumsum()  # cdf.searchsorted(k / K, "right")
        high = floored[:buckets].cumsum()  # cdf.searchsorted((k + 1) / K, "left")
        table = np.where(high - low <= 1, low, -1).astype(np.int32)
        table.setflags(write=False)
        return table


def restrict_to_answers(
    scope: SamplingScope, stationary: np.ndarray
) -> AnswerDistribution:
    """Extract pi_A from the scope-wide stationary distribution.

    ``stationary`` is aligned with ``scope.nodes``.  Answers whose
    stationary probability is exactly zero are dropped from the support
    (they can never be visited, hence never sampled).
    """
    nodes = np.asarray(scope.nodes, dtype=np.int64)
    candidates = np.asarray(scope.candidate_answers, dtype=np.int64)
    # node id -> index within ``scope.nodes``, -1 for ids outside the scope
    largest = max(nodes.max(), candidates.max(initial=0))
    positions = np.full(int(largest) + 1, -1, dtype=np.int64)
    positions[nodes] = np.arange(len(nodes), dtype=np.int64)
    where = positions[candidates]
    if (where < 0).any():
        raise SamplingError("a candidate answer lies outside the scope's nodes")
    raw = np.asarray(stationary, dtype=np.float64)[where]
    reachable = raw > 0.0
    if not reachable.any():
        raise SamplingError(
            "the stationary distribution assigns zero mass to every candidate"
        )
    raw = raw[reachable]
    return AnswerDistribution(
        answers=candidates[reachable], probabilities=raw / raw.sum()
    )


class AnswerCollector:
    """Draws i.i.d. answer samples from an :class:`AnswerDistribution`."""

    def __init__(
        self,
        distribution: AnswerDistribution,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self._distribution = distribution
        self._rng = ensure_rng(seed)

    @property
    def distribution(self) -> AnswerDistribution:
        """The answer distribution being sampled from."""
        return self._distribution

    def collect_indices(self, sample_size: int) -> np.ndarray:
        """Draw ``sample_size`` support indices with replacement from pi_A.

        The engine works in index space: node ids and probabilities are
        recovered by fancy-indexing the distribution's arrays, which keeps
        the per-draw cost at numpy speed.  ``Generator.choice(n, size,
        p=pi_A)`` draws one ``random(size)`` key per index and inverts the
        CDF with a right-sided ``searchsorted``; this makes the same single
        ``random(size)`` call and resolves each key ``u`` through the
        distribution's :attr:`~AnswerDistribution.guide_table` instead:
        ``low = table[floor(u K)]``, ``index = low + (cdf[low] <= u)``,
        and only keys in a -1 bucket take the ``searchsorted``.  The
        result is ``choice``'s, index for index, with the generator left
        in the same state:

        * ``K`` is a power of two, so ``u * K`` and its floor are exact
          and ``k / K <= u < (k + 1) / K`` for ``k = floor(u K)``;
        * a bucket whose table entry is not -1 holds at most one CDF step,
          so the answer is ``low`` or ``low + 1``, and the comparison
          picks which;
        * ``cdf[-1]`` is exactly 1.0 and every key is below it, so
          ``low <= |A| - 1`` (and a -1 entry reads ``cdf[-1]``, adding 0
          before the fallback overwrites it).
        """
        if sample_size <= 0:
            raise SamplingError("sample_size must be positive")
        distribution = self._distribution
        cdf, table = distribution.cdf, distribution.guide_table
        uniforms = self._rng.random(sample_size)
        low = table.take((uniforms * len(table)).astype(np.intp))
        indices = low.astype(np.int64)
        indices += cdf.take(indices) <= uniforms
        unsure = np.flatnonzero(low < 0)
        if len(unsure):
            indices[unsure] = cdf.searchsorted(uniforms[unsure], side="right")
        return indices
