"""Continuous sampling of candidate answers (paper §IV-A2(3), Theorem 1).

After convergence, the stationary distribution over the scope is restricted
to the candidate answers and renormalised (pi'_i = pi_i / sum pi); the
collector then draws answers i.i.d. from that distribution — non-answer
nodes are "ignored" exactly as in the paper.  Each draw carries its pi'_i,
which the Eq. 7-9 estimators divide by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import SamplingError
from repro.query.answer import SampledAnswer
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

    def probability_of(self, node_id: int) -> float:
        """The stationary probability pi' of one support entry."""
        matches = np.nonzero(self.answers == node_id)[0]
        if len(matches) == 0:
            return 0.0
        return float(self.probabilities[matches[0]])

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
        the per-draw cost at numpy speed.  Inverse-CDF sampling, step for
        step what ``Generator.choice(n, size, p=pi_A)`` does — one
        ``random(size)`` call, one right-sided ``searchsorted`` — so the
        generator stream and every index equal ``choice``'s; only its
        per-call validation and ``cumsum`` of ``p`` are gone.  The keys
        are looked up in ascending order and the indices scattered back:
        a binary search per random key mispredicts at every step, in key
        order ``searchsorted`` walks the CDF once (about half the time
        from a few thousand draws up).
        """
        if sample_size <= 0:
            raise SamplingError("sample_size must be positive")
        uniforms = self._rng.random(sample_size)
        ascending = np.argsort(uniforms)
        indices = np.empty(sample_size, dtype=np.int64)
        indices[ascending] = self._distribution.cdf.searchsorted(
            uniforms[ascending], side="right"
        )
        return indices

    def collect(self, sample_size: int) -> list[SampledAnswer]:
        """Draw ``sample_size`` answers with replacement from pi_A."""
        distribution = self._distribution
        picks = self.collect_indices(sample_size)
        return [
            SampledAnswer(
                node_id=int(distribution.answers[pick]),
                probability=float(distribution.probabilities[pick]),
            )
            for pick in picks
        ]

    def collect_little_samples(
        self, count: int, size_each: int
    ) -> list[list[SampledAnswer]]:
        """``count`` independent little samples for the BLB (§IV-C)."""
        if count <= 0:
            raise SamplingError("count must be positive")
        return [self.collect(size_each) for _ in range(count)]
