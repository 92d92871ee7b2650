"""Step-by-step random walker with the walking-with-rejection policy.

The engine takes stationary probabilities in closed form and tests check
them against power iteration (:mod:`repro.sampling.stationary`); this
module implements the paper's literal §IV-A2(2) walker — pick a uniformly
random neighbour, accept it with probability proportional to its
transition weight, repeat — so that tests can confirm the views agree
(visit frequencies converge to the stationary distribution) and
experiments can report empirical walk-step counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sampling.transition import TransitionModel
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class WalkRecord:
    """Trace of one walk: visited scope indexes and acceptance statistics."""

    visits: np.ndarray  # visit counts per scope index
    steps: int
    rejections: int

    def empirical_distribution(self) -> np.ndarray:
        """Visit frequencies over the walk, normalised to sum to one."""
        total = self.visits.sum()
        if total == 0:
            return self.visits.astype(np.float64)
        return self.visits / total


class RandomWalker:
    """Simulates the walking-with-rejection Markov chain."""

    def __init__(
        self,
        transition: TransitionModel,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self._transition = transition
        self._rng = ensure_rng(seed)

    def walk(
        self,
        steps: int,
        *,
        burn_in: int = 0,
        start_index: int | None = None,
    ) -> WalkRecord:
        """Run ``steps`` accepted moves, counting visits after ``burn_in``.

        Rejection loop: a uniformly random neighbour ``uj`` of the current
        node ``ui`` is accepted with probability ``p_ij / max_j p_ij``
        (normalising by the row maximum keeps acceptance rates usable while
        preserving the target transition distribution).
        """
        transition = self._transition
        if start_index is None:
            start_index = transition.scope.nodes.index(transition.scope.source)
        visits = np.zeros(transition.size, dtype=np.int64)
        rejections = 0
        current = start_index

        for step in range(steps):
            neighbours, probabilities = transition.row(current)
            if len(neighbours) == 1:
                chosen = int(neighbours[0])
            else:
                ceiling = float(probabilities.max())
                while True:
                    pick = int(self._rng.integers(0, len(neighbours)))
                    # Accept with probability proportional to the transition
                    # weight; uniform proposal x this acceptance = Eq. 5.
                    if self._rng.random() <= probabilities[pick] / ceiling:
                        chosen = int(neighbours[pick])
                        break
                    rejections += 1
            current = chosen
            if step >= burn_in:
                visits[current] += 1

        return WalkRecord(visits=visits, steps=steps, rejections=rejections)
