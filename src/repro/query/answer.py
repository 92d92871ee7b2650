"""Answer containers shared by samplers, validators and estimators."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CandidateAnswer:
    """A candidate answer (Definition 4): type-matched node + similarity."""

    node_id: int
    similarity: float

    def is_correct(self, tau: float) -> bool:
        """Definition 4 / Table I: the answer is correct when s_i >= tau."""
        return self.similarity >= tau


@dataclass(frozen=True)
class SampledAnswer:
    """One draw of the continuous sampling phase.

    ``probability`` is the answer's stationary visiting probability pi'_i in
    the answer-restricted distribution pi_A — the quantity the
    Horvitz-Thompson-style estimators divide by (Eq. 7-9).
    """

    node_id: int
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"sampling probability must be in (0, 1], got {self.probability}"
            )
