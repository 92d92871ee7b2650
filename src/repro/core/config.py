"""Engine configuration: what a census reads.

Defaults match the paper's §VII-A parameter block (eb = 1%, confidence
95%, tau = 0.85, n = 3).  Eq. 2's similarity floor is no knob: every
plan reads :data:`repro.semantics.similarity.SIMILARITY_FLOOR`.  The
knobs of the paper's sampled rounds — the Fig. 5(b) validation switch
and the round budget among them — extend this class in
:mod:`repro.bench.sampled`, which only the figures and the tests of the
sampling mechanics run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import QueryError


@dataclass(frozen=True)
class EngineConfig:
    """The knobs of a census; see the paper sections noted per field."""

    # Accuracy contract (Problem statement, Eq. 1)
    error_bound: float = 0.01
    confidence_level: float = 0.95
    # Correctness (Definition 4, §IV-B2)
    tau: float = 0.85
    # Scope (§IV-A)
    n_bound: int = 3
    # Determinism
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.error_bound < 1.0:
            raise QueryError("error_bound must be in (0, 1)")
        if not 0.0 < self.confidence_level < 1.0:
            raise QueryError("confidence_level must be in (0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise QueryError("tau must be in (0, 1]")
        if self.n_bound < 1:
            raise QueryError("n_bound must be >= 1")

    def with_(self, **changes: object) -> "EngineConfig":
        """A copy with ``changes`` applied (frozen-dataclass convenience)."""
        return replace(self, **changes)  # type: ignore[arg-type]
