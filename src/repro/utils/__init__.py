"""Small shared utilities: seeded randomness.

Stage timing lives with the spans, in :class:`repro.obs.trace.Clock`.
"""

from repro.utils.rng import RandomState, derive_seed, ensure_rng

__all__ = [
    "RandomState",
    "derive_seed",
    "ensure_rng",
]
