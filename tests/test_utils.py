"""Tests for the shared utilities (rng)."""

import numpy as np

from repro.utils import derive_seed, ensure_rng


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        assert ensure_rng(5).random() == ensure_rng(5).random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_derive_seed_sensitive_to_path(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "a", "c")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_derive_seed_accepts_ints(self):
        assert derive_seed(1, 7) == derive_seed(1, "7")
