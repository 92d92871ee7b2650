"""Tests for estimators (Eq. 7-9), bootstrap/BLB, CI and accuracy machinery."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EstimationError
from repro.estimation import (
    BlbConfig,
    ConfidenceInterval,
    EstimationSample,
    Normalization,
    additional_sample_size,
    bootstrap_sigma,
    estimate,
    estimate_avg,
    estimate_count,
    estimate_extreme,
    estimate_sum,
    moe_target,
    normal_critical_value,
    satisfies_error_bound,
)
from repro.estimation.bootstrap import (
    _BLOCK_INDICES,
    blb_confidence_interval,
    column_bootstrap_sigma,
    column_mean_sigma,
    fast_bootstrap_sigma,
    mean_estimator_sigma,
)
from repro.query.aggregate import AggregateFunction


def make_sample(values, probabilities, correct) -> EstimationSample:
    return EstimationSample(
        values=np.asarray(values, dtype=np.float64),
        probabilities=np.asarray(probabilities, dtype=np.float64),
        correct=np.asarray(correct, dtype=bool),
    )


def draw_sample(rng, population_values, population_probs, correct_mask, n):
    """i.i.d. draws from a finite population with known probabilities."""
    picks = rng.choice(len(population_values), size=n, p=population_probs)
    return make_sample(
        [population_values[p] for p in picks],
        [population_probs[p] for p in picks],
        [correct_mask[p] for p in picks],
    )


class TestEstimators:
    def test_count_uniform_exact(self):
        """Uniform probabilities + all correct draws -> exact population size."""
        sample = make_sample([1, 1, 1, 1], [0.25] * 4, [True] * 4)
        assert estimate_count(sample) == pytest.approx(4.0)

    def test_count_paper_vs_sample_normalisation(self):
        """With incorrect draws the two normalisations diverge by 1/q."""
        sample = make_sample([1, 1, 1, 1], [0.25] * 4, [True, True, False, False])
        hansen = estimate_count(sample, Normalization.SAMPLE)
        paper = estimate_count(sample, Normalization.PAPER)
        assert hansen == pytest.approx(2.0)
        assert paper == pytest.approx(4.0)  # biased by 1/q = 2

    def test_sum_weighting(self):
        sample = make_sample([10.0, 20.0], [0.5, 0.25], [True, True])
        # (10/0.5 + 20/0.25) / 2 = (20 + 80) / 2
        assert estimate_sum(sample) == pytest.approx(50.0)

    def test_avg_is_ratio(self):
        sample = make_sample([10.0, 20.0], [0.5, 0.25], [True, True])
        expected = (10 / 0.5 + 20 / 0.25) / (1 / 0.5 + 1 / 0.25)
        assert estimate_avg(sample) == pytest.approx(expected)

    def test_avg_normalisation_invariant(self):
        """AVG is identical under both normalisations (the factor cancels)."""
        sample = make_sample(
            [10.0, 20.0, 5.0], [0.5, 0.25, 0.25], [True, True, False]
        )
        assert estimate(AggregateFunction.AVG, sample, Normalization.SAMPLE) == (
            estimate(AggregateFunction.AVG, sample, Normalization.PAPER)
        )

    def test_extremes(self):
        sample = make_sample([3.0, 9.0, 1.0], [0.3, 0.3, 0.4], [True, True, False])
        assert estimate_extreme(sample, AggregateFunction.MAX) == 9.0
        assert estimate_extreme(sample, AggregateFunction.MIN) == 3.0  # 1.0 incorrect

    def test_empty_sample_rejected(self):
        empty = make_sample([], [], [])
        with pytest.raises(EstimationError):
            estimate_count(empty)

    def test_avg_needs_correct_draw(self):
        sample = make_sample([1.0], [0.5], [False])
        with pytest.raises(EstimationError):
            estimate_avg(sample)

    def test_invalid_probability(self):
        with pytest.raises(EstimationError):
            make_sample([1.0], [0.0], [True])
        with pytest.raises(EstimationError):
            make_sample([1.0], [1.5], [True])

    def test_misaligned_arrays(self):
        with pytest.raises(EstimationError):
            make_sample([1.0, 2.0], [0.5], [True])

    def test_concatenate(self):
        a = make_sample([1.0], [0.5], [True])
        b = make_sample([2.0], [0.5], [False])
        combined = EstimationSample.concatenate([a, b])
        assert combined.total_draws == 2
        assert combined.correct_draws == 1
        with pytest.raises(EstimationError):
            EstimationSample.concatenate([])

    def test_contributions(self):
        sample = make_sample([10.0, 20.0], [0.5, 0.25], [True, False])
        np.testing.assert_allclose(sample.count_contributions(), [2.0, 0.0])
        np.testing.assert_allclose(sample.sum_contributions(), [20.0, 0.0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_count_unbiased_over_replications(self, seed):
        """Hansen-Hurwitz COUNT is unbiased: mean over replications -> |A+|."""
        rng = np.random.default_rng(seed)
        population_probs = np.array([0.4, 0.3, 0.2, 0.1])
        correct = [True, True, True, False]
        sample = draw_sample(rng, [1, 1, 1, 1], population_probs, correct, 800)
        value = estimate_count(sample)
        # single replication: within a loose CLT band around the truth 3
        assert abs(value - 3.0) < 1.0


class TestUnbiasedness:
    """Statistical contracts of Lemmas 3-5 under i.i.d. pi_A draws."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.values = np.array([10.0, 40.0, 25.0, 70.0, 5.0])
        self.probs = np.array([0.35, 0.25, 0.2, 0.15, 0.05])
        self.correct = np.array([True, True, True, False, False])

    def replicate(self, function, normalization, n=600, reps=200):
        results = []
        for _ in range(reps):
            sample = draw_sample(self.rng, self.values, self.probs, self.correct, n)
            try:
                results.append(estimate(function, sample, normalization))
            except EstimationError:
                continue
        return float(np.mean(results))

    def test_count_unbiased(self):
        mean = self.replicate(AggregateFunction.COUNT, Normalization.SAMPLE)
        assert mean == pytest.approx(3.0, rel=0.03)

    def test_sum_unbiased(self):
        mean = self.replicate(AggregateFunction.SUM, Normalization.SAMPLE)
        assert mean == pytest.approx(75.0, rel=0.03)

    def test_avg_consistent(self):
        mean = self.replicate(AggregateFunction.AVG, Normalization.SAMPLE)
        assert mean == pytest.approx(25.0, rel=0.03)

    def test_paper_count_biased_by_q(self):
        """Eq. 8 as written divides by |S_A+|: expected value |A+| / q."""
        mean = self.replicate(AggregateFunction.COUNT, Normalization.PAPER)
        q = 0.35 + 0.25 + 0.2
        assert mean == pytest.approx(3.0 / q, rel=0.05)


class TestConfidence:
    def test_normal_critical_value(self):
        assert normal_critical_value(0.95) == pytest.approx(1.96, abs=0.005)
        assert normal_critical_value(0.99) == pytest.approx(2.576, abs=0.005)
        with pytest.raises(EstimationError):
            normal_critical_value(1.5)

    def test_memoised_critical_value_is_the_ppf_and_still_validates(self):
        from scipy import stats

        # the production path evaluates scipy.special.ndtri, which is what
        # norm.ppf evaluates: the same float, bit for bit
        for level in (0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999):
            expected = float(stats.norm.ppf(1.0 - (1.0 - level) / 2.0))
            for _ in range(2):  # the miss, then the hit
                assert normal_critical_value(level).hex() == expected.hex()
        for invalid in (0.0, 1.0, float("nan")):
            with pytest.raises(EstimationError):
                normal_critical_value(invalid)

    def test_import_repro_leaves_scipy_stats_out(self):
        """``scipy.stats`` costs over a second to import; every CLI call,
        ``repro serve`` start and worker spawn would pay it."""
        import subprocess
        import sys

        import repro

        source_root = str(Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-c",
             "import repro, sys; sys.exit('scipy.stats' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": source_root},
            timeout=120,
        )
        assert completed.returncode == 0

    def test_interval_fields(self):
        interval = ConfidenceInterval(estimate=10.0, moe=2.0, confidence_level=0.95)
        assert interval.lower == 8.0
        assert interval.upper == 12.0
        assert interval.width == 4.0
        assert interval.contains(9.0)
        assert not interval.contains(13.0)
        assert interval.relative_moe() == pytest.approx(0.2)

    def test_interval_validation(self):
        with pytest.raises(EstimationError):
            ConfidenceInterval(estimate=1.0, moe=-0.1, confidence_level=0.95)
        with pytest.raises(EstimationError):
            ConfidenceInterval(estimate=1.0, moe=0.1, confidence_level=1.5)

    def test_from_sigma(self):
        interval = ConfidenceInterval.from_sigma(10.0, 1.0, 0.95)
        assert interval.moe == pytest.approx(1.96, abs=0.005)

    def test_zero_estimate_relative_moe(self):
        interval = ConfidenceInterval(estimate=0.0, moe=1.0, confidence_level=0.95)
        assert interval.relative_moe() == float("inf")


class TestBootstrap:
    @pytest.fixture
    def mixed_sample(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        correct = [True, True, True, False]
        return draw_sample(rng, [1.0, 1.0, 1.0, 1.0], probs, correct, 400)

    def test_bootstrap_sigma_positive(self, mixed_sample):
        sigma = bootstrap_sigma(
            estimate_count,
            mixed_sample,
            num_resamples=60,
            resample_size=400,
            rng=np.random.default_rng(1),
        )
        assert sigma > 0

    def test_fast_matches_generic_bootstrap(self, mixed_sample):
        """The vectorised bootstrap agrees with the generic closure version."""
        generic = bootstrap_sigma(
            estimate_count,
            mixed_sample,
            num_resamples=400,
            resample_size=400,
            rng=np.random.default_rng(2),
        )
        fast = fast_bootstrap_sigma(
            mixed_sample,
            AggregateFunction.COUNT,
            Normalization.SAMPLE,
            num_resamples=400,
            resample_size=400,
            rng=np.random.default_rng(3),
        )
        assert fast == pytest.approx(generic, rel=0.25)

    def test_closed_form_matches_bootstrap(self, mixed_sample):
        """std/sqrt(n) equals the bootstrap sigma of the mean estimator."""
        closed = mean_estimator_sigma(
            mixed_sample, AggregateFunction.COUNT, resample_size=400
        )
        fast = fast_bootstrap_sigma(
            mixed_sample,
            AggregateFunction.COUNT,
            Normalization.SAMPLE,
            num_resamples=600,
            resample_size=400,
            rng=np.random.default_rng(4),
        )
        assert closed == pytest.approx(fast, rel=0.15)

    def test_blb_interval_brackets_truth(self):
        """95% CI from BLB should usually contain the true COUNT (=3)."""
        rng = np.random.default_rng(7)
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        correct = [True, True, True, False]
        hits = 0
        reps = 40
        for _ in range(reps):
            littles = [
                draw_sample(rng, [1.0] * 4, probs, correct, 120) for _ in range(3)
            ]
            combined = EstimationSample.concatenate(littles)
            point = estimate_count(combined)
            interval = blb_confidence_interval(
                littles,
                AggregateFunction.COUNT,
                Normalization.SAMPLE,
                estimate=point,
                confidence_level=0.95,
                seed=rng,
            )
            if interval.contains(3.0):
                hits += 1
        assert hits / reps >= 0.8  # allow slack around the nominal 95%

    def test_blb_config_validation(self):
        with pytest.raises(EstimationError):
            BlbConfig(num_little_samples=0)
        with pytest.raises(EstimationError):
            BlbConfig(scale_exponent=0.4)
        with pytest.raises(EstimationError):
            BlbConfig(num_resamples=1)

    def test_little_sample_size(self):
        config = BlbConfig(scale_exponent=0.6)
        assert config.little_sample_size(100) == round(100**0.6)
        assert config.little_sample_size(1) == 1
        with pytest.raises(EstimationError):
            config.little_sample_size(0)

    def test_empty_littles_rejected(self):
        with pytest.raises(EstimationError):
            blb_confidence_interval(
                [],
                AggregateFunction.COUNT,
                Normalization.SAMPLE,
                estimate=0.0,
                confidence_level=0.95,
            )


def _oracle_estimator(function, normalization):
    """The closure :func:`bootstrap_sigma` needs for one estimator shape."""
    return lambda sample: estimate(function, sample, normalization)


class TestResamplingKernel:
    """`fast_bootstrap_sigma` against its same-seed oracle, block by block."""

    @pytest.fixture(scope="class")
    def population(self):
        """600 draws over a skewed support, about a quarter incorrect."""
        rng = np.random.default_rng(11)
        probabilities = rng.dirichlet(np.ones(40))
        picks = rng.choice(40, size=600, p=probabilities)
        return make_sample(
            rng.lognormal(3.0, 1.0, size=40)[picks],
            probabilities[picks],
            (rng.random(40) < 0.75)[picks],
        )

    @pytest.mark.parametrize(
        "function",
        [AggregateFunction.AVG, AggregateFunction.COUNT, AggregateFunction.SUM],
    )
    @pytest.mark.parametrize("normalization", list(Normalization))
    @pytest.mark.parametrize(
        "resample_size, num_resamples",
        [
            (_BLOCK_INDICES // 5 - 7, 13),  # 5 rows per block, 13 = 5 + 5 + 3
            (_BLOCK_INDICES, 3),  # exactly one row per block
            (_BLOCK_INDICES + 1, 3),  # a row larger than a block
        ],
    )
    def test_same_seed_oracle_equality(
        self, population, function, normalization, resample_size, num_resamples
    ):
        fast = fast_bootstrap_sigma(
            population, function, normalization,
            num_resamples=num_resamples, resample_size=resample_size,
            rng=np.random.default_rng(5),
        )
        oracle = bootstrap_sigma(
            _oracle_estimator(function, normalization), population,
            num_resamples=num_resamples, resample_size=resample_size,
            rng=np.random.default_rng(5),
        )
        assert fast == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize(
        "function, normalization",
        [
            (AggregateFunction.AVG, Normalization.SAMPLE),
            (AggregateFunction.COUNT, Normalization.PAPER),
            (AggregateFunction.SUM, Normalization.PAPER),
        ],
    )
    def test_zero_denominator_resamples_are_skipped_like_the_oracle(
        self, function, normalization
    ):
        """One correct draw in 30: most 12-draw resamples hold none."""
        rng = np.random.default_rng(3)
        sample = make_sample(
            rng.lognormal(3.0, 1.0, size=30), np.full(30, 1 / 30), np.arange(30) == 4
        )
        kwargs = dict(num_resamples=200, resample_size=12)
        indexes = np.random.default_rng(9).integers(0, 30, size=(200, 12))
        usable = int((indexes == 4).any(axis=1).sum())
        assert 2 <= usable < 200  # the case under test exists at this seed
        fast = fast_bootstrap_sigma(
            sample, function, normalization, rng=np.random.default_rng(9), **kwargs
        )
        oracle = bootstrap_sigma(
            _oracle_estimator(function, normalization), sample,
            rng=np.random.default_rng(9), **kwargs,
        )
        assert fast == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize(
        "resample_size, num_resamples",
        [(1001, 7), (_BLOCK_INDICES // 3, 50), (_BLOCK_INDICES + 1, 2)],
    )
    def test_generator_stream_matches_one_matrix_call(
        self, population, resample_size, num_resamples
    ):
        """Bags and groups share one generator: the kernel must leave it
        exactly where the single ``(B, n)`` index matrix left it."""
        blocked, matrix = np.random.default_rng(21), np.random.default_rng(21)
        fast_bootstrap_sigma(
            population, AggregateFunction.AVG, Normalization.SAMPLE,
            num_resamples=num_resamples, resample_size=resample_size, rng=blocked,
        )
        matrix.integers(0, population.total_draws, size=(num_resamples, resample_size))
        # the state carries the buffered half of a 64-bit word, which an odd
        # number of 32-bit draws (1001 x 7) leaves behind
        assert blocked.bit_generator.state == matrix.bit_generator.state
        assert blocked.integers(0, 600, size=9).tolist() == (
            matrix.integers(0, 600, size=9).tolist()
        )

    @pytest.mark.parametrize(
        "function",
        [AggregateFunction.AVG, AggregateFunction.COUNT, AggregateFunction.SUM],
    )
    @pytest.mark.parametrize("normalization", list(Normalization))
    def test_sample_level_sigmas_are_the_column_kernels(
        self, population, function, normalization
    ):
        """The executor hands the kernels per-support terms gathered over
        the draws; the ``EstimationSample`` functions build the same
        columns per draw and must read the same float."""
        count_terms = np.where(population.correct, 1.0 / population.probabilities, 0.0)
        sum_terms = np.where(
            population.correct, population.values / population.probabilities, 0.0
        )
        numerators = count_terms if function is AggregateFunction.COUNT else sum_terms
        if function is AggregateFunction.AVG:
            denominators = count_terms
        elif normalization is Normalization.SAMPLE:
            denominators = None
        else:
            denominators = population.correct.astype(np.float64)
        kwargs = dict(num_resamples=50, resample_size=1800)
        assert column_bootstrap_sigma(
            numerators, denominators, rng=np.random.default_rng(5), **kwargs
        ).hex() == fast_bootstrap_sigma(
            population, function, normalization, rng=np.random.default_rng(5), **kwargs
        ).hex()
        if denominators is None:
            assert column_mean_sigma(numerators, 1800).hex() == mean_estimator_sigma(
                population, function, resample_size=1800
            ).hex()

    @pytest.mark.parametrize(
        "function", [AggregateFunction.COUNT, AggregateFunction.SUM]
    )
    def test_closed_form_matches_bootstrap_on_grouped_samples(self, function):
        """A group's sample spans every draw with membership as its verdict
        mask: its estimator is still a mean, so ``std / sqrt(n)`` is what
        the bootstrap converges to."""
        rng = np.random.default_rng(13)
        probabilities = rng.dirichlet(np.ones(40))
        values = rng.lognormal(3.0, 1.0, size=40)
        correct = rng.random(40) < 0.75
        keys = rng.integers(0, 4, size=40)
        picks = rng.choice(40, size=600, p=probabilities)
        for key in range(4):
            members = (correct & (keys == key))[picks]
            assert members.sum() >= 30
            group = make_sample(
                np.where(members, values[picks], 0.0), probabilities[picks], members
            )
            closed = mean_estimator_sigma(group, function, resample_size=600)
            fast = fast_bootstrap_sigma(
                group, function, Normalization.SAMPLE,
                num_resamples=2000, resample_size=600, rng=rng,
            )
            assert closed == pytest.approx(fast, rel=0.05)

    def test_no_index_matrix_is_allocated(self):
        """b = 25k, n = 77k, B = 50: the parent peaked at ~62 MB (the index
        matrix plus one gathered matrix); the blocked kernel stays under 8."""
        import tracemalloc

        rng = np.random.default_rng(0)
        sample = make_sample(
            rng.lognormal(3.0, 1.0, size=25_000),
            np.full(25_000, 1 / 25_000),
            rng.random(25_000) < 0.8,
        )
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            fast_bootstrap_sigma(
                sample, AggregateFunction.AVG, Normalization.SAMPLE,
                num_resamples=50, resample_size=77_000, rng=rng,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 8 * 1024 * 1024


class TestAccuracy:
    def test_moe_target_formula(self):
        """Theorem 2: target = V_hat * eb / (1 + eb)."""
        assert moe_target(100.0, 0.01) == pytest.approx(100.0 * 0.01 / 1.01)

    def test_moe_target_nonpositive_estimate(self):
        assert moe_target(0.0, 0.01) == 0.0
        assert moe_target(-5.0, 0.01) == 0.0

    def test_satisfies_error_bound(self):
        assert satisfies_error_bound(0.9, 100.0, 0.01)
        assert not satisfies_error_bound(1.1, 100.0, 0.01)
        assert not satisfies_error_bound(0.1, 0.0, 0.01)

    def test_theorem2_guarantee(self):
        """If eps <= target, any V in [V_hat - eps, V_hat + eps] has
        relative error <= eb."""
        v_hat, eb = 100.0, 0.05
        eps = moe_target(v_hat, eb)
        for truth in np.linspace(v_hat - eps, v_hat + eps, 21):
            assert abs(v_hat - truth) / truth <= eb + 1e-12

    def test_additional_sample_size_eq12(self):
        """Eq. 12 with the paper's Example 5 numbers (~16 extra answers)."""
        # |S_A| = 100, eps = 6.5, V_hat = 578, eb = 0.01, m = 0.6
        delta = additional_sample_size(100, 6.5, 578.0, 0.01, 0.6)
        assert 10 <= delta <= 25

    def test_additional_sample_size_zero_when_satisfied(self):
        assert additional_sample_size(100, 0.5, 578.0, 0.01, 0.6) == 0

    def test_additional_sample_size_bounds(self):
        assert additional_sample_size(100, 99.0, 578.0, 0.01, 0.6, maximum=50) == 50
        with pytest.raises(EstimationError):
            additional_sample_size(0, 1.0, 1.0, 0.01)
        with pytest.raises(EstimationError):
            moe_target(1.0, 0.0)
