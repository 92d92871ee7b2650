"""Tests for EVT-based MAX/MIN estimation (repro.estimation.extreme)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.sampled import ExtremeMethod, PaperConfig
from repro.core.result import STOP_CENSUS
from repro.errors import EstimationError, QueryError
from repro.estimation.estimators import EstimationSample
from repro.estimation.extreme import (
    MIN_EXCEEDANCES,
    EvtEstimate,
    GpdFit,
    estimate_extreme_evt,
    fit_gpd_pwm,
)
from repro.query.aggregate import AggregateFunction


def _uniform_sample(
    values: np.ndarray, *, correct: np.ndarray | None = None
) -> EstimationSample:
    n = len(values)
    if correct is None:
        correct = np.ones(n, dtype=bool)
    return EstimationSample(
        values=np.asarray(values, dtype=float),
        probabilities=np.full(n, 1.0 / max(n, 1)),
        correct=correct,
    )


# ---------------------------------------------------------------------------
# GPD fitting
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shape", [-0.4, -0.1, 0.0, 0.2])
def test_pwm_recovers_gpd_shape(shape):
    rng = np.random.default_rng(42)
    scale = 2.0
    u = rng.random(20_000)
    if abs(shape) < 1e-12:
        excesses = -scale * np.log(u)  # exponential limit
    else:
        excesses = scale / shape * (u ** (-shape) - 1.0)
    fitted_shape, fitted_scale = fit_gpd_pwm(excesses)
    assert fitted_shape == pytest.approx(shape, abs=0.06)
    assert fitted_scale == pytest.approx(scale, rel=0.1)


def test_pwm_rejects_tiny_input():
    with pytest.raises(EstimationError, match="at least two"):
        fit_gpd_pwm(np.array([1.0]))


def test_pwm_rejects_negative_excesses():
    with pytest.raises(EstimationError, match="non-negative"):
        fit_gpd_pwm(np.array([1.0, -0.5, 2.0]))


def test_pwm_degenerate_equal_excesses():
    shape, scale = fit_gpd_pwm(np.full(50, 3.0))
    assert shape == 0.0
    assert scale > 0.0


# ---------------------------------------------------------------------------
# GpdFit semantics
# ---------------------------------------------------------------------------
def test_endpoint_finite_iff_negative_shape():
    finite = GpdFit(
        shape=-0.5, scale=1.0, threshold=10.0, num_exceedances=50,
        exceedance_fraction=0.25,
    )
    assert finite.has_finite_endpoint
    assert finite.endpoint == pytest.approx(12.0)  # u + sigma/|xi|

    heavy = GpdFit(
        shape=0.3, scale=1.0, threshold=10.0, num_exceedances=50,
        exceedance_fraction=0.25,
    )
    assert not heavy.has_finite_endpoint
    assert heavy.endpoint == np.inf


def test_return_level_monotone_in_population():
    fit = GpdFit(
        shape=0.2, scale=1.0, threshold=10.0, num_exceedances=50,
        exceedance_fraction=0.25,
    )
    levels = [fit.return_level(m) for m in (10, 100, 1_000, 10_000)]
    assert levels == sorted(levels)
    assert levels[0] >= fit.threshold


def test_return_level_below_one_expected_exceedance():
    fit = GpdFit(
        shape=0.2, scale=1.0, threshold=10.0, num_exceedances=50,
        exceedance_fraction=0.001,
    )
    assert fit.return_level(100) == fit.threshold


def test_return_level_exponential_limit():
    fit = GpdFit(
        shape=0.0, scale=2.0, threshold=5.0, num_exceedances=50,
        exceedance_fraction=0.5,
    )
    assert fit.return_level(200) == pytest.approx(5.0 + 2.0 * np.log(100.0))


def test_return_level_requires_positive_population():
    fit = GpdFit(
        shape=0.0, scale=1.0, threshold=0.0, num_exceedances=10,
        exceedance_fraction=0.5,
    )
    with pytest.raises(EstimationError):
        fit.return_level(0)


# ---------------------------------------------------------------------------
# estimate_extreme_evt
# ---------------------------------------------------------------------------
def test_uniform_population_max_estimate():
    """A uniform tail has xi = -1; the endpoint estimate approaches the
    true population maximum even when the sample misses it."""
    rng = np.random.default_rng(7)
    population_max = 100.0
    values = rng.uniform(0.0, population_max, size=400)
    sample = _uniform_sample(values)
    estimate = estimate_extreme_evt(
        sample, AggregateFunction.MAX, population_size=10_000.0, seed=7
    )
    assert estimate.method == "evt"
    assert estimate.value >= estimate.sample_extreme
    assert estimate.value == pytest.approx(population_max, rel=0.05)


def test_min_is_negated_max():
    rng = np.random.default_rng(11)
    values = rng.uniform(50.0, 90.0, size=400)
    sample = _uniform_sample(values)
    estimate = estimate_extreme_evt(
        sample, AggregateFunction.MIN, population_size=10_000.0, seed=11
    )
    assert estimate.method == "evt"
    assert estimate.value <= estimate.sample_extreme
    assert estimate.value == pytest.approx(50.0, abs=3.0)


def test_ci_brackets_the_point_estimate():
    rng = np.random.default_rng(3)
    sample = _uniform_sample(rng.uniform(0.0, 10.0, size=300))
    estimate = estimate_extreme_evt(sample, AggregateFunction.MAX, seed=3)
    assert estimate.ci_lower <= estimate.value <= estimate.ci_upper
    assert 0.0 <= estimate.moe


def test_min_ci_ordering_preserved_after_negation():
    rng = np.random.default_rng(5)
    sample = _uniform_sample(rng.uniform(20.0, 40.0, size=300))
    estimate = estimate_extreme_evt(sample, AggregateFunction.MIN, seed=5)
    assert estimate.ci_lower <= estimate.value <= estimate.ci_upper


def test_fallback_on_thin_tail():
    values = np.linspace(0.0, 1.0, MIN_EXCEEDANCES)  # too few exceedances
    sample = _uniform_sample(values)
    estimate = estimate_extreme_evt(sample, AggregateFunction.MAX, seed=0)
    assert estimate.method == "sample"
    assert estimate.fit is None
    assert estimate.value == pytest.approx(1.0)
    assert estimate.moe == 0.0


def test_default_population_size_is_ht_count():
    rng = np.random.default_rng(9)
    values = rng.uniform(0.0, 1.0, size=200)
    sample = EstimationSample(
        values=values,
        probabilities=np.full(200, 1.0 / 500.0),  # HT count estimate = 500
        correct=np.ones(200, dtype=bool),
    )
    explicit = estimate_extreme_evt(
        sample, AggregateFunction.MAX, population_size=500.0, seed=1
    )
    defaulted = estimate_extreme_evt(sample, AggregateFunction.MAX, seed=1)
    assert defaulted.value == pytest.approx(explicit.value)


def test_incorrect_draws_are_excluded():
    values = np.concatenate([np.linspace(0.0, 1.0, 200), [1_000_000.0]])
    correct = np.ones(201, dtype=bool)
    correct[-1] = False  # the outlier failed validation
    sample = _uniform_sample(values, correct=correct)
    estimate = estimate_extreme_evt(sample, AggregateFunction.MAX, seed=0)
    assert estimate.value < 100.0


def test_rejects_non_extreme_function():
    sample = _uniform_sample(np.linspace(0.0, 1.0, 50))
    with pytest.raises(EstimationError, match="not an extreme"):
        estimate_extreme_evt(sample, AggregateFunction.AVG, seed=0)


def test_rejects_all_incorrect():
    sample = _uniform_sample(
        np.linspace(0.0, 1.0, 50), correct=np.zeros(50, dtype=bool)
    )
    with pytest.raises(EstimationError, match="no correct draws"):
        estimate_extreme_evt(sample, AggregateFunction.MAX, seed=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"exceedance_quantile": 0.0},
        {"exceedance_quantile": 1.0},
        {"confidence_level": 1.5},
        {"bootstrap_rounds": 0},
        {"population_size": -3.0},
    ],
)
def test_parameter_validation(kwargs):
    sample = _uniform_sample(np.linspace(0.0, 1.0, 100))
    with pytest.raises(EstimationError):
        estimate_extreme_evt(sample, AggregateFunction.MAX, seed=0, **kwargs)


def test_deterministic_given_seed():
    rng = np.random.default_rng(13)
    sample = _uniform_sample(rng.uniform(0.0, 5.0, size=300))
    first = estimate_extreme_evt(sample, AggregateFunction.MAX, seed=99)
    second = estimate_extreme_evt(sample, AggregateFunction.MAX, seed=99)
    assert first == second


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.integers(60, 400),
    low=st.floats(-100.0, 0.0),
    span=st.floats(1.0, 1_000.0),
)
def test_property_evt_never_contradicts_the_sample(seed, size, low, span):
    """MAX estimates dominate the observed max; MIN estimates are below
    the observed min — the extrapolation can only extend outward."""
    rng = np.random.default_rng(seed)
    sample = _uniform_sample(rng.uniform(low, low + span, size=size))
    maximum = estimate_extreme_evt(
        sample, AggregateFunction.MAX, seed=seed, bootstrap_rounds=20
    )
    minimum = estimate_extreme_evt(
        sample, AggregateFunction.MIN, seed=seed, bootstrap_rounds=20
    )
    observed = sample.values
    assert maximum.value >= float(np.max(observed)) - 1e-9
    assert minimum.value <= float(np.min(observed)) + 1e-9


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------
def test_engine_config_accepts_evt_method():
    config = PaperConfig(extreme_method=ExtremeMethod.EVT)
    assert config.extreme_method is ExtremeMethod.EVT


@pytest.mark.parametrize(
    "kwargs",
    [
        {"evt_exceedance_quantile": 0.0},
        {"evt_exceedance_quantile": 1.0},
    ],
)
def test_engine_config_validates_evt_knobs(kwargs):
    with pytest.raises(QueryError):
        PaperConfig(**kwargs)


def test_engine_evt_max_never_below_sample_method(dbpedia_bundle, sampled_engine):
    """On the sampled engine (a census fits no tail) the EVT estimate
    extends the sample maximum of the same draws."""
    from repro.query import AggregateQuery, QueryGraph

    query = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.MAX,
        attribute="price",
    )
    results = [
        sampled_engine(
            dbpedia_bundle.kg,
            dbpedia_bundle.embedding,
            PaperConfig(seed=7, extreme_rounds=2, extreme_method=method),
        ).execute(query)
        for method in (ExtremeMethod.SAMPLE, ExtremeMethod.EVT)
    ]
    for result in results:
        assert result.total_draws > 0 and result.stop_reason != STOP_CENSUS
    sample_result, evt_result = results
    assert evt_result.total_draws == sample_result.total_draws
    assert evt_result.value >= sample_result.value - 1e-9
    assert evt_result.moe >= 0.0
