"""Failure injection: how the system degrades on hostile inputs.

Every test here feeds the public API something broken — empty graphs,
unreachable specific nodes, attribute-free answers, all-below-tau answer
sets, disconnected scopes — and asserts a *specific* failure mode: a
library error from :mod:`repro.errors`, never an unrelated traceback or a
silently wrong number.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bench.sampled import PaperConfig
from repro.core.config import EngineConfig
from repro.core.engine import ApproximateAggregateEngine
from repro.core.planner import resolve_mapping_node
from repro.core.result import STOP_CENSUS
from repro.embedding import LookupEmbedding, PredicateVectorSpace
from repro.errors import (
    EstimationError,
    MappingNodeNotFoundError,
    ReproError,
    SamplingError,
    ServiceError,
)
from repro.estimation.estimators import EstimationSample, estimate_avg
from repro.kg import KnowledgeGraph
from repro.query import AggregateFunction, AggregateQuery, GroupBy, QueryGraph
from repro.sampling.scope import build_scope


def _lookup(predicates: dict[str, np.ndarray]) -> LookupEmbedding:
    return LookupEmbedding(predicates)


def _space(*predicates: str, dim: int = 8, seed: int = 0) -> PredicateVectorSpace:
    rng = np.random.default_rng(seed)
    vectors = {name: rng.normal(size=dim) for name in predicates}
    return PredicateVectorSpace(_lookup(vectors))


def _count_query(
    name: str = "Hub",
    predicate: str = "rel",
    target: str = "Thing",
) -> AggregateQuery:
    return AggregateQuery(
        query=QueryGraph.simple(name, ["Place"], predicate, [target]),
        function=AggregateFunction.COUNT,
    )


@pytest.fixture
def tiny_kg() -> KnowledgeGraph:
    """Hub -> two answers, one noise node, one isolated node."""
    kg = KnowledgeGraph()
    hub = kg.add_node("Hub", ["Place"])
    a1 = kg.add_node("A1", ["Thing"], attributes={"price": 10.0})
    a2 = kg.add_node("A2", ["Thing"], attributes={"price": 30.0})
    noise = kg.add_node("N", ["Other"])
    kg.add_node("Island", ["Thing"], attributes={"price": 99.0})  # unreachable
    kg.add_edge(hub, "rel", a1)
    kg.add_edge(hub, "rel", a2)
    kg.add_edge(hub, "unrelated", noise)
    return kg


# ---------------------------------------------------------------------------
# Degenerate graphs
# ---------------------------------------------------------------------------
def test_empty_graph_has_no_mapping_node():
    kg = KnowledgeGraph()
    engine = ApproximateAggregateEngine(kg, _space("rel"))
    with pytest.raises(MappingNodeNotFoundError):
        engine.execute(_count_query())


def test_missing_specific_node(tiny_kg):
    engine = ApproximateAggregateEngine(tiny_kg, _space("rel", "unrelated"))
    with pytest.raises(MappingNodeNotFoundError):
        engine.execute(_count_query(name="Atlantis"))


def test_specific_node_with_wrong_type(tiny_kg):
    """Name matches but no type overlap -> no mapping node (Definition 5)."""
    query = AggregateQuery(
        query=QueryGraph.simple("Hub", ["Planet"], "rel", ["Thing"]),
        function=AggregateFunction.COUNT,
    )
    engine = ApproximateAggregateEngine(tiny_kg, _space("rel", "unrelated"))
    with pytest.raises(MappingNodeNotFoundError):
        engine.execute(query)


def test_no_candidates_in_scope(tiny_kg):
    """Target type exists only on an unreachable island -> sampling error."""
    kg = KnowledgeGraph()
    hub = kg.add_node("Hub", ["Place"])
    other = kg.add_node("O", ["Other"])
    kg.add_edge(hub, "rel", other)
    kg.add_node("Island", ["Thing"])
    engine = ApproximateAggregateEngine(kg, _space("rel"))
    with pytest.raises(SamplingError):
        engine.execute(_count_query())


def test_unreachable_answers_do_not_count(tiny_kg):
    """The island Thing is outside every n-bounded scope: COUNT ~ 2."""
    engine = ApproximateAggregateEngine(
        tiny_kg,
        _space("rel", "unrelated"),
        config=EngineConfig(seed=1, tau=0.05),
    )
    result = engine.execute(_count_query())
    assert result.value == pytest.approx(2.0, rel=0.35)


def test_isolated_mapping_node():
    """A specific node with no edges: empty scope, no candidates."""
    kg = KnowledgeGraph()
    kg.add_node("Hub", ["Place"])
    kg.add_node("T", ["Thing"])
    engine = ApproximateAggregateEngine(kg, _space("rel"))
    with pytest.raises(SamplingError):
        engine.execute(_count_query())


# ---------------------------------------------------------------------------
# Attribute pathologies
# ---------------------------------------------------------------------------
def test_sum_over_answers_without_the_attribute(tiny_kg, sampled_engine):
    """Answers lacking the attribute are unusable; with nobody carrying
    it sampling reports the degraded mode honestly: a zero estimate,
    zero correct draws, and converged=False — never a fabricated value.
    The census has screened every answer, so it returns the exact empty
    SUM."""
    query = AggregateQuery(
        query=QueryGraph.simple("Hub", ["Place"], "rel", ["Thing"]),
        function=AggregateFunction.SUM,
        attribute="weight",  # nobody has it
    )
    space = _space("rel", "unrelated")
    config = PaperConfig(seed=1, max_rounds=2, min_rounds=1)
    result = sampled_engine(tiny_kg, space, config).execute(query)
    assert result.value == 0.0
    assert result.correct_draws == 0
    assert not result.converged
    census = ApproximateAggregateEngine(tiny_kg, space, EngineConfig(seed=1)).execute(
        query
    )
    assert (census.value, census.moe, census.correct_draws) == (0.0, 0.0, 0)
    assert census.converged and census.stop_reason == STOP_CENSUS


def test_partial_attribute_coverage():
    """Only answers carrying the attribute contribute to AVG."""
    kg = KnowledgeGraph()
    hub = kg.add_node("Hub", ["Place"])
    priced = kg.add_node("P", ["Thing"], attributes={"price": 50.0})
    bare = kg.add_node("B", ["Thing"])
    kg.add_edge(hub, "rel", priced)
    kg.add_edge(hub, "rel", bare)
    engine = ApproximateAggregateEngine(
        kg,
        _space("rel"),
        config=EngineConfig(seed=3, tau=0.05),
    )
    query = AggregateQuery(
        query=QueryGraph.simple("Hub", ["Place"], "rel", ["Thing"]),
        function=AggregateFunction.AVG,
        attribute="price",
    )
    result = engine.execute(query)
    assert result.value == pytest.approx(50.0, rel=0.01)


def test_nan_attribute_is_treated_as_missing():
    kg = KnowledgeGraph()
    hub = kg.add_node("Hub", ["Place"])
    good = kg.add_node("G", ["Thing"], attributes={"price": 20.0})
    bad = kg.add_node("Bad", ["Thing"], attributes={"price": math.nan})
    kg.add_edge(hub, "rel", good)
    kg.add_edge(hub, "rel", bad)
    engine = ApproximateAggregateEngine(
        kg,
        _space("rel"),
        config=EngineConfig(seed=5, tau=0.05),
    )
    query = AggregateQuery(
        query=QueryGraph.simple("Hub", ["Place"], "rel", ["Thing"]),
        function=AggregateFunction.AVG,
        attribute="price",
    )
    result = engine.execute(query)
    assert result.value == pytest.approx(20.0, rel=0.01)
    assert not math.isnan(result.value)


def test_group_by_attribute_nobody_has(tiny_kg):
    query = AggregateQuery(
        query=QueryGraph.simple("Hub", ["Place"], "rel", ["Thing"]),
        function=AggregateFunction.COUNT,
        group_by=GroupBy("nonexistent"),
    )
    engine = ApproximateAggregateEngine(
        tiny_kg,
        _space("rel", "unrelated"),
        config=EngineConfig(seed=1, tau=0.05),
    )
    grouped = engine.execute(query)
    assert grouped.num_groups == 0


# ---------------------------------------------------------------------------
# tau pathologies
# ---------------------------------------------------------------------------
def test_all_answers_below_tau(sampled_engine):
    """tau = 1 with a dissimilar predicate: the sample validates empty and
    the engine must not fabricate an estimate; the census validates the
    whole support empty, so its 0 is exact."""
    kg = KnowledgeGraph()
    hub = kg.add_node("Hub", ["Place"])
    thing = kg.add_node("T", ["Thing"])
    kg.add_edge(hub, "different", thing)
    space = _space("rel", "different", seed=9)
    config = PaperConfig(seed=2, tau=1.0, max_rounds=2, min_rounds=1)
    result = sampled_engine(kg, space, config).execute(_count_query())
    assert result.value == 0.0
    assert not result.converged
    census = ApproximateAggregateEngine(
        kg, space, EngineConfig(seed=2, tau=1.0)
    ).execute(_count_query())
    assert (census.value, census.moe) == (0.0, 0.0)
    assert census.converged and census.stop_reason == STOP_CENSUS


# ---------------------------------------------------------------------------
# Estimator-level injections
# ---------------------------------------------------------------------------
def test_avg_with_zero_correct_draws_raises():
    sample = EstimationSample(
        values=np.array([1.0, 2.0]),
        probabilities=np.array([0.5, 0.5]),
        correct=np.array([False, False]),
    )
    with pytest.raises(EstimationError):
        estimate_avg(sample)


def test_probabilities_outside_unit_interval_rejected():
    with pytest.raises(EstimationError):
        EstimationSample(
            values=np.array([1.0]),
            probabilities=np.array([1.5]),
            correct=np.array([True]),
        )
    with pytest.raises(EstimationError):
        EstimationSample(
            values=np.array([1.0]),
            probabilities=np.array([0.0]),
            correct=np.array([True]),
        )


def test_misaligned_sample_arrays_rejected():
    with pytest.raises(EstimationError):
        EstimationSample(
            values=np.array([1.0, 2.0]),
            probabilities=np.array([0.5]),
            correct=np.array([True]),
        )


# ---------------------------------------------------------------------------
# Scope / mapping-node helpers under direct attack
# ---------------------------------------------------------------------------
def test_resolve_mapping_node_error_names_the_culprit(tiny_kg):
    with pytest.raises(MappingNodeNotFoundError, match="Nowhere"):
        resolve_mapping_node(tiny_kg, "Nowhere", frozenset({"Place"}))


def test_scope_with_zero_hops_rejected(tiny_kg):
    hub = tiny_kg.node_by_name("Hub")
    with pytest.raises(ReproError):
        build_scope(tiny_kg, hub, 0, frozenset({"Thing"}))


# ---------------------------------------------------------------------------
# Refinement of queries without one guarantee
# ---------------------------------------------------------------------------
def _refine_after_first_run(kg, query, error_bound=0.01):
    """Run ``query`` once, then refine its handle to ``error_bound``."""
    engine = ApproximateAggregateEngine(kg, _space("rel", "unrelated"))
    with engine.service as service:
        handle = service.submit(query)
        handle.result(timeout=30.0)
        handle.refine(error_bound)


def test_refine_rejects_group_by(tiny_kg):
    query = AggregateQuery(
        query=QueryGraph.simple("Hub", ["Place"], "rel", ["Thing"]),
        function=AggregateFunction.COUNT,
        group_by=GroupBy("price"),
    )
    with pytest.raises(ServiceError, match="refine"):
        _refine_after_first_run(tiny_kg, query)


def test_refine_rejects_extremes(tiny_kg):
    query = AggregateQuery(
        query=QueryGraph.simple("Hub", ["Place"], "rel", ["Thing"]),
        function=AggregateFunction.MAX,
        attribute="price",
    )
    with pytest.raises(ServiceError, match="refine"):
        _refine_after_first_run(tiny_kg, query)


# ---------------------------------------------------------------------------
# Embedding-space injections
# ---------------------------------------------------------------------------
def test_unknown_query_predicate_raises_a_clear_error(tiny_kg):
    """A query predicate absent from the embedding is almost always a
    typo; the engine surfaces a named EmbeddingError instead of silently
    sampling on floor-weight transitions."""
    from repro.errors import EmbeddingError

    space = _space("rel", "unrelated")
    engine = ApproximateAggregateEngine(
        tiny_kg,
        space,
        config=EngineConfig(seed=4, tau=0.05),
    )
    with pytest.raises(EmbeddingError, match="never_embedded"):
        engine.execute(_count_query(predicate="never_embedded"))
