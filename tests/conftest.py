"""Shared fixtures: a hand-built miniature KG mirroring the paper's Fig. 1.

The ``toy`` fixtures give tests a fully controlled world
(:mod:`toy_world`): latent predicate vectors with exact cosines to the
canonical ``product`` predicate, sixty correct automobiles split between
a direct-edge schema and a two-hop via-company schema, twenty near-miss
automobiles behind a low-similarity designer path, and background noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AggregateQueryService,
    EngineConfig,
    PredicateVectorSpace,
)
from repro.bench.harness import SampledExecutor
from repro.bench.harness import sampled_engine as _sampled_engine
from repro.bench.sampled import PaperConfig
from repro.core.planner import QueryPlanner
from repro.kg import KnowledgeGraph
from repro.semantics.validation import CorrectnessValidator
from toy_world import ToyWorld, build_toy_world


@pytest.fixture(scope="session")
def toy() -> ToyWorld:
    """Session-scoped toy world (read-only in tests)."""
    return build_toy_world()


@pytest.fixture
def toy_world_factory():
    """Builds fresh toy worlds for tests that mutate the KG or its caches."""
    return build_toy_world


def _drive_lifecycle(executor, aggregate_query, seed, error_bound):
    """Hand-drive ``initialise``, then ``step`` until its outcome names a
    stop reason, then ``finalise``.

    What the scheduler slot does for one run, without a service; returns
    ``(state, result)``.
    """
    state = executor.initialise(aggregate_query, seed)
    run_round, outcome = 0, None
    while outcome is None or outcome.stop_reason is None:
        run_round += 1
        outcome = executor.step(state, error_bound, run_round=run_round)
    return state, executor.finalise(state, outcome)


@pytest.fixture(scope="session")
def drive_lifecycle():
    """The executor's round lifecycle, hand-driven (no service)."""
    return _drive_lifecycle


def _sampled_service(kg, embedding, config=None, **kwargs) -> AggregateQueryService:
    """A service whose executor always samples (``kwargs`` pass through)."""
    space = (
        embedding
        if isinstance(embedding, PredicateVectorSpace)
        else PredicateVectorSpace(embedding)
    )
    config = config or PaperConfig()
    planner = QueryPlanner(kg, space, config)
    executor = SampledExecutor(kg, space, config, planner)
    return AggregateQueryService(
        kg, space, config, planner=planner, executor=executor, **kwargs
    )


@pytest.fixture(scope="session")
def sampled_engine():
    """Builds an engine that never takes the census (:class:`SampledExecutor`)."""
    return _sampled_engine


@pytest.fixture(scope="session")
def sampled_service():
    """Builds a service that never takes the census (:class:`SampledExecutor`)."""
    return _sampled_service


def _path_similarity(space, query_predicate, predicates) -> float:
    """Eq. 2 of the one path ``predicates`` (edge by edge), read off the
    exact row at the end of a graph that is just that path, so the path
    is the end's only match."""
    kg = KnowledgeGraph()
    nodes = [kg.add_node(f"n{index}", ["T"]) for index in range(len(predicates) + 1)]
    for left, right, predicate in zip(nodes, nodes[1:], predicates):
        kg.add_edge(left, predicate, right)
    validator = CorrectnessValidator(
        kg, space, nodes[0], query_predicate, max_length=len(predicates)
    )
    return validator.validate(nodes[-1]).similarity


@pytest.fixture(scope="session")
def path_similarity():
    """Eq. 2 of one path as the production row computes it."""
    return _path_similarity


def _memoised(validator) -> dict[int, float]:
    """Every similarity a plan's validator holds, by node id: an exact
    row's every node once built, a memoising validator's searched nodes."""
    held = getattr(validator, "_row", None) or getattr(validator, "_memo", None)
    if held is None:
        return {}
    similarity = held[0]
    filled = np.flatnonzero(~np.isnan(similarity))
    return dict(zip(filled.tolist(), similarity[filled].tolist()))


@pytest.fixture(scope="session")
def memoised():
    """Reads a validator's held similarities as a dict (:func:`_memoised`)."""
    return _memoised


@pytest.fixture(scope="session")
def fast_config() -> EngineConfig:
    """Engine config for deterministic tests."""
    return EngineConfig(seed=7)


@pytest.fixture(scope="session")
def paper_fast_config() -> PaperConfig:
    """Sampled-engine config tuned for quick, deterministic tests."""
    return PaperConfig(seed=7, max_rounds=8)


@pytest.fixture(scope="session")
def dbpedia_bundle():
    """The small shared DBpedia-like bundle (session-scoped, memoised)."""
    from repro.datasets import dbpedia_like

    return dbpedia_like(seed=0)
