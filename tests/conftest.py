"""Shared fixtures: a hand-built miniature KG mirroring the paper's Fig. 1.

The ``toy`` fixtures give tests a fully controlled world: latent predicate
vectors with exact cosines to the canonical ``product`` predicate, sixty
correct automobiles split between a direct-edge schema and a two-hop
via-company schema, twenty near-miss automobiles behind a low-similarity
designer path, and background noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro import (
    AggregateFunction,
    AggregateQuery,
    EngineConfig,
    LookupEmbedding,
    PredicateVectorSpace,
    QueryGraph,
)
from repro.kg import KnowledgeGraph


@dataclass
class ToyWorld:
    """The miniature KG plus everything tests need to reason about it."""

    kg: KnowledgeGraph
    embedding: LookupEmbedding
    space: PredicateVectorSpace
    germany: int
    companies: list[int]
    people: list[int]
    correct_cars: list[int]
    near_miss_cars: list[int]
    noise_nodes: list[int]

    @property
    def count_truth(self) -> float:
        return float(len(self.correct_cars))

    @property
    def sum_truth(self) -> float:
        return float(sum(self.kg.node(c).attribute("price") for c in self.correct_cars))

    @property
    def avg_truth(self) -> float:
        return self.sum_truth / self.count_truth

    def count_query(self) -> AggregateQuery:
        return AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.COUNT,
        )

    def chain_count_query(self) -> AggregateQuery:
        """Germany -> its people -> the cars they designed, counted."""
        return AggregateQuery(
            query=QueryGraph.chain(
                "Germany",
                ["Country"],
                [("nationality", ["Person"]), ("designer", ["Automobile"])],
            ),
            function=AggregateFunction.COUNT,
        )

    def avg_query(self) -> AggregateQuery:
        return AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.AVG,
            attribute="price",
        )

    def sum_query(self) -> AggregateQuery:
        return AggregateQuery(
            query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            function=AggregateFunction.SUM,
            attribute="price",
        )


def _latent_vectors(seed: int = 0, dim: int = 16) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    base = np.zeros(dim)
    base[0] = 1.0

    def with_cosine(cosine: float) -> np.ndarray:
        noise = rng.normal(size=dim)
        noise[0] = 0.0
        noise /= np.linalg.norm(noise)
        return cosine * base + np.sqrt(max(0.0, 1.0 - cosine * cosine)) * noise

    return {
        "product": base,
        "assembly": with_cosine(0.98),
        "country": with_cosine(0.81),
        "designer": with_cosine(0.45),
        "nationality": with_cosine(0.52),
        "misc": with_cosine(0.10),
    }


def build_toy_world(seed: int = 0) -> ToyWorld:
    kg = KnowledgeGraph("toy")
    germany = kg.add_node("Germany", ["Country"])
    companies = [kg.add_node(f"Company_{i}", ["Company"]) for i in range(5)]
    for company in companies:
        kg.add_edge(company, "country", germany)

    correct_cars = []
    for index in range(60):
        car = kg.add_node(
            f"Car_{index}", ["Automobile"], {"price": 30_000.0 + 100.0 * index}
        )
        correct_cars.append(car)
        if index % 2 == 0:
            kg.add_edge(car, "assembly", germany)
        else:
            kg.add_edge(car, "assembly", companies[index % 5])

    people = [kg.add_node(f"Person_{i}", ["Person"]) for i in range(5)]
    for person in people:
        kg.add_edge(person, "nationality", germany)
    near_miss = []
    for index in range(20):
        car = kg.add_node(
            f"MissCar_{index}", ["Automobile"], {"price": 90_000.0 + 100.0 * index}
        )
        near_miss.append(car)
        kg.add_edge(car, "designer", people[index % 5])

    noise = []
    for index in range(40):
        node = kg.add_node(f"Noise_{index}", ["Thing"])
        noise.append(node)
        kg.add_edge(node, "misc", germany if index % 7 == 0 else companies[index % 5])

    embedding = LookupEmbedding(_latent_vectors(seed))
    return ToyWorld(
        kg=kg,
        embedding=embedding,
        space=PredicateVectorSpace(embedding),
        germany=germany,
        companies=companies,
        people=people,
        correct_cars=correct_cars,
        near_miss_cars=near_miss,
        noise_nodes=noise,
    )


@pytest.fixture(scope="session")
def toy() -> ToyWorld:
    """Session-scoped toy world (read-only in tests)."""
    return build_toy_world()


@pytest.fixture
def toy_world_factory():
    """Builds fresh toy worlds for tests that mutate the KG or its caches."""
    return build_toy_world


def _drive_lifecycle(executor, aggregate_query, seed, error_bound, max_rounds=None):
    """Hand-drive ``initialise`` -> (``grow`` ->) ``step`` -> ``finalise``.

    What the scheduler slot does for one run, without a service; returns
    ``(state, result)``.
    """
    state = executor.initialise(aggregate_query, seed)
    budget = executor.round_budget(state) if max_rounds is None else max_rounds
    for taken in range(budget):
        if taken:
            executor.grow(state, state.rounds[-1], error_bound)
        outcome = executor.step(state, error_bound)
        if outcome.satisfied or outcome.exhausted:
            break
    return state, executor.finalise(state, converged=outcome.satisfied)


@pytest.fixture(scope="session")
def drive_lifecycle():
    """The executor's round lifecycle, hand-driven (no service)."""
    return _drive_lifecycle


@pytest.fixture(scope="session")
def fast_config() -> EngineConfig:
    """Engine config tuned for quick, deterministic tests."""
    return EngineConfig(seed=7, max_rounds=8)


@pytest.fixture(scope="session")
def dbpedia_bundle():
    """The small shared DBpedia-like bundle (session-scoped, memoised)."""
    from repro.datasets import dbpedia_like

    return dbpedia_like(seed=0)
