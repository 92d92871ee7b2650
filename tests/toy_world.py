"""The toy world: a hand-built miniature KG mirroring the paper's Fig. 1.

Latent predicate vectors with exact cosines to the canonical ``product``
predicate, sixty correct automobiles split between a direct-edge schema
and a two-hop via-company schema, twenty near-miss automobiles behind a
low-similarity designer path, and background noise.  ``conftest.py``
serves it as the ``toy`` fixtures; it imports only the public library, so
a fresh interpreter can build it without loading the paper's sampler
(``test_import_closure.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import (
    AggregateFunction,
    AggregateQuery,
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
    def support_size(self) -> int:
        """The simple queries' support: every automobile, kept or not.  A
        ``max_sample_size`` below it turns the census-first rule off."""
        return len(self.correct_cars) + len(self.near_miss_cars)

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
