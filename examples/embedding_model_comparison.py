#!/usr/bin/env python
"""Train and compare KG embedding models (paper §VII-D, Table XIII).

The engine's sampling quality rests on how well the predicate vector space
separates semantically-close predicates (``assembly`` ~ ``product``) from
distractors (``fanbaseIn``).  This example trains the five models the
paper compares — TransE, TransH, TransD, RESCAL, SE — on the triples of a
small bundle, then scores each by:

* embedding time,
* predicate-similarity quality (correct-schema predicates must outrank
  near-miss predicates w.r.t. the canonical predicate), and
* end-to-end engine error when the trained space replaces the reference
  (latent) one.

Run it with::

    python examples/embedding_model_comparison.py
"""

from __future__ import annotations

import time

from repro import (
    AggregateFunction,
    AggregateQuery,
    ApproximateAggregateEngine,
    EngineConfig,
    EmbeddingTrainer,
    PredicateVectorSpace,
    QueryGraph,
    RescalModel,
    StructuredEmbeddingModel,
    TrainingConfig,
    TransDModel,
    TransEModel,
    TransHModel,
)
from repro.datasets import AnnotationOracle, dbpedia_like

MODELS = {
    "TransE": TransEModel,
    "TransH": TransHModel,
    "TransD": TransDModel,
    "RESCAL": RescalModel,
    "SE": StructuredEmbeddingModel,
}

#: correct-schema predicates vs near-miss predicates for the Germany hub
CANONICAL = "product"
CORRECT = ("assembly", "manufacturer")
NEAR_MISS = ("designer", "seeAlso")


def separation_score(space: PredicateVectorSpace) -> float:
    """Mean margin by which correct predicates outrank near-misses."""
    margins = []
    for good in CORRECT:
        for bad in NEAR_MISS:
            margins.append(
                space.similarity(good, CANONICAL) - space.similarity(bad, CANONICAL)
            )
    return sum(margins) / len(margins)


def main() -> None:
    bundle = dbpedia_like(seed=7)
    kg = bundle.kg
    query = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.AVG,
        attribute="price",
    )
    # HA-GT: the simulated 10-annotator intersection protocol (§VII-A).
    # Unlike tau-GT it does not depend on any predicate space, so it is the
    # fair yardstick when the space itself is what varies.
    truth = AnnotationOracle(bundle).ground_truth(query)
    print(f"query: {query.describe()}")
    print(f"HA-GT (simulated annotators): {truth.value:,.2f}\n")

    trainer = EmbeddingTrainer(TrainingConfig(epochs=20, seed=7))
    print("model   train (s)  separation  engine error")
    for name, model_cls in MODELS.items():
        model = model_cls(
            kg.num_nodes,
            kg.num_predicates,
            dim=32,
            predicate_names=list(kg.predicates),
            seed=7,
        )
        started = time.perf_counter()
        trainer.train(model, kg)
        train_seconds = time.perf_counter() - started

        space = PredicateVectorSpace(model)
        engine = ApproximateAggregateEngine(kg, space, config=EngineConfig(seed=7))
        result = engine.execute(query)
        error = result.relative_error(truth.value)
        print(
            f"{name:<7} {train_seconds:>8.2f}  {separation_score(space):>10.3f}"
            f"  {error:>11.2%}"
        )

    print(
        "\nTranslation-family models (TransE/H/D) separate the predicate space"
        "\nbest and train fastest, matching the paper's Table XIII ordering;"
        "\nRESCAL and SE need far more capacity to reach the same separation."
        "\nDownstream engine error moves less than the separation score does:"
        "\nexact-predicate matches validate under any space (cosine with"
        "\nitself is 1), so only the schema-flexible fraction is at stake."
    )


if __name__ == "__main__":
    main()
