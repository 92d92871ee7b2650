#!/usr/bin/env python
"""Bring your own knowledge graph: NetworkX in, approximate answers out.

The other examples run on the bundled synthetic datasets.  This one shows
the full path a new user takes with their *own* data:

1. build (or load) a ``networkx`` graph whose nodes carry ``types`` and
   ``attributes`` and whose edges carry ``predicate``;
2. convert it with :func:`repro.kg.interop.from_networkx`;
3. supply predicate semantics — here by training a TransE embedding on
   the graph's own triples, exactly the paper's offline phase;
4. ask questions in AQL text and read confidence-intervalled answers;
5. persist the compiled CSR snapshot through a
   :class:`repro.store.SnapshotCatalog` and memory-map it into a *second*
   engine over a freshly imported graph — the warm start every later
   process gets for free.

The toy domain is a research-collaboration graph: institutes, labs and
papers, where "affiliated" knowledge is wired in several structurally
different ways (direct edges, via labs) — the schema-flexible situation
the paper targets.

Run it with::

    python examples/bring_your_own_graph.py
"""

from __future__ import annotations

import random
import tempfile
import time

import networkx as nx

from repro import (
    ApproximateAggregateEngine,
    EmbeddingTrainer,
    EngineConfig,
    PredicateVectorSpace,
    TrainingConfig,
    TransEModel,
    parse_query,
)
from repro.baselines.ssb import tau_ground_truth
from repro.kg import compute_statistics
from repro.kg.csr import build_call_count
from repro.kg.interop import from_networkx
from repro.store import SnapshotCatalog, load_snapshot


def build_collaboration_graph(seed: int = 42) -> nx.MultiDiGraph:
    """A university with labs, researchers and cited papers.

    Researchers connect to the university either directly
    (``affiliatedWith``/``memberOf``) or through their lab
    (``worksAt`` -> lab -> ``partOf``), mirroring the paper's
    assembly-vs-country example.  A few visitors connect through the
    semantically weaker ``visitedBy``.
    """
    rng = random.Random(seed)
    graph = nx.MultiDiGraph(name="collab")
    graph.add_node("Uni_Arcadia", types=["University"])
    for lab_index in range(4):
        lab = f"Lab_{lab_index}"
        graph.add_node(lab, types=["Lab"])
        graph.add_edge(lab, "Uni_Arcadia", predicate="partOf")
    for person_index in range(120):
        person = f"R{person_index:03d}"
        graph.add_node(
            person,
            types=["Researcher"],
            attributes={
                "h_index": float(rng.randint(3, 60)),
                "papers": float(rng.randint(5, 200)),
            },
        )
        wiring = rng.random()
        if wiring < 0.45:
            graph.add_edge(person, "Uni_Arcadia", predicate="affiliatedWith")
        elif wiring < 0.7:
            graph.add_edge(person, "Uni_Arcadia", predicate="memberOf")
        elif wiring < 0.9:
            graph.add_edge(person, f"Lab_{rng.randrange(4)}", predicate="worksAt")
        else:
            # visitors: semantically *not* an affiliation
            graph.add_edge("Uni_Arcadia", person, predicate="visitedBy")
    return graph


def main() -> None:
    graph = build_collaboration_graph()
    kg = from_networkx(graph)
    stats = compute_statistics(kg)
    print(f"imported {kg.name!r}: {stats.num_nodes} nodes, {stats.num_edges} edges, "
          f"{stats.num_edge_predicates} predicates")

    # Offline phase (paper Algorithm 2, line 1): train TransE on the KG's
    # own triples so predicate cosines reflect co-usage semantics.
    model = TransEModel(
        kg.num_nodes,
        kg.num_predicates,
        dim=24,
        predicate_names=list(kg.predicates),
        seed=1,
    )
    EmbeddingTrainer(TrainingConfig(epochs=40, seed=1)).train(model, kg)
    space = PredicateVectorSpace(model)
    for predicate in ("memberOf", "worksAt", "visitedBy"):
        print(f"  sim(affiliatedWith, {predicate}) = "
              f"{space.similarity('affiliatedWith', predicate):.3f}")

    # Online phase: AQL questions with a 2% error bound.  tau is set
    # permissively because a self-trained space on a toy graph separates
    # less sharply than the reference spaces of the bundled datasets.
    config = EngineConfig(seed=1, error_bound=0.02, tau=0.60)
    engine = ApproximateAggregateEngine(kg, space, config=config)
    questions = [
        "COUNT(*) MATCH (Uni_Arcadia:University)-[affiliatedWith]->(x:Researcher)",
        "AVG(h_index) MATCH (Uni_Arcadia:University)-[affiliatedWith]->(x:Researcher)",
        "SUM(papers) MATCH (Uni_Arcadia:University)-[affiliatedWith]->(x:Researcher)"
        " WHERE h_index >= 30",
    ]
    answers = []
    for aql in questions:
        result = engine.execute(aql)
        answers.append(result)
        truth = tau_ground_truth(kg, space, parse_query(aql), tau=0.60)
        print(f"\n{aql}")
        print(f"  -> {result.describe()}")
        print(f"     exact: {truth.value:,.2f}   "
              f"error: {result.relative_error(truth.value):.2%}")

    # Persist the CSR snapshot, then answer again as "the next process"
    # would: import the graph afresh and memory-map the stored arrays
    # into it instead of recompiling them.
    with tempfile.TemporaryDirectory(prefix="collab-store-") as store_root:
        catalog = SnapshotCatalog(store_root)
        path = catalog.save_snapshot(kg)
        print(f"\nsaved the CSR snapshot to {path}")

        started = time.perf_counter()
        builds_before = build_call_count()
        fresh = from_networkx(graph)
        load_snapshot(catalog.snapshot_path(fresh), fresh)
        second = ApproximateAggregateEngine(fresh, space, config=config)
        for aql, original in zip(questions, answers):
            reserved = second.execute(aql)
            assert reserved.value == original.value, "mapped result diverged"
        warm_ms = (time.perf_counter() - started) * 1e3
        print(
            f"re-served all {len(questions)} questions over the memory-mapped "
            f"snapshot in {warm_ms:,.0f} ms "
            f"(build_csr calls: {build_call_count() - builds_before})"
        )


if __name__ == "__main__":
    main()
