"""Census candidates come from the exact row; pi_A is built on a plan's
first draw.

A production query is a census over its joint candidate set — the nodes
its plans' validators reach, typed as each component's last hop
requires — and runs no S1.
S1 (``PlanSampler.sample``, :mod:`repro.bench.sampled`) runs once per
plan, under the plan's lock, when something first reads pi_A: a
``SampledExecutor`` draw or the figures' planner.  Covered:

* a chain answer behind a cut intermediate (``max_intermediates``) is
  counted, as SSB and ``aggregate_over`` count it;
* a cold production query of every shape on the presets runs no stage
  kernel: its trace has no ``s1_stage`` span;
* a sampled draw on a plan a census used builds pi_A once, two threads
  racing threads included, and answers as a fresh sampled run does;
* simple-component candidates are pi_A's support on the presets;
* the errors of a query without candidates keep their class and text;
* a Node2Vec chain is answered by census, and refused by S1 alone.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import (
    AggregateQueryService,
    ApproximateAggregateEngine,
    EngineConfig,
    LookupEmbedding,
    PredicateVectorSpace,
    QueryGraph,
    QueryShape,
)
from repro.baselines import SemanticSimilarityBaseline
from repro.bench.harness import sampled_engine
from repro.bench.sampled import PaperConfig, PlanSampler, SamplerKind
from repro.core.plan import PlanCache, shared_plan_cache
from repro.core.planner import QueryPlanner
from repro.core.result import STOP_CENSUS
from repro.datasets import ALL_PRESETS, queries_of_shape, standard_workload
from repro.errors import QueryError, SamplingError
from repro.kg import KnowledgeGraph
from repro.query.aggregate import AggregateFunction, AggregateQuery
from repro.query.evaluate import aggregate_over
from repro.server.app import encode_result

_PRESETS = sorted(ALL_PRESETS)


def _parse_gauge(text: str, name: str) -> float:
    (line,) = [line for line in text.splitlines() if line.startswith(f"{name} ")]
    return float(line.split()[1])


def _span_names(span: dict) -> list[str]:
    """The names of ``span`` and every span below it."""
    return [span["name"]] + [
        name for child in span["children"] for name in _span_names(child)
    ]


# ----------------------------------------------------------------------
# the answer behind a cut intermediate
# ----------------------------------------------------------------------
def _cut_chain_world():
    """``hub`` reaches two intermediates; ``strong`` (an exact ``owns``
    edge) outranks ``weak`` (a ``holds`` edge, cosine 0.9) in the first
    stage, so ``max_intermediates=1`` expands ``strong`` only.  The one
    correct answer, ``kept``, hangs off ``weak``; ``strong``'s answer,
    ``missed``, is linked by an unrelated predicate."""
    kg = KnowledgeGraph()
    hub = kg.add_node("hub", ["Hub"])
    strong = kg.add_node("strong", ["Firm"])
    weak = kg.add_node("weak", ["Firm"])
    kept = kg.add_node("kept", ["Car"], {"price": 7.5})
    missed = kg.add_node("missed", ["Car"], {"price": 100.0})
    kg.add_edge(hub, "owns", strong)
    kg.add_edge(hub, "holds", weak)
    kg.add_edge(weak, "makes", kept)
    kg.add_edge(strong, "paints", missed)
    space = PredicateVectorSpace(
        LookupEmbedding(
            {
                "owns": np.array([1.0, 0.0, 0.0]),
                "holds": np.array([0.9, np.sqrt(1.0 - 0.81), 0.0]),
                "makes": np.array([0.0, 0.0, 1.0]),
                "paints": np.array([0.0, 1.0, 0.0]),
            }
        )
    )
    query = QueryGraph.chain(
        "hub", ["Hub"], [("owns", ["Firm"]), ("makes", ["Car"])]
    )
    return kg, space, query, kept, missed


@pytest.mark.parametrize(
    "function", [AggregateFunction.COUNT, AggregateFunction.SUM]
)
def test_the_census_counts_an_answer_behind_a_cut_intermediate(function):
    kg, space, graph, kept, missed = _cut_chain_world()
    query = AggregateQuery(
        query=graph,
        function=function,
        attribute="price" if function.needs_attribute else None,
    )
    engine = ApproximateAggregateEngine(kg, space, EngineConfig(seed=1, n_bound=1))
    plan = engine.planner.plan_for(graph.components[0])
    # pi_A expanded ``strong`` only: ``kept`` is outside its support
    config = PaperConfig(seed=1, n_bound=1, max_intermediates=1)
    distribution = PlanSampler(kg, space, config).sample(plan).distribution
    assert distribution.answers.tolist() == [missed]
    assert plan.candidates(kg).answers.tolist() == [kept, missed]

    result = engine.execute(query, seed=3)
    truth = SemanticSimilarityBaseline(kg, space, n_bound=1).ground_truth(query)
    assert truth.answers == {kept}
    assert result.stop_reason == STOP_CENSUS
    assert result.value == truth.value == aggregate_over(kg, query, {kept})[0]
    assert result.value == (1.0 if function is AggregateFunction.COUNT else 7.5)


# ----------------------------------------------------------------------
# no S1 on the census path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preset", _PRESETS)
def test_a_cold_production_query_of_every_shape_runs_no_stage_kernel(preset):
    bundle = ALL_PRESETS[preset](seed=0, scale=1.0)
    workload = standard_workload(bundle)
    for shape in QueryShape:
        stated = queries_of_shape(workload, shape)
        if not stated:
            continue
        shared_plan_cache().clear()
        with AggregateQueryService(
            bundle.kg, bundle.embedding, EngineConfig(seed=0)
        ) as service:
            handle = service.submit(stated[0].aggregate_query)
            result = handle.result(timeout=60.0)
            text = service.registry.render_prometheus()
            planner = service.planner
            assert result.stop_reason == STOP_CENSUS, (preset, shape)
            assert planner.build_count >= 1
            names = _span_names(handle.trace())
            assert "plan_build" in names and "s1_stage" not in names
            assert _parse_gauge(text, "repro_plan_builds") == planner.build_count


# ----------------------------------------------------------------------
# pi_A on the first draw
# ----------------------------------------------------------------------
def test_a_sampled_draw_on_a_census_plan_builds_pi_a_once(toy):
    shared_plan_cache().clear()
    config = PaperConfig(seed=7, max_rounds=4)
    query = toy.count_query()
    fresh = sampled_engine(toy.kg, toy.embedding, config)
    expected = encode_result(fresh.execute(query, seed=5), timings=False)
    fresh.service.close()

    shared_plan_cache().clear()
    census = ApproximateAggregateEngine(toy.kg, toy.embedding, EngineConfig(seed=7))
    assert census.execute(query, seed=5).stop_reason == STOP_CENSUS
    planner = census.planner
    assert planner.build_count == 1
    plan = planner.plan_for(query.query.components[0])

    # the first draw runs the plan's S1; slow it so every racer waits on it
    sampled = sampled_engine(toy.kg, toy.embedding, config)
    plan_sampler = sampled.executor.sampler
    builds = []
    original = plan_sampler.run

    def slow_run(*args):
        builds.append(threading.get_ident())
        time.sleep(0.05)
        return original(*args)

    plan_sampler.run = slow_run
    racers = 4  # more threads than the test host's cores
    barrier = threading.Barrier(racers)
    states = [None] * racers

    def first_draw(position):
        barrier.wait(timeout=30)
        states[position] = sampled.executor.initialise(query, 5)

    threads = [
        threading.Thread(target=first_draw, args=(i,)) for i in range(racers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert (planner.build_count, plan_sampler.stage_batches) == (1, 1)
    assert sampled.planner.build_count == 0  # it adopted the census's plan
    distribution = plan_sampler.sample(plan).distribution
    assert all(state.joint is distribution for state in states)
    assert len({state.total_draws for state in states}) == 1
    assert states[0].total_draws > 0

    served = encode_result(sampled.execute(query, seed=5), timings=False)
    assert served == expected
    assert plan_sampler.stage_batches == 1
    sampled.service.close()
    census.service.close()


@pytest.mark.parametrize("preset", _PRESETS)
def test_simple_candidates_are_the_support_of_pi_a(preset):
    bundle = ALL_PRESETS[preset](seed=0, scale=1.0)
    space = bundle.space()
    planner = QueryPlanner(bundle.kg, space, EngineConfig(seed=0), cache=PlanCache())
    plan_sampler = PlanSampler(bundle.kg, space)
    components = dict.fromkeys(
        component
        for stated in standard_workload(bundle)
        for component in stated.aggregate_query.query.components
        if component.is_simple
    )
    assert components
    for component in components:
        plan = planner.plan_for(component)
        np.testing.assert_array_equal(
            plan.candidates(bundle.kg).answers,
            np.sort(plan_sampler.sample(plan).distribution.answers),
        )


# ----------------------------------------------------------------------
# the errors of a query without candidates
# ----------------------------------------------------------------------
def _errors(kg, space, query, **knobs):
    """The exception each engine raises on ``query``: production, sampled."""
    raised = []
    for make, config in (
        (ApproximateAggregateEngine, EngineConfig(**knobs)),
        (sampled_engine, PaperConfig(**knobs)),
    ):
        shared_plan_cache().clear()
        engine = make(kg, space, config)
        with pytest.raises((SamplingError, QueryError)) as caught:
            engine.execute(query, seed=1)
        engine.service.close()
        raised.append(caught.value)
    return raised


def test_no_candidate_raises_the_sampling_error_s1_raises(toy):
    query = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Spaceship"]),
        function=AggregateFunction.COUNT,
    )
    census, sampled = _errors(toy.kg, toy.embedding, query, seed=1)
    assert type(census) is type(sampled) is SamplingError
    assert str(census) == str(sampled)

    chain = AggregateQuery(
        query=QueryGraph.chain(
            "Germany",
            ["Country"],
            [("nationality", ["Person"]), ("designer", ["Spaceship"])],
        ),
        function=AggregateFunction.COUNT,
    )
    census, sampled = _errors(toy.kg, toy.embedding, chain, seed=1)
    assert type(census) is type(sampled) is SamplingError


def test_an_empty_joint_raises_the_query_error_of_pi_a():
    kg = KnowledgeGraph()
    left = kg.add_node("left", ["Hub"])
    right = kg.add_node("right", ["Hub"])
    kg.add_edge(left, "owns", kg.add_node("a", ["Car"]))
    kg.add_edge(right, "owns", kg.add_node("b", ["Car"]))
    space = PredicateVectorSpace(LookupEmbedding({"owns": np.array([1.0, 0.0])}))
    query = AggregateQuery(
        query=QueryGraph.compose(
            [
                QueryGraph.simple("left", ["Hub"], "owns", ["Car"]),
                QueryGraph.simple("right", ["Hub"], "owns", ["Car"]),
            ]
        ),
        function=AggregateFunction.COUNT,
    )
    census, sampled = _errors(kg, space, query, seed=1, n_bound=1)
    assert type(census) is type(sampled) is QueryError
    assert str(census) == str(sampled)
    assert "empty intersection" in str(census)


def test_a_node2vec_chain_is_refused_by_s1_before_any_draw(toy, monkeypatch):
    """The Node2Vec ablation has no chain walk.  A census never walks, so
    production plans the chain and answers it; the S1 of a sampled engine
    and of the figures' planner refuses it with one message, before
    anything is walked or drawn."""
    from repro.bench import sampled as sampled_module
    from repro.bench.harness import PaperPlanner

    config = PaperConfig(seed=0, sampler=SamplerKind.NODE2VEC)
    query = toy.chain_count_query()
    shared_plan_cache().clear()
    census = ApproximateAggregateEngine(toy.kg, toy.embedding, EngineConfig(seed=0))
    result = census.execute(query)
    assert (result.stop_reason, result.value) == (STOP_CENSUS, 20.0)
    census.service.close()

    def no_walk_or_draw(*args, **kwargs):
        raise AssertionError("a refused chain walked or drew")

    monkeypatch.setattr(sampled_module, "AnswerCollector", no_walk_or_draw)
    monkeypatch.setattr(sampled_module, "build_scope", no_walk_or_draw)
    sampled = sampled_engine(toy.kg, toy.embedding, config)
    with pytest.raises(QueryError, match="node2vec") as at_initialise:
        sampled.executor.initialise(query, 1)
    assert sampled.executor.sampler.stage_batches == 0
    planner = PaperPlanner(toy.kg, toy.space, config)
    with pytest.raises(QueryError) as at_build:
        planner.plan_for(query.query.components[0])
    assert str(at_build.value) == str(at_initialise.value)
    assert planner.cache.num_plans(toy.kg) == 0
