"""Plan/execute split: plan cache sharing, version counters, batched validation.

Covers the architectural contracts of the plan layer:

* attribute writes never invalidate CSR snapshots or cached plans
  (structure/attribute version split);
* structural mutation evicts both;
* concurrent engines over one graph + embedding share one plan object;
* the per-plan verdict memo survives refinement rounds — sessions never
  revalidate an answer;
* ``validate_batch`` produces outcomes identical to per-answer
  ``validate`` over a real sampled workload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ApproximateAggregateEngine,
    EngineConfig,
    InteractiveSession,
    QueryGraph,
)
from repro.core.plan import plan_fingerprint, plan_key, shared_plan_cache
from repro.core.config import SamplerKind
from repro.kg import csr_snapshot
from repro.semantics.validation import CorrectnessValidator


@pytest.fixture
def world(toy_world_factory):
    """A fresh toy world per test: isolates the process-wide plan cache."""
    return toy_world_factory()


def _engine(world, **overrides) -> ApproximateAggregateEngine:
    config = EngineConfig(**{"seed": 7, "max_rounds": 8, **overrides})
    return ApproximateAggregateEngine(world.kg, world.embedding, config)


class TestVersionCounters:
    def test_attribute_write_keeps_snapshot_and_plans(self, world):
        engine = _engine(world)
        engine.execute(world.count_query())
        snapshot = csr_snapshot(world.kg)
        cache = shared_plan_cache()
        plans_before = cache.num_plans(world.kg)
        assert plans_before >= 1
        component = world.count_query().query.components[0]
        plan_before = engine.planner.plans[component]

        world.kg.set_attribute(world.correct_cars[0], "price", 99_999.0)

        assert csr_snapshot(world.kg) is snapshot
        assert cache.num_plans(world.kg) == plans_before
        fresh = _engine(world)
        fresh.execute(world.count_query())
        assert fresh.planner.plans[component] is plan_before

    def test_structural_mutation_evicts_snapshot_and_plans(self, world):
        engine = _engine(world)
        engine.execute(world.count_query())
        snapshot = csr_snapshot(world.kg)
        cache = shared_plan_cache()
        assert cache.num_plans(world.kg) >= 1
        component = world.count_query().query.components[0]
        plan_before = engine.planner.plans[component]

        late_car = world.kg.add_node(
            "LateCar", ["Automobile"], {"price": 45_000.0}
        )
        world.kg.add_edge(late_car, "assembly", world.germany)

        assert csr_snapshot(world.kg) is not snapshot
        assert cache.num_plans(world.kg) == 0
        # the next execution replans against the new structure — including
        # the engine that planned before the mutation
        engine.execute(world.count_query())
        assert engine.planner.plans[component] is not plan_before
        assert cache.num_plans(world.kg) >= 1

    def test_typed_nodes_cache_follows_structure(self, world):
        engine = _engine(world)
        before = engine.executor._typed_nodes(frozenset(["Automobile"]))
        late = world.kg.add_node("LateAuto", ["Automobile"], {"price": 1.0})
        after = engine.executor._typed_nodes(frozenset(["Automobile"]))
        assert late not in before
        assert late in after
        # attribute writes keep the cached set (same identity)
        world.kg.set_attribute(late, "price", 2.0)
        assert engine.executor._typed_nodes(frozenset(["Automobile"])) is after

    def test_store_discards_plan_built_against_stale_structure(self, world):
        engine = _engine(world)
        engine.execute(world.count_query())
        cache = shared_plan_cache()
        component = world.count_query().query.components[0]
        plan = engine.planner.plans[component]
        key = plan_key(component, engine.space, engine.config)
        stale_version = world.kg.structure_version
        world.kg.add_node("MidBuild", ["Thing"])  # mutation during a "build"
        returned = cache.store(world.kg, key, plan, stale_version)
        assert returned is plan  # handed back to its builder...
        assert cache.lookup(world.kg, key) is None  # ...but never published

    def test_lru_bound_evicts_oldest_plan(self, world):
        from repro.core.plan import PlanCache
        from repro.core.planner import QueryPlanner

        small = PlanCache(max_plans_per_graph=1)
        config = EngineConfig(seed=7, max_rounds=8)
        space = ApproximateAggregateEngine(
            world.kg, world.embedding, config
        ).space
        planner = QueryPlanner(world.kg, space, config, cache=small)
        count_component = world.count_query().query.components[0]
        plan = planner.plan_for(count_component)
        assert small.num_plans(world.kg) == 1
        other = QueryGraph.simple(
            "Germany", ["Country"], "assembly", ["Automobile"]
        ).components[0]
        planner.plan_for(other)
        assert small.num_plans(world.kg) == 1  # bounded: oldest evicted
        assert small.lookup(
            world.kg, plan_key(count_component, space, config)
        ) is None
        # evicted from the shared cache, but the planner's local view (and
        # any engine holding the plan) keeps working
        assert planner.plan_for(count_component) is plan

    def test_total_version_counts_both(self, world):
        total = world.kg.version
        world.kg.set_attribute(world.correct_cars[0], "price", 1.0)
        assert world.kg.version == total + 1
        world.kg.add_node("Extra", ["Thing"])
        assert world.kg.version == total + 2


class TestPlanSharing:
    def test_two_engines_share_one_plan(self, world):
        first = _engine(world)
        second = _engine(world)
        first.execute(world.count_query())
        second.execute(world.avg_query())  # same component, different query
        component = world.count_query().query.components[0]
        assert (
            first.planner.plans[component]
            is second.planner.plans[component]
        )

    def test_shared_plan_skips_rebuild_and_revalidation(self, world):
        first = _engine(world)
        first.execute(world.count_query())
        component = world.count_query().query.components[0]
        plan = first.planner.plans[component]
        memo_size = len(plan.similarity_cache)
        assert memo_size > 0

        second = _engine(world)
        calls: list[int] = []
        original = CorrectnessValidator.validate_batch

        def counting(self, source, answers, *args, **kwargs):
            answers = list(answers)
            calls.extend(answers)
            return original(self, source, answers, *args, **kwargs)

        CorrectnessValidator.validate_batch = counting
        try:
            result = second.execute(world.count_query())
        finally:
            CorrectnessValidator.validate_batch = original
        assert result.total_draws > 0
        # every answer the second engine drew was already in the shared
        # memo, so the validation service was never asked again
        assert calls == []
        assert second.planner.plans[component] is plan

    def test_different_tau_means_different_plan(self, world):
        first = _engine(world)
        second = _engine(world, tau=0.7)
        first.execute(world.count_query())
        second.execute(world.count_query())
        component = world.count_query().query.components[0]
        assert (
            first.planner.plans[component]
            is not second.planner.plans[component]
        )

    def test_seed_is_not_part_of_semantic_fingerprint(self):
        semantic_a = plan_fingerprint(EngineConfig(seed=1))
        semantic_b = plan_fingerprint(EngineConfig(seed=2))
        assert semantic_a == semantic_b
        node2vec_a = plan_fingerprint(
            EngineConfig(seed=1, sampler=SamplerKind.NODE2VEC)
        )
        node2vec_b = plan_fingerprint(
            EngineConfig(seed=2, sampler=SamplerKind.NODE2VEC)
        )
        assert node2vec_a != node2vec_b

    def test_plan_key_follows_embedding_identity(self, world, toy_world_factory):
        engine = _engine(world)
        other_world = toy_world_factory()
        component = world.count_query().query.components[0]
        same = plan_key(component, engine.space, engine.config)
        other_space = ApproximateAggregateEngine(
            other_world.kg, other_world.embedding, engine.config
        ).space
        assert same == plan_key(component, engine.space, engine.config)
        assert same != plan_key(component, other_space, engine.config)


class TestValidationMemo:
    def test_refinement_never_revalidates(self, world):
        engine = ApproximateAggregateEngine(
            world.kg, world.embedding, EngineConfig(seed=11, error_bound=0.05)
        )
        validated: list[int] = []
        original = CorrectnessValidator.validate_batch

        def recording(self, source, answers, *args, **kwargs):
            answers = list(answers)
            validated.extend(answers)
            return original(self, source, answers, *args, **kwargs)

        CorrectnessValidator.validate_batch = recording
        try:
            session = InteractiveSession(engine, world.avg_query(), seed=3)
            session.refine(0.05)
            session.refine(0.02)
            session.refine(0.01)
        finally:
            CorrectnessValidator.validate_batch = original
        assert len(validated) > 0
        assert len(validated) == len(set(validated)), (
            "an answer was validated more than once across refinement rounds"
        )

    def test_loosening_records_zero_cost_step(self, world):
        engine = ApproximateAggregateEngine(
            world.kg, world.embedding, EngineConfig(seed=11, error_bound=0.05)
        )
        session = InteractiveSession(engine, world.avg_query(), seed=3)
        tight = session.refine(0.02)
        loose = session.refine(0.05)
        assert loose.additional_draws == 0
        assert loose.incremental_seconds == 0.0
        assert loose.result is tight.result  # no re-run at all
        assert len(session.history) == 2
        assert session.current_result is loose.result


class TestBatchedValidationEquivalence:
    def _sampled_workload(self, world, engine) -> tuple:
        """The engine's real workload: plan + the distinct sampled answers."""
        state = engine.executor.initialise(world.count_query(), seed=5)
        plan = state.components[0]
        answers = [
            int(state.joint.answers[index])
            for index in state.distinct_support_indices()
        ]
        assert len(answers) >= 10
        return plan, answers

    @pytest.mark.parametrize("stop_threshold", [None, 0.85])
    def test_batch_equals_per_answer(self, world, stop_threshold):
        engine = _engine(world)
        plan, answers = self._sampled_workload(world, engine)
        predicate = plan.component.predicates[0]

        def fresh_validator() -> CorrectnessValidator:
            return CorrectnessValidator(
                world.kg,
                world.space,
                repeat_factor=engine.config.repeat_factor,
                max_length=engine.config.n_bound,
                floor=engine.config.similarity_floor,
                expansion_budget=engine.config.validation_expansions,
            )

        single = fresh_validator()
        expected = {
            answer: single.validate(
                plan.source, answer, predicate, plan.visiting, stop_threshold
            )
            for answer in answers
        }
        batched = fresh_validator().validate_batch(
            plan.source,
            answers,
            predicate,
            plan.visiting,
            stop_threshold=stop_threshold,
        )
        assert batched == expected

    def test_mapping_and_array_visiting_agree(self, world):
        engine = _engine(world)
        plan, answers = self._sampled_workload(world, engine)
        predicate = plan.component.predicates[0]
        as_mapping = {
            node: float(probability)
            for node, probability in enumerate(plan.visiting)
            if probability > 0.0
        }
        validator = CorrectnessValidator(world.kg, world.space)
        via_array = validator.validate_batch(
            plan.source, answers, predicate, plan.visiting
        )
        via_mapping = CorrectnessValidator(world.kg, world.space).validate_batch(
            plan.source, answers, predicate, as_mapping
        )
        assert via_array == via_mapping

    def test_validate_batch_routes_stop_threshold(self, world):
        engine = _engine(world)
        plan, answers = self._sampled_workload(world, engine)
        predicate = plan.component.predicates[0]
        full = CorrectnessValidator(
            world.kg, world.space, repeat_factor=5
        ).validate_batch(plan.source, answers, predicate, plan.visiting)
        quick = CorrectnessValidator(
            world.kg, world.space, repeat_factor=5
        ).validate_batch(
            plan.source, answers, predicate, plan.visiting, stop_threshold=0.5
        )
        assert sum(o.expansions for o in quick.values()) < sum(
            o.expansions for o in full.values()
        )
        # the short-circuit is sound: >= tau verdicts agree
        for answer in answers:
            assert (quick[answer].similarity >= 0.5) == (
                full[answer].similarity >= 0.5
            )

    def test_validation_stage_is_reported(self, world):
        result = _engine(world).execute(world.count_query())
        assert "validation" in result.stage_ms
        assert result.stage_ms["validation"] >= 0.0
