"""Plan/execute split: plan cache sharing, version counters, batched validation.

Covers the architectural contracts of the plan layer:

* attribute writes never invalidate CSR snapshots or cached plans
  (structure/attribute version split);
* structural mutation evicts both;
* concurrent engines over one graph + embedding share one plan object;
* a plan's validator is its verdict memo, keyed by node id, and survives
  refinement rounds — sessions never revalidate an answer: a simple
  plan's exact row holds every node, a chain plan's memo each node it
  searched, in the support or not;
* composite queries' joint supports are cached beside their plans and
  live and die with them;
* a plan's validator reads the exact Eq. 3 row, SSB's similarities, over
  a real sampled workload; engines at different ``tau`` share one plan.
"""

from __future__ import annotations

import gc
import json
import threading
import weakref

import pytest

from repro import (
    AggregateFunction,
    AggregateQuery,
    AggregateQueryService,
    ApproximateAggregateEngine,
    EngineConfig,
    GroupBy,
    InteractiveSession,
    QueryGraph,
)
from repro.bench.sampled import PlanSampler
from repro.core.executor import QueryExecutor
from repro.core.plan import PlanCache, plan_fingerprint, plan_key, shared_plan_cache
from repro.core.planner import QueryPlanner
from repro.core.config import SamplerKind
from repro.server import encode_result
from repro.kg import csr_snapshot
from repro.semantics import kernels
from repro.semantics.validation import ChainValidator, CorrectnessValidator


@pytest.fixture
def world(toy_world_factory):
    """A fresh toy world per test: isolates the process-wide plan cache."""
    return toy_world_factory()


def _engine(
    world, make=ApproximateAggregateEngine, **overrides
) -> ApproximateAggregateEngine:
    """An engine over the toy world; ``make`` is its constructor (the
    ``sampled_engine`` fixture for a run that must draw)."""
    config = EngineConfig(**{"seed": 7, "max_rounds": 8, **overrides})
    return make(world.kg, world.embedding, config)


def _pi_a(engine, plan):
    """The pi_A a first draw on ``plan`` builds (S1 is the sampled side's)."""
    return PlanSampler(engine.kg, engine.space, engine.config).sample(plan).distribution


def _star_query() -> AggregateQuery:
    """A composite over the toy world's cars: two simple components and
    a chain, so the conjunction has something to skip."""
    return AggregateQuery(
        query=QueryGraph.compose([
            QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
            QueryGraph.simple("Germany", ["Country"], "assembly", ["Automobile"]),
            QueryGraph.chain(
                "Germany",
                ["Country"],
                [("nationality", ["Person"]), ("designer", ["Automobile"])],
            ),
        ]),
        function=AggregateFunction.COUNT,
    )


def _mixed_batch(world) -> list[tuple[AggregateQuery, int]]:
    grouped = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.COUNT,
        group_by=GroupBy("price", bin_width=1000.0),
    )
    return [
        (world.count_query(), 3),
        (world.avg_query(), 4),
        (world.sum_query(), 5),
        (world.chain_count_query(), 6),
        (_star_query(), 7),
        (grouped, 8),
    ]


def _encoded(result) -> str:
    return json.dumps(encode_result(result, timings=False), sort_keys=True)


class TestVersionCounters:
    def test_attribute_write_keeps_snapshot_and_plans(self, world):
        engine = _engine(world)
        engine.execute(world.count_query())
        snapshot = csr_snapshot(world.kg)
        cache = shared_plan_cache()
        plans_before = cache.num_plans(world.kg)
        assert plans_before >= 1
        component = world.count_query().query.components[0]
        plan_before = engine.planner.plan_for(component)

        world.kg.set_attribute(world.correct_cars[0], "price", 99_999.0)

        assert csr_snapshot(world.kg) is snapshot
        assert cache.num_plans(world.kg) == plans_before
        fresh = _engine(world)
        fresh.execute(world.count_query())
        assert fresh.planner.plan_for(component) is plan_before

    def test_structural_mutation_evicts_snapshot_and_plans(self, world):
        engine = _engine(world)
        engine.execute(world.count_query())
        snapshot = csr_snapshot(world.kg)
        cache = shared_plan_cache()
        assert cache.num_plans(world.kg) >= 1
        component = world.count_query().query.components[0]
        plan_before = engine.planner.plan_for(component)

        late_car = world.kg.add_node(
            "LateCar", ["Automobile"], {"price": 45_000.0}
        )
        world.kg.add_edge(late_car, "assembly", world.germany)

        assert csr_snapshot(world.kg) is not snapshot
        assert cache.num_plans(world.kg) == 0
        # the next execution replans against the new structure — including
        # the engine that planned before the mutation
        engine.execute(world.count_query())
        assert engine.planner.plan_for(component) is not plan_before
        assert cache.num_plans(world.kg) >= 1

    def test_structural_mutation_gives_a_fresh_chain_row(self, world):
        """A chain plan owns its similarity row: an attribute write keeps
        the plan and the row, a structural mutation yields a new plan with
        a fresh row over the new graph, and the old plan keeps its own."""
        engine = _engine(world)
        query = world.chain_count_query()
        component = query.query.components[0]
        engine.execute(query)
        plan = engine.planner.plan_for(component)
        row = plan.validator.row()

        world.kg.set_attribute(world.people[0], "age", 40.0)
        engine.execute(query, seed=1)
        assert engine.planner.plan_for(component) is plan
        assert plan.validator.row() is row

        late = world.kg.add_node("LatePerson", ["Person"])
        world.kg.add_edge(late, "nationality", world.germany)
        engine.execute(query)
        fresh = engine.planner.plan_for(component)
        assert fresh is not plan
        assert len(fresh.validator.row()[0]) == world.kg.num_nodes
        assert plan.validator.row() is row
        assert len(row[0]) == world.kg.num_nodes - 1

    def test_store_discards_plan_built_against_stale_structure(self, world):
        engine = _engine(world)
        engine.execute(world.count_query())
        cache = shared_plan_cache()
        component = world.count_query().query.components[0]
        plan = engine.planner.plan_for(component)
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
        evicted = weakref.ref(planner.plan_for(count_component))
        assert small.num_plans(world.kg) == 1
        other = QueryGraph.simple(
            "Germany", ["Country"], "assembly", ["Automobile"]
        ).components[0]
        kept = planner.plan_for(other)
        assert small.num_plans(world.kg) == 1  # bounded: oldest evicted
        assert small.lookup(
            world.kg, plan_key(count_component, space, config)
        ) is None
        # the planner pins no plan of its own: the bound bounds memory
        gc.collect()
        assert evicted() is None
        assert planner.plan_for(other) is kept
        assert planner.build_count == 2

    def test_a_dropped_graph_is_collected_with_its_plans(self, toy_world_factory):
        """A cached plan's validator holds its graph, so the cache keeps
        the graph's entry on the graph: once every caller dropped the
        graph, the garbage collector frees it, its plans and its joints."""
        world = toy_world_factory()
        kg, space = world.kg, world.space
        cache = PlanCache()
        planner = QueryPlanner(kg, space, EngineConfig(seed=7), cache=cache)
        executor = QueryExecutor(kg, space, planner.config, planner)
        executor.initialise(_star_query(), 1)  # three plans and a joint
        assert (cache.num_plans(kg), cache.num_joints(kg)) == (3, 1)
        graph = weakref.ref(kg)
        del world, kg, planner, executor
        gc.collect()
        assert graph() is None
        assert len(cache._graphs) == 0

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
            first.planner.plan_for(component)
            is second.planner.plan_for(component)
        )

    def test_shared_plan_skips_rebuild_and_revalidation(
        self, world, monkeypatch, sampled_engine
    ):
        first = _engine(world, make=sampled_engine)
        first.execute(world.count_query())
        component = world.count_query().query.components[0]
        plan = first.planner.plan_for(component)
        assert plan.validator._row is not None

        second = _engine(world, make=sampled_engine)
        builds: list[int] = []
        original = kernels.leg_sums

        def counting(*args, **kwargs):
            builds.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "leg_sums", counting)
        result = second.execute(world.count_query())
        assert result.total_draws > 0
        # the shared plan's row already held every answer the second
        # engine drew, so it was read, never computed again
        assert builds == []
        assert second.planner.plan_for(component) is plan

    def test_engines_at_different_tau_share_one_plan(self, world):
        """The verdict column holds exact similarities and each query
        compares them with its own tau, so the threshold is not part of
        the plan key: one build serves both, and each result equals a run
        on a cleared cache."""
        results = {}
        for tau in (0.85, 0.9):
            shared_plan_cache().clear()
            results[tau] = _encoded(
                _engine(world, tau=tau).execute(world.count_query())
            )
        shared_plan_cache().clear()
        first = _engine(world, tau=0.85)
        second = _engine(world, tau=0.9)
        assert _encoded(first.execute(world.count_query())) == results[0.85]
        assert _encoded(second.execute(world.count_query())) == results[0.9]
        assert (first.planner.build_count, second.planner.build_count) == (1, 0)
        component = world.count_query().query.components[0]
        assert first.planner.plan_for(component) is second.planner.plan_for(component)
        assert results[0.85] != results[0.9]

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

        def recording(self, answers, *args, **kwargs):
            answers = list(answers)
            validated.extend(answers)
            return original(self, answers, *args, **kwargs)

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

    def test_plan_validator_reads_the_exact_row(self, world, sampled_engine):
        """The plan's validator gives SSB's similarity per sampled answer,
        and a batch equals its answers one at a time."""
        from repro.semantics.matching import best_matches_from

        engine = _engine(world, make=sampled_engine)
        plan, answers = self._sampled_workload(world, engine)
        matches = best_matches_from(
            world.kg,
            world.space,
            plan.component.predicates[0],
            plan.source,
            engine.config.n_bound,
        )
        batch = plan.validator.validate_batch(answers)
        assert batch.answers.tolist() == answers
        for position, answer in enumerate(answers):
            outcome = batch.outcome(position)
            assert outcome == plan.validator.validate(answer)
            assert outcome.similarity == pytest.approx(
                matches[answer].similarity, rel=1e-12
            )

    def test_validation_stage_is_reported(self, world):
        result = _engine(world).execute(world.count_query())
        assert "validation" in result.stage_ms
        assert result.stage_ms["validation"] >= 0.0


class TestValidatorMemos:
    """A plan's validator is its verdict memo, keyed by node id: a simple
    or a chain plan's exact row holds every node once built, in the
    support or not."""

    def test_warm_pass_builds_each_chain_row_once(self, world, monkeypatch, memoised):
        built: list[int] = []
        original = ChainValidator._build_row

        def recording(self):
            built.append(id(self))
            return original(self)

        monkeypatch.setattr(ChainValidator, "_build_row", recording)
        batch = _mixed_batch(world)
        config = EngineConfig(seed=7, max_rounds=8)
        with AggregateQueryService(world.kg, world.embedding, config) as service:
            for handle in service.submit_batch(batch):
                handle.result(timeout=60)
        engine = _engine(world)
        plans = {
            id(plan): plan
            for plan in (
                engine.planner.plan_for(component)
                for query, _seed in batch
                for component in query.query.components
            )
        }
        assert len(plans) == 3
        chains = [
            id(plan.validator)
            for plan in plans.values()
            if not plan.component.is_simple
        ]
        assert sorted(built) == sorted(chains)  # one build per chain plan
        for plan in plans.values():
            memo = memoised(plan.validator)
            held = [a for a in _pi_a(engine, plan).answers.tolist() if a in memo]
            assert held
            for answer in held:
                assert engine.answer_similarity([plan], answer) == memo[answer]

    def test_off_support_nodes_are_validated_too(self, world):
        engine = _engine(world)
        simple = engine.planner.plan_for(world.count_query().query.components[0])
        chain = engine.planner.plan_for(world.chain_count_query().query.components[0])
        for plan in (simple, chain):
            outside = next(
                node
                for node in world.people
                if node not in _pi_a(engine, plan).answers.tolist()
            )
            similarity = engine.answer_similarity([plan], outside)
            assert similarity == plan.validator.validate(outside).similarity
            assert plan.validator.row()[0][outside] == similarity

    def test_prewarm_builds_the_row(self, world, memoised):
        engine = _engine(world)
        component = world.chain_count_query().query.components[0]
        plan = engine.planner.plan_for(component)
        answers = _pi_a(engine, plan).answers[:10].tolist()
        outside = next(
            node
            for node in world.people
            if node not in _pi_a(engine, plan).answers.tolist()
        )
        assert plan.validator._row is None
        engine.executor.prewarm_similarities([plan], answers + answers[:3] + [outside])
        memo = memoised(plan.validator)
        assert len(memo) == world.kg.num_nodes

        shared_plan_cache().clear()
        cold = _engine(world)
        cold_plan = cold.planner.plan_for(component)
        assert cold_plan is not plan
        for answer in answers + [outside]:
            assert cold.answer_similarity([cold_plan], answer) == memo[answer]

    def test_two_services_sharing_plans_match_sequential(self, world):
        """Two services on their own threads batch over the same shared
        plans — one writing verdict cells the other is reading — and
        return what one service returns running the queries one by one."""
        batch = _mixed_batch(world)
        config = EngineConfig(seed=7, max_rounds=8)
        shared_plan_cache().clear()
        with AggregateQueryService(world.kg, world.embedding, config) as service:
            sequential = [
                _encoded(service.submit(query, seed=seed).result(timeout=60))
                for query, seed in batch
            ]

        shared_plan_cache().clear()
        services = [
            AggregateQueryService(world.kg, world.embedding, config) for _ in range(2)
        ]
        outcomes: list[list[str] | None] = [None, None]
        start = threading.Barrier(2)

        def run(index: int) -> None:
            start.wait()
            handles = services[index].submit_batch(batch)
            outcomes[index] = [
                _encoded(handle.result(timeout=60)) for handle in handles
            ]

        threads = [threading.Thread(target=run, args=(index,)) for index in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            for service in services:
                service.close()
        assert outcomes[0] == sequential
        assert outcomes[1] == sequential
        # one plan per component, shared by both services
        assert shared_plan_cache().num_plans(world.kg) == 3


class TestJointSupports:
    """A composite query's joint candidate set (the intersection of its
    plans' candidates, which a census counts over) is cached in the plan
    cache beside its plans, keyed by their plan keys."""

    def test_two_submits_share_one_joint(self, world, monkeypatch):
        joints = []
        original = QueryExecutor.initialise

        def recording(self, *args, **kwargs):
            state = original(self, *args, **kwargs)
            joints.append(state.joint)
            return state

        monkeypatch.setattr(QueryExecutor, "initialise", recording)
        config = EngineConfig(seed=7, max_rounds=8)
        with AggregateQueryService(world.kg, world.embedding, config) as service:
            service.submit(_star_query(), seed=1).result(timeout=60)
            service.submit(_star_query(), seed=2).result(timeout=60)
            service.submit(world.count_query(), seed=3).result(timeout=60)
        first, second, plain = joints
        assert second is first
        assert shared_plan_cache().num_joints(world.kg) == 1
        # a single component's is its plan's own candidate set
        plan = _engine(world).planner.plan_for(world.count_query().query.components[0])
        assert plain is plan.candidates(world.kg)

    def test_structural_mutation_gives_a_fresh_joint(self, world):
        engine = _engine(world)
        before = engine.executor.initialise(_star_query(), 1).joint
        assert engine.executor.initialise(_star_query(), 2).joint is before
        late = world.kg.add_node("LateCar", ["Automobile"], {"price": 45_000.0})
        world.kg.add_edge(late, "assembly", world.germany)
        assert shared_plan_cache().num_joints(world.kg) == 0
        after = engine.executor.initialise(_star_query(), 1).joint
        assert after is not before
        assert late in after.answers and late not in before.answers
        assert shared_plan_cache().num_joints(world.kg) == 1

    def test_clear_leaves_no_joint_reachable(self, world):
        engine = _engine(world)
        state = engine.executor.initialise(_star_query(), 1)
        ref = weakref.ref(state.joint)
        del state
        gc.collect()
        assert ref() is not None  # the cache holds it
        shared_plan_cache().clear()
        gc.collect()
        assert ref() is None

    def test_cold_composite_loop_retains_no_joint(self, world, monkeypatch):
        built = []
        original = QueryExecutor._candidate_intersection

        def recording(self, plans):
            joint = original(self, plans)
            built.append(weakref.ref(joint))
            return joint

        monkeypatch.setattr(QueryExecutor, "_candidate_intersection", recording)
        for seed in range(20):
            shared_plan_cache().clear()
            # a finished query's state holds its joint too: closing the
            # engine's service releases it, so only the cache is left
            with _engine(world).service as service:
                service.submit(_star_query(), seed=seed).result(timeout=60)
        del service
        gc.collect()
        assert len(built) == 20
        assert [ref() is not None for ref in built] == [False] * 19 + [True]
        shared_plan_cache().clear()
        gc.collect()
        assert all(ref() is None for ref in built)

    def test_evicting_a_plan_drops_its_joints(self, world):
        config = EngineConfig(seed=7, max_rounds=8)
        space = _engine(world).space
        small = PlanCache(max_plans_per_graph=3)
        planner = QueryPlanner(world.kg, space, config, cache=small)
        executor = QueryExecutor(world.kg, space, config, planner)
        joint = executor.initialise(_star_query(), 1).joint
        assert executor.initialise(_star_query(), 2).joint is joint
        assert (small.num_plans(world.kg), small.num_joints(world.kg)) == (3, 1)
        planner.plan_for(
            QueryGraph.simple("Germany", ["Country"], "misc", ["Thing"]).components[0]
        )
        assert (small.num_plans(world.kg), small.num_joints(world.kg)) == (3, 0)

    def test_unpublished_plans_get_a_private_joint(self, world):
        engine = _engine(world)
        components = _star_query().query.components
        plans = [engine.planner.plan_for(component) for component in components]
        keys = tuple(plan_key(c, engine.space, engine.config) for c in components)
        cache = shared_plan_cache()
        builds = []

        def build():
            builds.append(engine.executor._candidate_intersection(plans))
            return builds[-1]

        shared = cache.joint_for(world.kg, keys, plans, build)
        assert cache.joint_for(world.kg, keys, plans, build) is shared
        cache.clear()  # the plans are no longer the published ones
        private = cache.joint_for(world.kg, keys, plans, build)
        assert private is not shared and len(builds) == 2
        assert cache.num_joints(world.kg) == 0
