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
* a plan memoises its kept set per tau (node ids only): engines at two
  taus share one plan build, racing first censuses read equal sets, and
  an attribute write reaches the next warm census;
* a composite query's joint candidate set is intersected per query, so
  a node added under its components reaches the next census;
* ``PlanCache.get_or_build`` is the only publication path: a raising
  builder hands the build to one waiter, a plan built across a
  structural write stays private;
* engines that differ only in what S1 reads share one plan;
* a plan's validator reads the exact Eq. 3 row, SSB's similarities, over
  a real sampled workload; engines at different ``tau`` share one plan.
"""

from __future__ import annotations

import gc
import json
import threading
import time
import weakref

import numpy as np
import pytest

from repro import (
    AggregateFunction,
    AggregateQuery,
    AggregateQueryService,
    ApproximateAggregateEngine,
    EngineConfig,
    Filter,
    GroupBy,
    QueryGraph,
)
from repro.bench.sampled import PaperConfig, PlanSampler, SamplerKind
from repro.core.executor import QueryExecutor
from repro.core.plan import PlanCache, plan_fingerprint, plan_key, shared_plan_cache
from repro.core.result import STOP_CENSUS
from repro.core.planner import QueryPlanner
from repro.server import encode_result
from repro.kg import csr_snapshot
from repro.query.evaluate import aggregate_over, is_usable_answer
from repro.semantics import kernels
from repro.semantics.matching import best_matches_from
from repro.semantics.validation import ChainValidator, CorrectnessValidator


@pytest.fixture
def world(toy_world_factory):
    """A fresh toy world per test: isolates the process-wide plan cache."""
    return toy_world_factory()


def _engine(
    world, make=ApproximateAggregateEngine, **overrides
) -> ApproximateAggregateEngine:
    """An engine over the toy world; ``make`` is its constructor (the
    ``sampled_engine`` fixture, under the sampler's config, for a run that
    must draw)."""
    if make is ApproximateAggregateEngine:
        config = EngineConfig(**{"seed": 7, **overrides})
    else:
        config = PaperConfig(**{"seed": 7, "max_rounds": 8, **overrides})
    return make(world.kg, world.embedding, config)


def _pi_a(engine, plan):
    """The pi_A a first draw on ``plan`` builds (S1 is the sampled side's)."""
    return PlanSampler(engine.kg, engine.space).sample(plan).distribution


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

    def test_lru_bound_evicts_oldest_plan(self, world, monkeypatch):
        from repro.core import plan as plan_module
        from repro.core.plan import PlanCache
        from repro.core.planner import QueryPlanner

        monkeypatch.setattr(plan_module, "MAX_PLANS_PER_GRAPH", 1)
        small = PlanCache()
        config = EngineConfig(seed=7)
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
        # the planner pins no plan of its own: the bound bounds memory
        gc.collect()
        assert evicted() is None
        assert planner.plan_for(other) is kept
        assert planner.build_count == 2

    def test_a_dropped_graph_is_collected_with_its_plans(self, toy_world_factory):
        """A cached plan's validator holds its graph, so the cache keeps
        the graph's entry on the graph: once every caller dropped the
        graph, the garbage collector frees it and its plans."""
        world = toy_world_factory()
        kg, space = world.kg, world.space
        cache = PlanCache()
        planner = QueryPlanner(kg, space, EngineConfig(seed=7), cache=cache)
        executor = QueryExecutor(kg, space, planner.config, planner)
        executor.initialise(_star_query(), 1)  # three plans
        assert cache.num_plans(kg) == 3
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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sampler": SamplerKind.CNARW},
            {"sampler": SamplerKind.NODE2VEC, "seed": 3},
            {"self_loop_weight": 0.5},
            {"max_intermediates": 2},
            {"seed": 3},
        ],
        ids=lambda overrides: "-".join(overrides),
    )
    def test_engines_differing_only_in_s1_facets_share_one_plan(
        self, world, overrides, sampled_engine
    ):
        """A plan is what a census reads — the row within ``n_bound`` —
        so a census engine and a sampled engine that differ from it only
        in the seed or in what S1 reads build each component's plan once:
        the draws leave the census byte for byte as it was."""
        first = _engine(world)
        second = _engine(world, make=sampled_engine, **overrides)
        assert plan_fingerprint(first.config) == plan_fingerprint(second.config)
        query = world.count_query()
        census = first.execute(query)
        assert census.stop_reason == STOP_CENSUS
        assert second.execute(query).total_draws > 0
        assert _encoded(first.execute(query)) == _encoded(census)
        assert first.planner.build_count + second.planner.build_count == 1
        component = query.query.components[0]
        assert first.planner.plan_for(component) is second.planner.plan_for(component)

    def test_the_path_bound_keys_the_plan(self):
        assert plan_fingerprint(EngineConfig()) == (3,)
        assert plan_fingerprint(EngineConfig(n_bound=2)) == (2,)

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
            with engine.service as service:
                handle = service.submit(world.avg_query(), seed=3)
                handle.result()
                handle.refine(0.02).result()
                handle.refine(0.01).result()
        finally:
            CorrectnessValidator.validate_batch = original
        assert len(validated) > 0
        assert len(validated) == len(set(validated)), (
            "an answer was validated more than once across refinement rounds"
        )

    def test_loosening_records_zero_cost_step(self, world, sampled_engine):
        """A looser refine of a run that met a tighter bound appends one
        round over the same draws: nothing is drawn or validated, and the
        estimate stands."""
        engine = sampled_engine(
            world.kg, world.embedding, PaperConfig(seed=11, error_bound=0.05)
        )
        validated: list[int] = []
        original = CorrectnessValidator.validate_batch

        def recording(self, answers, *args, **kwargs):
            answers = list(answers)
            validated.extend(answers)
            return original(self, answers, *args, **kwargs)

        with engine.service as service:
            handle = service.submit(world.avg_query(), seed=3, error_bound=0.02)
            tight = handle.result(timeout=60.0)
            assert tight.converged
            CorrectnessValidator.validate_batch = recording
            try:
                loose = handle.refine(0.05).result(timeout=60.0)
            finally:
                CorrectnessValidator.validate_batch = original
        assert validated == []
        assert loose.total_draws == tight.total_draws == handle.total_draws
        assert loose.rounds[: len(tight.rounds)] == tight.rounds
        assert len(loose.rounds) == len(tight.rounds) + 1
        assert loose.converged and loose.stop_reason == "bound_met"
        assert loose.value == tight.value


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
        config = EngineConfig(seed=7)
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
        config = EngineConfig(seed=7)
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


class TestKeptSets:
    """A plan memoises, per tau, the sorted ids of its candidates whose
    row clears tau; a census screens and sums only those, reading
    attribute values afresh each time."""

    @staticmethod
    def _oracle(world, plan, tau, query) -> float:
        """``aggregate_over`` over ``plan``'s candidates that SSB's
        enumeration keeps at ``tau`` and that pass the screen."""
        matches = best_matches_from(
            world.kg, world.space, plan.component.hops[0][0], plan.source,
            plan.validator.max_length,
        )
        kept = {
            answer
            for answer in plan.candidates(world.kg).answers.tolist()
            if answer in matches
            and matches[answer].similarity >= tau
            and is_usable_answer(world.kg, query, answer)
        }
        return aggregate_over(world.kg, query, kept)[0]

    def test_two_services_at_different_tau_share_one_plan_build(self, world):
        shared_plan_cache().clear()
        configs = [EngineConfig(seed=7, tau=0.85), EngineConfig(seed=7, tau=0.9)]
        queries = [world.count_query(), world.avg_query(), world.sum_query()]
        answers = {}
        services = [
            AggregateQueryService(world.kg, world.embedding, config)
            for config in configs
        ]
        try:
            for service, config in zip(services, configs):
                answers[config.tau] = [
                    service.submit(query, seed=3).result(timeout=60)
                    for query in queries
                ]
            builds = sum(service.planner.build_count for service in services)
        finally:
            for service in services:
                service.close()
        assert builds == 1
        plan = _engine(world).planner.plan_for(world.count_query().query.components[0])
        assert sorted(plan.__dict__["_kept"]) == [0.85, 0.9]
        for config in configs:
            for query, result in zip(queries, answers[config.tau]):
                value = self._oracle(world, plan, config.tau, query)
                assert result.value.hex() == value.hex()
        assert answers[0.85][0].value != answers[0.9][0].value

    def test_an_attribute_write_between_warm_censuses_moves_the_answer(
        self, world, monkeypatch
    ):
        """The memo holds ids, not values: the second census reads the
        written price (and the filter's verdict on it) without
        revalidating anything."""
        engine = _engine(world)
        tau = engine.config.tau
        query = AggregateQuery(
            query=world.avg_query().query,
            function=AggregateFunction.AVG,
            attribute="price",
            filters=(Filter("price", upper=40_000.0),),
        )
        before = engine.execute(query)
        (plan,) = [engine.planner.plan_for(c) for c in query.query.components]
        assert before.value.hex() == self._oracle(world, plan, tau, query).hex()
        validated: list[int] = []
        original = CorrectnessValidator.validate_batch

        def recording(self, answers):
            validated.extend(np.asarray(answers).tolist())
            return original(self, answers)

        monkeypatch.setattr(CorrectnessValidator, "validate_batch", recording)
        cheap, dear = world.correct_cars[0], world.correct_cars[1]
        world.kg.set_attribute(cheap, "price", 1_000.0)
        world.kg.set_attribute(dear, "price", 99_000.0)  # out of the filter
        after = engine.execute(query)
        engine.service.close()
        assert validated == []
        assert after.value != before.value
        assert after.value.hex() == self._oracle(world, plan, tau, query).hex()

    def test_concurrent_first_censuses_build_equal_kept_sets(self, world):
        """Threads racing on a cold plan at two taus each read one
        read-only kept set per tau, equal across threads, and the census
        answers stay each tau's own."""
        shared_plan_cache().clear()
        taus = (0.85, 0.9)
        engines = {tau: _engine(world, tau=tau) for tau in taus}
        plan = engines[0.85].planner.plan_for(world.count_query().query.components[0])
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        seen: list[tuple[float, np.ndarray, float]] = []
        errors: list[BaseException] = []

        def race(tau: float) -> None:
            barrier.wait()
            try:
                executor = engines[tau].executor
                state = executor.initialise(world.count_query(), 1)
                result = executor.finalise(state, executor.step(state, 0.01))
                seen.append((tau, plan.kept(world.kg, tau), result.value))
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [
            threading.Thread(target=race, args=(taus[index % 2],))
            for index in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(seen) == num_threads
        for tau in taus:
            kept = [ids for seen_tau, ids, _value in seen if seen_tau == tau]
            values = {value for seen_tau, _ids, value in seen if seen_tau == tau}
            assert all(not ids.flags.writeable for ids in kept)
            assert all(ids.tobytes() == kept[0].tobytes() for ids in kept)
            assert values == {float(len(kept[0]))}
        assert len(plan.kept(world.kg, 0.85)) > len(plan.kept(world.kg, 0.9))


class TestJointSupports:
    """A composite query's joint candidate set — the intersection of its
    plans' candidates, which a census counts over — is assembled per
    query from the shared plans."""

    def test_the_joint_is_the_intersection_of_the_plans_candidates(self, world):
        # within two hops, Germany reaches every car and Company_1 only
        # its own and Germany's: the intersection drops cars
        engine = _engine(world, n_bound=2)
        query = AggregateQuery(
            query=QueryGraph.compose([
                QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
                QueryGraph.simple("Company_1", ["Company"], "assembly", ["Automobile"]),
            ]),
            function=AggregateFunction.COUNT,
        )
        state = engine.executor.initialise(query, 1)
        candidates = [plan.candidates(world.kg).answers for plan in state.components]
        expected = candidates[0]
        for answers in candidates[1:]:
            expected = np.intersect1d(expected, answers, assume_unique=True)
        joint = state.joint.answers
        assert 0 < len(joint) < max(len(answers) for answers in candidates)
        assert joint.dtype == expected.dtype
        assert joint.tobytes() == expected.tobytes()
        assert not joint.flags.writeable
        # a single component's is its plan's own candidate set
        plain = engine.executor.initialise(world.count_query(), 1)
        assert plain.joint is plain.components[0].candidates(world.kg)

    def test_structural_mutation_reaches_the_next_census(self, world):
        engine = _engine(world)
        before = engine.executor.initialise(_star_query(), 1).joint
        late = world.kg.add_node("LateCar", ["Automobile"], {"price": 45_000.0})
        world.kg.add_edge(late, "assembly", world.germany)
        after = engine.executor.initialise(_star_query(), 1).joint
        assert late in after.answers and late not in before.answers
        assert after.support_size == before.support_size + 1


class TestGetOrBuild:
    """``PlanCache.get_or_build`` is the only way a plan is published."""

    @staticmethod
    def _plan(world):
        """A real plan, built into a cache of its own."""
        planner = QueryPlanner(
            world.kg, world.space, EngineConfig(seed=7), cache=PlanCache()
        )
        return planner.plan_for(world.count_query().query.components[0])

    def test_a_raising_builder_hands_the_build_to_one_waiter(self, world):
        cache = PlanCache()
        plan = self._plan(world)
        builds: list[int] = []
        building = threading.Event()
        release = threading.Event()

        class BuildFailed(Exception):
            pass

        def builder():
            builds.append(threading.get_ident())
            if len(builds) == 1:
                building.set()
                release.wait(timeout=30)
                raise BuildFailed("the first build")
            return plan

        outcomes: dict[int, object] = {}

        def call(position: int) -> None:
            try:
                outcomes[position] = cache.get_or_build(world.kg, "key", builder)
            except BuildFailed as exc:
                outcomes[position] = exc

        raiser = threading.Thread(target=call, args=(0,))
        raiser.start()
        assert building.wait(timeout=30)
        waiters = [threading.Thread(target=call, args=(i,)) for i in range(1, 5)]
        for thread in waiters:
            thread.start()
        time.sleep(0.05)  # let the waiters block on the claimed key
        release.set()
        for thread in [raiser, *waiters]:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in [raiser, *waiters])
        assert len(builds) == 2  # the raiser, then exactly one waiter
        assert isinstance(outcomes[0], BuildFailed)
        assert str(outcomes[0]) == "the first build"
        assert all(outcomes[i] is plan for i in range(1, 5))
        assert cache.num_plans(world.kg) == 1
        assert cache.get_or_build(world.kg, "key", builder) is plan
        assert len(builds) == 2

    def test_a_plan_built_across_a_structural_write_stays_private(self, world):
        cache = PlanCache()
        plan = self._plan(world)

        def builder():
            late = world.kg.add_node("MidBuild", ["Automobile"])
            world.kg.add_edge(world.germany, "product", late)
            return plan

        assert cache.get_or_build(world.kg, "key", builder) is plan
        assert cache.num_plans(world.kg) == 0
