"""The ``repro.store`` subsystem: format, snapshots, plans, shared memory.

Covers the store's contracts:

* segment-container round trips are bit-identical (mmap and eager), and
  malformed files raise :class:`StoreError`, never garbage arrays;
* snapshot save -> load reproduces every CSR array exactly, installs into
  the graph's cache (``build_csr`` never runs again) and rejects stale
  ``structure_version`` / foreign graphs with a clear error;
* plan artefacts round-trip through the :class:`SnapshotCatalog`: a
  fresh planner adopts them without an S1 build (``build_count`` stays
  0) and produces byte-identical engine results;
* shared-memory publication: attach sees bit-identical arrays, detach
  leaks nothing, and closing the store unlinks every segment.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import EngineConfig, KnowledgeGraph
from repro.core.plan import PlanCache
from repro.core.planner import QueryPlanner
from repro.errors import StoreError
from repro.kg.csr import build_call_count, csr_snapshot
from repro.store import (
    SharedSnapshotStore,
    SnapshotCatalog,
    load_plan_artifacts,
    load_snapshot,
    save_snapshot,
)
from repro.store.format import read_arrays, write_arrays
from repro.store.plans import config_token, embedding_fingerprint
from repro.store.snapshot import cached_graph_fingerprint


@pytest.fixture
def world(toy_world_factory):
    return toy_world_factory()


def _example_arrays() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    return {
        "small_ints": np.arange(7, dtype=np.int64),
        "floats": rng.normal(size=(5, 3)),
        "bools": np.asarray([True, False, True]),
        "empty": np.empty(0, dtype=np.float64),
    }


class TestSegmentFormat:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_round_trip_is_bit_identical(self, tmp_path, mmap):
        arrays = _example_arrays()
        path = tmp_path / "arrays.store"
        write_arrays(path, {"answer": 42, "label": "x"}, arrays)
        metadata, loaded = read_arrays(path, mmap=mmap)
        assert metadata == {"answer": 42, "label": "x"}
        assert set(loaded) == set(arrays)
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert loaded[name].shape == array.shape
            assert np.array_equal(loaded[name], array), name

    def test_pack_unpack_round_trip(self):
        from repro.store.format import pack_arrays, unpack_arrays

        arrays = _example_arrays()
        metadata, loaded = unpack_arrays(pack_arrays({"tag": "t"}, arrays))
        assert metadata == {"tag": "t"}
        for name, array in arrays.items():
            assert np.array_equal(loaded[name], array), name

    def test_segments_are_aligned(self, tmp_path):
        from repro.store.format import ALIGNMENT, parse_header

        path = tmp_path / "arrays.store"
        write_arrays(path, {}, _example_arrays())
        _, entries = parse_header(path.read_bytes())
        assert entries and all(entry["offset"] % ALIGNMENT == 0 for entry in entries)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.store"
        path.write_bytes(b"NOTSTORE" + b"\x00" * 64)
        with pytest.raises(StoreError, match="magic"):
            read_arrays(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "arrays.store"
        write_arrays(path, {}, _example_arrays())
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(StoreError):
            read_arrays(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="no store file"):
            read_arrays(tmp_path / "absent.store")

    def test_empty_file_rejected(self, tmp_path):
        """A zero-byte file (crash mid-save) must be StoreError, not ValueError."""
        path = tmp_path / "empty.store"
        path.write_bytes(b"")
        with pytest.raises(StoreError):
            read_arrays(path)

    def test_mmap_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "arrays.store"
        write_arrays(path, {}, _example_arrays())
        _, loaded = read_arrays(path, mmap=True)
        with pytest.raises(ValueError):
            loaded["floats"][0, 0] = 1.0


class TestSnapshotPersistence:
    def test_round_trip_bit_identical_and_installs(self, world, tmp_path):
        snapshot = csr_snapshot(world.kg)
        path = tmp_path / "toy.snap"
        save_snapshot(world.kg, path)
        builds_before = build_call_count()
        loaded = load_snapshot(path, world.kg, verify_fingerprint=True)
        assert build_call_count() == builds_before, "load must not build_csr"
        for name in ("indptr", "neighbor_ids", "edge_ids", "edge_predicate_ids"):
            assert np.array_equal(getattr(loaded, name), getattr(snapshot, name))
        assert np.array_equal(loaded.type_matrix, snapshot.type_matrix)
        assert loaded.type_names == snapshot.type_names
        for type_name in snapshot.type_names:
            assert np.array_equal(
                loaded.nodes_by_type[type_name], snapshot.nodes_by_type[type_name]
            )
        # installed: the graph now serves the loaded snapshot
        assert csr_snapshot(world.kg) is loaded
        assert build_call_count() == builds_before

    def test_structure_version_mismatch_rejected(self, world, tmp_path):
        path = tmp_path / "toy.snap"
        save_snapshot(world.kg, path)
        world.kg.add_node("Mutant", ["Thing"])
        with pytest.raises(StoreError, match="structure_version"):
            load_snapshot(path, world.kg)

    def test_foreign_graph_rejected_by_fingerprint(self, tmp_path):
        def build(predicate: str) -> KnowledgeGraph:
            kg = KnowledgeGraph("twin")
            first = kg.add_node("A", ["T"])
            second = kg.add_node("B", ["T"])
            kg.add_edge(first, predicate, second)
            return kg

        original, imposter = build("knows"), build("hates")
        # identical shape and mutation count: the cheap key cannot tell
        assert original.structure_version == imposter.structure_version
        path = tmp_path / "twin.snap"
        save_snapshot(original, path)
        load_snapshot(path, imposter)  # cheap validation passes
        with pytest.raises(StoreError, match="fingerprint"):
            load_snapshot(path, imposter, verify_fingerprint=True)

    def test_attribute_writes_do_not_invalidate(self, world, tmp_path):
        path = tmp_path / "toy.snap"
        save_snapshot(world.kg, path)
        world.kg.set_attribute(world.correct_cars[0], "price", 1.0)
        load_snapshot(path, world.kg)  # structure unchanged: still valid


class TestPlanCatalog:
    def test_catalog_reload_skips_s1(self, world, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "catalog")
        config = EngineConfig(seed=7)
        component = world.count_query().query.components[0]

        warm = QueryPlanner(
            world.kg, world.space, config, cache=PlanCache(), catalog=catalog
        )
        built = warm.plan_for(component)
        assert (warm.build_count, warm.catalog_hits) == (1, 0)
        assert catalog.stored_plan_count(world.kg) == 1

        cold = QueryPlanner(
            world.kg, world.space, config, cache=PlanCache(), catalog=catalog
        )
        loaded = cold.plan_for(component)
        assert (cold.build_count, cold.catalog_hits) == (0, 1)
        assert np.array_equal(loaded.visiting, built.visiting)
        assert np.array_equal(
            loaded.distribution.answers, built.distribution.answers
        )
        assert np.array_equal(
            loaded.distribution.probabilities, built.distribution.probabilities
        )
        assert loaded.source == built.source
        assert loaded.num_candidates == built.num_candidates

    def test_chain_plan_round_trips(self, world, tmp_path):
        from repro import QueryGraph

        chain = QueryGraph.chain(
            "Germany",
            ["Country"],
            [("nationality", ["Person"]), ("designer", ["Automobile"])],
        ).components[0]
        catalog = SnapshotCatalog(tmp_path / "catalog")
        config = EngineConfig(seed=7)
        warm = QueryPlanner(
            world.kg, world.space, config, cache=PlanCache(), catalog=catalog
        )
        built = warm.plan_for(chain)
        cold = QueryPlanner(
            world.kg, world.space, config, cache=PlanCache(), catalog=catalog
        )
        loaded = cold.plan_for(chain)
        assert (cold.build_count, cold.catalog_hits) == (0, 1)
        assert loaded.chain is not None
        assert loaded.chain.routes == built.chain.routes
        # routes travel as segments, mapped like the answers
        assert not loaded.chain.route_nodes.flags.writeable
        assert np.array_equal(loaded.chain.route_nodes, built.chain.route_nodes)
        assert np.array_equal(
            loaded.distribution.probabilities, built.distribution.probabilities
        )

    def test_old_layout_chain_plan_is_a_miss(self, world, tmp_path, monkeypatch):
        """A file of the routes-as-header-JSON layout never loads: the
        plan is rebuilt and saved back in the current layout."""
        from repro import QueryGraph
        from repro.core import plan as plan_module

        chain = QueryGraph.chain(
            "Germany",
            ["Country"],
            [("nationality", ["Person"]), ("designer", ["Automobile"])],
        ).components[0]
        catalog = SnapshotCatalog(tmp_path / "catalog")
        config = EngineConfig(seed=7)

        def planner():
            return QueryPlanner(
                world.kg, world.space, config, cache=PlanCache(), catalog=catalog
            )

        built = planner().plan_for(chain)
        path = catalog.plan_path(world.kg, world.space, config, chain)
        metadata, arrays = read_arrays(path, mmap=False)
        old_arrays = {
            name: arrays[name] for name in ("answers", "probabilities", "visiting")
        }
        old_metadata = {**metadata, "chain_routes": [[0, [[[1], 1.0]]]]}

        # as the previous revision wrote it: under its own config token,
        # which is also its own file name
        current_revision = plan_module.S1_REVISION
        monkeypatch.setattr(plan_module, "S1_REVISION", current_revision - 1)
        stale = catalog.plan_path(world.kg, world.space, config, chain)
        write_arrays(
            stale, {**old_metadata, "config_token": config_token(config)}, old_arrays
        )
        monkeypatch.setattr(plan_module, "S1_REVISION", current_revision)
        assert stale != path
        with pytest.raises(StoreError, match="config_token"):
            load_plan_artifacts(stale, world.kg, world.space, config)

        # and even under the current key the missing segments are an error
        write_arrays(path, old_metadata, old_arrays)
        with pytest.raises(StoreError, match="route_nodes"):
            load_plan_artifacts(path, world.kg, world.space, config)
        rebuilt = planner()
        rebuilt.plan_for(chain)
        assert (rebuilt.build_count, rebuilt.catalog_hits, rebuilt.catalog_errors) == (
            1, 0, 1,
        )
        reloaded = planner()
        loaded = reloaded.plan_for(chain)
        assert (reloaded.build_count, reloaded.catalog_hits) == (0, 1)
        assert loaded.chain.routes == built.chain.routes

    def test_reloaded_plans_give_identical_results(self, world, tmp_path):
        from repro import AggregateQueryService
        from repro.core.executor import QueryExecutor

        catalog = SnapshotCatalog(tmp_path / "catalog")
        config = EngineConfig(seed=7, max_rounds=8)

        def run(with_catalog_only: bool):
            planner = QueryPlanner(
                world.kg, world.space, config, cache=PlanCache(), catalog=catalog
            )
            executor = QueryExecutor(world.kg, world.space, config, planner)
            with AggregateQueryService(
                world.kg, world.space, config, planner=planner, executor=executor
            ) as service:
                result = service.submit(world.avg_query(), seed=5).result()
            if with_catalog_only:
                assert planner.build_count == 0, "reload must not rerun S1"
            return result

        first = run(with_catalog_only=False)
        second = run(with_catalog_only=True)
        assert first.value == second.value
        assert first.total_draws == second.total_draws
        assert [t.estimate for t in first.rounds] == [
            t.estimate for t in second.rounds
        ]

    def test_mismatched_config_rejected(self, world, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "catalog")
        config = EngineConfig(seed=7)
        planner = QueryPlanner(
            world.kg, world.space, config, cache=PlanCache(), catalog=catalog
        )
        component = world.count_query().query.components[0]
        planner.plan_for(component)
        path = catalog.plan_path(world.kg, world.space, config, component)
        with pytest.raises(StoreError, match="config_token"):
            load_plan_artifacts(
                path, world.kg, world.space, config.with_(tau=0.5)
            )

    def test_different_config_is_a_clean_miss(self, world, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "catalog")
        component = world.count_query().query.components[0]
        planner = QueryPlanner(
            world.kg, world.space, EngineConfig(seed=7), cache=PlanCache(),
            catalog=catalog,
        )
        planner.plan_for(component)
        other = QueryPlanner(
            world.kg, world.space, EngineConfig(seed=7, tau=0.5),
            cache=PlanCache(), catalog=catalog,
        )
        other.plan_for(component)
        assert (other.build_count, other.catalog_hits) == (1, 0)
        assert catalog.stored_plan_count(world.kg) == 2

    def test_plan_of_an_older_s1_algorithm_is_refused(
        self, world, tmp_path, monkeypatch
    ):
        """An artefact the power iteration built is never mapped beside
        closed-form plans: ``S1_REVISION`` is part of ``config_token``."""
        from repro.core import plan as plan_module

        catalog = SnapshotCatalog(tmp_path / "catalog")
        config = EngineConfig(seed=7)
        component = world.count_query().query.components[0]

        def planner():
            return QueryPlanner(
                world.kg, world.space, config, cache=PlanCache(), catalog=catalog
            )

        current_revision = plan_module.S1_REVISION
        monkeypatch.setattr(plan_module, "S1_REVISION", current_revision - 1)
        planner().plan_for(component)
        stale = catalog.plan_path(world.kg, world.space, config, component)
        monkeypatch.setattr(plan_module, "S1_REVISION", current_revision)

        assert stale.is_file()
        with pytest.raises(StoreError, match="config_token"):
            load_plan_artifacts(stale, world.kg, world.space, config)
        rebuilt = planner()
        rebuilt.plan_for(component)
        assert (rebuilt.build_count, rebuilt.catalog_hits) == (1, 0)
        # ...and saved back under the current revision
        reloaded = planner()
        reloaded.plan_for(component)
        assert (reloaded.build_count, reloaded.catalog_hits) == (0, 1)

    def test_corrupt_catalog_entry_rebuilds_instead_of_failing(self, world, tmp_path):
        """An unreadable plan file must self-heal, not take queries down."""
        catalog = SnapshotCatalog(tmp_path / "catalog")
        config = EngineConfig(seed=7)
        component = world.count_query().query.components[0]
        first = QueryPlanner(
            world.kg, world.space, config, cache=PlanCache(), catalog=catalog
        )
        first.plan_for(component)
        path = catalog.plan_path(world.kg, world.space, config, component)
        path.write_bytes(b"REPROSTR" + b"\xff" * 32)  # corrupt header

        healed = QueryPlanner(
            world.kg, world.space, config, cache=PlanCache(), catalog=catalog
        )
        healed.plan_for(component)
        assert (healed.build_count, healed.catalog_errors) == (1, 1)
        # the rebuild overwrote the bad file: the next planner loads cleanly
        third = QueryPlanner(
            world.kg, world.space, config, cache=PlanCache(), catalog=catalog
        )
        third.plan_for(component)
        assert (third.build_count, third.catalog_hits) == (0, 1)

    def test_embedding_fingerprint_tracks_content(self, world):
        first = embedding_fingerprint(world.embedding)
        assert first == embedding_fingerprint(world.embedding)  # memoised
        assert first == embedding_fingerprint(world.space)
        noisy = world.embedding.with_noise(0.1, seed=1)
        assert embedding_fingerprint(noisy) != first

    def test_graph_fingerprint_ignores_attributes(self, world):
        before = cached_graph_fingerprint(world.kg)
        world.kg.set_attribute(world.correct_cars[0], "price", 123.0)
        assert cached_graph_fingerprint(world.kg) == before
        world.kg.add_node("New", ["Thing"])
        assert cached_graph_fingerprint(world.kg) != before


class TestSharedSnapshotStore:
    def test_publish_attach_round_trip(self):
        arrays = _example_arrays()
        with SharedSnapshotStore() as store:
            manifest = store.publish("demo", {"tag": "t"}, arrays)
            with SharedSnapshotStore.attach(manifest) as attached:
                assert attached.metadata == {"tag": "t"}
                for name, array in arrays.items():
                    assert np.array_equal(attached.arrays[name], array), name

    def test_republish_same_key_reuses_block(self):
        arrays = _example_arrays()
        with SharedSnapshotStore() as store:
            first = store.publish("demo", {}, arrays)
            second = store.publish("demo", {}, arrays)
            assert first["shm_name"] == second["shm_name"]

    def test_detach_does_not_unlink(self):
        with SharedSnapshotStore() as store:
            manifest = store.publish("demo", {}, _example_arrays())
            attached = SharedSnapshotStore.attach(manifest)
            attached.close()
            # still published: a second attach succeeds
            SharedSnapshotStore.attach(manifest).close()

    def test_close_unlinks_all_segments(self):
        store = SharedSnapshotStore()
        manifests = [
            store.publish(f"demo-{index}", {}, _example_arrays())
            for index in range(3)
        ]
        names = [manifest["shm_name"] for manifest in manifests]
        store.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                block = shared_memory.SharedMemory(name=name)
                block.close()  # pragma: no cover - only on leak
        for manifest in manifests:
            with pytest.raises(StoreError):
                SharedSnapshotStore.attach(manifest)
        store.close()  # idempotent

    def test_publish_after_close_rejected(self):
        store = SharedSnapshotStore()
        store.close()
        with pytest.raises(StoreError):
            store.publish("late", {}, _example_arrays())
