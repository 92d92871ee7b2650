"""The ``repro.store`` subsystem: the segment format and CSR snapshots.

Covers the store's contracts:

* segment-container round trips are bit-identical (mmap and eager), and
  malformed files raise :class:`StoreError`, never garbage arrays;
* snapshot save -> load reproduces every CSR array exactly, installs into
  the graph's cache (``build_csr`` never runs again) and rejects stale
  ``structure_version`` / foreign graphs with a clear error;
* a snapshot file that lacks a segment, a metadata key, or describes
  another graph's kind or counts is a :class:`StoreError` at load;
* :class:`SnapshotCatalog` paths follow graph structure, not attributes;
* queries over a memory-mapped snapshot answer byte for byte as over the
  built CSR, and run no ``build_csr`` and no S1.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AggregateQueryService, EngineConfig, KnowledgeGraph
from repro.core.plan import PlanCache
from repro.core.planner import QueryPlanner
from repro.core.result import STOP_CENSUS
from repro.errors import StoreError
from repro.kg.csr import build_call_count, csr_snapshot
from repro.server.app import encode_result
from repro.store import SnapshotCatalog, load_snapshot, save_snapshot
from repro.datasets import ALL_PRESETS
from repro.store.format import MAGIC, read_arrays, unpack_arrays, write_arrays
from repro.store.snapshot import (
    SNAPSHOT_KIND,
    cached_graph_fingerprint,
    snapshot_metadata,
)


@pytest.fixture
def world(toy_world_factory):
    return toy_world_factory()


def _count_spans(span: dict, name: str) -> int:
    """How many spans named ``name`` the trace ``span`` holds."""
    return (span["name"] == name) + sum(
        _count_spans(child, name) for child in span["children"]
    )


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


def _store_bytes(document, payload_offset: int = 256, payload: bytes = b"") -> bytes:
    """A store file by hand: ``document`` as its JSON header, ``payload``
    at ``payload_offset``."""
    header = json.dumps(document).encode("utf-8")
    head = MAGIC + len(header).to_bytes(8, "little") + header
    assert len(head) <= payload_offset
    return head.ljust(payload_offset, b"\x00") + payload


def _one_segment(**entry) -> bytes:
    """A version-1 store whose one segment entry is ``entry``, over eight
    payload bytes at offset 256."""
    document = {"format_version": 1, "metadata": {}, "segments": [entry]}
    return _store_bytes(document, payload=bytes(range(8)))


class TestMalformedHeaders:
    """Every header shape the format does not write is a StoreError."""

    @pytest.mark.parametrize(
        "data",
        [
            _store_bytes([1]),
            _store_bytes({"format_version": 1, "metadata": [1], "segments": []}),
            _store_bytes({"format_version": 1, "metadata": {}, "segments": 5}),
            _store_bytes({"format_version": 1, "metadata": {}, "segments": [7]}),
            _one_segment(name="x", dtype="|O", shape=[1], offset=256, nbytes=8),
            _one_segment(name="x", dtype="<i8", shape=[-1, -1], offset=256, nbytes=8),
            _one_segment(dtype="<i8", shape=[1], offset=256, nbytes=8),
            _one_segment(name="x", dtype="<,8", shape=[1], offset=256, nbytes=8),
        ],
        ids=[
            "list_header",
            "list_metadata",
            "int_segments",
            "int_segment_entry",
            "object_dtype",
            "two_negative_dimensions",
            "nameless_segment",
            "dtype_numpy_cannot_parse",
        ],
    )
    def test_rejected(self, world, tmp_path, data):
        with pytest.raises(StoreError):
            unpack_arrays(data)
        path = SnapshotCatalog(tmp_path / "catalog").snapshot_path(world.kg)
        path.parent.mkdir(parents=True)
        path.write_bytes(data)
        for mmap in (True, False):
            with pytest.raises(StoreError):
                read_arrays(path, mmap=mmap)
            with pytest.raises(StoreError):
                load_snapshot(path, world.kg, mmap=mmap)

    def test_a_well_formed_hand_store_loads(self):
        """The hand-built container the cases above corrupt."""
        metadata, arrays = unpack_arrays(
            _one_segment(name="x", dtype="<i8", shape=[1], offset=256, nbytes=8)
        )
        assert metadata == {}
        assert arrays["x"].tolist() == [int.from_bytes(bytes(range(8)), "little")]


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

    def test_graph_fingerprint_ignores_attributes(self, world):
        before = cached_graph_fingerprint(world.kg)
        world.kg.set_attribute(world.correct_cars[0], "price", 123.0)
        assert cached_graph_fingerprint(world.kg) == before
        world.kg.add_node("New", ["Thing"])
        assert cached_graph_fingerprint(world.kg) != before

    def test_snapshot_file_holds_the_csr_segments_and_key(self, world, tmp_path):
        """The file carries the five CSR arrays (``nodes_by_type`` is derived
        at load) and the graph's validation key, nothing else."""
        path = save_snapshot(world.kg, tmp_path / "toy.snap")
        metadata, arrays = read_arrays(path, mmap=False)
        assert set(arrays) == {
            "indptr", "neighbor_ids", "edge_ids", "edge_predicate_ids", "type_matrix",
        }
        assert metadata["kind"] == SNAPSHOT_KIND
        for name, value in snapshot_metadata(world.kg).items():
            assert metadata[name] == value, name

    @pytest.mark.parametrize("mmap", [True, False])
    def test_an_edgeless_graph_round_trips(self, tmp_path, mmap):
        kg = KnowledgeGraph("lonely")
        kg.add_node("A", ["T"])
        kg.add_node("B", ["T", "U"])
        path = save_snapshot(kg, tmp_path / "lonely.snap")
        expected = csr_snapshot(kg)

        fresh = KnowledgeGraph("lonely")
        fresh.add_node("A", ["T"])
        fresh.add_node("B", ["T", "U"])
        loaded = load_snapshot(path, fresh, mmap=mmap, verify_fingerprint=True)
        assert (loaded.num_nodes, loaded.num_edges) == (2, 0)
        assert np.array_equal(loaded.indptr, expected.indptr)
        assert np.array_equal(loaded.type_matrix, expected.type_matrix)
        assert loaded.nodes_by_type["U"].tolist() == [1]

    @pytest.mark.parametrize("preset", sorted(ALL_PRESETS))
    def test_a_preset_snapshot_loads_into_a_regenerated_graph(self, preset, tmp_path):
        """The cross-process case: the graph is generated again from the
        same seed, and the saved snapshot validates against it by content
        fingerprint and stands in for its CSR array for array."""
        saved = ALL_PRESETS[preset](seed=0, scale=1.0).kg
        expected = csr_snapshot(saved)
        path = save_snapshot(saved, tmp_path / f"{preset}.snap")

        regenerated = ALL_PRESETS[preset](seed=0, scale=1.0).kg
        builds_before = build_call_count()
        loaded = load_snapshot(path, regenerated, verify_fingerprint=True)
        assert csr_snapshot(regenerated) is loaded
        assert build_call_count() == builds_before
        for name in (
            "indptr", "neighbor_ids", "edge_ids", "edge_predicate_ids", "type_matrix",
        ):
            assert np.array_equal(getattr(loaded, name), getattr(expected, name)), name
        assert loaded.type_names == expected.type_names

    def test_a_raw_load_does_not_install(self, toy_world_factory, tmp_path):
        """Without a graph, ``load_snapshot`` only reads the file."""
        path = save_snapshot(toy_world_factory().kg, tmp_path / "toy.snap")
        loaded = load_snapshot(path)
        fresh = toy_world_factory()
        builds_before = build_call_count()
        assert csr_snapshot(fresh.kg) is not loaded
        assert build_call_count() == builds_before + 1

    def test_structural_mutation_after_a_load_rebuilds(self, world, tmp_path):
        """An installed snapshot is keyed on ``structure_version`` like a
        built one: the next structural write evicts it."""
        path = save_snapshot(world.kg, tmp_path / "toy.snap")
        loaded = load_snapshot(path, world.kg)
        added = world.kg.add_node("Newcomer", ["Automobile"])
        world.kg.add_edge(world.correct_cars[0], "product", added)
        builds_before = build_call_count()
        rebuilt = csr_snapshot(world.kg)
        assert rebuilt is not loaded
        assert build_call_count() == builds_before + 1
        assert (rebuilt.num_nodes, rebuilt.num_edges) == (
            loaded.num_nodes + 1, loaded.num_edges + 1,
        )
        with pytest.raises(StoreError, match="structure_version"):
            load_snapshot(path, world.kg)

    def test_catalog_path_follows_structure_not_attributes(self, world, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "catalog")
        path = catalog.save_snapshot(world.kg)
        assert path == catalog.snapshot_path(world.kg)
        assert path.parent == catalog.root / "snapshots"
        assert path.is_file()
        world.kg.set_attribute(world.correct_cars[0], "price", 2.0)
        assert catalog.snapshot_path(world.kg) == path
        world.kg.add_node("Newcomer", ["Thing"])
        moved = catalog.snapshot_path(world.kg)
        assert moved != path and not moved.exists()

    def test_queries_over_a_mapped_snapshot_equal_the_built_csr(
        self, toy_world_factory, tmp_path
    ):
        """A graph that memory-maps its snapshot answers COUNT, AVG and a
        chain COUNT byte for byte as the graph that built its CSR, with no
        ``build_csr`` call and no S1 stage."""
        config = EngineConfig(seed=7)

        def answers(world):
            planner = QueryPlanner(world.kg, world.space, config, cache=PlanCache())
            with AggregateQueryService(
                world.kg, world.space, config, planner=planner
            ) as service:
                handles = [
                    service.submit(query, seed=5)
                    for query in (
                        world.count_query(),
                        world.avg_query(),
                        world.chain_count_query(),
                    )
                ]
                results = [handle.result(timeout=60.0) for handle in handles]
                stage_spans = sum(
                    _count_spans(handle.trace(), "s1_stage") for handle in handles
                )
            assert all(result.stop_reason == STOP_CENSUS for result in results)
            return results, stage_spans

        built = toy_world_factory()
        expected, _ = answers(built)
        catalog = SnapshotCatalog(tmp_path / "catalog")
        catalog.save_snapshot(built.kg)

        mapped = toy_world_factory()
        load_snapshot(catalog.snapshot_path(mapped.kg), mapped.kg)
        builds_before = build_call_count()
        actual, stage_spans = answers(mapped)
        assert build_call_count() == builds_before
        assert stage_spans == 0
        assert [result.value.hex() for result in actual] == [
            result.value.hex() for result in expected
        ]
        assert [encode_result(result, timings=False) for result in actual] == [
            encode_result(result, timings=False) for result in expected
        ]


def _rewritten(source, target, *, metadata=None, drop=()):
    """``source``'s snapshot written to ``target`` with ``metadata`` keys
    overridden (``None`` values removed) and the ``drop`` segments left out."""
    stored, arrays = read_arrays(source, mmap=False)
    for name, value in (metadata or {}).items():
        if value is None:
            stored.pop(name, None)
        else:
            stored[name] = value
    write_arrays(
        target, stored, {name: a for name, a in arrays.items() if name not in drop}
    )
    return target


class TestSnapshotValidation:
    """A snapshot file that does not describe the graph is refused at load,
    always as a StoreError and never by installing wrong arrays."""

    @pytest.fixture
    def saved(self, world, tmp_path):
        return world, save_snapshot(world.kg, tmp_path / "toy.snap")

    @pytest.mark.parametrize("kind", [None, "csr-snapshot-v0"], ids=["absent", "other"])
    def test_a_file_of_another_kind_is_rejected(self, saved, tmp_path, kind):
        world, path = saved
        forged = _rewritten(path, tmp_path / "forged.snap", metadata={"kind": kind})
        with pytest.raises(StoreError, match="not a CSR snapshot"):
            load_snapshot(forged, world.kg)

    @pytest.mark.parametrize(
        "segment",
        ["indptr", "neighbor_ids", "edge_ids", "edge_predicate_ids", "type_matrix"],
    )
    def test_a_missing_segment_is_rejected(self, saved, tmp_path, segment):
        world, path = saved
        forged = _rewritten(path, tmp_path / "forged.snap", drop=(segment,))
        for mmap in (True, False):
            with pytest.raises(StoreError, match="missing segments"):
                load_snapshot(forged, world.kg, mmap=mmap)
            with pytest.raises(StoreError, match="missing segments"):
                load_snapshot(forged, mmap=mmap)

    def test_missing_type_names_is_rejected(self, saved, tmp_path):
        world, path = saved
        forged = _rewritten(
            path, tmp_path / "forged.snap", metadata={"type_names": None}
        )
        with pytest.raises(StoreError, match="metadata missing"):
            load_snapshot(forged, world.kg)

    @pytest.mark.parametrize("count", ["num_nodes", "num_edges"])
    def test_a_count_that_disagrees_with_the_graph_is_rejected(
        self, saved, tmp_path, count
    ):
        """Same ``structure_version``, another size: the counts catch it."""
        world, path = saved
        stored, _ = read_arrays(path, mmap=False)
        forged = _rewritten(
            path, tmp_path / "forged.snap", metadata={count: stored[count] + 1}
        )
        with pytest.raises(StoreError):
            load_snapshot(forged, world.kg)
        assert csr_snapshot(world.kg).num_nodes == world.kg.num_nodes


# ---------------------------------------------------------------------------
# Byte mutation: a store file with any bytes changed loads or is a StoreError
# ---------------------------------------------------------------------------
def _mutations(size: int, header_end: int):
    """Up to eight ``(position, byte)`` overwrites, most inside the header."""
    position = st.one_of(
        st.integers(0, header_end - 1), st.integers(0, size - 1)
    )
    return st.lists(st.tuples(position, st.integers(0, 255)), min_size=1, max_size=8)


def _mutated(data: bytes, mutations) -> bytes:
    mutable = bytearray(data)
    for position, value in mutations:
        mutable[position] = value
    return bytes(mutable)


def _header_end(data: bytes) -> int:
    return 16 + int.from_bytes(data[8:16], "little")


class TestByteMutation:
    _names = itertools.count()

    # function-scoped fixtures run once per test, not once per example:
    # every example of a test reuses its world and its original file

    @pytest.fixture
    def snapshot_case(self, world, tmp_path):
        path = tmp_path / "toy.snap"
        save_snapshot(world.kg, path)
        return world, path.parent, path.read_bytes()

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_a_mutated_snapshot_file_loads_or_is_a_store_error(
        self, snapshot_case, data
    ):
        world, directory, original = snapshot_case
        mutations = data.draw(_mutations(len(original), _header_end(original)))
        path = directory / f"mutated-{next(self._names)}.snap"
        path.write_bytes(_mutated(original, mutations))
        try:
            snapshot = load_snapshot(path, world.kg, mmap=False)
        except StoreError:
            return
        assert (snapshot.num_nodes, snapshot.num_edges) == (
            world.kg.num_nodes, world.kg.num_edges,
        )
