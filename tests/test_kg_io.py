"""Round-trip tests for KG serialisation."""

import json

import numpy as np
import pytest

from repro.datasets import ALL_PRESETS
from repro.errors import DatasetError
from repro.kg import (
    KnowledgeGraph,
    graph_fingerprint,
    load_json,
    load_triples,
    save_json,
    save_triples,
)
from repro.kg.statistics import compute_statistics

#: graph_fingerprint of each preset at scale 1, dataset seed 0.  Snapshot
#: catalogs are keyed on it: a moved digest makes every snapshot written
#: before the move a miss.
PRESET_FINGERPRINTS = {
    "dbpedia-like": "33c73875b11f7fbf445af663752dd61f6d2aa2454134325e0d64e5ce01b5916a",
    "freebase-like": "9f6ccd4a572367bc5c1a21460d70916aa782aac343f30099dca46f52e1319e78",
    "yago2-like": "be7e2905c28dbd644692f585172d3433c0688251ca883c9131634020dbb58275",
}


@pytest.mark.parametrize("preset", sorted(PRESET_FINGERPRINTS))
def test_graph_fingerprint_is_pinned(preset):
    kg = ALL_PRESETS[preset](seed=0, scale=1.0).kg
    assert graph_fingerprint(kg) == PRESET_FINGERPRINTS[preset]


@pytest.fixture
def sample_kg() -> KnowledgeGraph:
    kg = KnowledgeGraph("sample")
    germany = kg.add_node("Germany", ["Country", "Place"])
    bmw = kg.add_node("BMW_320", ["Automobile"], {"price": 36_000.0, "hp": 335.0})
    kg.add_edge(bmw, "assembly", germany)
    return kg


class TestJsonRoundTrip:
    def test_lossless(self, sample_kg, tmp_path):
        path = tmp_path / "kg.json"
        save_json(sample_kg, path)
        restored = load_json(path)
        assert restored.name == sample_kg.name
        assert restored.num_nodes == sample_kg.num_nodes
        assert restored.num_edges == sample_kg.num_edges
        bmw = restored.node(restored.node_by_name("BMW_320"))
        assert bmw.types == frozenset({"Automobile"})
        assert bmw.attribute("price") == 36_000.0
        edge = restored.edge(0)
        assert edge.predicate == "assembly"

    def test_nan_attribute_is_absent_and_the_file_is_strict_json(
        self, sample_kg, tmp_path
    ):
        bmw = sample_kg.node_by_name("BMW_320")
        sample_kg.set_attribute(bmw, "hp", float("nan"))
        path = tmp_path / "kg.json"
        save_json(sample_kg, path)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
        restored = load_json(path)
        node = restored.node(restored.node_by_name("BMW_320"))
        assert dict(node.attributes) == {"price": 36_000.0}
        assert np.isnan(restored.attribute_column("hp")).all()

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "nodes": [], "edges": []}')
        with pytest.raises(DatasetError, match="version"):
            load_json(path)


class TestTripleRoundTrip:
    def test_triples_roundtrip(self, sample_kg, tmp_path):
        path = tmp_path / "kg.tsv"
        save_triples(sample_kg, path)
        restored = load_triples(path)
        assert restored.num_edges == 1
        assert restored.has_node_named("Germany")
        assert restored.predicate_of(0) == "assembly"

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("# comment\n\na\tp\tb\n")
        kg = load_triples(path)
        assert kg.num_edges == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("only two\tfields\n")
        with pytest.raises(DatasetError, match="expected 3 fields"):
            load_triples(path)


class TestStatistics:
    def test_table3_shape(self, sample_kg):
        stats = compute_statistics(sample_kg)
        assert stats.num_nodes == 2
        assert stats.num_edges == 1
        assert stats.num_node_types == 3
        assert stats.num_edge_predicates == 1
        assert stats.mean_degree == 1.0
        assert stats.max_degree == 1
        assert stats.num_attributes == 2
        row = stats.as_table_row()
        assert row["Dataset"] == "sample"
        assert row["#Nodes"] == 2

    def test_empty_graph(self):
        stats = compute_statistics(KnowledgeGraph("empty"))
        assert stats.mean_degree == 0.0
        assert stats.max_degree == 0
