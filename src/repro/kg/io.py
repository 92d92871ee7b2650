"""Serialisation of knowledge graphs.

Two formats are supported:

* a JSON document carrying the full property graph (names, types, numeric
  attributes, triples) — lossless round trip;
* a whitespace-separated triple file (``subject predicate object`` per line,
  N-Triples-like) — edges only, for interoperability with triple tooling.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import DatasetError
from repro.kg.graph import KnowledgeGraph

_FORMAT_VERSION = 1


def graph_fingerprint(kg: KnowledgeGraph) -> str:
    """A stable content hash of ``kg``'s *structure* (sha256 hex digest).

    Covers node names, type sets and the full triple list — everything a
    CSR snapshot or a cached plan depends on — but not numeric attributes,
    mirroring the ``structure_version`` / ``attribute_version`` split.
    Unlike ``structure_version`` (a process-local mutation counter), the
    fingerprint survives serialisation: a graph saved with
    :func:`save_json` and reloaded elsewhere hashes identically, which is
    what lets the snapshot store validate an on-disk artefact against a
    freshly loaded graph.
    """
    digest = hashlib.sha256()
    digest.update(b"repro-kg-v1\x00")
    for node_id in kg.nodes():
        node = kg.node(node_id)
        digest.update(node.name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update("|".join(sorted(node.types)).encode("utf-8"))
        digest.update(b"\x01")
    digest.update(b"\x02")
    for predicate in kg.predicates:
        digest.update(predicate.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(b"\x03")
    # per edge: subject, predicate id, object as 8-byte little-endian ints
    digest.update(kg.triple_array().astype("<i8", copy=False).tobytes())
    return digest.hexdigest()


def save_json(kg: KnowledgeGraph, path: str | Path) -> None:
    """Write ``kg`` to ``path`` as a lossless JSON document."""
    document = {
        "format_version": _FORMAT_VERSION,
        "name": kg.name,
        "nodes": [
            {
                "name": node.name,
                "types": sorted(node.types),
                "attributes": dict(node.attributes),
            }
            for node in (kg.node(node_id) for node_id in kg.nodes())
        ],
        "edges": [
            {"subject": edge.subject, "predicate": edge.predicate, "object": edge.object}
            for edge in kg.edges()
        ],
    }
    Path(path).write_text(json.dumps(document, indent=1, allow_nan=False), encoding="utf-8")


def load_json(path: str | Path) -> KnowledgeGraph:
    """Load a knowledge graph previously written by :func:`save_json`."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    version = document.get("format_version")
    if version != _FORMAT_VERSION:
        raise DatasetError(f"unsupported KG format version: {version!r}")
    kg = KnowledgeGraph(name=document.get("name", "kg"))
    for node in document["nodes"]:
        kg.add_node(node["name"], types=node["types"], attributes=node.get("attributes", {}))
    for edge in document["edges"]:
        kg.add_edge(int(edge["subject"]), edge["predicate"], int(edge["object"]))
    return kg


def save_triples(kg: KnowledgeGraph, path: str | Path) -> None:
    """Write edges as ``subject<TAB>predicate<TAB>object`` names per line."""
    names = [kg.node(node_id).name for node_id in kg.nodes()]
    predicates = kg.predicates
    lines = [f"{names[s]}\t{predicates[p]}\t{names[o]}" for s, p, o in kg.triples()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_triples(
    path: str | Path,
    *,
    default_type: str = "Entity",
    name: str = "kg",
) -> KnowledgeGraph:
    """Load a triple file, creating nodes with ``default_type`` on first use.

    Attribute-free — use the JSON format when numeric attributes matter.
    """
    kg = KnowledgeGraph(name=name)
    for line_number, raw_line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 3:
            raise DatasetError(f"{path}:{line_number}: expected 3 fields, got {len(parts)}")
        subject_name, predicate, object_name = parts
        for node_name in (subject_name, object_name):
            if not kg.has_node_named(node_name):
                kg.add_node(node_name, types=[default_type])
        kg.add_edge(kg.node_by_name(subject_name), predicate, kg.node_by_name(object_name))
    return kg
