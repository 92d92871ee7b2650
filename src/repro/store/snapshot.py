"""CSR snapshot persistence: save once, memory-map forever.

A snapshot file is the :mod:`repro.store.format` container holding the
five :class:`~repro.kg.csr.CSRGraph` arrays plus a validation key::

    (graph fingerprint, structure_version, num_nodes, num_edges)

``structure_version`` is the same counter the in-process snapshot cache
and the :class:`~repro.core.plan.PlanCache` key on; the content
fingerprint (:func:`repro.kg.io.graph_fingerprint`) additionally survives
serialisation, so a snapshot saved in one process validates against the
same graph loaded from JSON in another.  Loading with ``mmap=True`` (the
default) is O(header): no array bytes are touched until the engine walks
them, and :func:`load_snapshot` installs the result into the graph's
snapshot cache so ``csr_snapshot(kg)`` never calls ``build_csr`` again.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import StoreError
from repro.kg.csr import CSRGraph, csr_from_arrays, csr_snapshot, install_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.kg.io import graph_fingerprint
from repro.store.format import read_arrays, write_arrays

#: metadata ``kind`` tag a snapshot file carries, checked on every load
SNAPSHOT_KIND = "csr-snapshot"

#: attribute memoising ``(structure_version, fingerprint)`` per graph —
#: fingerprinting walks every triple, so it is computed once per structure
_FINGERPRINT_ATTR = "_repro_graph_fingerprint"


def cached_graph_fingerprint(kg: KnowledgeGraph) -> str:
    """:func:`graph_fingerprint`, memoised per graph structure version."""
    cached = getattr(kg, _FINGERPRINT_ATTR, None)
    version = kg.structure_version
    if cached is not None and cached[0] == version:
        return cached[1]
    fingerprint = graph_fingerprint(kg)
    setattr(kg, _FINGERPRINT_ATTR, (version, fingerprint))
    return fingerprint


def snapshot_metadata(kg: KnowledgeGraph) -> dict:
    """The validation key a snapshot of ``kg``'s current structure carries."""
    return {
        "kind": SNAPSHOT_KIND,
        "graph_name": kg.name,
        "graph_fingerprint": cached_graph_fingerprint(kg),
        "structure_version": kg.structure_version,
        "num_nodes": kg.num_nodes,
        "num_edges": kg.num_edges,
    }


def save_snapshot(kg: KnowledgeGraph, path: str | Path) -> Path:
    """Write ``kg``'s (possibly freshly compiled) CSR snapshot to ``path``."""
    snapshot = csr_snapshot(kg)
    metadata, arrays = snapshot.export_arrays()
    metadata.update(snapshot_metadata(kg))
    write_arrays(path, metadata, arrays)
    return Path(path)


def _validate_snapshot_key(metadata: dict, kg: KnowledgeGraph, path) -> None:
    if metadata.get("kind") != SNAPSHOT_KIND:
        raise StoreError(f"{path} is not a CSR snapshot (kind={metadata.get('kind')!r})")
    stored_version = metadata.get("structure_version")
    if stored_version != kg.structure_version:
        raise StoreError(
            f"snapshot {path} was saved at structure_version {stored_version}, "
            f"but the graph is at {kg.structure_version}; rebuild the snapshot "
            "after structural mutation"
        )
    if (
        metadata.get("num_nodes") != kg.num_nodes
        or metadata.get("num_edges") != kg.num_edges
    ):
        raise StoreError(
            f"snapshot {path} describes {metadata.get('num_nodes')} nodes / "
            f"{metadata.get('num_edges')} edges, but the graph has "
            f"{kg.num_nodes} / {kg.num_edges}"
        )


def load_snapshot(
    path: str | Path,
    kg: KnowledgeGraph | None = None,
    *,
    mmap: bool = True,
    verify_fingerprint: bool = False,
) -> CSRGraph:
    """Load a snapshot file, optionally validating + installing it on ``kg``.

    Without ``kg`` the raw :class:`CSRGraph` is returned (inspection,
    tooling).  With ``kg`` the stored key is validated — ``kind``,
    ``structure_version`` and the node/edge counts must match, raising
    :class:`StoreError` otherwise — and the snapshot is installed into the
    graph's cache, so subsequent ``csr_snapshot(kg)`` calls skip
    ``build_csr`` entirely.  ``verify_fingerprint`` additionally checks
    the content hash (O(edges); catches same-sized but different graphs).
    """
    metadata, arrays = read_arrays(path, mmap=mmap)
    try:
        snapshot = csr_from_arrays(metadata, arrays)
    except KeyError as exc:
        raise StoreError(f"snapshot {path} metadata missing {exc}") from exc
    if kg is None:
        return snapshot
    _validate_snapshot_key(metadata, kg, path)
    if verify_fingerprint:
        expected = metadata.get("graph_fingerprint")
        actual = cached_graph_fingerprint(kg)
        if expected != actual:
            raise StoreError(
                f"snapshot {path} content fingerprint {expected!r} does not "
                f"match the graph ({actual!r}): same shape, different graph"
            )
    return install_snapshot(kg, snapshot)
