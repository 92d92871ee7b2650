""":class:`SnapshotCatalog` — a directory of CSR snapshots.

Layout under one root::

    <root>/
      snapshots/<graph16>-v<structure_version>.snap

where ``<graph16>`` is the first 16 hex chars of the graph's content
fingerprint.  The catalog is the deployment face of the store: a warm
process saves its snapshot once, and every later service, CLI invocation
or benchmark run memory-maps it back (:func:`~repro.store.load_snapshot`)
instead of recompiling the CSR — the cross-*process* analogue of the
in-process snapshot cache.
"""

from __future__ import annotations

from pathlib import Path

from repro.kg.graph import KnowledgeGraph
from repro.store.snapshot import cached_graph_fingerprint, save_snapshot

#: hex chars of the graph fingerprint kept in file names
_SHORT = 16


class SnapshotCatalog:
    """Directory-backed store of CSR snapshots."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotCatalog({str(self.root)!r})"

    def snapshot_path(self, kg: KnowledgeGraph) -> Path:
        """Where ``kg``'s current structure's snapshot lives."""
        key = f"{cached_graph_fingerprint(kg)[:_SHORT]}-v{kg.structure_version}"
        return self.root / "snapshots" / f"{key}.snap"

    def save_snapshot(self, kg: KnowledgeGraph) -> Path:
        """Persist ``kg``'s CSR snapshot; returns the file path."""
        return save_snapshot(kg, self.snapshot_path(kg))
