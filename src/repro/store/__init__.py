"""``repro.store`` — persistence of CSR snapshots across processes.

The CSR graph snapshot is amortised in-process by the snapshot cache,
but dies with the process.  This package makes it durable:

* :mod:`repro.store.format` — a versioned zero-copy container: JSON
  header + raw 64-byte-aligned numpy segments, ``np.memmap``-loadable;
* :mod:`repro.store.snapshot` — save/load of CSR snapshots, keyed and
  validated by ``(graph fingerprint, structure_version, num_nodes,
  num_edges)``;
* :class:`SnapshotCatalog` — a directory of snapshots, one per graph
  structure.
"""

from repro.store.catalog import SnapshotCatalog
from repro.store.format import pack_arrays, read_arrays, unpack_arrays, write_arrays
from repro.store.snapshot import load_snapshot, save_snapshot

__all__ = [
    "SnapshotCatalog",
    "load_snapshot",
    "pack_arrays",
    "read_arrays",
    "save_snapshot",
    "unpack_arrays",
    "write_arrays",
]
