"""The zero-copy segment container behind every ``repro.store`` artefact.

One store file is a JSON header followed by raw, 64-byte-aligned numpy
array segments::

    offset 0   : magic  b"REPROSTR"            (8 bytes)
    offset 8   : header length                 (uint64 little-endian)
    offset 16  : header JSON (utf-8)           (``header length`` bytes)
    aligned 64 : segment 0 raw bytes (C order)
    aligned 64 : segment 1 raw bytes
    ...

The header carries the format version, caller metadata (snapshot keys,
plan fingerprints...) and one entry per segment: name, dtype string,
shape and byte offset.  Because segments are raw C-contiguous buffers at
known offsets, :func:`read_arrays` can hand back ``np.memmap`` views —
loading a multi-hundred-MB snapshot touches no array bytes until they are
used, and two processes mapping the same file share pages.

Everything here raises :class:`~repro.errors.StoreError` on malformed
input so callers can distinguish store corruption from engine errors.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.errors import StoreError

#: per-process serial making concurrent writers' temp names unique
_WRITE_SERIAL = itertools.count()

#: file magic; changing the layout bumps FORMAT_VERSION, never the magic
MAGIC = b"REPROSTR"
FORMAT_VERSION = 1

#: segment alignment (bytes); 64 covers every numpy dtype and cache line
ALIGNMENT = 64


def _aligned(offset: int) -> int:
    """``offset`` rounded up to the next :data:`ALIGNMENT` boundary."""
    remainder = offset % ALIGNMENT
    return offset if remainder == 0 else offset + (ALIGNMENT - remainder)


def _segment_entries(
    arrays: Mapping[str, np.ndarray], payload_base: int
) -> tuple[list[dict], int]:
    """Header entries + total size for ``arrays`` packed after ``payload_base``.

    Layout only reads dtype/shape/nbytes — identical for non-contiguous
    inputs — so no array is copied here; the single
    ``ascontiguousarray`` conversion happens at write time.
    """
    entries: list[dict] = []
    offset = payload_base
    for name, array in arrays.items():
        offset = _aligned(offset)
        entries.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": int(array.nbytes),
            }
        )
        offset += array.nbytes
    return entries, offset


def _build_header(
    metadata: Mapping[str, object], arrays: Mapping[str, np.ndarray]
) -> tuple[bytes, list[dict], int]:
    """``(header bytes, segment entries, total file size)`` for one layout.

    The header length depends on the segment offsets, which depend on the
    header length; the fixed point is found by recomputing until stable
    (two passes in practice, since only the digits of the offsets move).
    """
    payload_base = 16  # magic + length; grows once the header is known
    for _ in range(8):
        entries, total = _segment_entries(arrays, payload_base)
        document = {
            "format_version": FORMAT_VERSION,
            "metadata": dict(metadata),
            "segments": entries,
        }
        header = json.dumps(document, sort_keys=True).encode("utf-8")
        new_base = _aligned(16 + len(header))
        if new_base == payload_base:
            return header, entries, total
        payload_base = new_base
    raise StoreError("store header layout failed to stabilise")  # pragma: no cover


def _write_stream(stream, metadata, arrays) -> None:
    """Stream one container into a binary writer (no full-size copy).

    Segments go out as flat memoryviews over the source buffers —
    ``write`` accepts any bytes-like object (plain files and ``BytesIO``
    alike), so saving a multi-hundred-MB snapshot costs O(write buffer)
    transient memory, not 2x the file size.
    """
    header, entries, total = _build_header(metadata, arrays)
    stream.write(MAGIC)
    stream.write(len(header).to_bytes(8, "little"))
    stream.write(header)
    position = 16 + len(header)
    for entry, array in zip(entries, arrays.values()):
        padding = entry["offset"] - position
        if padding:
            stream.write(b"\x00" * padding)
        stream.write(memoryview(np.ascontiguousarray(array)).cast("B"))
        position = entry["offset"] + entry["nbytes"]
    # pad to the declared total, so files are always exactly `total`
    # bytes — with zero segments the header's trailing alignment is
    # otherwise never emitted
    trailing = total - position
    if trailing < 0:  # pragma: no cover - layout invariant
        raise StoreError("store layout size mismatch while packing")
    if trailing:
        stream.write(b"\x00" * trailing)


def pack_arrays(
    metadata: Mapping[str, object], arrays: Mapping[str, np.ndarray]
) -> bytes:
    """Serialise ``(metadata, arrays)`` into one store-format byte string."""
    buffer = io.BytesIO()
    _write_stream(buffer, metadata, arrays)
    return buffer.getvalue()


def write_arrays(
    path: str | Path,
    metadata: Mapping[str, object],
    arrays: Mapping[str, np.ndarray],
) -> None:
    """Write ``(metadata, arrays)`` to ``path`` atomically (tmp + rename).

    The temporary name is unique per writer (pid + per-process counter):
    concurrent processes racing to persist the same catalog entry each
    complete a private file and the last rename wins — the entries are
    content-equal by construction, and no reader can ever observe a
    half-written file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(
        f"{path.name}.{os.getpid()}-{next(_WRITE_SERIAL)}.tmp"
    )
    try:
        with open(temporary, "wb") as stream:
            _write_stream(stream, metadata, arrays)
        temporary.replace(path)
    finally:
        temporary.unlink(missing_ok=True)


def parse_header(buffer: bytes | memoryview) -> tuple[dict, list[dict]]:
    """``(metadata, segment entries)`` parsed from a store-format buffer."""
    if len(buffer) < 16 or bytes(buffer[:8]) != MAGIC:
        raise StoreError("not a repro store file (bad magic)")
    header_length = int.from_bytes(bytes(buffer[8:16]), "little")
    if 16 + header_length > len(buffer):
        raise StoreError("truncated store header")
    try:
        document = json.loads(bytes(buffer[16 : 16 + header_length]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(f"corrupt store header: {exc}") from exc
    if not isinstance(document, dict):
        raise StoreError("corrupt store header: not a JSON object")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise StoreError(f"unsupported store format version: {version!r}")
    metadata = document.get("metadata", {})
    segments = document.get("segments", [])
    if not isinstance(metadata, dict) or not isinstance(segments, list):
        raise StoreError("corrupt store header: metadata or segments malformed")
    return metadata, segments


def unpack_arrays(
    buffer, *, writable: bool = False
) -> tuple[dict, dict[str, np.ndarray]]:
    """``(metadata, arrays)`` as zero-copy views over ``buffer``.

    ``buffer`` is anything exposing the buffer protocol over the full
    store bytes — an ``mmap``, a memoryview, or plain ``bytes``.  The returned arrays alias the buffer (no copy); they are
    marked read-only unless ``writable``.
    """
    metadata, entries = parse_header(memoryview(buffer))
    arrays: dict[str, np.ndarray] = {}
    view = memoryview(buffer)
    for entry in entries:
        try:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(value) for value in entry["shape"])
            offset = int(entry["offset"])
            nbytes = int(entry["nbytes"])
        # numpy parses a dtype string holding a comma with ast.literal_eval,
        # so a corrupt one can raise SyntaxError
        except (KeyError, TypeError, ValueError, OverflowError, SyntaxError) as exc:
            raise StoreError(f"corrupt segment entry: {entry!r}") from exc
        if not isinstance(name, str):
            raise StoreError(f"corrupt segment entry: {entry!r}")
        if offset < 0 or nbytes < 0 or offset + nbytes > len(view):
            raise StoreError(f"segment {name!r} lies outside the store bounds")
        expected = dtype.itemsize * math.prod(shape)
        if nbytes != expected:
            raise StoreError(
                f"segment {name!r} declares {nbytes} bytes but "
                f"dtype/shape require {expected}"
            )
        try:
            array = np.frombuffer(view[offset : offset + nbytes], dtype=dtype)
            array = array.reshape(shape)
        except ValueError as exc:
            # an object or zero-size dtype, or negative dimensions
            raise StoreError(
                f"segment {name!r} is no {dtype} array of shape {shape}"
            ) from exc
        if not writable:
            array.setflags(write=False)
        arrays[name] = array
    return metadata, arrays


def read_arrays(
    path: str | Path, *, mmap: bool = True
) -> tuple[dict, dict[str, np.ndarray]]:
    """Load a store file written by :func:`write_arrays`.

    With ``mmap`` (the default) the arrays are ``np.memmap``-backed
    zero-copy views: nothing is read eagerly and reloading a snapshot is
    O(header).  With ``mmap=False`` the file is read into memory once and
    the arrays are copies independent of the file.
    """
    path = Path(path)
    if not path.is_file():
        raise StoreError(f"no store file at {path}")
    if mmap:
        try:
            mapped = np.memmap(path, dtype=np.uint8, mode="r")
        except (ValueError, OSError) as exc:
            # e.g. a zero-byte file left by a crash mid-save: per the
            # module contract, malformed input is always a StoreError
            raise StoreError(f"unreadable store file {path}: {exc}") from exc
        return unpack_arrays(mapped)
    data = path.read_bytes()
    metadata, views = unpack_arrays(data)
    return metadata, {name: array.copy() for name, array in views.items()}
