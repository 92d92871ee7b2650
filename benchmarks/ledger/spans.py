"""Spans recorded from the benchmark's side of each layer boundary.

The program under test is not edited: a span is installed by rebinding
the target callable in every loaded ``repro.*`` module that holds a
reference to it (``from x import f`` copies the reference, so patching
the defining module alone would miss those callers).  A target that no
longer resolves is reported as *untraced* and its metrics are dropped;
it is never an error, so a later refactor cannot break the benchmark.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module.attr`` or ``module.owner.attr``."""

    span: str
    module: str
    attr: str
    owner: str | None = None
    #: ``(args, kwargs, result) -> query id``; None inherits the parent's
    query_id: Callable | None = None
    #: ``(args, kwargs, result) -> number`` stored as the span's count
    count: Callable | None = None


class Span:
    """name, start, end, the span that caused it, and the query it serves."""

    __slots__ = ("name", "start", "end", "parent", "query_id", "count")

    def __init__(self, name: str, parent: "Span | None", query_id) -> None:
        self.name = name
        self.parent = parent
        self.query_id = query_id
        self.count = 0.0
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory until :meth:`to_json` writes them out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.untraced: list[str] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        #: executor states seen by ``initialise`` -> (state, query id); the
        #: state is held so its ``id`` cannot be reused while tracing
        self.states: dict[int, tuple[object, object]] = {}

    # -- recording ------------------------------------------------------
    def _wrap(self, target: Target, original: Callable) -> Callable:
        spans = self.spans
        local = self._local
        name = target.span
        query_id_of = target.query_id
        count_of = target.count

        def traced(*args, **kwargs):
            parent = getattr(local, "current", None)
            span = Span(name, parent, parent.query_id if parent else None)
            local.current = span
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                local.current = parent
                if query_id_of is not None:
                    span.query_id = query_id_of(self, args, kwargs, result)
                if count_of is not None and result is not None:
                    span.count = float(count_of(args, kwargs, result))
                spans.append(span)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    # -- installation ---------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        """Rebind every resolvable target; list the rest as untraced."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
                holder = getattr(module, target.owner) if target.owner else module
                original = getattr(holder, target.attr)
            except (ImportError, AttributeError):
                self.untraced.append(target.span)
                continue
            wrapper = self._wrap(target, original)
            if target.owner:
                self._rebind(holder, target.attr, wrapper, original)
                continue
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not name.startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._rebind(loaded, attr, wrapper, original)

    def _rebind(self, holder, attr: str, wrapper, original) -> None:
        setattr(holder, attr, wrapper)
        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    # -- output ---------------------------------------------------------
    def to_json(self) -> dict:
        """Spans with parents as indices, plus the untraced targets."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return {
            "untraced": sorted(self.untraced),
            "spans": [
                {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": index.get(id(span.parent), -1),
                    "query_id": span.query_id,
                    "count": span.count,
                }
                for span in self.spans
            ],
        }


def since(trace: dict, started: float) -> dict:
    """``trace`` without the spans that began before ``started``.

    The traced server records from its first import on; the traced pass
    is only the part after the warm-up.  ``perf_counter`` reads the
    system-wide monotonic clock on Linux, so the benchmark's ``started``
    and the server's span times are on one axis.
    """
    kept = [i for i, span in enumerate(trace["spans"]) if span["start"] >= started]
    position = {old: new for new, old in enumerate(kept)}
    return {
        "untraced": trace["untraced"],
        "spans": [
            trace["spans"][old] | {"parent": position.get(trace["spans"][old]["parent"], -1)}
            for old in kept
        ],
    }


def self_seconds(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children run inside their parent on the parent's thread, one after
    another, so the covered part is the plain sum of their durations.
    """
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent >= 0:
            own[parent] -= span["end"] - span["start"]
    return own
