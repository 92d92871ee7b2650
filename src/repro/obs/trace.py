"""Structured tracing: plain-dataclass spans, context-propagated.

A span is a named, timed tree node with JSON-clean attributes — no I/O,
no sampling, no globals beyond one :data:`contextvars.ContextVar`
holding the active span.  One primitive, :class:`Clock`, times every
stage: the scheduler opens each slot it steps under a query's root span
with it, and the layers below open children at their existing seams,
each adding the same ``perf_counter`` pair to the query's stage bucket
when given one.  Without an active span a stage builds no span at all
(the ``NULL_REGISTRY`` / instrumentation-off path never builds a tree).

The span tree a query accumulated is retrievable as
``QueryHandle.trace()`` (a nested dict via :meth:`Span.as_dict`) and is
the source of the per-query audit-log line.
"""

from __future__ import annotations

import math
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Clock",
    "Span",
    "current_span",
    "start_span",
]


def _json_safe(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    return str(value)


@dataclass
class Span:
    """One node of a query's span tree.

    ``duration_s`` is None while the span is open; the :class:`Clock`
    that opened it, or :meth:`end` for a root, stamps it from the
    monotonic clock.  Children are appended in the order they open.
    Mutation is single-writer by construction: a query's spans are only
    touched by whichever thread holds its scheduler slot.
    """

    name: str
    attributes: dict = field(default_factory=dict)
    started_at: float = field(default_factory=time.perf_counter)
    duration_s: float | None = None
    children: list["Span"] = field(default_factory=list)

    def end(self) -> "Span":
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self.started_at
        return self

    def annotate(self, **attributes) -> None:
        self.attributes.update(attributes)

    def as_dict(self) -> dict:
        duration = self.duration_s
        if duration is None:  # still open: report elapsed-so-far
            duration = time.perf_counter() - self.started_at
        return {
            "name": self.name,
            "duration_ms": round(duration * 1e3, 3),
            "attributes": {
                key: _json_safe(value)
                for key, value in self.attributes.items()
            },
            "children": [child.as_dict() for child in self.children],
        }


_CURRENT: ContextVar[Span | None] = ContextVar(
    "repro_obs_current_span", default=None
)


def start_span(name: str, **attributes) -> Span:
    """A fresh root span, not ambient until a ``Clock(parent=span)`` opens."""
    return Span(name=name, attributes=attributes)


def current_span() -> Span | None:
    return _CURRENT.get()


class Clock:
    """One interval, one clock: a stage bucket and a span from one
    ``perf_counter`` pair.

    ``with Clock(name, timers, bucket, **attributes)`` reads the clock on
    entry and on exit and adds the elapsed seconds to ``timers[bucket]``
    when given a bucket dict.  With a ``name`` and a span to hang it
    under — ``parent``, else the ambient one — it also records a child
    :class:`Span` whose start and duration are that same pair, ambient
    for the body; without a span it builds none, so the
    instrumentation-off path costs two clock reads and a ContextVar
    read.  Without a ``name``, ``parent`` (if not None) is only made
    ambient for the body.  The elapsed seconds stay readable as
    :attr:`seconds`, and the bucket and the span are written even when
    the body raises.
    """

    __slots__ = (
        "_name", "_timers", "_bucket", "_parent", "_attributes",
        "_started", "_token", "_span", "seconds",
    )

    def __init__(
        self,
        name: str | None = None,
        timers: dict[str, float] | None = None,
        bucket: str | None = None,
        /,
        parent: Span | None = None,
        **attributes,
    ) -> None:
        self._name = name
        self._timers = timers
        self._bucket = bucket
        self._parent = parent
        self._attributes = attributes
        self._span: Span | None = None
        self.seconds = 0.0

    def __enter__(self) -> Span | None:
        parent = self._parent
        if parent is None:
            parent = _CURRENT.get()
        self._token = None
        self._started = started = time.perf_counter()
        if self._name is None:
            if parent is not None:
                self._token = _CURRENT.set(parent)
        elif parent is not None:
            span = self._span = Span(self._name, self._attributes, started)
            parent.children.append(span)
            self._token = _CURRENT.set(span)
        return self._span

    def __exit__(self, *_exc) -> None:
        self.seconds = seconds = time.perf_counter() - self._started
        timers = self._timers
        if timers is not None:
            timers[self._bucket] = timers.get(self._bucket, 0.0) + seconds
        if self._token is not None:
            _CURRENT.reset(self._token)
        if self._span is not None:
            self._span.duration_s = seconds
