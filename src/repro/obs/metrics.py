"""Lock-cheap metrics: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` holds every instrument a service (or a
standalone backend) registers.  Layers do not talk to the registry
directly — they take a named child :class:`MetricsScope`
(``registry.scope("workers")``) and register their own family under it,
so the full metric name carries its layer: ``repro_workers_retries_total``,
``repro_scheduler_round_seconds`` and so on.

Everything here is hot-path friendly:

* a :class:`Counter` increment is one tiny critical section (a plain
  ``+=`` is not atomic in Python; a per-counter lock is, and is cheap —
  no global registry lock is ever taken after registration);
* a :class:`Histogram` observation is one ``searchsorted`` into a fixed
  numpy bucket array plus three adds — no allocation, no quantile math
  (quantiles are the scrape consumer's job, as in Prometheus);
* registration is idempotent: asking for an existing ``(name, labels)``
  pair returns the existing instrument, so instruments can be looked up
  wherever they are needed without caching discipline.

:func:`shared_registry` returns the process-wide registry (the
``shared_plan_cache()`` idiom).  :class:`AggregateQueryService` defaults
to a *fresh* registry per service instead, so ``health()`` counters
describe one service's lifetime — pass ``registry=shared_registry()`` to
aggregate across services, or ``registry=NULL_REGISTRY`` to disable the
observability layer entirely (instruments become no-ops and span trees
are not built; used by the instrumentation-tax benchmark).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "NULL_REGISTRY",
    "NullRegistry",
    "shared_registry",
]

#: default latency buckets (seconds): sub-millisecond kernels up to
#: multi-second whole-query walls
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{name}="{_escape_label(value)}"' for name, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float | int) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class Counter:
    """A monotonically increasing count; reads and writes are atomic."""

    __slots__ = ("name", "labels", "_lock", "_value")

    is_null = False

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = _label_key(labels)
        self._lock = threading.Lock()
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _samples(self):
        yield self.name, self.labels, self.value


class Gauge:
    """A value that can go up and down, or mirror a callable.

    ``set_function`` turns the gauge into a read-through view of
    existing state (e.g. a plan cache's hit counter or the live-query
    count) — the single-source-of-truth migration without moving the
    state itself.
    """

    __slots__ = ("name", "labels", "_lock", "_value", "_provider")

    is_null = False

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = _label_key(labels)
        self._lock = threading.Lock()
        self._value: float = 0
        self._provider = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    def set_function(self, provider) -> None:
        self._provider = provider

    def freeze(self, provider) -> None:
        """Stop mirroring ``provider``: keep its last reading, drop it.

        What an owner shutting down calls, so the registry no longer
        keeps it alive through the callable while scrapes still answer.
        A gauge that has since been pointed at another provider (a
        registry shared by several owners) is left alone.
        """
        if self._provider == provider:
            self.set(provider())
            self._provider = None

    @property
    def value(self) -> float:
        provider = self._provider
        if provider is not None:
            return provider()
        with self._lock:
            return self._value

    def _samples(self):
        yield self.name, self.labels, self.value


class Histogram:
    """Fixed upper-edge buckets backed by a numpy bincount array.

    ``observe`` is one binary search (``le`` means *less-or-equal*, so
    ``side="left"`` lands a value exactly on an edge in that edge's
    bucket) plus three adds; ``observe_many`` vectorises a whole batch.
    """

    __slots__ = ("name", "labels", "upper_edges", "_edges", "_lock",
                 "_counts", "_sum", "_count")

    is_null = False

    def __init__(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        if not buckets:
            raise ValueError("a histogram needs at least one bucket edge")
        self.name = name
        self.labels = _label_key(labels)
        self.upper_edges = tuple(sorted(float(edge) for edge in buckets))
        self._edges = np.asarray(self.upper_edges, dtype=np.float64)
        self._lock = threading.Lock()
        # one overflow bucket past the last edge (the +Inf bucket)
        self._counts = np.zeros(len(self.upper_edges) + 1, dtype=np.int64)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = int(np.searchsorted(self._edges, value, side="left"))
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_many(self, values) -> None:
        array = np.asarray(values, dtype=np.float64)
        if array.size == 0:
            return
        indexes = np.searchsorted(self._edges, array, side="left")
        counts = np.bincount(indexes, minlength=len(self._counts))
        with self._lock:
            self._counts += counts
            self._sum += float(array.sum())
            self._count += int(array.size)

    def snapshot(self) -> dict:
        with self._lock:
            counts = self._counts.copy()
            total, count = self._sum, self._count
        cumulative = np.cumsum(counts)
        buckets = {
            edge: int(cumulative[index])
            for index, edge in enumerate(self.upper_edges)
        }
        buckets[float("inf")] = int(cumulative[-1])
        return {"buckets": buckets, "sum": total, "count": count}

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _samples(self):
        snap = self.snapshot()
        for edge, cumulative in snap["buckets"].items():
            le = "+Inf" if edge == float("inf") else _format_value(edge)
            yield f"{self.name}_bucket", self.labels + (("le", le),), cumulative
        yield f"{self.name}_sum", self.labels, snap["sum"]
        yield f"{self.name}_count", self.labels, snap["count"]


class _Family:
    __slots__ = ("name", "kind", "help", "instruments")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.instruments: dict[tuple, object] = {}


class MetricsRegistry:
    """All instruments of one service (or one standalone backend).

    The registry lock guards registration and iteration only — never an
    increment/observe, which use their instrument's own lock.
    """

    enabled = True

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # -- registration ---------------------------------------------------
    def scope(self, name: str) -> "MetricsScope":
        return MetricsScope(self, name)

    def _register(self, kind: str, name: str, help_text: str,
                  labels: dict[str, str] | None, factory):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{family.kind}, not a {kind}"
                )
            instrument = family.instruments.get(key)
            if instrument is None:
                instrument = factory()
                family.instruments[key] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "",
                labels: dict[str, str] | None = None) -> Counter:
        return self._register(
            "counter", name, help_text, labels, lambda: Counter(name, labels)
        )

    def gauge(self, name: str, help_text: str = "",
              labels: dict[str, str] | None = None) -> Gauge:
        return self._register(
            "gauge", name, help_text, labels, lambda: Gauge(name, labels)
        )

    def histogram(self, name: str, help_text: str = "",
                  labels: dict[str, str] | None = None,
                  buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
                  ) -> Histogram:
        return self._register(
            "histogram", name, help_text, labels,
            lambda: Histogram(name, labels, buckets),
        )

    # -- export ---------------------------------------------------------
    def _snapshot_families(self) -> list[_Family]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def snapshot(self) -> dict:
        """A nested, JSON-clean view: name -> {labels-repr -> value}."""
        out: dict = {}
        for family in self._snapshot_families():
            entry: dict = {"type": family.kind}
            for key, instrument in sorted(family.instruments.items()):
                label_text = _render_labels(key) or "{}"
                if family.kind == "histogram":
                    snap = instrument.snapshot()
                    entry[label_text] = {
                        "count": snap["count"],
                        "sum": snap["sum"],
                        "buckets": {
                            ("+Inf" if edge == float("inf")
                             else _format_value(edge)): count
                            for edge, count in snap["buckets"].items()
                        },
                    }
                else:
                    entry[label_text] = instrument.value
            out[family.name] = entry
        return out

    def render_prometheus(self) -> str:
        """The text exposition format (version 0.0.4), hand-rolled."""
        lines: list[str] = []
        for family in self._snapshot_families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.instruments):
                instrument = family.instruments[key]
                for sample_name, labels, value in instrument._samples():
                    extra = ""
                    if labels and labels[-1][0] == "le":
                        # the le label is synthesised unescaped/last
                        le = labels[-1][1]
                        labels = labels[:-1]
                        extra = f'le="{le}"'
                    rendered = _render_labels(labels, extra)
                    lines.append(
                        f"{sample_name}{rendered} {_format_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


class MetricsScope:
    """A named prefix over a registry: one layer's metric family."""

    __slots__ = ("_registry", "name")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self.name = name

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    def _full(self, name: str) -> str:
        return f"{self._registry.namespace}_{self.name}_{name}"

    def counter(self, name: str, help_text: str = "",
                labels: dict[str, str] | None = None) -> Counter:
        return self._registry.counter(self._full(name), help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: dict[str, str] | None = None) -> Gauge:
        return self._registry.gauge(self._full(name), help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: dict[str, str] | None = None,
                  buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
                  ) -> Histogram:
        return self._registry.histogram(
            self._full(name), help_text, labels, buckets
        )


class _NullInstrument:
    """One object answering every instrument method with a no-op."""

    __slots__ = ()

    is_null = True
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, provider) -> None:
        pass

    def freeze(self, provider) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def snapshot(self) -> dict:
        return {"buckets": {}, "sum": 0.0, "count": 0}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The off switch: every instrument is a shared no-op singleton.

    ``enabled`` is False, which also turns span-tree construction and
    audit accumulation off in the layers that check it.
    """

    enabled = False
    namespace = "repro"
    name = "null"

    def scope(self, name: str) -> "NullRegistry":
        return self

    def counter(self, *args, **kwargs) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, *args, **kwargs) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, *args, **kwargs) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {}

    def render_prometheus(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()

_SHARED_REGISTRY = MetricsRegistry()


def shared_registry() -> MetricsRegistry:
    """The process-wide registry (the ``shared_plan_cache()`` idiom).

    Services default to a private registry so their ``health()``
    counters start at zero; pass ``registry=shared_registry()`` to
    aggregate several services (or long-lived CLI runs) into one export
    surface instead.
    """
    return _SHARED_REGISTRY
