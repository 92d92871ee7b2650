"""Aggregate queries over query graphs (Definition 2, §V-A).

``AQ_G = (Q, f_a)`` pairs a :class:`~repro.query.graph.QueryGraph` with an
aggregate function over a numeric attribute, optionally restricted by range
filters (Definition 6) and partitioned by a GROUP-BY specification.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import QueryError
from repro.kg.graph import Node
from repro.query.graph import QueryGraph


class AggregateFunction(enum.Enum):
    """Supported aggregates; COUNT/SUM/AVG carry accuracy guarantees."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MAX = "MAX"
    MIN = "MIN"

    @property
    def needs_attribute(self) -> bool:
        """True for every function except COUNT."""
        return self is not AggregateFunction.COUNT

    @property
    def has_guarantee(self) -> bool:
        """Extreme functions are supported without CI guarantees (§IV-B1)."""
        return self in (
            AggregateFunction.COUNT,
            AggregateFunction.SUM,
            AggregateFunction.AVG,
        )


@dataclass(frozen=True)
class Filter:
    """Definition 6: ``L <= u.b <= U`` on an answer attribute.

    Either bound may be ``None`` (one-sided ranges).  Answers lacking the
    attribute fail the filter.
    """

    attribute: str
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self) -> None:
        if not self.attribute:
            raise QueryError("a filter needs an attribute name")
        if self.lower is None and self.upper is None:
            raise QueryError("a filter needs at least one bound")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise QueryError(
                f"filter bounds inverted: {self.lower} > {self.upper}"
            )

    def matches(self, node: Node) -> bool:
        """True when the node's attribute value lies within the bounds."""
        value = node.attribute(self.attribute)
        if value is None or math.isnan(value):
            return False
        if self.lower is not None and value < self.lower:
            return False
        if self.upper is not None and value > self.upper:
            return False
        return True


@dataclass(frozen=True)
class GroupBy:
    """GROUP-BY on the target node (§V-A).

    Two modes:

    * categorical — group key is the raw attribute value (e.g. an interned
      country code);
    * binned — ``bin_width`` partitions a numeric attribute into intervals
      (the paper's "age group" example).
    """

    attribute: str
    bin_width: float | None = None

    def __post_init__(self) -> None:
        if not self.attribute:
            raise QueryError("group-by needs an attribute name")
        if self.bin_width is not None and self.bin_width <= 0:
            raise QueryError("bin_width must be positive")

    def key_for(self, node: Node) -> float | None:
        """The group key for ``node``; ``None`` when the attribute is absent."""
        value = node.attribute(self.attribute)
        if value is None or math.isnan(value):
            return None
        if self.bin_width is None:
            return value
        key = math.floor(value / self.bin_width) * self.bin_width
        if key > value:
            # Tiny negative values can underflow the division to -0.0,
            # rounding the key into the bin above; step down one bin so
            # key <= value always holds.
            key -= self.bin_width
        return key

    def label_for(self, key: float) -> str:
        """Human-readable label of the group keyed by ``key``."""
        if self.bin_width is None:
            return f"{self.attribute}={key:g}"
        return f"{self.attribute}∈[{key:g},{key + self.bin_width:g})"


@dataclass(frozen=True)
class AggregateQuery:
    """An aggregate query ``AQ_G = (Q, f_a)`` with optional filters/grouping."""

    query: QueryGraph
    function: AggregateFunction
    attribute: str | None = None
    filters: tuple[Filter, ...] = field(default_factory=tuple)
    group_by: GroupBy | None = None

    def __post_init__(self) -> None:
        if self.function.needs_attribute and not self.attribute:
            raise QueryError(f"{self.function.value} requires an attribute")
        if not self.function.needs_attribute and self.attribute:
            raise QueryError("COUNT does not take an attribute")

    @property
    def has_filters(self) -> bool:
        """True when at least one filter is attached."""
        return bool(self.filters)

    def passes_filters(self, node: Node) -> bool:
        """§V-A: filters are conjunctive."""
        return all(filter_.matches(node) for filter_ in self.filters)

    def value_of(self, node: Node) -> float | None:
        """The aggregated value contributed by ``node``.

        COUNT contributes 1.0; other functions contribute the attribute
        value (``None`` when the node lacks the attribute).
        """
        if self.function is AggregateFunction.COUNT:
            return 1.0
        return node.attribute(self.attribute or "")

    def describe(self) -> str:
        """One-line human-readable rendering of the query."""
        attribute = self.attribute or "*"
        text = f"{self.function.value}({attribute}) over {self.query}"
        if self.filters:
            conditions = ", ".join(
                f"{f.lower if f.lower is not None else '-inf'}<="
                f"{f.attribute}<={f.upper if f.upper is not None else 'inf'}"
                for f in self.filters
            )
            text += f" WHERE {conditions}"
        if self.group_by is not None:
            text += f" GROUP BY {self.group_by.attribute}"
        return text


def exact_aggregate(
    function: AggregateFunction, values: Sequence[float]
) -> float:
    """Apply ``function`` exactly to ``values`` (used by all exact baselines).

    SUM and AVG are exactly rounded (``math.fsum``) and MAX / MIN fold
    ``-0.0`` into ``0.0``, so the result does not depend on the order
    ``values`` come in — a set's iteration order included.
    """
    if function is AggregateFunction.COUNT:
        return float(len(values))
    if not values:
        raise QueryError(f"{function.value} of an empty answer set is undefined")
    if function is AggregateFunction.SUM:
        return math.fsum(values)
    if function is AggregateFunction.AVG:
        return math.fsum(values) / len(values)
    if function is AggregateFunction.MAX:
        return float(max(values)) + 0.0
    if function is AggregateFunction.MIN:
        return float(min(values)) + 0.0
    raise QueryError(f"unsupported aggregate function: {function}")
