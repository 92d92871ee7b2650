"""Query model: query graphs of all five shapes, aggregates, filters, GROUP-BY.

A query graph is represented as one or more :class:`PathQuery` components
that share the same target node — exactly the decomposition the paper's
"decomposition-assembly" framework (§V-B) operates on.  A single one-hop
component is the paper's *simple* query (Definition 3), a single multi-hop
component is a *chain*, and multiple components form star / cycle / flower
shapes.
"""

from repro.query.aggregate import (
    AggregateFunction,
    AggregateQuery,
    Filter,
    GroupBy,
)
from repro.query.graph import PathQuery, QueryGraph, QueryShape
from repro.query.parser import ParseError, format_query, parse_query

__all__ = [
    "AggregateFunction",
    "AggregateQuery",
    "Filter",
    "GroupBy",
    "ParseError",
    "PathQuery",
    "QueryGraph",
    "QueryShape",
    "format_query",
    "parse_query",
]
