"""Query workload generation (the paper's Table IV, 400-query style).

Builds aggregate queries of all five shapes over a dataset bundle, with
filters and GROUP-BY variants, and records per-query metadata (shape,
selectivity, hub) so the benchmark harness can slice results the way the
paper's tables do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.builder import DatasetBundle
from repro.datasets.spec import HubSpec
from repro.errors import DatasetError
from repro.query.aggregate import AggregateFunction, AggregateQuery, Filter, GroupBy
from repro.query.graph import PathQuery, QueryGraph, QueryShape


@dataclass(frozen=True)
class WorkloadQuery:
    """One benchmark query plus its metadata."""

    qid: str
    dataset: str
    shape: QueryShape
    aggregate_query: AggregateQuery
    hub_keys: tuple[str, ...]
    description: str = ""

    @property
    def function(self) -> AggregateFunction:
        """The aggregate function of the wrapped query."""
        return self.aggregate_query.function


def simple_query_graph(hub: HubSpec) -> QueryGraph:
    """The hub's canonical simple query graph (Definition 3)."""
    return QueryGraph.simple(
        hub.hub_name, hub.hub_types, hub.canonical_predicate, [hub.target_type]
    )


def chain_query_graph(hub: HubSpec) -> QueryGraph:
    """The hub's two-hop chain query graph (requires a ChainSpec)."""
    if hub.chain is None:
        raise DatasetError(f"hub {hub.key!r} has no chain spec")
    return QueryGraph.chain(
        hub.hub_name,
        hub.hub_types,
        [
            (hub.chain.predicates[0], [hub.chain.intermediate_type]),
            (hub.chain.predicates[1], [hub.target_type]),
        ],
    )


def component_for(hub: HubSpec, kind: str) -> PathQuery:
    """The hub's PathQuery component of the requested kind."""
    graph = simple_query_graph(hub) if kind == "simple" else chain_query_graph(hub)
    return graph.components[0]


class WorkloadBuilder:
    """Generates the benchmark workload for one dataset bundle."""

    def __init__(self, bundle: DatasetBundle) -> None:
        self._bundle = bundle
        self._queries: list[WorkloadQuery] = []
        self._counter = 0

    # ------------------------------------------------------------------
    def _add(
        self,
        shape: QueryShape,
        aggregate_query: AggregateQuery,
        hub_keys: tuple[str, ...],
        description: str,
    ) -> None:
        self._counter += 1
        self._queries.append(
            WorkloadQuery(
                qid=f"{self._bundle.name}-Q{self._counter:03d}",
                dataset=self._bundle.name,
                shape=shape,
                aggregate_query=aggregate_query,
                hub_keys=hub_keys,
                description=description,
            )
        )

    def _numeric_attribute(self, hub: HubSpec) -> str | None:
        for attribute in hub.attributes:
            if attribute.distribution != "integers":
                return attribute.name
        return None

    # ------------------------------------------------------------------
    def add_simple(self, hub: HubSpec, *, with_filters: bool = True) -> None:
        """Add the hub's COUNT/AVG/SUM simple queries."""
        graph = simple_query_graph(hub)
        self._add(
            QueryShape.SIMPLE,
            AggregateQuery(query=graph, function=AggregateFunction.COUNT),
            (hub.key,),
            f"COUNT of {hub.target_type} related to {hub.hub_name}",
        )
        attribute = self._numeric_attribute(hub)
        if attribute is None:
            return
        for function in (AggregateFunction.AVG, AggregateFunction.SUM):
            self._add(
                QueryShape.SIMPLE,
                AggregateQuery(query=graph, function=function, attribute=attribute),
                (hub.key,),
                f"{function.value}({attribute}) of {hub.target_type} "
                f"related to {hub.hub_name}",
            )
        if with_filters:
            self.add_filtered(hub)

    def add_filtered(self, hub: HubSpec) -> None:
        """A range-filtered variant (Definition 6; paper Q3)."""
        attribute = self._numeric_attribute(hub)
        if attribute is None:
            return
        values = sorted(
            value
            for node_id in self._bundle.answers_of(hub.key, "simple")
            if (value := self._bundle.kg.node(node_id).attribute(attribute))
            is not None
        )
        if len(values) < 10:
            return
        lower = values[len(values) // 4]
        upper = values[3 * len(values) // 4]
        graph = simple_query_graph(hub)
        self._add(
            QueryShape.SIMPLE,
            AggregateQuery(
                query=graph,
                function=AggregateFunction.AVG,
                attribute=attribute,
                filters=(Filter(attribute, lower, upper),),
            ),
            (hub.key,),
            f"AVG({attribute}) with {lower:.0f}<={attribute}<={upper:.0f}",
        )

    def add_group_by(self, hub: HubSpec) -> None:
        """Add a binned GROUP-BY COUNT over the hub's integer attribute."""
        attribute_spec = next(
            (a for a in hub.attributes if a.distribution == "integers"), None
        )
        if attribute_spec is None:
            return
        # Bin into ~5 groups, as in the paper's "each age group" example.
        # Per-group estimation needs groups of meaningful size: a fixed
        # width over a wide range (e.g. founding years) creates dozens of
        # near-singleton groups, a regime no sampling estimator resolves.
        low, high = attribute_spec.params
        bin_width = max(1.0, round((high - low) / 5.0))
        graph = simple_query_graph(hub)
        self._add(
            QueryShape.SIMPLE,
            AggregateQuery(
                query=graph,
                function=AggregateFunction.COUNT,
                group_by=GroupBy(attribute_spec.name, bin_width=bin_width),
            ),
            (hub.key,),
            f"COUNT of {hub.target_type} grouped by {attribute_spec.name}",
        )

    def add_extreme(self, hub: HubSpec) -> None:
        """Add MAX and MIN queries over the hub's numeric attribute."""
        attribute = self._numeric_attribute(hub)
        if attribute is None:
            return
        graph = simple_query_graph(hub)
        for function in (AggregateFunction.MAX, AggregateFunction.MIN):
            self._add(
                QueryShape.SIMPLE,
                AggregateQuery(query=graph, function=function, attribute=attribute),
                (hub.key,),
                f"{function.value}({attribute}) of {hub.target_type}",
            )

    def add_chain(self, hub: HubSpec) -> None:
        """Add chain-shaped queries for hubs with a ChainSpec."""
        if hub.chain is None:
            return
        graph = chain_query_graph(hub)
        self._add(
            QueryShape.CHAIN,
            AggregateQuery(query=graph, function=AggregateFunction.COUNT),
            (hub.key,),
            f"COUNT via chain {hub.chain.predicates}",
        )
        attribute = self._numeric_attribute(hub)
        if attribute is not None:
            self._add(
                QueryShape.CHAIN,
                AggregateQuery(
                    query=graph, function=AggregateFunction.AVG, attribute=attribute
                ),
                (hub.key,),
                f"AVG({attribute}) via chain {hub.chain.predicates}",
            )

    def add_composite(
        self, hub_keys: tuple[str, ...], kinds: tuple[str, ...]
    ) -> None:
        """Add star / cycle / flower queries over overlapping hubs."""
        hubs = [self._bundle.spec.hub(key) for key in hub_keys]
        components = [
            component_for(hub, kind) for hub, kind in zip(hubs, kinds)
        ]
        graph = QueryGraph.compose(components)
        shape = graph.shape
        self._add(
            shape,
            AggregateQuery(query=graph, function=AggregateFunction.COUNT),
            hub_keys,
            f"COUNT over {shape.value} of {', '.join(hub_keys)}",
        )
        attribute = self._numeric_attribute(hubs[0])
        if attribute is not None:
            self._add(
                shape,
                AggregateQuery(
                    query=graph, function=AggregateFunction.AVG, attribute=attribute
                ),
                hub_keys,
                f"AVG({attribute}) over {shape.value} of {', '.join(hub_keys)}",
            )

    # ------------------------------------------------------------------
    def build(self) -> list[WorkloadQuery]:
        """The accumulated workload, in insertion order."""
        spec = self._bundle.spec
        for hub in spec.hubs:
            self.add_simple(hub)
            self.add_group_by(hub)
            self.add_extreme(hub)
            self.add_chain(hub)
        for overlap in spec.overlaps:
            kinds = tuple(
                overlap.kind_for(position) for position in range(len(overlap.hub_keys))
            )
            self.add_composite(overlap.hub_keys, kinds)
        return list(self._queries)


def standard_workload(bundle: DatasetBundle) -> list[WorkloadQuery]:
    """The full benchmark workload for one dataset."""
    return WorkloadBuilder(bundle).build()


def queries_of_shape(
    workload: list[WorkloadQuery], shape: QueryShape
) -> list[WorkloadQuery]:
    """Workload queries of one shape."""
    return [query for query in workload if query.shape is shape]


def guaranteed_queries(workload: list[WorkloadQuery]) -> list[WorkloadQuery]:
    """Queries with accuracy guarantees (COUNT/SUM/AVG, no GROUP-BY)."""
    return [
        query
        for query in workload
        if query.function.has_guarantee
        and query.aggregate_query.group_by is None
    ]
