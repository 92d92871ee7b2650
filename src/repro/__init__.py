"""repro — approximate aggregate queries on knowledge graphs.

A from-scratch reproduction of "Aggregate Queries on Knowledge Graphs:
Fast Approximation with Semantic-aware Sampling" (ICDE 2022): a
sampling-estimation engine that answers COUNT / SUM / AVG aggregate
queries over schema-flexible knowledge graphs with confidence-interval
accuracy guarantees, without evaluating factoid queries first.

Quickstart::

    from repro import (
        AggregateFunction, AggregateQuery, ApproximateAggregateEngine,
        QueryGraph,
    )
    from repro.datasets import dbpedia_like

    bundle = dbpedia_like(seed=7)
    engine = ApproximateAggregateEngine(bundle.kg, bundle.embedding)
    query = AggregateQuery(
        query=QueryGraph.simple("Germany", ["Country"], "product", ["Automobile"]),
        function=AggregateFunction.AVG,
        attribute="price",
    )
    result = engine.execute(query)
    print(result.describe())
"""

from repro.core.config import EngineConfig
from repro.core.engine import ApproximateAggregateEngine
from repro.core.resilience import FaultPlan, FaultSpec, ServiceLimits
from repro.core.result import ApproximateResult, GroupedResult, RoundTrace
from repro.core.service import (
    AggregateQueryService,
    QueryHandle,
    QueryStatus,
)
from repro.embedding import (
    EmbeddingTrainer,
    LookupEmbedding,
    PredicateVectorSpace,
    RescalModel,
    StructuredEmbeddingModel,
    TrainingConfig,
    TransDModel,
    TransEModel,
    TransHModel,
)
from repro.errors import ReproError
from repro.kg import KnowledgeGraph
from repro.query import (
    AggregateFunction,
    AggregateQuery,
    Filter,
    GroupBy,
    ParseError,
    PathQuery,
    QueryGraph,
    QueryShape,
    format_query,
    parse_query,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ApproximateAggregateEngine",
    "EngineConfig",
    "ApproximateResult",
    "GroupedResult",
    "RoundTrace",
    "AggregateQueryService",
    "QueryHandle",
    "QueryStatus",
    "FaultPlan",
    "FaultSpec",
    "ServiceLimits",
    "KnowledgeGraph",
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
    "LookupEmbedding",
    "PredicateVectorSpace",
    "TransEModel",
    "TransHModel",
    "TransDModel",
    "RescalModel",
    "StructuredEmbeddingModel",
    "EmbeddingTrainer",
    "TrainingConfig",
    "ReproError",
]
