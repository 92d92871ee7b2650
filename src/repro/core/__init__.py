"""The approximate aggregate query engine (Algorithm 2) and extensions.

:class:`ApproximateAggregateEngine` wires the planner and the census
executor together: plans, exact correctness validation and the exact
aggregate (the paper's sampled rounds are :mod:`repro.bench.sampled`).
§V extensions — filters, GROUP-BY, chain queries and
decomposition-assembly for star/cycle/flower shapes — are part of the
same execute path.  The paper's interactive error-bound refinement
(Fig. 6(a)) is ``handle.refine(eb).result()`` on a handle from
:meth:`AggregateQueryService.submit <repro.core.service.AggregateQueryService.submit>`.
"""

from repro.core.config import EngineConfig
from repro.core.engine import ApproximateAggregateEngine
from repro.core.executor import QueryExecutor
from repro.core.plan import PlanCache, QueryPlan, shared_plan_cache
from repro.core.planner import QueryPlanner
from repro.core.result import ApproximateResult, GroupedResult, RoundTrace

__all__ = [
    "ApproximateAggregateEngine",
    "EngineConfig",
    "ApproximateResult",
    "GroupedResult",
    "RoundTrace",
    "QueryPlan",
    "QueryPlanner",
    "QueryExecutor",
    "PlanCache",
    "shared_plan_cache",
]
