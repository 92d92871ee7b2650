"""Interactive error-bound refinement (paper §IV-C, Fig. 6(a)).

A session keeps one query's sampling state alive between requests so that
tightening the error bound only costs the *incremental* sampling needed to
re-satisfy Theorem 2 — the paper's "interactive refinement of eb"
behaviour, where dropping from eb = 5% to 4% costs tens of milliseconds
instead of a fresh execution.

Since the serving redesign this is a thin synchronous wrapper over the
engine's :class:`~repro.core.service.AggregateQueryService`: the session
holds a deferred :class:`~repro.core.service.QueryHandle` and each
:meth:`InteractiveSession.refine` call queues one run on it and blocks for
the result.  Results are byte-identical to driving the executor directly
for a fixed seed; handle-native callers get the same behaviour from
``handle.refine(eb).result()`` without this class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.engine import ApproximateAggregateEngine
from repro.core.result import ApproximateResult
from repro.core.service import QueryHandle
from repro.errors import QueryError
from repro.estimation.accuracy import satisfies_error_bound
from repro.query.aggregate import AggregateQuery


@dataclass(frozen=True)
class RefinementStep:
    """One interactive step: the bound requested and what it cost."""

    error_bound: float
    result: ApproximateResult
    incremental_seconds: float
    additional_draws: int


class InteractiveSession:
    """Holds one query's sampling state across interactive eb changes."""

    def __init__(
        self,
        engine: ApproximateAggregateEngine,
        aggregate_query: AggregateQuery,
        *,
        seed: int | None = None,
    ) -> None:
        if aggregate_query.group_by is not None:
            raise QueryError(
                "interactive sessions support ungrouped queries only; "
                "GROUP-BY queries get anytime progress() and cancel() "
                "from service.submit() handles instead"
            )
        if not aggregate_query.function.has_guarantee:
            raise QueryError(
                "interactive refinement needs a guaranteed aggregate "
                "(COUNT, SUM or AVG); MAX/MIN queries get anytime "
                "progress() and cancel() from service.submit() handles"
            )
        self._engine = engine
        self._aggregate_query = aggregate_query
        # a deferred handle: initialisation runs now (so planning and
        # candidate errors surface here, as the eager API always did),
        # but no rounds start until the first refine()
        self._handle: QueryHandle = engine.service.submit(
            aggregate_query, seed=seed, start=False
        )
        self._wait_initialised()
        self._history: list[RefinementStep] = []
        self._last_error_bound: float | None = None

    def _wait_initialised(self) -> None:
        """Block until initialisation ran; re-raise its errors here."""
        service = self._handle._service
        record = self._handle._record
        with service._condition:
            service._condition.wait_for(
                lambda: record.state is not None or record.status.terminal
            )
        if record.exception is not None:
            raise record.exception

    @property
    def handle(self) -> QueryHandle:
        """The underlying service handle (for async/batch interop)."""
        return self._handle

    @property
    def history(self) -> tuple[RefinementStep, ...]:
        """All refinement steps taken so far."""
        return tuple(self._history)

    @property
    def current_result(self) -> ApproximateResult | None:
        """The most recent result, or None before the first refine()."""
        return self._history[-1].result if self._history else None

    def refine(self, error_bound: float) -> RefinementStep:
        """Run the loop until Theorem 2 holds for ``error_bound``.

        Interactive tightening (5% -> 4% -> ... -> 1%) reuses every draw
        collected so far; Eq. 12 senses the new bound and sizes only the
        missing increment.
        """
        if (
            self._last_error_bound is not None
            and error_bound > self._last_error_bound
            and self._history
        ):
            # Loosening the bound is free when the current CI already
            # satisfies it: record a zero-cost step for the trace — no
            # re-run, zero additional draws — instead of re-estimating.
            latest = self._history[-1].result
            if latest.converged and satisfies_error_bound(
                latest.moe, latest.value, error_bound
            ):
                step = RefinementStep(
                    error_bound=error_bound,
                    result=latest,
                    incremental_seconds=0.0,
                    additional_draws=0,
                )
                self._history.append(step)
                self._last_error_bound = error_bound
                return step
        draws_before = self._handle.total_draws
        started = time.perf_counter()
        result = self._handle.refine(error_bound).result()
        elapsed = time.perf_counter() - started
        assert isinstance(result, ApproximateResult)
        step = RefinementStep(
            error_bound=error_bound,
            result=result,
            incremental_seconds=elapsed,
            additional_draws=self._handle.total_draws - draws_before,
        )
        self._history.append(step)
        self._last_error_bound = error_bound
        return step
