"""Admission limits + deterministic fault injection for serving (S4).

The serving stack's fault-tolerance knobs live here, decoupled from the
scheduler that enforces them:

* :class:`ServiceLimits` — admission control.  ``max_pending`` bounds
  live queries across the service, ``max_queued_runs`` bounds the
  refine() backlog of a single query; beyond either the service sheds
  with :class:`~repro.errors.ServiceOverloadedError` instead of letting
  the slot queue grow without bound.
* :class:`FaultPlan` / :class:`FaultSpec` — deterministic fault
  injection.  Production code paths carry inert hooks (an attribute
  check against ``None``); a test installs a plan whose specs match
  scheduling context ("raise in validate_batch once", "hang query 3's
  round 2 for 50 ms", "cancel this handle when its slot starts") so every
  recovery path is exercised by ordinary fixed-seed tests — no sleeps
  as synchronization.

Nothing here imports the service: it depends on this module, tests
depend on it, and the policies stay shareable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import ServiceError

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "ServiceLimits",
]


class FaultInjected(ServiceError):
    """Default exception raised by a ``raise``-action fault spec."""


@dataclass(frozen=True)
class ServiceLimits:
    """Admission-control limits for one :class:`AggregateQueryService`.

    ``None`` means unlimited (the default — existing callers see no
    behaviour change).  This is the seam a network front-end's quotas
    will sit on: reject at submit time, never mid-run.
    """

    #: live (non-terminal) queries the service accepts before shedding
    max_pending: int | None = None
    #: runs one query may have queued/active before refine() sheds
    max_queued_runs: int | None = None

    def __post_init__(self) -> None:
        if self.max_pending is not None and self.max_pending < 1:
            raise ServiceError("ServiceLimits.max_pending must be >= 1")
        if self.max_queued_runs is not None and self.max_queued_runs < 1:
            raise ServiceError("ServiceLimits.max_queued_runs must be >= 1")


#: recognised fault actions
_ACTIONS = ("raise", "hang")


@dataclass
class FaultSpec:
    """One injectable fault: *where* (site + match), *what* (action), *how often*.

    ``site`` names an injection point: ``"slot"`` (the scheduler, before
    a query's round and, in its first slot, after the record's
    initialisation; context ``sequence``, ``round``, ``kind``) or
    ``"validate_batch"`` (the executor, before a census reads its kept
    answers or a sampled round validates its new draws; context
    ``pending``, the census's support or the draws' count).  ``match``
    filters on that context, e.g. ``{"sequence": 3, "round": 2}``; an
    empty match hits every firing of the site.  ``times`` bounds how often the spec triggers (``None`` =
    unlimited).  Actions:

    * ``"raise"`` — the site raises :attr:`exception` (or
      :class:`FaultInjected`).
    * ``"hang"`` — the site sleeps :attr:`seconds` then proceeds.  The
      sleep is the fault *payload* (a slow round), not a test
      synchronization primitive.

    ``callback`` (if set) runs on every trigger with the site's context —
    the deterministic way for a test to act (cancel a handle, record an
    event) at an exact point inside the scheduler, instead of sleeping
    and hoping.
    """

    site: str
    action: str = "raise"
    match: dict = field(default_factory=dict)
    times: int | None = 1
    exception: BaseException | None = None
    seconds: float = 0.0
    callback: object | None = None
    #: how often this spec has triggered (maintained by the plan)
    fired: int = 0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ServiceError(
                f"unknown fault action {self.action!r}; choose from {_ACTIONS}"
            )


class FaultPlan:
    """A thread-safe schedule of :class:`FaultSpec` to inject.

    Sites call :meth:`fire` with their context.  The plan finds the first
    armed spec matching ``(site, context)``, consumes one of its
    ``times``, logs the hit, runs its callback, and executes its action.
    With no matching spec, ``fire`` is a dictionary miss — and production
    code never constructs a plan at all, so the hooks reduce to one
    ``is None`` check.
    """

    def __init__(self, specs: tuple | list = ()) -> None:
        self._specs = list(specs)
        self._lock = threading.Lock()
        #: (site, context) of every fault that triggered, in order
        self.log: list[tuple[str, dict]] = []

    def add(self, spec: FaultSpec) -> "FaultPlan":
        """Append a spec; returns ``self`` for chaining."""
        with self._lock:
            self._specs.append(spec)
        return self

    @property
    def specs(self) -> tuple:
        return tuple(self._specs)

    def _claim(self, site: str, context: dict) -> FaultSpec | None:
        with self._lock:
            for spec in self._specs:
                if spec.site != site:
                    continue
                if spec.times is not None and spec.fired >= spec.times:
                    continue
                if any(
                    context.get(key) != value
                    for key, value in spec.match.items()
                ):
                    continue
                spec.fired += 1
                self.log.append((site, dict(context)))
                return spec
        return None

    def fire(self, site: str, **context) -> None:
        """Trigger at an injection site; see the class docstring."""
        spec = self._claim(site, context)
        if spec is None:
            return
        if spec.callback is not None:
            spec.callback(dict(context))
        if spec.action == "raise":
            raise spec.exception or FaultInjected(
                f"injected fault at {site} ({context})"
            )
        if spec.seconds > 0:
            time.sleep(spec.seconds)
