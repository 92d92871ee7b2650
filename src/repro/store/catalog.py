""":class:`SnapshotCatalog` — a directory of snapshots and plan artefacts.

Layout under one root::

    <root>/
      snapshots/<graph16>-v<structure_version>.snap
      plans/<graph16>-v<structure_version>/<plan16>.plan

where ``<graph16>`` is the first 16 hex chars of the graph's content
fingerprint and ``<plan16>`` hashes the full plan key (embedding
fingerprint + config token + component token).  The catalog is the
deployment face of the store: a warm process saves its snapshot and
plans once, and every later service, CLI invocation or benchmark run
memory-maps them back instead of recompiling S1 — the cross-*process*
analogue of what the :class:`~repro.core.plan.PlanCache` already does
across threads.  Wire a catalog into a
:class:`~repro.core.planner.QueryPlanner` (``catalog=...``) and cache
misses fall through to disk before running S1, with fresh builds saved
back automatically.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Callable

from repro.core.config import EngineConfig
from repro.core.plan import QueryPlan, plan_from_artifacts
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import SamplingError, StoreError
from repro.kg.graph import KnowledgeGraph
from repro.query.graph import PathQuery
from repro.semantics.validation import ChainValidator, CorrectnessValidator
from repro.store.plans import (
    component_token,
    config_token,
    embedding_fingerprint,
    load_plan_artifacts,
    save_plan_artifacts,
)
from repro.store.snapshot import cached_graph_fingerprint, save_snapshot

#: hex chars of each fingerprint kept in file names
_SHORT = 16


class SnapshotCatalog:
    """Directory-backed store of CSR snapshots and plan artefacts."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotCatalog({str(self.root)!r})"

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _graph_key(self, kg: KnowledgeGraph) -> str:
        return (
            f"{cached_graph_fingerprint(kg)[:_SHORT]}-v{kg.structure_version}"
        )

    def snapshot_path(self, kg: KnowledgeGraph) -> Path:
        """Where ``kg``'s current structure's snapshot lives."""
        return self.root / "snapshots" / f"{self._graph_key(kg)}.snap"

    def plan_path(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        config: EngineConfig,
        component: PathQuery,
    ) -> Path:
        """Where one component's plan artefacts live."""
        digest = hashlib.sha256()
        for part in (
            embedding_fingerprint(space),
            config_token(config),
            component_token(component),
        ):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
        return (
            self.root
            / "plans"
            / self._graph_key(kg)
            / f"{digest.hexdigest()[:_SHORT]}.plan"
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def save_snapshot(self, kg: KnowledgeGraph) -> Path:
        """Persist ``kg``'s CSR snapshot; returns the file path."""
        return save_snapshot(kg, self.snapshot_path(kg))

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def save_plan(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        config: EngineConfig,
        plan: QueryPlan,
    ) -> Path:
        """Persist one plan's artefacts; returns the file path."""
        path = self.plan_path(kg, space, config, plan.component)
        return save_plan_artifacts(path, kg, space, config, plan)

    def try_load_plan(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        config: EngineConfig,
        component: PathQuery,
        *,
        make_validator: Callable[
            [PathQuery, int], CorrectnessValidator | ChainValidator
        ],
        mmap: bool = True,
    ) -> QueryPlan | None:
        """The stored plan for ``component``, or ``None`` on a miss.

        A miss is a missing file: a file another plan revision wrote sits
        under another name, as ``S1_REVISION`` is part of the key.
        ``make_validator(component, source)`` binds the loaded plan's
        validator (:func:`~repro.core.plan.plan_from_artifacts`).

        A present-but-mismatched file (stale version, different embedding)
        raises :class:`StoreError` rather than silently rebuilding — a
        catalog hit must never serve wrong artefacts, and the caller
        decides whether to delete and rebuild.
        """
        path = self.plan_path(kg, space, config, component)
        if not path.is_file():
            return None
        artifacts = load_plan_artifacts(path, kg, space, config, mmap=mmap)
        if component_token(artifacts.component) != component_token(component):
            raise StoreError(
                f"plan artefact {path} stores a different component "
                "(hash collision or manual file move)"
            )
        try:
            return plan_from_artifacts(artifacts, make_validator)
        except SamplingError as exc:
            raise StoreError(f"plan artefact {path} holds no pi_A: {exc}") from exc

    def stored_plan_count(self, kg: KnowledgeGraph) -> int:
        """Number of plan files stored for ``kg``'s current structure."""
        directory = self.root / "plans" / self._graph_key(kg)
        if not directory.is_dir():
            return 0
        return sum(1 for _ in directory.glob("*.plan"))
