"""Plan-artifact persistence: S1 results as store files.

A plan file holds one component's :class:`~repro.core.plan.PlanArtifacts`
— the answer distribution pi_A as two memory-mappable segments,
``answers`` and ``probabilities``, and its scalars in the header — under
the same key discipline as the in-process
:class:`~repro.core.plan.PlanCache`::

    (graph structure, embedding identity, config fingerprint, component)

with each facet made serialisable: the graph by ``(fingerprint,
structure_version)``, the embedding by a content hash of its vectors
(:func:`embedding_fingerprint` — the durable analogue of the cache's
object-identity key), the config by ``repr(plan_fingerprint(config))``
and the component by a canonical token.  ``load_plan_artifacts``
validates every facet and raises :class:`StoreError` naming the first
mismatch, so a stale artefact can never silently serve a different
graph, embedding or configuration.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.core.config import EngineConfig
from repro.core.plan import (
    PlanArtifacts,
    QueryPlan,
    extract_artifacts,
    plan_fingerprint,
)
from repro.embedding.base import PredicateEmbedding
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import QueryError, StoreError
from repro.kg.graph import KnowledgeGraph
from repro.query.graph import PathQuery
from repro.store.format import read_arrays, write_arrays
from repro.store.snapshot import cached_graph_fingerprint

#: metadata ``kind`` tag distinguishing plan files from snapshot files
PLAN_KIND = "plan-artifacts"

#: attribute memoising the content hash per embedding object
_EMBEDDING_FINGERPRINT_ATTR = "_repro_embedding_fingerprint"


def embedding_fingerprint(
    embedding: PredicateEmbedding | PredicateVectorSpace,
) -> str:
    """Content hash of an embedding: sorted predicate names + vector bytes.

    The in-process plan cache keys on embedding *object identity*; on disk
    the durable equivalent is the embedding's content — two processes
    loading the same trained model produce the same fingerprint and thus
    share plan artefacts.  Memoised on the embedding object (vectors are
    immutable once trained).
    """
    if isinstance(embedding, PredicateVectorSpace):
        embedding = embedding.embedding
    cached = getattr(embedding, _EMBEDDING_FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(b"repro-embedding-v1\x00")
    for name in sorted(embedding.predicate_names):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        vector = np.ascontiguousarray(embedding.predicate_vector(name), dtype=np.float64)
        digest.update(vector.tobytes())
        digest.update(b"\x01")
    fingerprint = digest.hexdigest()
    try:
        setattr(embedding, _EMBEDDING_FINGERPRINT_ATTR, fingerprint)
    except AttributeError:  # pragma: no cover - slotted embedding classes
        pass
    return fingerprint


def component_token(component: PathQuery) -> str:
    """A canonical, hash-stable string identifying one query component.

    Type sets are sorted so the token is independent of ``frozenset``
    iteration order (which varies across interpreter runs).
    """
    parts = [component.specific_name, ",".join(sorted(component.specific_types))]
    for predicate, types in component.hops:
        parts.append(f"{predicate}->{','.join(sorted(types))}")
    return "|".join(parts)


def config_token(config: EngineConfig) -> str:
    """The plan-relevant configuration facets as a stable string."""
    return repr(plan_fingerprint(config))


def plan_metadata(
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    config: EngineConfig,
    artifacts: PlanArtifacts,
) -> dict:
    """The full validation key + scalar payload of one plan file."""
    return {
        "kind": PLAN_KIND,
        "graph_fingerprint": cached_graph_fingerprint(kg),
        "structure_version": kg.structure_version,
        "embedding_fingerprint": embedding_fingerprint(space),
        "config_token": config_token(config),
        "component_token": component_token(artifacts.component),
        "component": {
            "specific_name": artifacts.component.specific_name,
            "specific_types": sorted(artifacts.component.specific_types),
            "hops": [
                [predicate, sorted(types)] for predicate, types in artifacts.component.hops
            ],
        },
        "source": int(artifacts.source),
        "walk_iterations": int(artifacts.walk_iterations),
        "num_candidates": int(artifacts.num_candidates),
    }


def save_plan_artifacts(
    path: str | Path,
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    config: EngineConfig,
    plan: QueryPlan,
) -> Path:
    """Persist one plan's artefacts (arrays + key) to ``path``.

    The file holds pi_A, so saving a plan that has not drawn yet runs its
    S1 (:meth:`~repro.core.plan.QueryPlan.sample`) here.
    """
    artifacts = extract_artifacts(plan)
    write_arrays(path, plan_metadata(kg, space, config, artifacts), artifacts.arrays())
    return Path(path)


def _component_from_metadata(metadata: dict) -> PathQuery:
    payload = metadata["component"]
    return PathQuery(
        specific_name=payload["specific_name"],
        specific_types=frozenset(payload["specific_types"]),
        hops=tuple(
            (predicate, frozenset(types)) for predicate, types in payload["hops"]
        ),
    )


def load_plan_artifacts(
    path: str | Path,
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    config: EngineConfig,
    *,
    mmap: bool = True,
) -> PlanArtifacts:
    """Load + validate one plan file against ``(kg, space, config)``.

    Every key facet is checked; the first mismatch raises
    :class:`StoreError` with a message naming the facet, so operators can
    tell a stale-graph artefact from a different-embedding one.
    """
    metadata, arrays = read_arrays(path, mmap=mmap)
    if metadata.get("kind") != PLAN_KIND:
        raise StoreError(f"{path} is not a plan-artifact file")
    checks = (
        ("structure_version", metadata.get("structure_version"), kg.structure_version),
        (
            "graph_fingerprint",
            metadata.get("graph_fingerprint"),
            cached_graph_fingerprint(kg),
        ),
        (
            "embedding_fingerprint",
            metadata.get("embedding_fingerprint"),
            embedding_fingerprint(space),
        ),
        ("config_token", metadata.get("config_token"), config_token(config)),
    )
    for facet, stored, current in checks:
        if stored != current:
            raise StoreError(
                f"plan artefact {path} does not match the live engine: "
                f"{facet} was {stored!r} at save time but is {current!r} now"
            )
    try:
        artifacts = PlanArtifacts(
            component=_component_from_metadata(metadata),
            source=int(metadata["source"]),
            answers=arrays["answers"],
            probabilities=arrays["probabilities"],
            walk_iterations=int(metadata["walk_iterations"]),
            num_candidates=int(metadata["num_candidates"]),
        )
        # Canonicalising the component rejects a malformed type list.
        component_token(artifacts.component)
    except KeyError as exc:
        raise StoreError(f"plan artefact {path} is missing {exc}") from exc
    except (TypeError, ValueError, OverflowError, QueryError) as exc:
        raise StoreError(f"plan artefact {path} is malformed: {exc}") from exc
    answers, probabilities = artifacts.answers, artifacts.probabilities
    if not (
        0 <= artifacts.source < kg.num_nodes
        and answers.ndim == probabilities.ndim == 1
        and len(answers) == len(probabilities)
        and answers.dtype.kind in "iu"
        and probabilities.dtype == np.float64
        and (
            answers.size == 0
            or (answers.min() >= 0 and answers.max() < kg.num_nodes)
        )
    ):
        raise StoreError(
            f"plan artefact {path} is malformed: its source or arrays do "
            "not match its header or the graph"
        )
    return artifacts
