"""Two-stage sampling for chain-shaped queries (paper §V-B).

Stage 1 runs the semantic-aware walk from the specific entity with the
first query predicate and keeps intermediate entities of the right type;
stage 2 runs one walk *per intermediate* with the next predicate — all of a
hop's walks in one call of the batched stage kernel.  A final
answer reached via intermediate ``ui`` has probability
``pi' = pi'_i * pi'_(j|i)`` and duplicated answers accumulate their routes'
probabilities — exactly the paper's composition rule (their sum is 1).

For tractability the number of expanded intermediates is capped at the top
``max_intermediates`` by stationary probability (re-normalised); the cap is
recorded so experiments can report it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.kg.graph import KnowledgeGraph
from repro.query.answer import SampledAnswer
from repro.query.graph import PathQuery
from repro.sampling.collector import AnswerCollector, AnswerDistribution
from repro.sampling.scope import resolve_mapping_node
from repro.sampling.strength import Stage


@dataclass(frozen=True)
class ChainDistribution:
    """Joint answer distribution of a chain query.

    The composed routes are two aligned arrays in composition order —
    ``route_nodes[r]`` holds route ``r``'s nodes after the specific one
    (one column per hop, the answer last) and ``route_probability[r]`` its
    probability; ``distribution`` is the accumulated marginal the
    estimators consume.
    """

    distribution: AnswerDistribution
    route_nodes: np.ndarray  # (routes, hops) int64
    route_probability: np.ndarray  # (routes,) float64
    expanded_intermediates: int
    truncated: bool

    @property
    def routes(self) -> dict[int, tuple[tuple[tuple[int, ...], float], ...]]:
        """Answer -> its ``(intermediate_path, probability)`` pairs, most
        probable first — materialised from the arrays on every read."""
        grouped: dict[int, list[tuple[tuple[int, ...], float]]] = {}
        for nodes, probability in zip(
            self.route_nodes.tolist(), self.route_probability.tolist()
        ):
            grouped.setdefault(nodes[-1], []).append(
                (tuple(nodes[:-1]), probability)
            )
        return {
            answer: tuple(sorted(pairs, key=lambda pair: -pair[1]))
            for answer, pairs in grouped.items()
        }


class ChainSampler:
    """Builds the composed stationary distribution of a chain component."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        stage: Callable[
            [np.ndarray, str, frozenset[str], int],
            list[Stage | SamplingError],
        ],
        *,
        max_intermediates: int = 64,
    ) -> None:
        if max_intermediates < 1:
            raise SamplingError("max_intermediates must be >= 1")
        self._kg = kg
        #: one hop's walks ``(sources, predicate, node_types, hop)``, an
        #: entry per source — its stage, or the ``SamplingError`` of a dead
        #: intermediate: :func:`~repro.sampling.strength.stage_distributions`
        #: bound to its graph, space and walk parameters, the same one the
        #: planner's simple plans use (``hop`` only labels its span)
        self._stage = stage
        self.max_intermediates = max_intermediates

    def build(
        self, component: PathQuery, first_stage: AnswerDistribution | None = None
    ) -> ChainDistribution:
        """Compose the per-hop distributions along ``component``.

        ``first_stage`` is the first hop's answer distribution when the
        caller has already walked it (the planner does, for ``visiting``).
        """
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        # frontier: one row per partial route (nodes after the specific one)
        route_nodes = np.empty((1, 0), dtype=np.int64)
        route_probability = np.ones(1, dtype=np.float64)
        truncated = False
        expanded = 0

        for hop, (predicate, node_types) in enumerate(component.hops):
            # Expand only the most probable routes, keeping the cap global
            # per hop so deep chains stay tractable.
            ranked = np.argsort(-route_probability, kind="stable")
            kept = ranked[: self.max_intermediates]
            if len(kept) < len(ranked):
                truncated = True
            kept_probability = route_probability[kept].tolist()
            # left to right over Python floats, like the oracle's ``sum``
            kept_mass = sum(kept_probability)
            if kept_mass <= 0:
                raise SamplingError("chain sampling lost all probability mass")
            if hop == 0 and first_stage is not None:
                walked: list[AnswerDistribution | SamplingError] = [first_stage]
            else:
                starts = route_nodes[kept, -1] if hop else np.asarray([source])
                walked = [
                    outcome
                    if isinstance(outcome, SamplingError)
                    else outcome.distribution
                    for outcome in self._stage(starts, predicate, node_types, hop)
                ]
            parents: list[int] = []
            stages: list[AnswerDistribution] = []
            extended_probability: list[np.ndarray] = []
            for row, probability, stage in zip(
                kept.tolist(), kept_probability, walked
            ):
                if isinstance(stage, SamplingError):
                    continue  # this intermediate reaches no next-hop candidate
                parents.append(row)
                stages.append(stage)
                extended_probability.append(
                    (probability / kept_mass) * stage.probabilities
                )
            if not stages:
                raise SamplingError(
                    f"chain hop with predicate {predicate!r} produced no candidates"
                )
            expanded += len(stages)
            fan_out = [stage.support_size for stage in stages]
            route_nodes = np.column_stack(
                [
                    route_nodes[np.repeat(parents, fan_out)],
                    np.concatenate([stage.answers for stage in stages]),
                ]
            )
            route_probability = np.concatenate(extended_probability)

        # Accumulate route probabilities per final answer (the paper's
        # rule), in route order.
        answers, answer_of_route = np.unique(
            route_nodes[:, -1], return_inverse=True
        )
        probabilities = np.bincount(
            answer_of_route, weights=route_probability, minlength=len(answers)
        )
        probabilities = probabilities / probabilities.sum()
        return ChainDistribution(
            distribution=AnswerDistribution(
                answers=answers, probabilities=probabilities
            ),
            route_nodes=route_nodes,
            route_probability=route_probability,
            expanded_intermediates=expanded,
            truncated=truncated,
        )

    def collect(
        self,
        chain: ChainDistribution,
        sample_size: int,
        seed: int | np.random.Generator | None = None,
    ) -> list[SampledAnswer]:
        """Draw i.i.d. answers; each carries its most likely route."""
        distribution = chain.distribution
        picks = AnswerCollector(distribution, seed).collect_indices(sample_size)
        # each answer's most probable route (the earliest composed on a
        # tie); ``np.unique`` sorts like ``distribution.answers``
        ranked = np.argsort(-chain.route_probability, kind="stable")
        _, first = np.unique(chain.route_nodes[ranked, -1], return_index=True)
        best_route = chain.route_nodes[ranked[first], :-1]
        return [
            SampledAnswer(
                node_id=int(distribution.answers[pick]),
                probability=float(distribution.probabilities[pick]),
                route=tuple(best_route[pick].tolist()),
            )
            for pick in picks
        ]
