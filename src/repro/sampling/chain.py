"""Two-stage sampling for chain-shaped queries (paper §V-B).

Stage 1 runs the semantic-aware walk from the specific entity with the
first query predicate and keeps intermediate entities of the right type;
stage 2 runs one walk *per intermediate* with the next predicate.  A final
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
from repro.sampling.collector import AnswerDistribution
from repro.sampling.scope import SamplingScope, resolve_mapping_node
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class ChainDistribution:
    """Joint answer distribution of a chain query.

    ``routes`` maps each answer to its per-route components: a tuple of
    ``(intermediate_path, probability)`` pairs; ``distribution`` is the
    accumulated marginal the estimators consume.
    """

    distribution: AnswerDistribution
    routes: dict[int, tuple[tuple[tuple[int, ...], float], ...]]
    expanded_intermediates: int
    truncated: bool


class ChainSampler:
    """Builds the composed stationary distribution of a chain component."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        stage: Callable[
            [int, str, frozenset[str]],
            tuple[SamplingScope, np.ndarray, AnswerDistribution],
        ],
        *,
        max_intermediates: int = 64,
    ) -> None:
        if max_intermediates < 1:
            raise SamplingError("max_intermediates must be >= 1")
        self._kg = kg
        #: one hop's walk ``(source, predicate, node_types)``:
        #: :func:`~repro.sampling.strength.stage_distribution` bound to its
        #: graph, space and walk parameters, the same one the planner's
        #: simple plans use
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
        # frontier: partial route (nodes after the specific one) -> probability
        frontier: dict[tuple[int, ...], float] = {(): 1.0}
        truncated = False
        expanded = 0

        for predicate, node_types in component.hops:
            next_frontier: dict[tuple[int, ...], float] = {}
            # Expand only the most probable routes, keeping the cap global
            # per hop so deep chains stay tractable.
            ranked = sorted(frontier.items(), key=lambda item: -item[1])
            kept = ranked[: self.max_intermediates]
            if len(ranked) > len(kept):
                truncated = True
            kept_mass = sum(probability for _, probability in kept)
            if kept_mass <= 0:
                raise SamplingError("chain sampling lost all probability mass")
            for route, probability in kept:
                start = route[-1] if route else source
                stage = None if route else first_stage
                try:
                    if stage is None:
                        _, _, stage = self._stage(start, predicate, node_types)
                except SamplingError:
                    continue  # this intermediate reaches no next-hop candidate
                expanded += 1
                renormalised = probability / kept_mass
                for node, node_probability in zip(stage.answers, stage.probabilities):
                    extended = route + (int(node),)
                    contribution = renormalised * float(node_probability)
                    next_frontier[extended] = next_frontier.get(extended, 0.0) + contribution
            if not next_frontier:
                raise SamplingError(
                    f"chain hop with predicate {predicate!r} produced no candidates"
                )
            frontier = next_frontier

        # Accumulate route probabilities per final answer (the paper's rule).
        marginal: dict[int, float] = {}
        routes: dict[int, list[tuple[tuple[int, ...], float]]] = {}
        for route, probability in frontier.items():
            answer = route[-1]
            marginal[answer] = marginal.get(answer, 0.0) + probability
            routes.setdefault(answer, []).append((route[:-1], probability))

        answers = np.asarray(sorted(marginal), dtype=np.int64)
        probabilities = np.asarray(
            [marginal[int(answer)] for answer in answers], dtype=np.float64
        )
        probabilities = probabilities / probabilities.sum()
        distribution = AnswerDistribution(answers=answers, probabilities=probabilities)
        frozen_routes = {
            answer: tuple(sorted(pairs, key=lambda pair: -pair[1]))
            for answer, pairs in routes.items()
        }
        return ChainDistribution(
            distribution=distribution,
            routes=frozen_routes,
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
        if sample_size <= 0:
            raise SamplingError("sample_size must be positive")
        rng = ensure_rng(seed)
        distribution = chain.distribution
        picks = rng.choice(
            len(distribution.answers), size=sample_size, p=distribution.probabilities
        )
        sampled = []
        for pick in picks:
            node = int(distribution.answers[pick])
            best_route = chain.routes[node][0][0] if chain.routes.get(node) else ()
            sampled.append(
                SampledAnswer(
                    node_id=node,
                    probability=float(distribution.probabilities[pick]),
                    route=best_route,
                )
            )
        return sampled
