"""Two-stage sampling for chain-shaped queries (paper §V-B).

Stage 1 runs the semantic-aware walk from the specific entity with the
first query predicate and keeps intermediate entities of the right type;
stage 2 runs one walk *per intermediate* with the next predicate — all of a
hop's walks in one call of the batched stage kernel.  A final
answer reached via intermediate ``ui`` has probability
``pi' = pi'_i * pi'_(j|i)`` and duplicated answers accumulate their routes'
probabilities — exactly the paper's composition rule (their sum is 1).

For tractability the number of expanded intermediates is capped at the top
``max_intermediates`` by stationary probability (re-normalised); the
number expanded is returned beside the marginal.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.planner import resolve_mapping_node
from repro.errors import SamplingError
from repro.kg.graph import KnowledgeGraph
from repro.query.graph import PathQuery
from repro.sampling.collector import AnswerDistribution
from repro.sampling.strength import Stage


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
    ) -> tuple[AnswerDistribution, int]:
        """Compose the per-hop distributions along ``component``: the
        answer marginal and the number of intermediates expanded.

        ``first_stage`` is the first hop's answer distribution when the
        caller has already walked it (the planner does: the first stage's
        scope also goes to the plan's validator).
        """
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        # frontier: each partial route's last node and probability, in
        # composition order
        route_ends = np.asarray([source], dtype=np.int64)
        route_probabilities = np.ones(1, dtype=np.float64)
        expanded = 0

        for hop, (predicate, node_types) in enumerate(component.hops):
            # Expand only the most probable routes, keeping the cap global
            # per hop so deep chains stay tractable.
            kept = np.argsort(-route_probabilities, kind="stable")[
                : self.max_intermediates
            ]
            kept_probability = route_probabilities[kept].tolist()
            # left to right over Python floats, like the oracle's ``sum``
            kept_mass = sum(kept_probability)
            if kept_mass <= 0:
                raise SamplingError("chain sampling lost all probability mass")
            if hop == 0 and first_stage is not None:
                walked: list[AnswerDistribution | SamplingError] = [first_stage]
            else:
                walked = [
                    outcome
                    if isinstance(outcome, SamplingError)
                    else outcome.distribution
                    for outcome in self._stage(
                        route_ends[kept], predicate, node_types, hop
                    )
                ]
            stages: list[AnswerDistribution] = []
            extended_probability: list[np.ndarray] = []
            for probability, stage in zip(kept_probability, walked):
                if isinstance(stage, SamplingError):
                    continue  # this intermediate reaches no next-hop candidate
                stages.append(stage)
                extended_probability.append(
                    (probability / kept_mass) * stage.probabilities
                )
            if not stages:
                raise SamplingError(
                    f"chain hop with predicate {predicate!r} produced no candidates"
                )
            expanded += len(stages)
            route_ends = np.concatenate([stage.answers for stage in stages])
            route_probabilities = np.concatenate(extended_probability)

        # Accumulate route probabilities per final answer (the paper's
        # rule), in route order.
        answers, answer_of_route = np.unique(route_ends, return_inverse=True)
        probabilities = np.bincount(
            answer_of_route, weights=route_probabilities, minlength=len(answers)
        )
        probabilities = probabilities / probabilities.sum()
        return (
            AnswerDistribution(answers=answers, probabilities=probabilities),
            expanded,
        )
