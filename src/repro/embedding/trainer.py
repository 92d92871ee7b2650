"""Margin-ranking SGD trainer with uniform negative sampling.

Implements the classical training loop shared by every model in Table XIII:
for each positive triple, corrupt head or tail uniformly, take one hinge
step on the pair, renormalise entities between epochs.  The trainer records
wall-clock time and final loss so the Table XIII bench can report the
"Embed time" column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.embedding.base import EmbeddingModel
from repro.errors import EmbeddingError
from repro.kg.graph import KnowledgeGraph
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of the margin-ranking training loop."""

    epochs: int = 30
    batch_size: int = 512
    learning_rate: float = 0.05
    margin: float = 1.0
    seed: int = 0
    #: stop early when mean epoch loss falls below this threshold
    loss_tolerance: float = 1e-4

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise EmbeddingError("epochs must be positive")
        if self.batch_size <= 0:
            raise EmbeddingError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise EmbeddingError("learning_rate must be positive")
        if self.margin <= 0:
            raise EmbeddingError("margin must be positive")


@dataclass
class TrainingReport:
    """What happened during one training run."""

    model_name: str
    epochs_run: int
    final_loss: float
    wall_seconds: float
    loss_history: list[float] = field(default_factory=list)


class EmbeddingTrainer:
    """Trains any :class:`EmbeddingModel` on the triples of a KG."""

    def __init__(self, config: TrainingConfig | None = None) -> None:
        self.config = config or TrainingConfig()

    def train(self, model: EmbeddingModel, kg: KnowledgeGraph) -> TrainingReport:
        """Run the loop and return a report; the model is updated in place."""
        triples = kg.triple_array()
        if triples.size == 0:
            raise EmbeddingError("cannot train on a graph with no edges")
        if triples[:, [0, 2]].max() >= model.num_entities:
            raise EmbeddingError("graph has entity ids outside the model's range")
        if triples[:, 1].max() >= model.num_predicates:
            raise EmbeddingError("graph has predicate ids outside the model's range")

        rng = ensure_rng(self.config.seed)
        known = {(h, r, t) for h, r, t in map(tuple, triples)}
        started = time.perf_counter()
        history: list[float] = []

        for epoch in range(self.config.epochs):
            order = rng.permutation(len(triples))
            epoch_losses = []
            for start in range(0, len(triples), self.config.batch_size):
                batch = triples[order[start : start + self.config.batch_size]]
                negatives = self._corrupt(batch, model.num_entities, known, rng)
                loss = model.sgd_step(
                    batch,
                    negatives,
                    learning_rate=self.config.learning_rate,
                    margin=self.config.margin,
                )
                epoch_losses.append(loss)
                # Normalise per batch, as in Bordes et al.: high-degree hub
                # entities accumulate hundreds of np.add.at updates per
                # batch, and waiting until epoch end lets their norms (and
                # the scores) run away on hub-heavy graphs.
                model.normalize_entities()
            mean_loss = float(np.mean(epoch_losses))
            history.append(mean_loss)
            if mean_loss < self.config.loss_tolerance:
                break

        return TrainingReport(
            model_name=model.model_name,
            epochs_run=len(history),
            final_loss=history[-1],
            wall_seconds=time.perf_counter() - started,
            loss_history=history,
        )

    @staticmethod
    def _corrupt(
        batch: np.ndarray,
        num_entities: int,
        known: set[tuple[int, int, int]],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Corrupt head or tail of each triple, avoiding known positives."""
        negatives = batch.copy()
        corrupt_tail = rng.random(len(batch)) < 0.5
        replacements = rng.integers(0, num_entities, size=len(batch))
        negatives[corrupt_tail, 2] = replacements[corrupt_tail]
        negatives[~corrupt_tail, 0] = replacements[~corrupt_tail]
        # Resample collisions with true triples (a few retries suffice in
        # sparse graphs; any leftovers afterwards are tolerated as noise).
        for _ in range(3):
            collisions = [
                index
                for index, row in enumerate(map(tuple, negatives))
                if row in known
            ]
            if not collisions:
                break
            redo = rng.integers(0, num_entities, size=len(collisions))
            for offset, index in enumerate(collisions):
                if corrupt_tail[index]:
                    negatives[index, 2] = redo[offset]
                else:
                    negatives[index, 0] = redo[offset]
        return negatives
