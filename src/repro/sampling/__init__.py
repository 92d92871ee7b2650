"""Semantic-aware random-walk sampling (paper §IV-A) plus baselines.

Pipeline: :class:`SamplingScope` bounds the walk to the n-hop neighbourhood
of the mapping node; :mod:`~repro.sampling.strength` takes the Eq. 5 walk's
stationary distribution in closed form (production S1; its oracle is
:class:`TransitionModel` + :func:`stationary_distribution`, Eq. 6 power
iteration); :class:`AnswerCollector` draws the i.i.d. answer sample of
Theorem 1.  :mod:`~repro.sampling.topology` contributes the CNARW / Node2Vec
samplers of Fig. 5(a), :mod:`~repro.sampling.chain` chain queries (§V-B).
"""

from repro.sampling.chain import ChainSampler
from repro.sampling.collector import AnswerCollector, AnswerDistribution
from repro.sampling.scope import SamplingScope, build_scope
from repro.sampling.stationary import StationaryResult, stationary_distribution
from repro.sampling.topology import (
    cnarw_transition_model,
    node2vec_visit_distribution,
    uniform_transition_model,
)
from repro.sampling.transition import TransitionModel
from repro.sampling.walker import RandomWalker, WalkRecord

__all__ = [
    "SamplingScope",
    "build_scope",
    "TransitionModel",
    "StationaryResult",
    "stationary_distribution",
    "AnswerCollector",
    "AnswerDistribution",
    "ChainSampler",
    "RandomWalker",
    "WalkRecord",
    "cnarw_transition_model",
    "node2vec_visit_distribution",
    "uniform_transition_model",
]
