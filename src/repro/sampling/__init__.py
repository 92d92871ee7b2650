"""Semantic-aware random-walk sampling (paper §IV-A) plus baselines.

Pipeline: :func:`stage_distributions` (:mod:`~repro.sampling.strength`,
production S1) bounds the Eq. 5 walk to the n-hop neighbourhood of each
mapping node, takes its stationary distribution in closed form and restricts
it to the candidate answers — every source of a hop in one batched kernel
call (its byte-for-byte oracle is the per-source composition in
:mod:`~repro.sampling.reference`; the closed form's is
:class:`TransitionModel` + :func:`stationary_distribution`, Eq. 6 power
iteration); :class:`AnswerCollector` draws the i.i.d. answer sample of
Theorem 1.  :class:`SamplingScope` / :func:`build_scope` are the per-source
scope the baselines and the topology ablations walk:
:mod:`~repro.sampling.topology` contributes the CNARW / Node2Vec samplers of
Fig. 5(a).  :mod:`~repro.sampling.chain` composes chain queries (§V-B).
"""

from repro.sampling.chain import ChainSampler
from repro.sampling.collector import AnswerCollector, AnswerDistribution
from repro.sampling.scope import SamplingScope, build_scope
from repro.sampling.stationary import StationaryResult, stationary_distribution
from repro.sampling.strength import Stage, stage_distributions
from repro.sampling.topology import (
    cnarw_transition_model,
    node2vec_visit_distribution,
    uniform_transition_model,
)
from repro.sampling.transition import TransitionModel
from repro.sampling.walker import RandomWalker, WalkRecord

__all__ = [
    "Stage",
    "stage_distributions",
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
