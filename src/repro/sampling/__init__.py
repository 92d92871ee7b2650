"""Semantic-aware random-walk sampling (paper §IV-A) plus baselines.

Pipeline: :func:`stage_distributions` (:mod:`~repro.sampling.strength`,
the S1 of a run that draws) bounds a walk to the n-hop neighbourhood of each mapping
node, takes its stationary distribution in closed form and restricts it to
the candidate answers — every source of a hop in one batched kernel call,
for the Eq. 5 semantic walk and the CNARW ablation alike, since both are
reversible (its byte-for-byte oracle is the per-source composition in
:mod:`~repro.sampling.reference`; the closed form's is Eq. 6 power
iteration, :func:`stationary_distribution`, over that module's seed
transition assembly); :class:`AnswerCollector` draws the i.i.d. answer
sample of Theorem 1.  :class:`SamplingScope` / :func:`build_scope` are the
per-source scope the baselines and the Node2Vec ablation walk:
:mod:`~repro.sampling.topology` contributes the CNARW weights and the
Node2Vec sampler of Fig. 5(a).  :mod:`~repro.sampling.chain` composes chain
queries (§V-B).  Nothing is loaded eagerly: a census imports none of it.
"""
