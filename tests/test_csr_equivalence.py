"""CSR hot-path kernels vs the seed pure-Python implementations.

Property-style equivalence: on randomly wired graphs (multi-edges,
self-loops, disconnected components, multi-typed nodes included), the
vectorised BFS, scope build and closed-form strength distribution must
reproduce the seed implementations kept in :mod:`repro.sampling.reference`
— byte-identical distances, node orders and candidate sets, strengths
within 1e-12, the power iteration over the seed Eq. 5 assembly converging
to them — and the batched S1 stage kernel its per-source oracle byte for
byte, errors included.  Plus mutation tests proving snapshot
invalidation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import LookupEmbedding, PredicateVectorSpace
from repro.errors import EmbeddingError, NodeNotFoundError, SamplingError
from repro.kg import KnowledgeGraph, build_csr, csr_snapshot, hop_distances
from repro.sampling import strength
from repro.sampling.reference import (
    ReferenceTransitionModel,
    build_scope_python,
    hop_distances_python,
    stage_distribution_per_source,
    strength_distribution_python,
)
from repro.sampling.scope import build_scope
from repro.sampling.stationary import stationary_distribution
from repro.sampling.strength import (
    similarity_entry_weights,
    stage_distributions,
    strength_distribution,
)
from repro.sampling.topology import cnarw_entry_weights
from repro.semantics.similarity import SIMILARITY_FLOOR

TYPE_POOL = ("Car", "Person", "City", "Club", "Thing")
PREDICATE_POOL = ("product", "assembly", "designer", "country", "misc", "rare")


def random_world(seed: int, num_nodes: int = 60, num_edges: int = 150):
    """A random multi-typed, multi-edged KG plus a predicate space."""
    rng = np.random.default_rng(seed)
    kg = KnowledgeGraph(f"random-{seed}")
    for index in range(num_nodes):
        num_types = int(rng.integers(1, 3))
        types = rng.choice(TYPE_POOL, size=num_types, replace=False)
        kg.add_node(f"node_{index}", types, {"value": float(rng.uniform(0, 100))})
    for _ in range(num_edges):
        subject = int(rng.integers(0, num_nodes))
        obj = int(rng.integers(0, num_nodes))  # self-loops allowed
        predicate = str(rng.choice(PREDICATE_POOL))
        kg.add_edge(subject, predicate, obj)
    vectors = {
        name: rng.normal(size=12) for name in PREDICATE_POOL
    }
    space = PredicateVectorSpace(LookupEmbedding(vectors))
    return kg, space


@pytest.mark.parametrize("seed", range(6))
class TestEquivalence:
    def test_hop_distances(self, seed):
        kg, _ = random_world(seed)
        rng = np.random.default_rng(seed + 1000)
        for source in rng.integers(0, kg.num_nodes, size=4):
            for max_hops in (0, 1, 2, 4):
                assert hop_distances(kg, int(source), max_hops) == (
                    hop_distances_python(kg, int(source), max_hops)
                )

    def test_build_scope(self, seed):
        kg, _ = random_world(seed)
        target_types = frozenset(("Car", "City"))
        rng = np.random.default_rng(seed + 2000)
        for source in rng.integers(0, kg.num_nodes, size=4):
            for n_bound in (1, 2, 3):
                expected = build_scope_python(kg, int(source), n_bound, target_types)
                actual = build_scope(kg, int(source), n_bound, target_types)
                assert actual.nodes == expected.nodes
                assert actual.distances == expected.distances
                assert actual.candidate_answers == expected.candidate_answers

    def test_stationary_distribution(self, seed):
        """The power iteration over the seed assembly converges to the
        closed form."""
        kg, space = random_world(seed)
        scope = build_scope(kg, seed % kg.num_nodes, 3, frozenset(("Car",)))
        reference = ReferenceTransitionModel(kg, scope, space, "product")
        np.testing.assert_allclose(
            converged_iterate(reference),
            strength_distribution(kg, space, scope, "product"),
            rtol=1e-8,
            atol=1e-15,
        )

    def test_strength_distribution(self, seed):
        kg, space = random_world(seed)
        scope = build_scope(kg, seed % kg.num_nodes, 3, frozenset(("Car",)))
        per_predicate = np.clip(
            space.known_similarity_row("product", kg.predicates), SIMILARITY_FLOOR, 1.0
        )
        edge_weights = per_predicate[kg.edge_predicate_ids()]
        np.testing.assert_allclose(
            strength_distribution(kg, space, scope, "product"),
            strength_distribution_python(kg, scope, edge_weights),
            rtol=0.0,
            atol=1e-12,
        )

    def test_similarity_row_matches_pairwise(self, seed):
        _, space = random_world(seed)
        row = space.similarity_row("product", PREDICATE_POOL)
        pairwise = [space.similarity(name, "product") for name in PREDICATE_POOL]
        np.testing.assert_allclose(row, pairwise, rtol=0.0, atol=1e-12)
        assert row[PREDICATE_POOL.index("product")] == 1.0

    def test_unembedded_self_similarity_is_one(self, seed):
        # Identical names give 1.0 without a vector lookup, as in pairwise
        # similarity(), even when the embedding has no vector for the name.
        _, space = random_world(seed)
        assert space.similarity("zzz", "zzz") == 1.0
        np.testing.assert_array_equal(
            space.similarities_to("zzz", ["zzz", "zzz"]), [1.0, 1.0]
        )

    def test_csr_adjacency_matches_store(self, seed):
        kg, _ = random_world(seed)
        snapshot = csr_snapshot(kg)
        assert snapshot.num_nodes == kg.num_nodes
        assert snapshot.num_edges == kg.num_edges
        np.testing.assert_array_equal(
            snapshot.edge_predicate_ids, kg.edge_predicate_ids()
        )
        assert_csr_follows_append_rule(kg, list(kg.triples()))


def converged_iterate(transition):
    """The power iteration run to its fix-point (floor-weighted edges mix
    slowly: up to ~24 k steps on these worlds)."""
    return stationary_distribution(
        transition, tolerance=1e-13, max_iterations=60_000, require_convergence=True
    ).probabilities


def append_rule_adjacency(num_nodes, triples):
    """Per node, its ``(edge_id, neighbour)`` entries in the order a per-node
    list appended them edge by edge: the subject's entry, then the
    object's, and a self-loop once."""
    adjacency = [[] for _ in range(num_nodes)]
    for edge_id, (subject, _predicate, obj) in enumerate(triples):
        adjacency[subject].append((edge_id, obj))
        if obj != subject:
            adjacency[obj].append((edge_id, subject))
    return adjacency


def assert_csr_follows_append_rule(kg, triples):
    """``build_csr``'s arrays and ``kg.neighbors`` / ``kg.degree`` equal the
    append-rule oracle over ``triples`` (the edges in insertion order)."""
    expected = append_rule_adjacency(kg.num_nodes, triples)
    snapshot = build_csr(kg)
    np.testing.assert_array_equal(
        snapshot.indptr, np.cumsum([0] + [len(pairs) for pairs in expected])
    )
    flat = [pair for pairs in expected for pair in pairs]
    np.testing.assert_array_equal(snapshot.edge_ids, [e for e, _ in flat])
    np.testing.assert_array_equal(snapshot.neighbor_ids, [n for _, n in flat])
    for node in kg.nodes():
        assert kg.neighbors(node) == expected[node]
        assert kg.degree(node) == len(expected[node])


@st.composite
def wired_graph(draw):
    """``(num_nodes, edges)``: edges only among the first ``wired`` nodes,
    so the rest are isolated; few nodes and predicates, so parallel edges
    and self-loops are common."""
    num_nodes = draw(st.integers(min_value=1, max_value=20))
    wired = draw(st.integers(min_value=1, max_value=num_nodes))
    endpoint = st.integers(0, wired - 1)
    edges = draw(
        st.lists(st.tuples(endpoint, st.sampled_from("pq"), endpoint), max_size=50)
    )
    return num_nodes, edges


@given(wired_graph())
@settings(max_examples=60, deadline=None)
def test_build_csr_follows_the_append_rule(graph):
    num_nodes, edges = graph
    kg = KnowledgeGraph()
    for index in range(num_nodes):
        kg.add_node(f"n{index}", ["T"])
    for subject, predicate, obj in edges:
        kg.add_edge(subject, predicate, obj)
    assert_csr_follows_append_rule(kg, edges)


def batch_outcome(stage_of_batch):
    """What a batched call comes to: its entries, or the ``EmbeddingError``
    it raises."""
    try:
        return stage_of_batch()
    except EmbeddingError as error:
        return error


def oracle_outcome(kg, space, sources, predicate, node_types, **walk):
    """The per-source oracle over ``sources`` in call order: each source's
    ``(scope, pi, pi_A)`` or the ``SamplingError`` its walk raises, and
    instead of the list the first ``EmbeddingError`` met."""

    def walk_all():
        entries = []
        for source in sources:
            try:
                entries.append(
                    stage_distribution_per_source(
                        kg, space, int(source), predicate, node_types, **walk
                    )
                )
            except SamplingError as error:
                entries.append(error)
        return entries

    return batch_outcome(walk_all)


def assert_same_outcome(got, expected):
    """Kernel == oracle on the bytes of ``nodes``, ``pi``, ``pi_A``, on
    ``answers``, and on every error's class and message."""
    if isinstance(expected, EmbeddingError):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert not isinstance(got, EmbeddingError), got
    assert len(got) == len(expected)
    for stage, reference in zip(got, expected):
        if isinstance(reference, SamplingError):
            assert type(stage) is type(reference) and str(stage) == str(reference)
            continue
        scope, probabilities, distribution = reference
        assert stage.nodes.dtype == np.int64
        assert stage.nodes.tolist() == list(scope.nodes)
        assert stage.probabilities.tobytes() == probabilities.tobytes()
        assert stage.num_candidates == scope.num_candidates
        assert stage.distribution.answers.dtype == distribution.answers.dtype
        assert stage.distribution.answers.tolist() == distribution.answers.tolist()
        assert (
            stage.distribution.probabilities.tobytes()
            == distribution.probabilities.tobytes()
        )


def semantic_stages(
    kg, space, sources, predicate, node_types, *,
    similarity_floor=SIMILARITY_FLOOR, **walk,
):
    """The stage kernel under the Eq. 5 weights, as a semantic planner calls it."""
    return stage_distributions(
        kg,
        sources,
        node_types,
        lambda: similarity_entry_weights(kg, space, predicate, similarity_floor),
        **walk,
    )


def assert_kernel_equals_oracle(kg, space, sources, predicate, node_types, **walk):
    got = batch_outcome(
        lambda: semantic_stages(kg, space, sources, predicate, node_types, **walk)
    )
    expected = oracle_outcome(kg, space, sources, predicate, node_types, **walk)
    assert_same_outcome(got, expected)
    return got


#: the default walk, and one whose zero floor gives zero-weight edges
#: (zero-mass candidates, scopes without a positively weighted edge)
WALKS = (
    {},
    {"self_loop_weight": 0.0, "similarity_floor": 0.0},
)
TYPE_SETS = (
    frozenset({"Car"}),
    frozenset({"Car", "Person"}),
    frozenset({"NoSuchType"}),
)


def partial_space(seed: int) -> PredicateVectorSpace:
    """A space that does not cover ``rare`` (the pool's last predicate)."""
    rng = np.random.default_rng(seed)
    return PredicateVectorSpace(
        LookupEmbedding(
            {name: rng.normal(size=12) for name in PREDICATE_POOL[:-1]}
        )
    )


def crafted_world():
    """Every corner the kernel's per-source tail has, on eight nodes."""
    kg = KnowledgeGraph()
    hub = kg.add_node("hub", ["Hub"])
    a = kg.add_node("a", ["Car"])
    b = kg.add_node("b", ["Car"])
    loner = kg.add_node("loner", ["Car"])  # isolated
    narcissus = kg.add_node("narcissus", ["Car"])  # its only neighbour: itself
    c = kg.add_node("c", ["Person"])
    d = kg.add_node("d", ["Car"])
    e = kg.add_node("e", ["Car"])
    kg.add_edge(hub, "knows", a)
    kg.add_edge(a, "knows", b)  # three parallel edges, both directions
    kg.add_edge(a, "likes", b)
    kg.add_edge(b, "knows", a)
    kg.add_edge(narcissus, "knows", narcissus)
    kg.add_edge(c, "knows", hub)
    kg.add_edge(d, "rare_pred", e)  # uncovered, in a component of its own
    space = PredicateVectorSpace(
        LookupEmbedding(
            {"knows": np.array([1.0, 0.0]), "likes": np.array([0.6, 0.8])}
        )
    )
    names = dict(
        hub=hub, a=a, b=b, loner=loner, narcissus=narcissus, c=c, d=d, e=e
    )
    return kg, space, names


class TestBatchedStageKernel:
    """``stage_distributions`` == ``stage_distribution_per_source``, source
    by source, byte for byte."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n_bound", (1, 2, 3))
    def test_random_worlds(self, seed, n_bound):
        kg, space = random_world(seed)
        if seed % 4 == 3:  # some scopes touch an uncovered predicate
            space = partial_space(seed)
        rng = np.random.default_rng(seed + 2000)
        sources = rng.integers(0, kg.num_nodes, size=8)
        sources = np.concatenate((sources, sources[:3]))  # duplicates
        for node_types in TYPE_SETS:
            for walk in WALKS:
                assert_kernel_equals_oracle(
                    kg, space, sources, "product", node_types,
                    n_bound=n_bound, **walk,
                )

    def test_chain_hop_on_a_preset(self, dbpedia_bundle):
        """A real hop-2 batch: the walks from a chain's intermediates."""
        bundle = dbpedia_bundle
        hub = next(hub for hub in bundle.spec.hubs if hub.chain is not None)
        intermediates = csr_snapshot(bundle.kg).nodes_with_type(
            hub.chain.intermediate_type
        )[:24]
        got = assert_kernel_equals_oracle(
            bundle.kg, bundle.space(), intermediates,
            hub.chain.predicates[1], frozenset({hub.target_type}),
        )
        assert any(not isinstance(stage, SamplingError) for stage in got)

    def test_isolated_self_loop_and_parallel_edges(self):
        kg, space, n = crafted_world()
        cars = frozenset({"Car"})
        sources = [n["hub"], n["loner"], n["narcissus"], n["a"], n["b"], n["hub"]]
        for n_bound in (1, 2, 3):
            got = assert_kernel_equals_oracle(
                kg, space, sources, "knows", cars, n_bound=n_bound
            )
            # neither has a candidate: the source itself is no answer
            assert "no candidate" in str(got[1]) and "'loner'" in str(got[1])
            assert "no candidate" in str(got[2]) and "'narcissus'" in str(got[2])
            assert got[3].distribution.answers.tolist() == [n["b"]]
            assert got[0].nodes.tobytes() == got[5].nodes.tobytes()

    def test_errors_are_per_source_and_in_call_order(self):
        kg, space, n = crafted_world()
        cars = frozenset({"Car"})
        # the uncovered predicate lies outside every scope: no raise, and
        # the source without a candidate is an entry, not an exception
        got = assert_kernel_equals_oracle(
            kg, space, [n["hub"], n["c"]], "knows", cars, n_bound=1
        )
        assert isinstance(got[1], SamplingError) and "'c'" in str(got[1])
        # source 2 has no candidate, source 3's scope touches rare_pred:
        # the batch raises what the walk from source 3 alone raises
        got = assert_kernel_equals_oracle(
            kg, space, [n["hub"], n["c"], n["d"]], "knows", cars, n_bound=1
        )
        assert isinstance(got, EmbeddingError) and "rare_pred" in str(got)
        with pytest.raises(EmbeddingError, match="rare_pred"):
            stage_distribution_per_source(kg, space, n["d"], "knows", cars, n_bound=1)
        # ... but not when that source has no candidate either: no weight
        # is looked at before a candidate exists
        got = assert_kernel_equals_oracle(
            kg, space, [n["d"], n["e"]], "knows", frozenset({"Person"})
        )
        assert all(isinstance(stage, SamplingError) for stage in got)
        # an unknown query predicate fails the first source with a candidate
        got = assert_kernel_equals_oracle(
            kg, space, [n["c"], n["hub"]], "no_such_predicate", cars
        )
        assert isinstance(got, EmbeddingError)

    def test_bad_arguments(self):
        kg, space, n = crafted_world()
        cars = frozenset({"Car"})
        with pytest.raises(SamplingError, match="n_bound"):
            semantic_stages(kg, space, [n["hub"]], "knows", cars, n_bound=0)
        with pytest.raises(NodeNotFoundError, match=str(kg.num_nodes)):
            semantic_stages(kg, space, [n["hub"], kg.num_nodes], "knows", cars)
        assert semantic_stages(kg, space, [], "knows", cars) == []

    def test_weights_are_looked_at_only_for_a_source_with_a_candidate(self):
        kg, _, n = crafted_world()
        looked = []

        def weigh():
            looked.append(True)
            return cnarw_entry_weights(kg)

        people = frozenset({"Person"})
        stages = stage_distributions(kg, [n["d"], n["e"]], people, weigh)
        assert all(isinstance(stage, SamplingError) for stage in stages)
        assert looked == []
        stages = stage_distributions(kg, [n["d"], n["hub"], n["a"]], people, weigh)
        assert isinstance(stages[0], SamplingError) and looked == [True]

    @pytest.mark.parametrize("sources_per_block", (1, 3))
    def test_results_do_not_depend_on_the_block_size(
        self, monkeypatch, sources_per_block
    ):
        kg, space = random_world(5)
        rng = np.random.default_rng(7)
        sources = rng.integers(0, kg.num_nodes, size=11)
        cars = frozenset({"Car"})
        # equal to the one oracle before and after, so equal to each other
        assert_kernel_equals_oracle(kg, space, sources, "product", cars)
        monkeypatch.setattr(
            strength, "_STAGE_BLOCK_ELEMENTS", sources_per_block * kg.num_nodes
        )
        assert_kernel_equals_oracle(kg, space, sources, "product", cars)
        # the first failing source in call order still decides the error
        kg, space, n = crafted_world()
        monkeypatch.setattr(
            strength, "_STAGE_BLOCK_ELEMENTS", sources_per_block * kg.num_nodes
        )
        got = assert_kernel_equals_oracle(
            kg, space, [n["hub"], n["c"], n["b"], n["d"], n["e"]], "knows", cars
        )
        assert isinstance(got, EmbeddingError)

    def test_derived_members_are_cached_and_not_exported(self):
        kg, _ = random_world(0)
        snapshot = csr_snapshot(kg)
        adjacency = snapshot.adjacency_matrix
        assert adjacency is snapshot.adjacency_matrix
        # adjacency order, duplicates and self-loops kept: never canonicalised
        assert adjacency.indices.tolist() == snapshot.neighbor_ids.tolist()
        assert adjacency.indptr.tolist() == snapshot.indptr.tolist()
        np.testing.assert_array_equal(
            snapshot.entry_predicate_ids,
            snapshot.edge_predicate_ids[snapshot.edge_ids],
        )
        _, arrays = snapshot.export_arrays()
        assert set(arrays) == {
            "indptr", "neighbor_ids", "edge_ids", "edge_predicate_ids",
            "type_matrix",
        }


MULTIGRAPH_PREDICATES = ("strong", "mid", "weak", "void")  # void: no vector
MULTIGRAPH_SPACE = PredicateVectorSpace(
    LookupEmbedding(
        {
            "strong": np.array([0.95, np.sqrt(1 - 0.95**2), 0.0]),
            "mid": np.array([0.5, np.sqrt(1 - 0.25), 0.0]),
            "weak": np.array([-0.4, 0.0, np.sqrt(1 - 0.16)]),
        }
    )
)


@st.composite
def multigraph_batch(draw):
    """A small multigraph — self-loops, parallel edges, isolated nodes, the
    odd uncovered predicate — and a batch of sources over it."""
    size = draw(st.integers(min_value=1, max_value=10))
    kg = KnowledgeGraph()
    for index in range(size):
        kg.add_node(f"n{index}", draw(st.sampled_from((["T"], ["U"], ["T", "U"]))))
    node = st.integers(0, size - 1)
    covered = st.sampled_from(MULTIGRAPH_PREDICATES[:-1])
    predicate = st.one_of(covered, covered, st.sampled_from(MULTIGRAPH_PREDICATES))
    for subject, label, obj in draw(
        st.lists(st.tuples(node, predicate, node), max_size=25)
    ):
        kg.add_edge(subject, label, obj)
    sources = draw(st.lists(node, min_size=1, max_size=6))
    return kg, sources


class TestBatchedStageKernelProperty:
    @given(
        batch=multigraph_batch(),
        n_bound=st.integers(1, 3),
        node_types=st.sampled_from(
            (frozenset({"T"}), frozenset({"T", "U"}), frozenset({"V"}))
        ),
        walk=st.sampled_from(WALKS),
    )
    @settings(max_examples=150, deadline=None)
    def test_kernel_equals_oracle(self, batch, n_bound, node_types, walk):
        kg, sources = batch
        assert_kernel_equals_oracle(
            kg, MULTIGRAPH_SPACE, sources, "strong", node_types,
            n_bound=n_bound, **walk,
        )


class TestPartialEmbedding:
    """Seed semantics: unknown predicates only fail when actually touched."""

    def test_out_of_scope_unknown_predicate_builds(self):
        kg = KnowledgeGraph()
        hub = kg.add_node("hub", ["Hub"])
        near = kg.add_node("near", ["Car"])
        far = kg.add_node("far", ["Car"])
        kg.add_edge(near, "knows", hub)
        kg.add_edge(far, "rare_pred", near)  # outside the 1-hop scope
        space = PredicateVectorSpace(
            LookupEmbedding({"knows": np.array([1.0, 0.0])})
        )
        scope = build_scope(kg, hub, 1, frozenset(("Car",)))
        reference = ReferenceTransitionModel(kg, scope, space, "knows")
        np.testing.assert_allclose(
            strength_distribution(kg, space, scope, "knows"),
            converged_iterate(reference),
            rtol=1e-8,
        )

    def test_in_scope_unknown_predicate_raises(self):
        from repro.errors import EmbeddingError

        kg = KnowledgeGraph()
        hub = kg.add_node("hub", ["Hub"])
        near = kg.add_node("near", ["Car"])
        kg.add_edge(near, "rare_pred", hub)
        space = PredicateVectorSpace(
            LookupEmbedding({"knows": np.array([1.0, 0.0])})
        )
        scope = build_scope(kg, hub, 1, frozenset(("Car",)))
        with pytest.raises(EmbeddingError):
            strength_distribution(kg, space, scope, "knows")
        with pytest.raises(EmbeddingError):
            ReferenceTransitionModel(kg, scope, space, "knows")

    def test_planner_only_checks_the_scopes_edges(self):
        """The closed-form S1 stage keeps the contract end to end: an
        uncovered predicate anywhere else in the graph fails no plan."""
        from repro.bench.sampled import PaperConfig, PlanSampler, SamplerKind
        from repro.core.plan import PlanCache
        from repro.core.planner import QueryPlanner
        from repro.errors import EmbeddingError
        from repro.query.graph import QueryGraph

        kg = KnowledgeGraph()
        hub = kg.add_node("hub", ["Hub"])
        near = kg.add_node("near", ["Car"])
        far = kg.add_node("far", ["Car"])
        kg.add_edge(near, "knows", hub)
        kg.add_edge(far, "rare_pred", near)  # outside the 1-hop scope
        space = PredicateVectorSpace(
            LookupEmbedding({"knows": np.array([1.0, 0.0])})
        )
        simple = QueryGraph.simple("hub", ["Hub"], "knows", ["Car"]).components[0]

        def distribution(n_bound, sampler=SamplerKind.SEMANTIC):
            config = PaperConfig(n_bound=n_bound, sampler=sampler)
            planner = QueryPlanner(kg, space, config, cache=PlanCache())
            plan = planner.plan_for(simple)
            return PlanSampler(kg, space, config).sample(plan).distribution

        assert distribution(1).answers.tolist() == [near]
        with pytest.raises(EmbeddingError, match="rare_pred"):
            distribution(2)  # now the rare_pred edge is inside the scope
        # the CNARW ablation weighs no predicate, so it asks the embedding
        # to cover nothing
        assert distribution(2, SamplerKind.CNARW).answers.tolist() == [near, far]

    def test_validator_weighs_every_edge_within_the_bound(self):
        """The exact row weighs every edge of a node it reaches below the
        bound, in or out of the sampling scope: an uncovered predicate
        there fails the whole row, as it fails SSB's enumeration."""
        from repro.errors import EmbeddingError
        from repro.semantics.validation import CorrectnessValidator

        kg = KnowledgeGraph()
        hub = kg.add_node("hub", ["Hub"])
        near = kg.add_node("near", ["Car"])
        far = kg.add_node("far", ["Car"])
        kg.add_edge(near, "knows", hub)
        kg.add_edge(far, "rare_pred", near)
        space = PredicateVectorSpace(
            LookupEmbedding({"knows": np.array([1.0, 0.0])})
        )
        outcome = CorrectnessValidator(
            kg, space, hub, "knows", max_length=1
        ).validate(near)
        assert (outcome.similarity, outcome.best_length) == (1.0, 1)
        with pytest.raises(EmbeddingError, match="rare_pred"):
            CorrectnessValidator(kg, space, hub, "knows", max_length=2).validate(near)


class TestSnapshotInvalidation:
    def test_snapshot_is_cached_per_version(self):
        kg, _ = random_world(0)
        assert csr_snapshot(kg) is csr_snapshot(kg)

    def test_add_edge_invalidates(self):
        kg, _ = random_world(1)
        before = csr_snapshot(kg)
        kg.add_edge(0, "misc", 1)
        after = csr_snapshot(kg)
        assert after is not before
        assert after.num_edges == before.num_edges + 1
        edge_ids, neighbours = after.neighbors(0)
        assert (kg.num_edges - 1) in edge_ids.tolist()
        # BFS through the public API sees the new edge immediately.
        assert 1 in hop_distances(kg, 0, 1)

    def test_add_node_invalidates(self):
        kg, _ = random_world(2)
        before = csr_snapshot(kg)
        kg.add_node("late_arrival", ["Thing"])
        after = csr_snapshot(kg)
        assert after is not before
        assert after.num_nodes == before.num_nodes + 1

    def test_set_attribute_preserves_snapshot(self):
        # Attribute writes bump the attribute counter only: snapshots hold
        # no attribute data, so the cached object survives by identity.
        kg, _ = random_world(3)
        before = csr_snapshot(kg)
        structure_before = kg.structure_version
        kg.set_attribute(0, "value", 1.0)
        assert kg.structure_version == structure_before
        assert kg.attribute_version >= 1
        assert kg.version > structure_before  # total counter still moves
        assert csr_snapshot(kg) is before

    def test_type_bitmask(self):
        kg, _ = random_world(4)
        snapshot = csr_snapshot(kg)
        mask = snapshot.type_mask(("Car", "Person"))
        for node in kg.nodes():
            assert mask[node] == kg.node(node).shares_type_with({"Car", "Person"})
        assert not snapshot.type_mask(("NoSuchType",)).any()
        np.testing.assert_array_equal(
            snapshot.nodes_with_any_type(("Car", "Person")),
            np.asarray(kg.nodes_with_any_type(["Car", "Person"])),
        )
