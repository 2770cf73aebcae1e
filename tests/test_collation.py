"""Equivalence, caching and speed tests for the vectorized epoch engine
(flat block-diagonal collation + cross-epoch batch cache)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import HeteroGraph
from repro.sampling import (
    BiasedSubgraphBuilder,
    Subgraph,
    SubgraphStore,
    collate_many,
    collate_subgraphs,
)
from repro.sampling.subgraph import _CollationPack, _cumsum_offsets
from tests.conftest import make_separable_graph


@pytest.fixture(scope="module")
def hetero_graph():
    return make_separable_graph(num_nodes=110, num_relations=3, homophily=0.7, seed=11)


@pytest.fixture(scope="module")
def store(hetero_graph):
    builder = BiasedSubgraphBuilder(hetero_graph, hetero_graph.features, k=5)
    return builder.build_store(range(hetero_graph.num_nodes))


def assert_same_batch(reference, flat) -> None:
    """Bit-identical SubgraphBatch contents (the acceptance contract)."""
    np.testing.assert_array_equal(reference.features, flat.features)
    np.testing.assert_array_equal(reference.center_positions, flat.center_positions)
    np.testing.assert_array_equal(reference.center_nodes, flat.center_nodes)
    np.testing.assert_array_equal(reference.labels, flat.labels)
    assert set(reference.relation_adjacencies) == set(flat.relation_adjacencies)
    for name, left in reference.relation_adjacencies.items():
        right = flat.relation_adjacencies[name]
        assert left.shape == right.shape
        np.testing.assert_array_equal(left.indptr, right.indptr)
        np.testing.assert_array_equal(left.indices, right.indices)
        np.testing.assert_array_equal(left.data, right.data)


class TestFlatCollationEquivalence:
    def test_matches_reference_across_shuffled_batches(self, hetero_graph, store):
        """Flat collation is bit-identical to ``collate_subgraphs`` —
        features, every relation's indptr/indices/data, center positions
        and labels — across shuffled batch memberships and orders."""
        rng = np.random.default_rng(3)
        for _ in range(6):
            chunk = rng.permutation(hetero_graph.num_nodes)[:41]
            reference = collate_subgraphs(store.subgraphs(chunk), hetero_graph)
            assert_same_batch(reference, collate_many(store, chunk))

    def test_matches_reference_unnormalized(self, hetero_graph, store):
        chunk = np.array([9, 2, 30, 77])
        reference = collate_subgraphs(store.subgraphs(chunk), hetero_graph, normalize=False)
        assert_same_batch(reference, collate_many(store, chunk, normalize=False))

    def test_single_subgraph_batch(self, hetero_graph, store):
        reference = collate_subgraphs(store.subgraphs([4]), hetero_graph)
        assert_same_batch(reference, collate_many(store, [4]))

    def test_empty_batch_rejected(self, store):
        with pytest.raises(ValueError):
            collate_many(store, [])

    def test_missing_center_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            collate_many(store, [10_000])

    def test_pack_extends_after_append(self, hetero_graph):
        """Appending subgraphs reuses the existing flat arrays (the pack is
        extended, not rebuilt from scratch) and collation stays exact."""
        builder = BiasedSubgraphBuilder(hetero_graph, hetero_graph.features, k=5)
        store = builder.build_store(range(20))
        store.collate(range(20))  # builds the pack
        assert store.has_collation_pack()
        before = store._collation_pack(True)
        builder.build_store(range(20, 30), store=store)
        assert not store.has_collation_pack()
        chunk = np.arange(5, 28)
        reference = collate_subgraphs(store.subgraphs(chunk), hetero_graph)
        assert_same_batch(reference, collate_many(store, chunk))
        after = store._collation_pack(True)
        assert after.num_subgraphs == 30
        # The first 20 subgraphs' flat node segment is shared, not recopied.
        np.testing.assert_array_equal(
            after.nodes_flat[: before.nodes_flat.size], before.nodes_flat
        )


# ----------------------------------------------------------------------
# Vectorized pack builder vs the per-subgraph reference
# ----------------------------------------------------------------------
PACK_NODES = 40
PACK_RELATIONS = ("r0", "r1", "r2")


def _pack_graph() -> HeteroGraph:
    """Node space for hand-made subgraphs; its own edges are never read."""
    rng = np.random.default_rng(0)
    return HeteroGraph(
        PACK_NODES,
        rng.normal(size=(PACK_NODES, 3)),
        rng.integers(0, 2, PACK_NODES),
        {name: (np.array([0]), np.array([1])) for name in PACK_RELATIONS},
    )


def _reference_pack_arrays(subgraphs, graph, normalize):
    """Pack arrays re-derived from the ``collate_subgraphs`` blocks (each
    block is the subgraph's ``normalized_relation_adjacency``, or its
    ``relation_adjacency`` when ``normalize`` is false)."""
    batch = collate_subgraphs(subgraphs, graph, normalize=normalize)
    node_offsets = _cumsum_offsets(np.array([sg.num_nodes for sg in subgraphs]))
    arrays = {}
    for name, block in batch.relation_adjacencies.items():
        nnz_offsets = block.indptr[node_offsets].astype(np.int64)
        shift = np.repeat(node_offsets[:-1], np.diff(nnz_offsets))
        arrays[name] = (
            np.diff(block.indptr).astype(np.int64),
            block.indices.astype(np.int64) - shift,
            block.data,
            nnz_offsets,
        )
    return arrays


def assert_same_relations(left, right) -> None:
    """Byte-identical per-relation pack arrays (values and dtypes)."""
    assert list(left) == list(right)
    for name, arrays in left.items():
        for mine, theirs in zip(arrays, right[name]):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()


def assert_same_pack(left, right) -> None:
    assert left.centers.tobytes() == right.centers.tobytes()
    assert left.node_counts.tobytes() == right.node_counts.tobytes()
    assert left.node_offsets.tobytes() == right.node_offsets.tobytes()
    assert left.nodes_flat.tobytes() == right.nodes_flat.tobytes()
    assert_same_relations(left.relations, right.relations)


def assert_pack_matches_reference(subgraphs, graph) -> None:
    for normalize in (True, False):
        pack = _CollationPack.build(subgraphs, graph.relation_names, normalize)
        assert_same_relations(
            pack.relations, _reference_pack_arrays(subgraphs, graph, normalize)
        )


def _edge_list(num_nodes):
    endpoint = st.integers(0, num_nodes - 1)
    return st.lists(st.tuples(endpoint, endpoint), max_size=12)


@st.composite
def _subgraph_lists(draw):
    centers = draw(
        st.lists(st.integers(0, PACK_NODES - 1), min_size=1, max_size=8, unique=True)
    )
    subgraphs = []
    for center in centers:
        others = draw(
            st.lists(
                st.sampled_from([node for node in range(PACK_NODES) if node != center]),
                max_size=5,
                unique=True,
            )
        )
        num_nodes = 1 + len(others)
        relation_edges = {}
        for name in PACK_RELATIONS:
            if draw(st.booleans()):  # else: relation missing from the dict
                pairs = draw(_edge_list(num_nodes))
                relation_edges[name] = (
                    np.array([src for src, _ in pairs], dtype=np.int64),
                    np.array([dst for _, dst in pairs], dtype=np.int64),
                )
        subgraphs.append(Subgraph(center, np.array([center, *others]), relation_edges))
    return subgraphs


class TestVectorizedPack:
    @given(subgraphs=_subgraph_lists())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_subgraph_reference(self, subgraphs):
        """``_pack_relation`` output is byte-identical to the per-subgraph
        ``normalized_relation_adjacency`` / ``relation_adjacency`` blocks
        that ``collate_subgraphs`` stacks, for both ``normalize`` flags."""
        assert_pack_matches_reference(subgraphs, _pack_graph())

    def test_edge_cases(self):
        """No edges, a missing relation, duplicate / self-loop / reciprocal
        edges and single-node subgraphs, in one pack."""

        def edges(*pairs):
            return (
                np.array([src for src, _ in pairs], dtype=np.int64),
                np.array([dst for _, dst in pairs], dtype=np.int64),
            )

        subgraphs = [
            Subgraph(3, np.array([3]), {"r0": edges(), "r1": edges((0, 0))}),
            Subgraph(
                5,
                np.array([5, 8, 9, 11]),
                {
                    "r0": edges((0, 1), (0, 1), (1, 0), (2, 2), (3, 1), (1, 3)),
                    "r2": edges((2, 0), (0, 2), (0, 2)),
                },
            ),
            Subgraph(7, np.array([7]), {}),
            Subgraph(1, np.array([1, 2]), {"r1": edges((1, 1), (1, 1), (0, 1))}),
        ]
        assert_pack_matches_reference(subgraphs, _pack_graph())

    def test_empty_input(self):
        for normalize in (True, False):
            pack = _CollationPack.build([], PACK_RELATIONS, normalize)
            assert pack.num_subgraphs == 0
            for rowcounts, indices, data, offsets in pack.relations.values():
                assert rowcounts.size == indices.size == data.size == 0
                assert offsets.tolist() == [0]

    def test_build_never_renormalizes_per_subgraph(self, hetero_graph, monkeypatch):
        builder = BiasedSubgraphBuilder(hetero_graph, hetero_graph.features, k=4)
        store = builder.build_store(range(30))

        def fail(*args, **kwargs):  # pragma: no cover - only on regression
            raise AssertionError("pack build called the per-subgraph reference")

        monkeypatch.setattr(Subgraph, "normalized_relation_adjacency", fail)
        store.collate(range(30))
        assert store.has_collation_pack()


class TestPackCompaction:
    @given(
        steps=st.lists(
            st.tuples(
                st.lists(st.integers(0, PACK_NODES - 1), max_size=6, unique=True),
                st.lists(st.integers(0, PACK_NODES - 1), max_size=6, unique=True),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_add_discard_interleavings_match_fresh_build(self, steps, seed):
        """After any interleaving of appends, discards and collations, the
        store's (extended, compacted) packs equal a from-scratch build over
        the survivors, and a current pack stays current across a discard."""
        graph = _pack_graph()
        store = SubgraphStore(graph)
        rng = np.random.default_rng(seed)
        for added, discarded, collate in steps:
            for center in added:
                if center in store:
                    continue
                others = rng.choice(PACK_NODES, size=int(rng.integers(0, 4)), replace=False)
                others = others[others != center]
                num_nodes = 1 + others.size
                relation_edges = {
                    name: tuple(rng.integers(0, num_nodes, (2, int(rng.integers(0, 6)))))
                    for name in PACK_RELATIONS[: int(rng.integers(0, 4))]
                }
                store.add(Subgraph(center, np.array([center, *others]), relation_edges))
            if collate and len(store):
                store.collate(store.nodes())
                store.collate(store.nodes(), normalize=False)
            current = store.has_collation_pack(True)
            store.discard(discarded)
            assert store.has_collation_pack(True) or not current
            for normalize in (True, False):
                assert_same_pack(
                    store._collation_pack(normalize),
                    _CollationPack.build(store.subgraphs(), graph.relation_names, normalize),
                )


class TestBatchCache:
    def test_collate_canonicalizes_and_hits_on_membership(self, store):
        store.cache_hits = store.cache_misses = 0
        first = store.collate([8, 3, 5])
        assert first.center_nodes.tolist() == [3, 5, 8]
        again = store.collate(np.array([5, 8, 3]))
        assert store.cache_hits == 1 and store.cache_misses == 1
        # Hits share the assembled adjacencies; only features are
        # re-gathered (the cache does not hold dense feature blocks).
        for name, adjacency in first.relation_adjacencies.items():
            assert again.relation_adjacencies[name] is adjacency
        assert_same_batch(first, again)

    def test_normalize_flag_keys_separately(self, store):
        normalized = store.collate([1, 2])
        raw = store.collate([1, 2], normalize=False)
        for name, adjacency in normalized.relation_adjacencies.items():
            assert raw.relation_adjacencies[name] is not adjacency

    def test_cache_disabled(self, store):
        one = store.collate([6, 7], use_cache=False)
        two = store.collate([6, 7], use_cache=False)
        assert one is not two
        assert_same_batch(one, two)

    def test_eviction_respects_capacity(self, hetero_graph):
        builder = BiasedSubgraphBuilder(hetero_graph, hetero_graph.features, k=4)
        small = builder.build_store(range(12))
        small.cache_capacity = 2
        small.collate([0, 1])
        small.collate([2, 3])
        small.collate([4, 5])  # evicts [0, 1]
        hits = small.cache_hits
        small.collate([0, 1])
        assert small.cache_hits == hits  # miss: had been evicted
        assert len(small._batch_cache) == 2

    def test_batches_iterate_through_cache(self, hetero_graph, store):
        nodes = np.arange(40)
        store.cache_hits = store.cache_misses = 0
        list(store.batches(nodes, batch_size=16))
        assert store.cache_misses > 0 and store.cache_hits == 0
        list(store.batches(nodes, batch_size=16))
        assert store.cache_hits >= store.cache_misses

    def test_shuffled_epochs_same_membership_hit(self, hetero_graph, store):
        """A re-shuffled epoch whose batch covers the same membership (the
        single-batch regime of small splits) is served from cache."""
        nodes = np.arange(24)
        first = list(store.batches(nodes, batch_size=24, rng=np.random.default_rng(0)))
        second = list(store.batches(nodes, batch_size=24, rng=np.random.default_rng(9)))
        for name, adjacency in first[0].relation_adjacencies.items():
            assert second[0].relation_adjacencies[name] is adjacency
        assert_same_batch(first[0], second[0])

    def test_batches_accept_ndarray_without_copy_roundtrip(self, store):
        seen = []
        for batch in store.batches(np.arange(10), batch_size=4):
            seen.extend(batch.center_nodes.tolist())
        assert sorted(seen) == list(range(10))

    def test_batches_equivalent_to_reference(self, hetero_graph, store):
        """Every yielded batch equals the reference collation of the same
        (canonicalized) membership."""
        rng = np.random.default_rng(5)
        shuffled = rng.permutation(60)
        for start, batch in zip(
            range(0, 60, 13), store.batches(shuffled, 13, use_cache=False)
        ):
            members = np.sort(shuffled[start : start + 13])
            reference = collate_subgraphs(store.subgraphs(members), hetero_graph)
            assert_same_batch(reference, batch)


class TestPositionsOf:
    def test_vectorized_lookup_matches_dict(self, store):
        nodes = np.array([17, 0, 42, 3])
        positions = store.positions_of(nodes)
        ordered = store.subgraphs()
        for node, position in zip(nodes, positions):
            assert ordered[position].center == node

    def test_duplicates_allowed(self, store):
        positions = store.positions_of([5, 5, 5])
        assert len(set(positions.tolist())) == 1

    def test_empty_input(self, store):
        assert store.positions_of([]).size == 0

    def test_missing_raises(self, hetero_graph):
        empty = SubgraphStore(hetero_graph)
        with pytest.raises(KeyError):
            empty.positions_of([0])


class TestCollationSpeed:
    def test_flat_collation_is_faster_at_benchmark_scale(self):
        """Acceptance check: >= 4x over ``collate_subgraphs`` for the same
        shuffled epoch of batches, with bit-identical contents.

        Both paths are warmed first (per-subgraph normalization caches for
        the reference, the flat pack for the engine) so the measurement is
        the steady-state per-epoch assembly cost, and CPU time best-of-3
        keeps it stable on shared machines.
        """
        import time

        graph = make_separable_graph(num_nodes=450, num_relations=2, seed=29)
        builder = BiasedSubgraphBuilder(graph, graph.features, k=8)
        store = builder.build_store(range(graph.num_nodes))
        rng = np.random.default_rng(0)
        epoch = [rng.permutation(graph.num_nodes)[start : start + 64] for start in range(0, 450, 64)]

        reference_batches = [collate_subgraphs(store.subgraphs(c), graph) for c in epoch]
        flat_batches = [collate_many(store, c) for c in epoch]
        for reference, flat in zip(reference_batches, flat_batches):
            assert_same_batch(reference, flat)

        def cpu_time(func):
            best = float("inf")
            for _ in range(3):
                start = time.process_time()
                for _ in range(5):
                    func()
                best = min(best, time.process_time() - start)
            return best

        reference_time = cpu_time(
            lambda: [collate_subgraphs(store.subgraphs(c), graph) for c in epoch]
        )
        flat_time = cpu_time(lambda: [collate_many(store, c) for c in epoch])
        speedup = reference_time / flat_time
        assert speedup >= 4.0, f"flat collation only {speedup:.1f}x faster"
