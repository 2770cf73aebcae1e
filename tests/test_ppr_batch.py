"""Tests for the multi-source (batched) PPR engine."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ppr.batch as batch_module
from repro.ppr import approximate_ppr, multi_source_ppr, power_iteration_ppr


def random_graph(
    num_nodes: int, density: float, seed: int, dangling: int = 0
) -> sp.csr_matrix:
    """Random directed graph; ``dangling`` random rows lose their out-edges."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((num_nodes, num_nodes)) < density).astype(float)
    np.fill_diagonal(dense, 0)
    dense[rng.choice(num_nodes, dangling, replace=False)] = 0.0
    return sp.csr_matrix(dense)


def forced_ppr(adjacency, sources, storage=None, rounds=None, **kwargs):
    """``multi_source_ppr`` with the engine's storage or round kind forced
    through its module constants (the engine picks both from the input).

    ``storage``: ``"compact"`` (every chunk starts over its sources only) or
    ``"full"`` (every chunk is full width).  ``rounds``: ``"dense"`` (every
    full-width round runs dense) or ``"compacted"`` (no round runs dense).
    """
    with pytest.MonkeyPatch.context() as patch:
        if storage == "compact":
            patch.setattr(batch_module, "_BLOCK_BUDGET", 0)
        elif storage == "full":
            patch.setattr(batch_module, "_BLOCK_BUDGET", 1 << 60)
        if rounds == "dense":
            patch.setattr(batch_module, "_DENSE_COLUMN_FRACTION", -1.0)
        elif rounds == "compacted":
            patch.setattr(batch_module, "_DENSE_COLUMN_FRACTION", 1.0)
            patch.setattr(batch_module, "_SMALL_BLOCK", 0)
        return multi_source_ppr(adjacency, sources, **kwargs)


def assert_identical(left: sp.csr_matrix, right: sp.csr_matrix) -> None:
    """Bitwise equality of two score matrices (structure and values)."""
    assert left.shape == right.shape
    np.testing.assert_array_equal(left.indptr, right.indptr)
    np.testing.assert_array_equal(left.indices, right.indices)
    assert left.data.tobytes() == right.data.tobytes()


class TestMultiSourcePPR:
    def test_shape_and_row_order(self):
        adjacency = random_graph(20, 0.3, seed=0)
        sources = [5, 2, 11]
        scores = multi_source_ppr(adjacency, sources)
        assert scores.shape == (3, 20)
        for row, source in enumerate(sources):
            dense = scores.getrow(row).toarray().ravel()
            assert dense.argmax() == source

    def test_agrees_with_single_source_push(self):
        """Batched rows stay within the shared epsilon residual bound of the
        queue-based single-source push."""
        adjacency = random_graph(40, 0.15, seed=1)
        sources = np.arange(40)
        scores = multi_source_ppr(adjacency, sources, alpha=0.2, epsilon=1e-5)
        for source in sources:
            estimates = approximate_ppr(adjacency, int(source), alpha=0.2, epsilon=1e-5)
            single = np.zeros(40)
            for node, value in estimates.items():
                single[node] = value
            batched = scores.getrow(source).toarray().ravel()
            assert np.abs(batched - single).max() < 1e-3

    def test_close_to_exact_power_iteration(self):
        adjacency = random_graph(30, 0.2, seed=2)
        scores = multi_source_ppr(adjacency, [0, 7, 19], alpha=0.15, epsilon=1e-7)
        for row, source in enumerate([0, 7, 19]):
            exact = power_iteration_ppr(adjacency, source, alpha=0.15)
            batched = scores.getrow(row).toarray().ravel()
            assert np.abs(batched - exact).max() < 1e-3

    def test_single_source_call_matches_batch_row(self):
        """A 1-source call is bit-identical to the same row of a larger batch
        (rows evolve independently), which is what makes the per-node and
        batched subgraph engines select identical neighbour sets."""
        # The second graph has dangling rows: their returned mass must sum
        # to the same bits whatever the number of live rows.
        for adjacency in (
            random_graph(25, 0.25, seed=3),
            random_graph(25, 0.25, seed=0, dangling=10),
        ):
            batch = multi_source_ppr(adjacency, np.arange(25), epsilon=1e-4)
            for source in (0, 9, 24):
                single = multi_source_ppr(adjacency, [source], epsilon=1e-4)
                assert_identical(batch.getrow(source), single)

    def test_chunking_does_not_change_results(self):
        adjacency = random_graph(30, 0.2, seed=4)
        whole = multi_source_ppr(adjacency, np.arange(30))
        chunked = multi_source_ppr(adjacency, np.arange(30), chunk_rows=7)
        assert (whole != chunked).nnz == 0

    def test_dangling_mass_returns_to_source(self):
        adjacency = sp.csr_matrix(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float))
        scores = multi_source_ppr(adjacency, [0, 1, 2], alpha=0.2, epsilon=1e-9)
        for row in range(3):
            exact = power_iteration_ppr(adjacency, row, alpha=0.2)
            batched = scores.getrow(row).toarray().ravel()
            assert np.abs(batched - exact).max() < 1e-6

    def test_mass_bounded_by_one(self):
        adjacency = random_graph(30, 0.2, seed=5)
        scores = multi_source_ppr(adjacency, np.arange(30), epsilon=1e-5)
        row_sums = np.asarray(scores.sum(axis=1)).ravel()
        assert np.all(row_sums > 0)
        assert np.all(row_sums <= 1.0 + 1e-9)

    def test_disconnected_components_stay_local(self):
        block = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        adjacency = sp.block_diag([block, block]).tocsr()
        scores = multi_source_ppr(adjacency, [0], epsilon=1e-8)
        touched = scores.getrow(0).indices
        assert np.all(touched < 3)

    def test_empty_sources(self):
        adjacency = random_graph(10, 0.3, seed=6)
        scores = multi_source_ppr(adjacency, [])
        assert scores.shape == (0, 10)

    def test_prepared_operator_matches_direct_call(self):
        from repro.ppr import PushOperator

        adjacency = random_graph(25, 0.25, seed=8)
        operator = PushOperator(adjacency)
        direct = multi_source_ppr(adjacency, np.arange(25))
        prepared = multi_source_ppr(adjacency, np.arange(25), prepared=operator)
        assert (direct != prepared).nnz == 0

    def test_invalid_arguments_rejected(self):
        adjacency = random_graph(10, 0.3, seed=7)
        with pytest.raises(ValueError):
            multi_source_ppr(adjacency, [0], alpha=1.5)
        with pytest.raises(ValueError):
            multi_source_ppr(adjacency, [0], epsilon=0.0)
        with pytest.raises(ValueError):
            multi_source_ppr(adjacency, [12])
        for bad_rows in (0, -1):
            with pytest.raises(ValueError, match="chunk_rows"):
                multi_source_ppr(adjacency, [0], chunk_rows=bad_rows)




@st.composite
def push_problems(draw):
    """Random graphs (directed or undirected, with dangling and isolated
    rows), a source list and an (alpha, epsilon) pair."""
    num_nodes = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.1, 0.3]))
    dense = (rng.random((num_nodes, num_nodes)) < density).astype(float)
    np.fill_diagonal(dense, 0)
    if draw(st.booleans()):
        dense = np.maximum(dense, dense.T)
    dense[rng.random(num_nodes) < draw(st.sampled_from([0.0, 0.2, 0.4]))] = 0.0
    isolated = rng.random(num_nodes) < draw(st.sampled_from([0.0, 0.1]))
    dense[isolated] = 0.0
    dense[:, isolated] = 0.0
    sources = rng.choice(num_nodes, draw(st.integers(1, min(num_nodes, 24))), replace=False)
    alpha = draw(st.sampled_from([0.1, 0.15, 0.3]))
    epsilon = draw(st.sampled_from([1e-3, 1e-4, 1e-6]))
    return sp.csr_matrix(dense), sources, alpha, epsilon


class TestOneEngineProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        push_problems(),
        st.sampled_from(
            [
                (None, None),
                ("compact", None),
                ("full", None),
                ("full", "dense"),
                ("compact", "compacted"),
            ]
        ),
    )
    def test_storage_rounds_and_chunking_never_change_bits(self, problem, forced):
        """Every chunking, storage and round kind is bitwise equal to the
        one-chunk result."""
        adjacency, sources, alpha, epsilon = problem
        kwargs = dict(alpha=alpha, epsilon=epsilon)
        reference = multi_source_ppr(adjacency, sources, chunk_rows=sources.size, **kwargs)
        for chunk_rows in (None, 1, 2, 3, 7):
            result = forced_ppr(adjacency, sources, *forced, chunk_rows=chunk_rows, **kwargs)
            assert_identical(result, reference)


class TestColumnSparseResiduals:
    """The column-compacted push rounds must be *bit-identical* to the dense
    ones — the subgraph engines rely on exact agreement between per-node and
    batched sweeps, so round decisions may never leak into the results."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_forced_sparse_matches_forced_dense(self, seed):
        adjacency = random_graph(50, 0.08, seed=seed)
        sources = np.arange(50)
        dense = forced_ppr(adjacency, sources, "full", "dense", epsilon=1e-6)
        sparse = forced_ppr(adjacency, sources, "full", "compacted", epsilon=1e-6)
        assert_identical(dense, sparse)

    def test_sparse_matches_dense_with_dangling_nodes(self):
        adjacency = random_graph(40, 0.1, seed=5, dangling=6)
        dense = forced_ppr(adjacency, np.arange(40), "full", "dense", epsilon=1e-7)
        sparse = forced_ppr(adjacency, np.arange(40), "full", "compacted", epsilon=1e-7)
        assert_identical(dense, sparse)

    def test_auto_mode_matches_dense(self):
        adjacency = random_graph(80, 0.05, seed=9)
        sources = np.arange(80)
        dense = forced_ppr(adjacency, sources, "full", "dense", epsilon=1e-6)
        assert_identical(dense, multi_source_ppr(adjacency, sources, epsilon=1e-6))

    def test_mode_independent_of_chunking(self):
        """Round decisions are per chunk, yet results must not depend on how
        sources are chunked (rows evolve independently)."""
        adjacency = random_graph(45, 0.1, seed=4)
        whole = forced_ppr(adjacency, np.arange(45), rounds="compacted")
        chunked = forced_ppr(adjacency, np.arange(45), rounds="compacted", chunk_rows=6)
        assert_identical(whole, chunked)

    def test_single_row_matches_batch_row_in_sparse_mode(self):
        adjacency = random_graph(30, 0.15, seed=6)
        batch = forced_ppr(adjacency, np.arange(30), rounds="compacted")
        single = forced_ppr(adjacency, [11], rounds="compacted")
        assert_identical(batch.getrow(11), single)


class TestSparseFrontier:
    """Compact residual storage must be *bit-identical* to full-width
    storage: it only changes where residuals live in memory, never the
    arithmetic performed on them."""

    @pytest.mark.parametrize("alpha", [0.1, 0.15, 0.3])
    @pytest.mark.parametrize("epsilon", [1e-3, 1e-5, 1e-7])
    def test_frontier_matches_dense_across_grid(self, alpha, epsilon):
        adjacency = random_graph(60, 0.08, seed=12)
        kwargs = dict(alpha=alpha, epsilon=epsilon)
        full = forced_ppr(adjacency, np.arange(60), "full", **kwargs)
        assert_identical(full, forced_ppr(adjacency, np.arange(60), "compact", **kwargs))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_frontier_matches_dense_with_dangling_nodes(self, seed):
        adjacency = random_graph(50, 0.08, seed=seed, dangling=7)
        full = forced_ppr(adjacency, np.arange(50), "full", epsilon=1e-6)
        assert_identical(full, forced_ppr(adjacency, np.arange(50), "compact", epsilon=1e-6))

    def test_frontier_independent_of_chunking(self):
        adjacency = random_graph(45, 0.1, seed=4)
        whole = forced_ppr(adjacency, np.arange(45), "compact", chunk_rows=45)
        chunked = forced_ppr(adjacency, np.arange(45), "compact", chunk_rows=7)
        assert_identical(whole, chunked)

    def test_frontier_composes_with_column_sparse_rounds(self):
        """Compact chunks widen into full-width ones mid-push and then mix
        dense and compacted rounds; every combination agrees exactly."""
        adjacency = random_graph(80, 0.05, seed=9)
        sources = np.arange(80)
        reference = forced_ppr(adjacency, sources, "full", "dense")
        for storage, rounds in (("full", None), ("compact", None), ("compact", "compacted")):
            assert_identical(reference, forced_ppr(adjacency, sources, storage, rounds))

    def test_auto_mode_matches_explicit(self):
        adjacency = random_graph(40, 0.1, seed=3)
        auto = multi_source_ppr(adjacency, np.arange(40))  # small graph -> full width
        assert_identical(auto, forced_ppr(adjacency, np.arange(40), "compact"))

    def test_invalid_frontier_rejected(self):
        """The storage is derived from the input; the removed selectors are
        rejected rather than silently ignored."""
        adjacency = random_graph(10, 0.3, seed=7)
        with pytest.raises(TypeError, match="frontier"):
            multi_source_ppr(adjacency, [0], frontier="sparse")
        with pytest.raises(TypeError, match="sparse_density"):
            multi_source_ppr(adjacency, [0], sparse_density=0.5)

    def test_stats_report_sublinear_peak_memory(self):
        """The point of compact storage: the residual block follows the
        touched set, not ``num_nodes`` — on a locally-converging push the
        compact peak must be far below the full-width ``rows x num_nodes``
        block."""
        rng = np.random.default_rng(11)
        n = 10_000
        src = rng.integers(0, n, n * 3)
        dst = rng.integers(0, n, n * 3)
        keep = src != dst
        adjacency = sp.coo_matrix(
            (np.ones(int(keep.sum())), (src[keep], dst[keep])), shape=(n, n)
        ).tocsr()
        full_stats: dict = {}
        compact_stats: dict = {}
        sources = np.arange(16)
        full = forced_ppr(adjacency, sources, "full", epsilon=3e-3, stats=full_stats)
        compact = forced_ppr(
            adjacency, sources, "compact", epsilon=3e-3, chunk_rows=16, stats=compact_stats
        )
        assert_identical(full, compact)
        assert compact_stats["rounds"] > 0
        assert full_stats["peak_block_floats"] == 2 * sources.size * n
        assert compact_stats["peak_block_floats"] < full_stats["peak_block_floats"] / 4

    def test_empty_sources_with_stats(self):
        adjacency = random_graph(10, 0.3, seed=6)
        stats: dict = {}
        scores = multi_source_ppr(adjacency, [], stats=stats)
        assert scores.shape == (0, 10)
        assert stats["rounds"] == 0


class TestAdaptiveChunking:
    """``chunk_rows=None`` sizes chunks adaptively: grow while the predicted
    block (rows x last touched set) stays under the float budget, shrink when
    it overshoots.  Sources push independently, so every policy must stay
    bit-identical to a fixed one."""

    def clustered_graph(self, num_cliques: int, clique_size: int) -> sp.csr_matrix:
        """Disconnected cliques: touched sets stay tiny per chunk."""
        block = np.ones((clique_size, clique_size)) - np.eye(clique_size)
        return sp.block_diag([block] * num_cliques).tocsr()

    def test_adaptive_matches_fixed_16(self):
        adjacency = random_graph(60, 0.08, seed=21)
        sources = np.arange(60)
        fixed = multi_source_ppr(adjacency, sources, epsilon=1e-6, chunk_rows=16)
        stats: dict = {}
        adaptive = multi_source_ppr(adjacency, sources, epsilon=1e-6, stats=stats)
        assert_identical(fixed, adaptive)
        assert sum(stats["chunk_rows"]) == sources.size

    def test_chunks_grow_on_clustered_graph(self, monkeypatch):
        from repro.ppr.batch import _START_CHUNK_ROWS

        adjacency = self.clustered_graph(num_cliques=200, clique_size=4)
        # A budget just below one full-width starting chunk: chunks start
        # compact at the floor size.
        monkeypatch.setattr(
            batch_module, "_BLOCK_BUDGET", 2 * _START_CHUNK_ROWS * adjacency.shape[0] - 1
        )
        sources = np.arange(96)
        stats: dict = {}
        adaptive = multi_source_ppr(adjacency, sources, epsilon=1e-6, stats=stats)
        # Tiny touched sets: the chunk doubles away from the starting size,
        # so the sweep takes fewer chunks than a fixed policy would.
        assert stats["chunk_rows"][0] == _START_CHUNK_ROWS
        assert max(stats["chunk_rows"]) > _START_CHUNK_ROWS
        assert len(stats["chunk_rows"]) < int(np.ceil(96 / _START_CHUNK_ROWS))
        fixed = multi_source_ppr(adjacency, sources, epsilon=1e-6, chunk_rows=16)
        assert_identical(fixed, adaptive)

    def test_chunks_shrink_when_budget_exceeded(self, monkeypatch):
        # A well-mixed graph: every chunk's touched set reaches ~all columns,
        # so a tiny budget must drive the chunk size down to the floor.
        adjacency = random_graph(80, 0.2, seed=22)
        sources = np.arange(80)
        whole = multi_source_ppr(adjacency, sources, epsilon=1e-6, chunk_rows=80)
        monkeypatch.setattr(batch_module, "_BLOCK_BUDGET", 64)
        stats: dict = {}
        adaptive = multi_source_ppr(adjacency, sources, epsilon=1e-6, stats=stats)
        assert min(stats["chunk_rows"]) == batch_module._MIN_CHUNK_ROWS
        assert_identical(whole, adaptive)

    def test_stats_dict_reuse_resets_chunk_rows(self):
        adjacency = random_graph(40, 0.1, seed=5)
        stats: dict = {}
        multi_source_ppr(adjacency, np.arange(40), stats=stats)
        first = list(stats["chunk_rows"])
        multi_source_ppr(adjacency, np.arange(40), stats=stats)
        assert stats["chunk_rows"] == first  # no accumulation across calls
        assert sum(stats["chunk_rows"]) == 40

    def test_explicit_chunk_rows_stays_fixed(self):
        adjacency = self.clustered_graph(num_cliques=50, clique_size=4)
        stats: dict = {}
        multi_source_ppr(adjacency, np.arange(48), chunk_rows=16, stats=stats)
        assert stats["chunk_rows"] == [16, 16, 16]
