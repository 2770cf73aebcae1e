"""Multi-source approximate PPR via synchronous, vectorized forward push.

The per-node push (:func:`repro.ppr.push.approximate_ppr`) processes one
residual at a time from a work queue, which is fast for a single source but
leaves the whole computation in Python when thousands of subgraph centers
need scores.  This module pushes a *frontier of sources at once*: every
above-threshold residual of every source is pushed in the same round, and
the spread to neighbours is one sparse-matrix product.  The per-source
semantics are identical to the queue variant — each push keeps ``alpha`` of
the residual as estimate, spreads ``1 - alpha`` uniformly over
out-neighbours, dangling nodes return their mass to the originating source,
and pushing stops once every residual is below ``epsilon * max(degree, 1)``
— so the converged estimates agree with the single-source method up to the
shared ``epsilon`` residual bound.

Sources are pushed in chunks.  A chunk keeps its residuals and estimates in
two ``(rows, touched)`` blocks over a sorted set of *touched* columns, and
the storage follows from the input size alone:

* **Full width** — when ``2 * rows * num_nodes`` floats fit
  ``_BLOCK_BUDGET``, every node is touched from the start.
* **Compact** — otherwise the chunk starts with just its sources and adds
  each column the first time mass reaches it, widening to full width once
  the touched set covers half the graph.  Memory follows the push's actual
  reach instead of ``rows * num_nodes``.

Each round pushes only the *active* columns (those holding at least one
above-threshold residual, tracked incrementally).  A full-width chunk with
many active columns, or a small block, runs a *dense* round: one pass over
the whole block and one product with the full transition.  Every other
round is *column-compacted*: it compares, pushes and updates only the active
columns and spreads through their transition rows, compacted to the
destinations they reach.

Storage, round kind and chunking never change results.  Skipped entries
only ever contribute exact ``+0.0`` terms, new columns are exact zeros until
mass first reaches them, the surviving floating-point operations keep their
accumulation order, and the mass returned by dangling nodes is summed
sequentially (a plain ``sum(axis=1)`` rounds differently depending on the
operand's row count and memory order).

Chunks start at ``max(16, _BLOCK_BUDGET // (2 * num_nodes))`` rows.  They
double while the block predicted from the last chunk's touched set stays
within the budget and halve when it overshot, so on locally-clustered graphs
(small touched sets) chunks grow and amortize per-chunk setup, and on
well-mixed graphs they stay small.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

#: Target size (in float64 entries) of one chunk's residual+estimate block.
_BLOCK_BUDGET = 1 << 20

#: Adaptive chunk policy bounds: chunks start at no fewer than
#: ``_START_CHUNK_ROWS`` sources and never shrink below ``_MIN_CHUNK_ROWS``.
_START_CHUNK_ROWS = 16
_MIN_CHUNK_ROWS = 4

#: A full-width round runs dense once more than this fraction of the columns
#: is active; below it the column-compacted round skips enough work to win.
_DENSE_COLUMN_FRACTION = 0.25

#: Below this block size (live rows x num_nodes) a dense round is already
#: cheaper than the slicing overhead of a column-compacted one.
_SMALL_BLOCK = 65_536


class PushOperator:
    """Precomputed pieces of the push iteration for one adjacency.

    Building the row-stochastic transition is an O(nnz) sparse product;
    callers that sweep the same graph repeatedly (the subgraph builders, a
    1-node inference top-up) prepare it once and pass it to
    :func:`multi_source_ppr`.
    """

    def __init__(self, adjacency: sp.spmatrix) -> None:
        matrix = adjacency.tocsr()
        degrees = np.diff(matrix.indptr)
        inv = np.zeros(matrix.shape[0], dtype=np.float64)
        nonzero = degrees > 0
        inv[nonzero] = 1.0 / degrees[nonzero]
        self.num_nodes = matrix.shape[0]
        self.degrees = degrees
        self.dangling = degrees == 0
        self.transition = sp.diags(inv) @ matrix


def multi_source_ppr(  # oracle: approximate_ppr
    adjacency: sp.spmatrix,
    sources: Sequence[int],
    alpha: float = 0.15,
    epsilon: float = 1e-4,
    max_rounds: int = 1000,
    chunk_rows: Optional[int] = None,
    prepared: Optional[PushOperator] = None,
    stats: Optional[dict] = None,
) -> sp.csr_matrix:
    """Approximate PPR scores for many sources at once.

    Returns a CSR matrix of shape ``(len(sources), num_nodes)`` whose row
    ``i`` holds the push estimates for ``sources[i]`` (zero outside the
    touched neighbourhood, exactly like the sparse dict of the single-source
    method).  Pass a :class:`PushOperator` built from the same adjacency as
    ``prepared`` to skip the per-call transition setup.

    ``chunk_rows`` fixes the number of sources pushed together; ``None``
    selects the adaptive chunk policy described in the module docstring.
    Sources push independently, so any chunking gives bit-identical results.
    Pass a dict as ``stats`` to receive ``peak_block_floats`` (the largest
    residual+estimate block allocated, in float64 entries), ``rounds`` and
    the ``chunk_rows`` sequence actually used.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if chunk_rows is not None and chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive (or None for automatic)")
    operator = prepared if prepared is not None else PushOperator(adjacency)
    num_nodes = operator.num_nodes
    sources = np.asarray(list(sources), dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= num_nodes):
        raise ValueError("source node out of range")
    if stats is not None:
        # Full reset so a reused stats dict never mixes two calls' numbers.
        stats.update({"rounds": 0, "peak_block_floats": 0, "chunk_rows": []})
    if sources.size == 0:
        return sp.csr_matrix((0, num_nodes))

    thresholds = epsilon * np.maximum(operator.degrees, 1).astype(np.float64)
    adaptive = chunk_rows is None
    rows = (
        max(_START_CHUNK_ROWS, _BLOCK_BUDGET // (2 * num_nodes)) if adaptive else chunk_rows
    )
    blocks = []
    start = 0
    while start < sources.size:
        chunk = sources[start : start + rows]
        block, touched_columns = _push_chunk(
            operator.transition, operator.dangling, thresholds, chunk, alpha, max_rounds, stats
        )
        blocks.append(block)
        start += chunk.size
        if stats is not None:
            stats["chunk_rows"].append(int(chunk.size))
        if adaptive:
            if 2 * (2 * rows) * touched_columns <= _BLOCK_BUDGET:
                rows *= 2
            elif 2 * rows * touched_columns > _BLOCK_BUDGET:
                rows = max(rows // 2, _MIN_CHUNK_ROWS)
    return sp.vstack(blocks, format="csr") if len(blocks) > 1 else blocks[0]


def _bump_stats(stats: Optional[dict], block_floats: int) -> None:
    """Track the peak residual+estimate block size and the round count."""
    if stats is not None:
        stats["rounds"] += 1
        if block_floats > stats["peak_block_floats"]:
            stats["peak_block_floats"] = block_floats


def _push_chunk(
    transition: sp.csr_matrix,
    dangling: np.ndarray,
    thresholds: np.ndarray,
    sources: np.ndarray,
    alpha: float,
    max_rounds: int,
    stats: Optional[dict] = None,
) -> Tuple[sp.csr_matrix, int]:
    """Push one chunk of sources to convergence.

    Returns the chunk's score block plus its final touched-set size, which
    the adaptive chunk policy in :func:`multi_source_ppr` sizes the next
    chunk with.
    """
    num_nodes = transition.shape[0]
    full_width = 2 * sources.size * num_nodes <= _BLOCK_BUDGET
    touched = np.arange(num_nodes) if full_width else np.unique(sources)
    local_thresholds = thresholds[touched]
    # Dense rounds spread through the transposed transition; ``.T`` builds a
    # new CSC wrapper on every access, so build it once per chunk.
    spread_operator = transition.T

    # Rows are independent: once a source has no above-threshold residual it
    # is converged for good, so the working block shrinks as rows finish
    # (sources converge at very different speeds on real graphs).
    alive = np.arange(sources.size)
    live_sources = sources.copy()
    source_columns = np.searchsorted(touched, sources)
    residuals = np.zeros((sources.size, touched.size), dtype=np.float64)
    residuals[alive, source_columns] = 1.0
    estimates = np.zeros_like(residuals)
    has_dangling = bool(dangling.any())

    # Exact mask of the (local) columns holding at least one above-threshold
    # residual.  Column-compacted rounds update it for the columns they
    # change; after a dense round it is recomputed from scratch (None).
    column_active: Optional[np.ndarray] = np.zeros(touched.size, dtype=bool)
    column_active[source_columns] = 1.0 >= thresholds[sources]
    full_active: Optional[np.ndarray] = None

    # Converged rows' estimates: a dense block for a full-width chunk, and
    # (row, column, value) triplets for a compact one, whose memory must
    # follow the push's reach rather than its touched set.
    final = np.zeros_like(residuals) if full_width else None
    done_rows, done_columns, done_values = [], [], []

    def retire(done: np.ndarray) -> None:
        if final is not None:
            final[alive[done]] = estimates[done]
            return
        finished = estimates[done]
        nonzero = finished != 0.0
        row, column = np.nonzero(nonzero)
        done_rows.append(alive[done][row])
        done_columns.append(touched[column])
        done_values.append(finished[nonzero])

    for _ in range(max_rounds):
        if column_active is None:
            full_active = residuals >= local_thresholds[None, :]
            column_active = full_active.any(axis=0)
        columns = np.flatnonzero(column_active)
        if columns.size == 0:
            break
        _bump_stats(stats, 2 * alive.size * touched.size)
        dense = touched.size == num_nodes and (
            columns.size > _DENSE_COLUMN_FRACTION * num_nodes
            or alive.size * num_nodes < _SMALL_BLOCK
        )
        if dense:
            sub = residuals
            act = (
                full_active
                if full_active is not None
                else residuals >= local_thresholds[None, :]
            )
        else:
            sub = residuals[:, columns]
            act = sub >= local_thresholds[columns][None, :]
        full_active = None

        live = act.any(axis=1)
        if not live.all():
            retire(~live)
            alive, live_sources, residuals, estimates, act = (
                array[live] for array in (alive, live_sources, residuals, estimates, act)
            )
            if alive.size == 0:
                break
            sub = residuals if dense else sub[live]
        pushed = np.where(act, sub, 0.0)

        # Spread (1 - alpha) of the pushed mass uniformly over out-neighbours;
        # the row-stochastic transition encodes the 1/degree split.  A
        # compacted round spreads through the pushed columns' transition
        # rows, compacted to the destinations they can reach.
        if dense:
            estimates += alpha * pushed
            residuals -= pushed
            pushed_nodes = touched
            destinations = touched
            spread = (spread_operator @ pushed.T).T
        else:
            estimates[:, columns] += alpha * pushed
            residuals[:, columns] = sub - pushed
            pushed_nodes = touched[columns]
            transition_rows = transition[pushed_nodes]
            destinations = transition_rows.indices
            if has_dangling:
                destinations = np.concatenate([destinations, live_sources])
            destinations = np.unique(destinations)
            compact = sp.csr_matrix(
                (
                    transition_rows.data,
                    np.searchsorted(destinations, transition_rows.indices),
                    transition_rows.indptr,
                ),
                shape=(columns.size, destinations.size),
            )
            spread = (compact.T @ pushed.T).T
        if has_dangling:
            # Dangling nodes return their mass to the originating source.
            # The sum runs sequentially so that the compacted rounds (which
            # see only the pushed dangling columns) and any row count give
            # the same bits.
            returned = pushed[:, dangling[pushed_nodes]]
            if returned.shape[1]:
                spread[
                    np.arange(alive.size), np.searchsorted(destinations, live_sources)
                ] += np.cumsum(returned, axis=1)[:, -1]

        if dense:
            residuals += (1.0 - alpha) * spread
            column_active = None
            continue
        # Every active entry of a pushed column was pushed, so the column
        # stays active only if it receives mass back (it is then a target).
        column_active[columns] = False
        targets = destinations
        if touched.size < num_nodes:
            grown = np.setdiff1d(destinations, touched, assume_unique=True)
            if grown.size:
                if 2 * (touched.size + grown.size) >= num_nodes:
                    merged = np.arange(num_nodes)
                else:
                    merged = np.insert(touched, np.searchsorted(touched, grown), grown)
                relocate = np.searchsorted(merged, touched)
                residuals, estimates, column_active = (
                    _widen(array, relocate, merged.size)
                    for array in (residuals, estimates, column_active)
                )
                touched = merged
                local_thresholds = thresholds[touched]
            targets = np.searchsorted(touched, destinations)
        residuals[:, targets] += (1.0 - alpha) * spread
        column_active[targets] = (
            residuals[:, targets] >= local_thresholds[targets][None, :]
        ).any(axis=0)

    retire(np.ones(alive.size, dtype=bool))
    if final is not None:
        return sp.csr_matrix(final), num_nodes
    block = sp.csr_matrix(
        (
            np.concatenate(done_values),
            (np.concatenate(done_rows), np.concatenate(done_columns)),
        ),
        shape=(sources.size, num_nodes),
    )
    return block, int(touched.size)


def _widen(array: np.ndarray, relocate: np.ndarray, width: int) -> np.ndarray:
    """Copy ``array``'s last axis into positions ``relocate`` of a zero array
    ``width`` wide (the new touched columns are exact zeros)."""
    wider = np.zeros(array.shape[:-1] + (width,), dtype=array.dtype)
    wider[..., relocate] = array
    return wider
