"""Subgraph containers, batching and the vectorized epoch engine.

A :class:`Subgraph` stores, for one start node, the selected node set and the
per-relation edges in *local* indices (position 0 is always the start node).
Merging several subgraphs into one block-diagonal batch is what lets the
heterogeneous GNN process a whole training batch in a single pass — the
"training in a batch manner" of Section III-F.  Two collation paths produce
that batch:

* :func:`collate_subgraphs` — the reference implementation.  It stacks
  per-subgraph CSR blocks one at a time and calls ``sp.block_diag`` per
  relation; simple, but a Python loop over subgraphs on every call.
* :func:`collate_many` — the vectorized epoch engine.  Each relation's
  normalized block is stored **once** as flat ``rowcounts``/``indices``/
  ``data`` arrays on the :class:`SubgraphStore` (a :class:`_CollationPack`);
  a batch is then assembled by a handful of segment gathers plus one
  ``cumsum`` for the block-diagonal ``indptr`` — no per-subgraph ``coo→csr``,
  no ``sp.block_diag``, no Python loop.  The two paths produce bit-identical
  :class:`SubgraphBatch` contents (equivalence-tested).

The pack itself is built vectorized too: :func:`_pack_relation` symmetrizes,
deduplicates and normalizes every new subgraph's edges of one relation in a
single ``np.unique`` pass, byte-identical to the per-subgraph
:meth:`Subgraph.normalized_relation_adjacency` reference.  The pack survives
invalidation — :meth:`SubgraphStore.discard` cuts the removed segments out
and appends extend it — so a serving store only ever packs the subgraphs it
rebuilt.

On top of the flat path, :meth:`SubgraphStore.collate` caches collated
batches across epochs keyed by the (sorted) center set, so fixed evaluation
batches — and any training batch whose membership recurs — skip re-assembly
entirely.  Cached batches are returned in canonical (sorted-center) order;
consumers that map outputs back to nodes use ``SubgraphBatch.center_nodes``.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.analysis.sanitizer import tracked_rlock
from repro.graph import HeteroGraph, normalized_adjacency
from repro.graph.homophily import node_homophily_ratios


@dataclass
class Subgraph:
    """One biased subgraph rooted at ``center`` (original node id)."""

    center: int
    nodes: np.ndarray  # original node ids; nodes[0] == center
    relation_edges: Dict[str, Tuple[np.ndarray, np.ndarray]]  # local indices

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        if self.nodes.size == 0 or self.nodes[0] != self.center:
            raise ValueError("nodes[0] must be the center node")

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    def num_edges(self, relation: Optional[str] = None) -> int:
        if relation is not None:
            src, _ = self.relation_edges.get(relation, (np.empty(0), np.empty(0)))
            return int(len(src))
        return sum(len(src) for src, _ in self.relation_edges.values())

    def relation_adjacency(self, relation: str) -> sp.csr_matrix:
        """Local CSR adjacency of one relation (unnormalised, directed)."""
        src, dst = self.relation_edges.get(
            relation, (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        )
        data = np.ones(len(src), dtype=np.float64)
        matrix = sp.coo_matrix(
            (data, (src, dst)), shape=(self.num_nodes, self.num_nodes)
        ).tocsr()
        matrix.data[:] = 1.0
        return matrix

    def normalized_relation_adjacency(self, relation: str) -> sp.csr_matrix:
        """Symmetric-normalised local adjacency, cached per relation.

        Collation re-uses each subgraph across many epochs, so caching the
        normalisation here removes the dominant cost of batch assembly.
        """
        cache = getattr(self, "_norm_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_norm_cache", cache)
        if relation not in cache:
            adjacency = self.relation_adjacency(relation)
            cache[relation] = normalized_adjacency(adjacency + adjacency.T, self_loops=True)
        return cache[relation]

    def center_homophily(self, labels: np.ndarray, relation: Optional[str] = None) -> float:
        """Homophily ratio of the center node inside this subgraph (Figure 8)."""
        labels = np.asarray(labels)
        local_labels = labels[self.nodes]
        if relation is None:
            adjacency = None
            for rel in self.relation_edges:
                rel_adj = self.relation_adjacency(rel)
                adjacency = rel_adj if adjacency is None else adjacency + rel_adj
            if adjacency is None:
                return float("nan")
        else:
            adjacency = self.relation_adjacency(relation)
        ratios = node_homophily_ratios(adjacency, local_labels)
        return float(ratios[0])


@dataclass
class SubgraphBatch:
    """Block-diagonal merge of several subgraphs, ready for the GNN."""

    features: np.ndarray
    relation_adjacencies: Dict[str, sp.csr_matrix]
    center_positions: np.ndarray
    center_nodes: np.ndarray
    labels: np.ndarray

    @property
    def num_centers(self) -> int:
        return int(self.center_positions.size)


def collate_subgraphs(
    subgraphs: Sequence[Subgraph],
    graph: HeteroGraph,
    normalize: bool = True,
) -> SubgraphBatch:
    """Merge subgraphs into one batch with block-diagonal adjacencies.

    Reference implementation: one Python iteration per subgraph plus one
    ``sp.block_diag`` per relation.  :func:`collate_many` is the vectorized
    equivalent used by the training hot path.
    """
    if not subgraphs:
        raise ValueError("cannot collate an empty list of subgraphs")
    relation_names = graph.relation_names
    feature_blocks: List[np.ndarray] = []
    center_positions = np.zeros(len(subgraphs), dtype=np.int64)
    center_nodes = np.zeros(len(subgraphs), dtype=np.int64)
    labels = np.zeros(len(subgraphs), dtype=np.int64)
    per_relation_blocks: Dict[str, List[sp.csr_matrix]] = {name: [] for name in relation_names}

    offset = 0
    for index, subgraph in enumerate(subgraphs):
        feature_blocks.append(graph.features[subgraph.nodes])
        center_positions[index] = offset
        center_nodes[index] = subgraph.center
        labels[index] = graph.labels[subgraph.center]
        for name in relation_names:
            if normalize:
                adjacency = subgraph.normalized_relation_adjacency(name)
            else:
                adjacency = subgraph.relation_adjacency(name)
            per_relation_blocks[name].append(adjacency)
        offset += subgraph.num_nodes

    features = np.concatenate(feature_blocks, axis=0)
    relation_adjacencies = {
        name: sp.block_diag(blocks, format="csr")
        for name, blocks in per_relation_blocks.items()
    }
    return SubgraphBatch(
        features=features,
        relation_adjacencies=relation_adjacencies,
        center_positions=center_positions,
        center_nodes=center_nodes,
        labels=labels,
    )


#: Placeholder features array for cached batch skeletons (features are
#: re-gathered from the graph on every cache hit).
_NO_FEATURES = np.empty((0, 0), dtype=np.float64)


def _as_node_array(nodes: Iterable[int]) -> np.ndarray:
    """Coerce ``nodes`` to a flat int64 array without a Python round-trip."""
    if isinstance(nodes, np.ndarray):
        return np.ascontiguousarray(nodes, dtype=np.int64).ravel()
    try:
        array = np.asarray(nodes, dtype=np.int64)
    except (TypeError, ValueError):
        array = np.fromiter((int(node) for node in nodes), dtype=np.int64)
    return array.ravel()


def _cumsum_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive-prefix offsets ``[0, c0, c0+c1, ...]`` of a count array."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _segment_gather(offsets: np.ndarray, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat gather indices selecting segment ``[offsets[p], offsets[p+1])``
    of a packed array for every ``p`` in ``positions`` (in order)."""
    counts = offsets[positions + 1] - offsets[positions]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    block_starts = np.cumsum(counts) - counts
    gather = np.arange(total, dtype=np.int64) + np.repeat(
        offsets[positions] - block_starts, counts
    )
    return gather, counts


def _pack_relation(  # oracle: normalized_relation_adjacency
    subgraphs: Sequence[Subgraph],
    relation: str,
    node_offsets: np.ndarray,
    normalize: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One relation's flat CSR blocks over ``subgraphs`` in one vectorized pass.

    Byte-identical to concatenating every subgraph's
    ``normalized_relation_adjacency(relation)`` block (``relation_adjacency``
    when ``normalize`` is false).  Local edges are shifted by their
    subgraph's node offset into one block-diagonal index space; the
    symmetrized, self-looped edge set ``(src,dst) ∪ (dst,src) ∪ (i,i)`` is
    deduplicated by a single ``np.unique`` over ``row * total + col``, which
    also yields CSR order (by row, then column).  The result is binary, so
    the GCN degree of a row is its nonzero count.  Returns ``(rowcounts,
    indices, data, nnz_counts)`` with ``indices`` local to each block.
    """
    total = int(node_offsets[-1])
    empty_i = np.empty(0, dtype=np.int64)
    if total == 0:
        return empty_i, empty_i, np.empty(0, dtype=np.float64), empty_i
    edges = [sg.relation_edges.get(relation, (empty_i, empty_i)) for sg in subgraphs]
    edge_counts = np.array([len(src) for src, _ in edges], dtype=np.int64)
    shift = np.repeat(node_offsets[:-1], edge_counts)
    src = np.concatenate([np.asarray(s, dtype=np.int64) for s, _ in edges]) + shift
    dst = np.concatenate([np.asarray(d, dtype=np.int64) for _, d in edges]) + shift
    if normalize:
        loops = np.arange(total, dtype=np.int64)
        src, dst = np.concatenate([src, dst, loops]), np.concatenate([dst, src, loops])
    rows, cols = np.divmod(np.unique(src * total + dst), total)
    rowcounts = np.bincount(rows, minlength=total)
    owner = np.repeat(np.arange(len(subgraphs)), np.diff(node_offsets))[rows]
    indices = cols - node_offsets[owner]
    nnz_counts = np.bincount(owner, minlength=len(subgraphs))
    if normalize:
        inv_sqrt = 1.0 / np.sqrt(rowcounts.astype(np.float64))
        data = inv_sqrt[rows] * inv_sqrt[cols]
    else:
        data = np.ones(rows.size, dtype=np.float64)
    return rowcounts, indices, data, nnz_counts


class _CollationPack:
    """Flat per-relation block arrays for every subgraph of a store.

    Holds, for each relation, the concatenated per-row nonzero counts,
    column indices (local, un-offset) and values of every stored subgraph's
    (normalized) adjacency block, plus the node-id segments.  Collating a
    batch is then a segment gather per array — the same trick that
    ``_induce_many`` uses for construction.  New subgraphs are packed by
    :func:`_pack_relation`; removed ones are cut out by :meth:`compact`.
    """

    __slots__ = ("centers", "node_counts", "node_offsets", "nodes_flat", "relations")

    def __init__(
        self,
        centers: np.ndarray,
        node_counts: np.ndarray,
        node_offsets: np.ndarray,
        nodes_flat: np.ndarray,
        relations: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        self.centers = centers
        self.node_counts = node_counts
        self.node_offsets = node_offsets
        self.nodes_flat = nodes_flat
        # name -> (rowcounts_flat, indices_flat, data_flat, nnz_offsets)
        self.relations = relations

    @property
    def num_subgraphs(self) -> int:
        return int(self.centers.size)

    @classmethod
    def build(
        cls,
        subgraphs: Sequence[Subgraph],
        relation_names: Sequence[str],
        normalize: bool,
        base: Optional["_CollationPack"] = None,
    ) -> "_CollationPack":
        """Flatten ``subgraphs``; when ``base`` covers a prefix (the store
        only grew), its arrays are reused so only new subgraphs are packed."""
        relation_names = list(relation_names)
        centers = np.array([sg.center for sg in subgraphs], dtype=np.int64)
        start = 0
        if (
            base is not None
            and 0 < base.num_subgraphs <= centers.size
            and list(base.relations) == relation_names
            and np.array_equal(base.centers, centers[: base.num_subgraphs])
        ):
            start = base.num_subgraphs
        tail = list(subgraphs)[start:]

        empty_i = np.empty(0, dtype=np.int64)
        tail_counts = np.array([sg.num_nodes for sg in tail], dtype=np.int64)
        tail_nodes = np.concatenate([sg.nodes for sg in tail]) if tail else empty_i
        tail_offsets = _cumsum_offsets(tail_counts)
        if start:
            node_counts = np.concatenate([base.node_counts, tail_counts])
            nodes_flat = np.concatenate([base.nodes_flat, tail_nodes])
        else:
            node_counts, nodes_flat = tail_counts, tail_nodes

        relations: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        for name in relation_names:
            rowcounts, indices, data, nnz_counts = _pack_relation(
                tail, name, tail_offsets, normalize
            )
            if start:
                base_rows, base_idx, base_data, base_off = base.relations[name]
                rowcounts = np.concatenate([base_rows, rowcounts])
                indices = np.concatenate([base_idx, indices])
                data = np.concatenate([base_data, data])
                nnz_counts = np.concatenate([np.diff(base_off), nnz_counts])
            relations[name] = (rowcounts, indices, data, _cumsum_offsets(nnz_counts))
        return cls(centers, node_counts, _cumsum_offsets(node_counts), nodes_flat, relations)

    def compact(self, keep: np.ndarray) -> "_CollationPack":
        """The pack restricted to the subgraphs at positions ``keep`` (in
        order) — one segment gather per array, nothing re-normalized."""
        node_gather, node_counts = _segment_gather(self.node_offsets, keep)
        relations = {}
        for name, (rowcounts, indices, data, nnz_offsets) in self.relations.items():
            edge_gather, nnz_counts = _segment_gather(nnz_offsets, keep)
            relations[name] = (
                rowcounts[node_gather],
                indices[edge_gather],
                data[edge_gather],
                _cumsum_offsets(nnz_counts),
            )
        return _CollationPack(
            self.centers[keep],
            node_counts,
            _cumsum_offsets(node_counts),
            self.nodes_flat[node_gather],
            relations,
        )


def _collate_flat(
    store: "SubgraphStore",
    nodes: Sequence[int],
    normalize: bool,
) -> Tuple[SubgraphBatch, np.ndarray]:
    """Flat collation returning the batch plus its gathered node ids
    (the node ids let the batch cache re-derive features on a hit instead
    of holding a dense per-batch copy)."""
    positions = store.positions_of(nodes)
    if positions.size == 0:
        raise ValueError("cannot collate an empty list of subgraphs")
    graph = store.graph
    pack = store._collation_pack(normalize)

    node_gather, counts = _segment_gather(pack.node_offsets, positions)
    batch_nodes = pack.nodes_flat[node_gather]
    block_offsets = np.cumsum(counts) - counts
    total_nodes = int(counts.sum())
    features = graph.features[batch_nodes]

    relation_adjacencies: Dict[str, sp.csr_matrix] = {}
    for name, (rowcounts, indices_flat, data_flat, nnz_offsets) in pack.relations.items():
        edge_gather, nnz_counts = _segment_gather(nnz_offsets, positions)
        indices = indices_flat[edge_gather] + np.repeat(block_offsets, nnz_counts)
        indptr = np.zeros(total_nodes + 1, dtype=np.int64)
        np.cumsum(rowcounts[node_gather], out=indptr[1:])
        relation_adjacencies[name] = sp.csr_matrix(
            (data_flat[edge_gather], indices, indptr),
            shape=(total_nodes, total_nodes),
        )

    center_nodes = pack.centers[positions]
    batch = SubgraphBatch(
        features=features,
        relation_adjacencies=relation_adjacencies,
        center_positions=block_offsets,
        center_nodes=center_nodes,
        labels=np.asarray(graph.labels[center_nodes], dtype=np.int64),
    )
    return batch, batch_nodes


def collate_many(  # oracle: collate_subgraphs
    store: "SubgraphStore",
    nodes: Sequence[int],
    normalize: bool = True,
) -> SubgraphBatch:
    """Flat block-diagonal collation of the stored subgraphs for ``nodes``.

    Produces a batch bit-identical to
    ``collate_subgraphs(store.subgraphs(nodes), store.graph, normalize)`` —
    same features, same per-relation ``indptr``/``indices``/``data``, same
    center positions and labels — but assembles each relation directly from
    the store's flat arrays: a segment gather for ``indices``/``data``, a
    block-offset add, and one ``cumsum`` for ``indptr``.
    """
    batch, _ = _collate_flat(store, nodes, normalize)
    return batch


class SubgraphStore:
    """Cache of constructed subgraphs keyed by center node.

    Subgraph construction happens once per node (Section III-F: "for each
    node in the training set, we perform the subgraph construction, and store
    the constructed subgraphs"); training epochs then draw batches from the
    store without touching the full graph again.  The store also owns the two
    epoch-engine caches:

    * a :class:`_CollationPack` per ``normalize`` flag — every subgraph's
      (normalized) relation blocks as flat arrays, built once in one
      vectorized pass, extended incrementally when subgraphs are appended
      and compacted when they are discarded;
    * a bounded LRU cache of collated batches keyed by the sorted center
      set, so recurring batch memberships (fixed evaluation batches, small
      training splits) skip assembly entirely.

    The store is safe under concurrent readers and writers: one reentrant
    lock serializes every operation that touches the subgraph dict, the
    flat packs, the center index, or the batch LRU, so concurrent
    :meth:`collate` calls (the serving micro-batcher, multithreaded
    scorers) are bit-identical to running the same calls serially.
    """

    def __init__(self, graph: HeteroGraph, cache_capacity: int = 128) -> None:
        self.graph = graph
        self._lock = tracked_rlock("SubgraphStore._lock")
        self._store: Dict[int, Subgraph] = {}
        self._packs: Dict[bool, _CollationPack] = {}
        self._center_index: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # key -> (batch skeleton without features, gathered node ids)
        self._batch_cache: "OrderedDict[Tuple[bool, bytes], Tuple[SubgraphBatch, np.ndarray]]" = (
            OrderedDict()
        )
        self.cache_capacity = cache_capacity
        self.cache_hits = 0
        self.cache_misses = 0
        #: Number of subgraphs ever inserted (including replacements and
        #: disk loads).  Serving-path instrumentation: the delta across a
        #: ``score_nodes`` call is exactly how many subgraphs were (re)built.
        self.build_count = 0

    def __contains__(self, node: int) -> bool:
        with self._lock:
            return int(node) in self._store

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def add(self, subgraph: Subgraph) -> None:
        with self._lock:
            center = int(subgraph.center)
            if center in self._store:
                # Replacing a subgraph invalidates every derived structure;
                # appends keep the packs, which then extend incrementally.
                self._packs = {}
                self._batch_cache.clear()
            self._store[center] = subgraph
            self._center_index = None
            self.build_count += 1

    def __getstate__(self):
        # Locks are not picklable; a transported store gets a fresh one.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = tracked_rlock("SubgraphStore._lock")

    def get(self, node: int) -> Subgraph:
        with self._lock:
            return self._store[int(node)]

    def nodes(self) -> List[int]:
        with self._lock:
            return list(self._store.keys())

    def subgraphs(self, nodes: Optional[Iterable[int]] = None) -> List[Subgraph]:
        with self._lock:
            if nodes is None:
                return list(self._store.values())
            return [self._store[int(node)] for node in nodes]

    # ------------------------------------------------------------------
    # Vectorized center -> subgraph lookup
    # ------------------------------------------------------------------
    def positions_of(self, nodes: Iterable[int]) -> np.ndarray:
        """Insertion-order positions of ``nodes`` in the store (vectorized).

        Raises :class:`KeyError` (like a dict lookup would) when any center
        is missing.
        """
        nodes = _as_node_array(nodes)
        with self._lock:
            if self._center_index is None:
                centers = np.fromiter(
                    self._store.keys(), dtype=np.int64, count=len(self._store)
                )
                order = np.argsort(centers, kind="stable").astype(np.int64)
                self._center_index = (centers[order], order)
            sorted_centers, order = self._center_index
        if nodes.size == 0:
            return np.empty(0, dtype=np.int64)
        if sorted_centers.size == 0:
            raise KeyError(int(nodes[0]))
        found = np.minimum(
            np.searchsorted(sorted_centers, nodes), sorted_centers.size - 1
        )
        mismatch = sorted_centers[found] != nodes
        if mismatch.any():
            raise KeyError(int(nodes[np.argmax(mismatch)]))
        return order[found]

    # ------------------------------------------------------------------
    # Targeted invalidation (streaming / online detection)
    # ------------------------------------------------------------------
    def affected_centers(self, nodes: Iterable[int]) -> np.ndarray:
        """Centers whose stored subgraph contains any of ``nodes``.

        This is the invalidation set for a graph mutation touching ``nodes``
        (new edge endpoints, feature updates): a stored subgraph is treated
        as stale when one of the touched nodes is a member.  That is an
        approximation — a mutation can shift PPR mass or similarity rankings
        enough to alter the ideal top-k of a center whose stored subgraph
        contains no touched node; exact invalidation would widen to the
        mutation's PPR reach.  One vectorized membership pass over the
        packed node-id arrays — no per-subgraph Python loop.
        """
        nodes = _as_node_array(nodes)
        with self._lock:
            if nodes.size == 0 or not self._store:
                return np.empty(0, dtype=np.int64)
            # A current collation pack already holds every subgraph's node ids
            # as one flat array (in insertion order); reuse it instead of
            # re-concatenating the whole store on every streaming update.
            pack = next(
                (p for p in self._packs.values() if p.num_subgraphs == len(self._store)),
                None,
            )
            if pack is not None:
                counts, flat, centers = pack.node_counts, pack.nodes_flat, pack.centers
            else:
                subgraphs = list(self._store.values())
                counts = np.array([sg.num_nodes for sg in subgraphs], dtype=np.int64)
                flat = np.concatenate([sg.nodes for sg in subgraphs])
                centers = np.array([sg.center for sg in subgraphs], dtype=np.int64)
        hits = np.isin(flat, nodes)
        if not hits.any():
            return np.empty(0, dtype=np.int64)
        owners = np.repeat(np.arange(counts.size), counts)[hits]
        return centers[np.unique(owners)]

    def discard(self, centers: Iterable[int]) -> int:
        """Drop the stored subgraphs for ``centers`` (missing ones ignored).

        The flat collation packs are compacted, not dropped: the removed
        segments are cut out by one segment gather over the surviving
        positions, so the survivors stay packed and the rebuilt centers are
        later appended through the incremental path.  The collated-batch
        cache is cleared (its batches may hold removed subgraphs).
        """
        removed = []
        with self._lock:
            for center in _as_node_array(centers):
                if self._store.pop(int(center), None) is not None:
                    removed.append(int(center))
            if removed:
                gone = np.array(removed, dtype=np.int64)
                for normalize, pack in list(self._packs.items()):
                    keep = np.flatnonzero(~np.isin(pack.centers, gone))
                    if keep.size < pack.num_subgraphs:
                        self._packs[normalize] = pack.compact(keep)
                self._batch_cache.clear()
                self._center_index = None
        return len(removed)

    def invalidate_nodes(self, nodes: Iterable[int]) -> int:
        """Discard every subgraph containing any of ``nodes``; return count."""
        return self.discard(self.affected_centers(nodes))

    def clear_caches(self) -> None:
        """Drop the collated-batch cache and flat packs (subgraphs are kept).

        Deterministic memory release for long-lived serving processes
        (:meth:`repro.api.DetectionSession.close`); the caches repopulate
        lazily on the next collation.
        """
        with self._lock:
            self._batch_cache.clear()
            self._packs = {}

    def _collation_pack(self, normalize: bool) -> _CollationPack:
        """Flat collation arrays, built lazily and kept current.

        Appends extend the existing pack (only the new subgraphs are packed,
        vectorized) and :meth:`discard` compacts it, so after an invalidation
        only the rebuilt centers are packed.  A full build happens only when
        no pack exists yet (first collation, :meth:`clear_caches`, a store
        loaded without one) or after a replacing :meth:`add`.
        """
        with self._lock:
            pack = self._packs.get(normalize)
            relation_names = list(self.graph.relation_names)
            if (
                pack is not None
                and pack.num_subgraphs == len(self._store)
                and list(pack.relations) == relation_names
            ):
                return pack
            pack = _CollationPack.build(
                list(self._store.values()), relation_names, normalize, base=pack
            )
            self._packs[normalize] = pack
            return pack

    def has_collation_pack(self, normalize: bool = True) -> bool:
        """True when the flat arrays for ``normalize`` are built and current."""
        with self._lock:
            pack = self._packs.get(normalize)
            return pack is not None and pack.num_subgraphs == len(self._store)

    # ------------------------------------------------------------------
    # Cross-epoch collated-batch cache
    # ------------------------------------------------------------------
    def collate(
        self,
        nodes: Iterable[int],
        normalize: bool = True,
        use_cache: bool = True,
    ) -> SubgraphBatch:
        """Collated batch for ``nodes`` in canonical (sorted-center) order.

        The batch is cached keyed by the sorted center set, so any request
        with the same membership — a fixed evaluation batch, a re-shuffled
        training batch — skips re-assembly.  Cache entries hold the
        assembled adjacencies plus the gathered node ids, not the dense
        feature block: features are re-gathered from ``graph.features`` on
        every hit (one fancy index, a fraction of assembly cost), which
        keeps the cache's memory footprint independent of feature width.
        Because the order is canonicalized, callers that map per-center
        outputs back to nodes must index through ``batch.center_nodes``.

        Safe under concurrent callers: the cache lookup, the flat assembly
        and the cache insert run under the store lock, so two threads
        requesting the same membership serve one assembly and identical
        batches.
        """
        nodes = np.sort(_as_node_array(nodes))
        with self._lock:
            if not use_cache or self.cache_capacity <= 0:
                return collate_many(self, nodes, normalize=normalize)
            key = (normalize, nodes.tobytes())
            cached = self._batch_cache.get(key)
            if cached is not None:
                self._batch_cache.move_to_end(key)
                self.cache_hits += 1
                batch, batch_nodes = cached
                return SubgraphBatch(
                    features=self.graph.features[batch_nodes],
                    relation_adjacencies=batch.relation_adjacencies,
                    center_positions=batch.center_positions,
                    center_nodes=batch.center_nodes,
                    labels=batch.labels,
                )
            batch, batch_nodes = _collate_flat(self, nodes, normalize)
            self.cache_misses += 1
            self._batch_cache[key] = (
                SubgraphBatch(
                    features=_NO_FEATURES,
                    relation_adjacencies=batch.relation_adjacencies,
                    center_positions=batch.center_positions,
                    center_nodes=batch.center_nodes,
                    labels=batch.labels,
                ),
                batch_nodes,
            )
            while len(self._batch_cache) > self.cache_capacity:
                self._batch_cache.popitem(last=False)
            return batch

    def batches(
        self,
        nodes: Sequence[int],
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        normalize: bool = True,
        use_cache: bool = True,
    ) -> Iterable[SubgraphBatch]:
        """Yield collated batches over ``nodes`` (shuffled when rng given).

        Batch *membership* follows the (optionally shuffled) node order;
        each batch itself is served through :meth:`collate`, i.e. in
        canonical sorted-center order and cached across epochs.
        """
        nodes = _as_node_array(nodes)
        if rng is not None:
            nodes = rng.permutation(nodes)
        for start in range(0, nodes.size, batch_size):
            yield self.collate(
                nodes[start : start + batch_size],
                normalize=normalize,
                use_cache=use_cache,
            )

    # ------------------------------------------------------------------
    # Disk serialization — lets experiment scripts reuse a store instead of
    # rebuilding the same subgraphs for every figure/table.
    # ------------------------------------------------------------------
    def save(self, path, include_normalized: bool = True) -> None:
        """Serialize all stored subgraphs to one ``.npz`` file.

        The ragged per-subgraph arrays are packed as flat data + offset
        arrays, so the file round-trips through plain ``np.savez`` without
        pickling.  The normalized collation pack is persisted alongside the
        raw edges (unless ``include_normalized=False``), so a loaded store
        starts its first epoch without re-normalizing anything.
        """
        with self._lock:
            subgraphs = list(self._store.values())
        relation_names = sorted({name for sg in subgraphs for name in sg.relation_edges})
        empty = np.empty(0, dtype=np.int64)

        def pack(arrays: List[np.ndarray]):
            offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
            if arrays:
                offsets[1:] = np.cumsum([a.size for a in arrays])
            data = np.concatenate(arrays) if arrays else empty
            return data.astype(np.int64), offsets

        payload: Dict[str, np.ndarray] = {
            "centers": np.array([sg.center for sg in subgraphs], dtype=np.int64),
            "relation_names": np.array(relation_names, dtype=np.str_),
        }
        payload["nodes"], payload["node_offsets"] = pack([sg.nodes for sg in subgraphs])
        for index, name in enumerate(relation_names):
            edges = [
                sg.relation_edges.get(name, (empty, empty)) for sg in subgraphs
            ]
            payload[f"src_{index}"], payload[f"edge_offsets_{index}"] = pack(
                [np.asarray(src) for src, _ in edges]
            )
            payload[f"dst_{index}"], _ = pack([np.asarray(dst) for _, dst in edges])
        if include_normalized and subgraphs:
            norm = self._collation_pack(True)
            payload["norm_relation_names"] = np.array(list(norm.relations), dtype=np.str_)
            for index, (rowcounts, indices, data, offsets) in enumerate(
                norm.relations.values()
            ):
                payload[f"norm_rowcounts_{index}"] = rowcounts
                payload[f"norm_indices_{index}"] = indices
                payload[f"norm_data_{index}"] = data
                payload[f"norm_offsets_{index}"] = offsets
        # Write-then-rename so an interrupted save never leaves a truncated
        # archive behind for later runs to choke on.
        path = Path(path)
        temporary = path.with_name(path.name + ".tmp.npz")
        with open(temporary, "wb") as handle:
            np.savez_compressed(handle, **payload)
        os.replace(temporary, path)

    @classmethod
    def load(cls, path, graph: HeteroGraph) -> "SubgraphStore":
        """Rebuild a store saved with :meth:`save` against ``graph``.

        Files written by newer :meth:`save` calls carry the normalized
        collation pack; it is restored directly so the first training epoch
        does not pay for re-normalization.  Older files (without the pack)
        still load — the pack is then rebuilt lazily on first collation.
        """
        with np.load(path) as payload:
            centers = payload["centers"]
            relation_names = [str(name) for name in payload["relation_names"]]
            nodes_flat, node_offsets = payload["nodes"], payload["node_offsets"]
            edge_data = {
                name: (
                    payload[f"src_{index}"],
                    payload[f"dst_{index}"],
                    payload[f"edge_offsets_{index}"],
                )
                for index, name in enumerate(relation_names)
            }
            store = cls(graph)
            for row, center in enumerate(centers):
                nodes = nodes_flat[node_offsets[row] : node_offsets[row + 1]]
                relation_edges = {}
                for name, (src, dst, offsets) in edge_data.items():
                    lo, hi = offsets[row], offsets[row + 1]
                    relation_edges[name] = (src[lo:hi].copy(), dst[lo:hi].copy())
                store.add(
                    Subgraph(center=int(center), nodes=nodes.copy(), relation_edges=relation_edges)
                )
            if "norm_relation_names" in payload:
                relations = {
                    str(name): (
                        payload[f"norm_rowcounts_{index}"],
                        payload[f"norm_indices_{index}"],
                        payload[f"norm_data_{index}"],
                        payload[f"norm_offsets_{index}"],
                    )
                    for index, name in enumerate(payload["norm_relation_names"])
                }
                node_counts = np.diff(node_offsets).astype(np.int64)
                store._packs[True] = _CollationPack(
                    centers=np.asarray(centers, dtype=np.int64),
                    node_counts=node_counts,
                    node_offsets=np.asarray(node_offsets, dtype=np.int64),
                    nodes_flat=np.asarray(nodes_flat, dtype=np.int64),
                    relations=relations,
                )
        return store

    def average_center_homophily(self, label_filter: Optional[int] = None) -> float:
        """Mean center-node homophily over stored subgraphs (Figure 8)."""
        labels = self.graph.labels
        values = []
        with self._lock:
            subgraphs = list(self._store.values())
        for subgraph in subgraphs:
            if label_filter is not None and labels[subgraph.center] != label_filter:
                continue
            ratio = subgraph.center_homophily(labels)
            if not np.isnan(ratio):
                values.append(ratio)
        return float(np.mean(values)) if values else float("nan")
