"""Shard planner: partition a graph into halo-padded serving shards.

The cluster serving layer (:class:`repro.serving.cluster.ShardRouter`) runs
one :class:`repro.serving.DetectionService` per shard.  Each shard *owns* a
subset of centers (the nodes it may be asked to score) and carries a local
copy of the graph whose edges are restricted to its **closure** — the owned
nodes plus a halo of boundary neighbors — so subgraph construction never
reads edges the shard doesn't have.

The contract the planner guarantees is the serving bit-identity invariant,
extended to shards: scoring an owned center against the shard-local graph
must produce *exactly* the rows a single full-graph session would, at the
same batching.  Three properties make that hold, and :func:`plan_shards`
verifies the data-dependent ones instead of assuming a fixed halo depth is
enough:

1. **Embeddings** — shard graphs keep the full node space and a full copy
   of the feature matrix, so the preclassifier's hidden representations are
   computed from bitwise-identical input (no row slicing, no remapping).
2. **PPR equality** — for every relation, the push-PPR rows of every owned
   center on the shard-local symmetrized adjacency must equal the rows on
   the full symmetrized adjacency bit-for-bit.  A boundary node with a
   truncated neighbor list has a smaller local degree, which perturbs both
   the push threshold and the transition row; the halo exists to push that
   truncation beyond the reach of any owned center's push.
3. **Support containment** — the union of nonzero PPR columns of owned
   centers must lie inside the closure, so every top-k member set is a
   closure subset and the induced adjacency blocks
   (``adjacency[members][:, members]``) are identical locally and globally
   (the local graph keeps *every* edge incident to the closure).

Support containment bounds the halo from below before any local sweep
runs: the full-graph rows of a shard's owned centers are pushed once per
relation, and every halo narrower than the largest BFS hop distance in
their support would fail check 3.  So the planner computes each node's hop
distance from the owned set once, starts at that hop (or ``halo_hops``
when wider), and runs the full check there, reusing the cached full-graph
rows.  Only if the local rows still diverge does it widen by one hop and
re-check — terminating in the worst case when the closure covers every
node and the local graph degenerates to the full one.  The accepted halo
is the one a hop-by-hop search from ``halo_hops`` would accept, since
every skipped hop fails containment; a closure that already covers every
node is checked structurally and runs no sweep.

Ownership itself comes from :func:`repro.sampling.clustering.greedy_partition`
(the ClusterGCN-style BFS partitioner), which keeps most edges inside parts
so halos stay thin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.graph import HeteroGraph
from repro.ppr.batch import multi_source_ppr
from repro.sampling.clustering import greedy_partition


@dataclass
class ShardSpec:
    """One shard: owned centers, halo closure, and the local graph."""

    shard_id: int
    #: Sorted global ids of the centers this shard scores.
    owned: np.ndarray
    #: Sorted global ids of owned ∪ halo; the local graph keeps every edge
    #: incident to this set.
    closure: np.ndarray
    #: BFS hops of halo this shard needed to pass verification.
    halo_hops: int
    #: Full-node-space graph whose relations hold only closure-incident
    #: edges.  Node ids are global everywhere — no remapping.
    graph: HeteroGraph
    #: Membership mask over the full node space (``mask[closure] == True``).
    closure_mask: np.ndarray = field(repr=False, default=None)

    @property
    def num_owned(self) -> int:
        return int(self.owned.size)

    @property
    def halo_size(self) -> int:
        return int(self.closure.size - self.owned.size)


@dataclass
class ShardPlan:
    """Partition of a graph into verified serving shards."""

    num_shards: int
    #: ``ownership[node]`` is the shard id that scores ``node``.
    ownership: np.ndarray
    shards: List[ShardSpec]
    seed: int
    #: Planner parameters the verification ran with (from the detector
    #: config at routing time) — kept for re-verification after deltas.
    ppr_alpha: float = 0.15
    ppr_epsilon: float = 1e-4
    verified: bool = False
    #: Wall time of :func:`plan_shards`, verification included.
    plan_s: float = 0.0
    #: ``multi_source_ppr`` sweeps the plan-time verification ran.
    verify_sweeps: int = 0

    def shard_of(self, nodes: np.ndarray) -> np.ndarray:
        return self.ownership[nodes]

    def stats(self) -> Dict[str, object]:
        """JSON-friendly partition summary (sizes, halo widths, locality)."""
        return {
            "num_shards": self.num_shards,
            "seed": self.seed,
            "verified": self.verified,
            "plan_s": round(self.plan_s, 4),
            "verify_sweeps": self.verify_sweeps,
            "owned_sizes": [spec.num_owned for spec in self.shards],
            "halo_sizes": [spec.halo_size for spec in self.shards],
            "halo_hops": [spec.halo_hops for spec in self.shards],
            "local_edge_fractions": [
                round(
                    spec.graph.num_edges
                    / max(int(spec.graph.metadata.get("full_num_edges", 0)), 1),
                    4,
                )
                for spec in self.shards
            ],
        }

    def verify(self, graph: HeteroGraph) -> None:
        """Re-check the bit-identity contract of every shard against ``graph``.

        Raises :class:`ShardPlanError` on the first violated shard.  Used at
        plan time (via :func:`plan_shards`) and re-callable after streaming
        deltas to assert the halo still contains every owned center's push
        reach.
        """
        full_sym = _symmetrized_relations(graph)
        for spec in self.shards:
            reference = _ReferenceRows(
                full_sym, spec.owned, self.ppr_alpha, self.ppr_epsilon
            )
            failure = _verify_shard(spec, graph, reference)
            if failure is not None:
                raise ShardPlanError(
                    f"shard {spec.shard_id} violates the halo contract: {failure}"
                )


class ShardPlanError(RuntimeError):
    """A shard plan failed the bit-identity verification."""


#: Hop distance of a node no BFS from the owned set reaches.
_UNREACHED = np.iinfo(np.int64).max


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def _symmetrized_relations(graph: HeteroGraph) -> Dict[str, sp.csr_matrix]:
    """Per-relation symmetrized adjacency — exactly what the builders push on."""
    out: Dict[str, sp.csr_matrix] = {}
    for name in graph.relation_names:
        adjacency = graph.relation(name).adjacency()
        sym = (adjacency + adjacency.T).tocsr()
        sym.data[:] = 1.0
        out[name] = sym
    return out


def _hop_distances(merged: sp.csr_matrix, owned_mask: np.ndarray) -> np.ndarray:
    """BFS hop distance of every node from ``owned_mask`` (``_UNREACHED`` if none).

    The closure of halo width ``h`` is ``dist <= h``; it covers every node
    once ``h >= dist.max()``.
    """
    dist = np.full(owned_mask.size, _UNREACHED, dtype=np.int64)
    frontier = np.flatnonzero(owned_mask)
    dist[frontier] = 0
    hop = 0
    while frontier.size:
        hop += 1
        reached = np.unique(merged[frontier].indices)
        frontier = reached[dist[reached] == _UNREACHED]
        dist[frontier] = hop
    return dist


def _local_graph(
    graph: HeteroGraph, closure_mask: np.ndarray, shard_id: int
) -> HeteroGraph:
    """Full-node-space copy of ``graph`` keeping closure-incident edges only.

    Features/labels/masks are *copies*: each shard's session owns its
    feature matrix, so streaming feature deltas applied by one shard's
    dispatcher never race another shard's reads.
    """
    relations: Dict[str, tuple] = {}
    for name in graph.relation_names:
        rel = graph.relation(name)
        keep = closure_mask[rel.src] | closure_mask[rel.dst]
        relations[name] = (rel.src[keep].copy(), rel.dst[keep].copy())
    return HeteroGraph(
        num_nodes=graph.num_nodes,
        features=graph.features.copy(),
        labels=graph.labels.copy(),
        relations=relations,
        train_mask=graph.train_mask.copy(),
        val_mask=graph.val_mask.copy(),
        test_mask=graph.test_mask.copy(),
        name=f"{graph.name}-shard{shard_id}",
        metadata={
            **graph.metadata,
            "shard_id": shard_id,
            "full_num_edges": graph.num_edges,
        },
    )


class _ReferenceRows:
    """Full-graph push-PPR rows of one shard's owned centers, per relation.

    Each relation is swept at most once and the rows are reused at every
    halo width the shard is checked at; ``sweeps`` counts every sweep run
    through :meth:`sweep`, local ones included.
    """

    def __init__(
        self,
        full_sym: Dict[str, sp.csr_matrix],
        sources: np.ndarray,
        alpha: float,
        epsilon: float,
    ) -> None:
        self.full_sym = full_sym
        self.sources = sources
        self.alpha = alpha
        self.epsilon = epsilon
        self.rows: Dict[str, sp.csr_matrix] = {}
        self.sweeps = 0

    def sweep(self, adjacency: sp.csr_matrix) -> sp.csr_matrix:
        self.sweeps += 1
        return multi_source_ppr(
            adjacency, self.sources, alpha=self.alpha, epsilon=self.epsilon
        )

    def __getitem__(self, name: str) -> sp.csr_matrix:
        rows = self.rows.get(name)
        if rows is None:
            rows = self.rows[name] = self.sweep(self.full_sym[name])
        return rows


def _verify_shard(
    spec: ShardSpec, graph: HeteroGraph, reference: _ReferenceRows
) -> Optional[str]:
    """One shard's bit-identity check; returns a failure description or None.

    Per relation: (a) push-PPR rows of every owned center must be exactly
    equal on the local and the full symmetrized adjacency, and (b) the
    nonzero-column support of those rows must lie inside the closure.
    Equal rows + contained support imply equal candidate sets, equal top-k
    member sets, and equal induced adjacency blocks — the whole per-center
    subgraph pipeline, hence (with identical embeddings and weights) equal
    scores at equal batching.  The full-graph rows come from ``reference``,
    so checking one shard at several halo widths sweeps the full graph once.

    A closure covering every node keeps every edge in the original order,
    so the sweeps would compare a matrix with itself; such a shard is
    checked structurally instead — its local edge lists must equal the full
    graph's, which implies (a) and (b).
    """
    if spec.owned.size == 0:
        return None
    if spec.closure_mask.all():
        for name in graph.relation_names:
            full, local = graph.relation(name), spec.graph.relation(name)
            if not (
                np.array_equal(full.src, local.src) and np.array_equal(full.dst, local.dst)
            ):
                return f"saturated shard graph differs from the full graph on relation {name!r}"
        return None
    local_sym = _symmetrized_relations(spec.graph)
    for name in graph.relation_names:
        expected = reference[name]
        local = reference.sweep(local_sym[name])
        if (expected != local).nnz != 0:
            return f"PPR rows diverge on relation {name!r}"
        support = np.unique(expected.indices)
        if support.size and not spec.closure_mask[support].all():
            outside = int((~spec.closure_mask[support]).sum())
            return (
                f"PPR support escapes the closure on relation {name!r} "
                f"({outside} node(s) outside)"
            )
    return None


def _shard_spec(
    graph: HeteroGraph, shard_id: int, owned: np.ndarray, dist: np.ndarray, hops: int
) -> ShardSpec:
    closure_mask = dist <= hops
    return ShardSpec(
        shard_id=shard_id,
        owned=owned,
        closure=np.flatnonzero(closure_mask),
        halo_hops=hops,
        graph=_local_graph(graph, closure_mask, shard_id),
        closure_mask=closure_mask,
    )


def _verified_shard(
    graph: HeteroGraph,
    shard_id: int,
    owned: np.ndarray,
    dist: np.ndarray,
    halo_hops: int,
    max_halo_hops: int,
    reference: _ReferenceRows,
) -> ShardSpec:
    """The narrowest halo of at least ``halo_hops`` that passes verification.

    Every halo narrower than the largest hop distance in the full-graph
    support fails support containment, so the check starts there, capped
    at the width where widening gives up, and widens one hop per failure.
    The search for that start stops at the first relation whose support
    needs a saturated closure, which is checked structurally.
    """
    saturated_hops = int(dist.max(initial=0))
    hops = halo_hops
    if owned.size and hops < saturated_hops:
        for name in graph.relation_names:
            support = reference[name].indices
            if support.size:
                hops = max(hops, int(dist[support].max()))
            if hops >= saturated_hops:
                break
        # Widening hop by hop gives up at max_halo_hops (or at once, when the
        # start is wider), so the jump never lands past where it would fail.
        hops = min(hops, max(halo_hops, max_halo_hops))
    while True:
        spec = _shard_spec(graph, shard_id, owned, dist, hops)
        failure = _verify_shard(spec, graph, reference)
        if failure is None:
            return spec
        if hops >= max_halo_hops or hops >= saturated_hops:
            raise ShardPlanError(
                f"shard {shard_id} still fails at halo_hops={hops}: {failure}"
            )
        hops += 1


def plan_shards(  # oracle: _hop_by_hop_plan
    graph: HeteroGraph,
    num_shards: int,
    *,
    halo_hops: int = 1,
    ppr_alpha: float = 0.15,
    ppr_epsilon: float = 1e-4,
    seed: int = 0,
    verify: bool = True,
    max_halo_hops: int = 16,
) -> ShardPlan:
    """Partition ``graph`` into ``num_shards`` verified serving shards.

    ``ppr_alpha`` / ``ppr_epsilon`` must match the detector config the
    shards will serve with (:class:`ShardRouter` reads them from the
    artifact manifest) — the verification pushes with exactly those
    parameters.  ``halo_hops`` is the *starting* halo width; a shard whose
    owned centers' full-graph PPR support reaches further starts at the
    hop that support needs, and widens one hop per failed check up to
    ``max_halo_hops`` before the closure saturates to the full node set.
    The result is the plan a hop-by-hop search from ``halo_hops`` accepts.

    With ``verify=False`` the plan is built structurally only (useful for
    very large graphs where the operator has verified a representative
    sample); the bit-identity contract then rests on the chosen
    ``halo_hops`` alone and :meth:`ShardPlan.verify` can be run later.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if halo_hops < 0:
        raise ValueError("halo_hops must be non-negative")
    started = time.perf_counter()
    merged = graph.merged_adjacency(symmetric=True)
    ownership = greedy_partition(merged, num_shards, seed=seed)
    full_sym = _symmetrized_relations(graph) if verify else {}
    shards: List[ShardSpec] = []
    sweeps = 0
    for shard_id in range(num_shards):
        owned_mask = ownership == shard_id
        owned = np.flatnonzero(owned_mask)
        dist = _hop_distances(merged, owned_mask)
        if not verify:
            shards.append(_shard_spec(graph, shard_id, owned, dist, halo_hops))
            continue
        reference = _ReferenceRows(full_sym, owned, ppr_alpha, ppr_epsilon)
        shards.append(
            _verified_shard(
                graph, shard_id, owned, dist, halo_hops, max_halo_hops, reference
            )
        )
        sweeps += reference.sweeps
    return ShardPlan(
        num_shards=num_shards,
        ownership=ownership,
        shards=shards,
        seed=seed,
        ppr_alpha=ppr_alpha,
        ppr_epsilon=ppr_epsilon,
        verified=bool(verify),
        plan_s=time.perf_counter() - started,
        verify_sweeps=sweeps,
    )
