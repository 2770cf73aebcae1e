"""Serve-many detection sessions: incremental scoring over a live graph.

A :class:`DetectionSession` wraps a fitted (or artifact-loaded) detector and
one graph, and exposes the serving workload the experiment scripts never
needed:

* :meth:`DetectionSession.score_nodes` — probabilities for an arbitrary node
  subset.  Only the requested centers' subgraphs are built; everything
  already in the store (or the collated-batch LRU) is reused.
* :meth:`DetectionSession.update_graph` — apply a streaming graph mutation
  (new edges, changed node features) and invalidate **only** the stored
  subgraphs that contain a touched node.  The next ``score_nodes`` call
  rebuilds exactly those; untouched entries are served from cache.
* :meth:`DetectionSession.close` — deterministically release the collation
  caches and the shared construction process pool (also available as a
  context manager).

.. code-block:: python

    with DetectionSession(detector, graph) as session:
        probabilities = session.score_nodes([17, 42, 108])
        session.update_graph(edges_added={"followers": ([17], [42])})
        probabilities = session.score_nodes([17, 42, 108])  # 17/42 rebuilt only
"""

from __future__ import annotations

import inspect
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.sanitizer import tracked_rlock
from repro.core.base import BotDetector
from repro.graph import HeteroGraph
from repro.sampling.biased import shutdown_shared_pool
from repro.tensor.replay import ReplayEngine, replay_enabled


def validate_edge_additions(
    graph: HeteroGraph,
    edges_added: Optional[Mapping[str, Tuple[Iterable[int], Iterable[int]]]],
) -> list:
    """Validate and normalize an ``edges_added`` mapping against ``graph``.

    Returns ``[(relation, src, dst)]`` with flat ``int64`` endpoint arrays;
    raises (``KeyError`` for an unknown relation, ``ValueError`` for
    mismatched or out-of-range endpoints) without mutating anything.  The
    single source of truth for edge-delta validation — shared by
    :meth:`DetectionSession.update_graph`'s atomic path and the serving
    :class:`repro.serving.DeltaLog`'s append-time validation, so the two
    can never drift apart.
    """
    additions = []
    num_nodes = graph.num_nodes
    for relation, (src, dst) in (edges_added or {}).items():
        if relation not in graph.relations:
            raise KeyError(
                f"unknown relation {relation!r}; options: {graph.relation_names}"
            )
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError(f"src and dst for {relation!r} must have the same length")
        for endpoint in (src, dst):
            if endpoint.size and (endpoint.min() < 0 or endpoint.max() >= num_nodes):
                raise ValueError(f"edge endpoint out of range for {relation!r}")
        additions.append((relation, src, dst))
    return additions


def validate_feature_rows(
    graph: HeteroGraph,
    features_changed: Optional[Mapping[int, Iterable[float]]],
) -> Dict[int, np.ndarray]:
    """Validate and normalize a ``features_changed`` mapping against ``graph``.

    Returns ``{node: row}`` with rows coerced to the graph's feature dtype;
    raises ``ValueError`` for an out-of-range node or a row of the wrong
    width, without mutating anything.  Companion of
    :func:`validate_edge_additions`, shared by
    :meth:`DetectionSession.apply_delta` and the serving delta log.
    """
    rows: Dict[int, np.ndarray] = {}
    num_nodes = graph.num_nodes
    width = graph.num_features
    for node, row in (features_changed or {}).items():
        node = int(node)
        if not 0 <= node < num_nodes:
            raise ValueError(f"feature node {node} out of range")
        row = np.asarray(row, dtype=graph.features.dtype).ravel()
        if row.size != width:
            raise ValueError(
                f"feature row for node {node} has width {row.size}, graph has {width}"
            )
        rows[node] = row
    return rows


class DetectionSession:
    """Stateful facade binding one detector to one graph for serving.

    Safe under concurrent callers: scoring, updates, and close are
    serialized by one reentrant lock, so interleaved threads observe
    results bit-identical to some serial order of their calls.  For
    coalescing concurrent traffic into shared batches (rather than merely
    surviving it), see :class:`repro.serving.DetectionService`.
    """

    def __init__(
        self,
        detector: BotDetector,
        graph: HeteroGraph,
        use_replay: Optional[bool] = None,
    ) -> None:
        # BSG4Bot and the GNN baselines keep their trained net in ``model``;
        # the feature-only baselines in ``classifier``.  Either being set
        # means fit/load has happened.
        fitted = any(
            getattr(detector, attribute, None) is not None
            for attribute in ("model", "classifier")
        )
        if not fitted:
            raise RuntimeError(
                "DetectionSession requires a fitted or artifact-loaded detector"
            )
        self.detector = detector
        self.graph = graph
        self._closed = False
        # Serializes scoring, updates, and close across threads.  Scoring is
        # deterministic given the store contents, so interleaved concurrent
        # callers get results bit-identical to any serial order; the lock is
        # what makes the store top-up / builder refresh / model forward
        # sequence atomic per call.  Concurrency-driven *throughput* comes
        # from coalescing requests (``repro.serving.MicroBatcher``), not from
        # racing the model.
        self._lock = tracked_rlock("DetectionSession._lock")
        # Whether detector.invalidate_nodes accepts the per-relation refresh
        # kwargs — resolved once (signature introspection is not free and the
        # answer is constant per session).
        self._invalidate_takes_relations: Optional[bool] = None
        # Cached full predict_proba for detectors without a subset path,
        # dropped whenever update_graph mutates anything.
        self._fallback_probabilities: Optional[np.ndarray] = None
        # Capture-and-replay inference engine (repro.tensor.replay).  One
        # engine per session — its replay buffers are mutable and must never
        # be shared across sessions; every use happens under self._lock.
        # ``use_replay`` defaults to on, the REPRO_REPLAY=0 environment
        # variable (or use_replay=False) keeps the engine in its
        # always-eager mode, which still times the model forward so replay
        # and eager deployments report comparable model_time metrics.
        if use_replay is None:
            use_replay = replay_enabled()
        self._use_replay = bool(use_replay)
        self._replay_engine = None
        # Whether detector.predict_proba_nodes accepts the engine kwarg —
        # resolved once, same pattern as _invalidate_takes_relations.
        self._subset_takes_engine: Optional[bool] = None
        self._replay_stats: Dict[str, float] = {
            "model_s": 0.0,
            "replay_hits": 0,
            "replay_misses": 0,
            "replay_evictions": 0,
        }
        current = getattr(detector, "graph", None)
        if current is not graph:
            # Point the detector at this session's graph.  BSG4Bot resets its
            # store/builder for a new graph (the transfer path); full-graph
            # baselines simply predict on the session graph; subset scorers
            # without a transfer hook (the plugin detectors) are pinned to
            # their training graph and must refuse a different one.
            prepare = getattr(detector, "_prepare_transfer_graph", None)
            if prepare is not None:
                prepare(graph)
            elif current is not None and hasattr(detector, "predict_proba_nodes"):
                raise ValueError(
                    f"{type(detector).__name__} is bound to graph {current.name!r} "
                    "and cannot serve a different graph"
                )

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("DetectionSession is closed")

    @property
    def store(self):
        """The detector's subgraph store, if it keeps one (else ``None``)."""
        return getattr(self.detector, "store", None)

    @property
    def build_count(self) -> int:
        """Total subgraphs built so far (serving-path instrumentation)."""
        store = self.store
        return int(store.build_count) if store is not None else 0

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_nodes(self, node_ids: Iterable[int]) -> np.ndarray:
        """Bot probabilities for ``node_ids`` (rows follow the given order).

        Routes through the detector's node-subset path when it has one
        (BSG4Bot and the plugin detectors build/collate subgraphs only for
        the requested centers); full-graph baselines fall back to slicing
        their full prediction.
        """
        nodes = np.asarray(list(node_ids) if not isinstance(node_ids, np.ndarray) else node_ids)
        nodes = nodes.astype(np.int64).ravel()
        with self._lock:
            self._check_open()
            if nodes.size and (nodes.min() < 0 or nodes.max() >= self.graph.num_nodes):
                raise ValueError("node id out of range for the session graph")
            if nodes.size == 0:
                return np.zeros((0, 2))
            subset = getattr(self.detector, "predict_proba_nodes", None)
            if subset is not None:
                engine = self._resolve_engine_locked(subset)
                if engine is None:
                    return subset(nodes)
                probabilities = subset(nodes, engine=engine)
                stats = engine.consume_stats()
                for key, value in stats.items():
                    self._replay_stats[key] += value
                return probabilities
            # Full-graph detectors have no subset path; compute the whole
            # probability matrix once and serve slices until the graph changes.
            if self._fallback_probabilities is None:
                self._fallback_probabilities = self.detector.predict_proba(self.graph)
            return self._fallback_probabilities[nodes]

    def _resolve_engine_locked(self, subset) -> Optional["ReplayEngine"]:
        """The session's replay engine, created lazily (lock held by caller).

        Returns ``None`` when the detector's subset path cannot take an
        engine.  With replay disabled the engine still exists but stays in
        its always-eager mode (it then only times the forward pass).
        """
        if self._subset_takes_engine is None:
            self._subset_takes_engine = "engine" in inspect.signature(subset).parameters
        if not self._subset_takes_engine:
            return None
        if self._replay_engine is None:
            self._replay_engine = ReplayEngine(capture=self._use_replay)
        return self._replay_engine

    def consume_replay_stats(self) -> Dict[str, float]:
        """Return and reset model-forward counters since the last call.

        Keys: ``model_s`` (seconds spent in the model forward, replayed or
        eager), ``replay_hits`` / ``replay_misses`` / ``replay_evictions``.
        The serving wave loop drains this after each wave to feed
        ``ServingMetrics``.
        """
        with self._lock:
            stats = self._replay_stats
            self._replay_stats = {
                "model_s": 0.0,
                "replay_hits": 0,
                "replay_misses": 0,
                "replay_evictions": 0,
            }
            return stats

    def predict_nodes(self, node_ids: Iterable[int]) -> np.ndarray:
        """Hard labels (0 = human, 1 = bot) for ``node_ids``."""
        return self.score_nodes(node_ids).argmax(axis=1)

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------
    def update_graph(
        self,
        edges_added: Optional[Mapping[str, Tuple[Iterable[int], Iterable[int]]]] = None,
        nodes_changed: Optional[Iterable[int]] = None,
    ) -> int:
        """Apply a graph mutation and invalidate only what it touches.

        ``edges_added`` maps relation name to ``(src, dst)`` arrays appended
        to the graph; ``nodes_changed`` lists nodes whose features the caller
        has updated in place (``graph.features[node] = ...``).  Every stored
        subgraph containing a touched node is dropped, and subsequent
        :meth:`score_nodes` calls rebuild exactly the stale entries.  Returns
        the number of invalidated subgraphs.

        The whole mapping is validated before anything is applied, so a bad
        relation name or endpoint raises with the graph untouched.

        Membership-based invalidation is an approximation: a mutation can in
        principle shift PPR mass (or the similarity ranking) enough to change
        the ideal top-k selection of a center whose stored subgraph contains
        no touched node; such a center keeps its stored subgraph.  Exact
        invalidation would have to widen to the mutation's PPR reach.
        """
        with self._lock:
            return self._update_graph_locked(edges_added, nodes_changed)

    def _update_graph_locked(
        self,
        edges_added: Optional[Mapping[str, Tuple[Iterable[int], Iterable[int]]]],
        nodes_changed: Optional[Iterable[int]],
        additions: Optional[list] = None,
    ) -> int:
        """Body of :meth:`update_graph`; ``additions`` lets a caller that
        already ran :func:`validate_edge_additions` (``apply_delta``) skip
        the second normalization pass on the streaming hot path."""
        self._check_open()
        feature_nodes = (
            np.unique(np.asarray(list(nodes_changed), dtype=np.int64))
            if nodes_changed is not None
            else np.empty(0, dtype=np.int64)
        )
        touched = [feature_nodes] if feature_nodes.size else []
        # Validate everything up front: update_graph must be atomic — a bad
        # later entry must not leave earlier relations mutated but
        # un-invalidated (silently stale scores on retry-with-fix).
        if additions is None:
            additions = validate_edge_additions(self.graph, edges_added)
        num_nodes = self.graph.num_nodes
        for endpoints in touched:
            if endpoints.size and (endpoints.min() < 0 or endpoints.max() >= num_nodes):
                raise ValueError("nodes_changed entry out of range for the session graph")
        touched_relations = []
        for relation, src, dst in additions:
            if self.graph.add_edges(relation, src, dst):
                touched_relations.append(relation)
            touched.append(src)
            touched.append(dst)
        touched_nodes = np.unique(np.concatenate(touched)) if touched else np.empty(0, dtype=np.int64)
        if touched_nodes.size == 0:
            return 0  # nothing mutated: keep builders and caches intact
        self._fallback_probabilities = None
        invalidate = getattr(self.detector, "invalidate_nodes", None)
        if invalidate is not None:
            # The session knows exactly which relations gained edges and
            # which nodes' features changed; detectors that understand the
            # richer signature refresh their builder per relation instead of
            # resetting it (legacy detectors get the bare call).
            if self._invalidate_takes_relations is None:
                self._invalidate_takes_relations = (
                    "relations" in inspect.signature(invalidate).parameters
                )
            if self._invalidate_takes_relations:
                return int(
                    invalidate(
                        touched_nodes,
                        relations=touched_relations,
                        feature_nodes=feature_nodes,
                    )
                )
            return int(invalidate(touched_nodes))
        store = self.store
        return int(store.invalidate_nodes(touched_nodes)) if store is not None else 0

    def apply_delta(
        self,
        edges_added: Optional[Mapping[str, Tuple[Iterable[int], Iterable[int]]]] = None,
        features_changed: Optional[Mapping[int, np.ndarray]] = None,
    ) -> int:
        """Apply one serving-layer delta atomically under the session lock.

        The sequencing hook for :class:`repro.serving.DetectionService`:
        unlike :meth:`update_graph` (whose callers mutate ``graph.features``
        themselves before notifying), ``features_changed`` carries the new
        rows, and the write + invalidation happen as one locked step — no
        concurrent ``score_nodes`` call can observe the new features with
        pre-delta subgraphs or vice versa.  Atomic like
        :meth:`update_graph`: everything is validated before the first
        feature row is written, so a bad entry raises with the graph
        untouched.  Returns the number of invalidated subgraphs.
        """
        with self._lock:
            self._check_open()
            additions = validate_edge_additions(self.graph, edges_added)
            rows = validate_feature_rows(self.graph, features_changed)
            for node, row in rows.items():
                self.graph.features[node] = row
            return self._update_graph_locked(
                edges_added,
                list(rows) if rows else None,
                additions=additions,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, release_pool: bool = True) -> None:
        """Release serving caches and (by default) the construction pool.

        Idempotent.  The worker pool is **process-global** (shared by every
        builder and session, see :mod:`repro.sampling.biased`): releasing it
        here frees the worker processes deterministically instead of waiting
        for the ``atexit`` hook, but a host running several concurrent
        sessions should pass ``release_pool=False`` and shut the pool down
        once, when the last session ends (it is lazily respawned if needed).

        Shared-memory segments are always cleaned up: this detector's
        builder payload is unlinked here, and ``shutdown_shared_pool``
        additionally unlinks every registered payload — including those
        whose worker died mid-build — so a closed session never leaves
        ``/dev/shm`` segments behind.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            store = self.store
            if store is not None:
                store.clear_caches()
            for attribute in ("builder", "_builder"):
                builder = getattr(self.detector, attribute, None)
                if builder is not None and hasattr(builder, "release_shared"):
                    builder.release_shared()
            if release_pool:
                shutdown_shared_pool()

    def __enter__(self) -> "DetectionSession":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            state = "closed" if self._closed else "open"
        return (
            f"DetectionSession(detector={type(self.detector).__name__}, "
            f"graph={self.graph.name!r}, {state})"
        )
