"""Biased subgraphs as a plug-and-play component for other GNNs (Table IV).

``Subgraphs + GCN / GAT / BotRGCN``: the backbone GNN is unchanged, but it is
trained over batches of biased subgraphs (classifying each subgraph's start
node) instead of over the full graph.  The improvement over the corresponding
full-graph baseline measures the value of the subgraph construction alone.
Training runs through the same vectorized epoch engine as BSG4Bot
(:func:`repro.core.trainer.train_subgraph_classifier` over the store's
cached flat collation), consuming the unchanged ``SubgraphBatch`` contract.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.core.base import BotDetector
from repro.core.config import BSG4BotConfig
from repro.core.metrics import accuracy_score, f1_score
from repro.core.preclassifier import PretrainedClassifier
from repro.core.trainer import (
    TrainingHistory,
    predict_subgraph_proba,
    train_subgraph_classifier,
)
from repro.graph import HeteroGraph
from repro.nn import Dropout, GATConv, GCNConv, Linear, RGCNConv
from repro.sampling import BiasedSubgraphBuilder, SubgraphStore
from repro.sampling.subgraph import SubgraphBatch
from repro.tensor import Module, Tensor, leaky_relu, relu
from repro.tensor.replay import ReplayEngine, replay_enabled


class _SubgraphGCNBackbone(Module):
    """GCN backbone evaluated on the merged adjacency of each subgraph batch."""

    conv_class = GCNConv

    def __init__(self, in_features, hidden_dim, relation_names, num_layers, dropout, rng):
        super().__init__()
        self.relation_names = list(relation_names)
        self.input_transform = Linear(in_features, hidden_dim, rng)
        self.convs = [self.conv_class(hidden_dim, hidden_dim, rng) for _ in range(num_layers)]
        self.dropout = Dropout(dropout, rng)
        self.classifier = Linear(hidden_dim, 2, rng)

    def _merged_adjacency(self, batch: SubgraphBatch) -> sp.csr_matrix:
        merged: Optional[sp.csr_matrix] = None
        for name in self.relation_names:
            adjacency = batch.relation_adjacencies[name]
            merged = adjacency if merged is None else merged + adjacency
        return merged.tocsr()

    def forward(self, batch: SubgraphBatch) -> Tensor:
        adjacency = self._merged_adjacency(batch)
        hidden = relu(self.input_transform(Tensor(batch.features)))
        hidden = self.dropout(hidden)
        for conv in self.convs:
            hidden = relu(conv(hidden, adjacency))
            hidden = self.dropout(hidden)
        centers = hidden[batch.center_positions]
        return self.classifier(centers)


class _SubgraphGATBackbone(_SubgraphGCNBackbone):
    conv_class = GATConv


class _SubgraphRGCNBackbone(Module):
    """RGCN backbone over the per-relation adjacencies of each batch."""

    def __init__(self, in_features, hidden_dim, relation_names, num_layers, dropout, rng):
        super().__init__()
        self.relation_names = list(relation_names)
        self.input_transform = Linear(in_features, hidden_dim, rng)
        self.convs = [
            RGCNConv(hidden_dim, hidden_dim, self.relation_names, rng) for _ in range(num_layers)
        ]
        self.dropout = Dropout(dropout, rng)
        self.classifier = Linear(hidden_dim, 2, rng)

    def forward(self, batch: SubgraphBatch) -> Tensor:
        hidden = leaky_relu(self.input_transform(Tensor(batch.features)))
        hidden = self.dropout(hidden)
        for conv in self.convs:
            hidden = leaky_relu(conv(hidden, batch.relation_adjacencies))
            hidden = self.dropout(hidden)
        centers = hidden[batch.center_positions]
        return self.classifier(centers)


_BACKBONES = {
    "gcn": _SubgraphGCNBackbone,
    "gat": _SubgraphGATBackbone,
    "botrgcn": _SubgraphRGCNBackbone,
}


class BiasedSubgraphPluginDetector(BotDetector):
    """"Subgraphs + <backbone>" rows of Table IV."""

    def __init__(self, backbone: str = "gcn", config: Optional[BSG4BotConfig] = None) -> None:
        backbone = backbone.lower()
        if backbone not in _BACKBONES:
            raise KeyError(f"unknown backbone {backbone!r}; options: {sorted(_BACKBONES)}")
        self.backbone_name = backbone
        self.name = f"Subgraphs+{backbone.upper() if backbone != 'botrgcn' else 'BotRGCN'}"
        self.config = config or BSG4BotConfig()
        self.model: Optional[Module] = None
        self.preclassifier: Optional[PretrainedClassifier] = None
        self.store: Optional[SubgraphStore] = None
        self.graph: Optional[HeteroGraph] = None
        self.history: Optional[TrainingHistory] = None
        self._builder: Optional[BiasedSubgraphBuilder] = None

    # ------------------------------------------------------------------
    def fit(self, graph: HeteroGraph) -> TrainingHistory:
        config = self.config
        self.graph = graph
        rng = np.random.default_rng(config.seed)
        counts = graph.class_counts()
        total = sum(counts.values())
        class_weight = np.array(
            [total / max(2 * counts.get(0, 1), 1), total / max(2 * counts.get(1, 1), 1)]
        )

        self.preclassifier = PretrainedClassifier(
            in_features=graph.num_features,
            hidden_dim=config.pretrain_hidden_dim,
            lr=config.pretrain_lr,
            epochs=config.pretrain_epochs,
            seed=config.seed,
        )
        self.preclassifier.fit_graph(graph, class_weight=class_weight)
        embeddings = self.preclassifier.hidden_representations(graph.features)

        builder = BiasedSubgraphBuilder(
            graph,
            embeddings,
            k=config.subgraph_k,
            alpha=config.ppr_alpha,
            epsilon=config.ppr_epsilon,
            mix_lambda=config.mix_lambda,
        )
        train_nodes = graph.train_indices()
        val_nodes = graph.val_indices()
        self.store = builder.build_store(np.concatenate([train_nodes, val_nodes]))
        self.store.cache_capacity = config.batch_cache_size
        self._builder = builder

        backbone_class = _BACKBONES[self.backbone_name]
        self.model = backbone_class(
            graph.num_features,
            config.hidden_dim,
            graph.relation_names,
            config.num_layers,
            config.dropout,
            np.random.default_rng(config.seed + 1),
        )
        # Validation scoring replays the inference forward where the
        # backbone allows it (bit-identical by contract).
        engine = ReplayEngine(capture=replay_enabled())
        history = train_subgraph_classifier(
            self.model,
            self.model.parameters(),
            self.store,
            train_nodes,
            lambda: self._score_nodes(val_nodes, engine),
            class_weight=class_weight,
            lr=config.lr,
            weight_decay=config.weight_decay,
            batch_size=config.batch_size,
            max_epochs=config.max_epochs,
            min_epochs=config.min_epochs,
            patience=config.patience,
            rng=rng,
        )
        self.history = history
        return history

    # ------------------------------------------------------------------
    def _get_builder(self) -> BiasedSubgraphBuilder:
        """The construction builder, recreated lazily after invalidation.

        Recreation re-reads the (possibly mutated) graph adjacencies and
        re-derives the pre-classifier embeddings from the current features,
        so post-update rebuilds never run against stale structure.
        """
        if self._builder is None:
            config = self.config
            self._builder = BiasedSubgraphBuilder(
                self.graph,
                self.preclassifier.hidden_representations(self.graph.features),
                k=config.subgraph_k,
                alpha=config.ppr_alpha,
                epsilon=config.ppr_epsilon,
                mix_lambda=config.mix_lambda,
            )
        return self._builder

    def _ensure_subgraphs(self, nodes: np.ndarray) -> None:
        missing = [int(node) for node in nodes if node not in self.store]
        if missing:
            self._get_builder().build_store(missing, store=self.store)

    def invalidate_nodes(self, nodes, relations=None, feature_nodes=None) -> int:
        """Targeted invalidation after a graph mutation touching ``nodes``.

        Mirrors :meth:`repro.core.BSG4Bot.invalidate_nodes`: stale store
        entries are dropped, and the cached builder either gets a
        per-relation refresh (when the caller names the mutated
        ``relations`` / ``feature_nodes``) or a conservative full reset, so
        the next ``predict_proba_nodes`` rebuilds only the invalidated
        centers — against the mutated graph.
        """
        if relations is None and feature_nodes is None:
            self._builder = None
        elif self._builder is not None:
            feature_nodes = (
                np.asarray(list(feature_nodes), dtype=np.int64)
                if feature_nodes is not None
                else np.empty(0, dtype=np.int64)
            )
            if feature_nodes.size:
                self._builder.update_embeddings(
                    feature_nodes,
                    self.preclassifier.hidden_representations(
                        self.graph.features[feature_nodes]
                    ),
                )
            self._builder.refresh_relations(relations or [])
        if self.store is None:
            return 0
        return self.store.invalidate_nodes(nodes)

    def _score_nodes(self, nodes: np.ndarray, engine=None) -> float:
        probabilities = self._predict(nodes, engine)
        predictions = probabilities.argmax(axis=1)
        truth = self.graph.labels[nodes]
        return 0.5 * (f1_score(truth, predictions) + accuracy_score(truth, predictions))

    def predict_proba_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """Probabilities for just ``nodes`` (the serve-many scoring path)."""
        return self._predict(nodes)

    def _predict(self, nodes: np.ndarray, engine=None) -> np.ndarray:
        # ``engine`` stays off the public signature: sessions hand their
        # replay engine to any ``predict_proba_nodes`` that accepts one.
        if self.model is None:
            raise RuntimeError("detector must be fitted first")
        nodes = np.asarray(nodes, dtype=np.int64)
        self._ensure_subgraphs(nodes)
        return predict_subgraph_proba(
            self.model, self.store, nodes, self.config.batch_size, engine=engine
        )

    def predict_proba(self, graph: HeteroGraph) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("detector must be fitted first")
        if graph is not self.graph:
            raise ValueError("plugin detectors predict on the graph they were trained on")
        return self.predict_proba_nodes(np.arange(graph.num_nodes))
