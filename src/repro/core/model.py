"""The BSG4Bot heterogeneous subgraph learner (Section III-E).

The model consumes a :class:`repro.sampling.SubgraphBatch` — the contract is
identical whichever collation path produced it (the reference
``collate_subgraphs`` loop or the vectorized ``collate_many`` epoch engine):

1. node features are projected to a hidden space (Eq. 9),
2. for each relation, a stack of GCN layers runs on that relation's
   (block-diagonal) adjacency (Eq. 10),
3. the intermediate outputs of all layers are concatenated (Eq. 11) so the
   classifier sees both low- and high-frequency components,
4. per-relation representations are fused with semantic attention
   (Eq. 12-14) — or mean pooling in the ablation,
5. the rows of the start nodes are classified with a softmax head (Eq. 15).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.nn import Dropout, GCNConv, Linear, SemanticAttention
from repro.sampling.subgraph import SubgraphBatch
from repro.tensor import Module, Tensor, concat, leaky_relu


class BSG4BotModel(Module):
    """Per-relation GCN stack + intermediate concat + semantic attention."""

    def __init__(
        self,
        in_features: int,
        hidden_dim: int,
        relation_names: Sequence[str],
        num_layers: int = 2,
        num_classes: int = 2,
        dropout: float = 0.3,
        attention_dim: int = 16,
        use_intermediate_concat: bool = True,
        use_semantic_attention: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        rng = rng or np.random.default_rng(0)
        self.relation_names = list(relation_names)
        self.num_layers = num_layers
        self.use_intermediate_concat = use_intermediate_concat
        self.use_semantic_attention = use_semantic_attention

        self.input_transform = Linear(in_features, hidden_dim, rng)
        self.dropout = Dropout(dropout, rng)
        # One GCN stack per relation (Eq. 10).
        self.relation_convs: Dict[str, List[GCNConv]] = {
            name: [GCNConv(hidden_dim, hidden_dim, rng) for _ in range(num_layers)]
            for name in self.relation_names
        }
        final_dim = hidden_dim * (num_layers + 1) if use_intermediate_concat else hidden_dim
        self.semantic_attention = SemanticAttention(final_dim, attention_dim, rng)
        self.classifier = Linear(final_dim, num_classes, rng)
        self.final_dim = final_dim
        self.last_relation_weights: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _encode_relation(self, name: str, hidden: Tensor, adjacency: sp.spmatrix) -> Tensor:
        """Run one relation's GCN stack and combine layer outputs (Eq. 11)."""
        layers = self.relation_convs[name]
        outputs = [hidden]
        current = hidden
        for layer in layers:
            current = leaky_relu(layer(current, adjacency))
            current = self.dropout(current)
            outputs.append(current)
        if self.use_intermediate_concat:
            return concat(outputs, axis=1)
        return outputs[-1]

    # ------------------------------------------------------------------
    def node_embeddings(self, batch: SubgraphBatch) -> Tensor:
        """Fused final embeddings ``h_i^final`` for every node in the batch."""
        features = Tensor(batch.features)
        hidden = leaky_relu(self.input_transform(features))
        hidden = self.dropout(hidden)

        relation_outputs: List[Tensor] = []
        for name in self.relation_names:
            adjacency = batch.relation_adjacencies[name]
            relation_outputs.append(self._encode_relation(name, hidden, adjacency))

        if self.use_semantic_attention:
            fused, weights = self.semantic_attention(relation_outputs)
            self.last_relation_weights = weights.numpy().ravel()
        else:
            # Ablation: mean pooling across relations (Table V).
            fused = relation_outputs[0]
            for output in relation_outputs[1:]:
                fused = fused + output
            fused = fused * (1.0 / len(relation_outputs))
            self.last_relation_weights = np.full(
                len(relation_outputs), 1.0 / len(relation_outputs)
            )
        return fused

    def forward(self, batch: SubgraphBatch) -> Tensor:
        """Logits for the start (center) node of every subgraph in the batch.

        Note: serving, validation scoring during ``fit`` and training steps
        may execute this forward through the capture-and-replay engines
        (``repro.tensor.replay``, ``repro.tensor.train_replay``), which run
        raw kernels instead of these ops; ``last_relation_weights`` is a
        debug side effect of the *eager* pass only and is not refreshed by a
        replayed forward.
        """
        fused = self.node_embeddings(batch)
        centers = fused[batch.center_positions]
        return self.classifier(centers)
