"""Training utilities: early stopping, history tracking, and the two shared
training loops — the full-graph loop used by the baselines and the
subgraph-batch epoch loop used by BSG4Bot and the plugin detectors."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.metrics import accuracy_score, f1_score
from repro.tensor import (
    Adam,
    Tensor,
    cross_entropy,
    fused_cross_entropy,
    inference_mode,
    softmax,
)


class EarlyStopping:
    """Stop training when the monitored score stops improving.

    Mirrors the paper's setup: "#Epochs refers to the number of training
    epochs before early stopping is triggered due to a lack of improvement on
    the validation set."
    """

    def __init__(self, patience: int = 10, min_delta: float = 1e-4) -> None:
        self.patience = patience
        self.min_delta = min_delta
        self.best_score: float = -np.inf
        self.best_epoch: int = -1
        self.counter: int = 0

    def update(self, score: float, epoch: int) -> bool:
        """Record a new score; return True when training should stop."""
        if score > self.best_score + self.min_delta:
            self.best_score = score
            self.best_epoch = epoch
            self.counter = 0
            return False
        self.counter += 1
        return self.counter >= self.patience


@dataclass
class TrainingHistory:
    """Per-epoch record of one training run."""

    train_losses: List[float] = field(default_factory=list)
    val_scores: List[float] = field(default_factory=list)
    epoch_times: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_score: float = float("-inf")
    total_time: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def num_epochs(self) -> int:
        return len(self.train_losses)

    @property
    def mean_epoch_time(self) -> float:
        return float(np.mean(self.epoch_times)) if self.epoch_times else 0.0


def _validation_score(logits: np.ndarray, labels: np.ndarray, indices: np.ndarray, metric: str) -> float:
    if indices.size == 0:
        return 0.0
    predictions = logits[indices].argmax(axis=1)
    truth = labels[indices]
    if metric == "f1":
        return f1_score(truth, predictions)
    if metric == "accuracy":
        return accuracy_score(truth, predictions)
    if metric == "f1+accuracy":
        return 0.5 * (f1_score(truth, predictions) + accuracy_score(truth, predictions))
    raise ValueError(f"unknown metric {metric!r}")


def train_node_classifier(
    forward: Callable[[bool], Tensor],
    parameters: List[Tensor],
    labels: np.ndarray,
    train_indices: np.ndarray,
    val_indices: np.ndarray,
    lr: float = 0.01,
    weight_decay: float = 5e-4,
    max_epochs: int = 200,
    patience: int = 10,
    class_weight: Optional[np.ndarray] = None,
    metric: str = "f1+accuracy",
    on_epoch_end: Optional[Callable[[int, float, float], None]] = None,
) -> TrainingHistory:
    """Generic full-graph training loop used by all baseline detectors.

    ``forward(training)`` must return the logits Tensor for *all* nodes; the
    loss is computed on ``train_indices`` and early stopping is driven by the
    validation score.  The best parameter snapshot is restored before return.
    """
    labels = np.asarray(labels, dtype=np.int64)
    train_indices = np.asarray(train_indices, dtype=np.int64)
    val_indices = np.asarray(val_indices, dtype=np.int64)
    optimizer = Adam(parameters, lr=lr)
    stopper = EarlyStopping(patience=patience)
    history = TrainingHistory()
    best_state = [p.data.copy() for p in parameters]
    start_time = time.perf_counter()

    for epoch in range(max_epochs):
        epoch_start = time.perf_counter()
        optimizer.zero_grad(set_to_none=False)
        logits = forward(True)
        if weight_decay:
            loss = fused_cross_entropy(
                logits[train_indices],
                labels[train_indices],
                weight=class_weight,
                parameters=parameters,
                weight_decay=weight_decay,
            )
        else:
            loss = cross_entropy(
                logits[train_indices], labels[train_indices], weight=class_weight
            )
        loss.backward()
        optimizer.step()

        eval_logits = forward(False).numpy()
        score = _validation_score(eval_logits, labels, val_indices, metric)
        history.train_losses.append(loss.item())
        history.val_scores.append(score)
        history.epoch_times.append(time.perf_counter() - epoch_start)
        if on_epoch_end is not None:
            on_epoch_end(epoch, loss.item(), score)

        improved = score > stopper.best_score
        should_stop = stopper.update(score, epoch)
        if improved:
            best_state = [p.data.copy() for p in parameters]
        if should_stop:
            break

    for param, saved in zip(parameters, best_state):
        param.data = saved
    history.best_epoch = stopper.best_epoch
    history.best_val_score = stopper.best_score
    history.total_time = time.perf_counter() - start_time
    return history


def predict_subgraph_proba(
    model,
    store,
    nodes: np.ndarray,
    batch_size: int,
    num_classes: int = 2,
    engine=None,
) -> np.ndarray:
    """Class probabilities for ``nodes`` through the cached collation path.

    ``store.collate`` canonicalizes each batch to sorted-center order (that
    is what makes the cross-epoch cache hit), so every batch's output rows
    are scattered back to the chunk's requested order before returning.
    Callers must ensure the store already holds a subgraph for every node.

    ``engine`` (a ``repro.tensor.replay.ReplayEngine``) routes each batch
    through the capture-and-replay fast path; it is bit-identical to the
    eager forward by contract.  Without one, the eager forward runs under
    ``inference_mode`` so no autograd graph is built.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    model.eval()
    outputs = np.zeros((nodes.size, num_classes))
    for start in range(0, nodes.size, batch_size):
        chunk = nodes[start : start + batch_size]
        batch = store.collate(chunk)
        if engine is not None:
            probabilities = engine.forward_proba(model, batch)
        else:
            with inference_mode():
                probabilities = softmax(model(batch), axis=-1).numpy()
        outputs[start : start + chunk.size][np.argsort(chunk, kind="stable")] = (
            probabilities
        )
    return outputs


def train_subgraph_classifier(
    model,
    parameters: List[Tensor],
    store,
    train_nodes: np.ndarray,
    score_fn: Callable[[], float],
    *,
    class_weight: Optional[np.ndarray] = None,
    lr: float = 0.01,
    weight_decay: float = 5e-4,
    batch_size: int = 64,
    max_epochs: int = 100,
    min_epochs: int = 1,
    patience: int = 10,
    rng: Optional[np.random.Generator] = None,
    snapshot_tie_break: str = "none",
) -> TrainingHistory:
    """Epoch loop over a :class:`repro.sampling.SubgraphStore` (Section III-F).

    Every epoch iterates shuffled collated batches through the store's
    cross-epoch batch cache (``store.batches``), computes the weighted
    cross-entropy on the batch centers plus an L2 penalty, and scores the
    validation split via ``score_fn`` (which should route through the same
    cached collation).  Early stopping triggers after ``patience`` epochs
    without improvement, but never before ``min_epochs`` — with tiny
    validation sets the score can plateau immediately.

    ``snapshot_tie_break`` selects which parameters are restored at the end:

    * ``"none"`` — the first epoch reaching the best validation score.
    * ``"loss"`` — among equal validation scores, the epoch with the lowest
      training loss.  Tiny validation splits saturate their score within a
      few gradient steps, and keeping the *first* saturating epoch preserves
      a nearly untrained model that generalizes poorly (the Figure 9
      transfer study exposes this).
    """
    if snapshot_tie_break not in ("none", "loss"):
        raise ValueError("snapshot_tie_break must be 'none' or 'loss'")
    tie_break_on_loss = snapshot_tie_break == "loss"
    train_nodes = np.asarray(train_nodes, dtype=np.int64)
    # Shuffled multi-batch epochs essentially never repeat a batch
    # membership, so inserting them would only thrash the store's LRU (and
    # evict the validation batches that DO recur every epoch).  Only the
    # single-batch regime — where every epoch is the same membership — goes
    # through the cache; larger epochs use the flat path directly.
    cache_training_batches = train_nodes.size <= batch_size
    # Imported here, not at module level: serving loads this module through
    # the pipeline but never trains, so it skips compiling the engine.
    from repro.tensor.train_replay import TrainReplayEngine

    optimizer = Adam(parameters, lr=lr)
    # Each step is forward + fused CE/L2 + backward + Adam
    # (``eager_train_step``), replayed from a compiled schedule per shape
    # bucket unless REPRO_REPLAY=0 or the model defeats capture.
    engine = TrainReplayEngine(
        model, optimizer, class_weight=class_weight, weight_decay=weight_decay
    )
    stopper = EarlyStopping(patience=patience)
    history = TrainingHistory()
    best_state = [p.data.copy() for p in parameters]
    best_key = (-np.inf, np.inf)
    best_epoch = -1
    start_time = time.perf_counter()

    for epoch in range(max_epochs):
        epoch_start = time.perf_counter()
        model.train()
        epoch_losses = []
        for batch in store.batches(
            train_nodes, batch_size, rng=rng, use_cache=cache_training_batches
        ):
            epoch_losses.append(engine.step(batch))

        score = score_fn()
        mean_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
        history.train_losses.append(mean_loss)
        history.val_scores.append(score)
        history.epoch_times.append(time.perf_counter() - epoch_start)

        if tie_break_on_loss:
            key = (score, -mean_loss)
            if key > best_key:
                best_key = key
                best_epoch = epoch
                best_state = [p.data.copy() for p in parameters]
        elif score > stopper.best_score:
            best_state = [p.data.copy() for p in parameters]
        should_stop = stopper.update(score, epoch)
        if should_stop and epoch + 1 >= min(min_epochs, max_epochs):
            break

    for param, saved in zip(parameters, best_state):
        param.data = saved
    history.best_epoch = best_epoch if tie_break_on_loss else stopper.best_epoch
    history.best_val_score = stopper.best_score
    history.total_time = time.perf_counter() - start_time
    return history
