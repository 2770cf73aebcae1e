"""Loss functions used across the reproduction."""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.tensor.tensor import Tensor, _ensure_tensor, _record, log_softmax


def cross_entropy(logits: Tensor, labels: np.ndarray, weight: Optional[np.ndarray] = None) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under row-wise ``logits``.

    ``weight`` optionally re-weights each class (useful for the imbalanced
    TwiBot-22-style benchmarks where bots are the minority class).
    """
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)
    rows = np.arange(labels.shape[0])
    picked = log_probs[rows, labels]
    if weight is not None:
        weight = np.asarray(weight, dtype=np.float64)
        sample_weight = weight[labels]
        total = float(sample_weight.sum())
        return -(picked * Tensor(sample_weight)).sum() * (1.0 / max(total, 1e-12))
    return -picked.mean()


def binary_cross_entropy(probabilities: Tensor, labels: np.ndarray) -> Tensor:
    """Binary cross entropy on probabilities in (0, 1), as in Eq. 16."""
    labels = np.asarray(labels, dtype=np.float64)
    probs = _ensure_tensor(probabilities).clip(1e-12, 1.0 - 1e-12)
    target = Tensor(labels)
    loss = -(target * probs.log() + (1.0 - target) * (1.0 - probs).log())
    return loss.mean()


def l2_penalty(parameters: Iterable[Tensor], coefficient: float) -> Tensor:
    """Sum of squared parameter norms scaled by ``coefficient`` (Eq. 16)."""
    total: Optional[Tensor] = None
    for param in parameters:
        term = (param * param).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total * coefficient


def _fused_ce_forward(logits_data: np.ndarray, labels: np.ndarray, weight: Optional[np.ndarray]):
    """CE value of :func:`fused_cross_entropy` plus the context its backward needs.

    Shared by the eager node and the training replay kernel, so both run the
    composed graph's expressions verbatim.
    """
    num_rows = labels.shape[0]
    rows = np.arange(num_rows)
    shifted = logits_data - logits_data.max(axis=-1, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_sum
    probs = np.exp(log_probs)
    picked = log_probs[rows, labels]
    if weight is not None:
        sample_weight = weight[labels]
        scale = np.asarray(1.0 / max(float(sample_weight.sum()), 1e-12))
        value = (-(picked * sample_weight).sum()) * scale
    else:
        sample_weight = None
        scale = np.asarray(1.0 / num_rows)
        value = -(picked.sum() * scale)
    return value, (rows, labels, log_probs, probs, sample_weight, scale)


def _fused_ce_backward(grad: np.ndarray, context) -> np.ndarray:
    """Gradient of the CE term w.r.t. the logits (see :func:`_fused_ce_forward`)."""
    rows, labels, log_probs, probs, sample_weight, scale = context
    num_rows = labels.shape[0]
    if sample_weight is not None:
        # Composed chain: root-mul -> neg -> sum -> mul(sample_weight) ->
        # getitem -> log_softmax, each step's expression verbatim.
        grad_neg = np.multiply(grad, scale)
        grad_total = -grad_neg
        grad_product = np.broadcast_to(np.asarray(grad_total), (num_rows,)).copy()
        grad_picked = grad_product * sample_weight
    else:
        # Composed chain: neg -> mul(1/B) -> sum -> getitem -> log_softmax.
        grad_mean = -grad
        grad_sum = np.multiply(grad_mean, scale)
        grad_picked = np.broadcast_to(np.asarray(grad_sum), (num_rows,)).copy()
    full = np.zeros_like(log_probs)
    np.add.at(full, (rows, labels), grad_picked)
    total = full.sum(axis=-1, keepdims=True)
    return full - probs * total


def _l2_forward(datas, coefficient: np.ndarray) -> np.ndarray:
    """The composed ``l2_penalty`` left-fold over raw parameter arrays."""
    total_sq: Optional[np.ndarray] = None
    for data in datas:
        term = (data * data).sum()
        total_sq = term if total_sq is None else total_sq + term
    return np.asarray(0.0) if total_sq is None else total_sq * coefficient


def fused_cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    weight: Optional[np.ndarray] = None,
    parameters: Iterable[Tensor] = (),
    weight_decay: float = 0.0,
) -> Tensor:
    """``cross_entropy(...) + l2_penalty(...)`` as two fused graph nodes.

    Bit-identical to the composed expression — same forward value, same
    gradient for every tensor — but the composed graph's ~10 + 3·|params|
    intermediate nodes collapse into two, so ``backward`` walks a
    three-node graph above the model and runs each hand-written chain once.
    The backward closures replicate the composed ops' exact NumPy
    expressions *and* their accumulation bracketing (the L2 node contributes
    each parameter's gradient twice, mirroring the ``p * p`` product's two
    parent pairs, so ``(model_grad + g) + g`` associates identically);
    ``tests/test_fused_loss.py`` property-tests the equality.
    """
    labels = np.asarray(labels, dtype=np.int64)
    parameters = tuple(parameters)
    logits_t = _ensure_tensor(logits)
    if weight is not None:
        weight = np.asarray(weight, dtype=np.float64)

    ce_value, context = _fused_ce_forward(logits_t.data, labels, weight)
    ce_node = Tensor(ce_value, requires_grad=logits_t.requires_grad, _parents=(logits_t,))
    ce_node._backward = lambda grad: ((logits_t, _fused_ce_backward(grad, context)),)
    _record("fused_ce", ce_node, (logits_t,), {"labels": labels, "weight": weight})

    # L2 term as one node over all parameters.  Forward is the composed
    # left-fold; backward delivers, per parameter, the two identical pairs
    # the ``p * p`` node would (the duplication is load-bearing: the
    # accumulation order in ``Tensor.backward`` brackets the sums the same
    # way only if the contribution count matches).
    coefficient = np.asarray(weight_decay, dtype=np.float64)
    l2_node = Tensor(
        _l2_forward([param.data for param in parameters], coefficient),
        requires_grad=any(param.requires_grad for param in parameters),
        _parents=parameters,
    )

    if parameters:

        def l2_backward(grad: np.ndarray):
            grad_total = np.multiply(grad, coefficient)
            pairs = []
            for param in parameters:
                grad_bcast = np.broadcast_to(np.asarray(grad_total), param.shape).copy()
                grad_param = grad_bcast * param.data
                pairs.append((param, grad_param))
                pairs.append((param, grad_bcast * param.data))
            return tuple(pairs)

        l2_node._backward = l2_backward
    _record("l2", l2_node, parameters, {"coefficient": coefficient})

    return ce_node + l2_node
