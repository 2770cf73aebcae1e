"""Reverse-mode autodiff tensor built on top of ``numpy.ndarray``.

The design mirrors the classic define-by-run approach: every operation
returns a new :class:`Tensor` that remembers its parents and a closure that
propagates the output gradient back to them.  Calling :meth:`Tensor.backward`
performs a topological sort of the recorded graph and runs those closures in
reverse order.

Only the operations needed by the reproduction are implemented, but each is
implemented with full broadcasting support so the layer code reads naturally.

Serving never calls ``backward``, so every op carries a second, *light* path
gated by :func:`inference_mode`: the forward value is computed by exactly the
same NumPy expressions (results are bit-identical to the autograd path), but
no ``_backward`` closure, parent tuple, or backward-only auxiliary array is
built.  While a capture tape is installed (see :mod:`repro.tensor.replay`)
both paths additionally record each op's semantic identity, so a traced
forward — or a traced training step — can be compiled into a replayable
kernel schedule.  Both the inference flag and the tape are thread-local:
tracing in one session never observes another thread's ops.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

ArrayLike = Union[np.ndarray, float, int, Sequence]

_DEFAULT_DTYPE = np.float64


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != _DEFAULT_DTYPE:
            return value.astype(_DEFAULT_DTYPE)
        return value
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class _EngineState(threading.local):
    """Per-thread engine mode: inference nesting depth and the active tape."""

    inference = 0
    tape = None


_STATE = _EngineState()


@contextmanager
def inference_mode():
    """Context under which ops skip all autograd bookkeeping.

    Forward values are bit-identical to the normal path (the same NumPy
    expressions run), but the returned tensors carry no ``_backward``
    closures or parent links, so no graph is retained and backward-only
    auxiliaries (masks, boundaries, cached probabilities) are never
    materialized.  Nestable and thread-local.
    """
    _STATE.inference += 1
    try:
        yield
    finally:
        _STATE.inference -= 1


def is_inference() -> bool:
    """Whether the calling thread is currently inside :func:`inference_mode`."""
    return _STATE.inference > 0


def _install_tape(tape):
    """Install a capture tape for the calling thread; returns the old one."""
    previous = _STATE.tape
    _STATE.tape = tape
    return previous


def _restore_tape(previous) -> None:
    _STATE.tape = previous


def _emit(op: str, out_data: np.ndarray, inputs: tuple, meta: Optional[dict] = None) -> "Tensor":
    """Wrap a light-path result, recording the op on the active tape."""
    return _record(op, Tensor(out_data), inputs, meta)


def _record(op: str, out: "Tensor", inputs: tuple, meta: Optional[dict] = None) -> "Tensor":
    """Record ``out`` on the active tape (if any) and return it.

    The autograd path calls this too, so a traced training step sees the
    same op identities an inference trace does.
    """
    tape = _STATE.tape
    if tape is not None:
        tape.record(op, out, inputs, meta)
    return out


def _topological_order(root: "Tensor") -> list:
    """Post-order of the graph above ``root`` (parents before children).

    ``Tensor.backward`` walks it in reverse; the training replay compiler
    walks the same order so gradients accumulate in the same sequence.
    """
    order: list = []
    visited: set = set()
    stack = [(root, False)]
    while stack:
        current, processed = stack.pop()
        if processed:
            order.append(current)
            continue
        if id(current) in visited:
            continue
        visited.add(id(current))
        stack.append((current, True))
        for parent in current._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


class Tensor:
    """A NumPy array with an attached gradient and computation history."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Iterable["Tensor"] = (),
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = tuple(_parents)
        self.name = name

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self, copy: bool = False) -> "Tensor":
        """Return a tensor cut off from the graph.

        By default the result *shares storage* with this tensor (mutating
        one's ``data`` in place is visible through the other) — the cheap
        choice for read-only consumers such as metric code.  Pass
        ``copy=True`` for an independent buffer that later in-place writes
        cannot reach.
        """
        return Tensor(self.data.copy() if copy else self.data, requires_grad=False)

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear the gradient.

        ``set_to_none=False`` keeps the allocated gradient buffer and zeroes
        it in place, so the next ``backward`` accumulates into preallocated
        memory instead of allocating a fresh array per step.
        """
        if set_to_none:
            self.grad = None
        elif self.grad is not None:
            self.grad.fill(0.0)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        elif self.grad.shape == grad.shape:
            np.add(self.grad, grad, out=self.grad)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        order = _topological_order(self)

        grads: dict[int, np.ndarray] = {id(self): grad}
        # Gradients entering a dict slot are arrays produced by backward
        # closures and may be views of (or aliased with) arrays delivered to
        # other parents, so the first extra contribution allocates; from the
        # second on the slot is privately owned and accumulates in place.
        owned: set[int] = set()
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward is None:
                continue
            for parent, parent_grad in node._backward(node_grad):
                if parent_grad is None:
                    continue
                key = id(parent)
                if key not in grads:
                    grads[key] = parent_grad
                elif key in owned and grads[key].shape == parent_grad.shape:
                    np.add(grads[key], parent_grad, out=grads[key])
                else:
                    grads[key] = grads[key] + parent_grad
                    owned.add(key)

    # ------------------------------------------------------------------
    # Arithmetic operators
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = _ensure_tensor(other)
        out_data = self.data + other_t.data
        if _STATE.inference:
            return _emit("add", out_data, (self, other_t))
        out = Tensor(
            out_data,
            requires_grad=self.requires_grad or other_t.requires_grad,
            _parents=(self, other_t),
        )

        def backward(grad: np.ndarray):
            return (
                (self, _unbroadcast(grad, self.shape)),
                (other_t, _unbroadcast(grad, other_t.shape)),
            )

        out._backward = backward
        return _record("add", out, (self, other_t))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data
        if _STATE.inference:
            return _emit("neg", out_data, (self,))
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))
        out._backward = lambda grad: ((self, -grad),)
        return _record("neg", out, (self,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-_ensure_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = _ensure_tensor(other)
        out_data = self.data * other_t.data
        if _STATE.inference:
            return _emit("mul", out_data, (self, other_t))
        out = Tensor(
            out_data,
            requires_grad=self.requires_grad or other_t.requires_grad,
            _parents=(self, other_t),
        )

        def backward(grad: np.ndarray):
            return (
                (self, _unbroadcast(grad * other_t.data, self.shape)),
                (other_t, _unbroadcast(grad * self.data, other_t.shape)),
            )

        out._backward = backward
        return _record("mul", out, (self, other_t))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = _ensure_tensor(other)
        out_data = self.data / other_t.data
        if _STATE.inference:
            return _emit("div", out_data, (self, other_t))
        out = Tensor(
            out_data,
            requires_grad=self.requires_grad or other_t.requires_grad,
            _parents=(self, other_t),
        )

        def backward(grad: np.ndarray):
            grad_self = _unbroadcast(grad / other_t.data, self.shape)
            grad_other = _unbroadcast(
                -grad * self.data / (other_t.data**2), other_t.shape
            )
            return ((self, grad_self), (other_t, grad_other))

        out._backward = backward
        return _record("div", out, (self, other_t))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        if _STATE.inference:
            return _emit("pow", out_data, (self,), {"exponent": exponent})
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))

        def backward(grad: np.ndarray):
            return ((self, grad * exponent * self.data ** (exponent - 1)),)

        out._backward = backward
        return _record("pow", out, (self,), {"exponent": exponent})

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out_data = self.data.reshape(shape)
        if _STATE.inference:
            return _emit("reshape", out_data, (self,), {"shape": tuple(shape)})
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))
        out._backward = lambda grad: ((self, grad.reshape(original)),)
        return _record("reshape", out, (self,), {"shape": tuple(shape)})

    def transpose(self) -> "Tensor":
        if _STATE.inference:
            return _emit("transpose", self.data.T, (self,))
        out = Tensor(self.data.T, requires_grad=self.requires_grad, _parents=(self,))
        out._backward = lambda grad: ((self, grad.T),)
        return _record("transpose", out, (self,))

    @property
    def T(self) -> "Tensor":  # noqa: N802 - mirror numpy naming
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if _STATE.inference:
            return _emit("getitem", out_data, (self,), {"index": index})
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return ((self, full),)

        out._backward = backward
        return _record("getitem", out, (self,), {"index": index})

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if _STATE.inference:
            return _emit("sum", out_data, (self,), {"axis": axis, "keepdims": keepdims})
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))

        def backward(grad: np.ndarray):
            grad_arr = np.asarray(grad)
            if axis is not None and not keepdims:
                grad_arr = np.expand_dims(grad_arr, axis)
            return ((self, np.broadcast_to(grad_arr, self.shape).copy()),)

        out._backward = backward
        return _record("sum", out, (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        if _STATE.inference:
            # Recorded as one composite op: the 1/count factor depends on the
            # live batch shape, so a replay kernel must recompute it rather
            # than bake the trace-time constant into a ``mul`` step.  The
            # expression is the sum/scale decomposition below, verbatim.
            out_data = self.data.sum(axis=axis, keepdims=keepdims) * (1.0 / count)
            return _emit("mean", out_data, (self,), {"axis": axis, "keepdims": keepdims})
        tape = _STATE.tape
        if tape is None:
            return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)
        # Traced: the graph is the same sum -> mul pair, but the mul is
        # recorded as ``mean_scale`` so a replay recomputes 1/count from the
        # live shape instead of baking the traced batch's constant.
        _STATE.tape = None
        try:
            total = self.sum(axis=axis, keepdims=keepdims)
            out = total * (1.0 / count)
        finally:
            _STATE.tape = tape
        _record("sum", total, (self,), {"axis": axis, "keepdims": keepdims})
        return _record("mean_scale", out, (total,), {"axis": axis, "source": self})

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if _STATE.inference:
            return _emit("max", out_data, (self,), {"axis": axis, "keepdims": keepdims})
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))

        def backward(grad: np.ndarray):
            grad_arr = np.asarray(grad)
            expanded = out_data
            if axis is not None and not keepdims:
                grad_arr = np.expand_dims(grad_arr, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            return ((self, mask * grad_arr),)

        out._backward = backward
        return _record("max", out, (self,), {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # Elementwise functions (method aliases)
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if _STATE.inference:
            return _emit("exp", out_data, (self,))
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))
        out._backward = lambda grad: ((self, grad * out_data),)
        return _record("exp", out, (self,))

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        if _STATE.inference:
            return _emit("log", out_data, (self,))
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))
        out._backward = lambda grad: ((self, grad / self.data),)
        return _record("log", out, (self,))

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        if _STATE.inference:
            return _emit("clip", out_data, (self,), {"low": low, "high": high})
        out = Tensor(out_data, requires_grad=self.requires_grad, _parents=(self,))

        def backward(grad: np.ndarray):
            mask = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)
            return ((self, grad * mask),)

        out._backward = backward
        return _record("clip", out, (self,), {"low": low, "high": high})


def _ensure_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# ----------------------------------------------------------------------
# Factory helpers
# ----------------------------------------------------------------------
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a tensor from array-like data."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


# ----------------------------------------------------------------------
# Core operations
# ----------------------------------------------------------------------
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Dense matrix product; gradients flow to the operands that need them."""
    a_t, b_t = _ensure_tensor(a), _ensure_tensor(b)
    out_data = a_t.data @ b_t.data
    if _STATE.inference:
        return _emit("matmul", out_data, (a_t, b_t))
    out = Tensor(
        out_data,
        requires_grad=a_t.requires_grad or b_t.requires_grad,
        _parents=(a_t, b_t),
    )

    def backward(grad: np.ndarray):
        # An operand without requires_grad (the collated feature matrix) has
        # no gradient consumer, so its gemm would be pure waste.
        pairs = []
        if a_t.requires_grad:
            pairs.append((a_t, _unbroadcast(grad @ b_t.data.T, a_t.shape)))
        if b_t.requires_grad:
            pairs.append((b_t, _unbroadcast(a_t.data.T @ grad, b_t.shape)))
        return tuple(pairs)

    out._backward = backward
    return _record("matmul", out, (a_t, b_t))


def spmm(sparse_matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Sparse @ dense product; the sparse operand is a constant.

    Used for GNN aggregation with (normalized) adjacency matrices.  Gradients
    flow only to the dense operand: ``d(A @ X)/dX`` applied to an upstream
    gradient ``G`` is ``A.T @ G``.
    """
    dense_t = _ensure_tensor(dense)
    matrix = sparse_matrix.tocsr()
    out_data = matrix @ dense_t.data
    if _STATE.inference:
        return _emit("spmm", out_data, (dense_t,), {"matrix": matrix})
    out = Tensor(
        out_data,
        requires_grad=dense_t.requires_grad,
        _parents=(dense_t,),
    )
    out._backward = lambda grad: ((dense_t, matrix.T @ grad),)
    return _record("spmm", out, (dense_t,), {"matrix": matrix})


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    items = [_ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in items], axis=axis)
    if _STATE.inference:
        return _emit("concat", data, tuple(items), {"axis": axis})
    out = Tensor(
        data,
        requires_grad=any(t.requires_grad for t in items),
        _parents=tuple(items),
    )
    sizes = [t.data.shape[axis] for t in items]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray):
        pieces = np.split(grad, boundaries, axis=axis)
        return tuple((item, piece) for item, piece in zip(items, pieces))

    out._backward = backward
    return _record("concat", out, tuple(items), {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    items = [_ensure_tensor(t) for t in tensors]
    data = np.stack([t.data for t in items], axis=axis)
    if _STATE.inference:
        return _emit("stack", data, tuple(items), {"axis": axis})
    out = Tensor(
        data,
        requires_grad=any(t.requires_grad for t in items),
        _parents=tuple(items),
    )

    def backward(grad: np.ndarray):
        pieces = np.split(grad, len(items), axis=axis)
        return tuple(
            (item, np.squeeze(piece, axis=axis)) for item, piece in zip(items, pieces)
        )

    out._backward = backward
    return _record("stack", out, tuple(items), {"axis": axis})


def gather_rows(source: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``source[index]`` (used to fetch edge endpoints)."""
    index = np.asarray(index, dtype=np.int64)
    src = _ensure_tensor(source)
    out_data = src.data[index]
    if _STATE.inference:
        return _emit("gather", out_data, (src,), {"index": index})
    out = Tensor(out_data, requires_grad=src.requires_grad, _parents=(src,))

    def backward(grad: np.ndarray):
        full = np.zeros_like(src.data)
        np.add.at(full, index, grad)
        return ((src, full),)

    out._backward = backward
    return _record("gather", out, (src,), {"index": index})


def scatter_add(source: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``source`` into ``num_segments`` buckets given by ``index``."""
    index = np.asarray(index, dtype=np.int64)
    src = _ensure_tensor(source)
    out_shape = (num_segments,) + src.data.shape[1:]
    data = np.zeros(out_shape, dtype=src.data.dtype)
    np.add.at(data, index, src.data)
    if _STATE.inference:
        return _emit(
            "scatter_add", data, (src,), {"index": index, "num_segments": num_segments}
        )
    out = Tensor(data, requires_grad=src.requires_grad, _parents=(src,))
    out._backward = lambda grad: ((src, grad[index]),)
    return _record("scatter_add", out, (src,), {"index": index, "num_segments": num_segments})


# ----------------------------------------------------------------------
# Activations and normalisation
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    x_t = _ensure_tensor(x)
    mask = (x_t.data > 0).astype(x_t.data.dtype)
    out_data = x_t.data * mask
    if _STATE.inference:
        return _emit("relu", out_data, (x_t,))
    out = Tensor(out_data, requires_grad=x_t.requires_grad, _parents=(x_t,))
    out._backward = lambda grad: ((x_t, grad * mask),)
    return _record("relu", out, (x_t,))


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    x_t = _ensure_tensor(x)
    slope = np.where(x_t.data > 0, 1.0, negative_slope)
    out_data = x_t.data * slope
    if _STATE.inference:
        return _emit("leaky_relu", out_data, (x_t,), {"negative_slope": negative_slope})
    out = Tensor(out_data, requires_grad=x_t.requires_grad, _parents=(x_t,))
    out._backward = lambda grad: ((x_t, grad * slope),)
    return _record("leaky_relu", out, (x_t,), {"negative_slope": negative_slope})


def tanh(x: Tensor) -> Tensor:
    x_t = _ensure_tensor(x)
    out_data = np.tanh(x_t.data)
    if _STATE.inference:
        return _emit("tanh", out_data, (x_t,))
    out = Tensor(out_data, requires_grad=x_t.requires_grad, _parents=(x_t,))
    out._backward = lambda grad: ((x_t, grad * (1.0 - out_data**2)),)
    return _record("tanh", out, (x_t,))


def sigmoid(x: Tensor) -> Tensor:
    x_t = _ensure_tensor(x)
    out_data = 1.0 / (1.0 + np.exp(-x_t.data))
    if _STATE.inference:
        return _emit("sigmoid", out_data, (x_t,))
    out = Tensor(out_data, requires_grad=x_t.requires_grad, _parents=(x_t,))
    out._backward = lambda grad: ((x_t, grad * out_data * (1.0 - out_data)),)
    return _record("sigmoid", out, (x_t,))


def maximum(x: Tensor, value: float) -> Tensor:
    """Elementwise maximum with a scalar constant."""
    x_t = _ensure_tensor(x)
    out_data = np.maximum(x_t.data, value)
    if _STATE.inference:
        return _emit("maximum", out_data, (x_t,), {"value": value})
    mask = (x_t.data >= value).astype(x_t.data.dtype)
    out = Tensor(out_data, requires_grad=x_t.requires_grad, _parents=(x_t,))
    out._backward = lambda grad: ((x_t, grad * mask),)
    return _record("maximum", out, (x_t,), {"value": value})


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x_t = _ensure_tensor(x)
    shifted = x_t.data - x_t.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)
    if _STATE.inference:
        return _emit("softmax", out_data, (x_t,), {"axis": axis})
    out = Tensor(out_data, requires_grad=x_t.requires_grad, _parents=(x_t,))

    def backward(grad: np.ndarray):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return ((x_t, out_data * (grad - dot)),)

    out._backward = backward
    return _record("softmax", out, (x_t,), {"axis": axis})


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x_t = _ensure_tensor(x)
    shifted = x_t.data - x_t.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    if _STATE.inference:
        return _emit("log_softmax", out_data, (x_t,), {"axis": axis})
    out = Tensor(out_data, requires_grad=x_t.requires_grad, _parents=(x_t,))
    probs = np.exp(out_data)

    def backward(grad: np.ndarray):
        total = grad.sum(axis=axis, keepdims=True)
        return ((x_t, grad - probs * total),)

    out._backward = backward
    return _record("log_softmax", out, (x_t,), {"axis": axis})


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is false or rate is 0."""
    if not training or rate <= 0.0:
        return _ensure_tensor(x)
    x_t = _ensure_tensor(x)
    keep = 1.0 - rate
    # A traced training step rewinds each generator to its pre-draw state.
    state = rng.bit_generator.state if _STATE.tape is not None else None
    mask = (rng.random(x_t.shape) < keep).astype(x_t.data.dtype) / keep
    out_data = x_t.data * mask
    if _STATE.inference:
        # Stochastic: recorded so a capture attempt of a training-mode model
        # is rejected at compile time rather than silently frozen.
        return _emit("dropout", out_data, (x_t,))
    out = Tensor(out_data, requires_grad=x_t.requires_grad, _parents=(x_t,))
    out._backward = lambda grad: ((x_t, grad * mask),)
    # The generator rides along so a traced training step redraws the mask
    # from the same stream.
    return _record("dropout", out, (x_t,), {"rate": rate, "rng": rng, "state": state})
