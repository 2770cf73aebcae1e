"""Capture-and-replay inference engine for the serving forward pass.

The eager engine pays, on every op, for a Python :class:`~repro.tensor.Tensor`
object, a parent tuple and a freshly allocated output array.  This module
removes all of it from the steady state of the serving forward
(:class:`ReplayEngine`):

1. **Capture** — the first wave landing in a shape bucket runs eagerly under
   :func:`repro.tensor.inference_mode` with a :class:`Tape` installed; every
   op records its semantic identity (name, inputs, meta) in execution order.
   The eager result is returned to the caller, so a miss costs one normal
   forward plus a compile.
2. **Compile** — the tape is linearized into a flat schedule of raw-NumPy
   kernels.  Batch-dependent leaves (the collated feature matrix, each
   relation's block-diagonal adjacency, the center-row index) are matched by
   object identity against the traced batch and replaced with symbolic
   *slots* rebound on every call; parameters are read live through their
   ``Tensor`` (so ``load_state_dict`` is picked up); everything else is a
   constant.  Output buffers are preallocated at the bucket's capacity, and
   adjacent single-consumer elementwise steps are fused into their producer's
   buffer, so the replay path performs zero per-wave allocations for the
   large intermediates.
3. **Replay** — subsequent waves in the bucket slice every buffer to the
   live batch shape (symbolic dims propagate from the slots) and run the
   kernel list.  No ``Tensor`` objects, no ``_parents``/``_backward``
   bookkeeping, no garbage.

**Bit-identity contract.**  Every kernel performs exactly the NumPy
expression sequence of its eager op (``np.add(a, b, out=buf)`` for ``a + b``,
scipy's own ``csr_matvecs`` routine for ``A @ X``, the same
subtract-max/exp/normalize steps for softmax), so a replayed forward equals
the eager forward bit for bit.  The contract is enforced three ways: a
compile-time self-check replays the traced batch and compares bitwise
(a mismatch permanently disables the engine), the equivalence tests named by
the ``# oracle:`` annotation below, and the serving benchmark's wave replay
assertions.  Anything the compiler cannot prove — an op without a kernel, a
batch-dependent array it cannot slot, a symbolic shape outside axis 0 —
raises :class:`ReplayUnsupported` and the engine falls back to eager
forever, trading speed for correctness.

**Concurrency.**  A :class:`ReplayEngine` owns mutable buffers and must
never be shared across sessions: each :class:`repro.api.DetectionSession`
creates its own and serializes every call under the session lock
(guarded-by: DetectionSession._lock).  Tracing state is thread-local, so a
trace in one session never records another thread's ops.

**Training.**  :mod:`repro.tensor.train_replay` builds on this tape and
compiler to replay a whole training step — forward with dropout, fused
CE + L2 loss, backward and Adam — from one captured schedule.

Disable both engines with ``REPRO_REPLAY=0`` (environment), a session's with
``DetectionSession(..., use_replay=False)``; cap the per-session bucket cache
with ``REPRO_REPLAY_BUCKETS`` (default 8, LRU-evicted).
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.tensor.tensor import (
    Tensor,
    _install_tape,
    _restore_tape,
    inference_mode,
    softmax,
)

try:  # scipy's CSR mat-multivector routine, for allocation-free spmm
    from scipy.sparse import _sparsetools as _sparsetools

    _CSR_MATVECS = getattr(_sparsetools, "csr_matvecs", None)
except ImportError:  # pragma: no cover - scipy always ships it today
    _CSR_MATVECS = None

_MIN_BUCKET = 16

#: Symbolic axis-0 dimensions: collated node rows and center count.
_SYM_NODES = "N"
_SYM_CENTERS = "C"


class ReplayUnsupported(RuntimeError):
    """The traced forward cannot be compiled into a replay schedule."""


def replay_enabled() -> bool:
    """Whether replay is on: ``REPRO_REPLAY=0`` turns off both engines."""
    return os.environ.get("REPRO_REPLAY", "1") != "0"


def eager_forward_proba(model, batch) -> np.ndarray:
    """Reference eager forward: class probabilities for ``batch``'s centers.

    The slow, obviously-correct oracle for :meth:`ReplayEngine.forward_proba`
    — the same ops the serving path always ran, under
    :func:`~repro.tensor.inference_mode` so no autograd graph is built.
    """
    model.eval()
    with inference_mode():
        return softmax(model(batch), axis=-1).numpy()


def bucket_key(batch) -> Tuple[int, int]:
    """Shape bucket for ``batch``: next-pow2 (node rows, center count)."""
    return (
        _ceil_pow2(int(batch.features.shape[0])),
        _ceil_pow2(int(batch.center_positions.size)),
    )


def _ceil_pow2(value: int) -> int:
    capacity = _MIN_BUCKET
    while capacity < value:
        capacity *= 2
    return capacity


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
class _Step:
    """One recorded op: semantic name, output tensor, inputs, extras."""

    __slots__ = ("op", "out", "inputs", "meta")

    def __init__(self, op: str, out: Tensor, inputs: tuple, meta: Optional[dict]) -> None:
        self.op = op
        self.out = out
        self.inputs = inputs
        self.meta = meta or {}


class Tape:
    """Execution-order recording of one traced forward pass.

    Registers the traced batch's arrays by identity so the compiler can tell
    a batch-dependent leaf (rebound every call) from a true constant (baked
    into the schedule).
    """

    def __init__(self, batch) -> None:
        self.steps: List[_Step] = []
        self.output: Optional[Tensor] = None
        self.slots: Dict[int, Any] = {id(batch.features): "features"}
        for name, matrix in batch.relation_adjacencies.items():
            self.slots[id(matrix)] = ("adjacency", name)
        self.slots[id(batch.center_positions)] = "centers"
        # Any other array hanging off the batch is batch-dependent too; if
        # one leaks into the schedule as a "constant" the compile must fail
        # rather than bake the traced batch's values in.
        self.batch_owned = {
            id(value)
            for value in vars(batch).values()
            if isinstance(value, (np.ndarray, sp.spmatrix))
        }
        self.trace_nodes = int(batch.features.shape[0])
        self.trace_centers = int(batch.center_positions.size)

    def record(self, op: str, out: Tensor, inputs: tuple, meta: Optional[dict]) -> None:
        self.steps.append(_Step(op, out, inputs, meta))


def trace_forward_proba(model, batch) -> Tuple[Tape, np.ndarray]:
    """Run the eager forward once with a tape installed.

    Returns the tape and the eager probabilities — bit-identical to
    :func:`eager_forward_proba` (tracing only records, the same expressions
    run).
    """
    model.eval()
    tape = Tape(batch)
    with inference_mode():
        previous = _install_tape(tape)
        try:
            out = softmax(model(batch), axis=-1)
        finally:
            _restore_tape(previous)
    tape.output = out
    return tape, out.numpy()


# ----------------------------------------------------------------------
# Symbolic shapes
# ----------------------------------------------------------------------
Dim = Any  # int or one of the _SYM_* strings
SymShape = Tuple[Dim, ...]


def _substitute(shape: SymShape, dims: Dict[str, int]) -> Tuple[int, ...]:
    return tuple(dims[d] if isinstance(d, str) else d for d in shape)


def _broadcast_shapes(a: SymShape, b: SymShape) -> SymShape:
    rank = max(len(a), len(b))
    a = (1,) * (rank - len(a)) + tuple(a)
    b = (1,) * (rank - len(b)) + tuple(b)
    out: List[Dim] = []
    for da, db in zip(a, b):
        if da == db:
            out.append(da)
        elif da == 1:
            out.append(db)
        elif db == 1:
            out.append(da)
        else:
            # A symbol never broadcasts against a fixed size (the trace-time
            # coincidence would bake the wrong extent), nor N against C.
            raise ReplayUnsupported(f"cannot broadcast {da!r} with {db!r}")
    return tuple(out)


def _only_axis0_symbolic(shape: SymShape) -> None:
    if any(isinstance(d, str) for d in shape[1:]):
        raise ReplayUnsupported(f"symbolic dimension outside axis 0 in {shape!r}")


def _normalize_axis(axis: Optional[int], rank: int) -> Optional[int]:
    if axis is None:
        return None
    return axis + rank if axis < 0 else axis


# ----------------------------------------------------------------------
# Compile
# ----------------------------------------------------------------------
class _Value:
    """One schedule value: a slot, a live-read constant, or a buffer."""

    __slots__ = ("kind", "slot", "tensor", "buffer", "sym0", "shape")

    def __init__(self, kind: str, shape: SymShape) -> None:
        self.kind = kind
        self.shape = shape
        self.slot: Any = None
        self.tensor: Optional[Tensor] = None
        self.buffer: Optional[np.ndarray] = None
        self.sym0: Optional[str] = None


class CompiledForward:
    """A fused, preallocated kernel schedule for one shape bucket.

    ``run`` rebinds the batch slots, slices every buffer to the live batch
    shape, executes the kernel list, and returns a private copy of the final
    probabilities (the buffers are reused by the next wave).
    """

    def __init__(
        self,
        values: List[_Value],
        kernels: List[Callable[[List[Any]], None]],
        output_index: int,
        capacity: Tuple[int, int],
    ) -> None:
        self._values = values
        self._kernels = kernels
        self._output_index = output_index
        self.capacity = capacity
        # Partition the value list once so ``run`` only touches what changes
        # per call: full-capacity buffers sit in the template verbatim,
        # symbolic buffers are re-sliced to the live batch shape, consts are
        # re-read (``.data`` may be swapped between calls), slots are bound
        # from the batch.
        self._template: List[Any] = [None] * len(values)
        self._sliced: List[Tuple[int, np.ndarray, str]] = []
        self._consts: List[Tuple[int, Any]] = []
        self._slot_binds: List[Tuple[int, Any]] = []
        for index, value in enumerate(values):
            if value.kind == "const":
                self._consts.append((index, value.tensor))
            elif value.kind == "slot":
                self._slot_binds.append((index, value.slot))
        self._bind_buffers()

    def _bind_buffers(self) -> None:
        self._sliced = []
        for index, value in enumerate(self._values):
            if value.kind != "buffer":
                continue
            buffer = self._buffer(value)
            if value.sym0 is None:
                self._template[index] = buffer
            else:
                self._sliced.append((index, buffer, value.sym0))

    def _buffer(self, value: _Value) -> np.ndarray:
        return value.buffer

    def _execute(self, batch) -> List[Any]:
        """Bind the batch, run every kernel, return the value list."""
        dims = {
            _SYM_NODES: int(batch.features.shape[0]),
            _SYM_CENTERS: int(batch.center_positions.size),
        }
        cap_nodes, cap_centers = self.capacity
        if dims[_SYM_NODES] > cap_nodes or dims[_SYM_CENTERS] > cap_centers:
            raise ReplayUnsupported("batch exceeds this bucket's capacity")
        arrays = self._template.copy()
        for index, buffer, sym in self._sliced:
            arrays[index] = buffer[: dims[sym]]
        for index, tensor in self._consts:
            arrays[index] = tensor.data
        for index, slot in self._slot_binds:
            arrays[index] = _batch_slot(batch, slot)
        for kernel in self._kernels:
            kernel(arrays)
        return arrays

    def run(self, batch) -> np.ndarray:
        return self._execute(batch)[self._output_index].copy()


def _batch_slot(batch, slot):
    """The batch array a schedule slot names."""
    if slot == "features":
        return batch.features
    if slot == "centers":
        return batch.center_positions
    if slot == "labels":
        return batch.labels
    return batch.relation_adjacencies[slot[1]]  # ("adjacency", name)


#: Elementwise ops whose kernel may write into a dead input's buffer.
_INPLACE_OPS = frozenset(
    {
        "add",
        "mul",
        "div",
        "neg",
        "pow",
        "exp",
        "log",
        "clip",
        "relu",
        # leaky_relu is absent: its kernel writes x * slope into the output
        # before reading x again, so it must never alias its input.
        "tanh",
        "sigmoid",
        "maximum",
        "softmax",
    }
)

# Concat sink fusion (producers writing straight into column views of the
# fused buffer) was prototyped here and measured SLOWER: numpy ufuncs fall
# off their contiguous fast path on strided destinations, costing ~3x more
# than the memcpy-speed ``np.concatenate`` copies they would save.  Concat
# outputs therefore stay ordinary owned buffers.


class _ConstRef:
    """A constant array addressed like a live-read ``Tensor`` (``.data``)."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        self.data = data


class _Compiler:
    """Turns one :class:`Tape` into a :class:`CompiledForward`."""

    def __init__(self, tape: Tape, capacity: Tuple[int, int]) -> None:
        self.tape = tape
        self.capacity = capacity
        self.values: List[_Value] = []
        self.index_of: Dict[int, int] = {}  # id(Tensor) -> value index
        self.consumers: Dict[int, int] = {}  # value index -> remaining uses
        self.kernels: List[Callable[[List[Any]], None]] = []
        self.slots_used: set = set()
        self.dims = {
            _SYM_NODES: tape.trace_nodes,
            _SYM_CENTERS: tape.trace_centers,
        }
        # Liveness: total consumer count per traced tensor, filled by a
        # pre-pass in ``compile`` so a buffer is claimed for reuse only at
        # its *last* consumer (claiming at the first would corrupt any
        # later reader of the same value).
        self._uses: Dict[int, int] = {}

    # -- values ---------------------------------------------------------
    def _leaf_index(self, tensor: Tensor) -> int:
        key = id(tensor)
        if key in self.index_of:
            return self.index_of[key]
        slot = self.tape.slots.get(id(tensor.data))
        if slot == "features":
            value = _Value("slot", (_SYM_NODES,) + tensor.data.shape[1:])
            value.slot = slot
            self.slots_used.add("features")
        elif id(tensor.data) in self.tape.batch_owned:
            raise ReplayUnsupported(
                "batch-dependent array used as a constant leaf"
            )
        else:
            value = _Value("const", tuple(tensor.data.shape))
            value.tensor = tensor
        index = len(self.values)
        self.values.append(value)
        self.index_of[key] = index
        self.consumers[index] = self._uses.get(key, 0)
        return index

    def _input_index(self, tensor: Tensor) -> int:
        index = self._leaf_index(tensor)
        self.consumers[index] = self.consumers.get(index, 0) - 1
        return index

    def _new_buffer(self, shape: SymShape, dtype) -> int:
        _only_axis0_symbolic(shape)
        value = _Value("buffer", shape)
        value.sym0 = shape[0] if shape and isinstance(shape[0], str) else None
        cap = {_SYM_NODES: self.capacity[0], _SYM_CENTERS: self.capacity[1]}
        value.buffer = np.empty(_substitute(shape, cap), dtype=dtype)
        index = len(self.values)
        self.values.append(value)
        return index

    def _out_index(self, step: _Step, shape: SymShape, input_indices: List[int]) -> int:
        """Output value for ``step``: a dead same-shape input's buffer when
        the op tolerates aliasing (the fusion that trims the working set),
        else a fresh preallocated buffer."""
        if step.op in _INPLACE_OPS:
            for index in input_indices:
                value = self.values[index]
                if (
                    value.kind == "buffer"
                    and value.shape == shape
                    and self.consumers.get(index, 0) == 0
                    and value.buffer.base is None
                ):
                    # Fully consumed after this step, and owns its storage.
                    return index
        return self._new_buffer(shape, step.out.data.dtype)

    def _register_out(self, step: _Step, index: int) -> None:
        self.index_of[id(step.out)] = index
        self.consumers[index] = self._uses.get(id(step.out), 0)

    # -- shape propagation ---------------------------------------------
    def _shape_of(self, index: int) -> SymShape:
        return self.values[index].shape

    def _check(self, step: _Step, shape: SymShape) -> SymShape:
        concrete = _substitute(shape, self.dims)
        if concrete != step.out.data.shape:
            raise ReplayUnsupported(
                f"shape propagation mismatch for {step.op}: "
                f"{concrete} vs traced {step.out.data.shape}"
            )
        return shape

    # -- compile --------------------------------------------------------
    def compile(self) -> CompiledForward:
        tape = self.tape
        if tape.output is None:
            raise ReplayUnsupported("tape has no recorded output")
        produced = {id(step.out) for step in tape.steps}
        if id(tape.output) not in produced:
            raise ReplayUnsupported("traced output was not produced by a recorded op")
        # Liveness pre-pass: total uses per tensor.  The final output gets
        # one reserved use that is never consumed, so no step ever claims
        # its buffer for in-place reuse.
        for step in tape.steps:
            for parent in step.inputs:
                self._uses[id(parent)] = self._uses.get(id(parent), 0) + 1
        self._uses[id(tape.output)] = self._uses.get(id(tape.output), 0) + 1
        for step in tape.steps:
            self._plan_step(step)
        output_index = self.index_of[id(tape.output)]
        if self.values[output_index].kind != "buffer":
            raise ReplayUnsupported("traced output is not a computed value")
        # A schedule that never reads the feature or center slots would have
        # baked a converted/copied batch array in as a constant — refuse it.
        if "features" not in self.slots_used or "centers" not in self.slots_used:
            raise ReplayUnsupported("forward does not consume the batch slots")
        return CompiledForward(self.values, self.kernels, output_index, self.capacity)

    def _plan_step(self, step: _Step) -> None:
        handler = getattr(self, f"_op_{step.op}", None)
        if handler is None:
            raise ReplayUnsupported(f"no replay kernel for op {step.op!r}")
        handler(step)

    # -- op handlers ----------------------------------------------------
    def _binary(self, step: _Step, ufunc) -> None:
        ai = self._input_index(step.inputs[0])
        bi = self._input_index(step.inputs[1])
        shape = self._check(step, _broadcast_shapes(self._shape_of(ai), self._shape_of(bi)))
        oi = self._out_index(step, shape, [ai, bi])
        self._register_out(step, oi)

        def kernel(arrays, ai=ai, bi=bi, oi=oi, ufunc=ufunc):
            ufunc(arrays[ai], arrays[bi], out=arrays[oi])

        self.kernels.append(kernel)

    def _op_add(self, step):
        self._binary(step, np.add)

    def _op_mul(self, step):
        self._binary(step, np.multiply)

    def _op_div(self, step):
        self._binary(step, np.divide)

    def _unary(self, step: _Step, apply) -> None:
        xi = self._input_index(step.inputs[0])
        shape = self._check(step, self._shape_of(xi))
        oi = self._out_index(step, shape, [xi])
        self._register_out(step, oi)

        def kernel(arrays, xi=xi, oi=oi, apply=apply):
            apply(arrays[xi], arrays[oi])

        self.kernels.append(kernel)

    def _op_neg(self, step):
        self._unary(step, lambda x, out: np.negative(x, out=out))

    def _op_exp(self, step):
        self._unary(step, lambda x, out: np.exp(x, out=out))

    def _op_log(self, step):
        self._unary(step, lambda x, out: np.log(x, out=out))

    def _op_tanh(self, step):
        self._unary(step, lambda x, out: np.tanh(x, out=out))

    def _op_relu(self, step):
        def apply(x, out):
            mask = (x > 0).astype(x.dtype)
            np.multiply(x, mask, out=out)

        self._unary(step, apply)

    def _op_leaky_relu(self, step):
        negative_slope = step.meta["negative_slope"]

        def apply(x, out, negative_slope=negative_slope):
            # max(x, x * slope) is bitwise-equal to the eager
            # where(x > 0, 1, slope) * x form for 0 < slope < 1 (checked down
            # to subnormals, signed zeros, and NaN propagation) and skips the
            # float64 slope materialization.
            np.multiply(x, negative_slope, out=out)
            np.maximum(x, out, out=out)

        self._unary(step, apply)

    def _op_sigmoid(self, step):
        def apply(x, out):
            denom = np.exp(np.negative(x))
            np.add(denom, 1.0, out=denom)
            np.divide(1.0, denom, out=out)

        self._unary(step, apply)

    def _op_clip(self, step):
        low, high = step.meta["low"], step.meta["high"]
        self._unary(step, lambda x, out, low=low, high=high: np.clip(x, low, high, out=out))

    def _op_pow(self, step):
        exponent = step.meta["exponent"]
        self._unary(step, lambda x, out, e=exponent: np.power(x, e, out=out))

    def _op_maximum(self, step):
        value = step.meta["value"]
        self._unary(step, lambda x, out, v=value: np.maximum(x, v, out=out))

    def _op_softmax(self, step):
        axis = step.meta["axis"]

        def apply(x, out, axis=axis):
            # The eager subtract-max/exp/normalize sequence, with the shifted
            # intermediate landing straight in the output buffer (safe when
            # ``out`` aliases ``x``: the max is reduced before the first
            # elementwise write).  The raw ufunc reduces are what np.amax and
            # np.sum delegate to — identical sums, less wrapper dispatch.
            np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), out=out)
            np.exp(out, out=out)
            total = np.add.reduce(out, axis=axis, keepdims=True)
            np.divide(out, total, out=out)

        self._unary(step, apply)

    def _op_log_softmax(self, step):
        axis = step.meta["axis"]

        def apply(x, out, axis=axis):
            shifted = x - np.amax(x, axis=axis, keepdims=True)
            log_sum = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
            np.subtract(shifted, log_sum, out=out)

        self._unary(step, apply)

    def _reduction_shape(self, step: _Step, shape: SymShape) -> SymShape:
        axis = _normalize_axis(step.meta["axis"], len(shape))
        keepdims = step.meta["keepdims"]
        if axis is None:
            return (1,) * len(shape) if keepdims else ()
        reduced = list(shape)
        if keepdims:
            reduced[axis] = 1
        else:
            del reduced[axis]
        return tuple(reduced)

    def _op_sum(self, step):
        self._reduce(step, scale_by_count=False)

    def _op_mean(self, step):
        self._reduce(step, scale_by_count=True)

    def _reduce(self, step: _Step, scale_by_count: bool) -> None:
        xi = self._input_index(step.inputs[0])
        shape = self._check(step, self._reduction_shape(step, self._shape_of(xi)))
        oi = self._new_buffer(shape, step.out.data.dtype)
        self._register_out(step, oi)
        axis = step.meta["axis"]
        keepdims = step.meta["keepdims"]

        def kernel(arrays, xi=xi, oi=oi, axis=axis, keepdims=keepdims, scale=scale_by_count):
            x = arrays[xi]
            out = arrays[oi]
            # np.add.reduce is what np.sum delegates to; calling it directly
            # skips the wrapper dispatch (the sums themselves are identical).
            np.add.reduce(x, axis=axis, keepdims=keepdims, out=out)
            if scale:
                count = x.size if axis is None else x.shape[axis]
                np.multiply(out, 1.0 / count, out=out)

        self.kernels.append(kernel)

    def _op_max(self, step):
        xi = self._input_index(step.inputs[0])
        shape = self._check(step, self._reduction_shape(step, self._shape_of(xi)))
        oi = self._new_buffer(shape, step.out.data.dtype)
        self._register_out(step, oi)
        axis = step.meta["axis"]
        keepdims = step.meta["keepdims"]

        def kernel(arrays, xi=xi, oi=oi, axis=axis, keepdims=keepdims):
            x = arrays[xi]
            np.maximum.reduce(x, axis=axis, keepdims=keepdims, out=arrays[oi])

        self.kernels.append(kernel)

    def _op_matmul(self, step):
        ai = self._input_index(step.inputs[0])
        bi = self._input_index(step.inputs[1])
        a_shape, b_shape = self._shape_of(ai), self._shape_of(bi)
        if len(a_shape) != 2 or len(b_shape) != 2:
            raise ReplayUnsupported("only 2-D matmul is replayable")
        if isinstance(a_shape[1], str) or a_shape[1] != b_shape[0]:
            raise ReplayUnsupported("matmul inner dimensions must be fixed and equal")
        shape = self._check(step, (a_shape[0], b_shape[1]))
        oi = self._new_buffer(shape, step.out.data.dtype)
        self._register_out(step, oi)

        def kernel(arrays, ai=ai, bi=bi, oi=oi):
            np.matmul(arrays[ai], arrays[bi], out=arrays[oi])

        self.kernels.append(kernel)

    def _op_spmm(self, step):
        matrix = step.meta["matrix"]
        slot = self.tape.slots.get(id(matrix))
        xi = self._input_index(step.inputs[0])
        x_shape = self._shape_of(xi)
        if len(x_shape) != 2:
            raise ReplayUnsupported("spmm needs a 2-D dense operand")
        if slot is not None:
            mi = self._slot_matrix_index(slot)
            mat_shape: SymShape = (_SYM_NODES, _SYM_NODES)
            self.slots_used.add("adjacency")
        elif id(matrix) in self.tape.batch_owned:
            raise ReplayUnsupported("batch-dependent sparse matrix is not a slot")
        else:
            mi = self._const_matrix_index(matrix)
            mat_shape = tuple(matrix.shape)
        if mat_shape[1] != x_shape[0]:
            raise ReplayUnsupported("spmm inner dimensions must match symbolically")
        shape = self._check(step, (mat_shape[0], x_shape[1]))
        oi = self._new_buffer(shape, step.out.data.dtype)
        self._register_out(step, oi)

        def kernel(arrays, mi=mi, xi=xi, oi=oi):
            matrix = arrays[mi]
            x = arrays[xi]
            out = arrays[oi]
            if (
                _CSR_MATVECS is not None
                and type(matrix) is sp.csr_matrix
                and out.flags.c_contiguous
            ):
                # scipy's _matmul_multivector on a preallocated result:
                # zero the target, then accumulate with csr_matvecs —
                # bit-identical to ``matrix @ x``.
                out.fill(0.0)
                _CSR_MATVECS(
                    matrix.shape[0],
                    matrix.shape[1],
                    x.shape[1],
                    matrix.indptr,
                    matrix.indices,
                    matrix.data,
                    x.ravel(),
                    out.ravel(),
                )
            else:
                out[...] = matrix.tocsr() @ x

        self.kernels.append(kernel)

    def _slot_matrix_index(self, slot) -> int:
        key = ("slot-matrix",) + tuple(slot)
        cached = self.index_of.get(key)  # type: ignore[arg-type]
        if cached is not None:
            return cached
        value = _Value("slot", (_SYM_NODES, _SYM_NODES))
        value.slot = slot
        index = len(self.values)
        self.values.append(value)
        self.index_of[key] = index  # type: ignore[index]
        return index

    def _const_matrix_index(self, matrix) -> int:
        value = _Value("const", tuple(matrix.shape))
        value.tensor = _ConstRef(matrix)  # type: ignore[assignment]
        index = len(self.values)
        self.values.append(value)
        return index

    def _op_concat(self, step):
        indices = [self._input_index(t) for t in step.inputs]
        axis = step.meta["axis"]
        shapes = [self._shape_of(i) for i in indices]
        rank = len(shapes[0])
        norm_axis = _normalize_axis(axis, rank)
        total = 0
        for shape in shapes:
            if len(shape) != rank:
                raise ReplayUnsupported("concat rank mismatch")
            for position, dim in enumerate(shape):
                if position == norm_axis:
                    if isinstance(dim, str):
                        raise ReplayUnsupported("concat along a symbolic axis")
                    total += dim
                elif dim != shapes[0][position]:
                    raise ReplayUnsupported("concat non-axis dimensions must agree")
        shape = list(shapes[0])
        shape[norm_axis] = total
        out_shape = self._check(step, tuple(shape))
        oi = self._new_buffer(out_shape, step.out.data.dtype)
        self._register_out(step, oi)
        # One slab assignment per input: the same copies np.concatenate
        # performs, without rebuilding the input list on every replay.
        destinations = []
        offset = 0
        for source_shape in shapes:
            extent = source_shape[norm_axis]
            destinations.append(
                (slice(None),) * norm_axis + (slice(offset, offset + extent),)
            )
            offset += extent

        def kernel(arrays, indices=tuple(indices), oi=oi, destinations=tuple(destinations)):
            out = arrays[oi]
            for destination, i in zip(destinations, indices):
                out[destination] = arrays[i]

        self.kernels.append(kernel)

    def _op_stack(self, step):
        indices = [self._input_index(t) for t in step.inputs]
        axis = step.meta["axis"]
        shapes = [self._shape_of(i) for i in indices]
        if any(shape != shapes[0] for shape in shapes):
            raise ReplayUnsupported("stack inputs must share a shape")
        if any(isinstance(dim, str) for dim in shapes[0]):
            raise ReplayUnsupported("stack of symbolic shapes")
        norm_axis = _normalize_axis(axis, len(shapes[0]) + 1)
        shape = shapes[0][:norm_axis] + (len(indices),) + shapes[0][norm_axis:]
        out_shape = self._check(step, shape)
        oi = self._new_buffer(out_shape, step.out.data.dtype)
        self._register_out(step, oi)
        # One slice assignment per part: the same copies np.stack performs,
        # without rebuilding the expanded-view list on every replay.
        destinations = tuple(
            (slice(None),) * norm_axis + (position,) for position in range(len(indices))
        )

        def kernel(arrays, indices=tuple(indices), oi=oi, destinations=destinations):
            out = arrays[oi]
            for destination, i in zip(destinations, indices):
                out[destination] = arrays[i]

        self.kernels.append(kernel)

    def _op_getitem(self, step):
        self._gather(step, step.meta["index"])

    def _op_gather(self, step):
        self._gather(step, step.meta["index"])

    def _gather(self, step: _Step, index) -> None:
        xi = self._input_index(step.inputs[0])
        x_shape = self._shape_of(xi)
        if isinstance(index, np.ndarray):
            slot = self.tape.slots.get(id(index))
            if slot == "centers":
                self.slots_used.add("centers")
                if index.ndim != 1:
                    raise ReplayUnsupported("center index must be 1-D")
                shape = self._check(step, (_SYM_CENTERS,) + x_shape[1:])
                oi = self._new_buffer(shape, step.out.data.dtype)
                self._register_out(step, oi)
                # Bind the index through the value list, not a closure over
                # the traced batch's array.
                ci = self._centers_index()

                def kernel(arrays, xi=xi, ci=ci, oi=oi):
                    np.take(arrays[xi], arrays[ci], axis=0, out=arrays[oi])

                self.kernels.append(kernel)
                return
            if id(index) in self.tape.batch_owned:
                raise ReplayUnsupported("batch-dependent gather index is not a slot")
            if isinstance(x_shape[0], str) or index.ndim != 1:
                raise ReplayUnsupported("constant gather over a symbolic axis")
            frozen = index.copy()
            shape = self._check(step, (int(frozen.size),) + x_shape[1:])
            oi = self._new_buffer(shape, step.out.data.dtype)
            self._register_out(step, oi)

            def kernel(arrays, xi=xi, oi=oi, frozen=frozen):
                np.take(arrays[xi], frozen, axis=0, out=arrays[oi])

            self.kernels.append(kernel)
            return
        if isinstance(index, (int, np.integer)):
            if isinstance(x_shape[0], str):
                raise ReplayUnsupported("integer index into a symbolic axis")
            shape = self._check(step, x_shape[1:])
            oi = self._new_buffer(shape, step.out.data.dtype)
            self._register_out(step, oi)
            frozen = int(index)

            def kernel(arrays, xi=xi, oi=oi, frozen=frozen):
                x = arrays[xi]
                arrays[oi][...] = x[frozen]

            self.kernels.append(kernel)
            return
        raise ReplayUnsupported(f"unsupported index type {type(index).__name__}")

    def _centers_index(self) -> int:
        return self._slot("centers", (_SYM_CENTERS,))

    def _slot(self, name: str, shape: SymShape) -> int:
        """The value bound to batch slot ``name`` (one per schedule)."""
        key = ("slot", name)
        cached = self.index_of.get(key)  # type: ignore[arg-type]
        if cached is not None:
            return cached
        value = _Value("slot", shape)
        value.slot = name
        index = len(self.values)
        self.values.append(value)
        self.index_of[key] = index  # type: ignore[index]
        return index

    def _op_reshape(self, step):
        xi = self._input_index(step.inputs[0])
        if any(isinstance(dim, str) for dim in self._shape_of(xi)):
            raise ReplayUnsupported("reshape of a symbolic shape")
        shape = self._check(step, tuple(step.out.data.shape))
        oi = self._new_buffer(shape, step.out.data.dtype)
        self._register_out(step, oi)
        target = tuple(step.out.data.shape)

        def kernel(arrays, xi=xi, oi=oi, target=target):
            x = arrays[xi]
            arrays[oi][...] = x.reshape(target)

        self.kernels.append(kernel)

    def _op_transpose(self, step):
        xi = self._input_index(step.inputs[0])
        x_shape = self._shape_of(xi)
        if any(isinstance(dim, str) for dim in x_shape):
            raise ReplayUnsupported("transpose of a symbolic shape")
        shape = self._check(step, tuple(reversed(x_shape)))
        oi = self._new_buffer(shape, step.out.data.dtype)
        self._register_out(step, oi)

        def kernel(arrays, xi=xi, oi=oi):
            x = arrays[xi]
            arrays[oi][...] = x.T

        self.kernels.append(kernel)


def compile_tape(tape: Tape, capacity: Tuple[int, int]) -> CompiledForward:
    """Compile a traced forward into a replay schedule for ``capacity``."""
    return _Compiler(tape, capacity).compile()


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ReplayEngine:
    """Per-session cache of compiled forward schedules, keyed by shape bucket.

    Not internally synchronized: an engine belongs to exactly one
    :class:`repro.api.DetectionSession`, which serializes every call under
    its lock (guarded-by: DetectionSession._lock).  Sharing an engine across
    sessions would share mutable replay buffers across threads.

    The miss path runs the eager forward (tracing it), compiles the tape,
    and self-checks the compiled schedule bitwise against the eager result
    before caching it; any compile failure or bit mismatch permanently
    disables capture for this engine and every later call falls back to
    :func:`eager_forward_proba`.
    """

    def __init__(self, max_buckets: Optional[int] = None, capture: bool = True) -> None:
        if max_buckets is None:
            max_buckets = int(os.environ.get("REPRO_REPLAY_BUCKETS", "8"))
        self.max_buckets = max(1, int(max_buckets))
        self._model = None
        self._compiled: "OrderedDict[Tuple[int, int], CompiledForward]" = OrderedDict()
        # ``capture=False`` yields a permanently-eager engine that still
        # times the forward pass — replay-off deployments then report the
        # same model_time metric the replay path does.
        self._disabled = not capture
        self._stats = self._zero_stats()

    @staticmethod
    def _zero_stats() -> Dict[str, float]:
        return {
            "model_s": 0.0,
            "replay_hits": 0,
            "replay_misses": 0,
            "replay_evictions": 0,
        }

    @property
    def disabled(self) -> bool:
        return self._disabled

    def consume_stats(self) -> Dict[str, float]:
        """Return and reset the counters accumulated since the last call."""
        stats = self._stats
        self._stats = self._zero_stats()
        return stats

    def forward_proba(self, model, batch) -> np.ndarray:  # oracle: eager_forward_proba
        """Class probabilities for ``batch``, replayed when the bucket is warm.

        Bit-identical to :func:`eager_forward_proba` by contract: a hit runs
        the compiled schedule (whose kernels mirror the eager NumPy
        expressions exactly), a miss runs eager-and-capture, and any doubt —
        unsupported op, shape surprise, failed self-check — disables capture
        and serves eager output.
        """
        start = time.perf_counter()
        try:
            return self._forward(model, batch)
        finally:
            self._stats["model_s"] += time.perf_counter() - start

    def _forward(self, model, batch) -> np.ndarray:
        if self._disabled:
            return eager_forward_proba(model, batch)
        if self._model is None:
            self._model = model
        elif self._model is not model:
            # One engine serves one architecture; a different model object
            # means a different parameter set mid-session — stay eager.
            return eager_forward_proba(model, batch)
        key = bucket_key(batch)
        compiled = self._compiled.get(key)
        if compiled is not None:
            self._compiled.move_to_end(key)
            try:
                probabilities = compiled.run(batch)
            except Exception:
                self._disabled = True
                return eager_forward_proba(model, batch)
            self._stats["replay_hits"] += 1
            return probabilities
        self._stats["replay_misses"] += 1
        tape, eager_out = trace_forward_proba(model, batch)
        try:
            compiled = compile_tape(tape, key)
            replayed = compiled.run(batch)
        except ReplayUnsupported:
            self._disabled = True
            return eager_out
        except Exception:
            self._disabled = True
            return eager_out
        if replayed.shape != eager_out.shape or not np.array_equal(replayed, eager_out):
            # The bit-identity gate: a schedule that cannot reproduce its own
            # trace batch must never serve traffic.
            self._disabled = True
            return eager_out
        self._compiled[key] = compiled
        if len(self._compiled) > self.max_buckets:
            self._compiled.popitem(last=False)
            self._stats["replay_evictions"] += 1
        return eager_out
