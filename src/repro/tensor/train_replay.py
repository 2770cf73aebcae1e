"""Compiled training step: forward, backward and Adam from one schedule.

The eager step (:func:`eager_train_step`) builds a ``Tensor`` graph, walks
it in ``Tensor.backward`` and runs ``Adam.step`` — Python objects, closures
and fresh arrays on every op.  :class:`TrainReplayEngine` captures the step
once per shape bucket with the tape of :mod:`repro.tensor.replay` (recorded
on the autograd path) and replays it as one linear schedule of raw-NumPy
kernels:

* the forward reuses the inference op handlers, plus dropout (drawn from
  the module's own generator with the live shape, in eager order), the
  fused CE + L2 loss and the live-shape ``mean`` scale;
* the adjoint is generated from the forward trace by walking the graph in
  ``Tensor.backward``'s own order and emitting each op's backward
  expressions; gradient contributions accumulate with eager's
  first-alias / then-sum / then-in-place rules, so every sum is bracketed
  the same way, and gradients nobody consumes are never computed;
* Adam runs ``Adam.step``'s expressions one by one into scratch buffers.

Buffers are assigned by live range and live in one arena shared by every
bucket.  A capture-time self-check replays the traced batch from a snapshot
and compares loss, parameters, gradients, Adam state and generator state bit
for bit with the eager step; any doubt leaves the fit on the eager path.
``REPRO_REPLAY=0`` turns the engine off.

Ops without an adjoint kernel here (the plugin GAT backbone's edge gathers,
for one) raise :class:`~repro.tensor.replay.ReplayUnsupported` at compile
time.  This module is imported by the training loop only, so serving
processes never load it.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.tensor.losses import (
    _fused_ce_backward,
    _fused_ce_forward,
    _l2_forward,
    fused_cross_entropy,
)
from repro.tensor.replay import (
    _SYM_CENTERS,
    _SYM_NODES,
    CompiledForward,
    ReplayUnsupported,
    SymShape,
    Tape,
    _Compiler,
    _ConstRef,
    _normalize_axis,
    _only_axis0_symbolic,
    _Step,
    _substitute,
    _Value,
    bucket_key,
    replay_enabled,
)
from repro.tensor.tensor import (
    Tensor,
    _install_tape,
    _restore_tape,
    _topological_order,
    _unbroadcast,
)

try:  # scipy's CSC mat-multivector routine: ``A.T @ X`` on a CSR ``A``
    from scipy.sparse import _sparsetools as _sparsetools

    _CSC_MATVECS = getattr(_sparsetools, "csc_matvecs", None)
except ImportError:  # pragma: no cover - scipy always ships it today
    _CSC_MATVECS = None


def eager_train_step(
    model,
    optimizer,
    batch,
    class_weight: Optional[np.ndarray] = None,
    weight_decay: float = 0.0,
    tape: Optional[Tape] = None,
) -> Tensor:
    """Reference training step: eager forward, fused CE + L2, backward, Adam.

    The oracle for :meth:`TrainReplayEngine.step`; returns the loss tensor
    (``.item()`` is the step's loss).  With ``tape`` the forward and the loss
    are recorded on it (tracing only records; the same expressions run) and
    the loss tensor is kept as ``tape.output``.
    """
    optimizer.zero_grad(set_to_none=False)
    previous = _install_tape(tape)
    try:
        logits = model(batch)
        loss = fused_cross_entropy(
            logits,
            batch.labels,
            weight=class_weight,
            parameters=optimizer.parameters,
            weight_decay=weight_decay,
        )
    finally:
        _restore_tape(previous)
    if tape is not None:
        tape.output = loss
    loss.backward()
    optimizer.step()
    return loss


class _Arena:
    """Flat scratch arrays shared by every bucket's compiled training step.

    Each schedule's live-range allocator numbers its slots per dtype; slot k
    of every bucket lands in the same flat array, grown to the largest
    request, so the working set is one bucket's footprint however many
    buckets compile.  ``version`` bumps on growth so schedules rebind.
    """

    def __init__(self) -> None:
        self._flats: Dict[Tuple[str, int], np.ndarray] = {}
        self.version = 0

    def reserve(self, key: Tuple[str, int], size: int) -> None:
        flat = self._flats.get(key)
        if flat is None or flat.size < size:
            self._flats[key] = np.empty(max(size, 1), dtype=np.dtype(key[0]))
            self.version += 1

    def view(self, key: Tuple[str, int], shape: Tuple[int, ...]) -> np.ndarray:
        return self._flats[key][: int(np.prod(shape, dtype=np.int64))].reshape(shape)


class CompiledTrainStep(CompiledForward):
    """Forward, adjoint and Adam kernels of one training step for one bucket.

    ``run`` binds the batch slots, slices the arena views to the live batch
    shape and executes the kernel list; it returns the loss as a float and
    leaves parameters, their gradients, Adam's moments and the dropout
    generators exactly where the eager step would.
    """

    def __init__(
        self,
        values: List[_Value],
        kernels: List[Callable[[List[Any]], None]],
        loss_index: int,
        capacity: Tuple[int, int],
        arena: _Arena,
    ) -> None:
        self._arena = arena
        super().__init__(values, kernels, loss_index, capacity)
        self._bound_version = arena.version

    def _buffer(self, value: _Value) -> np.ndarray:
        cap = {_SYM_NODES: self.capacity[0], _SYM_CENTERS: self.capacity[1]}
        return self._arena.view(value.buffer, _substitute(value.shape, cap))

    def run(self, batch) -> float:
        if self._bound_version != self._arena.version:
            # Another bucket grew the arena: rebind to the new flats.
            self._bind_buffers()
            self._bound_version = self._arena.version
        return float(self._execute(batch)[self._output_index].reshape(-1)[0])


class _TrainCompiler(_Compiler):
    """Turns a traced training step into a :class:`CompiledTrainStep`.

    The forward reuses the inference op handlers without their in-place
    fusion (the adjoint reads forward values); once the whole step is
    planned, buffers get arena slots by live range.  The adjoint schedule is
    generated by walking the traced graph in ``Tensor.backward``'s own
    order and emitting, per op, the exact NumPy expressions of its
    ``_backward`` closure; gradient contributions are accumulated with the
    same first-alias / then-sum / then-in-place rules, so every sum is
    bracketed as in eager.  Contributions to tensors that do not require a
    gradient are never computed (eager drops them).  Adam
    follows, expression for expression.
    """

    def __init__(self, tape: Tape, capacity: Tuple[int, int], arena: _Arena, optimizer) -> None:
        super().__init__(tape, capacity)
        self.arena = arena
        self.optimizer = optimizer
        # Values each kernel touches (for buffer liveness), parallel to
        # ``self.kernels``, and the buffers a view or fresh value may alias.
        self.kernel_uses: List[Tuple[int, ...]] = []
        self._aliases: Dict[int, Tuple[int, ...]] = {}
        # Per-op state the adjoint reads: dropout masks, loss contexts.
        self._aux: Dict[int, Any] = {}

    # -- values ---------------------------------------------------------
    def _new_buffer(self, shape: SymShape, dtype) -> int:
        # A virtual buffer: ``_allocate`` maps it onto an arena slot once
        # every live range is known.
        _only_axis0_symbolic(shape)
        value = _Value("buffer", shape)
        value.sym0 = shape[0] if shape and isinstance(shape[0], str) else None
        value.buffer = np.dtype(dtype)
        index = len(self.values)
        self.values.append(value)
        return index

    def _emit(self, kernel: Callable[[List[Any]], None], *uses: int) -> None:
        self.kernels.append(kernel)
        self.kernel_uses.append(uses)

    def _plan_step(self, step: _Step) -> None:
        super()._plan_step(step)
        # Inherited forward handlers append one kernel reading the inputs
        # and writing the output.
        while len(self.kernel_uses) < len(self.kernels):
            self.kernel_uses.append(
                tuple(self.index_of[id(t)] for t in step.inputs) + (self._fwd(step.out),)
            )

    def _bases(self, index: int) -> Tuple[int, ...]:
        if self.values[index].kind == "buffer":
            return (index,)
        return self._aliases.get(index, ())

    def _allocate(self, loss_index: int) -> None:
        """Map virtual buffers onto arena slots by live range.

        A buffer lives from the first to the last kernel touching it (or a
        view of it); a slot is handed on only after its holder's last use,
        so no kernel ever sees two of its operands share memory.
        """
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        uses = list(self.kernel_uses) + [(loss_index,)]
        for position, touched in enumerate(uses):
            for index in touched:
                for base in self._bases(index):
                    first.setdefault(base, position)
                    last[base] = position
        cap = {_SYM_NODES: self.capacity[0], _SYM_CENTERS: self.capacity[1]}
        buffers = [i for i, value in enumerate(self.values) if value.kind == "buffer"]
        buffers.sort(key=lambda i: first.get(i, -1))
        sizes: Dict[Tuple[str, int], int] = {}
        free: Dict[str, List[Tuple[str, int]]] = {}
        active: List[Tuple[int, Tuple[str, int]]] = []
        for index in buffers:
            value = self.values[index]
            dtype = value.buffer.str
            need = int(np.prod(_substitute(value.shape, cap), dtype=np.int64))
            start = first.get(index, -1)
            for entry in [entry for entry in active if entry[0] < start]:
                active.remove(entry)
                free.setdefault(entry[1][0], []).append(entry[1])
            pool = free.get(dtype, [])
            fitting = [key for key in pool if sizes[key] >= need]
            if fitting:
                key = fitting[-1]  # the most recently freed: warm in cache
            elif pool:
                key = max(pool, key=lambda k: sizes[k])
            else:
                key = (dtype, sum(1 for k in sizes if k[0] == dtype))
                sizes[key] = 0
            if key in pool:
                pool.remove(key)
            sizes[key] = max(sizes[key], need)
            value.buffer = key  # arena key; viewed at bind time
            active.append((last.get(index, start), key))
        for key, size in sizes.items():
            self.arena.reserve(key, size)

    def _out_index(self, step: _Step, shape: SymShape, input_indices: List[int]) -> int:
        # No in-place fusion: the adjoint reads forward values.
        return self._new_buffer(shape, step.out.data.dtype)

    def _dyn(self, shape: SymShape) -> int:
        """A value bound by its kernel on every run (a view or a fresh array)."""
        index = len(self.values)
        self.values.append(_Value("dyn", shape))
        return index

    def _const(self, data) -> int:
        value = _Value("const", tuple(np.shape(data)))
        value.tensor = _ConstRef(data)
        index = len(self.values)
        self.values.append(value)
        return index

    def _fwd(self, tensor: Tensor) -> int:
        return self.index_of[id(tensor)]

    # -- compile --------------------------------------------------------
    def compile_step(self) -> CompiledTrainStep:
        tape = self.tape
        loss = tape.output
        if loss is None or loss.data.shape != ():
            raise ReplayUnsupported("training tape has no scalar loss")
        params = list(self.optimizer.parameters)

        def zero_grads(arrays, params=params):
            for param in params:
                param.zero_grad(set_to_none=False)

        self._emit(zero_grads)
        for step in tape.steps:
            self._plan_step(step)
        if id(loss) not in self.index_of:
            raise ReplayUnsupported("loss was not produced by a recorded op")
        if not {"features", "centers", "labels"} <= self.slots_used:
            raise ReplayUnsupported("step does not consume the batch slots")
        self._plan_backward(loss, params)
        self._plan_adam(params)
        self._allocate(self._fwd(loss))
        return CompiledTrainStep(
            self.values, self.kernels, self._fwd(loss), self.capacity, self.arena
        )

    # -- training-only forward ops --------------------------------------
    def _op_spmm(self, step):
        if step.inputs[0].data.ndim != 2 or step.inputs[0].data.shape[1] == 1:
            # scipy routes one-column operands through csr_matvec.
            raise ReplayUnsupported("spmm replay needs a multi-column operand")
        super()._op_spmm(step)

    def _op_dropout(self, step):
        xi = self._input_index(step.inputs[0])
        shape = self._check(step, self._shape_of(xi))
        rng = step.meta["rng"]
        if not isinstance(rng, np.random.Generator):
            raise ReplayUnsupported("dropout needs a numpy Generator")
        keep = 1.0 - step.meta["rate"]
        # True / keep rounds exactly like 1.0 * (1.0 / keep): one division
        # here instead of one per element.
        scale = 1.0 / keep
        mi = self._new_buffer(shape, np.float64)
        oi = self._new_buffer(shape, step.out.data.dtype)
        self._register_out(step, oi)
        self._aux[id(step.out)] = mi

        def kernel(arrays, xi=xi, mi=mi, oi=oi, rng=rng, keep=keep, scale=scale):
            # (rng.random(shape) < keep).astype(float64) / keep, drawn
            # straight into the mask buffer: the same stream, no allocation.
            mask = arrays[mi]
            rng.random(out=mask)
            np.less(mask, keep, out=mask)
            np.multiply(mask, scale, out=mask)
            np.multiply(arrays[xi], mask, out=arrays[oi])

        self._emit(kernel, xi, mi, oi)

    def _op_mean_scale(self, step):
        ti = self._input_index(step.inputs[0])
        si = self._fwd(step.meta["source"])
        axis = step.meta["axis"]
        oi = self._new_buffer(self._check(step, self._shape_of(ti)), step.out.data.dtype)
        self._register_out(step, oi)

        def kernel(arrays, ti=ti, si=si, oi=oi, axis=axis):
            source = arrays[si]
            count = source.size if axis is None else source.shape[axis]
            np.multiply(arrays[ti], 1.0 / count, out=arrays[oi])

        self._emit(kernel, ti, si, oi)

    def _op_fused_ce(self, step):
        xi = self._input_index(step.inputs[0])
        labels = step.meta["labels"]
        if self.tape.slots.get(id(labels)) != "labels":
            raise ReplayUnsupported("loss labels are not the batch labels")
        self.slots_used.add("labels")
        li = self._slot("labels", (_SYM_CENTERS,))
        weight = step.meta["weight"]
        oi = self._dyn(self._check(step, ()))
        self._register_out(step, oi)
        context: List[Any] = [None]
        self._aux[id(step.out)] = context

        def kernel(arrays, xi=xi, li=li, oi=oi, weight=weight, context=context):
            value, context[0] = _fused_ce_forward(arrays[xi], arrays[li], weight)
            arrays[oi] = np.asarray(value)

        self._emit(kernel, xi, oi)

    def _op_l2(self, step):
        indices = tuple(self._input_index(param) for param in step.inputs)
        coefficient = step.meta["coefficient"]
        oi = self._dyn(self._check(step, ()))
        self._register_out(step, oi)

        def kernel(arrays, indices=indices, oi=oi, coefficient=coefficient):
            arrays[oi] = _l2_forward([arrays[i] for i in indices], coefficient)

        self._emit(kernel, oi)

    # -- adjoint --------------------------------------------------------
    def _plan_backward(self, loss: Tensor, params: List[Tensor]) -> None:
        records = {id(step.out): step for step in self.tape.steps}
        param_ids = {id(param) for param in params}
        if len(param_ids) != len(params):
            raise ReplayUnsupported("optimizer lists a parameter twice")
        grads: Dict[int, int] = {id(loss): self._const(np.ones_like(loss.data))}
        owned: set = set()
        reached: set = set()
        for node in reversed(_topological_order(loss)):
            gi = grads.pop(id(node), None)
            if gi is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    if id(node) not in param_ids:
                        raise ReplayUnsupported("a non-parameter leaf requires grad")
                    reached.add(id(node))

                    def accumulate(arrays, param=node, gi=gi):
                        param._accumulate(arrays[gi])

                    self._emit(accumulate, gi)
                continue
            step = records.get(id(node))
            if step is None:
                raise ReplayUnsupported("gradient graph holds an untraced op")
            handler = getattr(self, f"_vjp_{step.op}", None)
            if handler is None:
                raise ReplayUnsupported(f"no adjoint kernel for op {step.op!r}")
            for parent, ci in handler(step, gi):
                key = id(parent)
                if key not in grads:
                    grads[key] = ci
                    continue
                if self._shape_of(grads[key]) != self._shape_of(ci):
                    raise ReplayUnsupported("gradient shapes disagree")
                if key in owned:
                    target = grads[key]
                else:
                    target = self._new_buffer(self._shape_of(ci), np.float64)

                def add(arrays, ai=grads[key], ci=ci, oi=target):
                    np.add(arrays[ai], arrays[ci], out=arrays[oi])

                self._emit(add, grads[key], ci, target)
                grads[key] = target
                owned.add(key)
        if reached != param_ids:
            raise ReplayUnsupported("a parameter receives no gradient")

    def _grad_inputs(self, step: _Step):
        return [(position, t) for position, t in enumerate(step.inputs) if t.requires_grad]

    def _reduce_to(self, gi: int, parent: Tensor) -> int:
        """``_unbroadcast(grad, parent.shape)`` as a schedule value."""
        target = self._shape_of(self._fwd(parent))
        source = self._shape_of(gi)
        if source == target:
            return gi
        if len(source) == 2 and len(target) == 1 and source[1] == target[0]:
            # _unbroadcast's single leading-axis sum.
            oi = self._new_buffer(target, np.float64)

            def reduce(arrays, gi=gi, oi=oi):
                # ``grad.sum(axis=0)`` over the gradient value itself, whose
                # layout mirrors the eager array's (buffers are C-ordered,
                # views are the same views).
                grad = arrays[gi]
                np.add.reduce(grad, axis=0, out=arrays[oi])

            self._emit(reduce, gi, oi)
            return oi
        pi = self._fwd(parent)
        return self._literal(target, lambda g, p: _unbroadcast(g, p.shape), gi, pi)

    def _elementwise(self, shape: SymShape, apply, *operands: int) -> int:
        """A buffer filled by ``apply(*arrays, out)`` on every run."""
        oi = self._new_buffer(shape, np.float64)
        if len(operands) == 1:

            def kernel(arrays, a=operands[0], oi=oi, apply=apply):
                apply(arrays[a], arrays[oi])

        elif len(operands) == 2:

            def kernel(arrays, a=operands[0], b=operands[1], oi=oi, apply=apply):
                apply(arrays[a], arrays[b], arrays[oi])

        else:

            def kernel(arrays, operands=operands, oi=oi, apply=apply):
                apply(*[arrays[i] for i in operands], arrays[oi])

        self._emit(kernel, *operands, oi)
        return oi

    def _literal(self, shape: SymShape, expression, *operands: int) -> int:
        """A value bound to the eager closure's own expression (cold ops).

        The result may be a view of an operand, so it keeps every operand's
        buffers alive for as long as it is read.
        """
        oi = self._dyn(shape)
        self._aliases[oi] = tuple(b for i in operands for b in self._bases(i))

        def kernel(arrays, operands=operands, oi=oi, expression=expression):
            arrays[oi] = expression(*[arrays[i] for i in operands])

        self._emit(kernel, *operands, oi)
        return oi

    def _vjp_add(self, step, gi):
        return [(t, self._reduce_to(gi, t)) for _, t in self._grad_inputs(step)]

    def _vjp_mul(self, step, gi):
        a, b = step.inputs
        pairs = []
        for this, other in ((a, b), (b, a)):
            if not this.requires_grad:
                continue
            product = self._elementwise(
                self._shape_of(gi), lambda g, o, out: np.multiply(g, o, out=out), gi, self._fwd(other)
            )
            pairs.append((this, self._reduce_to(product, this)))
        return pairs

    def _vjp_sum(self, step, gi):
        x = step.inputs[0]
        axis, keepdims = step.meta["axis"], step.meta["keepdims"]

        def apply(g, out, axis=axis, keepdims=keepdims):
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            np.copyto(out, np.broadcast_to(grad, out.shape))

        return [(x, self._elementwise(self._shape_of(self._fwd(x)), apply, gi))]

    def _vjp_mean_scale(self, step, gi):
        total = step.inputs[0]
        si = self._fwd(step.meta["source"])
        axis = step.meta["axis"]

        def apply(g, source, out, axis=axis):
            count = source.size if axis is None else source.shape[axis]
            np.multiply(g, 1.0 / count, out=out)

        return [(total, self._elementwise(self._shape_of(gi), apply, gi, si))]

    def _vjp_tanh(self, step, gi):
        oi = self._fwd(step.out)
        scratch = self._new_buffer(self._shape_of(gi), np.float64)

        def apply(g, o, tmp, out):
            # grad * (1.0 - out**2)
            np.square(o, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(g, tmp, out=out)

        return [(step.inputs[0], self._elementwise(self._shape_of(gi), apply, gi, oi, scratch))]

    def _vjp_leaky_relu(self, step, gi):
        xi = self._fwd(step.inputs[0])
        slope_value = step.meta["negative_slope"]
        if not 0.0 <= slope_value <= 1.0:
            raise ReplayUnsupported("leaky_relu replay needs a slope in [0, 1]")
        shape = self._shape_of(gi)
        slope = self._new_buffer(shape, np.float64)

        def apply(g, x, slope, out, slope_value=slope_value):
            # grad * np.where(x > 0, 1.0, negative_slope): max(1.0, s) is 1.0
            # and max(0.0, s) is s exactly, so the slope array is the same
            # without a masked write.
            np.greater(x, 0, out=slope)
            np.maximum(slope, slope_value, out=slope)
            np.multiply(g, slope, out=out)

        return [(step.inputs[0], self._elementwise(shape, apply, gi, xi, slope))]

    def _vjp_dropout(self, step, gi):
        mi = self._aux[id(step.out)]
        return [(step.inputs[0], self._elementwise(
            self._shape_of(gi), lambda g, m, out: np.multiply(g, m, out=out), gi, mi
        ))]

    def _vjp_softmax(self, step, gi):
        oi = self._fwd(step.out)
        axis = step.meta["axis"]

        def expression(g, o, axis=axis):
            dot = (g * o).sum(axis=axis, keepdims=True)
            return o * (g - dot)

        return [(step.inputs[0], self._literal(self._shape_of(gi), expression, gi, oi))]

    def _vjp_matmul(self, step, gi):
        a, b = step.inputs
        ai, bi = self._fwd(a), self._fwd(b)
        pairs = []
        if a.requires_grad:
            pairs.append((a, self._elementwise(
                self._shape_of(ai), lambda g, y, out: np.matmul(g, y.T, out=out), gi, bi
            )))
        if b.requires_grad:
            pairs.append((b, self._elementwise(
                self._shape_of(bi), lambda x, g, out: np.matmul(x.T, g, out=out), ai, gi
            )))
        return pairs

    def _vjp_spmm(self, step, gi):
        slot = self.tape.slots.get(id(step.meta["matrix"]))
        if slot is None or _CSC_MATVECS is None:
            raise ReplayUnsupported("spmm adjoint needs a slotted adjacency")
        mi = self._slot_matrix_index(slot)
        x = step.inputs[0]

        def apply(matrix, g, out):
            # matrix.T @ g: scipy's csc_matvecs over the CSR arrays.
            if type(matrix) is not sp.csr_matrix or not out.flags.c_contiguous:
                out[...] = matrix.T @ g
                return
            out.fill(0.0)
            _CSC_MATVECS(
                matrix.shape[1],
                matrix.shape[0],
                g.shape[1],
                matrix.indptr,
                matrix.indices,
                matrix.data,
                g.ravel(),
                out.ravel(),
            )

        return [(x, self._elementwise(self._shape_of(self._fwd(x)), apply, mi, gi))]

    def _split_views(self, step, gi, make_index) -> list:
        pairs = []
        for position, t in self._grad_inputs(step):
            vi = self._dyn(self._shape_of(self._fwd(t)))
            self._aliases[vi] = self._bases(gi)
            index = make_index(position)

            def view(arrays, gi=gi, vi=vi, index=index):
                arrays[vi] = arrays[gi][index]

            self._emit(view, gi, vi)
            pairs.append((t, vi))
        return pairs

    def _vjp_concat(self, step, gi):
        rank = len(self._shape_of(gi))
        axis = _normalize_axis(step.meta["axis"], rank)
        bounds = [0]
        for t in step.inputs:
            bounds.append(bounds[-1] + self._shape_of(self._fwd(t))[axis])
        # np.split's pieces are exactly these basic-slice views.
        return self._split_views(
            step, gi, lambda p: (slice(None),) * axis + (slice(bounds[p], bounds[p + 1]),)
        )

    def _vjp_stack(self, step, gi):
        axis = _normalize_axis(step.meta["axis"], len(self._shape_of(gi)))
        return self._split_views(step, gi, lambda p: (slice(None),) * axis + (p,))

    def _vjp_getitem(self, step, gi):
        x = step.inputs[0]
        xi = self._fwd(x)
        index = step.meta["index"]
        if isinstance(index, np.ndarray) and self.tape.slots.get(id(index)) == "centers":
            ci = self._centers_index()

            def apply(g, centers, out):
                out.fill(0.0)
                np.add.at(out, centers, g)

            return [(x, self._elementwise(self._shape_of(xi), apply, gi, ci))]
        if isinstance(index, np.ndarray):
            index = index.copy()
        elif not isinstance(index, (int, np.integer)):
            raise ReplayUnsupported("unsupported index in a traced gather")

        def expression(g, source, index=index):
            full = np.zeros_like(source)
            np.add.at(full, index, g)
            return full

        return [(x, self._literal(self._shape_of(xi), expression, gi, xi))]

    def _vjp_fused_ce(self, step, gi):
        context = self._aux[id(step.out)]
        logits = step.inputs[0]
        return [(logits, self._literal(
            self._shape_of(self._fwd(logits)),
            lambda g, context=context: _fused_ce_backward(g, context[0]),
            gi,
        ))]

    def _vjp_l2(self, step, gi):
        coefficient = step.meta["coefficient"]
        pairs = []
        for param in step.inputs:
            # grad_bcast * param.data, delivered twice like the eager node.
            ci = self._elementwise(
                self._shape_of(self._fwd(param)),
                lambda g, p, out, c=coefficient: np.multiply(np.multiply(g, c), p, out=out),
                gi,
                self._fwd(param),
            )
            pairs.append((param, ci))
            pairs.append((param, ci))
        return pairs

    # -- optimizer ------------------------------------------------------
    def _plan_adam(self, params: List[Tensor]) -> None:
        optimizer = self.optimizer
        moments = list(zip(optimizer._m, optimizer._v))
        if len(moments) != len(params):
            raise ReplayUnsupported("optimizer state does not match its parameters")
        scratch = [(np.empty_like(m), np.empty_like(m)) for m, _ in moments]

        def adam(arrays, optimizer=optimizer, params=params, moments=moments, scratch=scratch):
            # Adam.step, expression for expression, into preallocated scratch.
            optimizer._step_count += 1
            beta1, beta2 = optimizer.beta1, optimizer.beta2
            lr, eps, weight_decay = optimizer.lr, optimizer.eps, optimizer.weight_decay
            bias1 = 1.0 - beta1**optimizer._step_count
            bias2 = 1.0 - beta2**optimizer._step_count
            for param, (m, v), (t1, t2) in zip(params, moments, scratch):
                grad = param.grad
                if grad is None:
                    continue
                if weight_decay:
                    grad = grad + weight_decay * param.data
                np.multiply(m, beta1, out=m)
                np.multiply(grad, 1.0 - beta1, out=t1)
                np.add(m, t1, out=m)
                np.multiply(v, beta2, out=v)
                np.multiply(grad, 1.0 - beta2, out=t1)
                np.multiply(t1, grad, out=t1)
                np.add(v, t1, out=v)
                np.divide(m, bias1, out=t1)
                np.multiply(t1, lr, out=t1)
                np.divide(v, bias2, out=t2)
                np.sqrt(t2, out=t2)
                np.add(t2, eps, out=t2)
                np.divide(t1, t2, out=t1)
                param.data = param.data - t1

        self._emit(adam)


def _same(a, b) -> bool:
    """Bitwise equality over nested snapshots (arrays compare by bytes)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, float):
        return isinstance(b, float) and np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


class TrainReplayEngine:
    """Compiled training steps for one fit, keyed by shape bucket.

    The first batch of a bucket runs the eager step with a tape installed,
    compiles the tape, and self-checks: parameters, gradients, Adam's
    moments and step count and the dropout generators are snapshotted
    before the eager step; the eager results are kept; the snapshot is
    restored and the compiled step replayed; everything must match bit for
    bit.  A mismatch or :class:`ReplayUnsupported` restores the eager
    results and disables capture, so the fit carries on eagerly — exactly
    the trajectory :func:`eager_train_step` gives.  Buffers live in one
    arena shared by every bucket.

    Not synchronized; one engine belongs to one training loop.
    """

    def __init__(
        self,
        model,
        optimizer,
        class_weight: Optional[np.ndarray] = None,
        weight_decay: float = 0.0,
        capture: Optional[bool] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.class_weight = class_weight
        self.weight_decay = weight_decay
        self._disabled = not (replay_enabled() if capture is None else capture)
        self._compiled: Dict[Tuple[int, int, bool], CompiledTrainStep] = {}
        self._arena = _Arena()
        self._held: Optional[Tensor] = None
        self.stats = {"replay_hits": 0, "replay_misses": 0}

    @property
    def disabled(self) -> bool:
        return self._disabled

    def step(self, batch) -> float:  # oracle: eager_train_step
        """One training step on ``batch``; returns the loss.

        Bit-identical to :func:`eager_train_step` by contract: a hit replays
        the compiled schedule, a miss runs eager-and-capture, and any doubt
        leaves the fit on the eager path.
        """
        if self._disabled:
            # Hold the step's graph until the next step, as a loop variable
            # would: freeing the whole working set at once lets malloc trim
            # it and fault it back in on every step (~5.5k page faults per
            # step on the e2ebench fit).
            self._held = self._eager(batch)
            return self._held.item()
        key = bucket_key(batch) + (bool(self.model.training),)
        compiled = self._compiled.get(key)
        if compiled is not None:
            self.stats["replay_hits"] += 1
            return compiled.run(batch)
        self.stats["replay_misses"] += 1
        return self._capture(batch, key)

    def _eager(self, batch, tape: Optional[Tape] = None) -> Tensor:
        return eager_train_step(
            self.model, self.optimizer, batch, self.class_weight, self.weight_decay, tape
        )

    def _capture(self, batch, key) -> float:
        before = self._snapshot(())
        tape = Tape(batch)
        tape.slots[id(batch.labels)] = "labels"
        loss = self._eager(batch, tape).item()
        # Each dropout generator's state before its first draw of the step.
        generators, states = [], []
        for step in tape.steps:
            step.out.grad = None  # backward's per-node copies; not compiled from
            rng = step.meta.get("rng")
            if step.op == "dropout" and all(rng is not known for known in generators):
                generators.append(rng)
                states.append(step.meta["state"])
        before = before[:-1] + (states,)
        after = self._snapshot(generators)
        try:
            compiled = _TrainCompiler(tape, key[:2], self._arena, self.optimizer).compile_step()
            del tape
            self._restore(before, generators)
            replayed = compiled.run(batch)
            ok = _same(replayed, loss) and _same(self._snapshot(generators), after)
        except Exception:  # ReplayUnsupported, or any compile/replay surprise
            ok = False
        if not ok:
            # Leave the fit exactly where the eager step put it.
            self._restore(after, generators)
            self._disabled = True
            self._compiled.clear()
            return loss
        self._compiled[key] = compiled
        return loss

    def _snapshot(self, generators) -> tuple:
        optimizer = self.optimizer
        return (
            [param.data.copy() for param in optimizer.parameters],
            [None if param.grad is None else param.grad.copy() for param in optimizer.parameters],
            [m.copy() for m in optimizer._m],
            [v.copy() for v in optimizer._v],
            optimizer._step_count,
            [copy.deepcopy(g.bit_generator.state) for g in generators],
        )

    def _restore(self, snapshot: tuple, generators) -> None:
        data, grads, ms, vs, step_count, states = snapshot
        optimizer = self.optimizer
        for param, saved, grad in zip(optimizer.parameters, data, grads):
            param.data = saved.copy()
            param.grad = None if grad is None else grad.copy()
        for m, saved in zip(optimizer._m, ms):
            np.copyto(m, saved)
        for v, saved in zip(optimizer._v, vs):
            np.copyto(v, saved)
        optimizer._step_count = step_count
        for generator, state in zip(generators, states):
            generator.bit_generator.state = copy.deepcopy(state)
