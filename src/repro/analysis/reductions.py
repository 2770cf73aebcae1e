"""Order-sensitive reduction checker: the PR 4 bit-identity bug class.

``array.sum(axis=1)`` on a C-ordered array and on an F-ordered (or sliced,
or transposed) view of the same values walks memory in different orders,
and float addition is not associative — the results differ in the last
ulp.  Harmless almost everywhere, fatal in the gated fast-path modules
whose contract is *bit-identical* output against a dense oracle: PR 4
shipped exactly this bug (an ``axis=1`` sum over a mask-sliced matrix
inside the PPR frontier batcher).

This checker flags ``<expr>.sum(axis=...)``, ``np.sum(<expr>, axis=...)``
and ``np.add.reduce(<expr>, axis=...)`` when ``<expr>`` is *lexically* a
slice (``Subscript``), a transpose (``.T`` / ``.transpose()`` /
``np.transpose``), or a ``ravel``/``reshape`` view — shapes whose memory
order depends on the producer — unless the operand is pinned on the spot
with ``np.ascontiguousarray``/``np.asfortranarray``.

Scope is deliberately narrow: only the gated modules listed in
:data:`GATED_MODULES` (plus any module carrying the
``# repro-lint: order-sensitive`` pragma, used by the fixture corpus) are
checked, because outside the bit-identity contract the pattern is fine.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.registry import LintContext, ModuleSource, register_checker

#: Repository-relative suffixes of the bit-identity-gated fast-path modules.
GATED_MODULES: Tuple[str, ...] = (
    "repro/ppr/batch.py",
    "repro/sampling/subgraph.py",
    "repro/tensor/replay.py",
    "repro/tensor/train_replay.py",
)

#: Module pragma that opts any file into this checker (fixtures use it).
GATE_PRAGMA = "repro-lint: order-sensitive"

_PIN_FUNCTIONS = frozenset({"ascontiguousarray", "asfortranarray"})
_VIEW_METHODS = frozenset({"transpose", "ravel", "reshape", "swapaxes"})


def _is_gated(module: ModuleSource) -> bool:
    normalized = module.relpath.replace("\\", "/")
    if any(normalized.endswith(suffix) for suffix in GATED_MODULES):
        return True
    return GATE_PRAGMA in module.source


def _callee_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _has_axis(node: ast.Call) -> bool:
    return any(keyword.arg == "axis" for keyword in node.keywords)


def _reduction_operand(node: ast.Call) -> Optional[ast.AST]:
    """The array being reduced, for the three reduction spellings."""
    if not _has_axis(node):
        return None
    name = _callee_name(node)
    if name == "sum" and isinstance(node.func, ast.Attribute):
        receiver = node.func.value
        # ``np.sum(x, axis=...)`` — receiver is the numpy module, operand
        # is the first argument; ``x.sum(axis=...)`` — receiver IS the
        # operand.  Disambiguate on whether positional args exist.
        if isinstance(receiver, ast.Name) and receiver.id in ("np", "numpy") and node.args:
            return node.args[0]
        return receiver
    if name == "reduce" and isinstance(node.func, ast.Attribute):
        inner = node.func.value  # np.add.reduce -> ``np.add``
        if isinstance(inner, ast.Attribute) and inner.attr == "add" and node.args:
            return node.args[0]
    return None


def _is_pinned(operand: ast.AST) -> bool:
    """``np.ascontiguousarray(...)`` / ``np.asfortranarray(...)`` wrapper."""
    return (
        isinstance(operand, ast.Call)
        and _callee_name(operand) in _PIN_FUNCTIONS
    )


def _order_sensitive_shape(operand: ast.AST) -> Optional[str]:
    """Why the operand's memory order is producer-dependent, or None."""
    if isinstance(operand, ast.Subscript):
        return "sliced"
    if isinstance(operand, ast.Attribute) and operand.attr == "T":
        return "transposed"
    if isinstance(operand, ast.Call):
        name = _callee_name(operand)
        if name in _VIEW_METHODS or name == "transpose":
            return f"viewed via {name}()"
    return None


@register_checker("order-sensitive-reduction")
def check_order_sensitive_reductions(
    module: ModuleSource, context: LintContext
) -> Iterator[Finding]:
    """Axis reductions over slices/views in gated modules must pin order."""
    if not _is_gated(module):
        return
    scope_stack: List[str] = []

    def visit(node: ast.AST) -> Iterator[Finding]:
        pushed = False
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope_stack.append(node.name)
            pushed = True
        try:
            if isinstance(node, ast.Call):
                operand = _reduction_operand(node)
                if operand is not None and not _is_pinned(operand):
                    reason = _order_sensitive_shape(operand)
                    if reason is not None:
                        scope = ".".join(scope_stack) or "<module>"
                        expression = ast.unparse(operand)
                        if len(expression) > 60:
                            expression = expression[:57] + "..."
                        yield Finding(
                            checker="order-sensitive-reduction",
                            path=module.relpath,
                            line=node.lineno,
                            scope=scope,
                            detail=expression,
                            message=(
                                f"axis reduction over a {reason} operand "
                                f"({expression!r}) in a bit-identity-gated module — "
                                "the result depends on the operand's memory order"
                            ),
                            hint=(
                                "pin the layout with np.ascontiguousarray(...) or "
                                "np.asfortranarray(...) before reducing, or baseline "
                                "the site if it IS the reference layout"
                            ),
                        )
            for child in ast.iter_child_nodes(node):
                yield from visit(child)
        finally:
            if pushed:
                scope_stack.pop()

    yield from visit(module.tree)
