"""Restriction kernels: one function per predicate and probe layout.

The batch refresh path holds, for every live entry of a page, a partial
decode over a fixed tuple of schema positions (the pass's *probe*).  A
kernel maps that list of probe tuples to the indices of the entries the
restriction accepts — ``[i for i, row in enumerate(rows) if
restriction(row)]`` — without a closure call per node per row.

Comparisons whose operands are columns or literals of one kind (numeric
with numeric, string with string), and AND/OR over such comparisons,
are generated as one inline condition, the way
:func:`~repro.relation.row.decode_fields` compiles its probes: every
referenced column is bound by tuple unpacking in the comprehension
header.  For those operands ``_comparable`` is true for every non-NULL
value, so the inline form cannot raise, and a NULL operand makes the
comparison UNKNOWN, which the ``is not NULL`` guards turn into "does
not qualify".  Any other tree runs the restriction's compiled closure
once per probe tuple, so it raises the same
:class:`~repro.errors.EvaluationError` on the same row.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.expr.nodes import And, ColumnRef, Comparison, Expr, Literal, Or
from repro.relation.schema import Schema
from repro.relation.types import NULL, FloatType, IntType, StringType

Kernel = Callable[[Sequence[Tuple[Any, ...]]], List[int]]

_PY_OPS = {
    "=": "==",
    "<>": "!=",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def _kind(schema: Schema, node: Expr) -> Optional[str]:
    """``num`` or ``str`` for an operand of that kind, else None.

    A column's kind is what every non-NULL value it decodes to is:
    ``int`` and ``float`` columns decode to Python numbers (never
    ``bool``), ``string`` columns to ``str``.
    """
    if isinstance(node, ColumnRef):
        ctype = schema.column(node.name).ctype
        if isinstance(ctype, (IntType, FloatType)):
            return "num"
        if isinstance(ctype, StringType):
            return "str"
    elif isinstance(node, Literal):
        value = node.value
        if isinstance(value, bool):
            return None
        if isinstance(value, (int, float)):
            return "num"
        if isinstance(value, str):
            return "str"
    return None


class _Inline:
    """Inline source for one kernel's condition, with its bindings."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.namespace: "Dict[str, Any]" = {"_NULL": NULL}
        self.referenced: "set[int]" = set()

    def operand(self, node: Expr) -> str:
        if isinstance(node, ColumnRef):
            position = self.schema.position(node.name)
            self.referenced.add(position)
            return f"x{position}"
        value = node.value if isinstance(node, Literal) else None
        if type(value) is int or type(value) is str:
            return repr(value)
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def truth(self, node: Expr) -> Optional[str]:
        """Source testing that ``node`` is TRUE, or None if not inlinable."""
        if isinstance(node, (And, Or)):
            left = self.truth(node.left)
            right = self.truth(node.right)
            if left is None or right is None:
                return None
            joiner = " and " if isinstance(node, And) else " or "
            return f"({left}{joiner}{right})"
        if isinstance(node, Comparison):
            operands = (node.left, node.right)
            kinds = {_kind(self.schema, operand) for operand in operands}
            if None in kinds or len(kinds) != 1:
                return None
            terms = [
                f"{self.operand(operand)} is not _NULL"
                for operand in operands
                if isinstance(operand, ColumnRef)
            ]
            terms.append(
                "%s %s %s"
                % (
                    self.operand(node.left),
                    _PY_OPS[node.op],
                    self.operand(node.right),
                )
            )
            return "(" + " and ".join(terms) + ")"
        return None


def compile_kernel(
    expr: Expr,
    schema: Schema,
    positions: "Tuple[int, ...]",
    compiled: "Callable[[Any], Any]",
) -> Kernel:
    """The kernel of ``expr`` over probe tuples at ``positions``.

    ``compiled`` is the restriction's closure (``expr.compile(schema)``),
    run per tuple when ``expr`` has no inline form.  ``positions`` must
    cover every column ``expr`` references; extra positions (another
    cursor's columns sharing the probe) are skipped.
    """
    missing = {schema.position(name) for name in expr.columns()} - set(positions)
    if missing:
        raise EvaluationError(
            f"probe positions {positions} miss restriction columns "
            f"{sorted(missing)}"
        )
    inline = _Inline(schema)
    condition = inline.truth(expr)
    if condition is None:

        def fallback(rows: "Sequence[Tuple[Any, ...]]") -> "List[int]":
            return [
                i
                for i, row in enumerate(rows)
                if compiled(dict(zip(positions, row))) is True
            ]

        return fallback
    if inline.referenced:
        targets = ", ".join(
            f"x{p}" if p in inline.referenced else "_" for p in positions
        )
        header = f"for i, ({targets},) in enumerate(rows)"
    else:
        header = "for i, _ in enumerate(rows)"
    source = (
        "def _kernel(rows):\n"
        f"    return [i {header} if {condition}]\n"
    )
    code = compile(source, f"<restriction kernel {expr.sql()} {positions}>", "exec")
    namespace = inline.namespace
    exec(code, namespace)  # noqa: S102 — source rendered from the tree above
    kernel: Kernel = namespace["_kernel"]
    return kernel
