"""AST → formula-text serialization.

The inverse of the parser: render an AST back to source text such that
re-parsing the text yields an equal AST — A1 references as A1
(``parse_formula(to_formula(node)) == node``), stored-form offset references
as stored text (``parse_stored(to_formula(node)) == node``).  The engine
relies on this round-trip to persist formulas: an entered formula and a
structurally rewritten one are serialized to stored text and kept as the
cell's source text, and a rewritten AST is primed into the evaluator's
bounded AST cache.

Parenthesization is minimal: a child expression is wrapped only when its
binding power is too weak for the position it occupies, so ``A1+B1*2``
serializes without parentheses while ``(A1+B1)*2`` keeps them.
"""

from __future__ import annotations

from repro.formula.ast_nodes import (
    BinaryOpNode,
    BoolNode,
    CellRefNode,
    ErrorNode,
    FormulaNode,
    FunctionCallNode,
    NumberNode,
    OffsetCellRefNode,
    OffsetRangeRefNode,
    RangeRefNode,
    StringNode,
    UnaryOpNode,
)
from repro.formula.parser import _BINARY_PRECEDENCE, _RIGHT_ASSOCIATIVE
from repro.grid.address import column_index_to_letter

#: Binding powers above every binary operator (which top out at 50): prefix
#: ``-x`` binds tighter than any binary, postfix ``x%`` tighter still, and
#: atoms (literals, references, calls) never need wrapping.
_PREFIX_PRECEDENCE = 60
_POSTFIX_PRECEDENCE = 70
_ATOM_PRECEDENCE = 100


def _precedence(node: FormulaNode) -> int:
    if isinstance(node, BinaryOpNode):
        return _BINARY_PRECEDENCE[node.operator]
    if isinstance(node, UnaryOpNode):
        return _POSTFIX_PRECEDENCE if node.operator == "%" else _PREFIX_PRECEDENCE
    return _ATOM_PRECEDENCE


def _wrap(node: FormulaNode, minimum: int, *, strict: bool = False) -> str:
    text = _serialize(node)
    precedence = _precedence(node)
    if precedence < minimum or (strict and precedence == minimum):
        return f"({text})"
    return text


def _corner(row: int, column: int, column_absolute: bool, row_absolute: bool) -> str:
    """Render one A1 corner, re-emitting its ``$`` absolute markers."""
    return (
        ("$" if column_absolute else "") + column_index_to_letter(column)
        + ("$" if row_absolute else "") + str(row)
    )


def _component(axis: str, value: int, absolute: bool) -> str:
    """One stored-form component: ``R5`` (a line) or ``R[-1]`` (an offset)."""
    return f"{axis}{value}" if absolute else f"{axis}[{value}]"


def _stored_corner(row: int, column: int, row_absolute: bool, column_absolute: bool) -> str:
    return _component("R", row, row_absolute) + _component("C", column, column_absolute)


def _serialize(node: FormulaNode) -> str:
    if isinstance(node, NumberNode):
        value = node.value
        return repr(int(value)) if value.is_integer() else repr(value)
    if isinstance(node, StringNode):
        return '"' + node.value.replace('"', '""') + '"'
    if isinstance(node, BoolNode):
        return "TRUE" if node.value else "FALSE"
    if isinstance(node, CellRefNode):
        return _corner(node.address.row, node.address.column,
                       node.column_absolute, node.row_absolute)
    if isinstance(node, RangeRefNode):
        # Always emit both corners: a 1x1 range must round-trip as a range
        # reference, not collapse into a single-cell reference.
        region = node.range
        start = _corner(region.top, region.left,
                        node.start_column_absolute, node.start_row_absolute)
        end = _corner(region.bottom, region.right,
                      node.end_column_absolute, node.end_row_absolute)
        return f"{start}:{end}"
    if isinstance(node, OffsetCellRefNode):
        return _stored_corner(node.row, node.column, node.row_absolute, node.column_absolute)
    if isinstance(node, OffsetRangeRefNode):
        start = _stored_corner(node.top, node.left,
                               node.start_row_absolute, node.start_column_absolute)
        end = _stored_corner(node.bottom, node.right,
                             node.end_row_absolute, node.end_column_absolute)
        return f"{start}:{end}"
    if isinstance(node, ErrorNode):
        return node.code
    if isinstance(node, UnaryOpNode):
        if node.operator == "%":
            return _wrap(node.operand, _POSTFIX_PRECEDENCE) + "%"
        return node.operator + _wrap(node.operand, _PREFIX_PRECEDENCE)
    if isinstance(node, BinaryOpNode):
        precedence = _BINARY_PRECEDENCE[node.operator]
        right_associative = node.operator in _RIGHT_ASSOCIATIVE
        left = _wrap(node.left, precedence, strict=right_associative)
        right = _wrap(node.right, precedence, strict=not right_associative)
        return f"{left}{node.operator}{right}"
    if isinstance(node, FunctionCallNode):
        arguments = ",".join(_serialize(argument) for argument in node.arguments)
        return f"{node.name}({arguments})"
    raise TypeError(f"cannot serialize AST node {type(node).__name__}")


def to_formula(node: FormulaNode) -> str:
    """Render an AST as formula source text (without the leading ``=``).

    >>> from repro.formula.parser import parse_formula
    >>> to_formula(parse_formula("SUM(B2:C10) + D2"))
    'SUM(B2:C10)+D2'
    >>> parse_formula(to_formula(parse_formula("(A1+B1)*2"))) == parse_formula("(A1+B1)*2")
    True
    """
    return _serialize(node)
