"""Structural-edit reference rewriting (row/column inserts and deletes).

When rows or columns are inserted or deleted, stored cells shift — and every
formula reference pointing at them must shift too, or the formula silently
reads the wrong cells.  One class owns that coordinate arithmetic and this
module applies it to formulas:

* :class:`~repro.grid.structural.StructuralEdit` (defined beside the shared
  validators in the grid layer, re-exported here) describes one edit (axis +
  insert/delete + line + count) and maps individual lines, addresses, and
  rectangular spans through it.  A reference whose entire referent falls
  inside a deletion maps to ``None``.
* :func:`rewrite_formula` applies an edit to a parsed AST with a structural
  visitor: ``CellRefNode``/``RangeRefNode`` leaves are shifted (ranges that
  straddle the edit expand or contract), fully deleted referents collapse to
  an ``ErrorNode("#REF!")``, and interior nodes are rebuilt only along paths
  that actually changed, so untouched subtrees stay shared with the original
  AST.

The same mapping functions drive :meth:`DependencyGraph.apply_structural_edit
<repro.formula.dependencies.DependencyGraph.apply_structural_edit>`, which
re-keys dependency registrations, and the engine/sheet layers, which rewrite
stored formula text — guaranteeing the graph and the text can never disagree
about where a reference landed.
"""

from __future__ import annotations

from repro.formula.ast_nodes import (
    BinaryOpNode,
    CellRefNode,
    ErrorNode,
    FormulaNode,
    FunctionCallNode,
    RangeRefNode,
    UnaryOpNode,
)
from repro.grid.structural import StructuralEdit

__all__ = ["REF_ERROR", "StructuralEdit", "rewrite_formula"]

#: The node a fully deleted referent collapses to.
REF_ERROR = ErrorNode(code="#REF!")


def rewrite_formula(node: FormulaNode, edit: StructuralEdit) -> tuple[FormulaNode, bool]:
    """Rewrite every reference in ``node`` through ``edit``.

    Returns ``(rewritten, changed)``.  When nothing the formula references is
    affected by the edit, the original node is returned unchanged (and
    unshared subtrees are likewise reused), so callers can skip re-serializing
    untouched formulas.
    """
    if isinstance(node, CellRefNode):
        moved = edit.map_address(node.address)
        if moved is None:
            return REF_ERROR, True
        if moved == node.address:
            return node, False
        return CellRefNode(
            address=moved,
            column_absolute=node.column_absolute,
            row_absolute=node.row_absolute,
        ), True
    if isinstance(node, RangeRefNode):
        moved = edit.map_range(node.range)
        if moved is None:
            return REF_ERROR, True
        if moved == node.range:
            return node, False
        return RangeRefNode(
            range=moved,
            start_column_absolute=node.start_column_absolute,
            start_row_absolute=node.start_row_absolute,
            end_column_absolute=node.end_column_absolute,
            end_row_absolute=node.end_row_absolute,
        ), True
    if isinstance(node, UnaryOpNode):
        operand, changed = rewrite_formula(node.operand, edit)
        if not changed:
            return node, False
        return UnaryOpNode(operator=node.operator, operand=operand), True
    if isinstance(node, BinaryOpNode):
        left, left_changed = rewrite_formula(node.left, edit)
        right, right_changed = rewrite_formula(node.right, edit)
        if not (left_changed or right_changed):
            return node, False
        return BinaryOpNode(operator=node.operator, left=left, right=right), True
    if isinstance(node, FunctionCallNode):
        rewritten = [rewrite_formula(argument, edit) for argument in node.arguments]
        if not any(changed for _argument, changed in rewritten):
            return node, False
        arguments = tuple(argument for argument, _changed in rewritten)
        return FunctionCallNode(name=node.name, arguments=arguments), True
    # Literals (numbers, strings, booleans, existing error nodes) are inert.
    return node, False
