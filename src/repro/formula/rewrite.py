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
* :func:`rewrite_formula` applies an edit to an A1 AST with a structural
  visitor (:func:`map_references`): ``CellRefNode``/``RangeRefNode`` leaves
  are shifted (ranges that straddle the edit expand or contract), fully
  deleted referents collapse to an ``ErrorNode("#REF!")``, and interior
  nodes are rebuilt only along paths that actually changed, so untouched
  subtrees stay shared with the original AST.

The same mapping functions drive :meth:`DependencyGraph.apply_structural_edit
<repro.formula.dependencies.DependencyGraph.apply_structural_edit>`, which
re-keys dependency registrations, and the engine/sheet layers, which rewrite
formula text — guaranteeing the graph and the text can never disagree about
where a reference landed.  The engine keeps formulas in stored form
(:mod:`repro.formula.relative`): it resolves a stored AST to A1 at the
formula's old cell, rewrites it here and converts it back at the new cell.
"""

from __future__ import annotations

from typing import Callable

from repro.formula.ast_nodes import (
    BinaryOpNode,
    CellRefNode,
    ErrorNode,
    FormulaNode,
    FunctionCallNode,
    OffsetCellRefNode,
    OffsetRangeRefNode,
    RangeRefNode,
    UnaryOpNode,
)
from repro.grid.structural import StructuralEdit

__all__ = ["REF_ERROR", "StructuralEdit", "map_references", "rewrite_formula"]

#: The node a fully deleted referent collapses to.
REF_ERROR = ErrorNode(code="#REF!")

#: The leaves :func:`map_references` hands to its callback.
REFERENCE_NODES = (CellRefNode, RangeRefNode, OffsetCellRefNode, OffsetRangeRefNode)


def map_references(node: FormulaNode,
                   leaf: Callable[[FormulaNode], FormulaNode]) -> FormulaNode:
    """``node`` with every reference leaf replaced by ``leaf(reference)``.

    ``leaf`` returns its argument to leave a reference alone; interior nodes
    are rebuilt only along paths where a leaf changed, so a tree nothing in
    which changed comes back as the very same object.
    """
    if isinstance(node, REFERENCE_NODES):
        return leaf(node)
    if isinstance(node, UnaryOpNode):
        operand = map_references(node.operand, leaf)
        if operand is node.operand:
            return node
        return UnaryOpNode(operator=node.operator, operand=operand)
    if isinstance(node, BinaryOpNode):
        left = map_references(node.left, leaf)
        right = map_references(node.right, leaf)
        if left is node.left and right is node.right:
            return node
        return BinaryOpNode(operator=node.operator, left=left, right=right)
    if isinstance(node, FunctionCallNode):
        arguments = tuple(map_references(argument, leaf) for argument in node.arguments)
        if all(new is old for new, old in zip(arguments, node.arguments)):
            return node
        return FunctionCallNode(name=node.name, arguments=arguments)
    # Literals (numbers, strings, booleans, existing error nodes) are inert.
    return node


def rewrite_formula(node: FormulaNode, edit: StructuralEdit) -> tuple[FormulaNode, bool]:
    """Rewrite every A1 reference in ``node`` through ``edit``.

    Returns ``(rewritten, changed)``.  When nothing the formula references is
    affected by the edit, the original node is returned unchanged (and
    unshared subtrees are likewise reused), so callers can skip re-serializing
    untouched formulas.
    """
    def shift(reference: FormulaNode) -> FormulaNode:
        if isinstance(reference, CellRefNode):
            moved = edit.map_address(reference.address)
            if moved is None:
                return REF_ERROR
            if moved == reference.address:
                return reference
            return CellRefNode(
                address=moved,
                column_absolute=reference.column_absolute,
                row_absolute=reference.row_absolute,
            )
        if isinstance(reference, RangeRefNode):
            region = edit.map_range(reference.range)
            if region is None:
                return REF_ERROR
            if region == reference.range:
                return reference
            return RangeRefNode(
                range=region,
                start_column_absolute=reference.start_column_absolute,
                start_row_absolute=reference.start_row_absolute,
                end_column_absolute=reference.end_column_absolute,
                end_row_absolute=reference.end_row_absolute,
            )
        return reference

    rewritten = map_references(node, shift)
    return rewritten, rewritten is not node
