"""The stored, position-free form of a formula.

The engine keeps every formula text the way TACO (Tang et al., *Efficient
and Compact Spreadsheet Formula Graphs*, ICDE 2023) compresses copied-down
formulas: each reference component is an *offset* from the cell that holds
the formula, unless the A1 text anchored it with ``$``, in which case it
stays the absolute line.  Written in R1C1 notation with explicit offsets —
``=A5+B5*2`` entered in C5 is stored as ``R[0]C[-2]+R[0]C[-1]*2``, and so is
``=A6+B6*2`` in C6 — so a formula copied down a column is one text, one
parse and one cached AST (:class:`~repro.formula.ast_nodes.OffsetCellRefNode`,
:class:`~repro.formula.ast_nodes.OffsetRangeRefNode`).

What it buys is a structural edit that does not cascade.  A row inserted
above a block of formulas moves each formula *and* its targets by the same
amount, so their offsets, and with them the stored texts, stay as they
are.  Only these texts change (:func:`text_shifts`):

* a relative component whose target lands on the other side of the edited
  line from its cell (the offset grows or shrinks);
* an anchored component whose target moves;
* a target that is deleted (``#REF!``) or clamped at the sheet limit.

A1 exists only at the edges: :func:`stored_text` converts entered A1 once,
at the formula's cell, and :func:`a1_text` renders the stored form back for
a reader (:func:`to_stored` and :func:`to_a1` are the same conversions on
ASTs).  The evaluator and the dependency graph resolve a stored AST at the
cell holding it (:func:`resolve_cell`, :func:`resolve_range`).
"""

from __future__ import annotations

from repro.errors import AddressError, FormulaSyntaxError, RangeError
from repro.formula.ast_nodes import (
    CellRefNode,
    FormulaNode,
    OffsetCellRefNode,
    OffsetRangeRefNode,
    RangeRefNode,
)
from repro.formula.parser import parse_formula, parse_stored
from repro.formula.rewrite import REF_ERROR, REFERENCE_NODES, map_references
from repro.formula.serializer import to_formula
from repro.grid.address import MAX_COLUMNS, MAX_ROWS, CellAddress
from repro.grid.range import RangeRef
from repro.grid.structural import StructuralEdit

__all__ = [
    "a1_text",
    "normalized_text",
    "reference_leaves",
    "resolve_cell",
    "resolve_range",
    "stored_text",
    "text_shifts",
    "to_a1",
    "to_stored",
]


def _line(value: int, absolute: bool, here: int) -> int:
    return value if absolute else here + value


def _offset(line: int, absolute: bool, here: int) -> int:
    return line if absolute else line - here


def resolve_cell(node: OffsetCellRefNode, origin: CellAddress) -> CellAddress:
    """The cell a stored reference held at ``origin`` reads.

    Raises :class:`~repro.errors.AddressError` when it lies off the sheet
    (only text that was never converted at ``origin`` can say so).
    """
    return CellAddress(_line(node.row, node.row_absolute, origin.row),
                       _line(node.column, node.column_absolute, origin.column))


def resolve_range(node: OffsetRangeRefNode, origin: CellAddress) -> RangeRef:
    """The rectangle a stored range held at ``origin`` reads (raises
    :class:`~repro.errors.RangeError` off the sheet)."""
    return RangeRef(
        _line(node.top, node.start_row_absolute, origin.row),
        _line(node.left, node.start_column_absolute, origin.column),
        _line(node.bottom, node.end_row_absolute, origin.row),
        _line(node.right, node.end_column_absolute, origin.column),
    )


def to_stored(node: FormulaNode, origin: CellAddress) -> FormulaNode:
    """An A1 AST as the stored AST of the formula at ``origin``."""
    def convert(reference: FormulaNode) -> FormulaNode:
        if isinstance(reference, CellRefNode):
            address = reference.address
            return OffsetCellRefNode(
                row=_offset(address.row, reference.row_absolute, origin.row),
                column=_offset(address.column, reference.column_absolute, origin.column),
                row_absolute=reference.row_absolute,
                column_absolute=reference.column_absolute,
            )
        if isinstance(reference, RangeRefNode):
            region = reference.range
            return OffsetRangeRefNode(
                top=_offset(region.top, reference.start_row_absolute, origin.row),
                left=_offset(region.left, reference.start_column_absolute, origin.column),
                bottom=_offset(region.bottom, reference.end_row_absolute, origin.row),
                right=_offset(region.right, reference.end_column_absolute, origin.column),
                start_row_absolute=reference.start_row_absolute,
                start_column_absolute=reference.start_column_absolute,
                end_row_absolute=reference.end_row_absolute,
                end_column_absolute=reference.end_column_absolute,
            )
        return reference

    return map_references(node, convert)


def to_a1(node: FormulaNode, origin: CellAddress) -> FormulaNode:
    """A stored AST resolved at ``origin`` back to A1 (a reference that
    resolves off the sheet reads ``#REF!``)."""
    def convert(reference: FormulaNode) -> FormulaNode:
        try:
            if isinstance(reference, OffsetCellRefNode):
                return CellRefNode(
                    address=resolve_cell(reference, origin),
                    column_absolute=reference.column_absolute,
                    row_absolute=reference.row_absolute,
                )
            if isinstance(reference, OffsetRangeRefNode):
                return RangeRefNode(
                    range=resolve_range(reference, origin),
                    start_column_absolute=reference.start_column_absolute,
                    start_row_absolute=reference.start_row_absolute,
                    end_column_absolute=reference.end_column_absolute,
                    end_row_absolute=reference.end_row_absolute,
                )
        except (AddressError, RangeError):
            return REF_ERROR
        return reference

    return map_references(node, convert)


def stored_text(node: FormulaNode, origin: CellAddress) -> str:
    """The stored text of an A1 AST entered at ``origin``."""
    return to_formula(to_stored(node, origin))


def normalized_text(formula: str, origin: CellAddress) -> str:
    """``formula`` as stored text at ``origin``, whichever form it is in.

    Stored text is returned as it is and A1 text is converted: no text
    with a reference parses in both forms, and one without references means
    the same in both.  Text that parses in neither is returned as it is.
    """
    try:
        parse_stored(formula)
        return formula
    except FormulaSyntaxError:
        pass
    try:
        return stored_text(parse_formula(formula), origin)
    except (FormulaSyntaxError, AddressError):
        return formula


def a1_text(node: FormulaNode, origin: CellAddress) -> str:
    """The A1 text a reader sees for the stored AST held at ``origin``."""
    return to_formula(to_a1(node, origin))


def reference_leaves(node: FormulaNode) -> tuple[FormulaNode, ...]:
    """The reference leaves of ``node``, in source order."""
    return tuple(leaf for leaf in node.walk() if isinstance(leaf, REFERENCE_NODES))


def text_shifts(leaves: tuple[FormulaNode, ...], edit: StructuralEdit,
                origin: CellAddress) -> bool:
    """Whether ``edit`` changes the stored text of the formula at ``origin``
    whose :func:`reference_leaves` are ``leaves``.  The formula's own cell
    must survive the edit.

    Only the edited axis can change: a relative component changes when its
    target and the formula's cell move by different amounts, an anchored
    one when its target moves, and any component whose target is deleted
    or pushed past the sheet limit.
    """
    by_row = edit.axis == "row"
    limit = MAX_ROWS if by_row else MAX_COLUMNS
    here = origin.row if by_row else origin.column
    there = edit.map_line(here)
    for leaf in leaves:
        if isinstance(leaf, OffsetCellRefNode):
            value, absolute = ((leaf.row, leaf.row_absolute) if by_row
                               else (leaf.column, leaf.column_absolute))
            moved = edit.map_line(_line(value, absolute, here))
            if moved is None or moved > limit or _offset(moved, absolute, there) != value:
                return True
        elif isinstance(leaf, OffsetRangeRefNode):
            if by_row:
                start, start_absolute = leaf.top, leaf.start_row_absolute
                end, end_absolute = leaf.bottom, leaf.end_row_absolute
            else:
                start, start_absolute = leaf.left, leaf.start_column_absolute
                end, end_absolute = leaf.right, leaf.end_column_absolute
            span = edit.map_span(_line(start, start_absolute, here),
                                 _line(end, end_absolute, here))
            if (span is None or span[1] > limit
                    or _offset(span[0], start_absolute, there) != start
                    or _offset(span[1], end_absolute, there) != end):
                return True
    return False
