"""AST node types for parsed formulae."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.grid.address import CellAddress
from repro.grid.range import RangeRef


class FormulaNode:
    """Base class of all formula AST nodes."""

    def children(self) -> Iterator["FormulaNode"]:
        """Iterate direct child nodes (empty for leaves)."""
        return iter(())

    def walk(self) -> Iterator["FormulaNode"]:
        """Iterate this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


def node_depth(node: FormulaNode) -> int:
    """Operator levels on the longest root-to-leaf path (a leaf is 0).

    Iterative, so it measures ASTs too deep for the recursive walkers."""
    deepest = 0
    stack = [(node, 0)]
    while stack:
        current, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in current.children())
    return deepest


@dataclass(frozen=True, slots=True)
class NumberNode(FormulaNode):
    """A numeric literal."""

    value: float


@dataclass(frozen=True, slots=True)
class StringNode(FormulaNode):
    """A string literal."""

    value: str


@dataclass(frozen=True, slots=True)
class BoolNode(FormulaNode):
    """A TRUE/FALSE literal."""

    value: bool


@dataclass(frozen=True, slots=True)
class CellRefNode(FormulaNode):
    """A single-cell reference in A1 form (e.g. ``B2`` or ``$B$2``).

    ``column_absolute``/``row_absolute`` record the ``$`` markers of the
    source text.  An A1 reference names its target absolutely either way;
    the markers decide the *stored* form (:class:`OffsetCellRefNode`): a
    ``$``-anchored component stays absolute there, any other becomes an
    offset from the formula's own cell.  They survive the serializer, so
    structural-edit rewriting never strips a user's ``$``.
    """

    address: CellAddress
    column_absolute: bool = False
    row_absolute: bool = False


@dataclass(frozen=True, slots=True)
class RangeRefNode(FormulaNode):
    """A rectangular range reference (e.g. ``B2:C10`` or ``$B$2:C$10``).

    The four ``*_absolute`` flags mirror the ``$`` markers on the start and
    end corners of the source text (see :class:`CellRefNode`).
    """

    range: RangeRef
    start_column_absolute: bool = False
    start_row_absolute: bool = False
    end_column_absolute: bool = False
    end_row_absolute: bool = False


@dataclass(frozen=True, slots=True)
class OffsetCellRefNode(FormulaNode):
    """A single-cell reference in stored (position-free) form.

    Each component is an offset from the cell holding the formula, unless
    its ``*_absolute`` flag is set, in which case it is the absolute line
    (the A1 ``$`` marker).  ``R[0]C[-2]`` written in column C reads A of
    the same row wherever the formula moves; ``R1C1`` always reads A1.  A
    formula copied down a column is therefore one text.
    """

    row: int
    column: int
    row_absolute: bool = False
    column_absolute: bool = False


@dataclass(frozen=True, slots=True)
class OffsetRangeRefNode(FormulaNode):
    """A rectangular range reference in stored form: each of the four
    components is an offset from the formula's cell or, when flagged
    absolute, a line (see :class:`OffsetCellRefNode`)."""

    top: int
    left: int
    bottom: int
    right: int
    start_row_absolute: bool = False
    start_column_absolute: bool = False
    end_row_absolute: bool = False
    end_column_absolute: bool = False


@dataclass(frozen=True, slots=True)
class ErrorNode(FormulaNode):
    """A literal spreadsheet error such as ``#REF!``.

    Produced by the parser for error literals and by the structural-edit
    rewriter when a reference's entire referent was deleted.  Evaluating an
    error node yields the error code itself.
    """

    code: str


@dataclass(frozen=True, slots=True)
class UnaryOpNode(FormulaNode):
    """A unary operator application (``-x``, ``+x``, ``x%``)."""

    operator: str
    operand: FormulaNode

    def children(self) -> Iterator[FormulaNode]:
        yield self.operand


@dataclass(frozen=True, slots=True)
class BinaryOpNode(FormulaNode):
    """A binary operator application."""

    operator: str
    left: FormulaNode
    right: FormulaNode

    def children(self) -> Iterator[FormulaNode]:
        yield self.left
        yield self.right


@dataclass(frozen=True, slots=True)
class FunctionCallNode(FormulaNode):
    """A function invocation such as ``SUM(B2:C10)``."""

    name: str
    arguments: tuple[FormulaNode, ...]

    def children(self) -> Iterator[FormulaNode]:
        yield from self.arguments
