"""Rectangular ranges of cells.

Ranges are the unit of presentational access in the paper: scrolling fetches
a visible rectangle, and most formulae (SUM, VLOOKUP, ...) access one or more
rectangular ranges (Takeaway 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import RangeError
from repro.grid.address import CellAddress


@dataclass(frozen=True, slots=True)
class RangeRef:
    """An inclusive rectangular range ``[top..bottom] x [left..right]``."""

    top: int
    left: int
    bottom: int
    right: int

    def __post_init__(self) -> None:
        if self.top < 1 or self.left < 1:
            raise RangeError(
                f"range coordinates must be >= 1: {(self.top, self.left, self.bottom, self.right)}"
            )
        if self.bottom < self.top or self.right < self.left:
            raise RangeError(
                f"inverted range: {(self.top, self.left, self.bottom, self.right)}"
            )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_a1(cls, reference: str) -> "RangeRef":
        """Parse ``"B2:C10"`` (or a single-cell reference like ``"B2"``)."""
        text = reference.strip()
        if ":" in text:
            start_text, end_text = text.split(":", 1)
            start = CellAddress.from_a1(start_text)
            end = CellAddress.from_a1(end_text)
        else:
            start = end = CellAddress.from_a1(text)
        return cls(
            top=min(start.row, end.row),
            left=min(start.column, end.column),
            bottom=max(start.row, end.row),
            right=max(start.column, end.column),
        )

    @classmethod
    def from_addresses(cls, start: CellAddress, end: CellAddress) -> "RangeRef":
        """Build the bounding range of two corner addresses."""
        return cls(
            top=min(start.row, end.row),
            left=min(start.column, end.column),
            bottom=max(start.row, end.row),
            right=max(start.column, end.column),
        )

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> int:
        """Number of rows spanned."""
        return self.bottom - self.top + 1

    @property
    def columns(self) -> int:
        """Number of columns spanned."""
        return self.right - self.left + 1

    @property
    def area(self) -> int:
        """Number of cells (filled or not) in the rectangle."""
        return self.rows * self.columns

    def contains(self, address: CellAddress) -> bool:
        """Whether ``address`` falls inside this range."""
        return (
            self.top <= address.row <= self.bottom
            and self.left <= address.column <= self.right
        )

    def contains_coordinates(self, row: int, column: int) -> bool:
        """Like :meth:`contains`, without requiring a CellAddress allocation."""
        return self.top <= row <= self.bottom and self.left <= column <= self.right

    def contains_range(self, other: "RangeRef") -> bool:
        """Whether ``other`` is entirely inside this range."""
        return (
            self.top <= other.top
            and self.left <= other.left
            and self.bottom >= other.bottom
            and self.right >= other.right
        )

    def overlaps(self, other: "RangeRef") -> bool:
        """Whether the two rectangles share at least one cell."""
        return not (
            other.left > self.right
            or other.right < self.left
            or other.top > self.bottom
            or other.bottom < self.top
        )

    def intersection(self, other: "RangeRef") -> "RangeRef | None":
        """The overlapping rectangle, or ``None`` when disjoint."""
        if not self.overlaps(other):
            return None
        return RangeRef(
            top=max(self.top, other.top),
            left=max(self.left, other.left),
            bottom=min(self.bottom, other.bottom),
            right=min(self.right, other.right),
        )

    def union_bounding(self, other: "RangeRef") -> "RangeRef":
        """The minimum bounding rectangle covering both ranges."""
        return RangeRef(
            top=min(self.top, other.top),
            left=min(self.left, other.left),
            bottom=max(self.bottom, other.bottom),
            right=max(self.right, other.right),
        )

    def addresses(self) -> Iterator[CellAddress]:
        """Iterate the addresses of the range in row-major order."""
        for row in range(self.top, self.bottom + 1):
            for column in range(self.left, self.right + 1):
                yield CellAddress(row, column)

    def shifted(self, rows: int = 0, columns: int = 0) -> "RangeRef":
        """Return the range translated by ``rows``/``columns``."""
        return RangeRef(
            self.top + rows, self.left + columns, self.bottom + rows, self.right + columns
        )

    def to_a1(self) -> str:
        """Render the range in A1 notation (``"B2:C10"``)."""
        start = CellAddress(self.top, self.left).to_a1()
        end = CellAddress(self.bottom, self.right).to_a1()
        return start if start == end else f"{start}:{end}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.to_a1()
