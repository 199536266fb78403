"""Shared validation for structural-edit coordinates.

Structural edits (row/column inserts and deletes) are *extent-free*: a line
at or beyond a model's stored extent is perfectly legal and is treated as
implicit empty space — deletes clip to the stored portion (and still shift
the grid), inserts extend the mapping lazily (a no-op until a write lands
there).  The only invalid inputs are the ones that are meaningless in grid
coordinates, independent of any extent:

* an insert anchored before line 0 (``insert_*_after(0)`` inserts before the
  first line; anything negative addresses no line at all),
* a delete starting before line 1,
* a non-positive count (the degenerate/inverted-range case).

Those raise :class:`~repro.errors.PositionError`.  Every layer that accepts
structural edits — the ``Sheet`` oracle, the primitive models, the hybrid
router, and the ``DataSpread`` engine — validates through these two helpers
(a :class:`StructuralEdit` runs them on construction) so the taxonomy cannot
drift between layers.

:class:`StructuralEdit` is the one currency every layer passes for such an
edit, and the single place that decides how a coordinate moves under it:
lines, addresses, spans and ranges map through it (the dependency graph,
aggregate store, scheduler, WAL and formula rewriter), and the data models
ask it which part of an edit lands on their stored lines
(:meth:`StructuralEdit.clip_to`, :meth:`StructuralEdit.relative_to`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import PositionError
from repro.grid.address import MAX_COLUMNS, MAX_ROWS, CellAddress
from repro.grid.range import RangeRef


def check_insert_line(line: int, count: int, *, axis: str = "line") -> None:
    """Validate an ``insert_*_after(line, count)`` request.

    ``line`` may be 0 (insert before the first line) or any positive index,
    including far beyond the stored extent.
    """
    if count < 1:
        raise PositionError(f"cannot insert {count} {axis}(s): count must be >= 1")
    if line < 0:
        raise PositionError(
            f"cannot insert after {axis} {line}: the anchor must be >= 0"
        )


def check_delete_line(line: int, count: int, *, axis: str = "line") -> None:
    """Validate a ``delete_*(line, count)`` request.

    ``line`` must be a real grid line (>= 1); it may lie beyond the stored
    extent (the delete then clips to a no-op on storage).
    """
    if count < 1:
        raise PositionError(f"cannot delete {count} {axis}(s): count must be >= 1")
    if line < 1:
        raise PositionError(
            f"cannot delete starting at {axis} {line}: grid lines start at 1"
        )


@dataclass(frozen=True, slots=True)
class StructuralEdit:
    """One structural edit: insert or delete ``count`` rows or columns.

    ``line`` is the 1-based row/column index the edit anchors on: for an
    insert, new lines appear immediately *after* ``line`` (0 inserts before
    the first line); for a delete, ``line`` is the *first* deleted line.
    Meaningless coordinates raise :class:`~repro.errors.PositionError` on
    construction, so an edit that exists is valid at every layer.
    """

    axis: str      # "row" or "column"
    kind: str      # "insert" or "delete"
    line: int
    count: int

    def __post_init__(self) -> None:
        if self.axis not in ("row", "column"):
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.kind == "insert":
            check_insert_line(self.line, self.count, axis=self.axis)
        elif self.kind == "delete":
            check_delete_line(self.line, self.count, axis=self.axis)
        else:
            raise ValueError(f"unknown edit kind {self.kind!r}")

    # ------------------------------------------------------------------ #
    # constructors mirroring the engine's structural operations
    # ------------------------------------------------------------------ #
    @classmethod
    def insert_rows(cls, after: int, count: int = 1) -> "StructuralEdit":
        """Rows inserted immediately after row ``after``."""
        return cls(axis="row", kind="insert", line=after, count=count)

    @classmethod
    def delete_rows(cls, first: int, count: int = 1) -> "StructuralEdit":
        """Rows ``first .. first+count-1`` deleted."""
        return cls(axis="row", kind="delete", line=first, count=count)

    @classmethod
    def insert_columns(cls, after: int, count: int = 1) -> "StructuralEdit":
        """Columns inserted immediately after column ``after``."""
        return cls(axis="column", kind="insert", line=after, count=count)

    @classmethod
    def delete_columns(cls, first: int, count: int = 1) -> "StructuralEdit":
        """Columns ``first .. first+count-1`` deleted."""
        return cls(axis="column", kind="delete", line=first, count=count)

    # ------------------------------------------------------------------ #
    # coordinate mapping
    # ------------------------------------------------------------------ #
    def map_line(self, line: int) -> int | None:
        """Where one row/column index lands, or ``None`` when deleted."""
        if self.kind == "insert":
            return line + self.count if line > self.line else line
        if line < self.line:
            return line
        if line < self.line + self.count:
            return None
        return line - self.count

    def map_span(self, start: int, end: int) -> tuple[int, int] | None:
        """Where an inclusive ``[start, end]`` span lands.

        A span straddling an insert expands; a span overlapping a deletion
        contracts; a span entirely inside a deletion maps to ``None``.
        """
        if self.kind == "insert":
            return (
                start + self.count if start > self.line else start,
                end + self.count if end > self.line else end,
            )
        first, past = self.line, self.line + self.count
        if end < first:
            return start, end
        if start >= past:
            return start - self.count, end - self.count
        new_start = start if start < first else first
        new_end = end - self.count if end >= past else first - 1
        if new_start > new_end:
            return None
        return new_start, new_end

    def map_address(self, address: CellAddress) -> CellAddress | None:
        """Where a cell address lands, or ``None`` when its cell is gone.

        A cell is gone either because it was deleted or because an insert
        pushed it past the sheet's row/column limit (off the sheet).
        """
        if self.axis == "row":
            row = self.map_line(address.row)
            if row is None or row > MAX_ROWS:
                return None
            return CellAddress(row, address.column)
        column = self.map_line(address.column)
        if column is None or column > MAX_COLUMNS:
            return None
        return CellAddress(address.row, column)

    def map_range(self, region: RangeRef) -> RangeRef | None:
        """Where a rectangular range lands, or ``None`` when fully gone.

        A range pushed partially past the sheet's row/column limit by an
        insert is clamped to the limit; one pushed entirely past it maps to
        ``None`` like a fully deleted range.
        """
        span = self.map_span(*self.span_of(region))
        limit = MAX_ROWS if self.axis == "row" else MAX_COLUMNS
        if span is None or span[0] > limit:
            return None
        return self.with_span(region, span[0], min(span[1], limit))

    def reshapes(self, region: RangeRef) -> bool:
        """Whether ``region`` covers a different set of cells after the edit.

        False for a range the edit leaves alone or merely translates: it
        reads exactly the cells it read before, so whatever was computed
        from it still holds.  True when the range straddles an insert (it
        gains blank lines), overlaps deleted lines (it shrinks or
        vanishes), or is pushed past the sheet limit (its tail is clamped
        off).
        """
        start, end = self.span_of(region)
        if self.kind == "insert":
            limit = MAX_ROWS if self.axis == "row" else MAX_COLUMNS
            return end > self.line and (start <= self.line or end + self.count > limit)
        return start < self.line + self.count and end >= self.line

    # ------------------------------------------------------------------ #
    # the edited axis of a rectangle
    # ------------------------------------------------------------------ #
    def span_of(self, region: RangeRef) -> tuple[int, int]:
        """``region``'s inclusive extent along the edited axis."""
        if self.axis == "row":
            return region.top, region.bottom
        return region.left, region.right

    def with_span(self, region: RangeRef, start: int, end: int) -> RangeRef:
        """``region`` with its extent along the edited axis replaced."""
        if self.axis == "row":
            return RangeRef(start, region.left, end, region.right)
        return RangeRef(region.top, start, region.bottom, end)

    # ------------------------------------------------------------------ #
    # the part of the edit one stored region absorbs
    # ------------------------------------------------------------------ #
    def clip_to(self, start: int, end: int) -> "StructuralEdit | None":
        """The part of this edit that lands *inside* lines ``[start, end]``.

        ``None`` when nothing does — an insert before the span's first line
        or at/after its last, a delete that misses it: whoever stores the
        span then has nothing to absorb and at most moves, to where
        :meth:`map_span` says.  An insert inside comes back as-is; a delete
        comes back cut to its overlap with the span.
        """
        if self.kind == "insert":
            return self if start <= self.line < end else None
        first = max(start, self.line)
        last = min(end, self.line + self.count - 1)
        if first > last:
            return None
        return replace(self, line=first, count=last - first + 1)

    def relative_to(self, anchor: int) -> tuple[int, int, int]:
        """This edit as seen by a model whose first stored line is ``anchor``.

        Returns ``(new_anchor, line, count)``: the anchor after the edit and
        the part of the edit on the stored side, with ``line`` 1-based
        relative to the anchor and meaning what :attr:`line` means (insert
        after it / first deleted line); ``count`` is 0 when nothing stored
        is touched.  Lines strictly above/left of the anchor are implicit
        empty space: an insert there moves the anchor down and a delete
        re-anchors the model upward, neither touching storage (the stored
        side still clips ``count`` at its far end).

        Every model shares this arithmetic so the above-anchor semantics
        cannot drift between ROM, COM and RCV (or between the two axes).
        """
        relative = self.line - anchor + 1
        if self.kind == "insert":
            if relative < 0:
                return anchor + self.count, 0, 0
            return anchor, relative, self.count
        if relative >= 1:
            return anchor, relative, self.count
        above = min(self.count, 1 - relative)
        return max(self.line, anchor - self.count), 1, self.count - above
