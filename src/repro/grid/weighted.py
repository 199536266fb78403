"""Weighted (collapsed) grid representation (Section IV-D, Theorem 5).

Rows with identical fill structure are collapsed into a single weighted row;
columns likewise.  Running the recursive-decomposition DP on the weighted
grid explores a smaller cut space without sacrificing optimality, because an
optimal recursive decomposition never needs to cut between two structurally
identical rows/columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np


@dataclass(frozen=True)
class WeightedGrid:
    """A dense occupancy grid with per-row and per-column multiplicities.

    ``occupancy[i][j]`` is the number of filled *original* cells represented
    by weighted cell (i, j); it equals ``row_weights[i] * col_weights[j]``
    when the cell is filled and 0 otherwise.  Coordinates are 0-based within
    the bounding box of the original filled cells.
    """

    occupancy: np.ndarray           # shape (R, C), dtype int64
    row_weights: tuple[int, ...]    # length R
    col_weights: tuple[int, ...]    # length C
    origin: tuple[int, int]         # (top, left) of the original bounding box

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int]:
        """(weighted rows, weighted columns)."""
        return self.occupancy.shape  # type: ignore[return-value]

    @property
    def original_shape(self) -> tuple[int, int]:
        """(original rows, original columns) of the bounding box."""
        return sum(self.row_weights), sum(self.col_weights)

    @property
    def filled_cells(self) -> int:
        """Total number of filled cells in the original grid."""
        return int(self.occupancy.sum())

    # ------------------------------------------------------------------ #
    @classmethod
    def from_coordinates(cls, coordinates: Collection[tuple[int, int]]) -> "WeightedGrid":
        """Build the weighted grid of a set of filled (row, column) pairs.

        The grid covers the minimum bounding rectangle; identical adjacent
        rows (and columns) of the 0/1 occupancy matrix are merged.
        """
        coordinates = set(coordinates)
        if not coordinates:
            return cls(
                occupancy=np.zeros((0, 0), dtype=np.int64),
                row_weights=(),
                col_weights=(),
                origin=(1, 1),
            )
        rows = sorted({row for row, _ in coordinates})
        columns = sorted({column for _, column in coordinates})
        top, left = rows[0], columns[0]
        height = rows[-1] - top + 1
        width = columns[-1] - left + 1
        dense = np.zeros((height, width), dtype=bool)
        for row, column in coordinates:
            dense[row - top, column - left] = True
        merged_rows, row_weights = _merge_identical(dense)
        merged_cols, col_weights = _merge_identical(merged_rows.T)
        merged = merged_cols.T
        weights_r = np.asarray(row_weights, dtype=np.int64)[:, None]
        weights_c = np.asarray(col_weights, dtype=np.int64)[None, :]
        occupancy = merged.astype(np.int64) * weights_r * weights_c
        return cls(
            occupancy=occupancy,
            row_weights=tuple(row_weights),
            col_weights=tuple(col_weights),
            origin=(top, left),
        )

    @classmethod
    def dense_from_coordinates(cls, coordinates: Collection[tuple[int, int]]) -> "WeightedGrid":
        """Build an *uncollapsed* grid (every weight 1) — the raw DP input."""
        coordinates = set(coordinates)
        if not coordinates:
            return cls.from_coordinates(coordinates)
        rows = sorted({row for row, _ in coordinates})
        columns = sorted({column for _, column in coordinates})
        top, left = rows[0], columns[0]
        height = rows[-1] - top + 1
        width = columns[-1] - left + 1
        dense = np.zeros((height, width), dtype=np.int64)
        for row, column in coordinates:
            dense[row - top, column - left] = 1
        return cls(
            occupancy=dense,
            row_weights=tuple([1] * height),
            col_weights=tuple([1] * width),
            origin=(top, left),
        )

    # ------------------------------------------------------------------ #
    def original_row_bounds(self, start: int, end: int) -> tuple[int, int]:
        """Map a weighted row slice [start..end] back to original 1-based rows."""
        return _original_bounds(self.row_weights, self.origin[0], start, end)

    def original_column_bounds(self, start: int, end: int) -> tuple[int, int]:
        """Map a weighted column slice [start..end] back to original 1-based columns."""
        return _original_bounds(self.col_weights, self.origin[1], start, end)


def _merge_identical(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Collapse consecutive identical rows of a boolean matrix.

    Returns the collapsed matrix and the multiplicity of each kept row.
    """
    if matrix.shape[0] == 0:
        return matrix, []
    kept_rows: list[np.ndarray] = [matrix[0]]
    weights: list[int] = [1]
    for index in range(1, matrix.shape[0]):
        if np.array_equal(matrix[index], kept_rows[-1]):
            weights[-1] += 1
        else:
            kept_rows.append(matrix[index])
            weights.append(1)
    return np.vstack(kept_rows), weights


def _original_bounds(
    weights: Sequence[int], origin: int, start: int, end: int
) -> tuple[int, int]:
    """Translate weighted indices [start..end] to original 1-based bounds."""
    prefix = 0
    first = origin
    for index, weight in enumerate(weights):
        if index == start:
            first = origin + prefix
        prefix += weight
        if index == end:
            return first, origin + prefix - 1
    raise IndexError(f"weighted slice [{start}..{end}] out of bounds")
