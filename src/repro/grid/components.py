"""Connected components and tabular-region detection (Section II).

The paper analyses spreadsheet structure by building a graph over filled
cells, connecting cells that are adjacent, computing connected components,
and declaring a component a *tabular region* when it spans at least two
columns and five rows with density >= 0.7.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection

from repro.grid.bounding import BoundingBox, bounding_box

#: Paper thresholds for declaring a connected component a tabular region.
TABULAR_MIN_ROWS = 5
TABULAR_MIN_COLUMNS = 2
TABULAR_MIN_DENSITY = 0.7

#: 8-neighbourhood used to decide adjacency between filled cells.  The paper
#: says "adjacent"; using the 8-neighbourhood makes diagonal-touching cells
#: part of the same component, which matches how tables with header gaps are
#: grouped.  The 4-neighbourhood is available via ``diagonal=False``.
_ORTHOGONAL_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))
_DIAGONAL_OFFSETS = ((-1, -1), (-1, 1), (1, -1), (1, 1))


@dataclass(frozen=True, slots=True)
class ComponentStats:
    """Summary of one connected component of filled cells."""

    cells: frozenset[tuple[int, int]]
    box: BoundingBox

    @property
    def cell_count(self) -> int:
        """Number of filled cells in the component."""
        return len(self.cells)

    @property
    def density(self) -> float:
        """Filled cells / bounding-box area."""
        return len(self.cells) / self.box.area

    @property
    def is_tabular(self) -> bool:
        """Whether this component qualifies as a tabular region (paper thresholds)."""
        return (
            self.box.rows >= TABULAR_MIN_ROWS
            and self.box.columns >= TABULAR_MIN_COLUMNS
            and self.density >= TABULAR_MIN_DENSITY
        )


def connected_components(
    coordinates: Collection[tuple[int, int]], *, diagonal: bool = True
) -> list[ComponentStats]:
    """Group filled cells into connected components.

    Parameters
    ----------
    coordinates:
        The filled ``(row, column)`` pairs.
    diagonal:
        Whether diagonal adjacency joins cells into one component.

    Returns
    -------
    list[ComponentStats]
        One entry per component, ordered by decreasing cell count.
    """
    remaining = set(coordinates)
    offsets = _ORTHOGONAL_OFFSETS + (_DIAGONAL_OFFSETS if diagonal else ())
    components: list[ComponentStats] = []
    while remaining:
        seed = next(iter(remaining))
        remaining.discard(seed)
        queue: deque[tuple[int, int]] = deque([seed])
        members: set[tuple[int, int]] = {seed}
        while queue:
            row, column = queue.popleft()
            for row_offset, column_offset in offsets:
                neighbour = (row + row_offset, column + column_offset)
                if neighbour in remaining:
                    remaining.discard(neighbour)
                    members.add(neighbour)
                    queue.append(neighbour)
        box = bounding_box(members)
        assert box is not None  # members is non-empty
        components.append(ComponentStats(cells=frozenset(members), box=box))
    components.sort(key=lambda component: component.cell_count, reverse=True)
    return components


def tabular_regions(
    coordinates: Collection[tuple[int, int]], *, diagonal: bool = True
) -> list[ComponentStats]:
    """The connected components that qualify as tabular regions."""
    return [
        component
        for component in connected_components(coordinates, diagonal=diagonal)
        if component.is_tabular
    ]
