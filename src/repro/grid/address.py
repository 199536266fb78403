"""A1-style cell addressing.

Spreadsheets reference columns with letters (``A`` .. ``Z``, ``AA`` ..) and
rows with 1-based numbers.  Internally the library uses 1-based integer
coordinates for both rows and columns; this module converts between the two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

from repro.errors import AddressError

_A1_PATTERN = re.compile(r"^\$?([A-Za-z]{1,7})\$?([0-9]+)$")

#: Largest row / column index accepted.  Matches common spreadsheet limits
#: (Excel allows 2^20 rows and 2^14 columns); we are deliberately more
#: permissive because DataSpread targets sheets beyond those limits.
MAX_ROWS = 2**31 - 1
MAX_COLUMNS = 2**20


def column_letter_to_index(letters: str) -> int:
    """Convert a column label (``"A"``, ``"AB"``) to a 1-based column index.

    >>> column_letter_to_index("A")
    1
    >>> column_letter_to_index("Z")
    26
    >>> column_letter_to_index("AA")
    27
    """
    if not letters or not letters.isalpha():
        raise AddressError(f"invalid column label: {letters!r}")
    index = 0
    for char in letters.upper():
        index = index * 26 + (ord(char) - ord("A") + 1)
    if index > MAX_COLUMNS:
        raise AddressError(f"column label {letters!r} exceeds the column limit")
    return index


def column_index_to_letter(index: int) -> str:
    """Convert a 1-based column index to its letter label.

    >>> column_index_to_letter(1)
    'A'
    >>> column_index_to_letter(27)
    'AA'
    """
    if index < 1:
        raise AddressError(f"column index must be >= 1, got {index}")
    letters: list[str] = []
    remaining = index
    while remaining > 0:
        remaining, digit = divmod(remaining - 1, 26)
        letters.append(chr(ord("A") + digit))
    return "".join(reversed(letters))


@total_ordering
@dataclass(frozen=True, slots=True)
class CellAddress:
    """A single cell location: 1-based ``row`` and ``column``.

    Instances are immutable, hashable, and ordered in row-major order, which
    is the natural scan order for the row-oriented data model.
    """

    row: int
    column: int

    def __post_init__(self) -> None:
        if self.row < 1 or self.column < 1:
            raise AddressError(
                f"cell coordinates must be >= 1, got row={self.row}, column={self.column}"
            )
        if self.row > MAX_ROWS or self.column > MAX_COLUMNS:
            raise AddressError(
                f"cell coordinates out of bounds: row={self.row}, column={self.column}"
            )

    @classmethod
    def from_a1(cls, reference: str) -> "CellAddress":
        """Parse an A1-style reference such as ``"B2"`` or ``"$C$10"``."""
        match = _A1_PATTERN.match(reference.strip())
        if match is None:
            raise AddressError(f"invalid A1 reference: {reference!r}")
        letters, digits = match.groups()
        row = int(digits)
        if row < 1:
            raise AddressError(f"invalid row in A1 reference: {reference!r}")
        return cls(row=row, column=column_letter_to_index(letters))

    def to_a1(self) -> str:
        """Render this address in A1 notation (``"B2"``)."""
        return f"{column_index_to_letter(self.column)}{self.row}"

    def offset(self, rows: int = 0, columns: int = 0) -> "CellAddress":
        """Return a new address shifted by ``rows`` and ``columns``."""
        return CellAddress(self.row + rows, self.column + columns)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, CellAddress):
            return NotImplemented
        return (self.row, self.column) < (other.row, other.column)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.to_a1()
