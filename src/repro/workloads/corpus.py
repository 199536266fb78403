"""Synthetic spreadsheet corpora calibrated to the paper's Table I.

Each :class:`CorpusProfile` captures the aggregate structure of one of the
paper's four corpora — how dense sheets are, how much of the data sits in
tabular regions, how many sheets contain formulae and how far those formulae
reach.  :func:`generate_corpus` then produces a seeded list of sheets whose
aggregate statistics land in the same regime, which is what the downstream
storage/model-selection experiments depend on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.grid.address import CellAddress
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet


@dataclass(frozen=True)
class CorpusProfile:
    """Generation parameters for one corpus."""

    name: str
    #: Probability that a sheet contains any formulae (Table I col. 2).
    formula_sheet_probability: float
    #: Of the formula sheets, the target fraction of non-empty cells that are
    #: formulae (Table I col. 4-5 regime).
    formula_cell_fraction: float
    #: Probability that a sheet is sparse (scattered cells / forms) rather
    #: than dominated by dense tables (drives Table I density columns).
    sparse_sheet_probability: float
    #: Number of tabular regions per sheet (inclusive range).
    tables_per_sheet: tuple[int, int]
    #: Table dimensions (rows, columns) ranges.
    table_rows: tuple[int, int]
    table_columns: tuple[int, int]
    #: Scattered (non-tabular) cells added to sparse sheets.
    scattered_cells: tuple[int, int]
    #: Whether formulae aggregate whole column ranges (large access footprint,
    #: e.g. Internet at ~334 cells/formula) or touch a handful of cells
    #: (Academic at ~3 cells/formula).
    wide_formulas: bool
    #: Sheets to generate by default.
    default_sheet_count: int = 40


#: The four corpus profiles of Table I.
CORPUS_PROFILES: dict[str, CorpusProfile] = {
    "internet": CorpusProfile(
        name="internet",
        formula_sheet_probability=0.29,
        formula_cell_fraction=0.045,
        sparse_sheet_probability=0.22,
        tables_per_sheet=(1, 2),
        table_rows=(20, 120),
        table_columns=(4, 14),
        scattered_cells=(4, 20),
        wide_formulas=True,
    ),
    "clueweb09": CorpusProfile(
        name="clueweb09",
        formula_sheet_probability=0.42,
        formula_cell_fraction=0.069,
        sparse_sheet_probability=0.47,
        tables_per_sheet=(1, 2),
        table_rows=(15, 90),
        table_columns=(3, 12),
        scattered_cells=(5, 25),
        wide_formulas=True,
    ),
    "enron": CorpusProfile(
        name="enron",
        formula_sheet_probability=0.40,
        formula_cell_fraction=0.084,
        sparse_sheet_probability=0.50,
        tables_per_sheet=(1, 3),
        table_rows=(10, 80),
        table_columns=(3, 10),
        scattered_cells=(5, 30),
        wide_formulas=True,
    ),
    "academic": CorpusProfile(
        name="academic",
        formula_sheet_probability=0.91,
        formula_cell_fraction=0.25,
        sparse_sheet_probability=0.90,
        tables_per_sheet=(0, 1),
        table_rows=(6, 30),
        table_columns=(2, 6),
        scattered_cells=(30, 120),
        wide_formulas=False,
        default_sheet_count=30,
    ),
}


@dataclass
class SpreadsheetSpec:
    """A generated sheet plus bookkeeping about how it was generated."""

    sheet: Sheet
    profile: str
    tables: list[RangeRef] = field(default_factory=list)
    formula_cells: list[CellAddress] = field(default_factory=list)


# ---------------------------------------------------------------------- #
def generate_sheet(
    profile: CorpusProfile, rng: random.Random, *, name: str = "sheet"
) -> SpreadsheetSpec:
    """Generate one sheet following ``profile``."""
    sheet = Sheet(name=name)
    spec = SpreadsheetSpec(sheet=sheet, profile=profile.name)
    sparse = rng.random() < profile.sparse_sheet_probability

    table_count = rng.randint(*profile.tables_per_sheet)
    if not sparse and table_count == 0:
        table_count = 1
    next_top = 1
    for _ in range(table_count):
        rows = rng.randint(*profile.table_rows)
        columns = rng.randint(*profile.table_columns)
        top = next_top + rng.randint(0, 30 if sparse else 10)
        left = rng.randint(1, 10 if sparse else 4)
        region = _fill_table(sheet, rng, top, left, rows, columns)
        spec.tables.append(region)
        next_top = region.bottom + rng.randint(5, 80 if sparse else 40)

    if sparse:
        _fill_scattered(sheet, rng, profile, anchor_row=next_top)

    if rng.random() < profile.formula_sheet_probability:
        _add_formulas(spec, rng, profile)
    return spec


def generate_corpus(
    profile: str | CorpusProfile,
    *,
    sheets: int | None = None,
    seed: int = 2018,
) -> list[SpreadsheetSpec]:
    """Generate a corpus of sheets for one profile (seeded, reproducible)."""
    resolved = CORPUS_PROFILES[profile] if isinstance(profile, str) else profile
    count = sheets if sheets is not None else resolved.default_sheet_count
    # A string seed hashes the same in every process (``hash()`` of a str is
    # salted per process, which made the corpus differ from run to run).
    rng = random.Random(f"{seed}:{resolved.name}")
    return [
        generate_sheet(resolved, rng, name=f"{resolved.name}-{index:03d}")
        for index in range(count)
    ]


# ---------------------------------------------------------------------- #
def _fill_table(
    sheet: Sheet, rng: random.Random, top: int, left: int, rows: int, columns: int
) -> RangeRef:
    """Fill a dense tabular region with a header row plus numeric/text data."""
    for column_offset in range(columns):
        sheet.set_value(top, left + column_offset, f"field_{column_offset + 1}")
    # The paper observes (Figure 4) that tabular components are very dense
    # (>0.8); an optional trailing "notes" column filled for only part of the
    # rows provides that small amount of raggedness while keeping the fill
    # *pattern* regular (important for the weighted-grid collapse).
    ragged_rows = rng.randint(0, max(rows // 4, 0))
    for row_offset in range(1, rows):
        for column_offset in range(columns):
            if column_offset == columns - 1 and columns > 3 and row_offset <= ragged_rows:
                continue
            if column_offset == 0:
                value: object = f"rec-{row_offset:04d}"
            elif rng.random() < 0.8:
                value = round(rng.uniform(0, 1_000), 2)
            else:
                value = rng.choice(("north", "south", "east", "west", "n/a"))
            sheet.set_value(top + row_offset, left + column_offset, value)
    return RangeRef(top, left, top + rows - 1, left + columns - 1)


def _fill_scattered(
    sheet: Sheet, rng: random.Random, profile: CorpusProfile, *, anchor_row: int
) -> None:
    """Scatter form-style label/value rows (low density, repetitive structure).

    Real "sparse" sheets are forms and reports: labels in one or two columns,
    values next to them, lots of empty space between entries.  The fill
    *patterns* repeat across rows, which both matches the paper's observation
    that even sparse sheets have regular structure and keeps the weighted
    grid of the decomposition algorithms small.
    """
    count = rng.randint(*profile.scattered_cells)
    label_column = rng.randint(1, 4)
    value_column = label_column + rng.randint(1, 3)
    extra_column = value_column + rng.randint(2, 6)
    patterns = (
        (label_column, value_column),
        (label_column,),
        (value_column,),
        (label_column, value_column, extra_column),
    )
    max_row = anchor_row + max(2 * count, 20)
    placed = 0
    while placed < count:
        row = rng.randint(1, max_row)
        pattern = rng.choice(patterns)
        for column in pattern:
            if column == label_column:
                sheet.set_value(row, column, rng.choice(
                    ("Total", "Name", "Date", "Status", "Notes", "Owner", "Due")
                ))
            else:
                sheet.set_value(row, column, round(rng.uniform(0, 500), 2))
            placed += 1


def _add_formulas(spec: SpreadsheetSpec, rng: random.Random, profile: CorpusProfile) -> None:
    """Add formulae reaching into the sheet's tabular regions."""
    sheet = spec.sheet
    target = max(1, int(sheet.cell_count() * profile.formula_cell_fraction))
    added = 0
    guard = 0
    while added < target and guard < target * 20:
        guard += 1
        if spec.tables and (profile.wide_formulas and rng.random() < 0.6):
            # Column aggregate over a table: SUM/AVERAGE/COUNT of a column range.
            table = rng.choice(spec.tables)
            column = rng.randint(table.left, table.right)
            top = table.top + 1
            bottom = table.bottom
            if bottom <= top:
                continue
            function = rng.choice(("SUM", "AVERAGE", "COUNT", "MAX", "MIN"))
            reference = RangeRef(top, column, bottom, column).to_a1()
            row = table.bottom + 1 + rng.randint(0, 2)
            target_column = column
            sheet.set_formula(row, target_column, f"{function}({reference})")
            spec.formula_cells.append(CellAddress(row, target_column))
        elif spec.tables:
            # Derived column: arithmetic over two cells of the same row.
            table = rng.choice(spec.tables)
            if table.right - table.left < 2 or table.bottom - table.top < 1:
                continue
            row = rng.randint(table.top + 1, table.bottom)
            first = CellAddress(row, table.left + 1).to_a1()
            second = CellAddress(row, min(table.left + 2, table.right)).to_a1()
            operator = rng.choice(("+", "-", "*"))
            column = table.right + 1
            sheet.set_formula(row, column, f"{first}{operator}{second}")
            spec.formula_cells.append(CellAddress(row, column))
        else:
            # Form-style sheets: IF / arithmetic over a couple of nearby cells.
            coordinates = sorted(sheet.coordinates())
            if not coordinates:
                break
            row, column = coordinates[rng.randrange(len(coordinates))]
            reference = CellAddress(row, column).to_a1()
            target_row = row + rng.randint(1, 3)
            formula = rng.choice(
                (f"IF(ISBLANK({reference}),0,{reference}*2)", f"{reference}+1", f"ROUND({reference},0)")
            )
            sheet.set_formula(target_row, column, formula)
            spec.formula_cells.append(CellAddress(target_row, column))
        added += 1
