"""Per-sheet and per-corpus statistics (Table I).

``analyze_sheet`` computes the structural and formula-access metrics of one
sheet; ``analyze_corpus`` aggregates them into the columns of Table I:

1. number of sheets,
2. sheets with formulae,
3. sheets with > 20% formulae,
4. % formulae coverage (formula cells / non-empty cells),
5. sheets with density < 0.5 and < 0.2,
6. number of tabular regions and % of filled cells they cover,
7. cells accessed per formula and connected regions accessed per formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import FormulaError
from repro.formula.evaluator import referenced_coordinates
from repro.grid.components import connected_components, tabular_regions
from repro.grid.sheet import Sheet


@dataclass
class SheetStatistics:
    """Structure and formula metrics of a single sheet."""

    name: str
    filled_cells: int
    formula_cells: int
    density: float
    tabular_region_count: int
    tabular_cells: int
    component_densities: list[float] = field(default_factory=list)
    cells_accessed_per_formula: list[int] = field(default_factory=list)
    regions_accessed_per_formula: list[int] = field(default_factory=list)

    @property
    def has_formulas(self) -> bool:
        """Whether the sheet contains at least one formula."""
        return self.formula_cells > 0

    @property
    def formula_fraction(self) -> float:
        """Formula cells / filled cells (0 for an empty sheet)."""
        return self.formula_cells / self.filled_cells if self.filled_cells else 0.0


@dataclass
class CorpusStatistics:
    """Aggregate Table-I style statistics for one corpus."""

    name: str
    sheet_count: int
    sheets_with_formulas: float
    sheets_with_heavy_formulas: float
    formula_coverage: float
    sheets_density_below_half: float
    sheets_density_below_fifth: float
    tabular_region_count: int
    tabular_coverage: float
    cells_per_formula: float
    regions_per_formula: float

    def as_row(self) -> dict[str, float | int | str]:
        """The Table-I row for this corpus."""
        return {
            "dataset": self.name,
            "sheets": self.sheet_count,
            "sheets_with_formulae_pct": round(100 * self.sheets_with_formulas, 2),
            "sheets_with_gt20pct_formulae_pct": round(100 * self.sheets_with_heavy_formulas, 2),
            "formulae_coverage_pct": round(100 * self.formula_coverage, 2),
            "sheets_density_lt_0.5_pct": round(100 * self.sheets_density_below_half, 2),
            "sheets_density_lt_0.2_pct": round(100 * self.sheets_density_below_fifth, 2),
            "tabular_regions": self.tabular_region_count,
            "tabular_coverage_pct": round(100 * self.tabular_coverage, 2),
            "cells_per_formula": round(self.cells_per_formula, 2),
            "regions_per_formula": round(self.regions_per_formula, 2),
        }


# ---------------------------------------------------------------------- #
def analyze_sheet(sheet: Sheet) -> SheetStatistics:
    """Compute the structural and formula metrics of one sheet."""
    coordinates = sheet.coordinates()
    components = connected_components(coordinates)
    tabular = tabular_regions(coordinates)
    cells_per_formula: list[int] = []
    regions_per_formula: list[int] = []
    for _address, formula in sheet.formulas():
        try:
            accessed = referenced_coordinates(formula)
        except FormulaError:
            continue
        cells_per_formula.append(len(accessed))
        regions_per_formula.append(
            len(connected_components(accessed)) if accessed else 0
        )
    return SheetStatistics(
        name=sheet.name,
        filled_cells=sheet.cell_count(),
        formula_cells=sheet.formula_count(),
        density=sheet.density(),
        tabular_region_count=len(tabular),
        tabular_cells=sum(component.cell_count for component in tabular),
        component_densities=[component.density for component in components],
        cells_accessed_per_formula=cells_per_formula,
        regions_accessed_per_formula=regions_per_formula,
    )


def analyze_corpus(name: str, sheets: Iterable[Sheet]) -> CorpusStatistics:
    """Aggregate sheet statistics into a Table-I row for one corpus."""
    per_sheet = [analyze_sheet(sheet) for sheet in sheets]
    if not per_sheet:
        return CorpusStatistics(
            name=name, sheet_count=0, sheets_with_formulas=0.0,
            sheets_with_heavy_formulas=0.0, formula_coverage=0.0,
            sheets_density_below_half=0.0, sheets_density_below_fifth=0.0,
            tabular_region_count=0, tabular_coverage=0.0,
            cells_per_formula=0.0, regions_per_formula=0.0,
        )
    total_filled = sum(stats.filled_cells for stats in per_sheet)
    total_formulas = sum(stats.formula_cells for stats in per_sheet)
    total_tabular_cells = sum(stats.tabular_cells for stats in per_sheet)
    all_cells_per_formula = [
        count for stats in per_sheet for count in stats.cells_accessed_per_formula
    ]
    all_regions_per_formula = [
        count for stats in per_sheet for count in stats.regions_accessed_per_formula
    ]
    return CorpusStatistics(
        name=name,
        sheet_count=len(per_sheet),
        sheets_with_formulas=_fraction(per_sheet, lambda s: s.has_formulas),
        sheets_with_heavy_formulas=_fraction(per_sheet, lambda s: s.formula_fraction > 0.20),
        formula_coverage=total_formulas / total_filled if total_filled else 0.0,
        sheets_density_below_half=_fraction(per_sheet, lambda s: s.density < 0.5),
        sheets_density_below_fifth=_fraction(per_sheet, lambda s: s.density < 0.2),
        tabular_region_count=sum(stats.tabular_region_count for stats in per_sheet),
        tabular_coverage=total_tabular_cells / total_filled if total_filled else 0.0,
        cells_per_formula=_mean(all_cells_per_formula),
        regions_per_formula=_mean(all_regions_per_formula),
    )


# ---------------------------------------------------------------------- #
def _fraction(items: Sequence[SheetStatistics], predicate) -> float:
    return sum(1 for item in items if predicate(item)) / len(items)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
