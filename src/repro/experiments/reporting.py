"""Experiment results and plain-text rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExperimentResult:
    """The output of one experiment: tabular rows plus free-form notes."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]]
    notes: list[str] = field(default_factory=list)
    paper_reference: str = ""

    @property
    def columns(self) -> list[str]:
        """Union of row keys, in first-appearance order."""
        columns: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns


def format_result(result: ExperimentResult, *, max_width: int = 28) -> str:
    """Render a result as an aligned plain-text table."""
    lines = [f"== {result.experiment_id}: {result.title} =="]
    if result.paper_reference:
        lines.append(f"(paper: {result.paper_reference})")
    columns = result.columns
    if columns:
        rendered_rows = [
            [_render(row.get(column), max_width) for column in columns] for row in result.rows
        ]
        widths = [
            min(max(len(column), *(len(rendered[i]) for rendered in rendered_rows), 1), max_width)
            if rendered_rows else len(column)
            for i, column in enumerate(columns)
        ]
        lines.append("  ".join(column.ljust(width) for column, width in zip(columns, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for rendered in rendered_rows:
            lines.append("  ".join(value.ljust(width) for value, width in zip(rendered, widths)))
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _render(value: Any, max_width: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        text = f"{value:.3f}" if abs(value) < 1_000 else f"{value:.1f}"
    else:
        text = str(value)
    return text if len(text) <= max_width else text[: max_width - 1] + "…"


def normalize_to_worst(values: dict[str, float]) -> dict[str, float]:
    """Scale a cost dictionary so the worst entry becomes 100 (Figure 13/25 style)."""
    worst = max(values.values()) if values else 0.0
    if worst <= 0:
        return {key: 0.0 for key in values}
    return {key: 100.0 * value / worst for key, value in values.items()}
