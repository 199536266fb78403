"""The 30-participant user survey (Section II-C, Figure 6).

The paper reports, per operation, how many of the 30 participants answered
each point of a 1 ("never") to 5 ("frequently") scale; ordering/organisation
questions use 1 ("not important/organised") to 5.  The exact per-bucket
counts are not published, so the distributions below encode the constraints
the paper states (e.g. "all thirty perform scrolling, 22 of them marking 5";
"only four marked < 4 for row/column operations") and spread the remaining
mass smoothly.  :data:`SURVEY_OPERATIONS` holds the stacked-bar data of
Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass

PARTICIPANTS = 30


@dataclass(frozen=True)
class SurveyQuestion:
    """One survey question and its response histogram (index 0 -> answer 1)."""

    key: str
    label: str
    counts: tuple[int, int, int, int, int]

    def __post_init__(self) -> None:
        if sum(self.counts) != PARTICIPANTS:
            raise ValueError(
                f"survey counts for {self.key!r} must sum to {PARTICIPANTS}, got {sum(self.counts)}"
            )

    @property
    def frequent_fraction(self) -> float:
        """Fraction of participants answering 4 or 5."""
        return (self.counts[3] + self.counts[4]) / PARTICIPANTS


#: Figure 6's six stacked bars.
SURVEY_OPERATIONS: tuple[SurveyQuestion, ...] = (
    SurveyQuestion("scrolling", "Scrolling", (0, 0, 2, 6, 22)),
    SurveyQuestion("editing", "Changing individual cells", (0, 1, 4, 10, 15)),
    SurveyQuestion("formula", "Formula evaluation", (1, 2, 5, 9, 13)),
    SurveyQuestion("rowcol", "Row/column operations", (1, 3, 0, 12, 14)),
    SurveyQuestion("tabular", "Data organised in tables", (1, 2, 2, 11, 14)),
    SurveyQuestion("ordering", "Importance of ordering", (1, 1, 3, 10, 15)),
)
