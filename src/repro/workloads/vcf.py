"""Synthetic VCF-like genomic data (the Example 1 / Section VII-D(a) use case).

The paper's biologists work with variant-call files of ~1.3M rows and 284
columns.  That file is proprietary, so this generator produces rows with the
same shape: the eight standard VCF fixed columns followed by per-sample
genotype columns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: The fixed columns of the VCF specification.
VCF_FIXED_COLUMNS = ("CHROM", "POS", "ID", "REF", "ALT", "QUAL", "FILTER", "INFO")

_BASES = ("A", "C", "G", "T")
_FILTERS = ("PASS", "q10", "s50")


@dataclass(frozen=True)
class VCFSpec:
    """Shape of the generated variant file."""

    rows: int = 10_000
    sample_columns: int = 276        # 284 total columns, as in the paper's file
    seed: int = 42

    @property
    def total_columns(self) -> int:
        """Fixed columns plus per-sample genotype columns."""
        return len(VCF_FIXED_COLUMNS) + self.sample_columns


def vcf_header(spec: VCFSpec) -> list[str]:
    """The header row: fixed columns plus sample identifiers."""
    return list(VCF_FIXED_COLUMNS) + [f"SAMPLE_{index:04d}" for index in range(spec.sample_columns)]


def generate_vcf_rows(spec: VCFSpec = VCFSpec()) -> Iterator[list[object]]:
    """Yield data rows (without the header) one at a time."""
    rng = random.Random(spec.seed)
    position = 10_000
    for index in range(spec.rows):
        position += rng.randint(50, 3_000)
        reference = rng.choice(_BASES)
        alternate = rng.choice([base for base in _BASES if base != reference])
        row: list[object] = [
            f"chr{1 + index % 22}",
            position,
            f"rs{rng.randint(10_000, 99_999_999)}",
            reference,
            alternate,
            round(rng.uniform(10, 100), 1),
            rng.choice(_FILTERS),
            f"DP={rng.randint(5, 250)};AF={round(rng.random(), 3)}",
        ]
        row.extend(rng.choice(("0/0", "0/1", "1/1", "./.")) for _ in range(spec.sample_columns))
        yield row
