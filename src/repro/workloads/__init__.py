"""Workload generators used by the evaluation.

The paper's corpora (Internet, ClueWeb09, Enron, Academic), VCF file, retail
database, user survey and update traces are not redistributable; this package
provides seeded synthetic equivalents calibrated to the aggregate statistics
the paper reports (see DESIGN.md, "Substitutions").
"""

from repro.workloads.corpus import (
    CORPUS_PROFILES,
    CorpusProfile,
    SpreadsheetSpec,
    generate_corpus,
    generate_sheet,
)
from repro.workloads.synthetic import SyntheticSheetSpec, generate_synthetic_sheet, generate_dense_sheet
from repro.workloads.vcf import VCFSpec, generate_vcf_rows
from repro.workloads.retail import RetailDataset, generate_retail_dataset
from repro.workloads.survey import SURVEY_OPERATIONS, SurveyQuestion
from repro.workloads.operations import OperationKind, UpdateOperation, generate_update_trace

__all__ = [
    "CORPUS_PROFILES",
    "CorpusProfile",
    "SpreadsheetSpec",
    "generate_corpus",
    "generate_sheet",
    "SyntheticSheetSpec",
    "generate_synthetic_sheet",
    "generate_dense_sheet",
    "VCFSpec",
    "generate_vcf_rows",
    "RetailDataset",
    "generate_retail_dataset",
    "SURVEY_OPERATIONS",
    "SurveyQuestion",
    "OperationKind",
    "UpdateOperation",
    "generate_update_trace",
]
