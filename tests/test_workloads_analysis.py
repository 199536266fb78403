"""Tests for the workload generators and the corpus analysis layer."""

import random

import pytest

from repro.analysis.histograms import (
    component_density_histogram,
    density_histogram,
    formula_function_distribution,
    tables_per_sheet_histogram,
)
from repro.analysis.stats import analyze_corpus, analyze_sheet
from repro.grid.sheet import Sheet
from repro.storage.database import Database
from repro.workloads.corpus import CORPUS_PROFILES, generate_corpus, generate_sheet
from repro.workloads.operations import (
    OperationKind,
    apply_trace,
    generate_update_trace,
)
from repro.workloads.retail import generate_retail_dataset
from repro.workloads.survey import PARTICIPANTS, SURVEY_OPERATIONS
from repro.workloads.synthetic import (
    SyntheticSheetSpec,
    generate_dense_sheet,
    generate_synthetic_sheet,
)
from repro.workloads.vcf import VCFSpec, generate_vcf_rows, vcf_header


class TestCorpusGenerator:
    def test_profiles_present(self):
        assert set(CORPUS_PROFILES) == {"internet", "clueweb09", "enron", "academic"}

    def test_deterministic_given_seed(self):
        first = generate_corpus("enron", sheets=4, seed=1)
        second = generate_corpus("enron", sheets=4, seed=1)
        assert [s.sheet.coordinates() for s in first] == [s.sheet.coordinates() for s in second]

    def test_same_corpus_in_every_process(self):
        # ``hash()`` of a string is salted per process: a corpus seeded from
        # one differed between runs (and so did table1's assertions).
        import os
        import pathlib
        import subprocess
        import sys

        import repro
        source = str(pathlib.Path(repro.__file__).resolve().parents[1])
        script = ("from repro.workloads.corpus import generate_corpus; "
                  "print([sorted(s.sheet.coordinates()) for s in "
                  "generate_corpus('enron', sheets=2, seed=1)])")
        outputs = {
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONHASHSEED": salt,
                                            "PYTHONPATH": source}).stdout
            for salt in ("1", "2")
        }
        assert len(outputs) == 1

    def test_sheet_has_tables_and_metadata(self):
        spec = generate_sheet(CORPUS_PROFILES["internet"], random.Random(0), name="x")
        assert spec.sheet.cell_count() > 0
        for region in spec.tables:
            assert region.area >= 8

    def test_formula_cells_recorded(self):
        specs = generate_corpus("academic", sheets=10, seed=3)
        assert any(spec.formula_cells for spec in specs)
        for spec in specs:
            for address in spec.formula_cells:
                assert spec.sheet.get_cell(address.row, address.column).has_formula

    def test_density_regimes_differ(self):
        dense_corpus = [s.sheet.density() for s in generate_corpus("internet", sheets=12, seed=5)]
        sparse_corpus = [s.sheet.density() for s in generate_corpus("academic", sheets=12, seed=5)]
        assert sum(dense_corpus) / len(dense_corpus) > sum(sparse_corpus) / len(sparse_corpus)


class TestSyntheticSheets:
    def test_dense_sheet_shape(self):
        sheet = generate_dense_sheet(20, 5)
        assert sheet.cell_count() == 100
        assert sheet.density() == pytest.approx(1.0)

    def test_dense_sheet_partial_density(self):
        sheet = generate_dense_sheet(50, 10, density=0.5, seed=1)
        assert 0.3 < sheet.density() < 0.7

    def test_synthetic_sheet_density_targets(self):
        spec = SyntheticSheetSpec(total_rows=200, total_columns=40, table_count=5,
                                  density=0.4, formula_count=10, seed=2)
        result = generate_synthetic_sheet(spec)
        assert len(result.tables) == 5
        assert len(result.formula_cells) == 10
        assert 0.2 < result.sheet.density() < 0.6

    def test_formulas_reference_tables(self):
        result = generate_synthetic_sheet(SyntheticSheetSpec(
            total_rows=100, total_columns=20, table_count=3, density=0.5, formula_count=5))
        for address in result.formula_cells:
            assert result.sheet.get_cell(address.row, address.column).has_formula


class TestVCF:
    def test_header_and_row_shapes(self):
        spec = VCFSpec(rows=10, sample_columns=5)
        header = vcf_header(spec)
        assert len(header) == spec.total_columns == 13
        rows = list(generate_vcf_rows(spec))
        assert len(rows) == 10
        assert all(len(row) == len(header) for row in rows)


class TestRetail:
    def test_referential_integrity(self):
        dataset = generate_retail_dataset(suppliers=4, customers=10, invoices=30)
        supplier_ids = {row[0] for row in dataset.suppliers}
        customer_ids = {row[0] for row in dataset.customers}
        invoice_ids = {row[0] for row in dataset.invoices}
        for invoice in dataset.invoices:
            assert invoice[1] in customer_ids
            assert invoice[2] in supplier_ids
        for payment in dataset.payments:
            assert payment[1] in invoice_ids

    def test_load_into_database(self):
        database = Database()
        generate_retail_dataset(invoices=15).load_into(database)
        assert all(database.has_table(name) for name in ("supp", "customer", "invoice", "payment"))
        assert database.table("invoice").row_count == 15


class TestSurvey:
    def test_counts_sum_to_participants(self):
        for question in SURVEY_OPERATIONS:
            assert sum(question.counts) == PARTICIPANTS

    def test_paper_constraints(self):
        distribution = {question.key: question.counts for question in SURVEY_OPERATIONS}
        assert distribution["scrolling"][4] == 22            # 22 participants marked 5
        assert sum(distribution["rowcol"][:3]) == 4          # only four marked < 4
        assert sum(distribution["tabular"][:3]) == 5
        assert sum(distribution["ordering"][:3]) == 5


class TestUpdateOperations:
    def test_trace_length_and_mix(self):
        sheet = generate_dense_sheet(30, 10)
        trace = generate_update_trace(sheet, 500, seed=2)
        assert len(trace) == 500
        kinds = {operation.kind for operation in trace}
        assert OperationKind.CHANGE_CELL in kinds
        assert OperationKind.ADD_CELL in kinds

    def test_apply_trace_grows_sheet(self):
        sheet = generate_dense_sheet(10, 5)
        before = sheet.cell_count()
        apply_trace(sheet, generate_update_trace(sheet, 200, seed=4))
        assert sheet.cell_count() >= before

    def test_custom_probabilities(self):
        sheet = generate_dense_sheet(10, 5)
        trace = generate_update_trace(
            sheet, 50, probabilities={OperationKind.ADD_ROW: 1.0}, seed=1
        )
        assert all(operation.kind is OperationKind.ADD_ROW for operation in trace)


class TestAnalysis:
    def test_analyze_sheet_metrics(self):
        sheet = Sheet.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12], [13, 14, 15], [16, 17, 18]])
        sheet.set_formula(8, 1, "SUM(A1:A6)")
        stats = analyze_sheet(sheet)
        assert stats.filled_cells == 19
        assert stats.formula_cells == 1
        assert stats.tabular_region_count == 1
        assert stats.cells_accessed_per_formula == [6]
        assert stats.regions_accessed_per_formula == [1]

    def test_analyze_corpus_aggregates(self):
        sheets = [spec.sheet for spec in generate_corpus("enron", sheets=8, seed=9)]
        stats = analyze_corpus("enron", sheets)
        row = stats.as_row()
        assert row["sheets"] == 8
        assert 0 <= row["sheets_with_formulae_pct"] <= 100
        assert 0 <= row["tabular_coverage_pct"] <= 100

    def test_analyze_empty_corpus(self):
        stats = analyze_corpus("empty", [])
        assert stats.sheet_count == 0
        assert stats.formula_coverage == 0.0

    def test_density_histogram_buckets(self):
        sheets = [generate_dense_sheet(5, 5), generate_dense_sheet(10, 10, density=0.3, seed=2)]
        histogram = density_histogram(sheets)
        assert sum(histogram.values()) == 2

    def test_tables_per_sheet_histogram(self):
        sheets = [spec.sheet for spec in generate_corpus("internet", sheets=6, seed=11)]
        histogram = tables_per_sheet_histogram(sheets)
        assert sum(histogram.values()) == 6

    def test_component_density_histogram(self):
        sheets = [generate_dense_sheet(6, 3)]
        histogram = component_density_histogram(sheets)
        assert histogram[1.0] == 1

    def test_formula_function_distribution(self):
        sheet = Sheet()
        sheet.set_value(1, 1, 1)
        sheet.set_formula(2, 1, "SUM(A1:A1)")
        sheet.set_formula(3, 1, "A1+1")
        distribution = dict(formula_function_distribution([sheet]))
        assert distribution["SUM"] == 1
        assert distribution["ARITH"] == 1
