"""Section VII-D qualitative use cases: genomics scale and retail functionality.

A reproduction artefact, not a benchmark: the rows replay the paper's two
walkthroughs; engine speed is measured by ``bench/``.
"""

from __future__ import annotations

import time

from repro.engine.dataspread import DataSpread
from repro.experiments.reporting import ExperimentResult
from repro.workloads.retail import generate_retail_dataset
from repro.workloads.vcf import VCFSpec, generate_vcf_rows, vcf_header


def run_usecase_genomics(*, scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    """Section VII-D(a): import a VCF-shaped sheet and scroll through it.

    The paper imports a 1.3M x 284 file and scrolls with sub-second latency;
    we default to a few thousand rows (scaled) and measure the same two
    phases: import time and the latency of scrolling to arbitrary rows.
    """
    spec = VCFSpec(rows=max(int(4_000 * scale), 200), sample_columns=40, seed=seed)
    spread = DataSpread()

    started = time.perf_counter()
    spread.import_rows([vcf_header(spec)], top=1)
    spread.import_rows(generate_vcf_rows(spec), top=2)
    import_seconds = time.perf_counter() - started

    scroll_targets = [2, spec.rows // 2, spec.rows]
    scroll_times = []
    for target in scroll_targets:
        started = time.perf_counter()
        window = spread.scroll(target, height=40, width=20)
        scroll_times.append(time.perf_counter() - started)
        assert window, "scroll window should not be empty"

    rows = [{
        "rows_imported": spec.rows,
        "columns": spec.total_columns,
        "cells": spread.cell_count(),
        "import_s": round(import_seconds, 2),
        "scroll_top_ms": round(1000 * scroll_times[0], 2),
        "scroll_middle_ms": round(1000 * scroll_times[1], 2),
        "scroll_bottom_ms": round(1000 * scroll_times[2], 2),
    }]
    return ExperimentResult(
        experiment_id="usecase-genomics",
        title="Genomics use case: VCF import and positional scrolling",
        rows=rows,
        paper_reference="Section VII-D(a), Figure 16",
        notes=["Scroll latency should stay interactive (well under 500 ms) at every position."],
    )


def run_usecase_retail(**_options) -> ExperimentResult:
    """Section VII-D(b): linked tables, sql joins/aggregation, write-back."""
    dataset = generate_retail_dataset()
    spread = DataSpread()
    dataset.load_into(spread.database)

    invoice_view = spread.link_table("invoice", at="A1")
    spread.link_table("supp", at="J1")

    # Join + group/aggregate, as in the paper's cell A8.
    summary = spread.sql(
        "SELECT supp.name AS supplier, SUM(invoice.amount) AS total "
        "FROM invoice JOIN supp ON invoice.supp_id = supp.supp_id "
        "GROUP BY supp.name ORDER BY total DESC"
    )
    # Spill the summary below the linked invoice region (which occupies rows
    # 1..#invoices+1), as the paper does in cell A8 of its smaller example.
    spill_row = invoice_view.region().bottom + 3
    spill = spread.place_table(summary, at=f"A{spill_row}")
    top_supplier = summary.cell(1, "supplier")

    # Direct manipulation writes back to the database table.
    original_amount = spread.database.table("invoice").rows()[0][3]
    spread.set_value(2, 4, round(original_amount + 100.0, 2))
    updated_amount = spread.database.table("invoice").rows()[0][3]

    overdue = spread.sql("SELECT COUNT(*) AS n FROM invoice WHERE status = 'overdue'")

    rows = [{
        "invoices_linked": invoice_view.table.row_count,
        "suppliers": len(dataset.suppliers),
        "summary_rows": summary.row_count,
        "summary_spill_range": spill.to_a1(),
        "top_supplier": top_supplier,
        "writeback_ok": updated_amount == round(original_amount + 100.0, 2),
        "overdue_invoices": overdue.cell(1, 1),
    }]
    return ExperimentResult(
        experiment_id="usecase-retail",
        title="Customer-management use case: linkTable, sql, write-back",
        rows=rows,
        paper_reference="Section VII-D(b), Figure 19",
    )
