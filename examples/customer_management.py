"""Customer-management use case (paper Example 2 / Section VII-D b).

A small-business owner keeps suppliers, customers, invoices and payments in a
relational database but wants to manipulate them directly on a spreadsheet:
link tables onto the sheet, run joins/aggregations with the ``sql()`` function,
and push cell edits back into the database.

Run with::

    python examples/customer_management.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DataSpread, col, select
from repro.workloads.retail import generate_retail_dataset


def main() -> None:
    spread = DataSpread()
    dataset = generate_retail_dataset(suppliers=6, customers=25, invoices=120)
    dataset.load_into(spread.database)

    # linkTable: two-way correspondence between sheet regions and tables.
    invoices = spread.link_table("invoice", at="A1")
    spread.link_table("supp", at="J1")
    print(f"Linked {invoices.table.row_count} invoices at A1 and "
          f"{spread.database.table('supp').row_count} suppliers at J1")

    # Direct manipulation: editing a linked cell updates the database row.
    first_invoice = spread.database.table("invoice").rows()[0]
    spread.set_value(2, 4, round(first_invoice[3] + 50.0, 2))        # amount column
    print("After editing cell D2, invoice #1 amount in the database is",
          spread.database.table("invoice").rows()[0][3])

    # sql(): join + group + aggregate, spilled below the linked region.
    summary = spread.sql(
        "SELECT supp.name AS supplier, COUNT(*) AS invoices, SUM(invoice.amount) AS total "
        "FROM invoice JOIN supp ON invoice.supp_id = supp.supp_id "
        "GROUP BY supp.name ORDER BY total DESC"
    )
    spill_at = f"A{invoices.region().bottom + 3}"
    region = spread.place_table(summary, at=spill_at)
    print(f"Supplier totals spilled into {region.to_a1()}:")
    for row in summary.rows:
        print(f"  {row[0]:<22} {row[1]:>3} invoices  ${row[2]:>10.2f}")

    # A grand-total formula over the spilled totals, registered *before*
    # restructuring: inserting a row shifts both the data and the formula's
    # references, so the recomputed value is unchanged.
    grand_row = region.bottom + 2
    grand = spread.set_formula(grand_row, 1, f"=SUM(C{region.top + 1}:C{region.bottom})")
    spread.insert_row_after(region.top)  # a blank separator under the header
    shifted = spread.get_cell(grand_row + 1, 1)
    assert shifted.formula == f"SUM(C{region.top + 2}:C{region.bottom + 1})"
    assert spread.get_value(grand_row + 1, 1) == grand
    print(f"Grand total ${grand:,.2f} survived the row insert; its formula "
          f"is now ={shifted.formula}")

    # Deleting the top supplier's row contracts the straddled range and
    # triggers a recompute at the formula's (shifted-back) home.
    spread.delete_row(region.top + 2)
    remaining = spread.get_value(grand_row, 1)
    assert abs(remaining - (grand - summary.rows[0][2])) < 1e-6
    print(f"Grand total without {summary.rows[0][0]}: ${remaining:,.2f}")

    # The same planner behind a generative query: the overdue invoices.
    overdue = spread.execute(
        select("invoice").where(col("status") == "overdue")
        .project(col("inv_id"), col("amount"))
    ).to_table()
    print(f"{overdue.row_count} overdue invoices; the first few:",
          overdue.rows[:5])

    # Parameterised (prepared-statement style) query.
    big = spread.sql("SELECT COUNT(*) AS n FROM invoice WHERE amount >= ?", 1_000)
    print("Invoices of $1000 or more:", big.cell(1, "n"))


if __name__ == "__main__":
    main()
