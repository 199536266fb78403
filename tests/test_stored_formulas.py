"""Stored (position-free) formula text.

The engine keeps a formula with each reference component as an offset from
its own cell unless ``$``-anchored (``repro.formula.relative``), renders A1
only at its read edge, and on a structural edit reads, rewrites, writes
back and logs only the formulas whose stored text changes.  Covered here:

* the two text forms parse disjointly and round-trip through each other;
* :func:`text_shifts` agrees with a full rewrite on random formulas and
  edits, anchored corners and sheet-limit clamps included;
* the noise-free count: on a 300-row sheet of row formulas, window sums
  and two whole-column aggregates, each structural kind rewrites, logs and
  replays exactly the formulas whose stored text changes, and every
  formula still renders the A1 the ``Sheet`` oracle's eager rewrite holds.
"""

import random

import pytest

import repro.engine.dataspread as dataspread_module
import repro.storage.recovery as recovery_module
from repro.engine.dataspread import DataSpread
from repro.errors import FormulaSyntaxError
from repro.formula.evaluator import references
from repro.formula.parser import parse_formula, parse_stored
from repro.formula.relative import (
    a1_text,
    normalized_text,
    reference_leaves,
    stored_text,
    text_shifts,
    to_a1,
    to_stored,
)
from repro.formula.rewrite import StructuralEdit, rewrite_formula
from repro.formula.serializer import to_formula
from repro.grid.address import MAX_ROWS, CellAddress, column_index_to_letter
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.storage.recovery import recovered_cells
from repro.storage.wal import read_records


def addr(text: str) -> CellAddress:
    return CellAddress.from_a1(text)


# ---------------------------------------------------------------------- #
# the two text forms
# ---------------------------------------------------------------------- #
class TestStoredForm:
    @pytest.mark.parametrize("origin, a1, stored", [
        ("C5", "A5+B5*2", "R[0]C[-2]+R[0]C[-1]*2"),
        ("C6", "A6+B6*2", "R[0]C[-2]+R[0]C[-1]*2"),
        ("E25", "SUM(B1:B25)", "SUM(R[-24]C[-3]:R[0]C[-3])"),
        ("B2", "$A$1+A$1+$A1", "R1C1+R1C[-1]+R[-1]C1"),
        ("D4", "SUM($A$1:B4)", "SUM(R1C1:R[0]C[-2])"),
        ("A1", "1+2", "1+2"),
        ("B1", 'IF(A1>0,"x","y")', 'IF(R[0]C[-1]>0,"x","y")'),
    ])
    def test_round_trip(self, origin, a1, stored):
        node = to_stored(parse_formula(a1), addr(origin))
        assert stored_text(parse_formula(a1), addr(origin)) == to_formula(node) == stored
        assert parse_stored(stored) == node
        assert a1_text(node, addr(origin)) == a1

    @pytest.mark.parametrize("text", ["A1+1", "SUM(A1:B2)", "$B$2", "RC5"])
    def test_a1_references_do_not_parse_as_stored(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_stored(text)

    @pytest.mark.parametrize("text", ["R[0]C[-1]+1", "R1C1", "SUM(R1C1:R[2]C1)"])
    def test_stored_references_do_not_parse_as_a1(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)

    def test_copied_down_formulas_share_one_ast(self):
        spread = DataSpread()
        for row in range(1, 51):
            spread.set_value(row, 1, row)
            spread.set_formula(row, 2, f"A{row}*2")
        stored = {spread.model.get_cell(row, 2).formula for row in range(1, 51)}
        assert stored == {"R[0]C[-1]*2"}
        assert spread.get_cell(7, 2).formula == "A7*2"
        assert spread.get_value(50, 2) == 100

    def test_normalized_text_keeps_stored_and_converts_a1(self):
        origin = addr("C3")
        assert normalized_text("R[0]C[-1]+1", origin) == "R[0]C[-1]+1"
        assert normalized_text("B3+1", origin) == "R[0]C[-1]+1"
        assert normalized_text("1+1", origin) == "1+1"
        assert normalized_text("nonsense(", origin) == "nonsense("

    def test_references_resolve_at_the_formula_cell(self):
        origin = addr("D4")
        assert references(parse_formula("A$1+B2"), origin) == ([addr("A1"), addr("B2")], [], True)
        assert references(parse_stored("SUM(R1C[0]:R[2]C[0])"), origin) == (
            [], [RangeRef.from_a1("D1:D6")], True)
        assert references(parse_stored("R[0]C[-1]+SUM(R[-3]C[-2]:R[0]C[-2])"), origin) == (
            [addr("C4")], [RangeRef.from_a1("B1:B4")], False)
        # Text never converted at this cell can point off the sheet: it
        # reads nothing.
        assert references(parse_stored("R[-9]C[0]"), origin) == ([], [], False)


# ---------------------------------------------------------------------- #
# the AST check agrees with a full rewrite
# ---------------------------------------------------------------------- #
def _random_reference(rng: random.Random) -> str:
    def corner(row: int, column: int) -> str:
        letters = column_index_to_letter(column)
        return rng.choice((f"{letters}{row}", f"${letters}${row}",
                           f"{letters}${row}", f"${letters}{row}"))

    row, column = rng.randint(1, 40), rng.randint(1, 8)
    if rng.random() < 0.5:
        return corner(row, column)
    return f"{corner(row, column)}:{corner(row + rng.randint(0, 12), column + rng.randint(0, 3))}"


def _random_edit(rng: random.Random) -> StructuralEdit:
    axis = rng.choice(("row", "column"))
    if rng.random() < 0.1 and axis == "row":
        line = MAX_ROWS - rng.randint(0, 30)  # pushes targets past the limit
    else:
        line = rng.randint(1, 45)
    if rng.random() < 0.5:
        return StructuralEdit(axis=axis, kind="insert", line=line - 1, count=rng.randint(1, 40))
    return StructuralEdit(axis=axis, kind="delete", line=line, count=rng.randint(1, 5))


@pytest.mark.parametrize("seed", range(6))
def test_text_shifts_agrees_with_a_full_rewrite(seed):
    rng = random.Random(seed)
    for _ in range(400):
        origin = CellAddress(rng.choice((rng.randint(1, 45), MAX_ROWS - rng.randint(0, 20))),
                             rng.randint(1, 10))
        text = "+".join(f"SUM({_random_reference(rng)})" for _ in range(rng.randint(1, 3)))
        edit = _random_edit(rng)
        target = edit.map_address(origin)
        if target is None:
            continue
        node = to_stored(parse_formula(text), origin)
        assert to_formula(node) == stored_text(parse_formula(text), origin)
        moved, _changed = rewrite_formula(to_a1(node, origin), edit)
        changes = to_formula(to_stored(moved, target)) != to_formula(node)
        assert text_shifts(reference_leaves(node), edit, origin) == changes, (text, origin, edit)


# ---------------------------------------------------------------------- #
# the noise-free count
# ---------------------------------------------------------------------- #
ROWS = 300
WINDOW = 25


def _count_sheet() -> Sheet:
    """Raw values in B and C (column A is empty), a row formula per row in
    D, a window sum every 25 rows in E, whole-column aggregates in F1, G1."""
    sheet = Sheet()
    for row in range(1, ROWS + 1):
        sheet.set_value(row, 2, row)
        sheet.set_value(row, 3, row % 7)
        sheet.set_formula(row, 4, f"B{row}+C{row}*2")
    for row in range(WINDOW, ROWS + 1, WINDOW):
        sheet.set_formula(row, 5, f"SUM(B{row - WINDOW + 1}:B{row})")
    sheet.set_formula(1, 6, f"SUM(B1:B{ROWS})")
    sheet.set_formula(1, 7, f"AVERAGE(C1:C{ROWS})")
    return sheet


#: One edit of each structural kind: rows inside the block (a window sum
#: straddles them), columns left of everything (no formula straddles).
COUNT_EDITS = {
    "insert-row": StructuralEdit.insert_rows(110, 2),
    "delete-row": StructuralEdit.delete_rows(110, 2),
    "insert-column": StructuralEdit.insert_columns(1),
    "delete-column": StructuralEdit.delete_columns(1),
}


def _apply(target, edit: StructuralEdit) -> None:
    """Run ``edit`` on an engine or a ``Sheet`` (they share the methods)."""
    name = f"insert_{edit.axis}_after" if edit.kind == "insert" else f"delete_{edit.axis}"
    getattr(target, name)(edit.line, edit.count)


def _stored_changes(sheet: Sheet, after: Sheet, edit: StructuralEdit) -> int:
    """How many formulas' stored text the edit changes, from the A1 oracle."""
    changed = 0
    for address, text in sheet.formulas():
        target = edit.map_address(address)
        if target is None:
            continue
        before = stored_text(parse_formula(text), address)
        now = stored_text(parse_formula(after.get_cell(target.row, target.column).formula),
                          target)
        changed += before != now
    return changed


@pytest.mark.parametrize("kind", sorted(COUNT_EDITS))
def test_a_structural_edit_rewrites_only_the_formulas_whose_text_changes(
        kind, tmp_path, monkeypatch):
    edit = COUNT_EDITS[kind]
    sheet = _count_sheet()
    oracle = sheet.copy()
    _apply(oracle, edit)
    expected = _stored_changes(sheet, oracle, edit)
    formulas = sum(1 for _ in sheet.formulas())
    # Rows: the straddling window sum and both column aggregates; columns
    # left of everything: nothing.  The old cascade rewrote every formula
    # below (right of) the line.
    assert expected == (3 if edit.axis == "row" else 0) and formulas == ROWS + ROWS // WINDOW + 2

    directory = str(tmp_path)
    spread = DataSpread.from_sheet(sheet, durability="wal", storage_dir=directory)
    rewrites = []

    def counting(node, structural_edit):
        rewrites.append(node)
        return rewrite_formula(node, structural_edit)

    monkeypatch.setattr(dataspread_module, "rewrite_formula", counting)
    _apply(spread, edit)
    assert len(rewrites) == expected

    # The edit's commit group: the structural record and one cell record
    # per rewritten text.
    records = read_records(spread.storage_backend.log_path)
    structural = next(index for index, record in enumerate(records)
                      if record["t"] == "structural")
    end = next(index for index in range(structural, len(records))
               if records[index]["t"] == "commit")
    assert records[structural - 1]["t"] == "begin"
    assert [record["t"] for record in records[structural + 1:end]] == ["cell"] * expected

    # Replaying the log rewrites the same texts, and lands where the engine is.
    replayed = []

    def replay_counting(node, structural_edit):
        replayed.append(node)
        return rewrite_formula(node, structural_edit)

    monkeypatch.setattr(recovery_module, "rewrite_formula", replay_counting)
    cells = recovered_cells(directory)
    assert len(replayed) == expected
    assert cells == {(row, column): (value, formula)
                     for row, column, value, formula in spread._committed_cells()}

    # Every formula renders the A1 the oracle's eager rewrite holds, and
    # shows the value a fresh import of the oracle computes.
    fresh = DataSpread.from_sheet(oracle.copy())
    for address, text in oracle.formulas():
        cell = spread.get_cell(address.row, address.column)
        assert cell.formula == text, address
        assert cell.value == fresh.get_value(address.row, address.column), address
    spread.close()
