"""Redo-replay crash recovery for durable DataSpread workspaces.

``recover(directory)`` reconstructs a live engine from the on-disk state a
crash (or clean shutdown) left behind:

1. **Base state.**  The snapshot (if any) supplies the committed cells as
   of its generation; a missing snapshot means the empty generation-0
   workspace.
2. **Redo replay.**  The generation's write-ahead log is read up to the
   first torn frame, group markers are folded (a ``begin`` without its
   ``commit`` — an aborted or crash-interrupted batch — is discarded
   wholesale), and the committed records are replayed in log order into a
   flat cell map.  The log must open with a header of this format version,
   and the snapshot must carry it too: both hold formulas in stored form
   (:mod:`repro.formula.relative`), and a workspace of an older format is
   refused with :class:`~repro.errors.RecoveryError` before anything is
   touched.  ``structural`` records re-key every cell through the same
   :class:`~repro.formula.rewrite.StructuralEdit` coordinate mapping the
   engine used and rewrite the stored texts the edit changes — those with a
   reference crossing the edited line, or to a moved anchored, deleted or
   clamped target — so the replay of a structural record is correct on its
   own (the engine's logged rewrites of the same texts, which share the
   record's commit group, repeat it).  Every other formula keeps its text,
   and each distinct text parses once per replay.
3. **Adopt and recompute.**  The cell map is handed to a fresh
   :class:`~repro.engine.dataspread.DataSpread` through its one adoption
   method, ``adopt_cells``: one block write to the model, the parseable
   formulas registered, then every formula re-evaluated in one topological
   pass (the engine turns asynchronous, if asked to, only after it).
   Recomputing heals the window where a crash logged an edit but
   not yet its dependents' refreshed values — the recovered state is
   always *exactly* the one implied by the last durable commit point.
4. **Recovery barrier.**  The recovered engine re-attaches to the
   workspace in WAL mode and immediately checkpoints, folding the replayed
   log into a fresh snapshot generation — recovery never replays the same
   log twice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import FormulaSyntaxError, RecoveryError
from repro.formula.ast_nodes import FormulaNode
from repro.formula.parser import parse_stored
from repro.formula.relative import reference_leaves, text_shifts, to_a1, to_stored
from repro.formula.rewrite import StructuralEdit, rewrite_formula
from repro.formula.serializer import to_formula
from repro.grid.address import CellAddress
from repro.storage.snapshot import load_snapshot, wal_path
from repro.storage.wal import committed_records, read_records, structural_edit_from

if TYPE_CHECKING:  # imported lazily at runtime (the engine imports this package)
    from repro.engine.dataspread import DataSpread

#: ``(value, formula)`` pairs keyed by (row, column).
CellMap = dict[tuple[int, int], tuple[Any, str | None]]


#: A parsed stored text and its reference leaves (``None``: does not parse).
_Parsed = tuple[FormulaNode, tuple[FormulaNode, ...]] | None


def replay_records(base: CellMap, records: list[dict[str, Any]]) -> CellMap:
    """Fold committed log records over a base cell map, in log order."""
    cells = dict(base)
    parsed: dict[str, _Parsed] = {}
    for record in records:
        kind = record.get("t")
        if kind == "cell":
            key = (record["r"], record["c"])
            value, formula = record.get("v"), record.get("f")
            if value is None and formula is None:
                cells.pop(key, None)  # a committed clear (or bare extent growth)
            else:
                cells[key] = (value, formula)
        elif kind == "structural":
            cells = _apply_structural(cells, structural_edit_from(record), parsed)
        elif kind == "mark":
            pass  # annotation only: no replay effect
        else:
            raise RecoveryError(f"unknown WAL record type {kind!r}")
    return cells


def _apply_structural(cells: CellMap, edit: StructuralEdit,
                      parsed: dict[str, _Parsed]) -> CellMap:
    """Re-key a cell map through one structural edit, rewriting formulas.

    Mirrors the engine: cells on deleted lines vanish, survivors shift,
    and the stored formula texts the edit changes are rewritten
    (straddling ranges expand or contract; fully deleted referents
    collapse to ``#REF!``).  ``parsed`` memoises each distinct text's AST
    across the replay.
    """
    remapped: CellMap = {}
    for (row, column), (value, formula) in cells.items():
        source = CellAddress(row, column)
        moved = edit.map_address(source)
        if moved is None:
            continue
        if formula is not None:
            formula = _rewrite_text(formula, edit, source, moved, parsed)
        remapped[(moved.row, moved.column)] = (value, formula)
    return remapped


def _rewrite_text(formula: str, edit: StructuralEdit, source: CellAddress,
                  target: CellAddress, parsed: dict[str, _Parsed]) -> str:
    if formula in parsed:
        entry = parsed[formula]
    else:
        try:
            node = parse_stored(formula)
            entry = parsed[formula] = (node, reference_leaves(node))
        except FormulaSyntaxError:
            entry = parsed[formula] = None  # cannot reference moved cells
    if entry is None or not text_shifts(entry[1], edit, source):
        return formula
    moved, _changed = rewrite_formula(to_a1(entry[0], source), edit)
    return to_formula(to_stored(moved, target))


def recovered_cells(directory: str) -> CellMap:
    """The committed cell state a recovery of ``directory`` would adopt."""
    snapshot = load_snapshot(directory)
    generation = snapshot["generation"] if snapshot else 0
    base: CellMap = {}
    if snapshot:
        for row, column, value, formula in snapshot["cells"]:
            base[(row, column)] = (value, formula)
    try:
        records = read_records(wal_path(directory, generation))
    except RecoveryError as exc:
        raise RecoveryError(f"write-ahead log of generation {generation}: {exc}") from None
    return replay_records(base, committed_records(records))


def recover(directory: str, *, wal_options: dict[str, Any] | None = None,
            **engine_kwargs) -> "DataSpread":
    """Rebuild a live, durable :class:`DataSpread` from a workspace directory.

    ``engine_kwargs`` are forwarded to the engine constructor (e.g.
    ``async_recompute=True``).  The returned engine is attached to
    ``directory`` in WAL mode behind a fresh checkpoint.  A log that is
    corrupt before its last intact frame raises
    :class:`~repro.errors.RecoveryError` first, with nothing on disk
    changed.
    """
    from repro.engine.dataspread import DataSpread

    cells = recovered_cells(directory)

    # Adopted values are committed state, not work to leave queued stale:
    # they recompute synchronously, whatever mode the engine then runs in.
    async_recompute = engine_kwargs.pop("async_recompute", False)
    spread = DataSpread(**engine_kwargs)
    spread.adopt_cells(cells)
    spread.async_recompute = async_recompute
    spread._attach_wal(directory, wal_options=wal_options)
    return spread
