"""Pluggable storage backends for the DataSpread engine.

The engine's cell cache funnels every committed write through exactly two
callbacks — the per-cell writer and the bulk (batch-flush) writer — and the
structural-edit path adds one commit point of its own.  A backend sits on
that funnel:

:class:`DirectBackend` (``durability="none"``)
    Writes go straight to the in-memory data model; nothing survives the
    process.  This is the historical behaviour and the default.

:class:`WALBackend` (``durability="wal"``)
    Every committed write is appended to the workspace's write-ahead log
    *before* it is applied to the model, at exactly the engine's existing
    commit points:

    * a synchronous single edit is one fsynced singleton record;
    * a batch flush is one ``begin``..``commit`` group (atomic on replay);
    * a structural edit is one group holding the mid-batch flush, the
      ``structural`` record and every formula text the edit rewrote, so
      recovery sees all of it or none — one commit however many formulas
      moved;
    * async provisional placeholders never reach the cache's writers, so
      they are never logged — only the scheduler's committing evaluate
      writes are, one singleton each.

    ``checkpoint()`` folds the log into a new snapshot generation and
    truncates it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import WALError
from repro.formula.rewrite import StructuralEdit
from repro.grid.cell import Cell
from repro.storage.snapshot import (
    list_wal_generations,
    load_snapshot,
    truncate_stale_logs,
    wal_path,
    write_snapshot,
)
from repro.storage.wal import WALWriter, cell_record, mark_record, structural_record

#: Applies one committed cell to the engine's data model.
ApplyCell = Callable[[int, int, Cell], None]
#: Applies many committed cells to the engine's data model in bulk.
ApplyCells = Callable[[list[tuple[int, int, Cell]]], None]
#: Produces the full committed cell state for a checkpoint.
SnapshotCells = Callable[[], list[tuple[int, int, Any, str | None]]]


class DirectBackend:
    """Model-only storage: no log, no recovery (the default)."""

    durability = "none"

    def __init__(self, apply_cell: ApplyCell, apply_cells: ApplyCells) -> None:
        self._apply_cell = apply_cell
        self._apply_cells = apply_cells

    @property
    def durable_commits(self) -> int:
        return 0

    def write_cell(self, row: int, column: int, cell: Cell) -> None:
        self._apply_cell(row, column, cell)

    def write_cells(self, items: list[tuple[int, int, Cell]]) -> None:
        self._apply_cells(items)

    def log_structural(self, edit: StructuralEdit) -> None:
        pass

    def annotate(self, payload: dict[str, Any]) -> None:
        pass

    @contextmanager
    def atomic(self) -> Iterator[None]:
        yield

    def checkpoint(self) -> dict[str, Any] | None:
        return None

    def close(self) -> None:
        pass


class WALBackend:
    """Write-ahead-logged storage bound to a workspace directory."""

    durability = "wal"

    def __init__(
        self,
        directory: str,
        apply_cell: ApplyCell,
        apply_cells: ApplyCells,
        snapshot_cells: SnapshotCells,
        *,
        wal_options: dict[str, Any] | None = None,
        expect_fresh: bool = True,
    ) -> None:
        self.directory = directory
        self._apply_cell = apply_cell
        self._apply_cells = apply_cells
        self._snapshot_cells = snapshot_cells
        self._wal_options = dict(wal_options or {})
        os.makedirs(directory, exist_ok=True)
        snapshot = load_snapshot(directory) if not expect_fresh else None
        if expect_fresh and self._has_existing_state():
            raise WALError(
                f"workspace {directory!r} already holds durable state; "
                "open it with repro.storage.recovery.recover() instead"
            )
        self._generation = snapshot["generation"] if snapshot else 0
        # Commits/frames accumulated by writers already rotated away.
        self._commit_base = 0
        self._frame_base = 0
        self._writer = self._open_writer(self._generation)

    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """The snapshot generation the current log extends."""
        return self._generation

    @property
    def durable_commits(self) -> int:
        """Durable commit points reached over the backend's lifetime."""
        return self._commit_base + self._writer.durable_commits

    @property
    def frames_appended(self) -> int:
        """Log frames appended over the backend's lifetime."""
        return self._frame_base + self._writer.frames_appended

    @property
    def io_retries(self) -> int:
        """Transient IO errors absorbed by the current writer's retry loop."""
        return self._writer.retries

    @property
    def log_path(self) -> str:
        return self._writer.path

    # ------------------------------------------------------------------ #
    def write_cell(self, row: int, column: int, cell: Cell) -> None:
        """Log one committed cell write (fsynced unless grouped), then apply."""
        self._writer.append(cell_record(row, column, cell.value, cell.formula))
        self._apply_cell(row, column, cell)

    def write_cells(self, items: list[tuple[int, int, Cell]]) -> None:
        """Log a bulk flush as one atomic group, then apply it to the model."""
        items = list(items)
        if not items:
            return
        own_group = not self._writer.in_group and len(items) > 1
        if own_group:
            self._writer.begin()
        for row, column, cell in items:
            self._writer.append(cell_record(row, column, cell.value, cell.formula))
        if own_group:
            self._writer.commit()
        self._apply_cells(items)

    def log_structural(self, edit: StructuralEdit) -> None:
        """Log a structural edit (the model shift itself is in-memory)."""
        self._writer.append(structural_record(edit))

    def annotate(self, payload: dict[str, Any]) -> None:
        """Log an annotation (``mark``) record; no effect on replay."""
        self._writer.append(mark_record(payload))

    @contextmanager
    def atomic(self) -> Iterator[None]:
        """Group every record logged inside the block into one commit point."""
        if self._writer.in_group:
            yield  # already inside a caller's group
            return
        self._writer.begin()
        try:
            yield
        except BaseException:
            self._writer.abort()
            raise
        self._writer.commit()

    # ------------------------------------------------------------------ #
    def checkpoint(self) -> dict[str, Any]:
        """Fold the log into a new snapshot generation and truncate it.

        Crash-safe by ordering: the new snapshot lands atomically first, a
        fresh log for the new generation is opened second, and stale logs
        are deleted last — every intermediate crash recovers to exactly the
        pre- or post-checkpoint state.
        """
        new_generation = self._generation + 1
        snapshot_bytes = write_snapshot(
            self.directory,
            generation=new_generation,
            cells=self._snapshot_cells(),
        )
        self._commit_base += self._writer.durable_commits
        self._frame_base += self._writer.frames_appended
        self._writer.close()
        self._generation = new_generation
        self._writer = self._open_writer(new_generation)
        truncate_stale_logs(self.directory, keep_generation=new_generation)
        return {
            "generation": new_generation,
            "snapshot_bytes": snapshot_bytes,
            "log_path": self._writer.path,
        }

    def close(self) -> None:
        self._writer.close()

    # ------------------------------------------------------------------ #
    def _open_writer(self, generation: int) -> WALWriter:
        path = wal_path(self.directory, generation)
        if not os.path.exists(path):
            with open(path, "wb"):
                pass
        return WALWriter(path, **self._wal_options)

    def _has_existing_state(self) -> bool:
        if load_snapshot(self.directory) is not None:
            return True
        for generation in list_wal_generations(self.directory):
            if os.path.getsize(wal_path(self.directory, generation)) > 0:
                return True
        return False
