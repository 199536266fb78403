"""Whole-workspace checkpoints with write-ahead-log truncation.

A durable workspace directory holds at most two artefacts:

``snapshot.bin``
    One CRC-checksummed frame (the same codec as the WAL) containing the
    full committed cell state: values and formula text in stored form
    (:mod:`repro.formula.relative`; the positional mappings and hybrid
    layout are derived state that rebuilds deterministically from the
    logical cells), plus a free-form ``config`` entry that recovery does
    not read.  The snapshot carries a *generation* number and the format
    :data:`SNAPSHOT_VERSION`; a snapshot of another version is refused.

``wal-<generation>.log``
    The write-ahead log of everything committed *since* the snapshot of
    that generation.  Generation 0 with no snapshot file is the fresh,
    empty workspace.

Checkpointing is crash-safe by ordering, not by locks:

1. write ``snapshot.bin`` for generation ``g+1`` to a temp file and
   ``os.replace`` it into place (atomic on POSIX);
2. create ``wal-(g+1).log``, holding only its format header;
3. delete stale ``wal-*.log`` files of earlier generations.

A crash before (1) recovers from snapshot ``g`` + ``wal-g``; a crash
between (1) and (3) recovers from snapshot ``g+1`` and ignores the stale
``wal-g`` (its edits are already folded into the snapshot); the log never
replays against the wrong base state.
"""

from __future__ import annotations

import os
import re
from typing import Any

from repro.errors import RecoveryError
from repro.formula.relative import normalized_text
from repro.grid.address import CellAddress
from repro.storage.wal import decode_frames, encode_frame

SNAPSHOT_NAME = "snapshot.bin"
_WAL_PATTERN = re.compile(r"^wal-(\d+)\.log$")

#: Snapshot payload format version: 2 holds formula text in stored
#: (position-free) form, 1 held A1 text.
SNAPSHOT_VERSION = 2


def wal_path(directory: str, generation: int) -> str:
    """The log file paired with snapshot ``generation``."""
    return os.path.join(directory, f"wal-{generation}.log")


def snapshot_path(directory: str) -> str:
    return os.path.join(directory, SNAPSHOT_NAME)


def list_wal_generations(directory: str) -> list[int]:
    """Generations that have a log file on disk, ascending."""
    if not os.path.isdir(directory):
        return []
    generations = []
    for name in os.listdir(directory):
        match = _WAL_PATTERN.match(name)
        if match:
            generations.append(int(match.group(1)))
    return sorted(generations)


def write_snapshot(
    directory: str,
    *,
    generation: int,
    cells: list[tuple[int, int, Any, str | None]],
    config: dict[str, Any] | None = None,
    stored: bool = False,
) -> int:
    """Atomically write the workspace snapshot; returns its size in bytes.

    ``cells`` holds ``(row, column, value, formula)`` tuples of every
    committed non-empty cell.  The file holds stored formula text.  The
    engine's checkpoint passes ``stored``: its text is stored form already
    and is written as it is.  Otherwise the cells may come from the
    engine's reads, which render A1, and each text is converted to stored
    form at its own cell when it is A1
    (:func:`~repro.formula.relative.normalized_text`).
    """
    if not stored:
        cells = _normalized(cells)
    record = {
        "t": "snapshot",
        "version": SNAPSHOT_VERSION,
        "generation": generation,
        "config": config or {},
        "cells": [[row, column, value, formula] for row, column, value, formula in cells],
    }
    frame = encode_frame(record)
    final = snapshot_path(directory)
    temp = final + ".tmp"
    with open(temp, "wb") as handle:
        handle.write(frame)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, final)
    return len(frame)


def _normalized(cells: list[tuple[int, int, Any, str | None]],
                ) -> list[tuple[int, int, Any, str | None]]:
    """``cells`` with every A1 formula text converted at its own cell."""
    stored: dict[str, bool] = {}  # text -> whether it is stored form already

    def normalized(row: int, column: int, formula: str | None) -> str | None:
        if formula is None or stored.get(formula):
            return formula
        text = normalized_text(formula, CellAddress(row, column))
        stored[formula] = text == formula
        return text

    return [(row, column, value, normalized(row, column, formula))
            for row, column, value, formula in cells]


def load_snapshot(directory: str) -> dict[str, Any] | None:
    """Read the snapshot record, or ``None`` for a generation-0 workspace.

    Raises :class:`~repro.errors.RecoveryError` when a snapshot file exists
    but is torn or corrupt — unlike a torn WAL tail, a damaged snapshot
    means silent data loss, so it must not be skipped quietly.
    """
    path = snapshot_path(directory)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    records = list(decode_frames(data))
    if not records or records[0].get("t") != "snapshot":
        raise RecoveryError(f"snapshot at {path} is corrupt")
    record = records[0]
    if record.get("version") != SNAPSHOT_VERSION:
        raise RecoveryError(
            f"snapshot at {path} has unsupported version {record.get('version')!r}"
        )
    return record


def truncate_stale_logs(directory: str, *, keep_generation: int) -> list[str]:
    """Delete log files of generations other than ``keep_generation``.

    Returns the deleted paths.  Called after a checkpoint lands: the old
    generation's edits are folded into the new snapshot, so its log is
    dead weight (and must not be replayed against the new base).
    """
    deleted = []
    for generation in list_wal_generations(directory):
        if generation != keep_generation:
            path = wal_path(directory, generation)
            os.remove(path)
            deleted.append(path)
    return deleted
