"""Append-only write-ahead log for DataSpread workspaces.

The log is a sequence of *frames*, each a length-prefixed, CRC-checksummed
JSON record::

    [payload length : 4 bytes LE] [crc32(payload) : 4 bytes LE] [payload]

A torn tail — a frame whose length prefix runs past the end of the file or
whose checksum does not match (the classic half-written last frame after a
crash) — terminates the readable portion of the log; everything before it
is intact because frames are only ever appended.  Only an unreadable
*final* region is a torn tail: a bad frame with an intact frame after it
is corruption, and reading the log raises
:class:`~repro.errors.RecoveryError` rather than drop the commits behind it.

Record taxonomy (the ``"t"`` field of the JSON payload):

``cell``
    One committed cell write: row, column, value, formula text.  An empty
    write (no value, no formula) is a clear.
``structural``
    One row/column insert or delete (axis, kind, line, count).  Replay
    re-keys every logged cell through the same coordinate mapping the
    engine uses (:class:`~repro.formula.rewrite.StructuralEdit`) and
    rewrites straddling formula references, so a structural record is
    self-sufficient; the engine's own rewritten formula texts follow it in
    the same commit group and say the same thing.
``mark``
    An annotation: free-form metadata (e.g. which session transaction a
    group commit belongs to).  Skipped during replay.
``begin`` / ``commit`` / ``abort``
    Group-commit markers.  Records between a ``begin`` and its ``commit``
    apply atomically: a group missing its ``commit`` (torn tail, crash,
    explicit ``abort``) is discarded wholesale during recovery.

Durability contract: a *singleton* record (written outside any group) is
fsynced before the append returns; grouped records are buffered by the OS
and fsynced once, when the ``commit`` marker is written.  Those are exactly
the engine's commit points — synchronous writes, batch exits, structural
edits — so "the append returned" means "this edit survives a crash".

Transient ``OSError`` on append or fsync is retried with bounded backoff
(the shared :class:`~repro.service.retry.RetryPolicy`, built from the
``max_retries``/``backoff_seconds``/``sleep`` knobs); before each retry the
file is truncated back to the last known-good frame boundary so a
half-written attempt cannot corrupt the log ahead of its retry.  Exhausting
the retries raises :class:`~repro.errors.WALError`.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from typing import Any, Callable, Iterator

from repro.errors import RecoveryError, WALError
from repro.formula.rewrite import StructuralEdit

#: Frame header: payload length + payload CRC32, little-endian u32 each.
FRAME_HEADER = struct.Struct("<II")

#: Default bounded-retry policy for transient IO errors.
DEFAULT_MAX_RETRIES = 4
DEFAULT_BACKOFF_SECONDS = 0.001


# ---------------------------------------------------------------------- #
# frame codec
# ---------------------------------------------------------------------- #
def encode_frame(record: dict[str, Any]) -> bytes:
    """Serialize one record into a length-prefixed, checksummed frame."""
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frames(data: bytes) -> Iterator[dict[str, Any]]:
    """Yield the records of ``data`` in order, up to a torn tail.

    A bad frame (truncated header or payload, checksum mismatch) with no
    intact frame after it is a torn tail, the expected shape of a crash:
    it silently ends iteration, so callers never see a half-written
    record.  A bad frame that an intact frame follows raises
    :class:`~repro.errors.RecoveryError` naming its byte offset.
    """
    offset = 0
    while offset + FRAME_HEADER.size <= len(data):
        record, end = _frame_at(data, offset)
        if record is None:
            following = _next_intact_frame(data, offset + 1)
            if following is not None:
                raise RecoveryError(f"corrupt frame at byte {offset}; "
                                    f"an intact frame follows at byte {following}")
            return
        yield record
        offset = end


def _frame_at(data: bytes, offset: int) -> tuple[dict[str, Any] | None, int]:
    """The record of the frame at ``offset`` (``None`` when it is bad) and
    the offset just past it."""
    length, checksum = FRAME_HEADER.unpack_from(data, offset)
    start = offset + FRAME_HEADER.size
    end = start + length
    if end > len(data) or zlib.crc32(data[start:end]) != checksum:
        return None, end
    try:
        return json.loads(data[start:end].decode("utf-8")), end
    except (UnicodeDecodeError, ValueError):
        return None, end


def _next_intact_frame(data: bytes, offset: int) -> int | None:
    """Offset of the first intact frame starting at or after ``offset``.

    A payload is a JSON object, so only a ``{`` can open one: each ``{``
    is a candidate whose length must fit and end on a ``}`` before its
    checksum is computed, which keeps the scan of a torn tail linear.
    """
    brace = data.find(b"{", offset + FRAME_HEADER.size)
    while brace != -1:
        position = brace - FRAME_HEADER.size
        length, _checksum = FRAME_HEADER.unpack_from(data, position)
        if 0 < length <= len(data) - brace and data[brace + length - 1] == 0x7D \
                and _frame_at(data, position)[0] is not None:
            return position
        brace = data.find(b"{", brace + 1)
    return None


# ---------------------------------------------------------------------- #
# record constructors
# ---------------------------------------------------------------------- #
def cell_record(row: int, column: int, value: Any, formula: str | None) -> dict[str, Any]:
    """A committed cell write (an empty value+formula pair is a clear)."""
    return {"t": "cell", "r": row, "c": column, "v": value, "f": formula}


def structural_record(edit: StructuralEdit) -> dict[str, Any]:
    """A row/column insert or delete."""
    return {"t": "structural", "axis": edit.axis, "kind": edit.kind,
            "line": edit.line, "count": edit.count}


def structural_edit_from(record: dict[str, Any]) -> StructuralEdit:
    """Rebuild the :class:`StructuralEdit` a ``structural`` record describes."""
    return StructuralEdit(axis=record["axis"], kind=record["kind"],
                          line=record["line"], count=record["count"])


def mark_record(payload: dict[str, Any]) -> dict[str, Any]:
    """An annotation record: metadata riding in the log without replay effect.

    Marks let higher layers label their commit points (e.g. a session
    transaction stamping the group that carries its writes with its scope
    and savepoint count).  Replay skips them; they exist for forensics and
    for tests asserting which commit points a workload produced.
    """
    record = {"t": "mark"}
    record.update(payload)
    return record


BEGIN = {"t": "begin"}
COMMIT = {"t": "commit"}
ABORT = {"t": "abort"}


# ---------------------------------------------------------------------- #
# IO seam (fault injection plugs in here)
# ---------------------------------------------------------------------- #
class WALFileIO:
    """Default file-backed IO for the WAL writer.

    The writer talks to this four-method seam (``append`` / ``sync`` /
    ``truncate`` / ``close``) rather than the file directly, so tests can
    interpose fault injectors that tear writes, raise transient errors, or
    simulate a crash mid-frame.
    """

    def __init__(self, path: str) -> None:
        self._handle = open(path, "ab")

    def append(self, data: bytes) -> None:
        self._handle.write(data)
        self._handle.flush()

    def sync(self) -> None:
        os.fsync(self._handle.fileno())

    def truncate(self, size: int) -> None:
        self._handle.truncate(size)
        self._handle.seek(0, os.SEEK_END)

    def tell(self) -> int:
        return self._handle.tell()

    def close(self) -> None:
        self._handle.close()


#: Factory building the IO object for a log path (the injection point).
WALIOFactory = Callable[[str], Any]


# ---------------------------------------------------------------------- #
# writer
# ---------------------------------------------------------------------- #
class WALWriter:
    """Appends records durably, with group commit and bounded IO retry."""

    def __init__(
        self,
        path: str,
        *,
        io_factory: WALIOFactory | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        # Deferred import: repro.service's package init imports the engine
        # (and transitively this module), so a module-level import here
        # would be circular for callers importing the WAL directly.
        from repro.service.retry import RetryPolicy

        self.path = path
        self._io = (io_factory or WALFileIO)(path)
        # The historical inline loop slept backoff * 2**attempt with no
        # jitter; the shared policy reproduces that schedule exactly.
        self._policy = RetryPolicy(
            max_attempts=max_retries + 1,
            base_delay_ms=backoff_seconds * 1000.0,
            multiplier=2.0,
            max_delay_ms=float("inf"),
            jitter=0.0,
            sleep=sleep,
        )
        # Byte offset of the last durable/intact frame boundary; retries
        # truncate back to it so half-written attempts never pollute the log.
        self._good_offset = os.path.getsize(path) if os.path.exists(path) else 0
        self._in_group = False
        #: Frames appended (including group markers).
        self.frames_appended = 0
        #: Durable commit points reached: synced singletons + synced commits.
        self.durable_commits = 0
        #: Transient IO errors absorbed by the retry loop.
        self.retries = 0

    # ------------------------------------------------------------------ #
    @property
    def in_group(self) -> bool:
        """Whether a ``begin`` marker is open without its ``commit``."""
        return self._in_group

    def append(self, record: dict[str, Any]) -> None:
        """Append one record; fsyncs immediately unless a group is open."""
        self._append_frame(encode_frame(record))
        if not self._in_group:
            self._sync()
            self.durable_commits += 1

    def begin(self) -> None:
        """Open a group: subsequent appends defer their fsync to commit."""
        if self._in_group:
            raise WALError("WAL group already open")
        self._append_frame(encode_frame(BEGIN))
        self._in_group = True

    def commit(self) -> None:
        """Close the open group durably (one fsync for the whole group)."""
        if not self._in_group:
            raise WALError("no WAL group open")
        self._append_frame(encode_frame(COMMIT))
        self._in_group = False
        self._sync()
        self.durable_commits += 1

    def abort(self) -> None:
        """Mark the open group aborted; its records are dead on replay."""
        if not self._in_group:
            raise WALError("no WAL group open")
        self._in_group = False
        # Best-effort: an abort marker keeps the log tidy, but recovery
        # discards an unterminated group anyway, so failure to write the
        # marker (mid-crash) loses nothing.
        try:
            self._append_frame(encode_frame(ABORT))
            self._sync()
        except WALError:
            pass

    def close(self) -> None:
        self._io.close()

    # ------------------------------------------------------------------ #
    def _append_frame(self, frame: bytes) -> None:
        self._retry("append", lambda: self._io.append(frame),
                    rewind=True)
        self._good_offset += len(frame)
        self.frames_appended += 1

    def _sync(self) -> None:
        self._retry("fsync", self._io.sync, rewind=False)

    def _retry(self, action: str, operation: Callable[[], None], *, rewind: bool) -> None:
        def on_retry(_error: BaseException, _attempt: int) -> None:
            self.retries += 1
            if rewind:
                # The failed write may have landed partially; rewind to
                # the last intact frame boundary before trying again.
                try:
                    self._io.truncate(self._good_offset)
                except OSError:
                    pass  # the retry's own failure path will surface it

        try:
            self._policy.call(operation, retry_on=(OSError,), on_retry=on_retry)
        except OSError as error:
            self.retries += 1  # the final, unretried failure
            raise WALError(
                f"WAL {action} failed after {self._policy.max_attempts} "
                f"attempts: {error}"
            ) from error


# ---------------------------------------------------------------------- #
# reader
# ---------------------------------------------------------------------- #
def read_records(path: str) -> list[dict[str, Any]]:
    """All intact records in the log at ``path`` (torn tail discarded)."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as handle:
        data = handle.read()
    return list(decode_frames(data))


def committed_records(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Fold group markers: the durably committed records, in log order.

    Singleton records pass through.  Records inside a ``begin``..``commit``
    group are released atomically at the commit; a group terminated by
    ``abort`` — or never terminated at all (crash mid-group) — is dropped
    wholesale, so replay can never observe a half-applied batch.
    """
    committed: list[dict[str, Any]] = []
    group: list[dict[str, Any]] | None = None
    for record in records:
        kind = record.get("t")
        if kind == "begin":
            # A dangling open group (crash between begin and commit)
            # followed by a fresh begin should never happen — the writer
            # forbids nesting — but drop the stale prefix defensively.
            group = []
        elif kind == "commit":
            if group is not None:
                committed.extend(group)
                group = None
        elif kind == "abort":
            group = None
        elif group is not None:
            group.append(record)
        else:
            committed.append(record)
    return committed
