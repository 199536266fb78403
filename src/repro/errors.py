"""Exception hierarchy for the DataSpread reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AddressError(ReproError, ValueError):
    """Raised for malformed A1 references or out-of-bounds coordinates."""


class RangeError(ReproError, ValueError):
    """Raised for malformed or inverted rectangular ranges."""


class FormulaError(ReproError):
    """Base class for formula engine failures."""


class FormulaSyntaxError(FormulaError, ValueError):
    """Raised when a formula cannot be tokenized or parsed."""


class FormulaEvaluationError(FormulaError):
    """Raised when a parsed formula cannot be evaluated.

    The spreadsheet-visible error code (e.g. ``#DIV/0!``, ``#VALUE!``,
    ``#REF!``, ``#NAME?``) is available as :attr:`code`.
    """

    def __init__(self, code: str, message: str = "") -> None:
        super().__init__(message or code)
        self.code = code


class CircularDependencyError(FormulaError):
    """Raised when formula dependencies form a cycle."""


class StorageError(ReproError):
    """Base class for database-substrate failures."""


class CatalogError(StorageError, KeyError):
    """Raised for unknown or duplicate table/column names."""


class WALError(StorageError):
    """Raised when the write-ahead log cannot append or sync durably."""


class RecoveryError(StorageError):
    """Raised when a workspace cannot be reconstructed from disk."""


class SchemaError(StorageError, ValueError):
    """Raised when a record does not match its table schema."""


class DataModelError(ReproError):
    """Base class for primitive/hybrid data-model failures."""


class RegionOverlapError(DataModelError, ValueError):
    """Raised when hybrid regions overlap but overlap is not permitted."""


class PositionError(ReproError, IndexError):
    """Raised for invalid positions in a positional mapping."""


class SavepointError(ReproError):
    """Raised for invalid savepoint operations.

    Notably: rolling back to a savepoint created before a mid-batch commit
    point (a structural edit or an explicit flush) — the work it would have
    to undo is already durably committed, so the rollback refuses rather
    than desync the visible grid from the log.
    """


class SessionError(ReproError):
    """Base class for multi-session service-layer failures."""


class TransactionBusyError(SessionError):
    """Raised when a session needs the workspace's single write transaction
    while another session holds it (single-writer model, like SQLite)."""


class SnapshotInvalidatedError(SessionError):
    """Raised when reading a snapshot whose coordinate space was changed
    by a structural edit (or a wholesale relink) after it was opened."""


class EngineOverloadedError(SessionError):
    """Raised when admission control sheds new async work.

    The compute scheduler refuses work (instead of queueing it) once its
    stale queue is past the configured global or per-owner depth quota.
    Nothing was mutated when this raises — the refused edit can simply be
    retried.  :attr:`retry_after_ms` is the scheduler's hint for how long
    a drain needs to bring the queue back under quota; the shared
    :class:`~repro.service.retry.RetryPolicy` honours it.
    """

    def __init__(self, message: str, *, retry_after_ms: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class SessionExpiredError(SessionError):
    """Raised when using a session whose lease expired and was reaped.

    The workspace's :meth:`~repro.service.workspace.Workspace.reap` sweep
    rolled the session's idle transaction back (releasing its cell
    write-locks); the session handle is dead and a new one must be opened.
    """


class LinkTableError(ReproError):
    """Raised when linking a spreadsheet region to a database table fails."""


class RelationalOperationError(ReproError):
    """Raised when a composite table value is misused: a row of the wrong
    width, or an ``index`` / column lookup outside the table
    (:class:`~repro.query.executor.TableValue`).  Query failures subclass it."""


class QueryError(RelationalOperationError):
    """Base class for failures in the generative query subsystem.

    Subclasses split the lifecycle in two: :class:`QueryPlanError` for
    problems detectable while compiling a query (unknown tables or
    columns, ambiguous names, malformed SQL text, invalid plans) and
    :class:`QueryExecutionError` for problems that only surface while the
    executor streams rows (type errors inside predicates, a live view
    whose source region was structurally deleted).  Both stay inside the
    :class:`RelationalOperationError` family, so one ``except`` clause
    covers a query and the table value it returns.
    """


class QueryPlanError(QueryError):
    """Raised when a query cannot be compiled into an executable plan."""


class QueryExecutionError(QueryError):
    """Raised when a compiled query plan fails while streaming rows."""
