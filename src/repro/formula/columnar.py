"""Columnar (vectorized) construction of aggregate running state.

Cold evaluation of a decomposable aggregate over a database-scale range —
the first ``SUM(A1:A1000000)`` — has to read the whole rectangle once no
matter what; the scalar path then folds the values into a
:class:`~repro.formula.aggregates.RangeAggregateState` one ``add()`` call
at a time, and at a million cells the per-value Python dispatch dominates
the read.  This module replaces that fold with a handful of NumPy
reductions over one dense row-major slab (the storage layer's
``get_values_dense``), producing a state **bit-identical** to the scalar
loop:

* the exact-integer sum guard (integral and ``abs(v) <= 2**28``) becomes a
  ``floor(x) == x`` / magnitude mask, with the qualifying values summed in
  ``int64`` (exact: 2**28-bounded values times a 10**7-cell range cap stay
  below 2**52);
* NaN poisons ordering *and* summation by multiplicity, exactly as
  ``add()`` does — and because the scalar loop stops tracking min/max at
  the first NaN, the vectorized min/max (with multiplicity) is taken over
  the *prefix before the first NaN*, reproducing even the dormant
  components a later rebuild might resurrect;
* blank cells (``None``) are skipped, text and booleans count as filled
  but contribute nothing numeric — ``bool`` is detected by exact type, as
  ``isinstance`` checks would fold ``True`` into the integers.

Integers beyond float range (``float()`` raises ``OverflowError``) and any
exotic value type bail out to :func:`_build_python`, a straight ``add()``
loop with the same semantics by construction.
"""

from __future__ import annotations

import numpy as _np

from repro.formula.aggregates import EXACT_VALUE_LIMIT, RangeAggregateState


class _Unsupported(Exception):
    """The slab holds value types the vectorized path cannot audit."""


def build_state(values: list, *,
                force_python: bool = False) -> tuple[RangeAggregateState, bool]:
    """Fold a dense row-major slab (``None`` = blank) into a fresh state.

    Returns ``(state, vectorized)`` where ``vectorized`` reports whether
    the NumPy path served the build (``False`` when it bailed out to the
    scalar fold, or ``force_python`` asked for that oracle).
    """
    if force_python:
        return _build_python(values), False
    try:
        return _build_numpy(values), True
    except (OverflowError, _Unsupported):
        # OverflowError: an integer beyond float64 range, which
        # ``np.fromiter`` cannot represent but the scalar loop maps to the
        # NaN poison path.  _Unsupported: value types outside the audited
        # set.  Both are correctness bails, not errors.
        return _build_python(values), False


def _build_python(values: list) -> RangeAggregateState:
    """The scalar fold — the semantic ground truth the masks must match."""
    state = RangeAggregateState()
    add = state.add
    for value in values:
        if value is not None:
            add(value)
    return state


def _build_numpy(values: list) -> RangeAggregateState:
    # One C-speed pass audits the value types present; ``type()`` (not
    # ``isinstance``) keeps bool distinct from int and rejects subclasses,
    # whose arithmetic the masks below could not be trusted to mirror.
    kinds = set(map(type, values))
    if not kinds <= {type(None), int, float, bool, str}:
        raise _Unsupported
    state = RangeAggregateState()
    if bool in kinds or str in kinds:
        # Mixed content: text/booleans are filled but contribute nothing
        # numeric, so they only survive into the filled count.
        state.filled = len(values) - values.count(None)
        numbers = [v for v in values if type(v) is int or type(v) is float]
    else:
        numbers = values if type(None) not in kinds else [
            v for v in values if v is not None
        ]
        state.filled = len(numbers)
    count = len(numbers)
    state.count = count
    if not count:
        return state
    xs = _np.fromiter(numbers, dtype=_np.float64, count=count)
    nan_mask = _np.isnan(xs)
    poisoned = int(nan_mask.sum())
    # NaN compares unequal to everything including itself, so the equality
    # against floor() already excludes it from the exact mask.
    exact_mask = (_np.floor(xs) == xs) & (_np.abs(xs) <= EXACT_VALUE_LIMIT)
    exact = int(exact_mask.sum())
    if exact:
        state.total = int(xs[exact_mask].astype(_np.int64).sum())
    state.inexact = count - exact
    state.poisoned = poisoned
    if poisoned:
        state.min_valid = False
        state.max_valid = False
        # The scalar loop stops maintaining min/max at the first NaN;
        # mirror the dormant components it leaves behind exactly.
        ordered = xs[: int(_np.argmax(nan_mask))]
    else:
        ordered = xs
    if ordered.size:
        low = ordered.min()
        high = ordered.max()
        state.min_value = float(low)
        state.min_count = int((ordered == low).sum())
        state.max_value = float(high)
        state.max_count = int((ordered == high).sum())
    return state
