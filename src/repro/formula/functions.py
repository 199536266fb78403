"""Built-in spreadsheet function library.

Implements the functions that dominate the paper's corpus study (Figure 5):
arithmetic helpers, SUM/AVERAGE/COUNT/MIN/MAX, IF/AND/OR/NOT/ISBLANK,
VLOOKUP/HLOOKUP/SEARCH, and the numeric family LOG/LN/ROUND/FLOOR/CEILING.

Functions receive *evaluated* arguments.  Range arguments arrive as
:class:`RangeValue` — a lazy 2-D grid of cell values — so aggregate functions
can iterate them while scalar contexts can reject them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import FormulaEvaluationError
from repro.grid.cell import CellValue


@dataclass(frozen=True)
class RangeValue:
    """A rectangular block of evaluated cell values (row-major)."""

    values: tuple[tuple[CellValue, ...], ...]

    @property
    def rows(self) -> int:
        """Number of rows in the block."""
        return len(self.values)

    @property
    def columns(self) -> int:
        """Number of columns in the block (0 when empty)."""
        return len(self.values[0]) if self.values else 0

    def flatten(self) -> Iterator[CellValue]:
        """Iterate all values row-major, including blanks."""
        for row in self.values:
            yield from row

    def column(self, index: int) -> list[CellValue]:
        """Return the 1-based ``index``-th column."""
        if index < 1 or index > self.columns:
            raise FormulaEvaluationError("#REF!", f"column index {index} out of range")
        return [row[index - 1] for row in self.values]


ArgValue = CellValue | RangeValue
FunctionImpl = Callable[..., CellValue]

#: Global registry of spreadsheet functions, keyed by upper-case name.
FUNCTION_REGISTRY: dict[str, FunctionImpl] = {}


def register_function(name: str) -> Callable[[FunctionImpl], FunctionImpl]:
    """Decorator registering ``name`` in :data:`FUNCTION_REGISTRY`."""

    def decorator(func: FunctionImpl) -> FunctionImpl:
        FUNCTION_REGISTRY[name.upper()] = func
        return func

    return decorator


# ---------------------------------------------------------------------- #
# coercion helpers
# ---------------------------------------------------------------------- #
def iter_numbers(arguments: Iterable[ArgValue]) -> Iterator[float]:
    """Yield the numeric content of scalar and range arguments, skipping blanks/text."""
    for argument in arguments:
        if isinstance(argument, RangeValue):
            for value in argument.flatten():
                if isinstance(value, bool):
                    continue
                if isinstance(value, (int, float)):
                    yield float(value)
        elif isinstance(argument, bool):
            yield 1.0 if argument else 0.0
        elif isinstance(argument, (int, float)):
            yield float(argument)
        elif isinstance(argument, str):
            try:
                yield float(argument)
            except ValueError as exc:
                raise FormulaEvaluationError("#VALUE!", f"not a number: {argument!r}") from exc
        # None (blank) contributes nothing


def to_number(value: ArgValue) -> float:
    """Coerce a scalar argument to a float; blanks count as 0."""
    if isinstance(value, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "expected a scalar, got a range")
    if value is None:
        return 0.0
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except ValueError as exc:
        raise FormulaEvaluationError("#VALUE!", f"not a number: {value!r}") from exc


def to_boolean(value: ArgValue) -> bool:
    """Coerce a scalar argument to a boolean."""
    if isinstance(value, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "expected a scalar, got a range")
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        upper = value.upper()
        if upper == "TRUE":
            return True
        if upper == "FALSE":
            return False
    raise FormulaEvaluationError("#VALUE!", f"not a boolean: {value!r}")


def to_text(value: ArgValue) -> str:
    """Coerce a scalar argument to text the way a sheet renders it."""
    if isinstance(value, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "expected a scalar, got a range")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def power(base: float, exponent: float) -> float:
    """``base ** exponent`` with the domain errors as error values: zero to
    a negative power is ``#DIV/0!``; overflow, and a negative base with a
    fractional exponent (a complex root), are ``#NUM!``."""
    if base == 0 and exponent < 0:
        raise FormulaEvaluationError("#DIV/0!", "zero raised to a negative power")
    try:
        result = base ** exponent
    except OverflowError:
        raise FormulaEvaluationError("#NUM!", "power out of range") from None
    if isinstance(result, complex):
        raise FormulaEvaluationError("#NUM!", "fractional power of a negative number")
    return result


def _normalized_number(value: float) -> CellValue:
    """Return ints for integral results to keep sheets tidy."""
    if math.isfinite(value) and float(value).is_integer():
        return int(value)
    return value


# ---------------------------------------------------------------------- #
# aggregates
# ---------------------------------------------------------------------- #
@register_function("SUM")
def fn_sum(*arguments: ArgValue) -> CellValue:
    """SUM of all numeric content."""
    return _normalized_number(sum(iter_numbers(arguments)))


@register_function("AVERAGE")
def fn_average(*arguments: ArgValue) -> CellValue:
    """Arithmetic mean of numeric content; #DIV/0! when there is none."""
    numbers = list(iter_numbers(arguments))
    if not numbers:
        raise FormulaEvaluationError("#DIV/0!", "AVERAGE of no numbers")
    return _normalized_number(sum(numbers) / len(numbers))


@register_function("COUNT")
def fn_count(*arguments: ArgValue) -> CellValue:
    """Count of numeric values."""
    count = 0
    for argument in arguments:
        if isinstance(argument, RangeValue):
            count += sum(
                1 for value in argument.flatten()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            )
        elif isinstance(argument, (int, float)) and not isinstance(argument, bool):
            count += 1
    return count


@register_function("COUNTA")
def fn_counta(*arguments: ArgValue) -> CellValue:
    """Count of non-blank values."""
    count = 0
    for argument in arguments:
        if isinstance(argument, RangeValue):
            count += sum(1 for value in argument.flatten() if value is not None)
        elif argument is not None:
            count += 1
    return count


@register_function("MIN")
def fn_min(*arguments: ArgValue) -> CellValue:
    """Minimum numeric value (0 when there are none, as in Excel)."""
    numbers = list(iter_numbers(arguments))
    return _normalized_number(min(numbers)) if numbers else 0


@register_function("MAX")
def fn_max(*arguments: ArgValue) -> CellValue:
    """Maximum numeric value (0 when there are none, as in Excel)."""
    numbers = list(iter_numbers(arguments))
    return _normalized_number(max(numbers)) if numbers else 0


@register_function("PRODUCT")
def fn_product(*arguments: ArgValue) -> CellValue:
    """Product of numeric content."""
    result = 1.0
    seen = False
    for number in iter_numbers(arguments):
        result *= number
        seen = True
    return _normalized_number(result) if seen else 0


@register_function("MEDIAN")
def fn_median(*arguments: ArgValue) -> CellValue:
    """Median of numeric content."""
    numbers = sorted(iter_numbers(arguments))
    if not numbers:
        raise FormulaEvaluationError("#NUM!", "MEDIAN of no numbers")
    middle = len(numbers) // 2
    if len(numbers) % 2:
        return _normalized_number(numbers[middle])
    return _normalized_number((numbers[middle - 1] + numbers[middle]) / 2)


@register_function("STDEV")
def fn_stdev(*arguments: ArgValue) -> CellValue:
    """Sample standard deviation of numeric content."""
    numbers = list(iter_numbers(arguments))
    if len(numbers) < 2:
        raise FormulaEvaluationError("#DIV/0!", "STDEV needs at least two numbers")
    mean = sum(numbers) / len(numbers)
    variance = sum((value - mean) ** 2 for value in numbers) / (len(numbers) - 1)
    return math.sqrt(variance)


@register_function("SUMIF")
def fn_sumif(criteria_range: ArgValue, criteria: ArgValue, sum_range: ArgValue = None) -> CellValue:
    """SUM of values whose criteria-range counterpart satisfies ``criteria``."""
    if not isinstance(criteria_range, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "SUMIF expects a range")
    source = sum_range if isinstance(sum_range, RangeValue) else criteria_range
    matcher = _criteria_matcher(criteria)
    total = 0.0
    flat_criteria = list(criteria_range.flatten())
    flat_source = list(source.flatten())
    for index, candidate in enumerate(flat_criteria):
        if index < len(flat_source) and matcher(candidate):
            value = flat_source[index]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total += float(value)
    return _normalized_number(total)


@register_function("COUNTIF")
def fn_countif(criteria_range: ArgValue, criteria: ArgValue) -> CellValue:
    """Count of cells in the range satisfying ``criteria``."""
    if not isinstance(criteria_range, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "COUNTIF expects a range")
    matcher = _criteria_matcher(criteria)
    return sum(1 for value in criteria_range.flatten() if matcher(value))


def _criteria_matcher(criteria: ArgValue) -> Callable[[CellValue], bool]:
    """Build a predicate from an Excel-style criteria argument (e.g. ``">=5"``)."""
    if isinstance(criteria, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "criteria must be a scalar")
    if isinstance(criteria, str):
        for operator in (">=", "<=", "<>", ">", "<", "="):
            if criteria.startswith(operator):
                target_text = criteria[len(operator):]
                try:
                    target: CellValue = float(target_text)
                except ValueError:
                    target = target_text
                return _comparison_predicate(operator, target)
        return lambda value: to_text(value).lower() == criteria.lower() if value is not None else False
    return lambda value: value == criteria


def _comparison_predicate(operator: str, target: CellValue) -> Callable[[CellValue], bool]:
    def predicate(value: CellValue) -> bool:
        if value is None:
            return False
        if isinstance(target, float):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return False
            left: float | str = float(value)
        else:
            left = to_text(value).lower()
            target_cmp = str(target).lower()
            return _apply_comparison(operator, left, target_cmp)
        return _apply_comparison(operator, left, target)

    return predicate


def _apply_comparison(operator: str, left: float | str, right: float | str) -> bool:
    if operator == "=":
        return left == right
    if operator == "<>":
        return left != right
    if operator == ">":
        return left > right       # type: ignore[operator]
    if operator == "<":
        return left < right       # type: ignore[operator]
    if operator == ">=":
        return left >= right      # type: ignore[operator]
    return left <= right          # type: ignore[operator]


# ---------------------------------------------------------------------- #
# logical
# ---------------------------------------------------------------------- #
@register_function("IF")
def fn_if(condition: ArgValue, if_true: ArgValue = True, if_false: ArgValue = False) -> CellValue:
    """IF(condition, then, else)."""
    result = if_true if to_boolean(condition) else if_false
    if isinstance(result, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "IF branches must be scalars")
    return result


@register_function("AND")
def fn_and(*arguments: ArgValue) -> CellValue:
    """Logical AND over scalars and range contents."""
    return all(to_boolean(value) for value in _iter_scalars(arguments))


@register_function("OR")
def fn_or(*arguments: ArgValue) -> CellValue:
    """Logical OR over scalars and range contents."""
    return any(to_boolean(value) for value in _iter_scalars(arguments))


@register_function("NOT")
def fn_not(argument: ArgValue) -> CellValue:
    """Logical negation."""
    return not to_boolean(argument)


@register_function("ISBLANK")
def fn_isblank(argument: ArgValue) -> CellValue:
    """Whether the argument is a blank cell."""
    if isinstance(argument, RangeValue):
        return all(value is None for value in argument.flatten())
    return argument is None


@register_function("ISNUMBER")
def fn_isnumber(argument: ArgValue) -> CellValue:
    """Whether the argument is numeric."""
    return isinstance(argument, (int, float)) and not isinstance(argument, bool)


@register_function("IFERROR")
def fn_iferror(value: ArgValue, fallback: ArgValue = None) -> CellValue:
    """Return ``value`` unless it is an error sentinel string, else ``fallback``.

    The evaluator converts trapped evaluation errors into their error-code
    strings before calling IFERROR, so this simply checks for that shape.
    """
    if isinstance(value, str) and value.startswith("#") and value.endswith(("!", "?")):
        if isinstance(fallback, RangeValue):
            raise FormulaEvaluationError("#VALUE!", "IFERROR fallback must be a scalar")
        return fallback
    if isinstance(value, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "IFERROR value must be a scalar")
    return value


def _iter_scalars(arguments: Iterable[ArgValue]) -> Iterator[CellValue]:
    for argument in arguments:
        if isinstance(argument, RangeValue):
            for value in argument.flatten():
                if value is not None:
                    yield value
        else:
            yield argument


# ---------------------------------------------------------------------- #
# numeric
# ---------------------------------------------------------------------- #
@register_function("ABS")
def fn_abs(value: ArgValue) -> CellValue:
    """Absolute value."""
    return _normalized_number(abs(to_number(value)))


@register_function("SQRT")
def fn_sqrt(value: ArgValue) -> CellValue:
    """Square root; #NUM! for negatives."""
    number = to_number(value)
    if number < 0:
        raise FormulaEvaluationError("#NUM!", "SQRT of a negative number")
    return _normalized_number(math.sqrt(number))


@register_function("LN")
def fn_ln(value: ArgValue) -> CellValue:
    """Natural logarithm; #NUM! for non-positive input."""
    number = to_number(value)
    if number <= 0:
        raise FormulaEvaluationError("#NUM!", "LN of a non-positive number")
    return math.log(number)


@register_function("LOG")
def fn_log(value: ArgValue, base: ArgValue = 10) -> CellValue:
    """Logarithm in the given base (default 10)."""
    number = to_number(value)
    base_number = to_number(base)
    if number <= 0 or base_number <= 0 or base_number == 1:
        raise FormulaEvaluationError("#NUM!", "invalid LOG arguments")
    return math.log(number, base_number)


@register_function("EXP")
def fn_exp(value: ArgValue) -> CellValue:
    """e raised to the argument."""
    try:
        return math.exp(to_number(value))
    except OverflowError:
        raise FormulaEvaluationError("#NUM!", "EXP out of range") from None


@register_function("ROUND")
def fn_round(value: ArgValue, digits: ArgValue = 0) -> CellValue:
    """Round to ``digits`` decimal places (half away from zero, like Excel)."""
    number = to_number(value)
    places = int(to_number(digits))
    factor = 10 ** places
    scaled = number * factor
    rounded = math.floor(scaled + 0.5) if scaled >= 0 else math.ceil(scaled - 0.5)
    return _normalized_number(rounded / factor)


@register_function("FLOOR")
def fn_floor(value: ArgValue, significance: ArgValue = 1) -> CellValue:
    """Round down to the nearest multiple of ``significance``."""
    number = to_number(value)
    step = to_number(significance)
    if step == 0:
        raise FormulaEvaluationError("#DIV/0!", "FLOOR significance of zero")
    return _normalized_number(math.floor(number / step) * step)


@register_function("CEILING")
def fn_ceiling(value: ArgValue, significance: ArgValue = 1) -> CellValue:
    """Round up to the nearest multiple of ``significance``."""
    number = to_number(value)
    step = to_number(significance)
    if step == 0:
        raise FormulaEvaluationError("#DIV/0!", "CEILING significance of zero")
    return _normalized_number(math.ceil(number / step) * step)


@register_function("MOD")
def fn_mod(value: ArgValue, divisor: ArgValue) -> CellValue:
    """Remainder after division (sign follows the divisor, like Excel)."""
    denominator = to_number(divisor)
    if denominator == 0:
        raise FormulaEvaluationError("#DIV/0!", "MOD by zero")
    return _normalized_number(math.fmod(to_number(value), denominator)
                              if (to_number(value) < 0) == (denominator < 0)
                              else to_number(value) % denominator)


@register_function("POWER")
def fn_power(base: ArgValue, exponent: ArgValue) -> CellValue:
    """``base`` raised to ``exponent``."""
    return _normalized_number(power(to_number(base), to_number(exponent)))


# ---------------------------------------------------------------------- #
# text
# ---------------------------------------------------------------------- #
@register_function("CONCATENATE")
def fn_concatenate(*arguments: ArgValue) -> CellValue:
    """Concatenate the text rendering of every scalar argument."""
    return "".join(to_text(value) for value in _iter_scalars(arguments))


@register_function("LEN")
def fn_len(value: ArgValue) -> CellValue:
    """Length of the text rendering."""
    return len(to_text(value))


@register_function("UPPER")
def fn_upper(value: ArgValue) -> CellValue:
    """Upper-cased text."""
    return to_text(value).upper()


@register_function("LOWER")
def fn_lower(value: ArgValue) -> CellValue:
    """Lower-cased text."""
    return to_text(value).lower()


@register_function("TRIM")
def fn_trim(value: ArgValue) -> CellValue:
    """Whitespace-trimmed text."""
    return to_text(value).strip()


@register_function("LEFT")
def fn_left(value: ArgValue, count: ArgValue = 1) -> CellValue:
    """The first ``count`` characters."""
    return to_text(value)[: int(to_number(count))]


@register_function("RIGHT")
def fn_right(value: ArgValue, count: ArgValue = 1) -> CellValue:
    """The last ``count`` characters."""
    amount = int(to_number(count))
    text = to_text(value)
    return text[-amount:] if amount > 0 else ""


@register_function("MID")
def fn_mid(value: ArgValue, start: ArgValue, count: ArgValue) -> CellValue:
    """Substring starting at 1-based ``start`` with ``count`` characters."""
    begin = max(int(to_number(start)) - 1, 0)
    amount = int(to_number(count))
    return to_text(value)[begin: begin + amount]


@register_function("SEARCH")
def fn_search(needle: ArgValue, haystack: ArgValue, start: ArgValue = 1) -> CellValue:
    """1-based, case-insensitive position of ``needle`` in ``haystack``; #VALUE! when absent."""
    begin = max(int(to_number(start)) - 1, 0)
    position = to_text(haystack).lower().find(to_text(needle).lower(), begin)
    if position < 0:
        raise FormulaEvaluationError("#VALUE!", "SEARCH text not found")
    return position + 1


# ---------------------------------------------------------------------- #
# lookup
# ---------------------------------------------------------------------- #
@register_function("VLOOKUP")
def fn_vlookup(
    lookup_value: ArgValue,
    table: ArgValue,
    column_index: ArgValue,
    range_lookup: ArgValue = True,
) -> CellValue:
    """Vertical lookup: find ``lookup_value`` in the first column of ``table``.

    With ``range_lookup`` false an exact match is required; otherwise the
    largest first-column value <= the lookup value is used (the table is
    assumed sorted, as in Excel).
    """
    if not isinstance(table, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "VLOOKUP expects a range table")
    target_column = int(to_number(column_index))
    if target_column < 1 or target_column > table.columns:
        raise FormulaEvaluationError("#REF!", "VLOOKUP column index out of range")
    approximate = to_boolean(range_lookup) if range_lookup is not None else True
    first_column = table.column(1)
    row_index = _lookup_index(lookup_value, first_column, approximate)
    if row_index is None:
        raise FormulaEvaluationError("#N/A", "VLOOKUP value not found")
    return table.values[row_index][target_column - 1]


@register_function("HLOOKUP")
def fn_hlookup(
    lookup_value: ArgValue,
    table: ArgValue,
    row_index: ArgValue,
    range_lookup: ArgValue = True,
) -> CellValue:
    """Horizontal lookup: find ``lookup_value`` in the first row of ``table``."""
    if not isinstance(table, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "HLOOKUP expects a range table")
    target_row = int(to_number(row_index))
    if target_row < 1 or target_row > table.rows:
        raise FormulaEvaluationError("#REF!", "HLOOKUP row index out of range")
    approximate = to_boolean(range_lookup) if range_lookup is not None else True
    first_row = list(table.values[0])
    column_position = _lookup_index(lookup_value, first_row, approximate)
    if column_position is None:
        raise FormulaEvaluationError("#N/A", "HLOOKUP value not found")
    return table.values[target_row - 1][column_position]


@register_function("MATCH")
def fn_match(lookup_value: ArgValue, lookup_range: ArgValue, match_type: ArgValue = 1) -> CellValue:
    """1-based position of ``lookup_value`` in a single row or column range."""
    if not isinstance(lookup_range, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "MATCH expects a range")
    if lookup_range.rows == 1:
        candidates = list(lookup_range.values[0])
    elif lookup_range.columns == 1:
        candidates = lookup_range.column(1)
    else:
        raise FormulaEvaluationError("#N/A", "MATCH range must be one row or one column")
    approximate = int(to_number(match_type)) != 0
    index = _lookup_index(lookup_value, candidates, approximate)
    if index is None:
        raise FormulaEvaluationError("#N/A", "MATCH value not found")
    return index + 1


@register_function("INDEX")
def fn_index(table: ArgValue, row: ArgValue, column: ArgValue = 1) -> CellValue:
    """Value at (row, column) of a range (both 1-based)."""
    if not isinstance(table, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "INDEX expects a range")
    row_number = int(to_number(row))
    column_number = int(to_number(column))
    if not (1 <= row_number <= table.rows and 1 <= column_number <= table.columns):
        raise FormulaEvaluationError("#REF!", "INDEX out of range")
    return table.values[row_number - 1][column_number - 1]


def _lookup_index(
    lookup_value: ArgValue, candidates: Sequence[CellValue], approximate: bool
) -> int | None:
    """Shared lookup core for VLOOKUP/HLOOKUP/MATCH."""
    if isinstance(lookup_value, RangeValue):
        raise FormulaEvaluationError("#VALUE!", "lookup value must be a scalar")
    if not approximate:
        for index, candidate in enumerate(candidates):
            if _loose_equal(candidate, lookup_value):
                return index
        return None
    best: int | None = None
    for index, candidate in enumerate(candidates):
        if candidate is None:
            continue
        try:
            if _loose_compare(candidate, lookup_value) <= 0:
                best = index
            else:
                break
        except TypeError:
            continue
    return best


def _loose_equal(left: CellValue, right: CellValue) -> bool:
    if isinstance(left, str) and isinstance(right, str):
        return left.lower() == right.lower()
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right


def _loose_compare(left: CellValue, right: CellValue) -> int:
    if isinstance(left, str) and isinstance(right, str):
        left_key, right_key = left.lower(), right.lower()
    elif isinstance(left, (int, float)) and isinstance(right, (int, float)) \
            and not isinstance(left, bool) and not isinstance(right, bool):
        left_key, right_key = float(left), float(right)
    else:
        raise TypeError("incomparable values")
    if left_key < right_key:   # type: ignore[operator]
        return -1
    if left_key > right_key:   # type: ignore[operator]
        return 1
    return 0
