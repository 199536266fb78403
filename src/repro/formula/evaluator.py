"""Formula evaluation against any cell provider.

The evaluator is decoupled from storage: it pulls cell values through a
*cell provider* callable ``(row, column) -> CellValue`` so the same code
evaluates formulae against the in-memory :class:`~repro.grid.sheet.Sheet`,
the LRU cell cache of the execution engine, or a raw data model.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.errors import FormulaEvaluationError, FormulaSyntaxError
from repro.formula import columnar
from repro.formula.aggregates import (
    DECOMPOSABLE_AGGREGATES,
    combine_aggregate,
)
from repro.formula.ast_nodes import (
    BinaryOpNode,
    BoolNode,
    CellRefNode,
    ErrorNode,
    FormulaNode,
    FunctionCallNode,
    NumberNode,
    RangeRefNode,
    StringNode,
    UnaryOpNode,
)
from repro.formula.functions import FUNCTION_REGISTRY, RangeValue, power, to_number, to_text
from repro.formula.parser import parse_formula
from repro.grid.address import CellAddress
from repro.grid.cell import CellValue
from repro.grid.range import RangeRef

CellProvider = Callable[[int, int], CellValue]
#: A region's values as one dense row-major block (``None`` = blank cell):
#: the storage layer's ``get_values_dense`` contract.
RangeProvider = Callable[[RangeRef], list]

#: Ranges larger than this raise instead of materialising (safety valve for
#: accidental whole-column references on huge sheets).
MAX_RANGE_CELLS = 10_000_000

#: Default bound on the number of distinct formula ASTs kept parsed.
DEFAULT_PARSE_CACHE_CAPACITY = 10_000


@dataclass
class ParseCacheStats:
    """A snapshot of the evaluator's AST-cache behaviour.

    ``hits``/``misses`` count :meth:`Evaluator.parse` lookups; ``primes``
    counts ASTs seeded directly by :meth:`Evaluator.prime` (a prime of an
    already-cached formula refreshes its recency and counts as a hit).
    """

    hits: int
    misses: int
    primes: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of ``parse`` calls served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Evaluator:
    """Evaluates formula ASTs by pulling referenced cells from a provider.

    ``range_provider`` is optional: when given, rectangular range references
    are materialised with a single bulk read (the storage engine's
    ``getCells(range)`` access path) instead of one cell probe per
    coordinate, which is how the DataSpread engine actually evaluates
    SUM/VLOOKUP-style formulae over a data model.  The provider returns the
    region's values as one dense row-major block, ``region.area`` long with
    ``None`` for a blank cell (``DataModel.get_values_dense``,
    ``DataSpread.grid_values``); cold aggregate state is built by the
    vectorized columnar path over the same block.

    Parsed ASTs are cached with LRU eviction bounded by
    ``parse_cache_capacity`` so millions of distinct formulas cannot grow
    the cache without limit.

    ``aggregate_store`` is optional: when given (the DataSpread engine
    passes its :class:`~repro.formula.aggregates.AggregateStore`) and
    :attr:`aggregate_cell` names the formula cell being evaluated,
    decomposable aggregate calls whose arguments are all range references
    are served from the store's running state in O(1) instead of
    materialising the range, (re)building state from one bulk read when
    missing — the delta-maintained fast path for ``SUM(A1:A100000)``-style
    formulas.
    """

    def __init__(self, cell_provider: CellProvider,
                 range_provider: RangeProvider | None = None,
                 *, parse_cache_capacity: int = DEFAULT_PARSE_CACHE_CAPACITY,
                 aggregate_store=None) -> None:
        if parse_cache_capacity < 1:
            raise ValueError("parse cache capacity must be >= 1")
        self._provider = cell_provider
        self._range_provider = range_provider
        self._aggregate_store = aggregate_store
        #: The formula cell currently being evaluated on behalf of the
        #: engine; keys the aggregate store's running state.  ``None``
        #: disables the decomposable fast path entirely.
        self.aggregate_cell: CellAddress | None = None
        self._parse_cache: OrderedDict[str, FormulaNode] = OrderedDict()
        self._parse_cache_capacity = parse_cache_capacity
        self._parse_hits = 0
        self._parse_misses = 0
        self._parse_primes = 0

    @property
    def parse_cache_size(self) -> int:
        """Number of distinct formulas currently held parsed."""
        return len(self._parse_cache)

    def parse_cache_stats(self) -> ParseCacheStats:
        """Hit/miss/prime counters plus current size and capacity."""
        return ParseCacheStats(
            hits=self._parse_hits,
            misses=self._parse_misses,
            primes=self._parse_primes,
            size=len(self._parse_cache),
            capacity=self._parse_cache_capacity,
        )

    def reset_parse_cache_stats(self) -> None:
        """Zero the hit/miss/prime counters (the cached ASTs are kept)."""
        self._parse_hits = 0
        self._parse_misses = 0
        self._parse_primes = 0

    # ------------------------------------------------------------------ #
    def parse(self, formula: str) -> FormulaNode:
        """Parse a formula body through the bounded LRU AST cache."""
        node = self._parse_cache.get(formula)
        if node is not None:
            self._parse_hits += 1
            self._parse_cache.move_to_end(formula)
            return node
        self._parse_misses += 1
        node = parse_formula(formula)
        self._parse_cache[formula] = node
        self._evict_over_capacity()
        return node

    def prime(self, formula: str, node: FormulaNode) -> None:
        """Seed the AST cache with an already-parsed formula.

        Used by the structural-edit rewriter: a rewritten AST is serialized
        back to text, and priming the cache lets the new text evaluate
        without a round-trip through the parser.  The caller guarantees
        ``parse_formula(formula) == node``, so priming a formula that is
        already cached only refreshes its recency — the cached AST object
        is kept, preserving subtree sharing with every holder of it.
        """
        if formula in self._parse_cache:
            self._parse_cache.move_to_end(formula)
            self._parse_hits += 1
            return
        self._parse_cache[formula] = node
        self._parse_primes += 1
        self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        while len(self._parse_cache) > self._parse_cache_capacity:
            self._parse_cache.popitem(last=False)

    def evaluate(self, formula: str) -> CellValue:
        """Parse (with caching) and evaluate a formula body."""
        return self.evaluate_node(self.parse(formula))

    def evaluate_node(self, node: FormulaNode) -> CellValue:
        """Evaluate an already-parsed AST to a scalar value."""
        result = self._evaluate(node)
        if isinstance(result, RangeValue):
            # A bare range in scalar context collapses to its first cell,
            # mirroring how spreadsheets resolve implicit intersection.
            return result.values[0][0] if result.values else None
        return result

    # ------------------------------------------------------------------ #
    def _evaluate(self, node: FormulaNode) -> CellValue | RangeValue:
        if isinstance(node, NumberNode):
            return node.value if not node.value.is_integer() else int(node.value)
        if isinstance(node, StringNode):
            return node.value
        if isinstance(node, BoolNode):
            return node.value
        if isinstance(node, CellRefNode):
            return self._provider(node.address.row, node.address.column)
        if isinstance(node, RangeRefNode):
            return self._materialize_range(node.range)
        if isinstance(node, ErrorNode):
            raise FormulaEvaluationError(node.code, f"error literal {node.code}")
        if isinstance(node, UnaryOpNode):
            return self._evaluate_unary(node)
        if isinstance(node, BinaryOpNode):
            return self._evaluate_binary(node)
        if isinstance(node, FunctionCallNode):
            return self._evaluate_call(node)
        raise FormulaEvaluationError("#VALUE!", f"unsupported AST node {type(node).__name__}")

    def _materialize_range(self, region: RangeRef) -> RangeValue:
        if region.area > MAX_RANGE_CELLS:
            raise FormulaEvaluationError(
                "#REF!", f"range {region.to_a1()} too large to materialise"
            )
        if self._range_provider is not None:
            block = self._range_provider(region)
            width = region.columns
            return RangeValue(values=tuple(
                tuple(block[start:start + width])
                for start in range(0, len(block), width)
            ))
        rows = [
            tuple(
                self._provider(row, column)
                for column in range(region.left, region.right + 1)
            )
            for row in range(region.top, region.bottom + 1)
        ]
        return RangeValue(values=tuple(rows))

    def _evaluate_unary(self, node: UnaryOpNode) -> CellValue:
        operand = self._scalar(self._evaluate(node.operand))
        if node.operator == "-":
            return -to_number(operand)
        if node.operator == "+":
            return to_number(operand)
        if node.operator == "%":
            return to_number(operand) / 100.0
        raise FormulaEvaluationError("#VALUE!", f"unknown unary operator {node.operator!r}")

    def _evaluate_binary(self, node: BinaryOpNode) -> CellValue:
        left = self._scalar(self._evaluate(node.left))
        right = self._scalar(self._evaluate(node.right))
        operator = node.operator
        if operator == "&":
            return to_text(left) + to_text(right)
        if operator in {"=", "<>", "<", ">", "<=", ">="}:
            return self._compare(operator, left, right)
        left_number = to_number(left)
        right_number = to_number(right)
        if operator == "+":
            result = left_number + right_number
        elif operator == "-":
            result = left_number - right_number
        elif operator == "*":
            result = left_number * right_number
        elif operator == "/":
            if right_number == 0:
                raise FormulaEvaluationError("#DIV/0!", "division by zero")
            result = left_number / right_number
        elif operator == "^":
            result = power(left_number, right_number)
        else:
            raise FormulaEvaluationError("#VALUE!", f"unknown operator {operator!r}")
        return int(result) if isinstance(result, float) and result.is_integer() else result

    @staticmethod
    def _compare(operator: str, left: CellValue, right: CellValue) -> bool:
        # Numeric comparison when both sides are numeric; text otherwise.
        if isinstance(left, (int, float)) and isinstance(right, (int, float)) \
                and not isinstance(left, bool) and not isinstance(right, bool):
            left_key: float | str = float(left)
            right_key: float | str = float(right)
        else:
            left_key = to_text(left).lower()
            right_key = to_text(right).lower()
        if operator == "=":
            return left_key == right_key
        if operator == "<>":
            return left_key != right_key
        if operator == "<":
            return left_key < right_key    # type: ignore[operator]
        if operator == ">":
            return left_key > right_key    # type: ignore[operator]
        if operator == "<=":
            return left_key <= right_key   # type: ignore[operator]
        return left_key >= right_key       # type: ignore[operator]

    def _evaluate_call(self, node: FunctionCallNode) -> CellValue:
        implementation = FUNCTION_REGISTRY.get(node.name)
        if implementation is None:
            raise FormulaEvaluationError("#NAME?", f"unknown function {node.name}")
        if (
            self._aggregate_store is not None
            and self.aggregate_cell is not None
            and node.name in DECOMPOSABLE_AGGREGATES
            and node.arguments
            and all(
                isinstance(argument, RangeRefNode)
                and self._aggregate_store.tracks(self.aggregate_cell, argument.range)
                for argument in node.arguments
            )
        ):
            return self._evaluate_decomposable(node, implementation)
        arguments = []
        for argument_node in node.arguments:
            if node.name == "IFERROR" and argument_node is node.arguments[0]:
                # IFERROR traps evaluation errors in its first argument.
                try:
                    arguments.append(self._evaluate(argument_node))
                except FormulaEvaluationError as error:
                    arguments.append(error.code)
            else:
                arguments.append(self._evaluate(argument_node))
        return implementation(*arguments)

    def _evaluate_decomposable(self, node: FunctionCallNode, implementation) -> CellValue:
        """Serve a decomposable aggregate from running state (the O(Δ) path).

        Each range argument resolves to its running state; a missing (or
        component-degraded) state is rebuilt from one bulk range read.  If
        even a fresh rebuild cannot serve the function exactly (inexact
        float sums), the call falls back to the classic evaluation over the
        materialised ranges — correctness always wins over incrementality.
        """
        store = self._aggregate_store
        address = self.aggregate_cell
        states = []
        materialized: list[RangeValue | None] = []
        from_state = True
        for argument in node.arguments:
            region = argument.range
            state = store.state_for(address, region)
            values = None
            if state is None or (
                not state.supports(node.name) and state.rebuild_restores(node.name)
            ):
                # Missing state, or a degradation a full read can repair
                # (a MIN/MAX extremum support loss).  Content-driven
                # degradation — inexact sums, NaN-poisoned ordering —
                # cannot be rebuilt away while the content stands, so
                # those cases skip the rebuild and fall straight through
                # to the classic evaluation below.
                if self._range_provider is not None and region.area <= MAX_RANGE_CELLS:
                    built, vectorized = columnar.build_state(
                        self._range_provider(region))
                    state = store.install(address, region, built,
                                          columnar=vectorized)
                else:
                    values = self._materialize_range(region)
                    state = store.build(address, region, values)
                from_state = False
            states.append(state)
            materialized.append(values)
        if all(state.supports(node.name) for state in states):
            if from_state:
                store.stats.hits += 1
            return combine_aggregate(node.name, states)
        # Correctness always wins over incrementality: evaluate classically,
        # reusing any range already materialised for a state rebuild.
        store.stats.fallbacks += 1
        return implementation(*(
            values if values is not None else self._materialize_range(argument.range)
            for argument, values in zip(node.arguments, materialized)
        ))

    @staticmethod
    def _scalar(value: CellValue | RangeValue) -> CellValue:
        if isinstance(value, RangeValue):
            if value.rows == 1 and value.columns == 1:
                return value.values[0][0]
            raise FormulaEvaluationError("#VALUE!", "range used in scalar context")
        return value


# ---------------------------------------------------------------------- #
# static analysis
# ---------------------------------------------------------------------- #
def extract_references(formula: str | FormulaNode) -> tuple[list[CellAddress], list[RangeRef]]:
    """Return the single-cell and range references a formula reads.

    Used to build the dependency graph and to measure per-formula access
    footprints for the Section II statistics.
    """
    node = parse_formula(formula) if isinstance(formula, str) else formula
    cells: list[CellAddress] = []
    ranges: list[RangeRef] = []
    for descendant in node.walk():
        if isinstance(descendant, CellRefNode):
            cells.append(descendant.address)
        elif isinstance(descendant, RangeRefNode):
            ranges.append(descendant.range)
    return cells, ranges


def referenced_coordinates(formula: str | FormulaNode) -> set[tuple[int, int]]:
    """All (row, column) pairs a formula reads, ranges expanded."""
    cells, ranges = extract_references(formula)
    coordinates = {(address.row, address.column) for address in cells}
    for region in ranges:
        if region.area > MAX_RANGE_CELLS:
            raise FormulaSyntaxError(f"range {region.to_a1()} too large to expand")
        for address in region.addresses():
            coordinates.add((address.row, address.column))
    return coordinates
