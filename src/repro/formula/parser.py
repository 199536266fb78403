"""Pratt (precedence-climbing) parser for spreadsheet formulae."""

from __future__ import annotations

from repro.errors import FormulaSyntaxError
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
    node_depth,
)
from repro.formula.tokenizer import Token, TokenType, tokenize
from repro.grid.address import CellAddress
from repro.grid.range import RangeRef

#: Binary operator precedence, low to high.  Mirrors spreadsheet semantics:
#: comparisons < concatenation < additive < multiplicative < exponentiation.
_BINARY_PRECEDENCE = {
    "=": 10,
    "<>": 10,
    "<": 10,
    ">": 10,
    "<=": 10,
    ">=": 10,
    "&": 20,
    "+": 30,
    "-": 30,
    "*": 40,
    "/": 40,
    "^": 50,
}

_RIGHT_ASSOCIATIVE = {"^"}

#: Deepest operator nesting a formula may have.  Evaluation, reference
#: extraction, rewriting and serialization all recurse once per level, so
#: deeper input is refused as a syntax error before anything stores it.
MAX_FORMULA_DEPTH = 400


def _absolute_flags(reference: str) -> tuple[bool, bool]:
    """The (column_absolute, row_absolute) ``$`` markers of one A1 corner."""
    text = reference.strip()
    return text.startswith("$"), "$" in text[1:]


def _parse_range_reference(text: str) -> RangeRefNode:
    """Build a range node, keeping each corner's ``$`` markers.

    Corners may arrive in any order (``B10:A1``); the range normalises to
    top-left/bottom-right, so the flags follow the coordinate they annotate.
    """
    start_text, end_text = text.split(":", 1)
    start_column_absolute, start_row_absolute = _absolute_flags(start_text)
    end_column_absolute, end_row_absolute = _absolute_flags(end_text)
    start = CellAddress.from_a1(start_text)
    end = CellAddress.from_a1(end_text)
    if start.column > end.column:
        start_column_absolute, end_column_absolute = end_column_absolute, start_column_absolute
    if start.row > end.row:
        start_row_absolute, end_row_absolute = end_row_absolute, start_row_absolute
    return RangeRefNode(
        range=RangeRef.from_addresses(start, end),
        start_column_absolute=start_column_absolute,
        start_row_absolute=start_row_absolute,
        end_column_absolute=end_column_absolute,
        end_row_absolute=end_row_absolute,
    )


class _Parser:
    """Recursive-descent / precedence-climbing parser over a token list."""

    def __init__(self, tokens: list[Token], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._index = 0

    # ------------------------------------------------------------------ #
    def parse(self) -> FormulaNode:
        node = self._parse_expression(0)
        if self._current.type is not TokenType.END:
            raise FormulaSyntaxError(
                f"unexpected token {self._current.text!r} at offset "
                f"{self._current.position} in {self._source!r}"
            )
        return node

    # ------------------------------------------------------------------ #
    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, token_type: TokenType) -> Token:
        if self._current.type is not token_type:
            raise FormulaSyntaxError(
                f"expected {token_type.name} but found {self._current.text!r} "
                f"at offset {self._current.position} in {self._source!r}"
            )
        return self._advance()

    # ------------------------------------------------------------------ #
    def _parse_expression(self, min_precedence: int) -> FormulaNode:
        left = self._parse_unary()
        while True:
            token = self._current
            if token.type is not TokenType.OPERATOR:
                break
            precedence = _BINARY_PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                break
            self._advance()
            if token.text in _RIGHT_ASSOCIATIVE:
                right = self._parse_expression(precedence)
            else:
                right = self._parse_expression(precedence + 1)
            left = BinaryOpNode(operator=token.text, left=left, right=right)
        return left

    def _parse_unary(self) -> FormulaNode:
        token = self._current
        if token.type is TokenType.OPERATOR and token.text in {"+", "-"}:
            self._advance()
            operand = self._parse_unary()
            return UnaryOpNode(operator=token.text, operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> FormulaNode:
        node = self._parse_primary()
        while self._current.type is TokenType.OPERATOR and self._current.text == "%":
            self._advance()
            node = UnaryOpNode(operator="%", operand=node)
        return node

    def _parse_primary(self) -> FormulaNode:
        token = self._advance()
        if token.type is TokenType.NUMBER:
            return NumberNode(value=float(token.text))
        if token.type is TokenType.STRING:
            return StringNode(value=token.text[1:-1].replace('""', '"'))
        if token.type is TokenType.BOOLEAN:
            return BoolNode(value=token.text == "TRUE")
        if token.type is TokenType.RANGE:
            return _parse_range_reference(token.text)
        if token.type is TokenType.CELL:
            column_absolute, row_absolute = _absolute_flags(token.text)
            return CellRefNode(
                address=CellAddress.from_a1(token.text),
                column_absolute=column_absolute,
                row_absolute=row_absolute,
            )
        if token.type is TokenType.ERROR:
            return ErrorNode(code=token.text.upper())
        if token.type is TokenType.IDENTIFIER:
            if self._current.type is TokenType.LPAREN:
                return self._parse_function_call(token)
            raise FormulaSyntaxError(
                f"unknown identifier {token.text!r} at offset {token.position} "
                f"in {self._source!r}"
            )
        if token.type is TokenType.LPAREN:
            node = self._parse_expression(0)
            self._expect(TokenType.RPAREN)
            return node
        raise FormulaSyntaxError(
            f"unexpected token {token.text!r} at offset {token.position} in {self._source!r}"
        )

    def _parse_function_call(self, name_token: Token) -> FormulaNode:
        self._expect(TokenType.LPAREN)
        arguments: list[FormulaNode] = []
        if self._current.type is not TokenType.RPAREN:
            arguments.append(self._parse_expression(0))
            while self._current.type is TokenType.COMMA:
                self._advance()
                arguments.append(self._parse_expression(0))
        self._expect(TokenType.RPAREN)
        return FunctionCallNode(name=name_token.text.upper(), arguments=tuple(arguments))


def parse_formula(formula: str) -> FormulaNode:
    """Parse a formula body (text after the leading ``=``) into an AST.

    Raises :class:`~repro.errors.FormulaSyntaxError` for a formula nesting
    deeper than :data:`MAX_FORMULA_DEPTH` operator levels.  Every level
    takes at least one character, so only text longer than the bound is
    measured.

    >>> parse_formula("SUM(B2:C2)+D2")  # doctest: +ELLIPSIS
    BinaryOpNode(...)
    """
    text = formula.strip()
    if text.startswith("="):
        text = text[1:]
    if not text:
        raise FormulaSyntaxError("empty formula")
    try:
        node = _Parser(tokenize(text), text).parse()
    except RecursionError:
        raise FormulaSyntaxError("formula nests too deeply to parse") from None
    if len(text) > MAX_FORMULA_DEPTH and node_depth(node) > MAX_FORMULA_DEPTH:
        raise FormulaSyntaxError(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")
    return node
