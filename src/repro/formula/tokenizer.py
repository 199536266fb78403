"""Tokenizer for spreadsheet formulae."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from repro.errors import FormulaSyntaxError


class TokenType(Enum):
    """Lexical categories produced by :func:`tokenize`."""

    NUMBER = auto()
    STRING = auto()
    BOOLEAN = auto()
    CELL = auto()          # e.g. B2, $C$10 (stored form: R[0]C[-1], R10C3)
    RANGE = auto()         # e.g. B2:C10 (stored form: R[0]C[-1]:R[9]C[-1])
    ERROR = auto()         # e.g. #REF!, #DIV/0!, #N/A
    IDENTIFIER = auto()    # function names
    OPERATOR = auto()      # + - * / ^ % & = <> < > <= >=
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()
    END = auto()


@dataclass(frozen=True, slots=True)
class Token:
    """A single lexical token with its source text."""

    type: TokenType
    text: str
    position: int


_A1_CELL = r"\$?[A-Za-z]{1,7}\$?[0-9]+"
#: A stored-form reference: each component either ``[offset]`` or a line.
#: Zero offsets are written out (``R[0]``), so no stored reference is also
#: an A1 reference (``RC5`` is A1 for column RC) or the other way round.
_STORED_CELL = r"R(?:\[[+-]?[0-9]+\]|[0-9]+)C(?:\[[+-]?[0-9]+\]|[0-9]+)"


def _token_spec(cell: str) -> list[tuple[str, str]]:
    return [
        ("WHITESPACE", r"[ \t\r\n]+"),
        ("RANGE", rf"{cell}\s*:\s*{cell}"),
        ("NUMBER", r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"),
        ("STRING", r'"(?:[^"]|"")*"'),
        ("ERROR", r"#[A-Za-z][A-Za-z0-9/]*[!?]?"),
        ("CELL", cell),
        ("IDENTIFIER", r"[A-Za-z_][A-Za-z0-9_\.]*"),
        ("OPERATOR", r"<=|>=|<>|[+\-*/^&%=<>]"),
        ("LPAREN", r"\("),
        ("RPAREN", r"\)"),
        ("COMMA", r"[,;]"),
    ]


def _master(cell: str) -> re.Pattern[str]:
    return re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _token_spec(cell)))


_MASTER_PATTERN = _master(_A1_CELL)
_STORED_PATTERN = _master(_STORED_CELL)

_BOOLEAN_LITERALS = {"TRUE", "FALSE"}


def tokenize(formula: str, *, stored: bool = False) -> list[Token]:
    """Tokenize a formula body (text after the leading ``=``).

    References are A1 (``B2``, ``$B$2:C10``), or with ``stored`` the
    position-free form the engine keeps (``R[0]C[-1]``, ``R2C2:R[9]C[-1]``);
    in either mode the other form's references are not references.
    Raises :class:`FormulaSyntaxError` on unexpected characters.
    """
    master = _STORED_PATTERN if stored else _MASTER_PATTERN
    tokens: list[Token] = []
    position = 0
    length = len(formula)
    while position < length:
        match = master.match(formula, position)
        if match is None:
            raise FormulaSyntaxError(
                f"unexpected character {formula[position]!r} at offset {position} in {formula!r}"
            )
        kind = match.lastgroup
        text = match.group()
        if kind == "WHITESPACE":
            position = match.end()
            continue
        if kind == "IDENTIFIER" and text.upper() in _BOOLEAN_LITERALS:
            tokens.append(Token(TokenType.BOOLEAN, text.upper(), position))
        elif kind == "RANGE":
            tokens.append(Token(TokenType.RANGE, text.replace(" ", ""), position))
        else:
            tokens.append(Token(TokenType[kind], text, position))
        position = match.end()
    tokens.append(Token(TokenType.END, "", length))
    return tokens
