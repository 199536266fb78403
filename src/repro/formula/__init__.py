"""Spreadsheet formula engine.

The paper's corpus study (Section II-C, Figure 5) finds arithmetic, SUM,
AVERAGE, IF, ISBLANK, VLOOKUP, LOG/LN/ROUND/FLOOR and lookup/search formulae
dominate real sheets.  This package provides a tokenizer, a Pratt parser
producing a small AST, an evaluator over those functions, and the dependency
graph used by the DataSpread execution engine to trigger recomputation.  The
engine keeps formulas in a stored, position-free form (``relative``): each
reference component an offset from the formula's own cell unless anchored.
"""

from repro.formula.tokenizer import tokenize, Token, TokenType
from repro.formula.ast_nodes import (
    FormulaNode,
    NumberNode,
    StringNode,
    BoolNode,
    CellRefNode,
    RangeRefNode,
    OffsetCellRefNode,
    OffsetRangeRefNode,
    ErrorNode,
    UnaryOpNode,
    BinaryOpNode,
    FunctionCallNode,
)
from repro.formula.parser import parse_formula, parse_stored
from repro.formula.serializer import to_formula
from repro.formula.rewrite import StructuralEdit, rewrite_formula
from repro.formula.evaluator import Evaluator, extract_references
from repro.formula.dependencies import (
    DependencyGraph,
    DependencyGraphStats,
    StructuralRewrite,
)
from repro.formula.functions import FUNCTION_REGISTRY, register_function

__all__ = [
    "tokenize",
    "Token",
    "TokenType",
    "parse_formula",
    "parse_stored",
    "to_formula",
    "FormulaNode",
    "NumberNode",
    "StringNode",
    "BoolNode",
    "CellRefNode",
    "RangeRefNode",
    "OffsetCellRefNode",
    "OffsetRangeRefNode",
    "ErrorNode",
    "UnaryOpNode",
    "BinaryOpNode",
    "FunctionCallNode",
    "StructuralEdit",
    "rewrite_formula",
    "Evaluator",
    "extract_references",
    "DependencyGraph",
    "DependencyGraphStats",
    "StructuralRewrite",
    "FUNCTION_REGISTRY",
    "register_function",
]
