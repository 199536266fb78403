"""Tests for the formula engine: tokenizer, parser, functions, evaluator, dependencies."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CircularDependencyError, FormulaEvaluationError, FormulaSyntaxError
from repro.formula.ast_nodes import BinaryOpNode, CellRefNode, FunctionCallNode, RangeRefNode
from repro.formula.dependencies import DependencyGraph
from repro.formula.evaluator import Evaluator, access_footprint, extract_references, referenced_coordinates
from repro.formula.parser import MAX_FORMULA_DEPTH, parse_formula
from repro.formula.tokenizer import TokenType, tokenize
from repro.grid.address import CellAddress
from repro.grid.sheet import Sheet


class TestTokenizer:
    def test_basic_tokens(self):
        kinds = [token.type for token in tokenize("SUM(A1:B2)+3.5")]
        assert kinds == [
            TokenType.IDENTIFIER, TokenType.LPAREN, TokenType.RANGE, TokenType.RPAREN,
            TokenType.OPERATOR, TokenType.NUMBER, TokenType.END,
        ]

    def test_string_literal_with_escaped_quote(self):
        tokens = tokenize('"he said ""hi"""')
        assert tokens[0].type is TokenType.STRING

    def test_boolean_literals(self):
        assert tokenize("TRUE")[0].type is TokenType.BOOLEAN

    def test_comparison_operators(self):
        texts = [token.text for token in tokenize("A1<=B1") if token.type is TokenType.OPERATOR]
        assert texts == ["<="]

    def test_unknown_character_raises(self):
        with pytest.raises(FormulaSyntaxError):
            tokenize("A1 @ B1")


class TestParser:
    def test_precedence(self):
        node = parse_formula("1+2*3")
        assert isinstance(node, BinaryOpNode)
        assert node.operator == "+"
        assert isinstance(node.right, BinaryOpNode)

    def test_right_associative_power(self):
        node = parse_formula("2^3^2")
        assert node.operator == "^"
        assert isinstance(node.right, BinaryOpNode)

    def test_leading_equals_ignored(self):
        assert isinstance(parse_formula("=A1"), CellRefNode)

    def test_function_with_multiple_args(self):
        node = parse_formula("IF(A1>3, 1, 0)")
        assert isinstance(node, FunctionCallNode)
        assert node.name == "IF"
        assert len(node.arguments) == 3

    def test_nested_functions(self):
        node = parse_formula("SUM(A1:A3, MAX(B1, B2))")
        assert isinstance(node.arguments[1], FunctionCallNode)

    def test_range_reference(self):
        node = parse_formula("AVERAGE(B2:C2)")
        assert isinstance(node.arguments[0], RangeRefNode)

    def test_unary_minus_and_percent(self):
        evaluator = Evaluator(lambda r, c: None)
        assert evaluator.evaluate("-3+5") == 2
        assert evaluator.evaluate("50%") == 0.5

    @pytest.mark.parametrize("bad", ["", "SUM(", "1+", "foo", "A1 A2", ")("])
    def test_syntax_errors(self, bad):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad)


def _sheet_provider(rows):
    sheet = Sheet.from_rows(rows)
    return sheet, (lambda r, c: sheet.get_value(r, c))


class TestEvaluator:
    def test_arithmetic_over_cells(self):
        _, provider = _sheet_provider([[10, 9, 30, 45.5]])
        evaluator = Evaluator(provider)
        assert evaluator.evaluate("AVERAGE(A1:B1)+C1+D1") == 85

    def test_string_concatenation(self):
        evaluator = Evaluator(lambda r, c: "ab")
        assert evaluator.evaluate('A1 & "-" & 3') == "ab-3"

    def test_comparisons(self):
        evaluator = Evaluator(lambda r, c: 4)
        assert evaluator.evaluate("A1 >= 4") is True
        assert evaluator.evaluate("A1 <> 4") is False
        assert evaluator.evaluate('"abc" < "abd"') is True

    def test_division_by_zero(self):
        evaluator = Evaluator(lambda r, c: 0)
        with pytest.raises(FormulaEvaluationError) as excinfo:
            evaluator.evaluate("1/A1")
        assert excinfo.value.code == "#DIV/0!"

    def test_unknown_function(self):
        evaluator = Evaluator(lambda r, c: 0)
        with pytest.raises(FormulaEvaluationError) as excinfo:
            evaluator.evaluate("NOSUCHFN(1)")
        assert excinfo.value.code == "#NAME?"

    def test_if_isblank(self):
        _, provider = _sheet_provider([[None, 5]])
        evaluator = Evaluator(provider)
        assert evaluator.evaluate("IF(ISBLANK(A1), 0, A1*2)") == 0
        assert evaluator.evaluate("IF(ISBLANK(B1), 0, B1*2)") == 10

    def test_sum_ignores_text_and_blanks(self):
        _, provider = _sheet_provider([[1, "x", None, 2]])
        evaluator = Evaluator(provider)
        assert evaluator.evaluate("SUM(A1:D1)") == 3
        assert evaluator.evaluate("COUNT(A1:D1)") == 2
        assert evaluator.evaluate("COUNTA(A1:D1)") == 3

    def test_min_max_median(self):
        _, provider = _sheet_provider([[5, 1, 9, 3]])
        evaluator = Evaluator(provider)
        assert evaluator.evaluate("MIN(A1:D1)") == 1
        assert evaluator.evaluate("MAX(A1:D1)") == 9
        assert evaluator.evaluate("MEDIAN(A1:D1)") == 4

    def test_sumif_countif(self):
        _, provider = _sheet_provider([[1], [5], [10]])
        evaluator = Evaluator(provider)
        assert evaluator.evaluate('SUMIF(A1:A3, ">=5")') == 15
        assert evaluator.evaluate('COUNTIF(A1:A3, ">=5")') == 2

    def test_vlookup_exact_and_approximate(self):
        rows = [["a", 1], ["b", 2], ["c", 3]]
        _, provider = _sheet_provider(rows)
        evaluator = Evaluator(provider)
        assert evaluator.evaluate('VLOOKUP("b", A1:B3, 2, FALSE)') == 2
        with pytest.raises(FormulaEvaluationError):
            evaluator.evaluate('VLOOKUP("zz", A1:B3, 2, FALSE)')

    def test_vlookup_numeric_approximate(self):
        rows = [[10, "low"], [20, "mid"], [30, "high"]]
        _, provider = _sheet_provider(rows)
        evaluator = Evaluator(provider)
        assert evaluator.evaluate("VLOOKUP(25, A1:B3, 2)") == "mid"

    def test_index_and_match(self):
        rows = [[10, 20, 30]]
        _, provider = _sheet_provider(rows)
        evaluator = Evaluator(provider)
        assert evaluator.evaluate("INDEX(A1:C1, 1, 2)") == 20
        assert evaluator.evaluate("MATCH(30, A1:C1, 0)") == 3

    def test_numeric_functions(self):
        evaluator = Evaluator(lambda r, c: None)
        assert evaluator.evaluate("ROUND(2.675, 2)") == pytest.approx(2.68)
        assert evaluator.evaluate("FLOOR(7.8)") == 7
        assert evaluator.evaluate("CEILING(7.2)") == 8
        assert evaluator.evaluate("ABS(-4)") == 4
        assert evaluator.evaluate("MOD(7, 3)") == 1
        assert evaluator.evaluate("POWER(2, 10)") == 1024
        assert evaluator.evaluate("LN(EXP(1))") == pytest.approx(1.0)
        assert evaluator.evaluate("LOG(100)") == pytest.approx(2.0)

    def test_text_functions(self):
        evaluator = Evaluator(lambda r, c: None)
        assert evaluator.evaluate('CONCATENATE("a", 1, "b")') == "a1b"
        assert evaluator.evaluate('LEN("hello")') == 5
        assert evaluator.evaluate('UPPER("hi")') == "HI"
        assert evaluator.evaluate('LEFT("spread", 3)') == "spr"
        assert evaluator.evaluate('MID("spread", 2, 3)') == "pre"
        assert evaluator.evaluate('SEARCH("rea", "SPREAD")') == 3

    def test_iferror_traps_errors(self):
        evaluator = Evaluator(lambda r, c: 0)
        assert evaluator.evaluate("IFERROR(1/A1, -1)") == -1
        assert evaluator.evaluate("IFERROR(5, -1)") == 5

    def test_logical_functions(self):
        evaluator = Evaluator(lambda r, c: None)
        assert evaluator.evaluate("AND(TRUE, 1, 2>1)") is True
        assert evaluator.evaluate("OR(FALSE, 0)") is False
        assert evaluator.evaluate("NOT(FALSE)") is True

    def test_range_provider_used(self):
        sheet = Sheet.from_rows([[1, 2], [3, 4]])
        calls = []

        def range_provider(region):
            calls.append(region)
            return [value for row in sheet.get_values(region) for value in row]

        evaluator = Evaluator(sheet.get_value, range_provider=range_provider)
        assert evaluator.evaluate("SUM(A1:B2)") == 10
        assert evaluator.evaluate("INDEX(A1:B2, 2, 1)") == 3  # row-major block
        assert len(calls) == 2

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_addition_property(self, a, b):
        evaluator = Evaluator(lambda r, c: None)
        assert evaluator.evaluate(f"{a}+{b}") == a + b


class TestArithmeticDomainErrors:
    """Overflow, zero to a negative power and complex roots are error
    values, never a Python exception or a complex number."""

    @pytest.mark.parametrize("text, code", [
        ("10^400", "#NUM!"),
        ("POWER(10,400)", "#NUM!"),
        ("EXP(1000)", "#NUM!"),
        ("7^7^7^7", "#NUM!"),
        ("0^-1", "#DIV/0!"),
        ("POWER(0,-1)", "#DIV/0!"),
        ("POWER(-8,1/3)", "#NUM!"),
        ("(-8)^0.5", "#NUM!"),
    ])
    def test_evaluator_raises_the_error_value(self, text, code):
        evaluator = Evaluator(lambda r, c: None)
        with pytest.raises(FormulaEvaluationError) as excinfo:
            evaluator.evaluate(text)
        assert excinfo.value.code == code

    def test_valid_powers_are_unchanged(self):
        evaluator = Evaluator(lambda r, c: None)
        assert evaluator.evaluate("(-2)^3") == -8
        assert evaluator.evaluate("(-8)^2") == 64
        assert evaluator.evaluate("0^0") == 1
        assert evaluator.evaluate("POWER(4,0.5)") == 2
        assert evaluator.evaluate("2^-1") == 0.5

    def test_set_formula_stores_the_error_and_the_engine_stays_whole(self):
        from repro.engine.dataspread import DataSpread
        from tests.support import check_engine
        spread = DataSpread()
        spread.set_value(1, 2, 400)
        spread.set_formula(1, 1, "=10^B1")
        spread.set_formula(2, 1, "=(-8)^(1/B1)")
        spread.set_formula(3, 1, "=0^-B1")
        assert [spread.get_value(row, 1) for row in (1, 2, 3)] == ["#NUM!", "#NUM!", "#DIV/0!"]
        check_engine(spread)
        spread.set_value(1, 2, 3)
        assert [spread.get_value(row, 1) for row in (1, 2, 3)] == [1000, "#NUM!", "#DIV/0!"]
        check_engine(spread)


class TestReferenceExtraction:
    def test_extract_cells_and_ranges(self):
        cells, ranges = extract_references("A1 + SUM(B2:C4) * D5")
        assert {c.to_a1() for c in cells} == {"A1", "D5"}
        assert [r.to_a1() for r in ranges] == ["B2:C4"]

    def test_referenced_coordinates_expands_ranges(self):
        coords = referenced_coordinates("SUM(A1:A3)+B1")
        assert coords == {(1, 1), (2, 1), (3, 1), (1, 2)}

    def test_access_footprint(self):
        assert access_footprint("SUM(A1:B5) + C1") == 11


class TestDependencyGraph:
    def test_direct_and_transitive_dependents(self):
        graph = DependencyGraph()
        graph.register(CellAddress.from_a1("B1"), "A1*2")
        graph.register(CellAddress.from_a1("C1"), "B1+1")
        order = graph.dependents_of(CellAddress.from_a1("A1"))
        assert [a.to_a1() for a in order] == ["B1", "C1"]

    def test_range_dependency(self):
        graph = DependencyGraph()
        graph.register(CellAddress.from_a1("D1"), "SUM(A1:A100)")
        assert CellAddress.from_a1("D1") in graph.direct_dependents(CellAddress.from_a1("A50"))
        assert graph.direct_dependents(CellAddress.from_a1("B50")) == set()

    def test_unregister(self):
        graph = DependencyGraph()
        address = CellAddress.from_a1("B1")
        graph.register(address, "A1*2")
        graph.unregister(address)
        assert graph.dependents_of(CellAddress.from_a1("A1")) == []
        assert len(graph) == 0

    def test_reregister_replaces_precedents(self):
        graph = DependencyGraph()
        address = CellAddress.from_a1("B1")
        graph.register(address, "A1*2")
        graph.register(address, "C1*2")
        assert graph.dependents_of(CellAddress.from_a1("A1")) == []
        assert [a.to_a1() for a in graph.dependents_of(CellAddress.from_a1("C1"))] == ["B1"]

    def test_cycle_detection(self):
        graph = DependencyGraph()
        graph.register(CellAddress.from_a1("A1"), "B1+1")
        graph.register(CellAddress.from_a1("B1"), "A1+1")
        with pytest.raises(CircularDependencyError):
            graph.dependents_of(CellAddress.from_a1("A1"))
        assert graph.detect_cycle() is True

    def test_diamond_dependency_order(self):
        graph = DependencyGraph()
        graph.register(CellAddress.from_a1("B1"), "A1+1")
        graph.register(CellAddress.from_a1("B2"), "A1+2")
        graph.register(CellAddress.from_a1("C1"), "B1+B2")
        order = [a.to_a1() for a in graph.dependents_of(CellAddress.from_a1("A1"))]
        assert order.index("C1") > order.index("B1")
        assert order.index("C1") > order.index("B2")


class TestFormulaDepthBound:
    """Input nesting past ``MAX_FORMULA_DEPTH`` is a syntax error raised
    before anything is stored — never a ``RecursionError`` escaping from
    half-way through a write."""

    CHAIN = "=" + "+".join(["B1"] * 3000)
    NESTED = "=" + "(" * 300 + "B1" + ")" * 300
    UNARY = "=" + "-" * 1000 + "B1"

    @pytest.mark.parametrize("text", [CHAIN, NESTED, UNARY],
                             ids=["chain", "nested", "unary"])
    def test_too_deep_replacement_is_refused_and_the_old_formula_lives(self, text):
        from repro.engine.dataspread import DataSpread
        spread = DataSpread()
        spread.set_value(1, 2, 7)
        spread.set_formula(1, 1, "=B1*2")
        with pytest.raises(FormulaSyntaxError):
            spread.set_formula(1, 1, text)
        assert spread.get_cell(1, 1).formula == "B1*2"
        assert spread.get_value(1, 1) == 14
        spread.set_value(1, 2, 100)
        assert spread.get_value(1, 1) == 200  # still registered, still live

    def test_formulas_at_the_bound_still_work(self):
        from repro.engine.dataspread import DataSpread
        spread = DataSpread()
        spread.set_value(1, 2, 1)
        spread.set_formula(1, 1, "=" + "+".join(["B1"] * MAX_FORMULA_DEPTH))
        spread.set_formula(2, 1, "=" + "-" * MAX_FORMULA_DEPTH + "B1")
        spread.set_value(1, 2, 2)
        assert spread.get_value(1, 1) == 2 * MAX_FORMULA_DEPTH
        assert spread.get_value(2, 1) == 2

    def test_import_csv_keeps_too_deep_text_raw(self, tmp_path):
        from repro.engine.dataspread import DataSpread
        path = tmp_path / "deep.csv"
        path.write_text(f"1,{self.CHAIN.replace('B1', 'A1')}\n")
        spread = DataSpread()
        spread.import_csv(path)
        assert spread.get_cell(1, 2).formula is None
        assert spread.get_value(1, 2).startswith("=A1+A1")

    @pytest.mark.parametrize("text", [CHAIN, NESTED, UNARY],
                             ids=["chain", "nested", "unary"])
    def test_every_parse_path_refuses_with_a_syntax_error(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)
        with pytest.raises(FormulaSyntaxError):
            extract_references(text)

    def test_register_refuses_before_unregistering(self):
        graph = DependencyGraph()
        graph.register(CellAddress(1, 1), "B1*2")
        with pytest.raises(FormulaSyntaxError):
            graph.register(CellAddress(1, 1), self.CHAIN)
        assert graph.precedents_of(CellAddress(1, 1))[0] == {CellAddress(1, 2)}
