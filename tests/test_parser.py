import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mj2ml.lexer import LexError
from mj2ml.mjast import (
    ArrayIndexExpr,
    ArrayLengthExpr,
    BinaryExpr,
    CallExpr,
    IdentExpr,
    IntLitExpr,
    NewArrayExpr,
    NotExpr,
    ThisExpr,
    print_program,
)
from mj2ml.parser import ParseError, parse_expression, parse_source


def test_times_binds_tighter_than_plus():
    e = parse_expression("1 + 2 * 3")
    assert e == BinaryExpr("+", IntLitExpr(1), BinaryExpr("*", IntLitExpr(2), IntLitExpr(3)))


def test_less_binds_tighter_than_and():
    e = parse_expression("a < b && c < d")
    assert isinstance(e, BinaryExpr) and e.op == "&&"
    assert isinstance(e.left, BinaryExpr) and e.left.op == "<"
    assert isinstance(e.right, BinaryExpr) and e.right.op == "<"


def test_not_binds_tighter_than_and():
    e = parse_expression("!a && b")
    assert e == BinaryExpr("&&", NotExpr(IdentExpr("a")), IdentExpr("b"))


def test_binary_operators_associate_left():
    e = parse_expression("a - b - c")
    assert e == BinaryExpr(
        "-", BinaryExpr("-", IdentExpr("a"), IdentExpr("b")), IdentExpr("c"))


def test_parens_override_precedence_and_are_dropped():
    assert parse_expression("(1 + 2) * 3") == BinaryExpr(
        "*", BinaryExpr("+", IntLitExpr(1), IntLitExpr(2)), IntLitExpr(3))


def test_postfix_chain():
    e = parse_expression("this.row(i)[j].length")
    assert isinstance(e, ArrayLengthExpr)
    assert isinstance(e.array, ArrayIndexExpr)
    assert e.array.array == CallExpr(ThisExpr(), "row", [IdentExpr("i")])
    assert e.array.index == IdentExpr("j")


def test_new_array_length_expression():
    e = parse_expression("new int[n + 1]")
    assert e == NewArrayExpr(BinaryExpr("+", IdentExpr("n"), IntLitExpr(1)))


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expression("1 + 2 junk")


MINIMAL = """\
class Main {
    public static void main(String[] a) {
        System.out.println(42);
    }
}
"""


def test_minimal_program_parses():
    program = parse_source(MINIMAL)
    assert program.main.name == "Main"
    assert program.classes == []


def test_if_requires_else():
    src = MINIMAL.replace("System.out.println(42);",
                          "if (true) System.out.println(1);")
    with pytest.raises(ParseError) as err:
        parse_source(src)
    assert "else" in err.value.message


def test_method_requires_trailing_return():
    src = MINIMAL + """
class W {
    public int run() {
        x = 1;
    }
}
"""
    with pytest.raises(ParseError) as err:
        parse_source(src)
    assert "return" in err.value.message


def test_wrong_main_header_rejected():
    with pytest.raises(ParseError):
        parse_source(MINIMAL.replace("public static void", "static public void"))


def test_error_mentions_expected_and_found():
    with pytest.raises(ParseError) as err:
        parse_source(MINIMAL.replace("42", "42 42"))
    assert "expected" in err.value.message and "found" in err.value.message


def test_too_deep_nesting_is_a_parse_error_where_the_parser_gave_up():
    src = MINIMAL.replace("42", "(" * 2000 + "42" + ")" * 2000)
    with pytest.raises(ParseError) as err:
        parse_source(src)
    assert "nested too deeply" in err.value.message
    # at one of the parentheses: the parser gave up before reaching 42
    open_col = MINIMAL.splitlines()[2].index("42") + 1
    assert err.value.pos.line == 3
    assert open_col <= err.value.pos.col < open_col + 2000


def test_statement_spans_nest_inside_method_span(corpus_files):
    src = next(f for f in corpus_files if f.name == "BubbleSort.java").read_text()
    program = parse_source(src)
    for cls in program.classes:
        for method in cls.methods:
            for stmt in method.body:
                assert method.span.start.line <= stmt.span.start.line
                assert stmt.span.end.line <= method.span.end.line


def test_corpus_round_trips_through_printer(corpus_files):
    for path in corpus_files:
        program = parse_source(path.read_text())
        reprinted = print_program(program)
        assert parse_source(reprinted) == program


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.ascii_letters + string.digits + "(){}[];.!&<+-*= \n",
               max_size=80))
def test_frontend_raises_only_its_own_errors(source):
    try:
        parse_source(source)
    except (LexError, ParseError):
        pass
