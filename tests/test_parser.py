import hashlib
import string
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mj2ml.lexer import LexError, tokenize
from mj2ml.mjast import (
    ArrayIndexExpr,
    ArrayLengthExpr,
    BinaryExpr,
    CallExpr,
    IdentExpr,
    IntLitExpr,
    NewArrayExpr,
    NotExpr,
    SourceError,
    ThisExpr,
    print_program,
    walk,
)
from mj2ml.parser import ParseError, parse, parse_expression, parse_source
from mj2ml.randgen import generate_program
from mj2ml.sema import typecheck


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


def test_997_nested_parentheses_parse_and_1000_do_not():
    # each parenthesis takes 4 frames (expression, unary, postfix,
    # primary) of the parser's COMPILE_FRAMES: at 3 997 would fail, at 5
    # 1000 would parse.  Where between them the bound falls depends on
    # the interpreter: CPython 3.11 stops at 998, whose recursion limit
    # also counts each entry from C; 3.12 on counts Python frames alone
    # and stops at 999.  The parse runs in a new thread, so calls that
    # the test runner makes through C, which `extra_frames` cannot see,
    # do not count
    results = []

    def parse_nested():
        for n in (997, 1000):
            try:
                parse_source(MINIMAL.replace("42", "(" * n + "42" + ")" * n))
                results.append("ok")
            except ParseError as err:
                results.append(err.message)

    thread = threading.Thread(target=parse_nested)
    thread.start()
    thread.join()
    assert results == ["ok", "expressions or statements nested too deeply"]


@pytest.mark.parametrize("tail", ["(", "(int x, "])
def test_input_ending_in_a_parameter_list_is_a_parse_error(tail):
    with pytest.raises(ParseError) as err:
        parse_source(MINIMAL + "class B { public int f" + tail)
    assert err.value.message == "expected a type, found end of input"
    assert err.value.pos.line == 6


def test_statement_spans_nest_inside_method_span(corpus_files):
    src = next(f for f in corpus_files if f.name == "BubbleSort.java").read_text()
    program = parse_source(src)
    for cls in program.classes:
        for method in cls.methods:
            for stmt in method.body:
                assert method.pos.line <= stmt.pos.line


def test_corpus_round_trips_through_printer(corpus_files):
    for path in corpus_files:
        program = parse_source(path.read_text())
        reprinted = print_program(program)
        assert parse_source(reprinted) == program


# SHA-256 of every token as (kind, lexeme, line, col) and of every node
# as (type, position), preorder, over the corpus and over
# print_program(generate_program(s, 40)) for s in 0..199.
FRONT_END_SHA256 = {
    "corpus tokens":
        "53eac58b8d652c3d07a6dc43691b538829d9423a996cc6ef628ac9066bc5ef88",
    "corpus positions":
        "2a3abf6e2b4e904a5cdb1e09dfae96f4c540223de78339b42432f488bf07acd1",
    "generated tokens":
        "7c5a8a78ee3c40bd9892013c74f74cca294c6ea54d8051e812748862c4a6361c",
    "generated positions":
        "80bf70266824917ae26c6be60ecbaa32cc4d3357f5b39092375dfff3b8e61787",
}


def front_end_digests(sources):
    tokens, positions = hashlib.sha256(), hashlib.sha256()
    for source in sources:
        toks = tokenize(source)
        for t in toks:
            tokens.update(f"{t.kind.name} {t.lexeme!r} {t.line} {t.col}\n".encode())
        for node in walk(parse(toks)):
            pos = getattr(node, "pos", None)
            if pos is not None:
                positions.update(f"{type(node).__name__} {pos}\n".encode())
    return tokens.hexdigest(), positions.hexdigest()


def test_tokens_and_spans_are_pinned(corpus_files):
    digests = {}
    for name, sources in (
            ("corpus", [path.read_text() for path in corpus_files]),
            ("generated", [print_program(generate_program(s, 40)) for s in range(200)])):
        digests[f"{name} tokens"], digests[f"{name} positions"] = front_end_digests(sources)
    assert digests == FRONT_END_SHA256


# SHA-256 of (file, k, error class, error with its position) for each
# corpus file with its token k blanked out, for every third k: 949
# variants give a ParseError, 27 an MjTypeError and 1 none.  The front
# end's diagnostics, the expected/found wording and the positions, are
# the tested behaviour; the full sweep over all 2 921 tokens takes three
# times as long and gives 2 854, 66 and 1.
DIAGNOSTICS_SHA256 = "50fc6d02f766b1a9b13f6992820f150ddf6f2e598f11f7465bfe063c4a38566d"


def blanked(source):
    """Each token's index and the source with that token's text replaced
    by spaces, so every other token keeps its position."""
    starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    for k, t in enumerate(tokenize(source)):
        at = starts[t.line - 1] + t.col - 1
        yield k, source[:at] + " " * len(t.lexeme) + source[at + len(t.lexeme):]


def test_diagnostics_of_blanked_tokens_are_pinned(corpus_files):
    digest, counts = hashlib.sha256(), {}
    for path in corpus_files:
        for k, source in blanked(path.read_text()):
            if k % 3:
                continue
            try:
                typecheck(parse(tokenize(source)))
                err = None
            except SourceError as e:
                err = e
            kind = type(err).__name__ if err else None
            counts[kind] = counts.get(kind, 0) + 1
            digest.update(f"{path.name} {k} {kind} {err}\n".encode())
    assert counts == {"ParseError": 949, "MjTypeError": 27, None: 1}
    assert digest.hexdigest() == DIAGNOSTICS_SHA256


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.ascii_letters + string.digits + "(){}[];.!&<+-*= \n",
               max_size=80))
def test_frontend_raises_only_its_own_errors(source):
    try:
        parse_source(source)
    except (LexError, ParseError):
        pass
