import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mj2ml.lexer import KEYWORDS, OPERATORS, PUNCTUATION, LexError, TokenKind, tokenize
from mj2ml.mjast import INT_MAX


def kinds(source):
    return [(t.kind, t.lexeme) for t in tokenize(source)]


def test_simple_statement_token_stream():
    assert kinds("x = 1 + y2;") == [
        (TokenKind.IDENT, "x"),
        (TokenKind.OP, "="),
        (TokenKind.INT, "1"),
        (TokenKind.OP, "+"),
        (TokenKind.IDENT, "y2"),
        (TokenKind.PUNCT, ";"),
    ]


def test_keywords_are_not_identifiers():
    toks = tokenize("class classy if iffy")
    assert [t.kind for t in toks] == [
        TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.IDENT]


def test_length_and_main_are_keywords():
    toks = tokenize("length main String")
    assert all(t.kind == TokenKind.KEYWORD for t in toks)


def test_positions_are_one_based():
    toks = tokenize("ab\n  cd")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_line_comment_skipped():
    assert kinds("1 // two three\n2") == [(TokenKind.INT, "1"), (TokenKind.INT, "2")]


def test_block_comment_skipped_across_lines():
    assert kinds("1 /* a\nb */ 2") == [(TokenKind.INT, "1"), (TokenKind.INT, "2")]


def test_positions_after_a_multiline_comment_a_tab_and_a_carriage_return():
    # a tab and a '\r' take one column each; only '\n' starts a line
    toks = tokenize("a /* x\ny\n z */ b\n\tc\r d")
    assert [(t.lexeme, t.line, t.col) for t in toks] == [
        ("a", 1, 1), ("b", 3, 7), ("c", 4, 2), ("d", 4, 5)]


def test_unterminated_block_comment_rejected():
    with pytest.raises(LexError) as err:
        tokenize("1 /* never closed")
    assert "comment" in err.value.message


def test_unterminated_block_comment_is_reported_at_its_opening():
    with pytest.raises(LexError) as err:
        tokenize("x\n  y /* never\n closed")
    assert (err.value.pos.line, err.value.pos.col) == (2, 5)
    assert err.value.message == "unterminated block comment"


def test_two_char_operator_and():
    assert kinds("a && b")[1] == (TokenKind.OP, "&&")


def test_single_ampersand_rejected():
    with pytest.raises(LexError):
        tokenize("a & b")


def test_double_equals_is_two_tokens():
    assert kinds("a == b")[1:3] == [(TokenKind.OP, "="), (TokenKind.OP, "=")]


def test_largest_literal_accepted():
    toks = tokenize(str(INT_MAX))
    assert toks[0].lexeme == str(INT_MAX)


def test_literal_past_the_63_bit_range_rejected():
    with pytest.raises(LexError) as err:
        tokenize(str(INT_MAX + 1))
    assert err.value.pos.line == 1


def test_unexpected_character_position():
    with pytest.raises(LexError) as err:
        tokenize("x = 1;\n  #")
    assert (err.value.pos.line, err.value.pos.col) == (2, 3)


def test_non_ascii_digit_rejected():
    # '²' passes str.isdigit() but is no MiniJava digit (int() rejects it too)
    with pytest.raises(LexError) as err:
        tokenize("System.out.println(²);")
    assert (err.value.pos.col, err.value.message) == (20, "unexpected character '²'")
    with pytest.raises(LexError):
        tokenize("x = 1٣;")  # ARABIC-INDIC DIGIT THREE


def test_non_ascii_letter_rejected():
    # SML identifiers are ASCII, so 'é' must not reach the translation
    for source, col in (("é = 0;", 1), ("aé = 0;", 2)):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert (err.value.pos.col, err.value.message) == (col, "unexpected character 'é'")


@pytest.mark.parametrize("source, expected", [
    ("/**/", []),
    ("//a\n", []),
    ("//a/\n", []),
    ("x /**/ y", [("x", 1, 1), ("y", 1, 8)]),
    ("a/**//**/b", [("a", 1, 1), ("b", 1, 10)]),
    ("/*/ x */y", [("y", 1, 9)]),
])
def test_a_comment_is_skipped_whole(source, expected):
    # a comment is never taken back in part to make a token of its text
    assert [(t.lexeme, t.line, t.col) for t in tokenize(source)] == expected


@pytest.mark.parametrize("source, diagnostic", [
    ("/* a */ /* b", "1:9: unterminated block comment"),
    ("/**/#", "1:5: unexpected character '#'"),
])
def test_an_error_after_a_comment_is_reported_where_it_starts(source, diagnostic):
    with pytest.raises(LexError) as err:
        tokenize(source)
    assert str(err.value) == diagnostic


def diagnostic(source):
    with pytest.raises(LexError) as err:
        tokenize(source)
    return str(err.value)


def test_the_first_bad_character_is_reported_however_much_follows():
    # the tokens, errors and comments after the first bad character
    # are never lexed: not a second bad character, a literal past the
    # range or an unclosed comment
    assert diagnostic("x = 1;\n# y = 2; @ z") == "2:1: unexpected character '#'"
    assert diagnostic("a $ " + str(INT_MAX + 1)) == "1:3: unexpected character '$'"
    assert diagnostic("a\n  b # /* never closed") == "2:5: unexpected character '#'"


def test_an_unclosed_comment_before_many_more_is_found_in_one_scan():
    # each later "/*" would scan to the end for a "*/" if the lexer went
    # on past the first: about 10^9 steps here, against 10^5 for one scan
    source = "/* " * 50_000
    start = time.perf_counter()
    assert diagnostic(source) == "1:1: unterminated block comment"
    assert diagnostic("x = 1; " + source) == "1:8: unterminated block comment"
    assert time.perf_counter() - start < 1.0


def test_an_error_at_the_first_character_is_at_line_1_column_1():
    assert diagnostic("#x") == "1:1: unexpected character '#'"
    assert diagnostic("/* never closed") == "1:1: unterminated block comment"
    assert diagnostic(str(INT_MAX + 1)) == (
        f"1:1: integer literal {INT_MAX + 1} exceeds the 63-bit range")


def test_an_error_after_crlfs_tabs_and_a_multiline_comment():
    # '\r' and '\t' take one column each, and the comment's own newlines count
    source = "\r\n\r\n\t\t/* a\r\n b */\t$ x"
    assert diagnostic(source) == "4:7: unexpected character '$'"
    assert diagnostic("x\r\n\t/*\n\n*/\t\t" + str(INT_MAX + 1)) == (
        f"4:5: integer literal {INT_MAX + 1} exceeds the 63-bit range")


@pytest.mark.parametrize("source", [
    "", " ", "\n", " \t\r\n\r\n ", "// only a comment", "/* only\n a comment */",
    "//a\n/**/ \t/* b */\n// c",
])
def test_a_source_without_tokens_lexes_to_nothing(source):
    assert tokenize(source) == []


def test_a_literal_at_the_very_end_of_the_input():
    toks = tokenize("x = " + str(INT_MAX))
    assert (toks[-1].kind, toks[-1].lexeme, toks[-1].line, toks[-1].col) == (
        TokenKind.INT, str(INT_MAX), 1, 5)
    assert diagnostic("x = " + str(INT_MAX + 1)) == (
        f"1:5: integer literal {INT_MAX + 1} exceeds the 63-bit range")


LEXEMES = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
        lambda word: word not in KEYWORDS),
    st.integers(0, INT_MAX).map(str),
    st.sampled_from(OPERATORS),
    st.sampled_from(PUNCTUATION),
)
COMMENT_TEXT = st.text(alphabet="ab */\t\r\n", max_size=12)
SEPARATORS = st.lists(
    st.one_of(
        st.sampled_from([" ", "\t", "\r", "\n"]),
        COMMENT_TEXT.map(lambda text: "//" + text.replace("\n", "") + "\n"),
        COMMENT_TEXT.filter(lambda text: "*/" not in text).map(
            lambda text: "/*" + text + "*/"),
    ),
    min_size=1, max_size=3,
).map("".join)


def advance(line, col, text):
    for ch in text:
        line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
    return line, col


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(SEPARATORS, LEXEMES), max_size=12), SEPARATORS)
def test_separated_lexemes_lex_back_with_their_positions(pieces, tail):
    # whitespace and comments between tokens leave the lexemes as they
    # were and put each token where it starts in the text
    source, expected = "", []
    line, col = 1, 1
    for separator, lexeme in pieces:
        line, col = advance(line, col, separator)
        expected.append((lexeme, line, col))
        line, col = advance(line, col, lexeme)
        source += separator + lexeme
    source += tail
    assert [(t.lexeme, t.line, t.col) for t in tokenize(source)] == expected
