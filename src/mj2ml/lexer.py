"""MiniJava lexer.

Produces a flat token list with 1-based line/column positions.  Line
comments (``//``) and block comments (``/* */``, non-nesting) are
discarded.  Concatenating the lexemes of the output reproduces the
input minus whitespace and comments.

One compiled pattern, `_TOKEN`, splits the whole source in one
``findall`` of two groups: a possessive run of whitespace and comments,
then the token's text.  No match object is built: a token's offset is
the last one's end plus the length of the skipped run.  Tokens never
span lines, so line and column come from the newlines in the skipped
run alone.  At the first error, the token group takes the rest of the
input, so each source is scanned once, malformed or not.

A token's kind comes from its text alone.  One table, built from
`KEYWORDS`, `OPERATORS` and `PUNCTUATION`, gives the kind of every
lexeme that has a fixed one.  Any other lexeme is an integer literal if
it starts with an ASCII digit, an identifier if it starts with an ASCII
letter, and the error otherwise (``٣`` and ``é`` among them).  A `Token`
is a NamedTuple, built with ``tuple.__new__``.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from .mjast import INT_MAX, Pos, SourceError

KEYWORDS = frozenset({
    "class", "public", "static", "void", "main", "String", "extends",
    "return", "int", "boolean", "if", "else", "while", "true", "false",
    "this", "new", "length", "System", "out", "println",
})
OPERATORS = ("&&", "<", "+", "-", "*", "!", "=")
PUNCTUATION = "()[]{};,."


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    INT = "integer-literal"
    OP = "operator"
    PUNCT = "punctuation"


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    line: int
    col: int

    @property
    def pos(self) -> Pos:
        return Pos(self.line, self.col)

    @property
    def end_pos(self) -> Pos:
        # Tokens never span lines.
        return Pos(self.line, self.col + len(self.lexeme))


# The kind of each lexeme that has a fixed one.  Any other lexeme is an
# integer literal, an identifier or the error, by its first character.
_KIND = {**dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
         **dict.fromkeys(OPERATORS, TokenKind.OP),
         **dict.fromkeys(PUNCTUATION, TokenKind.PUNCT)}

# Whitespace and comments, then a token.  The skip is possessive and the
# token optional, so the pattern matches at every position and never
# gives back a comment's text to make a token ("//a" holds no "a").  The
# first match without a token ends at the end of the input or at an
# error: a "/*" the skip could not close, or a character no token starts
# with, where `.+` takes the rest of the input so nothing past it is lexed.
_TOKEN = re.compile(r"((?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*+)"
                    r"([A-Za-z][A-Za-z0-9_]*|[0-9]+|&&|[-<+*!=()\[\]{};,.]|.+)?", re.DOTALL)
_new = tuple.__new__


class LexError(SourceError):
    """Text outside the lexical grammar."""


def tokenize(source: str) -> list[Token]:
    """Split MiniJava source text into tokens.

    Raises LexError (with position) on any character outside the lexical
    grammar (digits and letters are ASCII only), on unterminated block
    comments, and on integer literals beyond the 63-bit signed range.
    """
    tokens: list[Token] = []
    append, kinds = tokens.append, _KIND
    line, line_start, offset = 1, 0, 0
    for skipped, text in _TOKEN.findall(source):
        start = offset + len(skipped)
        if "\n" in skipped:
            line += skipped.count("\n")
            line_start = offset + skipped.rindex("\n") + 1
        kind = kinds.get(text)
        if kind is None:
            first = text[:1]
            if "a" <= first <= "z" or "A" <= first <= "Z":
                kind = TokenKind.IDENT
            elif "0" <= first <= "9":
                kind = TokenKind.INT
                if int(text) > INT_MAX:
                    raise LexError(Pos(line, start - line_start + 1),
                                   f"integer literal {text} exceeds the 63-bit range")
            else:
                break
        append(_new(Token, (kind, text, line, start - line_start + 1)))
        offset = start + len(text)
    if start < len(source):
        pos = Pos(line, start - line_start + 1)
        if source.startswith("/*", start):
            raise LexError(pos, "unterminated block comment")
        raise LexError(pos, f"unexpected character {source[start]!r}")
    return tokens
