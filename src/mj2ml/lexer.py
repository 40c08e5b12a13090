"""MiniJava lexer.

Produces a flat token list with 1-based line/column positions.  Line
comments (``//``) and block comments (``/* */``, non-nesting) are
discarded.  Concatenating the lexemes of the output reproduces the
input minus whitespace and comments.

One compiled pattern, `_TOKEN`, splits the whole source in one
``findall``: each match, starting where the last one ended, is a
possessive run of whitespace and comments, then the token, in the group
of its kind.  The lexer reads those groups' strings and builds no match
object: a token's offset is the last one's end plus the length of the
skipped run.  Tokens never span lines, so line and column come from the
newlines in the skipped run alone.  At the first error, a last group
takes the rest of the input, so the ``findall`` lexes nothing past it and
each source is scanned once, malformed or not.  A `Token` is a
NamedTuple, built with ``tuple.__new__`` rather than its Python-level
constructor.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from .mjast import INT_MAX, Pos, SourceError

KEYWORDS = frozenset(
    {
        "class", "public", "static", "void", "main", "String", "extends",
        "return", "int", "boolean", "if", "else", "while", "true", "false",
        "this", "new", "length", "System", "out", "println",
    }
)

# Longest match first so "&&" wins over a bare "&" (which is an error).
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


# Whitespace and comments, group `skip`, open every match.  The skip is
# possessive and the token after it optional, so the pattern matches at
# every position and never backtracks into the skip: a comment once
# matched is never given back, and no part of its text comes out as a
# token ("//a" holds no "a", "/**/" no "/*").  Each match starts where
# the last one ended; the first match without a token ends at the end of
# the input or at an error: a "/*" the skip could not close, or a
# character no token starts with.  At an error, group `rest` takes the
# whole rest of the input, so `findall` lexes nothing past it: each
# later "/*" would otherwise scan to the end for a "*/".  `findall`
# gives each match as the strings of its groups (skip, int, word, op,
# punct, rest), "" for a group that did not take part.
_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*+)"
    r"(?:(?P<int>[0-9]+)"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")"
    r"|(?P<punct>[" + re.escape(PUNCTUATION) + "])"
    r"|(?P<rest>.+))?",
    re.DOTALL,
)
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
    append = tokens.append
    line, line_start, offset = 1, 0, 0
    for skipped, num, word, op, punct, _ in _TOKEN.findall(source):
        start = offset + len(skipped)
        if "\n" in skipped:
            line += skipped.count("\n")
            line_start = offset + skipped.rindex("\n") + 1
        if word:
            text, kind = word, (TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT)
        elif num:
            text, kind = num, TokenKind.INT
            if int(num) > INT_MAX:
                raise LexError(Pos(line, start - line_start + 1),
                               f"integer literal {num} exceeds the 63-bit range")
        elif op:
            text, kind = op, TokenKind.OP
        elif punct:
            text, kind = punct, TokenKind.PUNCT
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
