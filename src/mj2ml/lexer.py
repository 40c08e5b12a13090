"""MiniJava lexer.

Produces a flat token list with 1-based line/column positions.  Line
comments (``//``) and block comments (``/* */``, non-nesting) are
discarded.  Concatenating the lexemes of the output reproduces the
input minus whitespace and comments.

One compiled pattern, `_TOKEN`, is matched at each position in turn; its
named groups are the kinds of text.  Tokens never span lines, so line
and column come from the newlines in the skipped text alone.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .mjast import INT_MAX, Pos

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


@dataclass(frozen=True)
class Token:
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


# The groups are tried in order, so a "/*" that `skip` cannot close is
# `open`; text that no group matches is an error.
_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<open>/\*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")"
    r"|(?P<punct>[" + re.escape(PUNCTUATION) + "])",
    re.DOTALL,
)
_KINDS = {"int": TokenKind.INT, "op": TokenKind.OP, "punct": TokenKind.PUNCT}


class LexError(Exception):
    def __init__(self, pos: Pos, message: str):
        super().__init__(f"{pos}: {message}")
        self.pos = pos
        self.message = message


def tokenize(source: str) -> list[Token]:
    """Split MiniJava source text into tokens.

    Raises LexError (with position) on any character outside the lexical
    grammar (digits and letters are ASCII only), on unterminated block
    comments, and on integer literals beyond the 63-bit signed range.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0
    i, n = 0, len(source)
    while i < n:
        m = _TOKEN.match(source, i)
        col = i - line_start + 1
        if m is None:
            raise LexError(Pos(line, col), f"unexpected character {source[i]!r}")
        kind, text = m.lastgroup, m.group()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = i + text.rindex("\n") + 1
        elif kind == "open":
            raise LexError(Pos(line, col), "unterminated block comment")
        elif kind == "int" and int(text) > INT_MAX:
            raise LexError(Pos(line, col), f"integer literal {text} exceeds the 63-bit range")
        elif kind == "word":
            tokens.append(Token(TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT,
                                text, line, col))
        else:
            tokens.append(Token(_KINDS[kind], text, line, col))
        i = m.end()
    return tokens
