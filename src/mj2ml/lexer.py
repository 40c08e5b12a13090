"""MiniJava lexer.

Produces a flat token list with 1-based line/column positions.  Line
comments (``//``) and block comments (``/* */``, non-nesting) are
discarded.  Concatenating the lexemes of the output reproduces the
input minus whitespace and comments.
"""

from __future__ import annotations

import enum
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
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance()
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance()
            continue
        if source.startswith("/*", i):
            start = Pos(line, col)
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance()
            if i >= n:
                raise LexError(start, "unterminated block comment")
            advance(2)
            continue
        if ch.isascii() and ch.isdigit():
            start_line, start_col = line, col
            j = i
            while j < n and source[j].isascii() and source[j].isdigit():
                j += 1
            lexeme = source[i:j]
            if int(lexeme) > INT_MAX:
                raise LexError(Pos(start_line, start_col),
                               f"integer literal {lexeme} exceeds the 63-bit range")
            tokens.append(Token(TokenKind.INT, lexeme, start_line, start_col))
            advance(j - i)
            continue
        if ch.isascii() and ch.isalpha():
            start_line, start_col = line, col
            j = i
            while j < n and source[j].isascii() and (source[j].isalnum()
                                                     or source[j] == "_"):
                j += 1
            lexeme = source[i:j]
            kind = TokenKind.KEYWORD if lexeme in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, lexeme, start_line, start_col))
            advance(j - i)
            continue
        matched = False
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token(TokenKind.OP, op, line, col))
                advance(len(op))
                matched = True
                break
        if matched:
            continue
        if ch in PUNCTUATION:
            tokens.append(Token(TokenKind.PUNCT, ch, line, col))
            advance()
            continue
        raise LexError(Pos(line, col), f"unexpected character {ch!r}")

    return tokens
