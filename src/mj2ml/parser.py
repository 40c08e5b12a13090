"""Recursive-descent parser for MiniJava.

The grammar follows the classic teaching subset: one main class whose
body is a statement list, then ordinary classes with fields, and methods
of the form ``public T name(formals) { locals statements return e; }``.
``if`` always takes an ``else``.  Operator precedence, tightest first:
postfix (call, index, .length), ``!``, then the binary operators, which
one method parses by precedence climbing over ``mjast.BINARY_LEVEL``
(``*``, ``+``/``-``, ``<``, ``&&``); they associate to the left.

Parenthesised expressions are parsed but not represented; see mjast.
Each level of parentheses takes 4 Python frames (expression, unary,
postfix, primary), so within `outcome.COMPILE_FRAMES` 997 nested
parentheses around a ``println`` argument parse and 998 do not on
CPython 3.11 (999 from 3.12 on; see the README).

The parser is on the path of every command that reads a file, so its
token plumbing is kept cheap: it keeps the token count beside its
index, tests the next token's kind and lexeme in place, steps over a
token it has just tested with ``i += 1``, and builds a statement's or
primary's position, a tuple, with ``tuple.__new__``, skipping the
NamedTuple's Python-level constructor.  Each node records one position,
where it starts (see `mjast`): a binary or postfix node shares its left
operand's.
"""

from __future__ import annotations

from .lexer import Token, TokenKind, tokenize
from .mjast import (
    BINARY_LEVEL,
    BOOL,
    INT,
    INT_ARRAY,
    ArrayAssignStmt,
    ArrayIndexExpr,
    ArrayLengthExpr,
    AssignStmt,
    BinaryExpr,
    BlockStmt,
    BoolLitExpr,
    CallExpr,
    ClassDecl,
    ClassType,
    Expr,
    IdentExpr,
    IfStmt,
    IntLitExpr,
    MainClass,
    MethodDecl,
    MjProgram,
    MjType,
    NewArrayExpr,
    NewObjectExpr,
    NotExpr,
    Pos,
    PrintStmt,
    SourceError,
    Stmt,
    ThisExpr,
    VarDecl,
    WhileStmt,
)
from .outcome import COMPILE_FRAMES, extra_frames


class ParseError(SourceError):
    """Tokens outside the grammar."""


_new = tuple.__new__


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.n = len(tokens)
        self.i = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < self.n else None

    def here(self) -> Pos:
        """Where the next token starts, or where the input ends."""
        if self.i < self.n:
            return self.tokens[self.i].pos
        return self.tokens[-1].end_pos if self.tokens else Pos(1, 1)

    def at(self, kind: TokenKind, lexeme: str | None = None, offset: int = 0) -> bool:
        j = self.i + offset
        if j >= self.n:
            return False
        tok = self.tokens[j]
        return tok.kind is kind and (lexeme is None or tok.lexeme == lexeme)

    def describe(self, tok: Token | None) -> str:
        return "end of input" if tok is None else f"{tok.kind.value} {tok.lexeme!r}"

    def error(self, expected: str) -> ParseError:
        return ParseError(self.here(), f"expected {expected}, found {self.describe(self.peek())}")

    def take(self, kind: TokenKind, lexeme: str | None = None, expected: str | None = None) -> Token:
        i = self.i
        if i < self.n:
            tok = self.tokens[i]
            if tok.kind is kind and (lexeme is None or tok.lexeme == lexeme):
                self.i = i + 1
                return tok
        raise self.error(expected or (repr(lexeme) if lexeme else kind.value))

    def take_ident(self, what: str) -> Token:
        return self.take(TokenKind.IDENT, expected=what)

    def start(self) -> Pos:
        """Take the next token, known to be there; return where it starts."""
        tok = self.tokens[self.i]
        self.i += 1
        return _new(Pos, (tok.line, tok.col))

    # -- productions --------------------------------------------------------

    def program(self) -> MjProgram:
        main = self.main_class()
        classes = []
        while self.i < self.n:
            classes.append(self.class_decl())
        return MjProgram(main, classes)

    def main_class(self) -> MainClass:
        start = self.take(TokenKind.KEYWORD, "class", "'class'").pos
        name = self.take_ident("class name").lexeme
        self.take(TokenKind.PUNCT, "{")
        self.take(TokenKind.KEYWORD, "public", "'public'")
        self.take(TokenKind.KEYWORD, "static", "'static'")
        self.take(TokenKind.KEYWORD, "void", "'void'")
        self.take(TokenKind.KEYWORD, "main", "'main'")
        self.take(TokenKind.PUNCT, "(")
        self.take(TokenKind.KEYWORD, "String", "'String'")
        self.take(TokenKind.PUNCT, "[")
        self.take(TokenKind.PUNCT, "]")
        arg_name = self.take_ident("main argument name").lexeme
        self.take(TokenKind.PUNCT, ")")
        self.take(TokenKind.PUNCT, "{")
        body = []
        while not self.at(TokenKind.PUNCT, "}"):
            body.append(self.statement())
        self.take(TokenKind.PUNCT, "}")
        self.take(TokenKind.PUNCT, "}")
        return MainClass(name, arg_name, body, pos=start)

    def class_decl(self) -> ClassDecl:
        start = self.take(TokenKind.KEYWORD, "class", "'class'").pos
        name = self.take_ident("class name").lexeme
        superclass = None
        if self.at(TokenKind.KEYWORD, "extends"):
            self.i += 1
            superclass = self.take_ident("superclass name").lexeme
        self.take(TokenKind.PUNCT, "{")
        fields = []
        while self.at_var_decl():
            fields.append(self.var_decl())
        methods = []
        while self.at(TokenKind.KEYWORD, "public"):
            methods.append(self.method_decl())
        self.take(TokenKind.PUNCT, "}")
        return ClassDecl(name, superclass, fields, methods, pos=start)

    def at_var_decl(self) -> bool:
        if self.at(TokenKind.KEYWORD, "int") or self.at(TokenKind.KEYWORD, "boolean"):
            return True
        return self.at(TokenKind.IDENT) and self.at(TokenKind.IDENT, offset=1)

    def var_decl(self) -> VarDecl:
        start = self.here()
        var_type = self.type_spec()
        name = self.take_ident("variable name").lexeme
        self.take(TokenKind.PUNCT, ";")
        return VarDecl(name, var_type, pos=start)

    def type_spec(self) -> MjType:
        if self.at(TokenKind.KEYWORD, "int"):
            self.i += 1
            if self.at(TokenKind.PUNCT, "["):
                self.i += 1
                self.take(TokenKind.PUNCT, "]")
                return INT_ARRAY
            return INT
        if self.at(TokenKind.KEYWORD, "boolean"):
            self.i += 1
            return BOOL
        if self.at(TokenKind.IDENT):
            return ClassType(self.take(TokenKind.IDENT).lexeme)
        raise self.error("a type")

    def method_decl(self) -> MethodDecl:
        start = self.take(TokenKind.KEYWORD, "public", "'public'").pos
        return_type = self.type_spec()
        name = self.take_ident("method name").lexeme
        self.take(TokenKind.PUNCT, "(")
        formals = []
        if not self.at(TokenKind.PUNCT, ")"):
            while True:
                fstart = self.here()
                ftype = self.type_spec()
                fname = self.take_ident("parameter name").lexeme
                formals.append(VarDecl(fname, ftype, pos=fstart))
                if not self.at(TokenKind.PUNCT, ","):
                    break
                self.i += 1
        self.take(TokenKind.PUNCT, ")")
        self.take(TokenKind.PUNCT, "{")
        local_vars = []
        while self.at_var_decl():
            local_vars.append(self.var_decl())
        body = []
        while not self.at(TokenKind.KEYWORD, "return"):
            if self.i >= self.n or self.at(TokenKind.PUNCT, "}"):
                raise self.error("a statement or 'return'")
            body.append(self.statement())
        self.i += 1
        return_expr = self.expression()
        self.take(TokenKind.PUNCT, ";")
        self.take(TokenKind.PUNCT, "}")
        return MethodDecl(name, return_type, formals, local_vars, body, return_expr, pos=start)

    def statement(self) -> Stmt:
        if self.i >= self.n:
            raise self.error("a statement")
        tok = self.tokens[self.i]
        kind, lexeme = tok.kind, tok.lexeme
        if kind is TokenKind.IDENT:
            start = self.start()
            if self.at(TokenKind.OP, "="):
                self.i += 1
                value = self.expression()
                self.take(TokenKind.PUNCT, ";")
                return AssignStmt(lexeme, value, pos=start)
            if self.at(TokenKind.PUNCT, "["):
                self.i += 1
                index = self.expression()
                self.take(TokenKind.PUNCT, "]")
                self.take(TokenKind.OP, "=", expected="'='")
                value = self.expression()
                self.take(TokenKind.PUNCT, ";")
                return ArrayAssignStmt(lexeme, index, value, pos=start)
            raise self.error("'=' or '[' after identifier")
        if kind is TokenKind.PUNCT and lexeme == "{":
            start = self.start()
            body = []
            while not self.at(TokenKind.PUNCT, "}"):
                body.append(self.statement())
            self.i += 1
            return BlockStmt(body, pos=start)
        if kind is TokenKind.KEYWORD:
            if lexeme == "if":
                start = self.start()
                self.take(TokenKind.PUNCT, "(")
                cond = self.expression()
                self.take(TokenKind.PUNCT, ")")
                then_branch = self.statement()
                self.take(TokenKind.KEYWORD, "else", expected="'else'")
                else_branch = self.statement()
                return IfStmt(cond, then_branch, else_branch, pos=start)
            if lexeme == "while":
                start = self.start()
                self.take(TokenKind.PUNCT, "(")
                cond = self.expression()
                self.take(TokenKind.PUNCT, ")")
                body = self.statement()
                return WhileStmt(cond, body, pos=start)
            if lexeme == "System":
                start = self.start()
                self.take(TokenKind.PUNCT, ".")
                self.take(TokenKind.KEYWORD, "out", "'out'")
                self.take(TokenKind.PUNCT, ".")
                self.take(TokenKind.KEYWORD, "println", "'println'")
                self.take(TokenKind.PUNCT, "(")
                value = self.expression()
                self.take(TokenKind.PUNCT, ")")
                self.take(TokenKind.PUNCT, ";")
                return PrintStmt(value, pos=start)
        raise self.error("a statement")

    # -- expressions, precedence climbing ------------------------------------

    def expression(self, min_level: int = 1) -> Expr:
        """An expression whose binary operators bind at `min_level` or
        tighter: each operand is a unary expression, and an operator's
        right operand takes only operators tighter than its own, so
        equal levels associate to the left."""
        left = self.unary_expr()
        tokens, n = self.tokens, self.n
        while self.i < n:
            tok = tokens[self.i]
            level = BINARY_LEVEL.get(tok.lexeme, 0) if tok.kind is TokenKind.OP else 0
            if level < min_level:
                break
            self.i += 1
            right = self.expression(level + 1)
            left = BinaryExpr(tok.lexeme, left, right, pos=left.pos)
        return left

    def unary_expr(self) -> Expr:
        i = self.i
        if i < self.n and self.tokens[i].lexeme == "!" and self.tokens[i].kind is TokenKind.OP:
            start = self.start()
            operand = self.unary_expr()
            return NotExpr(operand, pos=start)
        return self.postfix_expr()

    def postfix_expr(self) -> Expr:
        expr = self.primary_expr()
        tokens, n = self.tokens, self.n
        while self.i < n:
            tok = tokens[self.i]
            if tok.kind is not TokenKind.PUNCT:
                break
            if tok.lexeme == "[":
                self.i += 1
                index = self.expression()
                self.take(TokenKind.PUNCT, "]")
                expr = ArrayIndexExpr(expr, index, pos=expr.pos)
            elif tok.lexeme == ".":
                self.i += 1
                if self.at(TokenKind.KEYWORD, "length"):
                    self.i += 1
                    expr = ArrayLengthExpr(expr, pos=expr.pos)
                    continue
                method = self.take_ident("method name after '.'").lexeme
                self.take(TokenKind.PUNCT, "(")
                args = []
                if not self.at(TokenKind.PUNCT, ")"):
                    while True:
                        args.append(self.expression())
                        if not self.at(TokenKind.PUNCT, ","):
                            break
                        self.i += 1
                self.take(TokenKind.PUNCT, ")")
                expr = CallExpr(expr, method, args, pos=expr.pos)
            else:
                break
        return expr

    def primary_expr(self) -> Expr:
        if self.i >= self.n:
            raise self.error("an expression")
        tok = self.tokens[self.i]
        kind, lexeme = tok.kind, tok.lexeme
        if kind is TokenKind.IDENT:
            return IdentExpr(lexeme, pos=self.start())
        if kind is TokenKind.INT:
            return IntLitExpr(int(lexeme), pos=self.start())
        if kind is TokenKind.KEYWORD:
            if lexeme == "this":
                return ThisExpr(pos=self.start())
            if lexeme == "true" or lexeme == "false":
                return BoolLitExpr(lexeme == "true", pos=self.start())
            if lexeme == "new":
                start = self.start()
                if self.at(TokenKind.KEYWORD, "int"):
                    self.i += 1
                    self.take(TokenKind.PUNCT, "[")
                    length = self.expression()
                    self.take(TokenKind.PUNCT, "]")
                    return NewArrayExpr(length, pos=start)
                name = self.take_ident("class name after 'new'").lexeme
                self.take(TokenKind.PUNCT, "(")
                self.take(TokenKind.PUNCT, ")")
                return NewObjectExpr(name, pos=start)
        elif kind is TokenKind.PUNCT and lexeme == "(":
            self.i += 1
            inner = self.expression()
            self.take(TokenKind.PUNCT, ")")
            return inner
        raise self.error("an expression")


def parse(tokens: list[Token]) -> MjProgram:
    """Parse a token list into a program; ParseError carries position,
    also for input nested past `COMPILE_FRAMES` Python frames."""
    parser = _Parser(tokens)
    try:
        with extra_frames(COMPILE_FRAMES):
            return parser.program()
    except RecursionError:
        raise ParseError(parser.here(), "expressions or statements nested too deeply") from None


def parse_source(source: str) -> MjProgram:
    """Convenience: tokenize then parse."""
    return parse(tokenize(source))


def parse_expression(source: str) -> Expr:
    """Parse a standalone expression (used by tests)."""
    parser = _Parser(tokenize(source))
    expr = parser.expression()
    if parser.peek() is not None:
        raise parser.error("end of expression")
    return expr
