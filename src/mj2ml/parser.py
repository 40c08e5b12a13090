"""Recursive-descent parser for MiniJava.

The grammar follows the classic teaching subset: one main class whose
body is a statement list, then ordinary classes with fields, and methods
of the form ``public T name(formals) { locals statements return e; }``.
``if`` always takes an ``else``.  Operator precedence, tightest first:
postfix (call, index, .length), ``!``, then the binary operators, which
one method parses by precedence climbing over ``mjast.BINARY_LEVEL``
(``*``, ``+``/``-``, ``<``, ``&&``); they associate to the left.

Parenthesised expressions are parsed but not represented; see mjast.
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
    Span,
    Stmt,
    ThisExpr,
    VarDecl,
    WhileStmt,
)
from .outcome import COMPILE_FRAMES, extra_frames


class ParseError(Exception):
    def __init__(self, pos: Pos, message: str):
        super().__init__(f"{pos}: {message}")
        self.pos = pos
        self.message = message


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    # -- token plumbing -----------------------------------------------------

    def _eof_pos(self) -> Pos:
        if self.tokens:
            return self.tokens[-1].end_pos
        return Pos(1, 1)

    def peek(self, offset: int = 0) -> Token | None:
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else None

    def at(self, kind: TokenKind, lexeme: str | None = None, offset: int = 0) -> bool:
        tok = self.peek(offset)
        if tok is None or tok.kind is not kind:
            return False
        return lexeme is None or tok.lexeme == lexeme

    def describe(self, tok: Token | None) -> str:
        return "end of input" if tok is None else f"{tok.kind.value} {tok.lexeme!r}"

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        pos = tok.pos if tok else self._eof_pos()
        return ParseError(pos, f"expected {expected}, found {self.describe(tok)}")

    def take(self, kind: TokenKind, lexeme: str | None = None, expected: str | None = None) -> Token:
        if not self.at(kind, lexeme):
            raise self.error(expected or (repr(lexeme) if lexeme else kind.value))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def prev_end(self) -> Pos:
        return self.tokens[self.i - 1].end_pos if self.i > 0 else Pos(1, 1)

    def take_ident(self, what: str) -> Token:
        return self.take(TokenKind.IDENT, expected=what)

    # -- productions --------------------------------------------------------

    def program(self) -> MjProgram:
        main = self.main_class()
        classes = []
        while self.peek() is not None:
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
        return MainClass(name, arg_name, body, span=Span(start, self.prev_end()))

    def class_decl(self) -> ClassDecl:
        start = self.take(TokenKind.KEYWORD, "class", "'class'").pos
        name = self.take_ident("class name").lexeme
        superclass = None
        if self.at(TokenKind.KEYWORD, "extends"):
            self.take(TokenKind.KEYWORD, "extends")
            superclass = self.take_ident("superclass name").lexeme
        self.take(TokenKind.PUNCT, "{")
        fields = []
        while self.at_var_decl():
            fields.append(self.var_decl())
        methods = []
        while self.at(TokenKind.KEYWORD, "public"):
            methods.append(self.method_decl())
        self.take(TokenKind.PUNCT, "}")
        return ClassDecl(name, superclass, fields, methods, span=Span(start, self.prev_end()))

    def at_var_decl(self) -> bool:
        if self.at(TokenKind.KEYWORD, "int") or self.at(TokenKind.KEYWORD, "boolean"):
            return True
        return self.at(TokenKind.IDENT) and self.at(TokenKind.IDENT, offset=1)

    def var_decl(self) -> VarDecl:
        start = self.peek().pos
        var_type = self.type_spec()
        name = self.take_ident("variable name").lexeme
        self.take(TokenKind.PUNCT, ";")
        return VarDecl(name, var_type, span=Span(start, self.prev_end()))

    def type_spec(self) -> MjType:
        if self.at(TokenKind.KEYWORD, "int"):
            self.take(TokenKind.KEYWORD, "int")
            if self.at(TokenKind.PUNCT, "["):
                self.take(TokenKind.PUNCT, "[")
                self.take(TokenKind.PUNCT, "]")
                return INT_ARRAY
            return INT
        if self.at(TokenKind.KEYWORD, "boolean"):
            self.take(TokenKind.KEYWORD, "boolean")
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
                fstart = self.peek().pos
                ftype = self.type_spec()
                fname = self.take_ident("parameter name").lexeme
                formals.append(VarDecl(fname, ftype, span=Span(fstart, self.prev_end())))
                if not self.at(TokenKind.PUNCT, ","):
                    break
                self.take(TokenKind.PUNCT, ",")
        self.take(TokenKind.PUNCT, ")")
        self.take(TokenKind.PUNCT, "{")
        local_vars = []
        while self.at_var_decl():
            local_vars.append(self.var_decl())
        body = []
        while not self.at(TokenKind.KEYWORD, "return"):
            if self.peek() is None or self.at(TokenKind.PUNCT, "}"):
                raise self.error("a statement or 'return'")
            body.append(self.statement())
        self.take(TokenKind.KEYWORD, "return")
        return_expr = self.expression()
        self.take(TokenKind.PUNCT, ";")
        self.take(TokenKind.PUNCT, "}")
        return MethodDecl(name, return_type, formals, local_vars, body, return_expr,
                          span=Span(start, self.prev_end()))

    def statement(self) -> Stmt:
        tok = self.peek()
        if tok is None:
            raise self.error("a statement")
        if self.at(TokenKind.PUNCT, "{"):
            start = self.take(TokenKind.PUNCT, "{").pos
            body = []
            while not self.at(TokenKind.PUNCT, "}"):
                body.append(self.statement())
            self.take(TokenKind.PUNCT, "}")
            return BlockStmt(body, span=Span(start, self.prev_end()))
        if self.at(TokenKind.KEYWORD, "if"):
            start = self.take(TokenKind.KEYWORD, "if").pos
            self.take(TokenKind.PUNCT, "(")
            cond = self.expression()
            self.take(TokenKind.PUNCT, ")")
            then_branch = self.statement()
            self.take(TokenKind.KEYWORD, "else", expected="'else'")
            else_branch = self.statement()
            return IfStmt(cond, then_branch, else_branch, span=Span(start, self.prev_end()))
        if self.at(TokenKind.KEYWORD, "while"):
            start = self.take(TokenKind.KEYWORD, "while").pos
            self.take(TokenKind.PUNCT, "(")
            cond = self.expression()
            self.take(TokenKind.PUNCT, ")")
            body = self.statement()
            return WhileStmt(cond, body, span=Span(start, self.prev_end()))
        if self.at(TokenKind.KEYWORD, "System"):
            start = self.take(TokenKind.KEYWORD, "System").pos
            self.take(TokenKind.PUNCT, ".")
            self.take(TokenKind.KEYWORD, "out", "'out'")
            self.take(TokenKind.PUNCT, ".")
            self.take(TokenKind.KEYWORD, "println", "'println'")
            self.take(TokenKind.PUNCT, "(")
            value = self.expression()
            self.take(TokenKind.PUNCT, ")")
            self.take(TokenKind.PUNCT, ";")
            return PrintStmt(value, span=Span(start, self.prev_end()))
        if self.at(TokenKind.IDENT):
            name_tok = self.take(TokenKind.IDENT)
            if self.at(TokenKind.OP, "="):
                self.take(TokenKind.OP, "=")
                value = self.expression()
                self.take(TokenKind.PUNCT, ";")
                return AssignStmt(name_tok.lexeme, value,
                                  span=Span(name_tok.pos, self.prev_end()))
            if self.at(TokenKind.PUNCT, "["):
                self.take(TokenKind.PUNCT, "[")
                index = self.expression()
                self.take(TokenKind.PUNCT, "]")
                self.take(TokenKind.OP, "=", expected="'='")
                value = self.expression()
                self.take(TokenKind.PUNCT, ";")
                return ArrayAssignStmt(name_tok.lexeme, index, value,
                                       span=Span(name_tok.pos, self.prev_end()))
            raise self.error("'=' or '[' after identifier")
        raise self.error("a statement")

    # -- expressions, precedence climbing ------------------------------------

    def expression(self, min_level: int = 1) -> Expr:
        """An expression whose binary operators bind at `min_level` or
        tighter: each operand is a unary expression, and an operator's
        right operand takes only operators tighter than its own, so
        equal levels associate to the left."""
        left = self.unary_expr()
        while True:
            tok = self.peek()
            level = BINARY_LEVEL.get(tok.lexeme, 0) if tok is not None else 0
            if level < min_level:
                return left
            self.take(TokenKind.OP)
            right = self.expression(level + 1)
            left = BinaryExpr(tok.lexeme, left, right,
                              span=Span(left.span.start, right.span.end))

    def unary_expr(self) -> Expr:
        if self.at(TokenKind.OP, "!"):
            start = self.take(TokenKind.OP, "!").pos
            operand = self.unary_expr()
            return NotExpr(operand, span=Span(start, operand.span.end))
        return self.postfix_expr()

    def postfix_expr(self) -> Expr:
        expr = self.primary_expr()
        while True:
            if self.at(TokenKind.PUNCT, "["):
                self.take(TokenKind.PUNCT, "[")
                index = self.expression()
                self.take(TokenKind.PUNCT, "]")
                expr = ArrayIndexExpr(expr, index, span=Span(expr.span.start, self.prev_end()))
            elif self.at(TokenKind.PUNCT, "."):
                self.take(TokenKind.PUNCT, ".")
                if self.at(TokenKind.KEYWORD, "length"):
                    self.take(TokenKind.KEYWORD, "length")
                    expr = ArrayLengthExpr(expr, span=Span(expr.span.start, self.prev_end()))
                    continue
                method = self.take_ident("method name after '.'").lexeme
                self.take(TokenKind.PUNCT, "(")
                args = []
                if not self.at(TokenKind.PUNCT, ")"):
                    while True:
                        args.append(self.expression())
                        if not self.at(TokenKind.PUNCT, ","):
                            break
                        self.take(TokenKind.PUNCT, ",")
                self.take(TokenKind.PUNCT, ")")
                expr = CallExpr(expr, method, args, span=Span(expr.span.start, self.prev_end()))
            else:
                return expr

    def primary_expr(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise self.error("an expression")
        if tok.kind is TokenKind.INT:
            self.take(TokenKind.INT)
            return IntLitExpr(int(tok.lexeme), span=Span(tok.pos, tok.end_pos))
        if tok.kind is TokenKind.KEYWORD and tok.lexeme in ("true", "false"):
            self.take(TokenKind.KEYWORD)
            return BoolLitExpr(tok.lexeme == "true", span=Span(tok.pos, tok.end_pos))
        if self.at(TokenKind.KEYWORD, "this"):
            self.take(TokenKind.KEYWORD, "this")
            return ThisExpr(span=Span(tok.pos, tok.end_pos))
        if tok.kind is TokenKind.IDENT:
            self.take(TokenKind.IDENT)
            return IdentExpr(tok.lexeme, span=Span(tok.pos, tok.end_pos))
        if self.at(TokenKind.KEYWORD, "new"):
            start = self.take(TokenKind.KEYWORD, "new").pos
            if self.at(TokenKind.KEYWORD, "int"):
                self.take(TokenKind.KEYWORD, "int")
                self.take(TokenKind.PUNCT, "[")
                length = self.expression()
                self.take(TokenKind.PUNCT, "]")
                return NewArrayExpr(length, span=Span(start, self.prev_end()))
            name = self.take_ident("class name after 'new'").lexeme
            self.take(TokenKind.PUNCT, "(")
            self.take(TokenKind.PUNCT, ")")
            return NewObjectExpr(name, span=Span(start, self.prev_end()))
        if self.at(TokenKind.PUNCT, "("):
            self.take(TokenKind.PUNCT, "(")
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
        tok = parser.peek()
        raise ParseError(tok.pos if tok else parser._eof_pos(),
                         "expressions or statements nested too deeply") from None


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
