"""Abstract syntax for MiniJava, plus a source printer.

MiniJava is the single-inheritance Java subset with int, boolean, int[]
and class types.  A program is one main class followed by ordinary class
declarations; the main body holds statements only (no locals).

Operators are data: one `BinaryExpr` node carries its operator symbol,
and `BINARY_LEVEL` is the one table of the operators and their
precedence, which the parser and this module's printer read.  Later
stages key their per-operator tables by the same symbols.

Parenthesised subexpressions are not kept as nodes.  The printer
re-derives parentheses from `BINARY_LEVEL`, so parse -> print -> parse
round trips are structurally stable for any well-formed tree, including
generated ones that never moved through the parser.

Every node carries one source position, `pos`: where its first token
starts, or for a binary or postfix node its left operand's.  Structural
equality ignores positions and checker annotations (those fields carry
``compare=False``).  A position is a NamedTuple.  The checker's
`binding` of an identifier is its kind, "field", "formal" or "local".

The front end's errors, `LexError`, `ParseError` and `MjTypeError`,
are each a `SourceError`: a position and a message.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Iterator, NamedTuple, Optional

# Integer semantics shared by both interpreters: 63-bit signed range.
INT_MIN = -(2**62)
INT_MAX = 2**62 - 1


class Pos(NamedTuple):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


DUMMY_POS = Pos(0, 0)


class SourceError(Exception):
    """An error in the source text, at a position."""

    def __init__(self, pos: Pos, message: str):
        super().__init__(f"{pos}: {message}")
        self.pos = pos
        self.message = message


# ---------------------------------------------------------------------------
# Types

class MjType:
    pass


@dataclass(frozen=True)
class IntType(MjType):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class BoolType(MjType):
    def __str__(self) -> str:
        return "boolean"


@dataclass(frozen=True)
class IntArrayType(MjType):
    def __str__(self) -> str:
        return "int[]"


@dataclass(frozen=True)
class ClassType(MjType):
    name: str

    def __str__(self) -> str:
        return self.name


INT = IntType()
BOOL = BoolType()
INT_ARRAY = IntArrayType()


# ---------------------------------------------------------------------------
# Expressions

# The binary operators and their precedence, loosest first; each
# associates to the left.
BINARY_LEVEL = {"&&": 1, "<": 2, "+": 3, "-": 3, "*": 4}


@dataclass
class Expr:
    pos: Pos = field(default=DUMMY_POS, kw_only=True, compare=False, repr=False)


@dataclass
class BinaryExpr(Expr):
    """`left op right` for an operator `op` in BINARY_LEVEL."""

    op: str
    left: Expr
    right: Expr


@dataclass
class NotExpr(Expr):
    operand: Expr


@dataclass
class ArrayIndexExpr(Expr):
    array: Expr
    index: Expr


@dataclass
class ArrayLengthExpr(Expr):
    array: Expr


@dataclass
class CallExpr(Expr):
    receiver: Expr
    method: str
    args: list[Expr]
    receiver_class: Optional[str] = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class IntLitExpr(Expr):
    value: int


@dataclass
class BoolLitExpr(Expr):
    value: bool


@dataclass
class IdentExpr(Expr):
    name: str
    binding: Optional[str] = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class ThisExpr(Expr):
    pass


@dataclass
class NewArrayExpr(Expr):
    length: Expr


@dataclass
class NewObjectExpr(Expr):
    class_name: str


# ---------------------------------------------------------------------------
# Statements

@dataclass
class Stmt:
    pos: Pos = field(default=DUMMY_POS, kw_only=True, compare=False, repr=False)


@dataclass
class BlockStmt(Stmt):
    body: list[Stmt]


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then_branch: Stmt
    else_branch: Stmt


@dataclass
class WhileStmt(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class PrintStmt(Stmt):
    value: Expr


@dataclass
class AssignStmt(Stmt):
    name: str
    value: Expr
    binding: Optional[str] = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass
class ArrayAssignStmt(Stmt):
    name: str
    index: Expr
    value: Expr
    binding: Optional[str] = field(default=None, kw_only=True, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Declarations

@dataclass
class VarDecl:
    name: str
    var_type: MjType
    pos: Pos = field(default=DUMMY_POS, kw_only=True, compare=False, repr=False)


@dataclass
class MethodDecl:
    name: str
    return_type: MjType
    formals: list[VarDecl]
    local_vars: list[VarDecl]
    body: list[Stmt]
    return_expr: Expr
    pos: Pos = field(default=DUMMY_POS, kw_only=True, compare=False, repr=False)


@dataclass
class ClassDecl:
    name: str
    superclass: Optional[str]
    fields: list[VarDecl]
    methods: list[MethodDecl]
    pos: Pos = field(default=DUMMY_POS, kw_only=True, compare=False, repr=False)


@dataclass
class MainClass:
    name: str
    arg_name: str
    body: list[Stmt]
    pos: Pos = field(default=DUMMY_POS, kw_only=True, compare=False, repr=False)


@dataclass
class MjProgram:
    main: MainClass
    classes: list[ClassDecl]


# ---------------------------------------------------------------------------
# Generic traversal

def walk(node) -> Iterator:
    """Yield node and every descendant, preorder.  The children of a node
    are its compared fields (list fields item by item), types excluded."""
    yield node
    for f in fields(node):
        if f.compare:
            value = getattr(node, f.name)
            for child in value if isinstance(value, list) else (value,):
                if is_dataclass(child) and not isinstance(child, MjType):
                    yield from walk(child)


# ---------------------------------------------------------------------------
# Source printer

_PREFIX_LEVEL = 5
_POSTFIX_LEVEL = 6


def print_expr(e: Expr, level: int = 0) -> str:
    """Render an expression, inserting parentheses per precedence."""
    if isinstance(e, BinaryExpr):
        own = BINARY_LEVEL[e.op]
        text = f"{print_expr(e.left, own)} {e.op} {print_expr(e.right, own + 1)}"
        return f"({text})" if own < level else text
    if isinstance(e, NotExpr):
        text = "!" + print_expr(e.operand, _PREFIX_LEVEL)
        return f"({text})" if _PREFIX_LEVEL < level else text
    if isinstance(e, ArrayIndexExpr):
        return "{}[{}]".format(print_expr(e.array, _POSTFIX_LEVEL), print_expr(e.index))
    if isinstance(e, ArrayLengthExpr):
        return print_expr(e.array, _POSTFIX_LEVEL) + ".length"
    if isinstance(e, CallExpr):
        args = ", ".join(print_expr(a) for a in e.args)
        return "{}.{}({})".format(print_expr(e.receiver, _POSTFIX_LEVEL), e.method, args)
    if isinstance(e, IntLitExpr):
        return str(e.value)
    if isinstance(e, BoolLitExpr):
        return "true" if e.value else "false"
    if isinstance(e, IdentExpr):
        return e.name
    if isinstance(e, ThisExpr):
        return "this"
    if isinstance(e, NewArrayExpr):
        # new-array is primary-like but lower than postfix: (new int[3])[0]
        text = f"new int[{print_expr(e.length)}]"
        return f"({text})" if _POSTFIX_LEVEL < level else text
    if isinstance(e, NewObjectExpr):
        return f"new {e.class_name}()"
    raise TypeError(f"unknown expression node {type(e).__name__}")


def _print_stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    if isinstance(s, BlockStmt):
        out.append(pad + "{")
        for sub in s.body:
            _print_stmt(sub, indent + 1, out)
        out.append(pad + "}")
    elif isinstance(s, IfStmt):
        out.append(pad + f"if ({print_expr(s.cond)})")
        _print_stmt(s.then_branch, indent + 1, out)
        out.append(pad + "else")
        _print_stmt(s.else_branch, indent + 1, out)
    elif isinstance(s, WhileStmt):
        out.append(pad + f"while ({print_expr(s.cond)})")
        _print_stmt(s.body, indent + 1, out)
    elif isinstance(s, PrintStmt):
        out.append(pad + f"System.out.println({print_expr(s.value)});")
    elif isinstance(s, AssignStmt):
        out.append(pad + f"{s.name} = {print_expr(s.value)};")
    elif isinstance(s, ArrayAssignStmt):
        out.append(pad + f"{s.name}[{print_expr(s.index)}] = {print_expr(s.value)};")
    else:
        raise TypeError(f"unknown statement node {type(s).__name__}")


def print_program(program: MjProgram) -> str:
    """Render a whole program back to MiniJava source text."""
    out: list[str] = []
    m = program.main
    out.append(f"class {m.name} {{")
    out.append(f"    public static void main(String[] {m.arg_name}) {{")
    for s in m.body:
        _print_stmt(s, 2, out)
    out.append("    }")
    out.append("}")
    for c in program.classes:
        out.append("")
        ext = f" extends {c.superclass}" if c.superclass else ""
        out.append(f"class {c.name}{ext} {{")
        for f in c.fields:
            out.append(f"    {f.var_type} {f.name};")
        for meth in c.methods:
            formals = ", ".join(f"{p.var_type} {p.name}" for p in meth.formals)
            out.append(f"    public {meth.return_type} {meth.name}({formals}) {{")
            for v in meth.local_vars:
                out.append(f"        {v.var_type} {v.name};")
            for s in meth.body:
                _print_stmt(s, 2, out)
            out.append(f"        return {print_expr(meth.return_expr)};")
            out.append("    }")
        out.append("}")
    return "\n".join(out) + "\n"
