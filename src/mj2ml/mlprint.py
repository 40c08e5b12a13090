"""Renders a core ML program as Standard ML '97 source text.

The output is deterministic byte for byte: layout decisions depend only
on the tree.  Indentation is two spaces.  Negative integer literals use
`~`.  Parenthesisation is conservative.  Each `Let` prints as one
let/in/end around its declarations in order; the printer merges and
splits nothing.

The printer relies on the A-normal form the translation emits, which
`validate_core` checks: a `let`, `case` or `if` stands only where a value
is bound or returned (a `val` or `fun` right-hand side, a `let` body, an
`if` branch, a `case` rule, the entry expression), and every operand is
an atom or a one-line expression.  Every `fun` is top-level, so a `let`
prints only `val`s.  So the printer has two levels.  `_line` prints
an operand on one line.  `_block` prints a bound or returned value as a
list of lines: the first continues the caller's line, and each later one
carries its own indentation.  A parent splices its children's lines into
its own, so the text of each line is built once, and the bytes printing
copies are linear in its output.

The one piece of source that is not generated from the tree is the
printing helper `mj_print`, which uses strings and is therefore outside
the core fragment; it is emitted literally at the top of every program.

The store's helpers, `store.prelude()`, are printed once, at import.
A program that leads with them, the same objects in the same order and
each a group of its own (`store.shared_helpers`, the rule by which
`mleval` compiles them once), gets that text for them.  Any other
group, an equal copy of a helper too, is printed from its tree.
"""

from __future__ import annotations

from ._version import __version__
from .mlast import (
    PRINT,
    TY_UNIT,
    App,
    Case,
    Con,
    DataType,
    FunDef,
    If,
    IntLit,
    Let,
    MlExpr,
    MlProgram,
    MlType,
    Pat,
    PCon,
    PrimOp,
    PTuple,
    PVar,
    PWild,
    Tuple,
    TyApp,
    TyName,
    TyTuple,
    TyVar,
    Var,
)
from .outcome import COMPILE_FRAMES, extra_frames
from .store import prelude, shared_helpers

PRINT_HELPER = (f'fun {PRINT} n = print (String.map (fn c => '
                'if c = #"~" then #"-" else c) (Int.toString n) ^ "\\n")')

# Expression precedence levels, loosest first.
_L_LOW = 0      # if, case
_L_CMP = 1      # = <
_L_ADD = 2      # + -
_L_MUL = 3      # *
_L_APP = 4      # application
_L_ATOM = 5

_OP_LEVEL = {"=": _L_CMP, "<": _L_CMP, "+": _L_ADD, "-": _L_ADD,
             "*": _L_MUL, "div": _L_MUL, "mod": _L_MUL}

_SINGLE_LINE_LIMIT = 72


# -- types --------------------------------------------------------------------

def print_type(ty: MlType, atomic: bool = False) -> str:
    """A type; with `atomic`, a tuple type is parenthesised."""
    if isinstance(ty, TyName):
        return ty.name
    if isinstance(ty, TyVar):
        return "'" + ty.name
    if isinstance(ty, TyApp):
        return f"{print_type(ty.arg, True)} {ty.base}"
    if isinstance(ty, TyTuple):
        if not ty.items:
            return "unit"
        text = " * ".join(print_type(item, True) for item in ty.items)
        return f"({text})" if atomic else text
    raise AssertionError(f"unhandled type {type(ty).__name__}")


# -- patterns -------------------------------------------------------------------

def print_pat(pat: Pat) -> str:
    """A pattern.  A constructor pattern is only a `case` rule's own, with
    variables and wildcards for items (`validate_core`), so it is never
    parenthesised."""
    cls = type(pat)
    if cls is PVar:
        return pat.name
    if cls is PWild:
        return "_"
    if cls is PCon:
        if not pat.args:
            return pat.name
        if len(pat.args) == 1:
            return f"{pat.name} {print_pat(pat.args[0])}"
        return pat.name + " (" + ", ".join(print_pat(p) for p in pat.args) + ")"
    if cls is PTuple:
        return "(" + ", ".join(print_pat(p) for p in pat.items) + ")"
    raise AssertionError(f"unhandled pattern {cls.__name__}")


# -- expressions ------------------------------------------------------------------

def _line(expr: MlExpr, level: int = _L_LOW) -> str:
    """An operand, on one line, parenthesised if looser than `level`."""
    cls = type(expr)
    if cls is Var:
        return expr.name
    if cls is IntLit:
        return str(expr.value) if expr.value >= 0 else f"~{-expr.value}"
    if cls is PrimOp:
        own = _OP_LEVEL[expr.op]
        text = f"{_line(expr.args[0], own)} {expr.op} {_line(expr.args[1], own + 1)}"
        return f"({text})" if level > own else text
    if cls is Tuple:
        return "(" + ", ".join(map(_line, expr.items)) + ")"
    if cls is App:
        text = f"{_line(expr.func, _L_APP)} {_line(expr.arg, _L_ATOM)}"
    elif cls is Con:
        if not expr.args:
            return expr.name
        # applied like a function to its one argument, or to their tuple
        if len(expr.args) == 1:
            text = f"{expr.name} {_line(expr.args[0], _L_ATOM)}"
        else:
            text = f"{expr.name} ({', '.join(map(_line, expr.args))})"
    else:
        raise AssertionError(f"unhandled operand {cls.__name__}")
    return f"({text})" if level > _L_APP else text


def _block(expr: MlExpr, ind: str) -> list[str]:
    """A bound or returned value; lines after the first start with `ind`."""
    cls = type(expr)
    if cls is not Case and cls is not Let and cls is not If:
        return [_line(expr)]
    deeper = ind + "  "
    if cls is Case:
        lines = [f"case {_line(expr.scrutinee)} of"]
        last = len(expr.rules) - 1
        for i, (pat, rhs) in enumerate(expr.rules):
            body = _block(rhs, ind + "      ")
            if i < last and _ends_in_case(rhs):
                # else the inner case would take this case's later rules
                body = [f"({body[0]}", *body[1:-1], body[-1] + ")"]
            lead = "    " if i == 0 else "  | "
            lines += [f"{ind}{lead}{print_pat(pat)} => {body[0]}", *body[1:]]
        return lines
    if cls is Let:
        lines = ["let"]
        for decl in expr.decls:
            lines += _bind(f"{deeper}val {print_pat(decl.pat)} =", decl.rhs, deeper)
        body = _block(expr.body, deeper)
        lines += [f"{ind}in", deeper + body[0], *body[1:], f"{ind}end"]
        return lines
    cond = _line(expr.cond)
    then, orelse = _block(expr.then, deeper), _block(expr.orelse, deeper)
    if len(then) == len(orelse) == 1:
        text = f"if {cond} then {then[0]} else {orelse[0]}"
        if len(text) <= _SINGLE_LINE_LIMIT:
            return [text]
    return [f"if {cond}", f"{ind}then {then[0]}", *then[1:],
            f"{ind}else {orelse[0]}", *orelse[1:]]


def _ends_in_case(expr: MlExpr) -> bool:
    """Whether the text of expr ends in a `case`'s last rule, where SML
    reads any `| rule` that follows as one more rule of that `case`."""
    while type(expr) is If:
        expr = expr.orelse
    return type(expr) is Case


def _bind(head: str, rhs: MlExpr, ind: str) -> list[str]:
    """`head rhs` on the head's line if it fits, else `rhs` from the next
    line; `head` starts with `ind`."""
    body = _block(rhs, ind + "  ")
    if len(body) == 1 and len(head) + len(body[0]) < _SINGLE_LINE_LIMIT + len(ind):
        return [f"{head} {body[0]}"]
    return [head, ind + "  " + body[0], *body[1:]]


def print_expr(expr: MlExpr, ind: str = "") -> str:
    """Render; continuation lines are prefixed with `ind`."""
    return "\n".join(_block(expr, ind))


# -- declarations -------------------------------------------------------------------

def _print_datatype(dt: DataType, keyword: str) -> str:
    params = [print_type(TyVar(p)) for p in dt.params]
    if len(params) > 1:
        params = ["(" + ", ".join(params) + ")"]
    lines = [" ".join([keyword, *params, dt.name, "="])]
    for i, con in enumerate(dt.cons):
        lead = "    " if i == 0 else "  | "
        arg = "" if con.arg == TY_UNIT else f" of {print_type(con.arg)}"
        lines.append(f"{lead}{con.name}{arg}")
    return "\n".join(lines)


def _group(funs: tuple[FunDef, ...]) -> list[str]:
    """A group of mutually recursive functions, then an empty line."""
    lines: list[str] = []
    for j, f in enumerate(funs):
        keyword = "fun" if j == 0 else "and"
        lines += _bind(f"{keyword} {f.name} {print_pat(f.param)} =", f.body, "")
    lines.append("")
    return lines


# The text of each of the store's helpers, as `_group` prints it, printed
# once: helper k's stands for group k of a program that `shared_helpers`
# finds leads with helpers 0..k, the same objects.
_HELPER_TEXT = tuple("\n".join(_group((f,))) for f in prelude())


def print_ml_program(program: MlProgram, source_name: str = "source") -> str:
    """Full SML source: header, print helper, datatypes, functions, entry.

    Printing recurses once per nested `let`, `case`, `if` or operand,
    within `outcome.COMPILE_FRAMES` frames, which any translation fits:
    an `if` nested in a branch takes 1 frame a level when the branch ends
    in it and 3 when a statement follows it (`_block` for the `if` and for
    the `let` of its branch, and `_bind` for the `val` that joins the
    inner `if`), which costs a block node a level: at
    `outcome.MAX_NESTING`, 498 levels of the first take 506 frames and 249
    of the second 753, within 3 a level.  A `while` nests nothing: its
    loop is a top-level function that the enclosing code only calls.  Nor
    does a chain of classes, since an object is one constructor of its
    fields.
    """
    # SML comments nest: a `(*` or `*)` in the name would unbalance the header
    name = source_name.replace("(*", "( *").replace("*)", "* )")
    parts = [
        f"(* {name}, translated by mj2ml {__version__}. *)",
        "(* The heap is an explicit value threaded only where it is used: *)",
        "(* mj_s<n> are heap states, mj_<x>_<n> the bindings of variable x. *)",
        "",
        PRINT_HELPER,
        "",
    ]
    if program.datatypes:
        for i, dt in enumerate(program.datatypes):
            parts.append(_print_datatype(dt, "datatype" if i == 0 else "and"))
        parts.append("")
    groups = program.fun_groups
    shared = shared_helpers(groups)
    parts += _HELPER_TEXT[:shared]
    with extra_frames(COMPILE_FRAMES):
        for group in groups[shared:]:
            parts += _group(group)
        main = _block(program.main, "  ")
    parts += [f"val _ = {main[0]}", *main[1:]]
    return "\n".join(parts) + "\n"
