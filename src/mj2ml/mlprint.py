"""Renders a core ML program as Standard ML '97 source text.

The output is deterministic byte for byte: layout decisions depend only
on the tree.  Indentation is two spaces.  Negative integer literals use
`~`.  Parenthesisation is conservative; `let ... end` is self-bracketing
and never parenthesised.  Each `Let` prints as one let/in/end around
its declarations in order; the printer merges and splits nothing.

The one piece of source that is not generated from the tree is the
printing helper `mj_print`, which uses strings and is therefore outside
the core fragment; it is emitted literally at the top of every program.
"""

from __future__ import annotations

from ._version import __version__
from .mlast import (
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
    TyArrow,
    TyName,
    TyTuple,
    TyVar,
    Val,
    Var,
)
from .outcome import COMPILE_FRAMES, extra_frames

PRINT_HELPER = ('fun mj_print n = print (String.map (fn c => '
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


def _int_text(value: int) -> str:
    return str(value) if value >= 0 else "~" + str(-value)


def _paren(text: str) -> str:
    return "(" + text + ")"


# -- types --------------------------------------------------------------------

def print_type(ty: MlType, level: int = 0) -> str:
    if isinstance(ty, TyName):
        return ty.name
    if isinstance(ty, TyVar):
        return "'" + ty.name
    if isinstance(ty, TyApp):
        return f"{print_type(ty.arg, 2)} {ty.base}"
    if isinstance(ty, TyTuple):
        if not ty.items:
            return "unit"
        text = " * ".join(print_type(item, 2) for item in ty.items)
        return _paren(text) if level > 1 else text
    if isinstance(ty, TyArrow):
        text = f"{print_type(ty.param, 1)} -> {print_type(ty.result, 0)}"
        return _paren(text) if level > 0 else text
    raise AssertionError(f"unhandled type {type(ty).__name__}")


# -- patterns -------------------------------------------------------------------

def print_pat(pat: Pat, atomic: bool = False) -> str:
    if isinstance(pat, PVar):
        return pat.name
    if isinstance(pat, PWild):
        return "_"
    if isinstance(pat, PTuple):
        return "(" + ", ".join(print_pat(p) for p in pat.items) + ")"
    if isinstance(pat, PCon):
        if not pat.args:
            return pat.name
        if len(pat.args) == 1:
            text = f"{pat.name} {print_pat(pat.args[0], atomic=True)}"
        else:
            text = pat.name + " (" + ", ".join(print_pat(p) for p in pat.args) + ")"
        return _paren(text) if atomic else text
    raise AssertionError(f"unhandled pattern {type(pat).__name__}")


# -- expressions ------------------------------------------------------------------

def _is_multiline(text: str) -> bool:
    return "\n" in text


def _wrap(text: str, need_paren: bool) -> str:
    return _paren(text) if need_paren else text


def print_expr(expr: MlExpr, ind: str = "", level: int = 0) -> str:
    """Render; continuation lines are prefixed with `ind`."""
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, IntLit):
        return _int_text(expr.value)
    if isinstance(expr, Tuple):
        if not expr.items:
            return "()"
        inner = ", ".join(print_expr(item, ind + "  ", _L_LOW) for item in expr.items)
        return "(" + inner + ")"
    if isinstance(expr, Con):
        return _print_con(expr, ind, level)
    if isinstance(expr, PrimOp):
        own = _OP_LEVEL[expr.op]
        left = print_expr(expr.args[0], ind, own)
        right = print_expr(expr.args[1], ind, own + 1)
        return _wrap(f"{left} {expr.op} {right}", level > own)
    if isinstance(expr, App):
        func = print_expr(expr.func, ind, _L_APP)
        arg = print_expr(expr.arg, ind + "  ", _L_ATOM)
        return _wrap(f"{func} {arg}", level > _L_APP)
    if isinstance(expr, If):
        return _wrap(_print_if(expr, ind), level > _L_LOW)
    if isinstance(expr, Case):
        return _wrap(_print_case(expr, ind), level > _L_LOW)
    if isinstance(expr, Let):
        return _print_let(expr, ind)
    raise AssertionError(f"unhandled expression {type(expr).__name__}")


def _print_con(expr: Con, ind: str, level: int) -> str:
    if not expr.args:
        return expr.name
    if len(expr.args) == 1:
        arg = print_expr(expr.args[0], ind + "  ", _L_ATOM)
        return _wrap(f"{expr.name} {arg}", level > _L_APP)
    inner = ", ".join(print_expr(a, ind + "  ", _L_LOW) for a in expr.args)
    return _wrap(f"{expr.name} ({inner})", level > _L_APP)


def _print_if(expr: If, ind: str) -> str:
    cond = print_expr(expr.cond, ind + "  ", _L_LOW)
    then = print_expr(expr.then, ind + "  ", _L_LOW)
    orelse = print_expr(expr.orelse, ind + "  ", _L_LOW)
    one_line = f"if {cond} then {then} else {orelse}"
    if not _is_multiline(one_line) and len(one_line) <= _SINGLE_LINE_LIMIT:
        return one_line
    return (f"if {cond}\n"
            f"{ind}then {then}\n"
            f"{ind}else {orelse}")


def _print_case(expr: Case, ind: str) -> str:
    scrut = print_expr(expr.scrutinee, ind + "  ", _L_LOW)
    lines = [f"case {scrut} of"]
    for i, (pat, rhs) in enumerate(expr.rules):
        lead = f"{ind}    " if i == 0 else f"{ind}  | "
        body = print_expr(rhs, ind + "      ", _L_LOW)
        lines.append(f"{lead}{print_pat(pat)} => {body}")
    return "\n".join(lines)


def _print_let(expr: Let, ind: str) -> str:
    inner = ind + "  "
    lines = ["let"]
    for decl in expr.decls:
        if isinstance(decl, Val):
            rhs = print_expr(decl.rhs, inner + "  ", _L_LOW)
            head = f"{inner}val {print_pat(decl.pat)} ="
            if _is_multiline(rhs) or len(head) + len(rhs) + 1 > _SINGLE_LINE_LIMIT + len(inner):
                lines.append(head)
                lines.append(f"{inner}  {rhs}")
            else:
                lines.append(f"{head} {rhs}")
        else:
            lines.extend(_print_group(decl, inner))
    lines.append(f"{ind}in")
    lines.append(f"{inner}{print_expr(expr.body, inner, _L_LOW)}")
    lines.append(f"{ind}end")
    return "\n".join(lines)


def _print_group(funs: tuple[FunDef, ...], ind: str) -> list[str]:
    return [_print_fun(f, ind, "fun" if j == 0 else "and") for j, f in enumerate(funs)]


def _print_fun(f: FunDef, ind: str, keyword: str) -> str:
    head = f"{ind}{keyword} {f.name} {print_pat(f.param, atomic=True)} ="
    body = print_expr(f.body, ind + "  ", _L_LOW)
    if not _is_multiline(body) and len(head) + len(body) + 1 <= _SINGLE_LINE_LIMIT + len(ind):
        return f"{head} {body}"
    return f"{head}\n{ind}  {body}"


# -- declarations -------------------------------------------------------------------

def _print_datatype(dt: DataType, keyword: str) -> str:
    params = [print_type(TyVar(p)) for p in dt.params]
    if len(params) > 1:
        params = ["(" + ", ".join(params) + ")"]
    lines = [" ".join([keyword, *params, dt.name, "="])]
    for i, con in enumerate(dt.cons):
        lead = "    " if i == 0 else "  | "
        arg = "" if con.arg == TY_UNIT else f" of {print_type(con.arg, 1)}"
        lines.append(f"{lead}{con.name}{arg}")
    return "\n".join(lines)


def print_ml_program(program: MlProgram, source_name: str = "source") -> str:
    """Full SML source: header, print helper, datatypes, functions, entry.

    The printer recurses once per nesting level of the tree, within
    `outcome.COMPILE_FRAMES` frames, which any translation fits.
    """
    parts = [
        f"(* {source_name}, translated by mj2ml {__version__}. *)",
        "(* The heap is an explicit value threaded through every function: *)",
        "(* mj_s<n> are heap states, mj_<x>_<n> the bindings of variable x. *)",
        "",
        PRINT_HELPER,
        "",
    ]
    if program.datatypes:
        for i, dt in enumerate(program.datatypes):
            parts.append(_print_datatype(dt, "datatype" if i == 0 else "and"))
        parts.append("")
    with extra_frames(COMPILE_FRAMES):
        for group in program.fun_groups:
            parts.extend(_print_group(group, ""))
            parts.append("")
        parts.append(f"val _ = {print_expr(program.main, '  ', _L_LOW)}")
    return "\n".join(parts) + "\n"
