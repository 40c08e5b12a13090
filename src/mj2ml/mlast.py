"""Core ML abstract syntax, plus the well-formedness validator.

The expression language is a small pure subset of Standard ML: tuples,
datatype constructors, primitive integer operators, `let`,
application, conditionals and pattern matching.  Every function is
declared at the top level, in a group of mutually recursive functions
(a tuple of `FunDef`s, an item of `MlProgram.fun_groups`), and a `let`
holds only `val` bindings (`Val`), so a function's free names are the
top-level functions alone.  There are no refs, exceptions, strings, or
records, and no function values: a `fun` name is only ever applied, so
the fragment is first-order.  Booleans are the usual constructors
``true``/``false``, the only builtin ones.  Matching takes only the
forms the translation emits: a `case` has one `true` or `false` rule,
or one rule for each of some distinct constructors, and only a `case`
rule matches a constructor (see `validate_core`).

Types (`Ty*`) appear only in datatype declarations, which may take type
parameters (`TyVar`); expressions are untyped here and checked
structurally by `validate_core`.

The translation emits A-normal form, and `mlprint` relies on it: a
`let`, `case` or `if` is never an operand, that is a tuple or constructor
item, a primitive's operand, an applied function or its argument, an
`if` condition or a `case` scrutinee.  `validate_core` checks this too.

The nodes are values: plain dataclasses that compare and hash by their
type and fields (``unsafe_hash=True``), so ``Var("x") != PVar("x")`` and
a node can key a dict, as the translation's caches do.  Nothing changes
a node once it is built, and translations share some (the store's
helpers and constants).  They are not ``frozen``: a frozen dataclass's
``__init__`` sets each field through ``object.__setattr__``, which made
a two-field node cost about 470 ns to build against 200 ns (``timeit``,
CPython 3.11), and a translation builds one node per ML construct it
emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .outcome import COMPILE_FRAMES, extra_frames


# -- types (for datatype declarations only) -----------------------------------

class MlType:
    pass


@dataclass(unsafe_hash=True)
class TyName(MlType):
    name: str


@dataclass(unsafe_hash=True)
class TyVar(MlType):
    """A type parameter of a datatype: TyVar('a') is 'a."""
    name: str


@dataclass(unsafe_hash=True)
class TyApp(MlType):
    """Postfix application: TyApp('list', int) is 'int list'."""
    base: str
    arg: MlType


@dataclass(unsafe_hash=True)
class TyTuple(MlType):
    items: tuple[MlType, ...]


TY_INT = TyName("int")
TY_BOOL = TyName("bool")
TY_UNIT = TyTuple(())


# -- patterns ------------------------------------------------------------------

class Pat:
    pass


@dataclass(unsafe_hash=True)
class PVar(Pat):
    name: str


@dataclass(unsafe_hash=True)
class PWild(Pat):
    pass


@dataclass(unsafe_hash=True)
class PTuple(Pat):
    items: tuple[Pat, ...]


@dataclass(unsafe_hash=True)
class PCon(Pat):
    name: str
    args: tuple[Pat, ...] = ()


# -- expressions ----------------------------------------------------------------

class MlExpr:
    pass


@dataclass(unsafe_hash=True)
class Var(MlExpr):
    name: str


@dataclass(unsafe_hash=True)
class IntLit(MlExpr):
    value: int


@dataclass(unsafe_hash=True)
class Tuple(MlExpr):
    """n-tuple for n = 0 (unit) or n >= 2; 1-tuples do not exist."""
    items: tuple[MlExpr, ...]


@dataclass(unsafe_hash=True)
class Con(MlExpr):
    name: str
    args: tuple[MlExpr, ...] = ()


@dataclass(unsafe_hash=True)
class PrimOp(MlExpr):
    op: str
    args: tuple[MlExpr, ...]


@dataclass(unsafe_hash=True)
class If(MlExpr):
    cond: MlExpr
    then: MlExpr
    orelse: MlExpr


@dataclass(unsafe_hash=True)
class FunDef:
    name: str
    param: Pat
    body: MlExpr


@dataclass(unsafe_hash=True)
class Val:
    """val pat = rhs: `rhs` does not see the variables of `pat`."""
    pat: Pat
    rhs: MlExpr


@dataclass(unsafe_hash=True)
class Let(MlExpr):
    """let val ... val ... in body end: each binding sees the ones before
    it, and `body` sees them all."""
    decls: tuple[Val, ...]
    body: MlExpr


@dataclass(unsafe_hash=True)
class App(MlExpr):
    func: MlExpr
    arg: MlExpr


@dataclass(unsafe_hash=True)
class Case(MlExpr):
    scrutinee: MlExpr
    rules: tuple[tuple[Pat, MlExpr], ...]


# -- declarations ----------------------------------------------------------------

@dataclass(unsafe_hash=True)
class DataCon:
    """A constructor; one whose argument is unit is nullary."""
    name: str
    arg: MlType

    @property
    def arity(self) -> int:
        if isinstance(self.arg, TyTuple):
            return len(self.arg.items)
        return 1


@dataclass(unsafe_hash=True)
class DataType:
    """datatype params name = cons: `params` are the names of its type
    variables, which its constructors' types refer to as `TyVar`s."""
    name: str
    cons: tuple[DataCon, ...]
    params: tuple[str, ...] = ()


@dataclass
class MlProgram:
    """Datatypes, then function groups in order, then the entry expression.

    Each item of `fun_groups` is one mutually recursive group; a
    group may refer to itself and to every earlier group.  `main` is
    evaluated last with all groups in scope.
    """

    datatypes: list[DataType] = field(default_factory=list)
    fun_groups: list[tuple[FunDef, ...]] = field(default_factory=list)
    main: MlExpr = Tuple(())


BUILTIN_CON_ARITIES = {
    "true": 0,
    "false": 0,
}

# `div` and `mod` round towards negative infinity, as in SML; the core
# fragment only divides by positive literals, so they cannot fault.
PRIM_OPS = {"+": 2, "-": 2, "*": 2, "div": 2, "mod": 2, "<": 2, "=": 2}
DIVISIONS = frozenset({"div", "mod"})

# The runtime's print function, which appends an int to the output.
PRINT = "mj_print"

# Names the runtime provides without a definition in the program.
RUNTIME_VARS = frozenset({PRINT})


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class _Validator:
    def __init__(self, con_arities: dict[str, int]):
        self.con_arities = con_arities
        self.violations: list[Violation] = []
        # the names in scope, each with whether each binder binding it,
        # innermost last, is a function's; a binding construct declares
        # its names and forgets them on exit
        self.scope: dict[str, list[bool]] = {name: [True] for name in RUNTIME_VARS}

    def declare(self, names, functions: bool = False) -> None:
        for name in names:
            self.scope.setdefault(name, []).append(functions)

    def forget(self, names) -> None:
        for name in names:
            self.scope[name].pop()
            if not self.scope[name]:
                del self.scope[name]

    def bind(self, pat: Pat, path: str) -> set[str]:
        """Check a `val` pattern or a parameter and declare its variables;
        returns them."""
        bound: set[str] = set()
        self.pattern_vars(pat, path, bound)
        self.declare(bound)
        return bound

    def flag(self, path: str, message: str) -> None:
        self.violations.append(Violation(path, message))

    def pattern_vars(self, pat: Pat, path: str, seen: set[str], depth: int = 0) -> None:
        """Check a `val` pattern or a parameter, or an item of one `depth`
        tuples down, and add its variables to `seen`: a variable, a
        wildcard or a tuple of those, whose items may be tuples of
        variables and wildcards."""
        if isinstance(pat, PVar):
            if pat.name in seen:
                self.flag(path, f"duplicate variable '{pat.name}' in pattern")
            seen.add(pat.name)
        elif isinstance(pat, PWild):
            pass
        elif isinstance(pat, PTuple):
            if depth > 1:
                self.flag(path, "a tuple pattern inside a tuple item")
            if len(pat.items) == 1:
                self.flag(path, "1-element tuple pattern")
            for i, sub in enumerate(pat.items):
                self.pattern_vars(sub, f"{path}.{i}", seen, depth + 1)
        elif isinstance(pat, PCon):
            self.flag(path, "a constructor pattern outside a 'case' rule")
        else:
            self.flag(path, f"not a core pattern: {type(pat).__name__}")

    def rule(self, pat: Pat, path: str, rules: int, names: set[str]) -> set[str]:
        """Check the pattern of a rule of a `case` of `rules` rules, the
        constructors of the rules before it being `names`, and declare its
        variables; returns them.  A rule is a constructor pattern whose items are
        variables and wildcards, its constructor has no other rule, and
        a `true` or `false` rule is its `case`'s only rule."""
        if not isinstance(pat, PCon):
            self.flag(path, "a 'case' rule other than a constructor pattern")
            return self.bind(pat, path)
        if pat.name in BUILTIN_CON_ARITIES and rules > 1:
            self.flag(path, f"a '{pat.name}' rule beside other rules")
        elif pat.name in names:
            self.flag(path, f"a second rule for constructor '{pat.name}'")
        names.add(pat.name)
        arity = self.con_arities.get(pat.name)
        if arity is None:
            self.flag(path, f"unknown constructor '{pat.name}' in pattern")
        elif arity != len(pat.args):
            self.flag(path, f"constructor '{pat.name}' takes {arity} "
                            f"argument(s), pattern has {len(pat.args)}")
        bound: set[str] = set()
        for i, sub in enumerate(pat.args):
            if isinstance(sub, (PVar, PWild)):
                self.pattern_vars(sub, f"{path}.{i}", bound)
            else:
                self.flag(f"{path}.{i}", "a constructor pattern item other than "
                                         "a variable or a wildcard")
        self.declare(bound)
        return bound

    def group(self, funs: tuple[FunDef, ...], path: str) -> None:
        """Check a top-level group of mutually recursive functions; declares
        the group's names for it and the groups and entry after it."""
        names = [f.name for f in funs]
        if len(set(names)) != len(names):
            self.flag(path, "duplicate function name in group")
        self.declare(names, functions=True)
        for f in funs:
            bound = self.bind(f.param, f"{path}/fun {f.name}/param")
            self.expr(f.body, f"{path}/fun {f.name}")
            self.forget(bound)

    def expr(self, e: MlExpr, path: str, operand: bool = False) -> None:
        """Check `e`; an `operand` must not be a `let`, `case` or `if`."""
        if operand and isinstance(e, (Let, Case, If)):
            self.flag(path, f"'{type(e).__name__.lower()}' as an operand")
        if isinstance(e, Var):
            if e.name not in self.scope:
                self.flag(path, f"unbound variable '{e.name}'")
            elif self.scope[e.name][-1]:
                self.flag(path, f"function '{e.name}' read as a value")
        elif isinstance(e, IntLit):
            pass
        elif isinstance(e, Tuple):
            if len(e.items) == 1:
                self.flag(path, "1-element tuple")
            for i, sub in enumerate(e.items):
                self.expr(sub, f"{path}/tuple.{i}", operand=True)
        elif isinstance(e, Con):
            arity = self.con_arities.get(e.name)
            if arity is None:
                self.flag(path, f"unknown constructor '{e.name}'")
            elif arity != len(e.args):
                self.flag(path, f"constructor '{e.name}' takes {arity} "
                                f"argument(s), got {len(e.args)}")
            for i, sub in enumerate(e.args):
                self.expr(sub, f"{path}/{e.name}.{i}", operand=True)
        elif isinstance(e, PrimOp):
            arity = PRIM_OPS.get(e.op)
            if arity is None:
                self.flag(path, f"unknown primitive '{e.op}'")
            elif arity != len(e.args):
                self.flag(path, f"primitive '{e.op}' takes {arity} "
                                f"argument(s), got {len(e.args)}")
            elif e.op in DIVISIONS and not (type(e.args[1]) is IntLit
                                            and e.args[1].value > 0):
                self.flag(path, f"'{e.op}' by something other than a positive literal")
            for i, sub in enumerate(e.args):
                self.expr(sub, f"{path}/{e.op}.{i}", operand=True)
        elif isinstance(e, If):
            self.expr(e.cond, f"{path}/if-cond", operand=True)
            self.expr(e.then, f"{path}/if-then")
            self.expr(e.orelse, f"{path}/if-else")
        elif isinstance(e, Let):
            declared: list[str] = []
            for i, decl in enumerate(e.decls):
                if isinstance(decl, Val):
                    self.expr(decl.rhs, f"{path}/let{i}-rhs")
                    declared.extend(self.bind(decl.pat, f"{path}/let{i}-pat"))
                elif isinstance(decl, tuple):
                    self.flag(f"{path}/let{i}", "'fun' inside a 'let'")
                else:
                    self.flag(f"{path}/let{i}",
                              f"not a core declaration: {type(decl).__name__}")
            self.expr(e.body, f"{path}/let-body")
            self.forget(declared)
        elif isinstance(e, App):
            func = e.func
            if not isinstance(func, Var):
                self.expr(func, f"{path}/app-fn", operand=True)
                if not isinstance(func, (Let, Case, If)):  # flagged as an operand
                    self.flag(f"{path}/app-fn", "only a function's name can be applied")
            elif func.name not in self.scope:
                self.flag(f"{path}/app-fn", f"unbound variable '{func.name}'")
            elif not self.scope[func.name][-1]:
                self.flag(f"{path}/app-fn", f"'{func.name}' is applied but is not a function")
            self.expr(e.arg, f"{path}/app-arg", operand=True)
        elif isinstance(e, Case):
            self.expr(e.scrutinee, f"{path}/case-scrutinee", operand=True)
            if not e.rules:
                self.flag(path, "case with no rules")
            names: set[str] = set()
            for i, (pat, rhs) in enumerate(e.rules):
                bound = self.rule(pat, f"{path}/case-rule{i}-pat", len(e.rules), names)
                self.expr(rhs, f"{path}/case-rule{i}")
                self.forget(bound)
        else:
            self.flag(path, f"not a core expression: {type(e).__name__}")


def validate_core(program: MlProgram) -> list[Violation]:
    """Structural check: core nodes only, known constructors and primitives
    at the right arities, `div` and `mod` only by positive literals, no
    unbound variables, no 1-tuples, and no `let`, `case` or `if` as an
    operand, so that every tree it accepts prints.  Patterns take the
    forms the translation emits.  A `val` pattern or a parameter is a
    variable, a wildcard or a tuple of those, whose items may be tuples
    of variables and wildcards.  A `case` has either one rule `true` or
    `false`, or one rule for each of some distinct constructors, whose
    items are variables and wildcards; a constructor pattern appears
    nowhere else.  Every function is top-level: a `let` declares only
    `val`s.  The fragment is first-order: a `fun` name (or the runtime's
    `mj_print`) is only applied, never read as a value, and only such a
    name is applied.  It runs within `outcome.COMPILE_FRAMES` frames,
    which any translation fits."""
    con_arities = dict(BUILTIN_CON_ARITIES)
    checker = _Validator(con_arities)
    for dt in program.datatypes:
        for con in dt.cons:
            if con.name in con_arities:
                checker.flag(f"datatype {dt.name}",
                             f"constructor '{con.name}' declared twice")
            con_arities[con.name] = con.arity

    with extra_frames(COMPILE_FRAMES):
        for i, group in enumerate(program.fun_groups):
            checker.group(group, f"group{i}")
        checker.expr(program.main, "main")
    return checker.violations
