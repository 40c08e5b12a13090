"""Class table construction and typechecking.

`typecheck` builds the inheritance table, then checks every method body
and the main statement list.  It annotates the AST in place: identifier
reads/writes get `.binding`, the variable's kind ("field", "formal" or
"local"), and calls get `.receiver_class`.  Later stages rely on those
annotations.  Every error is an `MjTypeError` at a node's `pos`.

`build_class_table` resolves inheritance once, each class after its
superclass whatever the declaration order, and checks each class against
what it inherits.  The object layouts of `mjinterp` and `translate` read
the resolved `ClassInfo` fields (`path`, `all_fields`, `vtable`); each
extends its superclass's in order, so a field or method slot has the
same position in a class and in its subclasses.  Nesting has one limit
for all later stages, `outcome.MAX_NESTING`: more statement and
expression nodes from a body to a leaf, or classes in an inheritance
chain, are a type error at the body's start or the class.  The chain
limit guards memory, not Python frames: a class copies its superclass's
`path`, `all_fields` and `vtable`, and `mjinterp` builds a template for
each class, so a chain of k classes that each add a field costs O(k^2).

`typecheck` also fills in what a run can reach from main (`_mark_live`),
from the `new C` and the (receiver class, method) of each call that it
records while checking a body: the classes instantiated
(`instantiated`), the (static receiver class, method) pairs called
(`calls`) and the (declaring class, method) declarations that can run
(`live`).  Both back ends read these:
`translate` emits a constructor for each instantiated class and a
function only for a live method, and dispatches each call among the
instantiated classes its receiver can be an object of; `mjinterp`
compiles only live methods.  Every method is
still checked, so a type error in one that never runs is reported.

The same walk records each `int[]` variable that a body reads other
than as `x[i]` or `x.length`, or assigns other than from `new int[e]`:
through such a use the array can be reached by another name.  Each
method's `int[]` locals with no such use cannot escape, and `typecheck`
stores them as `unboxed[(class, method)]`; `translate` keeps them out
of the store.

Rules beyond the obvious typing of operators:
  * single inheritance, no cycles, superclasses must exist
  * every type a declaration names (field, return, formal, local) is a
    declared class, int, boolean or int[]
  * the main class cannot be extended, instantiated, or named as a type
  * no overloading: a subclass method with a declared parent method's
    name must repeat its signature exactly (an override)
  * a subclass may not redeclare an inherited field name
  * locals and formals may shadow fields, but not each other
  * the main body has no variables in scope ('this' is also unavailable)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mjast import (
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
    IntArrayType,
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
    WhileStmt,
)
from .outcome import COMPILE_FRAMES, MAX_NESTING, extra_frames


class MjTypeError(SourceError):
    """A program that breaks a typing or declaration rule."""


@dataclass
class ClassInfo:
    """One class: its declaration, the methods declared here, and the
    members inheritance gives it, resolved by `build_class_table`."""

    name: str
    superclass: str | None
    decl: ClassDecl
    index: int
    methods: dict[str, MethodDecl] = field(default_factory=dict)
    # the root class first, this class last
    path: list[str] = field(default_factory=list)
    # every field, root class first: name -> (declaring class, type)
    all_fields: dict[str, tuple[str, MjType]] = field(default_factory=dict)
    # every method in slot order: name -> (implementing class, declaration)
    vtable: dict[str, tuple[str, MethodDecl]] = field(default_factory=dict)


class ClassTable:
    def __init__(self, main_name: str, classes: dict[str, ClassInfo]):
        self.main_name = main_name
        self.classes = classes
        # What a run can reach from main, filled in by `typecheck`: the
        # classes instantiated, the (static receiver class, method) pairs
        # called, and the (declaring class, method) declarations that can run.
        self.instantiated: set[str] = set()
        self.calls: set[tuple[str, str]] = set()
        self.live: set[tuple[str, str]] = set()
        # Each (class, method)'s `int[]` locals that cannot escape.
        self.unboxed: dict[tuple[str, str], frozenset[str]] = {}

    def info(self, name: str) -> ClassInfo:
        return self.classes[name]

    def has(self, name: str) -> bool:
        return name in self.classes

    def is_assignable(self, src: MjType, dst: MjType) -> bool:
        if isinstance(src, ClassType) and isinstance(dst, ClassType):
            return dst.name in self.classes[src.name].path
        return src == dst


def build_class_table(program: MjProgram) -> ClassTable:
    main_name = program.main.name
    classes: dict[str, ClassInfo] = {}
    children: dict[str, list[str]] = {}
    for index, decl in enumerate(program.classes):
        if decl.name == main_name or decl.name in classes:
            raise MjTypeError(decl.pos, f"duplicate class '{decl.name}'")
        classes[decl.name] = ClassInfo(decl.name, decl.superclass, decl, index)
        children[decl.name] = []

    for info in classes.values():
        sup = info.superclass
        if sup is None:
            continue
        if sup == main_name:
            raise MjTypeError(info.decl.pos,
                              f"cannot extend main class '{sup}'")
        if sup not in classes:
            raise MjTypeError(info.decl.pos, f"unknown superclass '{sup}'")
        children[sup].append(info.name)

    # This list, extended while it is walked, puts each class after its
    # superclass; the classes it misses have a cycle above them.
    order = [info for info in classes.values() if info.superclass is None]
    for info in order:
        order.extend(classes[child] for child in children[info.name])
    reached = {info.name for info in order}
    for info in classes.values():
        if info.name not in reached:
            raise MjTypeError(info.decl.pos,
                              f"inheritance cycle through '{info.name}'")
    table = ClassTable(main_name, classes)
    for info in order:
        _resolve(table, info)
    return table


def _resolve(table: ClassTable, info: ClassInfo) -> None:
    """Fill in the resolved members of a class whose superclass is
    resolved, checking its declarations against what it inherits."""
    if info.superclass is None:
        info.path = [info.name]
    else:
        parent = table.info(info.superclass)
        info.path = [*parent.path, info.name]
        if len(info.path) > MAX_NESTING:
            raise MjTypeError(info.decl.pos,
                              f"inheritance of class '{info.name}' nested too deeply")
        info.all_fields = dict(parent.all_fields)
        info.vtable = dict(parent.vtable)
    for fdecl in info.decl.fields:
        declared = info.all_fields.get(fdecl.name)
        if declared is not None:
            owner = declared[0]
            if owner == info.name:
                raise MjTypeError(fdecl.pos,
                                  f"duplicate field '{fdecl.name}' in class '{info.name}'")
            raise MjTypeError(
                fdecl.pos,
                f"field '{fdecl.name}' in class '{info.name}' "
                f"redeclares a field of class '{owner}'")
        _require_known_type(table, fdecl.var_type, fdecl.pos)
        info.all_fields[fdecl.name] = (info.name, fdecl.var_type)
    for mdecl in info.decl.methods:
        if mdecl.name in info.methods:
            raise MjTypeError(mdecl.pos,
                              f"duplicate method '{mdecl.name}' in class '{info.name}'")
        _require_known_type(table, mdecl.return_type, mdecl.pos)
        for formal in mdecl.formals:
            _require_known_type(table, formal.var_type, formal.pos)
        above = info.vtable.get(mdecl.name)
        if above is not None:
            _, parent_decl = above
            same = (len(parent_decl.formals) == len(mdecl.formals)
                    and all(a.var_type == b.var_type
                            for a, b in zip(parent_decl.formals, mdecl.formals))
                    and parent_decl.return_type == mdecl.return_type)
            if not same:
                raise MjTypeError(
                    mdecl.pos,
                    f"method '{mdecl.name}' in class '{info.name}' "
                    "changes the signature of the method it overrides")
        info.methods[mdecl.name] = mdecl
        info.vtable[mdecl.name] = (info.name, mdecl)


def _require_known_type(table: ClassTable, ty: MjType, pos: Pos) -> None:
    if isinstance(ty, ClassType) and not table.has(ty.name):
        raise MjTypeError(pos, f"unknown class '{ty.name}'")


# Each binary operator's (operand type, result type).
_BINARY_TYPES = {"&&": (BOOL, BOOL), "<": (INT, BOOL),
                 "+": (INT, INT), "-": (INT, INT), "*": (INT, INT)}


class _Checker:
    def __init__(self, table: ClassTable):
        self.table = table
        self.current_class: str | None = None
        # each variable in scope: its binding kind and its type
        self.scope: dict[str, tuple[str, MjType]] = {}
        # the start of the body being checked, and the nodes open in it
        self.start, self.depth = Pos(1, 1), 0
        # the classes the body instantiates and the (receiver class,
        # method) pairs it calls
        self.news: set[str] = set()
        self.calls: set[tuple[str, str]] = set()
        # the `int[]` variables the body reads other than as `x[i]` or
        # `x.length`, or assigns other than from `new int[e]`, and the
        # array operand of the `x[i]` or `x.length` being checked
        self.escaped: set[str] = set()
        self.cells: Expr | None = None

    # -- scope --------------------------------------------------------------

    def enter_method(self, cls: str, method: MethodDecl) -> None:
        self.current_class, self.start = cls, method.pos
        self.news, self.calls, self.escaped = set(), set(), set()
        self.scope = {fname: ("field", fty)
                      for fname, (_, fty) in self.table.info(cls).all_fields.items()}
        for formal in method.formals:
            if formal.name in self.scope and self.scope[formal.name][0] != "field":
                raise MjTypeError(formal.pos,
                                  f"duplicate parameter '{formal.name}'")
            self.scope[formal.name] = ("formal", formal.var_type)
        for local in method.local_vars:
            if local.name in self.scope and self.scope[local.name][0] != "field":
                raise MjTypeError(local.pos,
                                  f"'{local.name}' is already a parameter or local")
            _require_known_type(self.table, local.var_type, local.pos)
            self.scope[local.name] = ("local", local.var_type)

    def enter_main(self, main: MainClass) -> None:
        self.current_class, self.start = None, main.pos
        self.news, self.calls = set(), set()
        self.scope = {}

    def descend(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MjTypeError(self.start, "expressions or statements nested too deeply")

    def lookup(self, node: IdentExpr | AssignStmt | ArrayAssignStmt) -> MjType:
        """Bind the variable a node reads or writes; return its type."""
        entry = self.scope.get(node.name)
        if entry is None:
            raise MjTypeError(node.pos, f"undeclared variable '{node.name}'")
        node.binding, ty = entry
        return ty

    # -- expressions ----------------------------------------------------------

    def expr(self, e: Expr) -> MjType:
        self.descend()
        ty = self._expr(e)
        self.depth -= 1
        return ty

    def _expect(self, e: Expr, want: MjType, what: str) -> None:
        got = self.expr(e)
        if got != want:
            raise MjTypeError(e.pos, f"{what} must be {want}, got {got}")

    def _expr(self, e: Expr) -> MjType:
        if isinstance(e, IntLitExpr):
            return INT
        if isinstance(e, BoolLitExpr):
            return BOOL
        if isinstance(e, BinaryExpr):
            operand, result = _BINARY_TYPES[e.op]
            self._expect(e.left, operand, f"left operand of '{e.op}'")
            self._expect(e.right, operand, f"right operand of '{e.op}'")
            return result
        if isinstance(e, NotExpr):
            self._expect(e.operand, BOOL, "operand of '!'")
            return BOOL
        if isinstance(e, ArrayIndexExpr):
            self.cells = e.array
            self._expect(e.array, INT_ARRAY, "indexed value")
            self._expect(e.index, INT, "array index")
            return INT
        if isinstance(e, ArrayLengthExpr):
            self.cells = e.array
            self._expect(e.array, INT_ARRAY, "'.length' receiver")
            return INT
        if isinstance(e, IdentExpr):
            ty = self.lookup(e)
            if type(ty) is IntArrayType and e is not self.cells:
                self.escaped.add(e.name)
            return ty
        if isinstance(e, ThisExpr):
            if self.current_class is None:
                raise MjTypeError(e.pos, "'this' cannot be used in main")
            return ClassType(self.current_class)
        if isinstance(e, NewArrayExpr):
            self._expect(e.length, INT, "array length")
            return INT_ARRAY
        if isinstance(e, NewObjectExpr):
            if not self.table.has(e.class_name):
                raise MjTypeError(e.pos, f"unknown class '{e.class_name}'")
            self.news.add(e.class_name)
            return ClassType(e.class_name)
        if isinstance(e, CallExpr):
            recv = self.expr(e.receiver)
            if not isinstance(recv, ClassType):
                raise MjTypeError(e.pos,
                                  f"method call receiver must be an object, got {recv}")
            found = self.table.info(recv.name).vtable.get(e.method)
            if found is None:
                raise MjTypeError(e.pos,
                                  f"class '{recv.name}' has no method '{e.method}'")
            _, decl = found
            self.calls.add((recv.name, e.method))
            if len(e.args) != len(decl.formals):
                raise MjTypeError(
                    e.pos,
                    f"method '{e.method}' expects {len(decl.formals)} "
                    f"argument(s), got {len(e.args)}")
            for arg, formal in zip(e.args, decl.formals):
                got = self.expr(arg)
                if not self.table.is_assignable(got, formal.var_type):
                    raise MjTypeError(
                        arg.pos,
                        f"argument for '{formal.name}' must be "
                        f"{formal.var_type}, got {got}")
            e.receiver_class = recv.name
            return decl.return_type
        raise AssertionError(f"unhandled expression {type(e).__name__}")

    # -- statements -----------------------------------------------------------

    def stmt(self, s: Stmt) -> None:
        self.descend()
        if isinstance(s, BlockStmt):
            for sub in s.body:
                self.stmt(sub)
        elif isinstance(s, IfStmt):
            self._expect(s.cond, BOOL, "'if' condition")
            self.stmt(s.then_branch)
            self.stmt(s.else_branch)
        elif isinstance(s, WhileStmt):
            self._expect(s.cond, BOOL, "'while' condition")
            self.stmt(s.body)
        elif isinstance(s, PrintStmt):
            self._expect(s.value, INT, "println argument")
        elif isinstance(s, AssignStmt):
            ty = self.lookup(s)
            got = self.expr(s.value)
            if not self.table.is_assignable(got, ty):
                raise MjTypeError(s.value.pos,
                                  f"cannot assign {got} to '{s.name}' of type {ty}")
            if type(ty) is IntArrayType and type(s.value) is not NewArrayExpr:
                self.escaped.add(s.name)
        elif isinstance(s, ArrayAssignStmt):
            ty = self.lookup(s)
            if ty != INT_ARRAY:
                raise MjTypeError(s.pos,
                                  f"'{s.name}[...]=' requires int[], got {ty}")
            self._expect(s.index, INT, "array index")
            self._expect(s.value, INT, "assigned value")
        else:
            raise AssertionError(f"unhandled statement {type(s).__name__}")
        self.depth -= 1


def typecheck(program: MjProgram) -> ClassTable:
    """Check the whole program, annotate the AST, and return the class
    table with what a run can reach filled in (`_mark_live`)."""
    table = build_class_table(program)
    checker = _Checker(table)
    uses: dict[tuple[str, str] | None, tuple[set[str], set[tuple[str, str]]]] = {}
    with extra_frames(COMPILE_FRAMES):
        for info in table.classes.values():
            for method in info.decl.methods:
                checker.enter_method(info.name, method)
                for s in method.body:
                    checker.stmt(s)
                got = checker.expr(method.return_expr)
                if not table.is_assignable(got, method.return_type):
                    raise MjTypeError(
                        method.return_expr.pos,
                        f"return value must be {method.return_type}, got {got}")
                uses[info.name, method.name] = checker.news, checker.calls
                table.unboxed[info.name, method.name] = frozenset(
                    v.name for v in method.local_vars
                    if v.var_type == INT_ARRAY and v.name not in checker.escaped)
        checker.enter_main(program.main)
        for s in program.main.body:
            checker.stmt(s)
        uses[None] = checker.news, checker.calls
    _mark_live(table, uses)
    return table


def _mark_live(table: ClassTable, uses: dict) -> None:
    """Fill in what a run can reach: rapid type analysis (Bacon and
    Sweeney, 1996) from main (key None in `uses`, which maps each body to
    the classes it instantiates and the (receiver class, method) pairs it
    calls).

    A call (R, m) makes C's implementation of m live for each
    instantiated class C that is or extends R: the objects a call on an R
    receiver can reach, as `translate._targets` dispatches among them.
    Every implementation a call runs, in either back end, is live."""
    instantiated, called, live = table.instantiated, table.calls, table.live
    pending: list[tuple[str, str] | None] = [None]

    def reach(cls: str, method: str) -> None:
        impl = (table.info(cls).vtable[method][0], method)
        if impl not in live:
            live.add(impl)
            pending.append(impl)

    while pending:
        news, calls = uses[pending.pop()]
        for cls in news - instantiated:
            instantiated.add(cls)
            path = table.info(cls).path
            for receiver, method in called:
                if receiver in path:
                    reach(cls, method)
        for receiver, method in calls - called:
            called.add((receiver, method))
            for cls in instantiated:
                if receiver in table.info(cls).path:
                    reach(cls, method)
