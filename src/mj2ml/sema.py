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
(`calls`), apart from the calls on a `new C()`, which run C's
implementation alone, the (object class, method) pairs that calls
reach (`reached`), and the (declaring class, method) declarations
that can run (`live`).  Both back ends read these:
`translate` emits a constructor for each instantiated class and a
function only for a live method, matches its fields on the classes
whose objects calls reach it on, and dispatches each call among the
instantiated classes its receiver can be an object of; `mjinterp`
compiles only live methods.  Every method is
still checked, so a type error in one that never runs is reported.

Arrays and objects are decided per group (`ClassTable.group`): every
array is in one group, and the classes of one inheritance tree make
another, since a variable, and `this`, may hold an object of any class
below its own.  The same walk records each body's escape facts
(`_Body`): the groups of the variables it reads other than as an
operand (the array of `x[i]` or `x.length`, or a call's receiver) or
assigns other than from `new`, and of `this` used other than as a
receiver, through which an array or object can be reached by a second
name; the methods it calls on `this`; whether it writes a field; and
the groups whose arrays or objects it reads, and writes or allocates.
Beside `_mark_live`, `_mark_values` keeps a group in the store when a
field, a formal or a method result has one of its types, or a body that
can run lets one of its arrays or objects escape; every other group's
arrays and objects are ML values (`ClassTable.is_value`), which
`translate` keeps out of the store.  It then finds, by a fixpoint over
the calls on `this`, the `this_writers`: the methods whose
implementations in a value group may write a field of `this`, which
return the new `this` to their caller.  Last, `_mark_effects` gives
each live method one heap effect (`Effect`: none, reads or writes) by
a fixpoint over the calls, from the groups each body reads and writes
that are not values; `translate` passes the state only to a method that
reads or writes the heap, and takes a new one back only from one that
writes.

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
from enum import IntEnum
from typing import NamedTuple

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


class Effect(IntEnum):
    """What a method does to the heap, weakest first: it touches no heap
    cell, it only reads cells, or it may write or allocate one."""

    NONE = 0
    READS = 1
    WRITES = 2


class ClassTable:
    def __init__(self, main_name: str, classes: dict[str, ClassInfo]):
        self.main_name = main_name
        self.classes = classes
        # What a run can reach from main, filled in by `typecheck`: the
        # classes instantiated, the (static receiver class, method) pairs
        # called, the (object class, method) pairs that calls reach, and
        # the (declaring class, method) declarations that can run.
        self.instantiated: set[str] = set()
        self.calls: set[tuple[str, str]] = set()
        self.reached: set[tuple[str, str]] = set()
        self.live: set[tuple[str, str]] = set()
        # The groups whose arrays or objects cannot escape (`_mark_values`),
        # and the (root class, method) pairs of such groups whose
        # implementations may write a field of `this`.
        self.values: frozenset[str] = frozenset()
        self.this_writers: set[tuple[str, str]] = set()
        # The heap effect of each (root class, method) pair with a live
        # implementation (`_mark_effects`).
        self.effects: dict[tuple[str, str], Effect] = {}

    def info(self, name: str) -> ClassInfo:
        return self.classes[name]

    def has(self, name: str) -> bool:
        return name in self.classes

    def group(self, ty: MjType) -> str:
        """The group of a type: for a class, the root class of its
        inheritance tree, since a variable of the class may hold an object
        of any class below it; for any other type, its own name."""
        return self.classes[ty.name].path[0] if isinstance(ty, ClassType) else str(ty)

    def is_value(self, ty: MjType) -> bool:
        """Whether an array or object of type ty is an ML value rather
        than a heap cell: its group cannot escape."""
        return self.group(ty) in self.values

    def writes_this(self, cls: str, method: str) -> bool:
        """Whether a call of method on a cls value returns the new `this`."""
        return (self.group(ClassType(cls)), method) in self.this_writers

    def effect(self, cls: str, method: str) -> Effect:
        """The heap effect of a call of method on a cls receiver, shared
        by every implementation of it in cls's group."""
        return self.effects.get((self.group(ClassType(cls)), method), Effect.NONE)

    def targets(self, cls: str, method: str) -> dict[str, str]:
        """Each instantiated class that is or extends cls, in declaration
        order, mapped to the class whose implementation of method its
        objects run: the objects a call on a cls receiver can reach."""
        return {c: info.vtable[method][0] for c, info in self.classes.items()
                if c in self.instantiated and cls in info.path}

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
        # the classes the body instantiates, the (receiver class, method)
        # pairs it calls, and the (class, method) pairs it calls on a
        # `new` object of that class
        self.news: set[str] = set()
        self.calls: set[tuple[str, str]] = set()
        self.exact_calls: set[tuple[str, str]] = set()
        # the groups of the variables the body reads other than as an
        # operand, or assigns other than from `new`, and of `this` used
        # other than as an operand; the operand being checked, the array
        # of an `x[i]` or `x.length` or the receiver of a call; the
        # methods the body calls on `this`; and whether it writes a field
        self.escapes: set[str] = set()
        self.operand: Expr | None = None
        self.this_calls: set[str] = set()
        self.writes_field = False
        # the groups whose arrays or objects the body reads, and those it
        # writes or allocates, whether or not they are heap cells; the
        # group of arrays, and of `this`
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.arrays = table.group(INT_ARRAY)
        self.this_group: str | None = None

    # -- scope --------------------------------------------------------------

    def enter_body(self, cls: str | None, pos: Pos) -> None:
        self.current_class, self.start = cls, pos
        self.this_group = None if cls is None else self.table.group(ClassType(cls))
        self.news, self.calls, self.exact_calls = set(), set(), set()
        self.escapes, self.this_calls, self.writes_field = set(), set(), False
        self.reads, self.writes = set(), set()

    def body(self) -> "_Body":
        """What the body just checked instantiates, calls and does with
        arrays and objects."""
        return _Body(self.news, self.calls, self.exact_calls, self.escapes, self.this_calls,
                     self.writes_field, self.reads, self.writes)

    def enter_method(self, cls: str, method: MethodDecl) -> None:
        self.enter_body(cls, method.pos)
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
        self.enter_body(None, main.pos)
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
            self.operand = e.array
            self._expect(e.array, INT_ARRAY, "indexed value")
            self._expect(e.index, INT, "array index")
            self.reads.add(self.arrays)
            return INT
        if isinstance(e, ArrayLengthExpr):
            self.operand = e.array
            self._expect(e.array, INT_ARRAY, "'.length' receiver")
            self.reads.add(self.arrays)
            return INT
        if isinstance(e, IdentExpr):
            ty = self.lookup(e)
            if e is not self.operand:
                self.escapes.add(self.table.group(ty))
            if e.binding == "field":
                self.reads.add(self.this_group)
            return ty
        if isinstance(e, ThisExpr):
            if self.current_class is None:
                raise MjTypeError(e.pos, "'this' cannot be used in main")
            ty = ClassType(self.current_class)
            if e is not self.operand:
                self.escapes.add(self.table.group(ty))
            return ty
        if isinstance(e, NewArrayExpr):
            self._expect(e.length, INT, "array length")
            self.writes.add(self.arrays)
            return INT_ARRAY
        if isinstance(e, NewObjectExpr):
            if not self.table.has(e.class_name):
                raise MjTypeError(e.pos, f"unknown class '{e.class_name}'")
            self.news.add(e.class_name)
            ty = ClassType(e.class_name)
            self.writes.add(self.table.group(ty))
            return ty
        if isinstance(e, CallExpr):
            self.operand = e.receiver
            recv = self.expr(e.receiver)
            if not isinstance(recv, ClassType):
                raise MjTypeError(e.pos,
                                  f"method call receiver must be an object, got {recv}")
            found = self.table.info(recv.name).vtable.get(e.method)
            if found is None:
                raise MjTypeError(e.pos,
                                  f"class '{recv.name}' has no method '{e.method}'")
            _, decl = found
            if isinstance(e.receiver, NewObjectExpr):
                self.exact_calls.add((recv.name, e.method))
            else:
                self.calls.add((recv.name, e.method))
            if isinstance(e.receiver, ThisExpr):
                self.this_calls.add(e.method)
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
            if type(s.value) not in (NewArrayExpr, NewObjectExpr):
                self.escapes.add(self.table.group(ty))
            if s.binding == "field":
                self.writes_field = True
                self.writes.add(self.this_group)
        elif isinstance(s, ArrayAssignStmt):
            ty = self.lookup(s)
            if ty != INT_ARRAY:
                raise MjTypeError(s.pos,
                                  f"'{s.name}[...]=' requires int[], got {ty}")
            self._expect(s.index, INT, "array index")
            self._expect(s.value, INT, "assigned value")
            if s.binding == "field":
                self.reads.add(self.this_group)
            self.writes.add(self.arrays)
        else:
            raise AssertionError(f"unhandled statement {type(s).__name__}")
        self.depth -= 1


def typecheck(program: MjProgram) -> ClassTable:
    """Check the whole program, annotate the AST, and return the class
    table with what a run can reach filled in (`_mark_live`)."""
    table = build_class_table(program)
    checker = _Checker(table)
    bodies: dict[tuple[str, str] | None, _Body] = {}
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
                bodies[info.name, method.name] = checker.body()
        checker.enter_main(program.main)
        for s in program.main.body:
            checker.stmt(s)
        bodies[None] = checker.body()
    _mark_live(table, bodies)
    _mark_values(table, bodies)
    _mark_effects(table, bodies)
    return table


class _Body(NamedTuple):
    """What a body does, as the checker records it: the classes it
    instantiates, the (receiver class, method) pairs it calls, those it
    calls on a `new` object of the receiver class, the groups
    whose arrays or objects it lets escape, the methods it calls on
    `this`, whether it writes a field of `this`, the groups whose arrays
    or objects it reads, and those it writes or allocates."""

    news: set[str]
    calls: set[tuple[str, str]]
    exact_calls: set[tuple[str, str]]
    escapes: set[str]
    this_calls: set[str]
    writes_field: bool
    reads: set[str]
    writes: set[str]


def _mark_live(table: ClassTable, bodies: dict[tuple[str, str] | None, _Body]) -> None:
    """Fill in what a run can reach: rapid type analysis (Bacon and
    Sweeney, 1996) from main (key None in `bodies`), from the classes
    each body instantiates and the (receiver class, method) pairs it
    calls.

    A call (R, m) makes C's implementation of m live for each
    instantiated class C that is or extends R: the objects a call on an R
    receiver can reach, as `translate._targets` dispatches among them.
    A call on `new C()` makes only C's implementation live: the object
    is a C.  Every implementation a call runs, in either back end, is
    live, and each (object class, method) pair a call reaches is
    `reached`: the receivers whose objects run it."""
    instantiated, called, live = table.instantiated, table.calls, table.live
    pending: list[tuple[str, str] | None] = [None]

    def reach(cls: str, method: str) -> None:
        table.reached.add((cls, method))
        impl = (table.info(cls).vtable[method][0], method)
        if impl not in live:
            live.add(impl)
            pending.append(impl)

    while pending:
        body = bodies[pending.pop()]
        for cls, method in body.exact_calls:
            reach(cls, method)
        for cls in body.news - instantiated:
            instantiated.add(cls)
            path = table.info(cls).path
            for receiver, method in called:
                if receiver in path:
                    reach(cls, method)
        for receiver, method in body.calls - called:
            called.add((receiver, method))
            for cls in instantiated:
                if receiver in table.info(cls).path:
                    reach(cls, method)


def _mark_values(table: ClassTable, bodies: dict[tuple[str, str] | None, _Body]) -> None:
    """Fill in the groups whose arrays and objects cannot escape, and
    the methods of their classes that may write a field of `this`
    (escape analysis: Choi et al., OOPSLA 1999; object inlining: Dolby
    and Chien, PLDI 2000), from each body that can run
    (`ClassTable.live`, and main).

    A group, all arrays or the classes of one inheritance tree, stays in
    the store when a field, formal or method result of any class has one
    of its types, or a body that can run lets one of its arrays or
    objects escape (`_Body.escapes`).  Otherwise every reference to one
    is a local assigned from `new`, or `this`, and each is read only as
    an operand, so none has two names: each is a value.  A method of a
    value class writes `this` when one of its
    implementations that can run assigns a field, or calls on `this` a
    method that writes it; that fixpoint is found by sweeping the bodies
    until no pair is added."""
    types = [INT_ARRAY, *map(ClassType, table.classes)]
    declared = []
    for info in table.classes.values():
        declared += [f.var_type for f in info.decl.fields]
        for method in info.decl.methods:
            declared += [method.return_type, *(f.var_type for f in method.formals)]
    boxed = set(map(table.group, declared))
    boxed = boxed.union(*(bodies[key].escapes for key in [None, *table.live]))
    table.values = frozenset(map(table.group, types)) - boxed
    methods = [(table.group(ClassType(cls)), method, bodies[cls, method])
               for cls, method in table.live if table.is_value(ClassType(cls))]
    writers = table.this_writers
    writers.update((group, method) for group, method, body in methods if body.writes_field)
    grown = True
    while grown:
        grown = False
        for group, method, body in methods:
            if (group, method) not in writers and any(
                    (group, called) in writers for called in body.this_calls):
                writers.add((group, method))
                grown = True


def _mark_effects(table: ClassTable, bodies: dict[tuple[str, str] | None, _Body]) -> None:
    """Fill in the heap effect of each live method (an effect system:
    Lucassen and Gifford, POPL 1988), which `translate` reads to thread
    the state only through code that touches it (Wadler and Thiemann,
    TOCL 2003).

    A body writes when it writes or allocates an array or object of a
    group that is not a value (`_mark_values`), and reads when it reads
    one, or calls on such a receiver a method that runs more than one
    implementation, which `translate` dispatches by reading the object.
    Its calls add their callees' effects.  Every implementation of a
    method in one group shares one effect, the strongest of them, so a
    call's targets all take and return the same: a fixpoint found by
    sweeping the live bodies until no effect grows."""
    values, classes = table.values, table.classes
    dispatch_reads = {(r, m) for r, m in table.calls if classes[r].path[0] not in values
                      and len(set(table.targets(r, m).values())) > 1}
    effects = table.effects
    calls = []
    for cls, method in table.live:
        body = bodies[cls, method]
        if not body.writes <= values:
            own = Effect.WRITES
        elif not body.reads <= values or not body.calls.isdisjoint(dispatch_reads):
            own = Effect.READS
        else:
            own = Effect.NONE
        key = classes[cls].path[0], method
        effects[key] = max(effects.get(key, Effect.NONE), own)
        callees = {(classes[r].path[0], m) for r, m in body.calls | body.exact_calls}
        if callees:
            calls.append((key, callees))
    grown = True
    while grown:
        grown = False
        for key, callees in calls:
            for callee in callees:
                effect = effects.get(callee, Effect.NONE)
                if effect > effects[key]:
                    effects[key] = effect
                    grown = True
