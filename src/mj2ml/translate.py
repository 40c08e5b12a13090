"""Translation from MiniJava to the pure core ML fragment.

The generated program threads a heap value through every computation
instead of using mutable state.  How that value, and each array in it,
is encoded is the `store` module's alone.

Objects hold only their fields.  For each class C a run can
instantiate, the heap's values have one constructor ``HObj_C`` of all
of C's fields, the root class's first (`ClassInfo.all_fields`, the
layout `mjinterp` uses too), so an object's constructor names its
class.  A field of `this` is read or written by matching the object
with one rule for each class whose objects run the method being
translated: its receiver classes.  A write rebuilds the object around
the changed field.

An object is a heap cell, reached through a pointer, only if it can
escape.  The objects of a class in `ClassTable.value_classes`, which
`sema` finds, can be reached by one name at a time: a local assigned
only from `new`, or `this`, each read only as a call receiver.  Such an
object is its ``HObj_C`` value itself, as an unshared array is (escape
analysis with scalar replacement, Choi et al., OOPSLA 1999; object
inlining, Dolby and Chien, PLDI 2000): `new C()` is the value, with
no constructor function and no allocation, `this` is passed by value,
and a field of `this` is read by a `case` on the current version of
``mj_this``, once per version whatever the state.  A write binds the
rebuilt object as the next version of `this`, ``mj_this_<n>``, and a
method that may write a field of `this`, itself or through a call on
`this` (`ClassTable.writes_this`), returns the new `this` beside its
result; the caller binds it as the next version of the local, or of
`this`, that held the receiver, and joins and loops carry it like any
variable.  Before its first assignment such a local is
`store.NULL_OBJECT`, which no call matches.  An object of any other
class, the corpus's lists, trees and visitors, is a heap cell: made by
its constructor function, read with `store.lookup` and written back with
`store.update`.

Calls are dispatched statically, so the emitted program has no function
values.  Rapid type analysis (see `sema`) gives the classes a run can
instantiate, and of those, the ones a call's receiver can be an object
of.  When all of them run the same implementation, as nearly every call
does, the call is a known call of it if the receiver cannot be null:
`this`, a `new` object, or a variable whose current version was bound
from `new`, or from a call that wrote it, in the same function (never a
join's version or a loop's parameter, which may hold another value).
A call on a heap object that may be null is a known call behind
`store.null_check`.  Otherwise the call matches the receiver's class
on its constructor, with one rule, a known call, for each class: a
value receiver is matched itself, after the arguments, which may write
it, and its null matches no rule; a heap receiver is read from the heap.

Statements become let bindings in evaluation order, one binding per
intermediate value (administrative normal form).  An assignment binds its
value directly to a fresh version ``mj_<x>_<n>`` of the variable, like a
value in SSA form (Appel, "SSA is Functional Programming", 1998).  The
versions are numbered as the translation goes, and the joins come from
them (SSA construction on the fly, as in "Simple and Efficient
Construction of Static Single Assignment Form", CC 2013): an `if` join
carries, in a tuple, the state and the variables whose version either
branch changed that are live after it.  A while loop is a top-level
tail-recursive function ``mj_loop<k>``, lambda-lifted (Johnsson, 1985).
Its condition and body are translated with every variable under its
name at loop entry; it then takes the state, the variables its
condition or body assigned that are live at its head, the others it
read and `this` if it read `this` or a field, all under those names,
and returns the state and the variables assigned that are live after
it.  A call in a condition, or in the right operand of `&&`, that
writes its value receiver assigns that variable too.

Only what is live is emitted.  Before a method is translated,
`_liveness` sweeps its MiniJava body backwards and finds the variables
live after each statement (Appel, *Modern Compiler Implementation*,
ch. 10); on the SSA versions this is which bindings something reads.
A method that returns its new `this` has `this` live throughout.
An assignment to a variable dead after it binds no version: a value
that can neither fault nor touch the state (`_pure`: a literal, a
variable, `this`, a field of `this`, and `<`, `!` or `&&` of those)
emits nothing, and any other part of it (`_effects`: arithmetic, which
can overflow, an array access, `.length`, `new` or a call) is still
evaluated, its value bound to `_`, so its faults and allocations stay.
The condition of an `if` or `while` that is `<` is compared in the ML
`if` itself, and one that is `!e` tests e with the branches swapped:
neither binds a boolean first.  Each state name
is bound once too, so a heap cell read in a state is read once and its
value reused until the state changes.  A run of bindings whose last one
binds exactly the value the run ends with, as a call's (state, value) or
a join's tuple can, ends in that binding's right-hand side instead: a
method that returns what a call returns, or an `if` branch whose last
statement assigns what a call returns, ends in the call.

Arrays are heap cells, reached through a pointer, unless they are
unshared.  An `int[]` local whose only uses are ``x = new int[e]``,
``x[i]``, ``x[i] = v`` and ``x.length`` cannot be reached by any other
name (`ClassTable.unboxed`, which `sema` finds while it checks the
method), so it is the array value itself, threaded by the method like an
`int` local: each write binds a new version of it, and joins and loops
carry it (escape analysis for Java: Choi et al. and Blanchet, OOPSLA
1999).  Before its first assignment it is `store.NULL_ARRAY`, on which
every array access fails to match, as one through a null pointer does.
Any other array, a field, a formal, or a local that is copied, passed,
returned or stored in a field, is a heap cell.  A local's default value
is bound only if some path reads it.

Every generated function takes and returns the state: methods are
``fn (state, self, args) -> (state, result)`` where args is (), a bare
value, or a tuple by arity, and a method that writes its value object
returns ``(state, self', result)``; constructors are state ->
(state, pointer); ``mj_main`` is unit -> state and returns the final
state.  Only what a run can reach is emitted (see `sema`): a constructor
for each class instantiated whose objects are heap cells, and a
function for each live method.  The implementation a call runs for an
instantiated class is live, so each known call names an emitted
function.

Each of these decisions is written once.  `_Ctx` holds the ANF binders
and the state threading: `bind` for an intermediate value, `bind_state`
for the (state, value) of a call that returns a new state,
`carried`/`join` for the tuple of branch joins and loops, `changed` for
the variables they carry, and `wrap` for the end of a run.  `_lookup`
reads the heap once per cell and state, `_read_field` a field of
`this` once per state for a cell and once per version for a value, and
`_store` writes a cell and makes the new state current; field writes
of cells and array writes both go through it, as every array read goes
through `_array`.  The object layout is each class's `all_fields`, which
the datatypes, `new_object` and the field and dispatch patterns
(`_object`) all read.  `_call` dispatches.  Every heap and array access is
built by `store`, whose prelude of helpers each translation starts
with.  What each `if` and `while` assigns and reads is found by
translating it: a variable's version tells whether it was assigned, and
`_Ctx.log` which variables were read; what is live after it, by
`_liveness` before the translation.  `_test` builds every condition.

Translation runs within `outcome.COMPILE_FRAMES` Python frames beyond
its caller's, which any program that typechecks fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator

from .mjast import (
    BOOL,
    INT,
    ArrayAssignStmt,
    ArrayIndexExpr,
    ArrayLengthExpr,
    AssignStmt,
    BinaryExpr,
    BlockStmt,
    BoolLitExpr,
    CallExpr,
    ClassType,
    Expr,
    IdentExpr,
    IfStmt,
    IntLitExpr,
    MethodDecl,
    MjProgram,
    MjType,
    NewArrayExpr,
    NewObjectExpr,
    NotExpr,
    PrintStmt,
    Stmt,
    ThisExpr,
    WhileStmt,
)
from .mlast import (
    PRINT,
    TY_BOOL,
    TY_INT,
    App,
    Case,
    Con,
    DataCon,
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
    TyTuple,
    Val,
    Var,
)
from . import store
from .outcome import COMPILE_FRAMES, extra_frames
from .sema import ClassTable, typecheck


def _enc(name: str) -> str:
    # Doubling keeps every underscore run in a source name even-length, so
    # the single-underscore separators before versions and after family
    # prefixes can never be mistaken for part of the name.
    return name.replace("_", "__")


def mangle_var(name: str, version: int) -> str:
    return f"mj_{_enc(name)}_{version}"


def mangle_method(class_index: int, name: str) -> str:
    return f"mj_m{class_index}_{_enc(name)}"


def mangle_new(class_name: str) -> str:
    return f"mj_new_{_enc(class_name)}"


def _version_name(var: str, version: int) -> str:
    """The ML name of a version of a variable, or of `this` (a keyword,
    so no variable's name): ``mj_this`` on entry, as a method takes it."""
    return "mj_this" if (var, version) == ("this", 0) else mangle_var(var, version)


def _ml_value_ty(ty: MjType) -> MlType:
    """ML type of a MiniJava value: bools stay bools, all else is int
    (numbers are numbers, arrays and objects are pointers)."""
    return TY_BOOL if ty == BOOL else TY_INT


def _default_value(ty: MjType) -> MlExpr:
    if ty == INT:
        return IntLit(0)
    if ty == BOOL:
        return Con("false")
    return IntLit(store.NULL_PTR)


def _tup(items: list[MlExpr]) -> MlExpr:
    """Tuple of the items: none is unit, a single item stays bare
    (1-tuples do not exist)."""
    return items[0] if len(items) == 1 else Tuple(tuple(items))


def _ptup(items: list[Pat]) -> Pat:
    return items[0] if len(items) == 1 else PTuple(tuple(items))


def _payload_ty(items: list[MlType]) -> MlType:
    """Type of `_tup(items)`: none is unit, a single item stays bare."""
    return items[0] if len(items) == 1 else TyTuple(tuple(items))


def _reads(e: Expr) -> frozenset[str]:
    """The variables, locals and formals, that e reads."""
    if isinstance(e, IdentExpr):
        return frozenset(() if e.binding == "field" else (e.name,))
    if isinstance(e, BinaryExpr):
        return _reads(e.left) | _reads(e.right)
    if isinstance(e, NotExpr):
        return _reads(e.operand)
    if isinstance(e, ArrayLengthExpr):
        return _reads(e.array)
    if isinstance(e, NewArrayExpr):
        return _reads(e.length)
    if isinstance(e, ArrayIndexExpr):
        return _reads(e.array) | _reads(e.index)
    if isinstance(e, CallExpr):
        return _reads(e.receiver).union(*map(_reads, e.args))
    return frozenset()


def _pure(e: Expr) -> bool:
    """Whether e can neither fault nor touch the state: a literal, a
    variable, a field of `this`, `this`, or `<`, `!` or `&&` of those.
    Arithmetic can overflow, and array accesses, `new` and calls can
    fault or change the state."""
    if isinstance(e, (IntLitExpr, BoolLitExpr, IdentExpr, ThisExpr)):
        return True
    if isinstance(e, NotExpr):
        return _pure(e.operand)
    return isinstance(e, BinaryExpr) and e.op in ("<", "&&") and _pure(e.left) and _pure(e.right)


def _effects(e: Expr) -> Iterator[Expr]:
    """The parts of e still evaluated, in order, when nothing reads its
    value: none of a `_pure` one, those of the operands of `<` and `!`
    and of `&&` with a pure right operand, and any other e itself."""
    if _pure(e):
        return
    if isinstance(e, NotExpr):
        yield from _effects(e.operand)
    elif isinstance(e, BinaryExpr) and (e.op == "<" or e.op == "&&" and _pure(e.right)):
        yield from _effects(e.left)
        yield from _effects(e.right)
    else:
        yield e


def _liveness(body: list[Stmt], live: frozenset[str]) -> dict[int, frozenset[str]]:
    """The variables live after each statement of `body`, and of the
    statements it holds, by the statement's id, when `live` are live after
    the body.  A variable is live where some path may read it before
    writing it (Appel, *Modern Compiler Implementation*, ch. 10), and
    only the reads the translation emits count: an assignment to a
    variable dead after it evaluates only its value's `_effects`, so the
    rest of its value reads nothing.

    Each block is swept backwards.  Before an `if` are live its
    condition's reads and what is live before either branch.  Before a
    loop, where its condition is tested, are live its head set: what is
    live after the loop, the condition's reads and what is live before
    its body.  The body is swept with the head set live after it until
    the set stops growing, so the set is also what is live after the
    body.  Sets only grow as the sweeps go, so a loop reached again by
    an enclosing loop's sweep starts from the head set it reached
    before, and is not swept at all if what is live after it has not
    changed: a loop is swept about as often as its sets grow, not once
    per sweep of each loop around it."""
    after: dict[int, frozenset[str]] = {}
    # each loop's last live-after set and the head set it gave
    heads: dict[int, tuple[frozenset[str], frozenset[str]]] = {}

    def before(s: Stmt, live: frozenset[str]) -> frozenset[str]:
        after[id(s)] = live
        if isinstance(s, BlockStmt):
            for sub in reversed(s.body):
                live = before(sub, live)
            return live
        if isinstance(s, PrintStmt):
            return live | _reads(s.value)
        if isinstance(s, AssignStmt):
            if s.binding != "field":
                if s.name not in live:
                    return live.union(*map(_reads, _effects(s.value)))
                live = live - {s.name}
            return live | _reads(s.value)
        if isinstance(s, ArrayAssignStmt):
            array = () if s.binding == "field" else (s.name,)
            return live.union(array, _reads(s.index), _reads(s.value))
        if isinstance(s, IfStmt):
            return (_reads(s.cond) | before(s.then_branch, live)
                    | before(s.else_branch, live))
        if isinstance(s, WhileStmt):
            last = heads.get(id(s))
            if last and last[0] == live:
                return last[1]
            head = (last[1] if last else frozenset()) | live | _reads(s.cond)
            while (grown := before(s.body, head) | head) != head:
                head = grown
            heads[id(s)] = live, head
            return head
        raise AssertionError(f"unhandled statement {type(s).__name__}")

    for s in reversed(body):
        live = before(s, live)
    return after


# The name that `_Ctx.bind` binds to `_`: a value computed for its faults
# and effects alone, which nothing reads.
_DISCARD = "_"


def _pvar(name: str) -> Pat:
    return PWild() if name == _DISCARD else PVar(name)


def _as_expr(pat: Pat) -> MlExpr | None:
    """A pattern of variables and tuples read as an expression; None for
    any other pattern."""
    if isinstance(pat, PVar):
        return Var(pat.name)
    if isinstance(pat, PTuple):
        items = tuple(map(_as_expr, pat.items))
        return None if None in items else Tuple(items)
    return None


@dataclass
class _FnScope:
    """Counters and variable bookkeeping for one generated function, the
    classes whose objects run it, on which a field of `this` is matched
    (none in main), whether those objects are values rather than heap
    cells (`ClassTable.value_classes`), the array locals it keeps out of
    the store (`ClassTable.unboxed`), and the variables live after each
    of its statements (`_liveness`).  A method's `var_order` ends in
    "this", whose versions a value object's method binds as it writes
    fields.  `initial` collects the variables read at version 0: a
    local's default is bound only if it is read."""

    var_order: list[str]
    unboxed: frozenset[str]
    receivers: list[str]
    live: dict[int, frozenset[str]]
    value_this: bool = False
    next_temp: int = 0
    next_state: int = 1
    maxver: dict[str, int] = dc_field(init=False)
    initial: set[str] = dc_field(default_factory=set)

    def __post_init__(self) -> None:
        self.maxver = dict.fromkeys(self.var_order, 0)

    def fresh_temp(self) -> str:
        name = f"mj_v{self.next_temp}"
        self.next_temp += 1
        return name

    def fresh_state(self) -> str:
        name = f"mj_s{self.next_state}"
        self.next_state += 1
        return name

    def fresh_version(self, var: str) -> int:
        self.maxver[var] += 1
        return self.maxver[var]


@dataclass
class _Ctx:
    """A straight-line run of declarations, the current state name, the
    current version of every variable, and the heap values known in the
    current state.  Branches get their own copy.

    The bindings of the ANF translation go through these methods: `bind`
    names one intermediate value, `bind_state` the (state, value) pair of
    a call that returns a new state, and `join` the (state, variables...)
    tuple that `carried` builds at the end of branches and loop bodies.
    A join holds the state and only the variables whose version some
    branch changed (`changed`), in `var_order`; every other variable
    keeps its version.

    `log` collects the variables read, by `var_atom`, and "this" (a
    keyword, so no variable's name) wherever `this()` emits a version of it.
    Branches share it, and each loop starts its own: what a loop's
    condition and body read, and so the calls of the loops they hold, is
    what the loop takes (`_Translator._while`).

    `reads` maps a pointer atom to the atom holding its heap value in the
    current state: `_lookup` reuses it and `_store` records the value it
    wrote.  It also maps a field's name to the atom holding that field
    of `this`, which `_read_field` reuses.  A heap lookup and a
    field's `case` are pure, so a second read of the same pointer or
    field in the same state would give the same value (and never runs if
    the first faulted).  Every new state, from a call, an allocation, a
    store or a join, goes through `advance`, which empties the map; a
    loop's state parameter starts a `_Ctx` of its own.  `fields` maps a
    (version of a value `this`, field name) pair to the atom holding that
    field: a value never changes, so what is known of a version holds
    whatever the state, and each new version is a new key.

    `allocated` holds the atoms bound from a `new` object, or from the
    new value a call returns for its receiver, in this run or the runs
    before it: never null, so a call on one needs no null check.  A loop starts with none, since its parameters take the
    names of the caller's versions but, after the first round, other
    values; a join binds fresh versions, which are never in it."""

    fn: _FnScope
    versions: dict[str, int]
    state: str
    reads: dict[object, MlExpr] = dc_field(default_factory=dict)
    log: set[str] = dc_field(default_factory=set)
    bindings: list[Val] = dc_field(default_factory=list)
    allocated: set[MlExpr] = dc_field(default_factory=set)
    fields: dict[tuple[MlExpr, str], MlExpr] = dc_field(default_factory=dict)

    def branch(self) -> "_Ctx":
        return _Ctx(self.fn, dict(self.versions), self.state, dict(self.reads), self.log,
                    allocated=set(self.allocated), fields=dict(self.fields))

    def advance(self) -> str:
        """Make a fresh state current, with nothing read from it yet."""
        self.state = self.fn.fresh_state()
        self.reads = {}
        return self.state

    def emit(self, pat: Pat, rhs: MlExpr) -> None:
        self.bindings.append(Val(pat, rhs))

    def wrap(self, result: MlExpr) -> MlExpr:
        """The run's declarations around `result`.  A last one that binds
        exactly `result`, as a call's (state, value) or a join's tuple
        does, is left out, and the run ends in its right-hand side."""
        bindings = self.bindings
        if bindings and _as_expr(bindings[-1].pat) == result:
            bindings, result = bindings[:-1], bindings[-1].rhs
        return Let(tuple(bindings), result) if bindings else result

    def bind(self, rhs: MlExpr, name: str | None = None) -> MlExpr:
        """Bind rhs to `name`, or to a fresh temporary, and return it.
        `_DISCARD` binds it to `_`: it is evaluated only for its faults."""
        name = name or self.fn.fresh_temp()
        self.emit(_pvar(name), rhs)
        return Var(name)

    def bind_state(self, rhs: MlExpr, name: str | None = None,
                   this: Pat | None = None) -> MlExpr:
        """Bind the (state, value) that rhs returns, or with `this` the
        (state, new this, value) of a call that writes its receiver, to
        that pattern; the state becomes current and the value, named as
        by `bind`, is returned."""
        state = self.advance()
        name = name or self.fn.fresh_temp()
        receiver = () if this is None else (this,)
        self.emit(PTuple((PVar(state), *receiver, _pvar(name))), rhs)
        return Var(name)

    def new_version(self, name: str) -> Var:
        """Make a fresh version of a variable, or of "this", current."""
        self.versions[name] = self.fn.fresh_version(name)
        return Var(_version_name(name, self.versions[name]))

    def var_atom(self, name: str) -> Var:
        version = self.versions[name]
        if version == 0:
            self.fn.initial.add(name)
        self.log.add(name)
        return Var(mangle_var(name, version))

    def this(self) -> Var:
        self.log.add("this")
        return Var(_version_name("this", self.versions["this"]))

    def atom(self, name: str) -> Var:
        """The atom of a variable, or of `this` for "this"."""
        return self.this() if name == "this" else self.var_atom(name)

    def changed(self, *branches: "_Ctx") -> list[str]:
        """The variables whose version some branch changed, in `var_order`."""
        return [x for x, v in self.versions.items() if any(b.versions[x] != v for b in branches)]

    def carried(self, names: list[str]) -> MlExpr:
        """The (state, atoms...) tuple of the named variables, and of
        `mj_this` for "this", that a join or loop carries."""
        return _tup([Var(self.state), *map(self.atom, names)])

    def join(self, rhs: MlExpr, names: list[str], *value: Pat) -> None:
        """Bind the `carried` tuple of the named variables that rhs
        returns, and then its `value` if given: a fresh state and fresh
        versions become current."""
        self.advance()
        versions = [PVar(self.new_version(x).name) for x in names]
        self.emit(_ptup([PVar(self.state), *versions, *value]), rhs)


class _Translator:
    def __init__(self, table: ClassTable):
        self.table = table
        # the translated loops, numbered across the program
        self.loops: list[FunDef] = []
        # whether some method binds an unboxed array local's null, or a
        # value object local's
        self.null_array = self.null_object = False

    # -- objects ----------------------------------------------------------------

    def datatypes(self) -> list[DataType]:
        return store.datatypes([
            DataCon(f"HObj_{_enc(c)}",
                    _payload_ty([_ml_value_ty(ty) for _, ty in info.all_fields.values()]))
            for c, info in self.table.classes.items() if c in self.table.instantiated],
            self.null_array, self.null_object)

    def _object(self, make, cls: str, item):
        """The object, or with `make` = PCon the pattern, of class cls:
        `HObj_<cls>` of `item(field)` for each of its fields, the root
        class's first."""
        return make(f"HObj_{_enc(cls)}", tuple(map(item, self.table.info(cls).all_fields)))

    def new_object(self, cls: str) -> MlExpr:
        """A new object of class cls, every field at its default."""
        fields = self.table.info(cls).all_fields
        return self._object(Con, cls, lambda f: _default_value(fields[f][1]))

    def constructor(self, cls: str) -> FunDef:
        """The function that allocates a new heap object of class cls."""
        return FunDef(mangle_new(cls), PVar("mj_s0"),
                      store.alloc(Var("mj_s0"), self.new_object(cls)))

    # -- heap access ----------------------------------------------------------

    def _lookup(self, ctx: _Ctx, ptr: MlExpr) -> MlExpr:
        """The heap value at ptr: the one known in this state, else a
        fresh binding of it."""
        if ptr not in ctx.reads:
            ctx.reads[ptr] = ctx.bind(store.lookup(Var(ctx.state), ptr))
        return ctx.reads[ptr]

    def _store(self, ctx: _Ctx, ptr: MlExpr, value: MlExpr) -> None:
        """Write value at ptr and make the new state current, where the
        value at ptr is known."""
        update = store.update(Var(ctx.state), ptr, value)
        ctx.emit(PVar(ctx.advance()), update)
        ctx.reads[ptr] = value

    def _this_object(self, ctx: _Ctx) -> tuple[MlExpr, MlExpr]:
        """`this` and the object it is: a value object's `this` is the
        object itself, any other a pointer to it."""
        this = ctx.this()
        return this, this if ctx.fn.value_this else self._lookup(ctx, this)

    def _read_field(self, ctx: _Ctx, fname: str, name: str | None = None) -> MlExpr:
        """Bind a field of this object, to `name` if given, matching the
        object with one rule per receiver class and every other field
        wildcarded.  A field already read is reused, unless `name` is
        given: an assignment binds its own version, not a copy of the
        atom.  A cell's field is known in one state, a value's in one
        version of `this`."""
        if ctx.fn.value_this:
            known, key = ctx.fields, (ctx.this(), fname)
        else:
            known, key = ctx.reads, fname
        if name is None and key in known:
            return known[key]
        _, value = self._this_object(ctx)
        tmp = ctx.fn.fresh_temp()
        rules = tuple((self._object(PCon, c, lambda f: PVar(tmp) if f == fname else PWild()),
                       Var(tmp)) for c in ctx.fn.receivers)
        known[key] = ctx.bind(Case(value, rules), name)
        return known[key]

    def _field_write(self, ctx: _Ctx, fname: str, new_value: MlExpr) -> None:
        """Rebuild this object with a field replaced, one rule per receiver
        class binding every other field.  A value object's rebuilt value
        is the next version of `this`, which knows every field its last
        version knew; any other is stored."""
        this, value = self._this_object(ctx)
        temps: dict[str, str] = {}

        def bind_other(f):
            if f == fname:
                return PWild()
            if f not in temps:
                temps[f] = ctx.fn.fresh_temp()
            return PVar(temps[f])

        rules = tuple((self._object(PCon, c, bind_other),
                       self._object(Con, c, lambda f: new_value if f == fname else Var(temps[f])))
                      for c in ctx.fn.receivers)
        if not ctx.fn.value_this:
            self._store(ctx, this, ctx.bind(Case(value, rules)))
            return
        known = {f: atom for (obj, f), atom in ctx.fields.items() if obj == this}
        known[fname] = new_value
        version = ctx.new_version("this")
        ctx.bind(Case(value, rules), version.name)
        ctx.fields.update(((version, f), atom) for f, atom in known.items())

    # -- arrays -----------------------------------------------------------------

    def _array(self, ctx: _Ctx, e: Expr, atom: MlExpr) -> MlExpr:
        """The array value of e, which evaluated to atom: an unboxed
        local's atom is the array itself, any other is a pointer to it."""
        if isinstance(e, IdentExpr) and e.name in ctx.fn.unboxed:
            return atom
        return self._lookup(ctx, atom)

    def _new_array(self, e: NewArrayExpr, ctx: _Ctx) -> MlExpr:
        """The value of a new array, once its length and then its elements
        are bound in ctx.  The length may call a method, so a caller reads
        `ctx.state` only after this."""
        n = self.expr(e.length, ctx)
        return store.new_array(n, ctx.bind(store.zeros(n)))

    # -- calls ------------------------------------------------------------------

    def _targets(self, cls: str, method: str) -> dict[str, str]:
        """Each instantiated class that is or extends cls, in declaration
        order, mapped to the class whose implementation of method its
        objects run: the objects a call on a cls receiver can reach."""
        table = self.table
        return {c: info.vtable[method][0] for c, info in table.classes.items()
                if c in table.instantiated and cls in info.path}

    def _call(self, e: CallExpr, ctx: _Ctx, name: str | None) -> MlExpr:
        """A method call, dispatched statically.  Each object a call can
        reach (`_targets`) runs a known implementation, so the call is a
        known call of it when they all run the same one and the receiver
        cannot be null: `this`, a `new` object, or a version bound from
        one or returned by a call (`_Ctx.allocated`).  A call on a heap
        object that may be null is a known call behind a null check.
        Otherwise the call matches the receiver's class on its
        constructor, one rule, and one known call, per class: a value
        object is matched itself, a heap object read first.  Each checks
        where MiniJava does, after the receiver and the arguments: a null
        receiver, `store.NULL_OBJECT` or the null pointer, fails the
        match, the check or the heap lookup.

        A call of a method that writes a value receiver's fields
        (`ClassTable.writes_this`) also returns the receiver's new value,
        which becomes the next version of the variable, or of `this`,
        that held it."""
        assert e.receiver_class is not None
        value = e.receiver_class in self.table.value_classes
        if value:
            # a variable or a `new` object, whose value is taken after
            # the arguments: a call among them may write it
            args = _tup([self.expr(a, ctx) for a in e.args])
            receiver = self.expr(e.receiver, ctx)
        else:
            receiver = self.expr(e.receiver, ctx)
            args = _tup([self.expr(a, ctx) for a in e.args])
        targets = self._targets(e.receiver_class, e.method)
        state = Var(ctx.state)
        writes = self.table.writes_this(e.receiver_class, e.method)
        fresh = isinstance(e.receiver, (ThisExpr, NewObjectExpr)) or receiver in ctx.allocated

        def call(impl: str) -> MlExpr:
            return App(Var(mangle_method(self.table.info(impl).index, e.method)),
                       Tuple((state, receiver, args)))

        impls = set(targets.values())
        if len(impls) > 1 or value and impls and not fresh:
            rules = tuple((self._object(PCon, cls, lambda f: PWild()), call(impl))
                          for cls, impl in targets.items())
            result = Case(receiver if value else self._lookup(ctx, receiver), rules)
        else:
            if impls:
                result = call(impls.pop())
            else:
                # no object a call can reach: the receiver is null
                decl = self.table.info(e.receiver_class).vtable[e.method][1]
                result = _tup([state, *([receiver] if writes else []),
                               _default_value(decl.return_type)])
            if not fresh:
                # a value receiver that no class can reach is the object
                # null, and the check fails as one of the null pointer does
                result = store.null_check(IntLit(store.NULL_PTR) if value else receiver, result)
        if not writes:
            return ctx.bind_state(result, name)
        if isinstance(e.receiver, NewObjectExpr):
            return ctx.bind_state(result, name, PWild())
        # the next version of `this` or of the local, never null
        version = ctx.new_version("this" if isinstance(e.receiver, ThisExpr) else e.receiver.name)
        ctx.allocated.add(version)
        return ctx.bind_state(result, name, PVar(version.name))

    # -- expressions --------------------------------------------------------------------

    def expr(self, e: Expr, ctx: _Ctx, name: str | None = None) -> MlExpr:
        """Translate to an atom, emitting bindings for all intermediate
        steps in evaluation order.  With `name`, a value that needs a
        binding of its own is bound to that name."""
        if isinstance(e, IntLitExpr):
            return IntLit(e.value)
        if isinstance(e, BoolLitExpr):
            return Con("true" if e.value else "false")
        if isinstance(e, ThisExpr):
            return ctx.this()
        if isinstance(e, IdentExpr):
            if e.binding == "field":
                return self._read_field(ctx, e.name, name)
            return ctx.var_atom(e.name)
        if isinstance(e, BinaryExpr) and e.op == "&&":
            # the right operand's bindings run only when the left holds;
            # when they make no new state, the `if` returns no state
            # either, and what is known of the state stays known; else
            # it joins the state, the variables whose versions the calls
            # there changed (`ClassTable.writes_this`), and its value
            test = self._test(e.left, ctx)
            rctx = ctx.branch()
            right = self.expr(e.right, rctx)
            if rctx.state == ctx.state:
                return ctx.bind(test(rctx.wrap(right), Con("false")), name)
            names = ctx.changed(rctx)
            then = rctx.wrap(_tup([Var(rctx.state), *map(rctx.atom, names), right]))
            orelse = _tup([Var(ctx.state), *map(ctx.atom, names), Con("false")])
            name = name or ctx.fn.fresh_temp()
            ctx.join(test(then, orelse), names, _pvar(name))
            return Var(name)
        if isinstance(e, BinaryExpr):
            # the other operators are ML primitives of the same symbol
            left = self.expr(e.left, ctx)
            right = self.expr(e.right, ctx)
            return ctx.bind(PrimOp(e.op, (left, right)), name)
        if isinstance(e, NotExpr):
            return ctx.bind(If(self.expr(e.operand, ctx), Con("false"), Con("true")), name)
        if isinstance(e, ArrayIndexExpr):
            arr = self.expr(e.array, ctx)
            idx = self.expr(e.index, ctx)
            return ctx.bind(store.array_get(self._array(ctx, e.array, arr), idx,
                                            ctx.fn.fresh_temp), name)
        if isinstance(e, ArrayLengthExpr):
            arr = self.expr(e.array, ctx)
            return ctx.bind(store.array_length(self._array(ctx, e.array, arr),
                                               ctx.fn.fresh_temp), name)
        if isinstance(e, NewArrayExpr):
            array = self._new_array(e, ctx)
            return ctx.bind_state(store.alloc(Var(ctx.state), array), name)
        if isinstance(e, NewObjectExpr):
            if e.class_name not in self.table.value_classes:
                atom = ctx.bind_state(App(Var(mangle_new(e.class_name)), Var(ctx.state)), name)
            elif name in (None, _DISCARD):
                # a value object, made where it is used: nothing to bind
                return self.new_object(e.class_name)
            else:
                atom = ctx.bind(self.new_object(e.class_name), name)
            ctx.allocated.add(atom)
            return atom
        if isinstance(e, CallExpr):
            return self._call(e, ctx, name)
        raise AssertionError(f"unhandled expression {type(e).__name__}")

    def _test(self, e: Expr, ctx: _Ctx) -> Callable[[MlExpr, MlExpr], If]:
        """The ML `if` of an `if` or `while` on e, given its two branches,
        once e's bindings are emitted in ctx.  A `<` is compared in the
        `if` itself, and a `!` swaps the branches, so neither binds a
        boolean."""
        swap = False
        while isinstance(e, NotExpr):
            e, swap = e.operand, not swap
        if isinstance(e, BinaryExpr) and e.op == "<":
            left = self.expr(e.left, ctx)
            cond = PrimOp("<", (left, self.expr(e.right, ctx)))
        else:
            cond = self.expr(e, ctx)
        return lambda then, orelse: If(cond, orelse, then) if swap else If(cond, then, orelse)

    # -- statements ----------------------------------------------------------------------

    def stmt(self, s: Stmt, ctx: _Ctx) -> None:
        live = ctx.fn.live[id(s)]
        if isinstance(s, BlockStmt):
            for sub in s.body:
                self.stmt(sub, ctx)
        elif isinstance(s, PrintStmt):
            value = self.expr(s.value, ctx)
            ctx.emit(PWild(), App(Var(PRINT), value))
        elif isinstance(s, AssignStmt):
            if s.binding == "field":
                value = self.expr(s.value, ctx)
                self._field_write(ctx, s.name, value)
            elif s.name not in live:
                # nothing reads this value: only what can fault or touch
                # the state is evaluated, and bound to `_`
                if s.name in ctx.fn.unboxed:
                    assert isinstance(s.value, NewArrayExpr)
                    ctx.bind(store.zeros(self.expr(s.value.length, ctx)), _DISCARD)
                else:
                    for part in _effects(s.value):
                        self.expr(part, ctx, _DISCARD)
            else:
                # the value is bound under the new version's name, not copied to it
                version = ctx.fn.fresh_version(s.name)
                name = mangle_var(s.name, version)
                if s.name in ctx.fn.unboxed:
                    assert isinstance(s.value, NewArrayExpr)
                    value = ctx.bind(self._new_array(s.value, ctx), name)
                else:
                    value = self.expr(s.value, ctx, name)
                if value != Var(name):
                    ctx.emit(PVar(name), value)
                ctx.versions[s.name] = version
        elif isinstance(s, ArrayAssignStmt):
            if s.binding == "field":
                ptr = self._read_field(ctx, s.name)
            else:
                ptr = ctx.var_atom(s.name)
            idx = self.expr(s.index, ctx)
            value = self.expr(s.value, ctx)
            if s.name in ctx.fn.unboxed:
                array = store.array_set(ptr, idx, value, ctx.fn.fresh_temp)
                if s.name in live:
                    # the written array is the local's next version
                    ctx.bind(array, ctx.new_version(s.name).name)
                else:
                    ctx.bind(array, _DISCARD)
            else:
                array = store.array_set(self._lookup(ctx, ptr), idx, value, ctx.fn.fresh_temp)
                self._store(ctx, ptr, ctx.bind(array))
        elif isinstance(s, IfStmt):
            test = self._test(s.cond, ctx)
            tctx = ctx.branch()
            self.stmt(s.then_branch, tctx)
            ectx = ctx.branch()
            self.stmt(s.else_branch, ectx)
            names = [x for x in ctx.changed(tctx, ectx) if x in live]
            ctx.join(test(tctx.wrap(tctx.carried(names)), ectx.wrap(ectx.carried(names))), names)
        elif isinstance(s, WhileStmt):
            self._while(s, ctx, live)
        else:
            raise AssertionError(f"unhandled statement {type(s).__name__}")

    def _while(self, s: WhileStmt, ctx: _Ctx, live: frozenset[str]) -> None:
        """A top-level tail-recursive function `mj_loop<k>`, called once
        and joined.  Its condition and body are translated first, with
        every variable under its name at loop entry and a fresh state, so
        no heap read of the caller's crosses into it.  It takes the state,
        the variables the body assigns (`changed`) that are live at its
        head, then the others it reads and `mj_this` if it reads `this`
        or a field (its `log`), each under that same name; it returns the
        state and the variables the body assigns that are `live` after
        it."""
        inner = _Ctx(ctx.fn, dict(ctx.versions), ctx.fn.fresh_state())
        entry = inner.state
        test = self._test(s.cond, inner)
        body = inner.branch()
        self.stmt(s.body, body)
        # a call in the condition may write its receiver too
        changed = ctx.changed(inner, body)
        names = [x for x in changed if x in live]
        exit_ = inner.carried(names)
        head = ctx.fn.live[id(s.body)]
        params = [x for x in changed if x in head]
        params += [x for x in inner.versions if x in inner.log and x not in changed]
        # numbered after the loops it holds
        loop = Var(f"mj_loop{len(self.loops)}")
        then = body.wrap(App(loop, body.carried(params)))
        param = _ptup([PVar(entry), *(PVar(ctx.atom(x).name) for x in params)])
        self.loops.append(FunDef(loop.name, param, inner.wrap(test(then, exit_))))
        ctx.join(App(loop, ctx.carried(params)), names)

    # -- whole functions --------------------------------------------------------------------

    def method(self, cls: str, decl: MethodDecl) -> FunDef:
        """``fn (state, this, args)``, returning (state, result), or
        (state, new this, result) for a value object's method that may
        write its fields, where `this` is live to the end."""
        table = self.table
        receivers = [c for c, impl in self._targets(cls, decl.name).items() if impl == cls]
        var_order = [f.name for f in decl.formals] + [v.name for v in decl.local_vars] + ["this"]
        writes = table.writes_this(cls, decl.name)
        returned = _reads(decl.return_expr) | ({"this"} if writes else set())
        live = _liveness(decl.body, returned)
        fn = _FnScope(var_order, table.unboxed[cls, decl.name], receivers, live,
                      cls in table.value_classes)
        ctx = _Ctx(fn, dict.fromkeys(var_order, 0), "mj_s0")
        for s in decl.body:
            self.stmt(s, ctx)
        value = self.expr(decl.return_expr, ctx)
        result = _tup([Var(ctx.state), *([ctx.this()] if writes else []), value])
        # a local's default is bound only where some path reads it; an
        # unboxed array's is the array null, and a value object's the
        # object null
        values = {v.name for v in decl.local_vars if isinstance(v.var_type, ClassType)
                  and v.var_type.name in table.value_classes}
        ctx.bindings[:0] = [Val(PVar(mangle_var(v.name, 0)),
                                store.NULL_ARRAY if v.name in fn.unboxed
                                else store.NULL_OBJECT if v.name in values
                                else _default_value(v.var_type))
                            for v in decl.local_vars if v.name in fn.initial]
        self.null_array |= bool(fn.initial & fn.unboxed)
        self.null_object |= bool(fn.initial & values)
        param = PTuple((PVar("mj_s0"), PVar("mj_this"),
                        _ptup([PVar(mangle_var(f.name, 0)) for f in decl.formals])))
        return FunDef(mangle_method(table.info(cls).index, decl.name), param, ctx.wrap(result))

    def main(self, program: MjProgram) -> FunDef:
        fn = _FnScope([], frozenset(), [], _liveness(program.main.body, frozenset()))
        ctx = _Ctx(fn, {}, "mj_s0")
        ctx.emit(PVar("mj_s0"), store.EMPTY_STATE)
        for s in program.main.body:
            self.stmt(s, ctx)
        return FunDef("mj_main", PTuple(()), ctx.wrap(Var(ctx.state)))

    def run(self, program: MjProgram) -> MlProgram:
        groups = [(f,) for f in store.prelude()]
        table = self.table
        big: list[FunDef] = [self.constructor(name) for name in table.classes
                             if name in table.instantiated - table.value_classes]
        for info in table.classes.values():
            for name, decl in info.methods.items():
                if (info.name, name) in table.live:
                    big.append(self.method(info.name, decl))
        main = self.main(program)
        big += self.loops
        if big:
            groups.append(tuple(big))
        groups.append((main,))
        return MlProgram(datatypes=self.datatypes(),
                         fun_groups=groups,
                         main=App(Var("mj_main"), Tuple(())))


def translate(program: MjProgram, table: ClassTable | None = None) -> MlProgram:
    """Translate a program; typechecks first when no table is given.

    A caller-provided table must come from `typecheck` on this same
    program, since translation reads the annotations it leaves behind.
    """
    if table is None:
        table = typecheck(program)
    with extra_frames(COMPILE_FRAMES):
        return _Translator(table).run(program)
