"""Translation from MiniJava to the pure core ML fragment.

The generated program threads a heap value, the state, through the
code that touches it instead of using mutable state.  How that value,
and each array in it, is encoded is the `store` module's alone.

Objects hold only their fields.  For each class C a run can
instantiate, the heap's values have one constructor ``HObj_C`` of all
of C's fields, the root class's first (`ClassInfo.all_fields`, the
layout `mjinterp` uses too), so an object's constructor names its
class.  A field of `this` is read or written by matching the object
with one rule for each class whose objects run the method being
translated: its receiver classes.  A write rebuilds the object around
the changed field.

An array or object is a heap cell, reached through a pointer, only if
it can escape.  `sema` decides it per group, all arrays or the classes
of one inheritance tree (`ClassTable.is_value`).  In a group that
cannot escape, each array or object can be reached by one name at a
time: a local assigned only from `new`, or `this`, each read only as an
array operand or a call receiver.  Such an array or object is its
value itself, `store.new_array` or ``HObj_C`` (escape analysis with scalar
replacement, Choi et al., OOPSLA 1999; object inlining, Dolby and
Chien, PLDI 2000): `new` makes the value, with no allocation and no
constructor function, and a method threads it like an `int` local.  An
array write binds the local's next version.  `this` is passed by
value, and a field of `this` is read by a `case` on the current version
of ``mj_this``.  A field write binds the rebuilt object as the next
version of `this`, ``mj_this_<n>``, and a method that may write a field
of `this`, itself or through a call on `this`
(`ClassTable.writes_this`), returns the new `this` beside its result;
the caller binds it as the next version of the local, or of `this`,
that held the receiver, or to `_` when nothing reads that variable
after the call.  Joins and loops carry these versions like any
variable's.  Before its first assignment such a local is
`store.NULL_VALUE`, which no array access or call matches.  Any other
array or object, the corpus's lists, trees and visitors and the arrays
they hold, is a heap cell: made by `store.alloc` or the class's
constructor function, read with `store.lookup` and written back with
`store.update`.  A local's default value is bound only if some path
reads it.

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
carries, in a tuple, the state if either branch made a new one, and
the variables whose version either branch changed that are live after
it.  A while loop is a top-level tail-recursive function
``mj_loop<k>``, lambda-lifted (Johnsson, 1985).  Its condition and body
are translated with every variable under its name at loop entry; it
then takes the state if they read it, the variables its condition or
body assigned that are live at its head, the others it read and `this`
if it read `this` or a field, all under those names, and returns the
state if they made a new one and the variables assigned that are live
after it.  A call in a condition, or in the right operand of `&&`, that
writes its value receiver assigns that variable too.

Only what is live is emitted.  Before a method is translated,
`_liveness` sweeps its MiniJava body backwards and finds the variables
live after each statement and each call on a variable (Appel, *Modern
Compiler Implementation*, ch. 10); on the SSA versions this is which
bindings something reads.
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
value reused until the state changes: a call of a method that only
reads the heap makes no new state.  A run of bindings whose last one
binds exactly the value the run ends with, as a call's result or a
join's tuple can, ends in that binding's right-hand side instead: a
method that returns what a call returns, or an `if` branch whose last
statement assigns what a call returns, ends in the call.

A generated function takes the state only if its code may read the
heap, and returns it only if its code may write it (Wadler and
Thiemann, TOCL 2003): a method's heap effect, from `sema`, is none,
reads or writes, and its shape is ``fn ([state,] self, args) ->
([state,] result)``, the state taken for reads and writes and returned
for writes, where args is (), a bare value, or a tuple by arity, and a
method that writes its value object returns ``([state,] self', result)``.
A loop, an `if` join and ``mj_main`` follow the same rule from the
bindings their code emits.  Constructors are state -> (state, pointer);
``mj_main`` is unit -> state and returns the final state, the constant
`store.EMPTY_STATE` when its code touches no cell.  Only what a run can
reach is emitted (see `sema`): a constructor
for each class instantiated whose objects are heap cells, and a
function for each live method.  The implementation a call runs for an
instantiated class is live, so each known call names an emitted
function.

Each of these decisions is written once.  `_Ctx` holds the ANF binders
and the state threading: `bind` for an intermediate value, `bind_call`
for what a call returns, its new state first if it writes the heap,
`carried`/`join` for the tuple of branch joins and loops, `changed` for
the variables they carry, `state_var` for each read of the state, and
`wrap` for the end of a run.  `_lookup`
reads the heap once per cell and state, `_read_field` a field of
`this` once per object value (a cell's value in one state, or a value
object's version of `this`), and `_store` writes a cell and makes the new state current; field writes
of cells and array writes both go through it, as every array read goes
through `_array`.  The object layout is each class's `all_fields`, which
the datatypes, `new_object` and the field and dispatch patterns
(`_object`) all read.  `_call` dispatches.  Every heap and array access is
built by `store`, through `_op`, which notes the builders the program
holds, and the translation starts with the shortest prefix of the
store's prelude that defines the helpers they apply
(`store.prelude_for`).  What each `if` and `while` assigns and reads is found by
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
    INT_ARRAY,
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
from .sema import ClassTable, Effect, typecheck


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


def _pure(e: Expr) -> bool:
    """Whether e can neither fault nor touch the state: a literal, a
    variable, a field of `this`, `this`, or `<`, `!` or `&&` of those.
    Arithmetic can overflow, and array accesses, `new` and calls can
    fault or change the state."""
    if type(e) in (IdentExpr, IntLitExpr, BoolLitExpr, ThisExpr):
        return True
    if type(e) is NotExpr:
        return _pure(e.operand)
    return type(e) is BinaryExpr and e.op in ("<", "&&") and _pure(e.left) and _pure(e.right)


def _effects(e: Expr) -> Iterator[Expr]:
    """The parts of e still evaluated, in order, when nothing reads its
    value: none of a `_pure` one, those of the operands of `<` and `!`
    and of `&&` with a pure right operand, and any other e itself."""
    if _pure(e):
        return
    if type(e) is NotExpr:
        yield from _effects(e.operand)
    elif type(e) is BinaryExpr and (e.op == "<" or e.op == "&&" and _pure(e.right)):
        yield from _effects(e.left)
        yield from _effects(e.right)
    else:
        yield e


def _liveness(body: list[Stmt], live: frozenset[str],
              result: Expr | None = None) -> dict[int, frozenset[str]]:
    """The variables live after each statement of `body`, and of the
    statements it holds, and after each call on a local or a formal, by
    the statement's or the call's id, when `live` are live after `result`, which the body's end
    evaluates if given.  A variable is live where some path may read it
    before writing it (Appel, *Modern Compiler Implementation*, ch. 10),
    and only the reads the translation emits count: an assignment to a
    variable dead after it evaluates only its value's `_effects`, so the
    rest of its value reads nothing.

    An expression is swept backwards in the order the translation
    evaluates it, so what is live after a call holds what the rest of
    its statement reads: a call that writes its value receiver reads the
    receiver after its arguments, where a call among them may have
    written it.  Each block is swept backwards.  Before an `if` are live its
    condition's reads and what is live before either branch.  Before a
    loop, where its condition is tested, are live its head set: what is
    live after the loop, the condition's reads and what is live before
    its body.  The body is swept with the head set live after it until
    the set stops growing, so the set is also what is live after the
    body.  Sets only grow as the sweeps go, so a loop reached again by
    an enclosing loop's sweep starts from the head set it reached
    before, and is not swept at all if what is live after it has not
    changed: a loop is swept about as often as its sets grow, not once
    per sweep of each loop around it.

    The sweep is two module functions that take the tables they fill,
    not closures: a nested function that calls itself holds its own
    closure cell, a reference cycle that would keep each method's sets
    for the cyclic collector."""
    after: dict[int, frozenset[str]] = {}
    # each loop's last live-after set and the head set it gave
    heads: dict[int, tuple[frozenset[str], frozenset[str]]] = {}
    if result is not None:
        live = _used(live, after, result)
    for s in reversed(body):
        live = _before(s, live, after, heads)
    return after


def _used(live: frozenset[str], after: dict[int, frozenset[str]],
          *parts: Expr) -> frozenset[str]:
    """What is live before `parts`, evaluated in order, when `live` is
    live after them, recording in `after` what is live after each call
    on a variable.  They are swept backwards with a stack: a node before
    its children, which are pushed in the order they run."""
    later: set[str] = set()
    stack = list(parts)
    while stack:
        e = stack.pop()
        cls = type(e)
        if cls is IdentExpr:
            if e.binding != "field":
                later.add(e.name)
        elif cls is BinaryExpr:
            stack += (e.left, e.right)
        elif cls is CallExpr:
            receiver = e.receiver
            if type(receiver) is IdentExpr and receiver.binding != "field":
                after[id(e)] = live.union(later)
                later.add(receiver.name)
            stack += (receiver, *e.args)
        elif cls is ArrayIndexExpr:
            stack += (e.array, e.index)
        elif cls is NotExpr:
            stack.append(e.operand)
        elif cls is ArrayLengthExpr:
            stack.append(e.array)
        elif cls is NewArrayExpr:
            stack.append(e.length)
    return live.union(later) if later else live


def _before(s: Stmt, live: frozenset[str], after: dict[int, frozenset[str]],
            heads: dict[int, tuple[frozenset[str], frozenset[str]]]) -> frozenset[str]:
    """What is live before s when `live` is live after it, recording in
    `after` what is live after s and each statement and call it holds,
    and in `heads` each loop's sets (`_liveness`)."""
    after[id(s)] = live
    cls = type(s)
    if cls is AssignStmt:
        if s.binding != "field":
            if s.name not in live:
                return _used(live, after, *_effects(s.value))
            live = live - {s.name}
        return _used(live, after, s.value)
    if cls is BlockStmt:
        for sub in reversed(s.body):
            live = _before(sub, live, after, heads)
        return live
    if cls is PrintStmt:
        return _used(live, after, s.value)
    if cls is IfStmt:
        return _used(_before(s.then_branch, live, after, heads)
                     | _before(s.else_branch, live, after, heads), after, s.cond)
    if cls is WhileStmt:
        last = heads.get(id(s))
        if last and last[0] == live:
            return last[1]
        head = _used((last[1] if last else frozenset()) | live, after, s.cond)
        while (grown := _before(s.body, head, after, heads) | head) != head:
            head = grown
        # what is live after the condition's calls: the body or the exit runs next
        _used(head, after, s.cond)
        heads[id(s)] = live, head
        return head
    if cls is ArrayAssignStmt:
        array = () if s.binding == "field" else (s.name,)
        return _used(live, after, s.index, s.value).union(array)
    raise AssertionError(f"unhandled statement {cls.__name__}")


# The name that `_Ctx.bind` binds to `_`: a value computed for its faults
# and effects alone, which nothing reads.
_DISCARD = "_"


def _pvar(name: str) -> Pat:
    return PWild() if name == _DISCARD else PVar(name)


def _as_expr(pat: Pat) -> MlExpr | None:
    """A pattern of variables and tuples read as an expression; None for
    any other pattern."""
    if type(pat) is PVar:
        return Var(pat.name)
    if type(pat) is PTuple:
        items = tuple(map(_as_expr, pat.items))
        return None if None in items else Tuple(items)
    return None


@dataclass
class _FnScope:
    """Counters and variable bookkeeping for one generated function, the
    classes whose objects run it, on which a field of `this` is matched
    (none in main), the variables live after each of its statements
    (`_liveness`), and whether those objects are values rather than heap
    cells (`ClassTable.is_value`), and its heap effect (`sema`): only a
    function that writes binds new states.  A method's `var_order` ends in
    "this", whose versions a value object's method binds as it writes
    fields.  `initial` collects the variables read at version 0: a
    local's default is bound only if it is read; `states_read` the state
    names read, by which a loop, and main, takes the state only if it
    reads it."""

    var_order: list[str]
    receivers: list[str]
    live: dict[int, frozenset[str]]
    value_this: bool = False
    effect: Effect = Effect.WRITES
    next_temp: int = 0
    next_state: int = 1
    maxver: dict[str, int] = dc_field(init=False)
    initial: set[str] = dc_field(default_factory=set)
    states_read: set[str] = dc_field(default_factory=set)

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
    """A straight-line run of declarations, the current state name (None
    in a function that touches no heap cell), the current version of
    every variable, and the heap values known in the current state.
    Branches get their own copy.

    The bindings of the ANF translation go through these methods: `bind`
    names one intermediate value, `bind_call` what a call returns, a new
    state first if it may write the heap, and `join` the (state,
    variables...) tuple that `carried` builds at the end of branches and
    loop bodies.  A join holds the state only if some branch changed it,
    and only the variables whose version some branch changed (`changed`),
    in `var_order`; every other variable keeps its version.  `state_var`
    reads the current state.

    `log` collects the variables read, by `var_atom`, and "this" (a
    keyword, so no variable's name) wherever `this()` emits a version of it.
    Branches share it, and each loop starts its own: what a loop's
    condition and body read, and so the calls of the loops they hold, is
    what the loop takes (`_Translator._while`).

    `reads` maps a pointer atom to the atom holding its heap value in the
    current state: `_lookup` reuses it and `_store` records the value it
    wrote.  A heap lookup is pure, so a second read of the same pointer
    in the same state would give the same value (and never runs if the
    first faulted).  Every new state, from a call, an allocation, a store
    or a join, goes through `advance`, which empties the map; a loop's
    state parameter starts a `_Ctx` of its own.  `fields` maps an (object
    value atom, field name) pair to the atom holding that field, which
    `_read_field` reuses and `_field_write` records for the object it
    builds.  The object is a version of a value `this` or the heap value
    `_lookup` gave for a cell: a value never changes, so what is known of
    it holds whatever the state, and a new state reads a cell anew, under
    a new atom.

    `allocated` holds the atoms bound from a `new` object, or from the
    new value a call returns for its receiver, in this run or the runs
    before it: never null, so a call on one needs no null check.  A loop starts with none, since its parameters take the
    names of the caller's versions but, after the first round, other
    values; a join binds fresh versions, which are never in it."""

    fn: _FnScope
    versions: dict[str, int]
    state: str | None
    reads: dict[MlExpr, MlExpr] = dc_field(default_factory=dict)
    log: set[str] = dc_field(default_factory=set)
    bindings: list[Val] = dc_field(default_factory=list)
    allocated: set[MlExpr] = dc_field(default_factory=set)
    fields: dict[tuple[MlExpr, str], MlExpr] = dc_field(default_factory=dict)

    def branch(self) -> "_Ctx":
        return _Ctx(self.fn, dict(self.versions), self.state, dict(self.reads), self.log,
                    allocated=set(self.allocated), fields=dict(self.fields))

    def advance(self) -> str:
        """Make a fresh state current, with nothing read from it yet."""
        assert self.fn.effect == Effect.WRITES, "a function that cannot write binds a state"
        self.state = self.fn.fresh_state()
        self.reads = {}
        return self.state

    def state_var(self) -> Var:
        """The current state, noted as read."""
        assert self.state is not None, "a function that touches no cell reads a state"
        self.fn.states_read.add(self.state)
        return Var(self.state)

    def emit(self, pat: Pat, rhs: MlExpr) -> None:
        self.bindings.append(Val(pat, rhs))

    def wrap(self, result: MlExpr) -> MlExpr:
        """The run's declarations around `result`.  A last one that binds
        exactly `result`, as a call's value or a join's tuple does, is
        left out, and the run ends in its right-hand side."""
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

    def bind_call(self, rhs: MlExpr, name: str | None, state: bool,
                  this: Pat | None = None) -> MlExpr:
        """Bind what rhs, a call, returns: with `state` a new state, which
        becomes current, then with `this` the new receiver of a call that
        writes it, then the value, named as by `bind`, which is returned."""
        items = [PVar(self.advance())] if state else []
        name = name or self.fn.fresh_temp()
        if this is not None:
            items.append(this)
        self.emit(_ptup([*items, _pvar(name)]), rhs)
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

    def carried(self, names: list[str], state: bool, *value: MlExpr) -> MlExpr:
        """The tuple that a join or loop carries: the state if `state`,
        the atoms of the named variables, and of `mj_this` for "this",
        then `value` if given."""
        return _tup([*([self.state_var()] if state else []), *map(self.atom, names), *value])

    def join(self, rhs: MlExpr, names: list[str], state: bool, *value: Pat) -> None:
        """Bind the `carried` tuple that rhs returns: a fresh state if
        `state` and fresh versions of the named variables become current,
        and then its `value` if given.  A tuple of nothing, which only
        the faults and output of rhs make, is bound to `_`."""
        items = [PVar(self.advance())] if state else []
        items += [PVar(self.new_version(x).name) for x in names]
        items += value
        self.emit(_ptup(items) if items else PWild(), rhs)


class _Translator:
    def __init__(self, table: ClassTable):
        self.table = table
        # the translated loops, numbered across the program
        self.loops: list[FunDef] = []
        # whether some method binds the null of a value array or object
        self.binds_null = False
        # the store builders whose expressions the program holds
        self.ops: set[Callable[..., MlExpr]] = set()

    def _op(self, builder: Callable[..., MlExpr], *args) -> MlExpr:
        """builder(*args), a store operation, noted as one the program holds."""
        self.ops.add(builder)
        return builder(*args)

    # -- objects ----------------------------------------------------------------

    def datatypes(self) -> list[DataType]:
        return store.datatypes([
            DataCon(f"HObj_{_enc(c)}",
                    _payload_ty([_ml_value_ty(ty) for _, ty in info.all_fields.values()]))
            for c, info in self.table.classes.items() if c in self.table.instantiated],
            self.binds_null)

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
                      self._op(store.alloc, Var("mj_s0"), self.new_object(cls)))

    # -- heap access ----------------------------------------------------------

    def _lookup(self, ctx: _Ctx, ptr: MlExpr) -> MlExpr:
        """The heap value at ptr: the one known in this state, else a
        fresh binding of it."""
        if ptr not in ctx.reads:
            ctx.reads[ptr] = ctx.bind(self._op(store.lookup, ctx.state_var(), ptr))
        return ctx.reads[ptr]

    def _store(self, ctx: _Ctx, ptr: MlExpr, value: MlExpr) -> None:
        """Write value at ptr and make the new state current, where the
        value at ptr is known."""
        update = self._op(store.update, ctx.state_var(), ptr, value)
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
        wildcarded.  A field known of the object (`_Ctx.fields`) is
        reused, unless `name` is given: an assignment binds its own
        version, not a copy of the atom."""
        _, value = self._this_object(ctx)
        key = value, fname
        if name is None and key in ctx.fields:
            return ctx.fields[key]
        tmp = ctx.fn.fresh_temp()
        rules = tuple((self._object(PCon, c, lambda f: PVar(tmp) if f == fname else PWild()),
                       Var(tmp)) for c in ctx.fn.receivers)
        ctx.fields[key] = ctx.bind(Case(value, rules), name)
        return ctx.fields[key]

    def _field_write(self, ctx: _Ctx, fname: str, new_value: MlExpr) -> None:
        """Rebuild this object with a field replaced, one rule per receiver
        class binding every other field.  The rebuilt object knows the
        written field and every field the last one knew.  A value
        object's is the next version of `this`; a cell's is stored."""
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
        known = {f: atom for (obj, f), atom in ctx.fields.items() if obj == value}
        known[fname] = new_value
        if ctx.fn.value_this:
            rebuilt = ctx.bind(Case(value, rules), ctx.new_version("this").name)
        else:
            rebuilt = ctx.bind(Case(value, rules))
            self._store(ctx, this, rebuilt)
        ctx.fields.update(((rebuilt, f), atom) for f, atom in known.items())

    # -- arrays -----------------------------------------------------------------

    def _array(self, ctx: _Ctx, atom: MlExpr) -> MlExpr:
        """The array value of an array's atom: a value array's atom is
        the array itself, a cell's a pointer to it."""
        return atom if self.table.is_value(INT_ARRAY) else self._lookup(ctx, atom)

    # -- calls ------------------------------------------------------------------

    def _call(self, e: CallExpr, ctx: _Ctx, name: str | None) -> MlExpr:
        """A method call, dispatched statically.  Each object a call can
        reach (`ClassTable.targets`) runs a known implementation, so the call is a
        known call of it when they all run the same one and the receiver
        cannot be null: `this`, a `new` object, or a version bound from
        one or returned by a call (`_Ctx.allocated`).  A call on a heap
        object that may be null is a known call behind a null check.
        Otherwise the call matches the receiver's class on its
        constructor, one rule, and one known call, per class: a value
        object is matched itself, a heap object read first.  Each checks
        where MiniJava does, after the receiver and the arguments: a null
        receiver, `store.NULL_VALUE` or the null pointer, fails the
        match, the check or the heap lookup.

        The call passes the state if the method's effect (`sema`) reads
        or writes the heap, and binds the new state it returns if it
        writes.  A call of a method that writes a value receiver's fields
        (`ClassTable.writes_this`) also returns the receiver's new value,
        which becomes the next version of the variable, or of `this`,
        that held it, when that variable is live after the call
        (`_liveness`); otherwise it is bound to `_`."""
        assert e.receiver_class is not None
        value = self.table.is_value(ClassType(e.receiver_class))
        if value:
            # a variable or a `new` object, whose value is taken after
            # the arguments: a call among them may write it
            args = _tup([self.expr(a, ctx) for a in e.args])
            receiver = self.expr(e.receiver, ctx)
        else:
            receiver = self.expr(e.receiver, ctx)
            args = _tup([self.expr(a, ctx) for a in e.args])
        targets = self.table.targets(e.receiver_class, e.method)
        if type(e.receiver) is NewObjectExpr:
            # a new object runs its own class's implementation
            targets = {e.receiver_class: targets[e.receiver_class]}
        effect = self.table.effect(e.receiver_class, e.method)
        writes = self.table.writes_this(e.receiver_class, e.method)
        fresh = type(e.receiver) in (ThisExpr, NewObjectExpr) or receiver in ctx.allocated

        def call(impl: str) -> MlExpr:
            state = [ctx.state_var()] if effect else []
            return App(Var(mangle_method(self.table.info(impl).index, e.method)),
                       Tuple((*state, receiver, args)))

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
                result = _tup([*([ctx.state_var()] if effect == Effect.WRITES else []),
                               *([receiver] if writes else []), _default_value(decl.return_type)])
            if not fresh:
                # a value receiver that no class can reach is the object
                # null, and the check fails as one of the null pointer does
                result = store.null_check(IntLit(store.NULL_PTR) if value else receiver, result)
        state = effect == Effect.WRITES
        if not writes:
            return ctx.bind_call(result, name, state)
        if type(e.receiver) is ThisExpr:
            # live throughout a method that writes it, as this one does
            held = "this"
        elif type(e.receiver) is IdentExpr and e.receiver.name in ctx.fn.live[id(e)]:
            held = e.receiver.name
        else:
            # a `new` object's, or a dead local's, is read by nothing
            return ctx.bind_call(result, name, state, PWild())
        # the next version of `this` or of the local, never null
        version = ctx.new_version(held)
        ctx.allocated.add(version)
        return ctx.bind_call(result, name, state, PVar(version.name))

    # -- expressions --------------------------------------------------------------------

    def expr(self, e: Expr, ctx: _Ctx, name: str | None = None) -> MlExpr:
        """Translate to an atom, emitting bindings for all intermediate
        steps in evaluation order.  With `name`, a value that needs a
        binding of its own is bound to that name."""
        cls = type(e)
        if cls is IdentExpr:
            if e.binding == "field":
                return self._read_field(ctx, e.name, name)
            return ctx.var_atom(e.name)
        if cls is IntLitExpr:
            return IntLit(e.value)
        if cls is BinaryExpr:
            if e.op == "&&":
                # the right operand's bindings run only when the left holds;
                # the `if` returns the state only if they make a new one (else
                # what is known of the state stays known), the variables whose
                # versions the calls there changed (`ClassTable.writes_this`),
                # and its value, which alone needs no join
                test = self._test(e.left, ctx)
                rctx = ctx.branch()
                right = self.expr(e.right, rctx)
                names = ctx.changed(rctx)
                state = rctx.state != ctx.state
                if not names and not state:
                    return ctx.bind(test(rctx.wrap(right), Con("false")), name)
                then = rctx.wrap(rctx.carried(names, state, right))
                orelse = ctx.carried(names, state, Con("false"))
                name = name or ctx.fn.fresh_temp()
                ctx.join(test(then, orelse), names, state, _pvar(name))
                return Var(name)
            # the other operators are ML primitives of the same symbol
            left = self.expr(e.left, ctx)
            right = self.expr(e.right, ctx)
            return ctx.bind(PrimOp(e.op, (left, right)), name)
        if cls is CallExpr:
            return self._call(e, ctx, name)
        if cls is NewObjectExpr:
            if not self.table.is_value(ClassType(e.class_name)):
                atom = ctx.bind_call(App(Var(mangle_new(e.class_name)), ctx.state_var()), name,
                                     True)
            elif name in (None, _DISCARD):
                # a value object, made where it is used: nothing to bind
                return self.new_object(e.class_name)
            else:
                atom = ctx.bind(self.new_object(e.class_name), name)
            ctx.allocated.add(atom)
            return atom
        if cls is ArrayLengthExpr:
            arr = self.expr(e.array, ctx)
            return ctx.bind(store.array_length(self._array(ctx, arr), ctx.fn.fresh_temp), name)
        if cls is ArrayIndexExpr:
            arr = self.expr(e.array, ctx)
            idx = self.expr(e.index, ctx)
            return ctx.bind(self._op(store.array_get, self._array(ctx, arr), idx,
                                     ctx.fn.fresh_temp), name)
        if cls is BoolLitExpr:
            return Con("true" if e.value else "false")
        if cls is NotExpr:
            return ctx.bind(If(self.expr(e.operand, ctx), Con("false"), Con("true")), name)
        if cls is NewArrayExpr:
            # the length may call a method, so the state is read after it
            n = self.expr(e.length, ctx)
            if self.table.is_value(INT_ARRAY) and name == _DISCARD:
                # a value nothing reads: only its elements can fault, for
                # a negative length
                return ctx.bind(self._op(store.zeros, n), _DISCARD)
            array = store.new_array(n, ctx.bind(self._op(store.zeros, n)))
            if self.table.is_value(INT_ARRAY):
                return ctx.bind(array, name)
            return ctx.bind_call(self._op(store.alloc, ctx.state_var(), array), name, True)
        if cls is ThisExpr:
            return ctx.this()
        raise AssertionError(f"unhandled expression {cls.__name__}")

    def _test(self, e: Expr, ctx: _Ctx) -> Callable[[MlExpr, MlExpr], If]:
        """The ML `if` of an `if` or `while` on e, given its two branches,
        once e's bindings are emitted in ctx.  A `<` is compared in the
        `if` itself, and a `!` swaps the branches, so neither binds a
        boolean."""
        swap = False
        while type(e) is NotExpr:
            e, swap = e.operand, not swap
        if type(e) is BinaryExpr and e.op == "<":
            left = self.expr(e.left, ctx)
            cond = PrimOp("<", (left, self.expr(e.right, ctx)))
        else:
            cond = self.expr(e, ctx)
        return lambda then, orelse: If(cond, orelse, then) if swap else If(cond, then, orelse)

    # -- statements ----------------------------------------------------------------------

    def stmt(self, s: Stmt, ctx: _Ctx) -> None:
        live = ctx.fn.live[id(s)]
        cls = type(s)
        if cls is AssignStmt:
            if s.binding == "field":
                value = self.expr(s.value, ctx)
                self._field_write(ctx, s.name, value)
            elif s.name not in live:
                # nothing reads this value: only what can fault or touch
                # the state is evaluated, and bound to `_`
                for part in _effects(s.value):
                    self.expr(part, ctx, _DISCARD)
            else:
                # the value is bound under the new version's name, not copied to it
                version = ctx.fn.fresh_version(s.name)
                name = mangle_var(s.name, version)
                value = self.expr(s.value, ctx, name)
                if value != Var(name):
                    ctx.emit(PVar(name), value)
                ctx.versions[s.name] = version
        elif cls is BlockStmt:
            for sub in s.body:
                self.stmt(sub, ctx)
        elif cls is PrintStmt:
            value = self.expr(s.value, ctx)
            ctx.emit(PWild(), App(Var(PRINT), value))
        elif cls is IfStmt:
            test = self._test(s.cond, ctx)
            tctx = ctx.branch()
            self.stmt(s.then_branch, tctx)
            ectx = ctx.branch()
            self.stmt(s.else_branch, ectx)
            names = [x for x in ctx.changed(tctx, ectx) if x in live]
            state = tctx.state != ctx.state or ectx.state != ctx.state
            ctx.join(test(tctx.wrap(tctx.carried(names, state)),
                          ectx.wrap(ectx.carried(names, state))), names, state)
        elif cls is WhileStmt:
            self._while(s, ctx, live)
        elif cls is ArrayAssignStmt:
            if s.binding == "field":
                ptr = self._read_field(ctx, s.name)
            else:
                ptr = ctx.var_atom(s.name)
            idx = self.expr(s.index, ctx)
            value = self.expr(s.value, ctx)
            if self.table.is_value(INT_ARRAY):
                array = self._op(store.array_set, ptr, idx, value, ctx.fn.fresh_temp)
                if s.name in live:
                    # the written array is the local's next version
                    ctx.bind(array, ctx.new_version(s.name).name)
                else:
                    ctx.bind(array, _DISCARD)
            else:
                array = self._op(store.array_set, self._lookup(ctx, ptr), idx, value,
                                 ctx.fn.fresh_temp)
                self._store(ctx, ptr, ctx.bind(array))
        else:
            raise AssertionError(f"unhandled statement {cls.__name__}")

    def _while(self, s: WhileStmt, ctx: _Ctx, live: frozenset[str]) -> None:
        """A top-level tail-recursive function `mj_loop<k>`, called once
        and joined.  Its condition and body are translated first, with
        every variable under its name at loop entry and a fresh state, so
        no heap read of the caller's crosses into it.  It takes the state
        if its code reads it, the variables the body assigns (`changed`)
        that are live at its head, then the others it reads and `mj_this`
        if it reads `this` or a field (its `log`), each under that same
        name; it returns the state if its code makes a new one, and the
        variables the body assigns that are `live` after it."""
        inner = _Ctx(ctx.fn, dict(ctx.versions), ctx.state and ctx.fn.fresh_state())
        entry = inner.state
        test = self._test(s.cond, inner)
        body = inner.branch()
        self.stmt(s.body, body)
        takes = entry in ctx.fn.states_read
        # the body starts from the state the condition leaves
        state = body.state != entry
        # a call in the condition may write its receiver too
        changed = ctx.changed(inner, body)
        names = [x for x in changed if x in live]
        exit_ = inner.carried(names, state)
        head = ctx.fn.live[id(s.body)]
        params = [x for x in changed if x in head]
        params += [x for x in inner.versions if x in inner.log and x not in changed]
        # numbered after the loops it holds
        loop = Var(f"mj_loop{len(self.loops)}")
        then = body.wrap(App(loop, body.carried(params, takes)))
        param = _ptup([*([PVar(entry)] if takes else []),
                       *(PVar(ctx.atom(x).name) for x in params)])
        self.loops.append(FunDef(loop.name, param, inner.wrap(test(then, exit_))))
        ctx.join(App(loop, ctx.carried(params, takes)), names, state)

    # -- whole functions --------------------------------------------------------------------

    def method(self, cls: str, decl: MethodDecl) -> FunDef:
        """``fn ([state,] this, args)``, returning ([state,] result), or
        ([state,] new this, result) for a value object's method that may
        write its fields, where `this` is live to the end.  The state is
        taken if the method's effect reads or writes the heap, and
        returned if it writes.  Its fields are matched on the classes
        whose objects calls reach it on (`ClassTable.reached`)."""
        table = self.table
        receivers = [c for c, info in table.classes.items()
                     if (c, decl.name) in table.reached and info.vtable[decl.name][0] == cls]
        var_order = [f.name for f in decl.formals] + [v.name for v in decl.local_vars] + ["this"]
        writes = table.writes_this(cls, decl.name)
        effect = table.effect(cls, decl.name)
        live = _liveness(decl.body, frozenset({"this"} if writes else ()), decl.return_expr)
        fn = _FnScope(var_order, receivers, live, table.is_value(ClassType(cls)), effect)
        ctx = _Ctx(fn, dict.fromkeys(var_order, 0), "mj_s0" if effect else None)
        for s in decl.body:
            self.stmt(s, ctx)
        value = self.expr(decl.return_expr, ctx)
        state = [ctx.state_var()] if effect == Effect.WRITES else []
        result = _tup([*state, *([ctx.this()] if writes else []), value])
        # a local's default is bound only where some path reads it; a
        # value array's or object's is the null of values
        defaults = [Val(PVar(mangle_var(v.name, 0)), store.NULL_VALUE if table.is_value(v.var_type)
                        else _default_value(v.var_type))
                    for v in decl.local_vars if v.name in fn.initial]
        self.binds_null |= any(val.rhs == store.NULL_VALUE for val in defaults)
        ctx.bindings[:0] = defaults
        param = PTuple((*([PVar("mj_s0")] if effect else []), PVar("mj_this"),
                        _ptup([PVar(mangle_var(f.name, 0)) for f in decl.formals])))
        return FunDef(mangle_method(table.info(cls).index, decl.name), param, ctx.wrap(result))

    def main(self, program: MjProgram) -> FunDef:
        """``fn ()``, returning the final state: the empty state, bound
        first, if the code reads it, else the constant itself."""
        fn = _FnScope([], [], _liveness(program.main.body, frozenset()))
        ctx = _Ctx(fn, {}, "mj_s0")
        for s in program.main.body:
            self.stmt(s, ctx)
        if "mj_s0" not in fn.states_read:
            return FunDef("mj_main", PTuple(()), ctx.wrap(store.EMPTY_STATE))
        ctx.bindings.insert(0, Val(PVar("mj_s0"), store.EMPTY_STATE))
        return FunDef("mj_main", PTuple(()), ctx.wrap(ctx.state_var()))

    def run(self, program: MjProgram) -> MlProgram:
        table = self.table
        big: list[FunDef] = [self.constructor(name) for name in table.classes
                             if name in table.instantiated and not table.is_value(ClassType(name))]
        for info in table.classes.values():
            for name, decl in info.methods.items():
                if (info.name, name) in table.live:
                    big.append(self.method(info.name, decl))
        main = self.main(program)
        big += self.loops
        groups = [(f,) for f in store.prelude_for(self.ops)]
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
