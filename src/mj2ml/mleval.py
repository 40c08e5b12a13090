"""Evaluator for the core ML fragment: the tree is compiled to closures.

Values are Python ints and bools, tuples for ML tuples and lists for
datatype values: `C (x, y)` is `[name, x, y]`, `name` being C's name,
built by a list display of its exact length, and a nullary constructor
is `[name]` (`true` and `false` are Python's).  So `type()` tells a
tuple from a datatype value, and neither matches the other's patterns.
A run never changes a list it built; `store.heap_cells` reads a final
state back as `store.VCon` records.  There are no function values: the
fragment has no `fn`, and a `fun` name is only ever applied, never read
as a value (`validate_core` rejects a program that does, and compiling
one is an AssertionError).  The fragment has no literal patterns either, and its
patterns take two forms, which `validate_core` checks and compiling
anything else is an AssertionError: a `val` pattern or a parameter is a
variable, a wildcard or a tuple of those, whose items may be tuples of
variables and wildcards; and a `case` has either one rule `true` or
`false`, or one rule for each of some distinct constructors, whose items
are variables and wildcards.

Before a run, `_compile` turns the program into Python closures after
Feeley and Lapalme, "Using closures for code generation" (1987): one
closure per expression node and one binder per pattern.  A closure
takes the current frame and returns its node's value, calling its
children's closures; no node of the tree is inspected while the program
runs.  The process has one compiler, made at import, which holds the
cells every closure shares (the fuel, the output and the pending call)
and makes the store's helpers, `store.prelude()`, once, in order: the
four tree helpers run natively (see Native helpers), and the others are
compiled.  A program whose groups start with some of those helpers, the
same objects in the same order and each a group of its own
(`store.shared_helpers`), reuses them: every name in scope there means
what it meant when they were made.  Every translation starts so, with
the shortest prefix of them that defines every helper it applies
(`store.prelude_for`).  Everything else, a copy of a helper too, is
compiled for one run and dropped with it.
Since runs share the compiler's cells, one must end, and its steps be
read, before the next compiles: `run_compiled` holds a process-wide
lock for all of that.  A `let` is one closure that runs its
declarations in a loop, and a pure subtree (variables and constants,
and tuples and constructors of them) is one getter that charges no
fuel: its parent, or a closure around the getter, charges for all of
its nodes (see Fuel).

Superoperators.  The shapes that translated code runs at nearly every
step are each one closure, after Proebsting, "Optimizing an ANSI C
interpreter with superoperators" (1995).  Each makes the fuel checks of
the closures it replaces, of the same amounts and in the same order, so
no output, fault or step count can tell them apart:
- operands in place: a variable or a constant is a slot of the frame
  (see Frames).  An `if` on `<` of two of them, and a `+`, `-` or `<` of
  two of them, read those slots in their own closure, with no getter
  call.  The `if` charges 2 and the primitive 1, plus 1 per operand,
  with one check.  Translated code emits no `div`, `mod` or `=`: each is
  a primitive of the general kind, an operator from a table;
- a `case` is one of three closures, one for each of its forms: one
  `true` or `false` rule, tested with `is` (so the int 1 is not `true`);
  one constructor rule, such as `B (x, l, r)`, tested by its length and
  name; and several, such as `A | B (v, l, r)`, looked up by name in a
  table and then tested by length.  After its one check, for the `case`
  and a pure scrutinee's nodes, the closure stores the whole list, name
  and items, into the rule's slots with one slice store and enters the
  rule's right-hand side;
- a call of a known function, with one check for the application, its
  function position and, when the argument goes straight into the
  parameter's slots, the tuple and its leading pure items: the closure
  builds the callee's frame, and outside tail position it also enters
  the callee's body and runs the pending calls (see Calls);
- a tuple of 2 items, or a constructor or a call frame of 2 or 3, is
  built in its closure from the items' closures, and a constructor of
  1 to 3 variables and constants from their slots, with no tuple getter
  between;
- a tuple pattern binds its items with one store; an item that is
  itself a tuple of variables and wildcards, as in a `((n, h), k)`
  parameter, is then matched on its slot.

Frames.  Every function is top-level and a `let` declares only `val`s
(`validate_core` checks both), so a function reads only its own
variables and there is one activation level.  Each call of an ML
function, and the entry expression, gets one Python list, its frame.
Slot 0 of a function's frame holds the argument of the call, which is
not read when the parameter is a tuple pattern.  Each binding occurrence
of a value in the body (the parameter's variables, `val` and `case`
bindings) has a slot of its own, and a constructor rule of k items takes
k + 1 consecutive slots, the first an unnamed one for the name; a `fun`
name has none, since nothing reads it.  The compiler resolves every
variable to its slot, so scoping is done once, in one pass, and the
program only indexes lists.  A constant (a literal, a nullary
constructor such as `true`, or unit) has a slot as well, one for each
distinct constant of the function, which every frame of the function
holds from the start, so a constant is read as a variable is.  Since no
two binding occurrences share a slot, a later `let` never overwrites a
value an earlier one bound.  A frame holds only values, and a value
holds only older values, so a run makes no reference cycle: its memory
goes as soon as reference counting frees it.  What a run compiled goes
with it too: the run breaks the links between its own functions and
their call sites when it ends, and the store's helpers, which live as
long as the process, refer to no run's code.

Calls.  Every call is known: the function position names a top-level
`fun`, or the runtime's `mj_print`, which appends its argument to the
output and returns unit.  A call of a `fun` is compiled against that
function's code, and, but for a helper called in place (see Native
helpers), the call site builds the callee's frame
`[arg, *pad]` itself, `pad` being the function's initial slots after
slot 0.  When the parameter is a tuple of variables and the argument a
tuple of the same arity, the items go straight into the parameter's
slots, `[None, *items, *rest]`: no argument tuple is built and no
binder runs.  The name in the function position is not read,
though its visit is charged.

Native helpers.  The store's four tree helpers (`store.natives`) walk a
tree as a Python loop, which returns the helper's value and the node
visits its ML would make, or `store.STUCK` and the visits up to the
`case` that no rule matches.  A call site that applies a tree helper
to a tuple of its parameter's arity, or to any argument when its
parameter is a variable, calls that Python version itself: it charges the
call's own visits with one check, then the helper's with another,
FuelExhausted when the fuel is short, and then fails with MatchFailure
when stuck.  It builds no frame and, even in tail position, pends no
call.  Any other application of a helper enters its body, which passes
the arguments in the frame to the Python version and charges the same
way.  Nothing observable happens inside a helper:
it prints nothing, and its only fault is that `case`, after all of its
visits.  So no output, fault or step count can tell this from running
its ML, which a program that does not start with the shared helpers
compiles and runs.  The Python versions take their arguments to be of
the helpers' ML types, as in every translation: a tree, an int index.

An application in tail position, of a function body or of a `val`
right-hand side, but for a helper called in place, evaluates the
argument, makes the callee's frame with
its parameter bound, and only then stores the pending call, the
callee's body and that frame, and returns the `_TAIL` marker.  The
enclosing trampoline, the `let` or else the nearest non-tail
application, runs the pending body on its frame and repeats until a
body returns a value.  Translated `while` loops are self-tail-calls, so
they run in constant Python stack.

A pending (non-tail) ML call holds one Python frame for the callee's
body and one for each node between that body and the call: an `if`, a
`case`, a `let`, or a node with the call as an operand, and the call's
own closure, which enters the body, unless it is a `val`'s right-hand
side.  That is 3 frames per pending call for a translated method
recursion (a `let`, an `if` and a `let`).  A shared tree helper called
in place holds 1, its Python version, however deep the tree.  A run has
`outcome.RECURSION_LIMIT` Python frames (the run model in `outcome`);
exceeding it reports FuelExhausted, as running out of fuel does.

Fuel.  Every node visit costs one unit of fuel, checked before the
node's work: a run with fuel N makes at most N visits and then reports
FuelExhausted, and `RunOutcome.steps` is the number of visits made.  A
node charges with one check for itself and for the pure children it
evaluates before any other child, and a pure subtree in any other place
charges for all of its nodes at once; each raises before any of that
work when the fuel does not cover all of it.  Two nodes share a check
with a child that is not pure: an `if` whose condition is `<` of
variables and constants charges for the comparison too, and a known
call whose tuple argument goes straight into the callee's slots charges
for the tuple and the tuple's leading pure items.  A shared tree helper
charges for all the visits of its body with one check (see Native
helpers).  Reading a pure subtree has no effect, and nothing else runs
between the visits so merged, so no
output, fault or step count can tell this from charging the visits one
at a time: either way the run stops having spent all of its fuel, with
the same output.  A `let` is visited once per declaration: each `val`
costs one unit, the `let` itself nothing.  Installing the top-level
groups costs nothing.

`=` and `<` are defined on integers; `div` and `mod` round towards
negative infinity, and `validate_core` admits them only with a positive
literal divisor; arithmetic outside the 63-bit
range [-2^62, 2^62 - 1] is an IntegerOverflow fault; a `case` that
no rule matches, or a tuple pattern given a tuple of another length, is
a MatchFailure fault.
"""

from __future__ import annotations

from operator import add, eq, floordiv, itemgetter, lt, mod, mul, sub

from .mjast import INT_MAX, INT_MIN
from .mlast import (
    PRINT,
    App,
    Case,
    Con,
    FunDef,
    If,
    IntLit,
    Let,
    MlExpr,
    MlProgram,
    Pat,
    PCon,
    PrimOp,
    PTuple,
    PVar,
    PWild,
    Tuple,
    Val,
    Var,
)
from .outcome import DEFAULT_FUEL, Fault, FaultKind, RunOutcome, run_compiled
from .store import STUCK, natives, prelude, shared_helpers

UNIT = ()

_FUEL = FaultKind.FUEL_EXHAUSTED
_MATCH = FaultKind.MATCH_FAILURE
_OVERFLOW = FaultKind.INTEGER_OVERFLOW

# Returned by a tail application once it has stored the pending call.
_TAIL = object()

# What the runtime's mj_print is bound to while a program compiles.
_PRINT = object()

# Nullary constructors that are Python values.
_CONSTANTS = {"true": True, "false": False}


def _plain(pats: tuple[Pat, ...]) -> bool:
    """Whether every pattern is a variable or a wildcard."""
    return all(type(p) is PVar or type(p) is PWild for p in pats)


class _Fn:
    """A `fun` as its call sites see it while the program compiles.

    `arity` is the length of its parameter when that is a tuple of
    variables and wildcards, whose items then take slots 1, 2, ... of
    the frame, and None otherwise.  Once the function is compiled,
    `pad` holds the initial values of the frame's slots after slot 0,
    None but for the constants (see Frames), and `rest` those after the
    parameter's items; `bind` is the parameter's matcher (None when the
    parameter is a variable, which is slot 0) and `body` the compiled
    body.  `native` is the Python version of a native helper (see
    Native helpers), None for any other function."""

    __slots__ = ("arity", "pad", "rest", "bind", "body", "native")

    def __init__(self, param: Pat):
        plain = type(param) is PTuple and _plain(param.items)
        self.arity = len(param.items) if plain else None
        self.native = None


def _compiler():
    """A compiler, which holds the cells that every closure it builds
    shares: the fuel, the output and the pending call.  It compiles the
    store's helpers, `store.prelude()`, once, and returns `_compile`."""
    fuel = 0
    output: list[int] = []
    pend_body = pend_frame = None

    # Compile-time scope: each name maps to a stack of bindings, innermost
    # last, each the slot of a value or the _Fn of a name a `fun` binds
    # (`_PRINT` for mj_print); `free` is the next unused slot of the
    # frame being compiled, and `consts` maps each constant of that
    # frame to its (slot, value).
    scopes: dict[str, list[object]] = {}
    free = 0
    consts: dict[object, tuple[int, object]] = {}

    def declare(name: str | None, bound: list[str]) -> int:
        nonlocal free
        slot = free
        free += 1
        if name is not None:
            scopes.setdefault(name, []).append(slot)
            bound.append(name)
        return slot

    def forget(bound: list[str]) -> None:
        for name in bound:
            scopes[name].pop()

    def binding(name: str) -> object:
        """The innermost binding of `name`; an unbound name is outside
        the fragment."""
        stack = scopes.get(name)
        if not stack:
            raise AssertionError(f"'{name}' is not bound")
        return stack[-1]

    def resolve(name: str) -> int:
        """The slot of the innermost binding of `name`, a value."""
        slot = binding(name)
        if type(slot) is not int:
            raise AssertionError(f"the function '{name}' is read as a value")
        return slot

    def constant(key: object, value: object) -> int:
        """The slot that holds `value` in every frame of the code being
        compiled; `key` tells constants apart (an int, a constructor's
        name, or () for unit)."""
        nonlocal free
        if key not in consts:
            consts[key] = (free, value)
            free += 1
        return consts[key][0]

    def new_frame() -> list:
        """The initial slots of a frame of the code just compiled."""
        frame = [None] * free
        for slot, value in consts.values():
            frame[slot] = value
        return frame

    # -- patterns.  A binder is a slot (a variable), None (a wildcard) or
    # a matcher m(value, frame) that stores the pattern's variables into
    # the frame and returns False when the value does not fit. ----------

    def declare_all(pats: tuple[Pat, ...], bound: list[str]) -> slice:
        """One slot for each pattern, in order: a variable's own, an
        unnamed one for anything else."""
        lo = free
        for p in pats:
            declare(p.name if type(p) is PVar else None, bound)
        return slice(lo, free)

    def binder(pat: Pat, bound: list[str]):
        """The binder of a `val` pattern or a parameter.  A tuple pattern
        matches in one closure: one store binds the items.  An item may
        itself be a tuple of variables and wildcards, as in `((n, h), k)`:
        it is bound to an unnamed slot, and its own matcher runs on that
        slot next.  Any other pattern is outside the fragment
        (`validate_core`)."""
        cls = type(pat)
        if cls is PVar:
            return declare(pat.name, bound)
        if cls is PWild:
            return None
        if cls is not PTuple:
            raise AssertionError(f"a {cls.__name__} outside a `case` rule")
        pats = pat.items
        n = len(pats)
        subs = declare_all(pats, bound)

        def m(v, f):
            if type(v) is tuple and len(v) == n:
                f[subs] = v
                return True
            return False
        for slot, p in enumerate(pats, subs.start):
            if type(p) is PTuple and _plain(p.items):
                m = and_then(m, slot, binder(p, bound))
            elif type(p) is not PVar and type(p) is not PWild:
                raise AssertionError("a nested pattern other than a tuple of variables")
        return m

    def and_then(outer, slot: int, inner):
        """`outer`, and then `inner` on what it bound to `slot`."""
        return lambda v, f: outer(v, f) and inner(f[slot], f)

    # -- pure nodes: variables and constants, and tuples and constructors
    # of them.  Evaluating one cannot fault or print, so a pure subtree
    # compiles to a getter g(frame) that charges no fuel; its parent
    # charges for its nodes. ------------------------------------------------

    def pure(e: MlExpr):
        """(getter, node count, slot) when `e` is pure, else None; `slot`
        is set when `e` is a variable or a constant."""
        cls = type(e)
        if cls is Var:
            slot = resolve(e.name)
        elif cls is IntLit:
            slot = constant(e.value, e.value)
        elif cls is Con and not e.args:
            name = e.name
            slot = constant(name, _CONSTANTS[name] if name in _CONSTANTS else [name])
        elif cls is Tuple and not e.items:
            slot = constant((), UNIT)
        elif cls is Tuple or cls is Con:
            return compound(e)
        else:
            return None
        return itemgetter(slot), 1, slot

    def compound(e: Tuple | Con):
        """`pure` of a tuple or constructor with items."""
        parts = []
        for x in e.items if type(e) is Tuple else e.args:
            part = pure(x)
            if part is None:
                return None
            parts.append(part)
        count = 1 + sum(n for _, n, _ in parts)
        slots = [slot for _, _, slot in parts]
        if type(e) is Con:
            if None in slots:
                return con_of(e.name, [g for g, _, _ in parts]), count, None
            return con_at(e.name, slots), count, None
        if len(slots) >= 2 and None not in slots:
            return itemgetter(*slots), count, None
        return tuple_of([g for g, _, _ in parts]), count, None

    def con_at(name: str, slots: list[int]):
        """The getter of the constructor `name` of the variables and
        constants at `slots`, read in place."""
        if len(slots) == 1:
            [s] = slots
            return lambda f: [name, f[s]]
        if len(slots) == 2:
            s, t = slots
            return lambda f: [name, f[s], f[t]]
        if len(slots) == 3:
            s, t, u = slots
            return lambda f: [name, f[s], f[t], f[u]]
        get = itemgetter(*slots)
        return lambda f: [name, *get(f)]

    def con_of(name: str, getters: list):
        """The getter of the constructor `name` of the getters' values."""
        getters = tuple(getters)
        return lambda f: [name, *[g(f) for g in getters]]

    def tuple_of(getters: list):
        if len(getters) == 2:
            a, b = getters
            return lambda f: (a(f), b(f))
        if len(getters) == 3:
            a, b, c = getters
            return lambda f: (a(f), b(f), c(f))
        getters = tuple(getters)
        return lambda f: tuple([g(f) for g in getters])

    def operands(children: tuple[MlExpr, ...]) -> tuple[list, int]:
        """Closures for the children of a node, which evaluates them in
        order, and the fuel their parent charges for them.  The pure
        children before the first impure one become getters that the
        parent charges for with its own visit: nothing observable happens
        between those visits, so which of them runs out of fuel is
        unobservable.  The others charge for themselves."""
        calls, extra, leading = [], 0, True
        for x in children:
            part = pure(x) if leading else None
            if part is None:
                leading = False
                calls.append(expr(x, False))
            else:
                calls.append(part[0])
                extra += part[1]
        return calls, extra

    def slots_of(children: tuple[MlExpr, ...]) -> tuple[list, int] | None:
        """The slots of `children` and their node count, when each is a
        variable or a constant, which a closure then reads in place."""
        parts = [pure(x) for x in children]
        if any(part is None or part[2] is None for part in parts):
            return None
        return [part[2] for part in parts], sum(part[1] for part in parts)

    # -- expressions.  Each closure takes the frame, checks and charges its
    # fuel, then does its work. ------------------------------------------------

    def expr(e: MlExpr, tail: bool):
        """The closure for `e`.  In `tail` mode an application of a
        closure returns `_TAIL` with the call pending, for the enclosing
        trampoline."""
        cls = type(e)
        if cls is Let:
            return let(e, tail)
        if cls is App:
            return app(e, tail)
        if cls is If:
            return if_(e, tail)
        if cls is Case:
            return case(e, tail)
        if cls is PrimOp:
            return prim(e)
        part = pure(e)
        if part is None:
            if cls is Tuple or cls is Con:
                return construct(e)
            raise AssertionError(f"unhandled expression {cls.__name__}")
        get, n, _ = part

        def ev(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL)
            fuel -= n
            return get(f)
        return ev

    def let(e: Let, tail: bool):
        """A `let`, as one closure that runs its declarations in a loop.

        It is also the trampoline for the calls its right-hand sides
        make, so a call there costs no Python frame of its own."""
        steps = []
        bound: list[str] = []
        for decl in e.decls:
            if type(decl) is not Val:
                raise AssertionError("a `let` declaring something other than a `val`")
            part = pure(decl.rhs)
            if part is None:
                rhs, cost = expr(decl.rhs, True), 1
            else:
                rhs, cost = part[0], 1 + part[1]
            steps.append((cost, rhs, binder(decl.pat, bound)))
        body = expr(e.body, tail)
        forget(bound)
        steps = tuple(steps)

        def ev(f):
            nonlocal fuel
            for cost, rhs, bind in steps:
                if fuel < cost:
                    raise Fault(_FUEL)
                fuel -= cost
                v = rhs(f)
                while v is _TAIL:
                    v = pend_body(pend_frame)
                if type(bind) is int:
                    f[bind] = v
                elif bind is not None and not bind(v, f):
                    raise Fault(_MATCH)
            return body(f)
        return ev

    def function(fd: FunDef, fn: _Fn) -> None:
        """Compile `fd` into `fn`, its frame's slots from 0."""
        nonlocal free
        free = 0
        consts.clear()
        bound: list[str] = []
        if type(fd.param) is PVar:
            declare(fd.param.name, bound)
            fn.bind = None
        else:
            declare(None, bound)
            fn.bind = binder(fd.param, bound)
        fn.body = expr(fd.body, True)
        forget(bound)
        frame = new_frame()
        fn.pad = tuple(frame[1:])
        if fn.arity is not None:
            fn.rest = tuple(frame[1 + fn.arity:])

    def app(e: App, tail: bool):
        """An application of a `fun` in scope, or of mj_print (see
        Calls).  It charges for the function's `Var` without reading it."""
        func, arg = e.func, e.arg
        if type(func) is not Var:
            raise AssertionError("an application of something other than a function's name")
        fn = binding(func.name)
        if fn is _PRINT:
            return print_(arg)
        if type(fn) is not _Fn:
            raise AssertionError(f"'{func.name}' is applied but is not a function")
        return call(fn, arg, tail)

    def call(fn: _Fn, arg: MlExpr, tail: bool):
        """The call of `fn`, as one closure that builds the callee's frame
        (see Calls).  Compiled for tail position, it stores the call as
        the pending (body, frame) pair and returns `_TAIL`; elsewhere it
        runs the body, and then each pending call until a body returns
        a value."""
        spread = type(arg) is Tuple and len(arg.items) == fn.arity
        if fn.native is not None and (spread or fn.arity is None):
            return helper(fn.native, arg, spread)
        if spread:
            items, extra = operands(arg.items)
            cost = 3 + extra
            if len(items) == 2:
                a, b = items

                def ev(f):
                    nonlocal fuel, pend_body, pend_frame
                    if fuel < cost:
                        raise Fault(_FUEL)
                    fuel -= cost
                    frame = [None, a(f), b(f), *fn.rest]
                    if tail:
                        pend_body, pend_frame = fn.body, frame
                        return _TAIL
                    v = fn.body(frame)
                    while v is _TAIL:
                        v = pend_body(pend_frame)
                    return v
                return ev
            if len(items) == 3:
                a, b, c = items

                def ev(f):
                    nonlocal fuel, pend_body, pend_frame
                    if fuel < cost:
                        raise Fault(_FUEL)
                    fuel -= cost
                    frame = [None, a(f), b(f), c(f), *fn.rest]
                    if tail:
                        pend_body, pend_frame = fn.body, frame
                        return _TAIL
                    v = fn.body(frame)
                    while v is _TAIL:
                        v = pend_body(pend_frame)
                    return v
                return ev
            part = pure(arg)
            get = tuple_of(items) if part is None else part[0]

            def ev(f):
                nonlocal fuel, pend_body, pend_frame
                if fuel < cost:
                    raise Fault(_FUEL)
                fuel -= cost
                frame = [None, *get(f), *fn.rest]
                if tail:
                    pend_body, pend_frame = fn.body, frame
                    return _TAIL
                v = fn.body(frame)
                while v is _TAIL:
                    v = pend_body(pend_frame)
                return v
            return ev
        (get,), extra = operands((arg,))
        cost = 2 + extra

        def ev(f):
            nonlocal fuel, pend_body, pend_frame
            if fuel < cost:
                raise Fault(_FUEL)
            fuel -= cost
            a = get(f)
            frame = [a, *fn.pad]
            if fn.bind is not None and not fn.bind(a, frame):
                raise Fault(_MATCH)
            if tail:
                pend_body, pend_frame = fn.body, frame
                return _TAIL
            v = fn.body(frame)
            while v is _TAIL:
                v = pend_body(pend_frame)
            return v
        return ev

    def helper(run, arg: MlExpr, spread: bool):
        """A call of a native helper in place, `run` its Python version
        (see Native helpers): one check for the call's own units, then
        one for the helper's visits, then MatchFailure when it is stuck.
        A `spread` argument is a tuple of the helper's arity, whose items
        are `run`'s arguments.  The call builds no frame and returns no
        `_TAIL`, also in tail position: a helper never calls back."""
        (get,), extra = operands((arg,))
        cost = 2 + extra
        if spread:
            def ev(f):
                nonlocal fuel
                if fuel < cost:
                    raise Fault(_FUEL)
                fuel -= cost
                v, n = run(*get(f))
                if fuel < n:
                    raise Fault(_FUEL)
                fuel -= n
                if v is STUCK:
                    raise Fault(_MATCH)
                return v
        else:
            def ev(f):
                nonlocal fuel
                if fuel < cost:
                    raise Fault(_FUEL)
                fuel -= cost
                v, n = run(get(f))
                if fuel < n:
                    raise Fault(_FUEL)
                fuel -= n
                if v is STUCK:
                    raise Fault(_MATCH)
                return v
        return ev

    def print_(arg: MlExpr):
        """`mj_print arg`: appends the int to the output, returns unit."""
        (get,), extra = operands((arg,))
        cost = 2 + extra

        def ev(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL)
            fuel -= cost
            output.append(get(f))
            return UNIT
        return ev

    def if_(e: If, tail: bool):
        """An `if`.  One whose condition is `<` of variables and constants
        is one closure that reads them in place and charges for itself
        and for the comparison with one check: nothing can print or fault
        between those visits."""
        cond = e.cond
        read = slots_of(cond.args) if type(cond) is PrimOp and cond.op == "<" else None
        if read is None:
            (test,), extra = operands((cond,))
            cost = 1 + extra
        else:
            (s, t), extra = read
            cost = 2 + extra
        then = expr(e.then, tail)
        orelse = expr(e.orelse, tail)
        if read is None:
            def ev(f):
                nonlocal fuel
                if fuel < cost:
                    raise Fault(_FUEL)
                fuel -= cost
                if test(f):
                    return then(f)
                return orelse(f)
        else:
            def ev(f):
                nonlocal fuel
                if fuel < cost:
                    raise Fault(_FUEL)
                fuel -= cost
                if f[s] < f[t]:
                    return then(f)
                return orelse(f)
        return ev

    def case(e: Case, tail: bool):
        """A `case`, in one of the fragment's forms, as one closure that
        tests the scrutinee, binds the items and enters the right-hand
        side: one `true` or `false` rule, tested with `is`; one
        constructor rule, tested by name; or rules of distinct
        constructors, in a table by name.  Any other `case` is outside
        the fragment (`validate_core`)."""
        (scrutinee,), extra = operands((e.scrutinee,))
        cost = 1 + extra
        pat = e.rules[0][0] if len(e.rules) == 1 else None
        if type(pat) is PCon and pat.name in _CONSTANTS and not pat.args:
            want = _CONSTANTS[pat.name]
            rhs = expr(e.rules[0][1], tail)

            def ev(f):
                nonlocal fuel
                if fuel < cost:
                    raise Fault(_FUEL)
                fuel -= cost
                if scrutinee(f) is want:
                    return rhs(f)
                raise Fault(_MATCH)
            return ev
        names = {pat.name for pat, _ in e.rules if type(pat) is PCon
                 and pat.name not in _CONSTANTS and _plain(pat.args)}
        if not names or len(names) != len(e.rules):
            raise AssertionError("a `case` other than one `true` or `false` rule "
                                 "or rules of distinct constructors")
        table = {}
        for pat, rhs in e.rules:
            bound: list[str] = []
            tag = declare(None, bound)
            subs = slice(tag, declare_all(pat.args, bound).stop)
            table[pat.name] = (1 + len(pat.args), subs, expr(rhs, tail))
            forget(bound)
        if len(table) == 1:
            [(name, (n, subs, rhs))] = table.items()

            def ev(f):
                nonlocal fuel
                if fuel < cost:
                    raise Fault(_FUEL)
                fuel -= cost
                v = scrutinee(f)
                if type(v) is list and len(v) == n and v[0] == name:
                    f[subs] = v
                    return rhs(f)
                raise Fault(_MATCH)
            return ev

        def ev(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL)
            fuel -= cost
            v = scrutinee(f)
            if type(v) is list and v[0] in table:
                n, subs, rhs = table[v[0]]
                if len(v) == n:
                    f[subs] = v
                    return rhs(f)
            raise Fault(_MATCH)
        return ev

    def prim(e: PrimOp):
        """A primitive.  `+`, `-` and `<` of variables and constants read
        them in place; any other takes its operator from a table and
        checks the result's range, which a comparison's bool is in."""
        op = e.op
        read = slots_of(e.args) if op in ("+", "-", "<") else None
        if read is not None:
            (s, t), extra = read
            cost = 1 + extra
            if op == "<":
                def ev(f):
                    nonlocal fuel
                    if fuel < cost:
                        raise Fault(_FUEL)
                    fuel -= cost
                    return f[s] < f[t]
            elif op == "+":
                def ev(f):
                    nonlocal fuel
                    if fuel < cost:
                        raise Fault(_FUEL)
                    fuel -= cost
                    r = f[s] + f[t]
                    if INT_MIN <= r <= INT_MAX:
                        return r
                    raise Fault(_OVERFLOW)
            else:
                def ev(f):
                    nonlocal fuel
                    if fuel < cost:
                        raise Fault(_FUEL)
                    fuel -= cost
                    r = f[s] - f[t]
                    if INT_MIN <= r <= INT_MAX:
                        return r
                    raise Fault(_OVERFLOW)
            return ev
        (a, b), extra = operands(e.args)
        cost = 1 + extra
        arith = {"+": add, "-": sub, "*": mul, "div": floordiv, "mod": mod, "<": lt, "=": eq}[op]

        def ev(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL)
            fuel -= cost
            r = arith(a(f), b(f))
            if INT_MIN <= r <= INT_MAX:
                return r
            raise Fault(_OVERFLOW)
        return ev

    def construct(e: Tuple | Con):
        """A tuple, or a constructor application, with an impure part.
        Two items, or a constructor's three, are built in the closure
        itself, so that a call in one, as in `C (n, f (t, i))`, holds no
        extra Python frame."""
        items, extra = operands(e.items if type(e) is Tuple else e.args)
        cost = 1 + extra
        name = e.name if type(e) is Con else None
        if len(items) == 2:
            a, b = items
            if name is None:
                def ev(f):
                    nonlocal fuel
                    if fuel < cost:
                        raise Fault(_FUEL)
                    fuel -= cost
                    return (a(f), b(f))
            else:
                def ev(f):
                    nonlocal fuel
                    if fuel < cost:
                        raise Fault(_FUEL)
                    fuel -= cost
                    return [name, a(f), b(f)]
            return ev
        if len(items) == 3 and name is not None:
            a, b, c = items

            def ev(f):
                nonlocal fuel
                if fuel < cost:
                    raise Fault(_FUEL)
                fuel -= cost
                return [name, a(f), b(f), c(f)]
            return ev
        get = tuple_of(items) if name is None else con_of(name, items)

        def ev(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL)
            fuel -= cost
            return get(f)
        return ev

    # -- the top level: each group of functions, then the entry ------------

    def reset() -> None:
        """The scope of a program's top level before its first group."""
        scopes.clear()
        scopes[PRINT] = [_PRINT]

    def group(funs: tuple[FunDef, ...]) -> list[_Fn]:
        """Compile a group of `fun`s, in scope from here on."""
        fns = [_Fn(fd.param) for fd in funs]
        for fd, fn in zip(funs, fns):
            scopes.setdefault(fd.name, []).append(fn)
        for fd, fn in zip(funs, fns):
            function(fd, fn)
        return fns

    def native(fd: FunDef, run) -> _Fn:
        """A store helper whose body is `run`, its Python version (see
        `store.natives`), in scope from here on.  The body charges the
        visits the helper's ML would make with one check, then fails as
        its `case` would when `run` is stuck; the frame holds only the
        argument, or the items of a tuple parameter."""
        nonlocal free
        fn = _Fn(fd.param)
        free = 0
        bound: list[str] = []
        declare(None, bound)
        fn.bind = None if fn.arity is None else binder(fd.param, bound)
        forget(bound)
        fn.pad, fn.rest = (None,) * (free - 1), ()
        start = 0 if fn.arity is None else 1

        def body(f):
            nonlocal fuel
            v, n = run(*f[start:])
            if fuel < n:
                raise Fault(_FUEL)
            fuel -= n
            if v is STUCK:
                raise Fault(_MATCH)
            return v
        fn.body, fn.native = body, run
        scopes.setdefault(fd.name, []).append(fn)
        return fn

    # The store's helpers, each a group of one, made once, in order: the
    # tree helpers run natively, and the others are compiled.
    reset()
    helpers = natives()
    shared = [(fd, native(fd, helpers[fd.name]) if fd.name in helpers else group((fd,))[0])
              for fd in prelude()]

    def compile_run(program: MlProgram, fuel_: int, output_: list[int]):
        """Compile `program` for one run with `fuel_` units (at least 0),
        printing to `output_`.  The store's helpers that lead the program
        (`store.shared_helpers`) are reused as made.

        Returns `(run, fuel_left)`: `run()` evaluates the entry expression
        and returns its value (or raises Fault), `fuel_left()` the fuel
        not yet spent.  The run must end, and its fuel left be read,
        before the next compile, which sets the same cells.
        """
        nonlocal fuel, output, free
        reset()
        groups = program.fun_groups
        reused = shared_helpers(groups)
        for fd, fn in shared[:reused]:
            scopes.setdefault(fd.name, []).append(fn)
        # The `fun`s compiled for this run, whose links the run breaks at its end.
        fns: list[_Fn] = []
        for funs in groups[reused:]:
            fns += group(funs)
        free = 0
        consts.clear()
        main = expr(program.main, False)
        # the entry expression's frame
        top = new_frame()
        reset()
        consts.clear()
        fuel, output = fuel_, output_

        def run():
            nonlocal pend_body, pend_frame
            try:
                return main(top)
            finally:
                # break the code <-> call site cycles so the run's memory goes now
                pend_body = pend_frame = None
                for fn in fns:
                    fn.body = None
        return run, fuel_left

    def fuel_left() -> int:
        return fuel

    return compile_run


# The process's one compiler.  `run_compiled` holds a process-wide lock
# for a whole compile and run, the steps read included, so the runs of
# two threads never share its cells.
_compile = _compiler()


def eval_program(program: MlProgram, fuel: int = DEFAULT_FUEL,
                 ) -> tuple[RunOutcome, object | None]:
    """Run the program; returns (outcome, value of the entry expression).

    The value is None when the run faulted.
    """
    return run_compiled(lambda fuel, output: _compile(program, fuel, output), fuel,
                        makes_cycles=False)
