"""Reference interpreter for MiniJava: the program is compiled to closures.

Values at runtime are Python ints and bools.  An object is a Python list
whose slot 0 holds its class's vtable and whose other slots hold its
fields, the root class's first; an array is a list of ints; null is
None.  Arithmetic is checked 63-bit: any result outside
[-2^62, 2^62 - 1] is an IntegerOverflow fault.

Before a run, `_compile` turns the program into Python closures after
Feeley and Lapalme, "Using closures for code generation" (1987), as
`mleval` does for the ML side: one closure per statement and expression,
each capturing its node's source position.  A closure takes the current
frame and does its node's work, calling its children's closures; no node
of the tree is inspected while the program runs.  The closures are built
for one run and dropped with it.

Frames and classes.  Each method call gets one Python list: slot 0 holds
`this`, then come the formals in order, then the locals, which start
at their defaults (0, false, null), and then one slot for each distinct
literal of the body, keyed by its class and value (`true` is not `1`),
which holds it from the start.  The compiler resolves every local
and formal (by the node's `binding`) to its slot and every field to its
index in the object.  The layout is read off the class table's resolved
classes: an object holds its class's `all_fields` after its vtable.
Each class's `all_fields` extends its superclass's, so a field has the
index it has in the objects of the class whose method is compiled, where
the compiler looks it up, in every object the method runs on.  The
vtable maps each method of the class's `vtable` to the compiled
implementation (its statements, its return expression and the initial
values of its slots after the formals), each compiled once.  Only the
class table's live methods
(see `sema`) are compiled, and a vtable holds only those: a call's
receiver was made by a `new` a run can reach, and the call reads a slot
a run can reach, so its implementation is there.  `new` copies a
class's template object, which holds its vtable and its fields'
defaults.  So method lookup is one dict read, and nothing consults the
class table while the program runs.  The main body runs in a frame of
`None` and its literals.

Fuel.  Every statement and expression evaluation costs one unit of fuel,
which is due at its node's position before its children run or its work
is done, and a `while` owes one more unit, at its own position, after
each pass through its body.  Running out is
the FuelExhausted fault at the position of the node that could not pay,
and `RunOutcome.steps` is the fuel used.

Superoperators.  As in `mleval` (after Proebsting, 1995), a closure
pays with one check for several nodes when nothing observable can
happen between their visits.  A leaf (a literal, a local or a formal,
`this`, or a field of `this`) cannot fault or print.  So a node reads
its leading leaves, those before its first other child, with getters,
`f[k]` but for a field, and pays their units with its own; when the
fuel falls short it names the position of the first unit not covered,
its `where[fuel]`, since the units are listed in visit order.  Three
shapes are one closure each: `a op b` or `a < b` of two leaves that are
slots (3 units), `x = a op b` to a local (4) and `while (a < b)` (4 per
test).  `&&` pays only for its left operand; its right one may not run.

Frames per call.  A call expression runs the callee's statements and
return expression itself, so a pending MiniJava call holds one Python
frame for the call and one for each statement or expression between the
callee's body and the call: 4 for `r = 1 + this.down(n - 1)` inside an
`if`.  The run has `outcome.RECURSION_LIMIT` Python frames (the run
model in `outcome`); overflowing it (a MiniJava call chain some 10 000
calls deep) is reported as FuelExhausted as well, without a position,
since it is the same resource-limit channel.
"""

from __future__ import annotations

from operator import add, itemgetter, lt, mul, sub

from .mjast import (
    BOOL,
    INT,
    INT_MAX,
    INT_MIN,
    ArrayAssignStmt,
    ArrayIndexExpr,
    ArrayLengthExpr,
    AssignStmt,
    BinaryExpr,
    BlockStmt,
    BoolLitExpr,
    CallExpr,
    Expr,
    IdentExpr,
    IfStmt,
    IntLitExpr,
    MethodDecl,
    MjProgram,
    NewArrayExpr,
    NewObjectExpr,
    NotExpr,
    PrintStmt,
    Stmt,
    ThisExpr,
    WhileStmt,
)
from .outcome import DEFAULT_FUEL, Fault, FaultKind, RunOutcome, run_compiled
from .sema import ClassTable, typecheck

_FUEL = FaultKind.FUEL_EXHAUSTED
_NULL = FaultKind.NULL_DEREFERENCE
_BOUNDS = FaultKind.INDEX_OUT_OF_BOUNDS
_NEGATIVE = FaultKind.NEGATIVE_ARRAY_SIZE
_OVERFLOW = FaultKind.INTEGER_OVERFLOW

# Defaults of int and boolean variables; every other type defaults to null.
_DEFAULTS = {INT: 0, BOOL: False}

# The classes of leaves (see Superoperators).
_LEAVES = (IdentExpr, IntLitExpr, BoolLitExpr, ThisExpr)

# The operators of a binary expression other than `&&`.
_BINARY = {"+": add, "-": sub, "*": mul, "<": lt}


def _compile(program: MjProgram, table: ClassTable, fuel: int, output: list[int]):
    """Compile `program` for one run with `fuel` units (at least 0).

    Returns `(run, fuel_left)`: `run()` executes the main body (or
    raises Fault), `fuel_left()` returns the fuel not yet spent.
    """
    emit = output.append

    # Compile-time layout: each class's vtable (filled once the methods
    # are compiled) and template object, and the slots of the body
    # being compiled (its variables', then its literals' by class and
    # value) and its class's field indices in an object.
    vtables: dict[str, dict[str, tuple]] = {}
    templates: dict[str, list] = {}
    for name, info in table.classes.items():
        vtables[name] = {}
        templates[name] = [vtables[name],
                           *(_DEFAULTS.get(fty) for _, fty in info.all_fields.values())]
    slots: dict[str, int] = {}
    literals: dict[tuple, int] = {}
    field_index: dict[str, int] = {}

    def variable(name: str, binding: str) -> object:
        """Getter for a variable of the method being compiled."""
        if binding == "field":
            index = field_index[name]
            return lambda f: f[0][index]
        return itemgetter(slots[name])

    # -- leaves: literals, variables and `this`.  None can fault or print,
    # so a parent reads its leading leaves with getters and pays for them
    # with its own check (see Superoperators). ------------------------------

    def leaf(e: Expr):
        """(getter, slot) of a leaf, the slot None for a field of `this`."""
        cls = type(e)
        if cls is IdentExpr:
            if e.binding == "field":
                return variable(e.name, e.binding), None
            slot = slots[e.name]
        elif cls is ThisExpr:
            slot = 0
        else:
            slot = literals.setdefault((cls, e.value), 1 + len(slots) + len(literals))
        return itemgetter(slot), slot

    def operands(pos, children: tuple[Expr, ...]) -> tuple[list, list]:
        """Closures for the children of the node at `pos`, which it
        evaluates in order, and where each unit of its check is due, in
        visit order: its own, then its leading leaves', which become
        getters.  The other children charge for themselves."""
        calls, where, leading = [], [pos], True
        for x in children:
            if leading and type(x) in _LEAVES:
                calls.append(leaf(x)[0])
                where.append(x.pos)
            else:
                leading = False
                calls.append(expr(x))
        return calls, where

    def fused(e: Expr):
        """(a, b, operator, where) when `e` is a `+`, `-`, `*` or `<` of
        two leaves that are frame slots `a` and `b`, else None."""
        if type(e) is BinaryExpr and e.op != "&&" and (
                type(e.left) in _LEAVES and type(e.right) in _LEAVES):
            (_, a), (_, b) = leaf(e.left), leaf(e.right)
            if a is not None and b is not None:
                return a, b, _BINARY[e.op], (e.pos, e.left.pos, e.right.pos)
        return None

    # -- expressions.  Each closure first pays its node's units, then calls
    # its children's closures and does the node's work. -------------------

    def expr(e: Expr):
        return expressions[type(e)](e)

    def alone(e: Expr):
        """A leaf that is not read by its parent's getter."""
        get, pos = leaf(e)[0], e.pos

        def ev(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            return get(f)
        return ev

    def not_(e: NotExpr):
        (operand,), where = operands(e.pos, (e.operand,))
        cost = len(where)

        def ev(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL, where[fuel])
            fuel -= cost
            return not operand(f)
        return ev

    def binary(e: BinaryExpr):
        pos, read = e.pos, fused(e)
        if e.op == "&&":
            (left,), where = operands(pos, (e.left,))
            right, cost = expr(e.right), len(where)

            def ev(f):
                nonlocal fuel
                if fuel < cost:
                    raise Fault(_FUEL, where[fuel])
                fuel -= cost
                return left(f) and right(f)
        elif read is not None:
            a, b, op, where = read

            def ev(f):
                nonlocal fuel
                if fuel < 3:
                    raise Fault(_FUEL, where[fuel])
                fuel -= 3
                value = op(f[a], f[b])
                if value < INT_MIN or value > INT_MAX:
                    raise Fault(_OVERFLOW, pos)
                return value
        else:
            (left, right), where = operands(pos, (e.left, e.right))
            op, cost = _BINARY[e.op], len(where)

            def ev(f):
                nonlocal fuel
                if fuel < cost:
                    raise Fault(_FUEL, where[fuel])
                fuel -= cost
                value = op(left(f), right(f))
                if value < INT_MIN or value > INT_MAX:
                    raise Fault(_OVERFLOW, pos)
                return value
        return ev

    def index(e: ArrayIndexExpr):
        (array, at), where = operands(e.pos, (e.array, e.index))
        pos, cost = e.pos, len(where)

        def ev(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL, where[fuel])
            fuel -= cost
            items = array(f)
            i = at(f)
            if items is None:
                raise Fault(_NULL, pos)
            if i < 0 or i >= len(items):
                raise Fault(_BOUNDS, pos)
            return items[i]
        return ev

    def length(e: ArrayLengthExpr):
        (array,), where = operands(e.pos, (e.array,))
        pos, cost = e.pos, len(where)

        def ev(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL, where[fuel])
            fuel -= cost
            items = array(f)
            if items is None:
                raise Fault(_NULL, pos)
            return len(items)
        return ev

    def new_array(e: NewArrayExpr):
        (size,), where = operands(e.pos, (e.length,))
        pos, cost = e.pos, len(where)

        def ev(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL, where[fuel])
            fuel -= cost
            k = size(f)
            if k < 0:
                raise Fault(_NEGATIVE, pos)
            return [0] * k
        return ev

    def new_object(e: NewObjectExpr):
        template = templates[e.class_name]
        pos = e.pos

        def ev(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            return template.copy()
        return ev

    def call(e: CallExpr):
        (receiver, *args), where = operands(e.pos, (e.receiver, *e.args))
        pos, name, cost = e.pos, e.method, len(where)

        def ev(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL, where[fuel])
            fuel -= cost
            this = receiver(f)
            frame = [this]
            for arg in args:
                frame.append(arg(f))
            if this is None:
                raise Fault(_NULL, pos)
            body, result, locals_ = this[0][name]
            frame.extend(locals_)
            for s in body:
                s(frame)
            return result(frame)
        return ev

    expressions = {IdentExpr: alone, IntLitExpr: alone, BoolLitExpr: alone, ThisExpr: alone,
                   NotExpr: not_, BinaryExpr: binary, ArrayIndexExpr: index,
                   ArrayLengthExpr: length, NewArrayExpr: new_array,
                   NewObjectExpr: new_object, CallExpr: call}

    # -- statements ---------------------------------------------------------

    def stmt(s: Stmt):
        return statements[type(s)](s)

    def block(s: BlockStmt):
        body = tuple(stmt(sub) for sub in s.body)
        pos = s.pos

        def ex(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            for sub in body:
                sub(f)
        return ex

    def if_(s: IfStmt):
        (cond,), where = operands(s.pos, (s.cond,))
        then, else_, cost = stmt(s.then_branch), stmt(s.else_branch), len(where)

        def ex(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL, where[fuel])
            fuel -= cost
            if cond(f):
                then(f)
            else:
                else_(f)
        return ex

    def while_(s: WhileStmt):
        # the statement's unit on entry and the one it pays after each
        # pass through the body both come just before the condition
        body, read = stmt(s.body), fused(s.cond)
        if read is not None:
            a, b, _, where = read
            where = (s.pos, *where)

            def ex(f):
                nonlocal fuel
                while True:
                    if fuel < 4:
                        raise Fault(_FUEL, where[fuel])
                    fuel -= 4
                    if not f[a] < f[b]:
                        return
                    body(f)
            return ex
        (cond,), where = operands(s.pos, (s.cond,))
        cost = len(where)

        def ex(f):
            nonlocal fuel
            while True:
                if fuel < cost:
                    raise Fault(_FUEL, where[fuel])
                fuel -= cost
                if not cond(f):
                    return
                body(f)
        return ex

    def print_(s: PrintStmt):
        (value,), where = operands(s.pos, (s.value,))
        cost = len(where)

        def ex(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL, where[fuel])
            fuel -= cost
            emit(value(f))
        return ex

    def assign(s: AssignStmt):
        read = fused(s.value) if s.binding != "field" else None
        if read is not None:
            slot, pos = slots[s.name], s.value.pos
            a, b, op, where = read
            where = (s.pos, *where)

            def ex(f):
                nonlocal fuel
                if fuel < 4:
                    raise Fault(_FUEL, where[fuel])
                fuel -= 4
                value = op(f[a], f[b])
                if value < INT_MIN or value > INT_MAX:
                    raise Fault(_OVERFLOW, pos)
                f[slot] = value
            return ex
        (value,), where = operands(s.pos, (s.value,))
        cost = len(where)
        if s.binding == "field":
            index = field_index[s.name]

            def ex(f):
                nonlocal fuel
                if fuel < cost:
                    raise Fault(_FUEL, where[fuel])
                fuel -= cost
                f[0][index] = value(f)
        else:
            slot = slots[s.name]

            def ex(f):
                nonlocal fuel
                if fuel < cost:
                    raise Fault(_FUEL, where[fuel])
                fuel -= cost
                f[slot] = value(f)
        return ex

    def array_assign(s: ArrayAssignStmt):
        array = variable(s.name, s.binding)
        (at, value), where = operands(s.pos, (s.index, s.value))
        pos, cost = s.pos, len(where)

        def ex(f):
            nonlocal fuel
            if fuel < cost:
                raise Fault(_FUEL, where[fuel])
            fuel -= cost
            items = array(f)
            i = at(f)
            v = value(f)
            if items is None:
                raise Fault(_NULL, pos)
            if i < 0 or i >= len(items):
                raise Fault(_BOUNDS, pos)
            items[i] = v
        return ex

    statements = {BlockStmt: block, IfStmt: if_, WhileStmt: while_,
                   PrintStmt: print_, AssignStmt: assign,
                   ArrayAssignStmt: array_assign}

    # -- methods and classes ------------------------------------------------

    def method(cls: str, decl: MethodDecl) -> tuple:
        slots.clear()
        literals.clear()
        for slot, var in enumerate((*decl.formals, *decl.local_vars), start=1):
            slots[var.name] = slot
        field_index.clear()
        for index, fname in enumerate(table.info(cls).all_fields, start=1):
            field_index[fname] = index
        body = tuple(stmt(s) for s in decl.body)
        result = expr(decl.return_expr)
        return body, result, (*(_DEFAULTS.get(var.var_type) for var in decl.local_vars),
                               *(value for _, value in literals))

    code = {(name, mname): method(name, decl)
            for name, info in table.classes.items()
            for mname, decl in info.methods.items() if (name, mname) in table.live}
    for name, info in table.classes.items():
        for mname, (impl, _) in info.vtable.items():
            if (impl, mname) in code:
                vtables[name][mname] = code[impl, mname]
    slots.clear()
    literals.clear()
    main = tuple(stmt(s) for s in program.main.body)
    main_frame = [None, *(value for _, value in literals)]

    def run():
        try:
            frame = main_frame
            for s in main:
                s(frame)
        finally:
            # break the template -> vtable -> closure cycles so the run's
            # memory goes now
            for vtable in vtables.values():
                vtable.clear()

    def fuel_left() -> int:
        return fuel

    return run, fuel_left


def interpret_mj(program: MjProgram, table: ClassTable | None = None,
                 fuel: int = DEFAULT_FUEL) -> RunOutcome:
    """Run a typechecked program; typechecks first when no table is given."""
    if table is None:
        table = typecheck(program)
    outcome, _ = run_compiled(
        lambda fuel, output: _compile(program, table, fuel, output), fuel,
        makes_cycles=True)
    return outcome
