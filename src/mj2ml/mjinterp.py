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
`this`, then come the formals in order and then the locals, which start
at their defaults (0, false, null).  The compiler resolves every local
and formal (by the node's `binding`) to its slot and every field to its
index in the object.  The layout is read off the class table's resolved
classes: an object holds its class's `all_fields` after its vtable.
Each class's `all_fields` extends its superclass's, so a field has the
index it has in the objects of the class whose method is compiled, where
the compiler looks it up, in every object the method runs on.  The
vtable maps each method of the class's `vtable` to the compiled
implementation (its statements, its return expression and its locals'
defaults), each compiled once.  Only the class table's live methods
(see `sema`) are compiled, and a vtable holds only those: a call's
receiver was made by a `new` a run can reach, and the call reads a slot
a run can reach, so its implementation is there.  `new` copies a
class's template object, which holds its vtable and its fields'
defaults.  So method lookup is one dict read, and nothing consults the
class table while the program runs.  The main body runs in the frame
`[None]`.

Fuel.  Every statement and expression evaluation costs one unit of fuel,
which its closure pays at its node's position before calling its
children's closures or doing its work, and a `while` pays one more unit,
at its own position, after each pass through its body.  Running out is
the FuelExhausted fault at the position of the node that could not pay,
and `RunOutcome.steps` is the fuel used.

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

from operator import add, itemgetter, mul, sub

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

_ARITHMETIC = {"+": add, "-": sub, "*": mul}


def _compile(program: MjProgram, table: ClassTable, fuel: int, output: list[int]):
    """Compile `program` for one run with `fuel` units (at least 0).

    Returns `(run, fuel_left)`: `run()` executes the main body (or
    raises Fault), `fuel_left()` returns the fuel not yet spent.
    """
    emit = output.append

    # Compile-time layout: each class's vtable (filled once the methods
    # are compiled) and template object, and the slots of the method
    # being compiled and its class's field indices in an object.
    vtables: dict[str, dict[str, tuple]] = {}
    templates: dict[str, list] = {}
    for name, info in table.classes.items():
        vtables[name] = {}
        templates[name] = [vtables[name],
                           *(_DEFAULTS.get(fty) for _, fty in info.all_fields.values())]
    slots: dict[str, int] = {}
    field_index: dict[str, int] = {}

    def variable(name: str, binding: str) -> object:
        """Getter for a variable of the method being compiled."""
        if binding == "field":
            index = field_index[name]
            return lambda f: f[0][index]
        return itemgetter(slots[name])

    # -- expressions.  Each closure first pays its node's unit, then calls
    # its children's closures and does the node's work. -------------------

    def expr(e: Expr):
        return expressions[type(e)](e)

    def literal(e: IntLitExpr | BoolLitExpr):
        value, pos = e.value, e.pos

        def ev(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            return value
        return ev

    def ident(e: IdentExpr):
        get, pos = variable(e.name, e.binding), e.pos

        def ev(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            return get(f)
        return ev

    def this_(e: ThisExpr):
        pos = e.pos

        def ev(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            return f[0]
        return ev

    def not_(e: NotExpr):
        operand, pos = expr(e.operand), e.pos

        def ev(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            return not operand(f)
        return ev

    def binary(e: BinaryExpr):
        left, right, pos = expr(e.left), expr(e.right), e.pos
        if e.op == "&&":
            def ev(f):
                nonlocal fuel
                if fuel < 1:
                    raise Fault(_FUEL, pos)
                fuel -= 1
                return left(f) and right(f)
        elif e.op == "<":
            def ev(f):
                nonlocal fuel
                if fuel < 1:
                    raise Fault(_FUEL, pos)
                fuel -= 1
                return left(f) < right(f)
        else:
            op = _ARITHMETIC[e.op]

            def ev(f):
                nonlocal fuel
                if fuel < 1:
                    raise Fault(_FUEL, pos)
                fuel -= 1
                value = op(left(f), right(f))
                if value < INT_MIN or value > INT_MAX:
                    raise Fault(_OVERFLOW, pos)
                return value
        return ev

    def index(e: ArrayIndexExpr):
        array, at, pos = expr(e.array), expr(e.index), e.pos

        def ev(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            items = array(f)
            i = at(f)
            if items is None:
                raise Fault(_NULL, pos)
            if i < 0 or i >= len(items):
                raise Fault(_BOUNDS, pos)
            return items[i]
        return ev

    def length(e: ArrayLengthExpr):
        array, pos = expr(e.array), e.pos

        def ev(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            items = array(f)
            if items is None:
                raise Fault(_NULL, pos)
            return len(items)
        return ev

    def new_array(e: NewArrayExpr):
        size, pos = expr(e.length), e.pos

        def ev(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
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
        receiver, args = expr(e.receiver), tuple(expr(arg) for arg in e.args)
        pos, name = e.pos, e.method

        def ev(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
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

    expressions = {IntLitExpr: literal, BoolLitExpr: literal, IdentExpr: ident,
                   ThisExpr: this_, NotExpr: not_, BinaryExpr: binary,
                   ArrayIndexExpr: index, ArrayLengthExpr: length,
                   NewArrayExpr: new_array, NewObjectExpr: new_object,
                   CallExpr: call}

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
        cond, pos = expr(s.cond), s.pos
        then, else_ = stmt(s.then_branch), stmt(s.else_branch)

        def ex(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            if cond(f):
                then(f)
            else:
                else_(f)
        return ex

    def while_(s: WhileStmt):
        # the statement's unit on entry and the one it pays after each
        # pass through the body both come just before the condition
        cond, body, pos = expr(s.cond), stmt(s.body), s.pos

        def ex(f):
            nonlocal fuel
            while True:
                if fuel < 1:
                    raise Fault(_FUEL, pos)
                fuel -= 1
                if not cond(f):
                    return
                body(f)
        return ex

    def print_(s: PrintStmt):
        value, pos = expr(s.value), s.pos

        def ex(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            emit(value(f))
        return ex

    def assign(s: AssignStmt):
        value, pos = expr(s.value), s.pos
        if s.binding == "field":
            index = field_index[s.name]

            def ex(f):
                nonlocal fuel
                if fuel < 1:
                    raise Fault(_FUEL, pos)
                fuel -= 1
                f[0][index] = value(f)
        else:
            slot = slots[s.name]

            def ex(f):
                nonlocal fuel
                if fuel < 1:
                    raise Fault(_FUEL, pos)
                fuel -= 1
                f[slot] = value(f)
        return ex

    def array_assign(s: ArrayAssignStmt):
        array = variable(s.name, s.binding)
        at, value, pos = expr(s.index), expr(s.value), s.pos

        def ex(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
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
        for slot, var in enumerate((*decl.formals, *decl.local_vars), start=1):
            slots[var.name] = slot
        field_index.clear()
        for index, fname in enumerate(table.info(cls).all_fields, start=1):
            field_index[fname] = index
        body = tuple(stmt(s) for s in decl.body)
        return body, expr(decl.return_expr), tuple(
            _DEFAULTS.get(var.var_type) for var in decl.local_vars)

    code = {(name, mname): method(name, decl)
            for name, info in table.classes.items()
            for mname, decl in info.methods.items() if (name, mname) in table.live}
    for name, info in table.classes.items():
        for mname, (impl, _) in info.vtable.items():
            if (impl, mname) in code:
                vtables[name][mname] = code[impl, mname]
    slots.clear()
    main = tuple(stmt(s) for s in program.main.body)

    def run():
        try:
            frame = [None]
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
