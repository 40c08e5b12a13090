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
and formal to its slot and every field to its index in the object.  The
layout is read off the class table's resolved classes: an object holds
its class's `all_fields` after its vtable, and the vtable maps each
method of the class's `vtable` to the compiled implementation (its
statements, its return expression and its locals' defaults), each
compiled once.  `new` copies a class's template object, which holds its
vtable and its fields' defaults.  So method lookup is one dict read, and
nothing consults the class table while the program runs.  The main body
runs in the frame `[None]`.

Fuel.  Every statement and expression evaluation costs one unit of fuel,
checked before the node's work, and a `while` pays one more unit, at its
own position, after each pass through its body.  Running out is the
FuelExhausted fault at the position of the node that could not pay, and
`RunOutcome.steps` is the fuel used.  A node pays with one check for
itself and for the pure operands it evaluates before any other operand;
a pure operand in any other place pays for all of its nodes at once.
Pure means literals, variables, `this`, and `!` and `<` of pure
operands: they have no effect and cannot fault, so no output, fault,
fault position or step count can tell this from paying node by node.
When the fuel does not cover such a check, the fault names the node,
in evaluation order, at which the fuel would have run out.

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

from itertools import count
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
    Pos,
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


def _compile(program: MjProgram, table: ClassTable, fuel: int, output: list[int],
             alloc_trace: list[int] | None):
    """Compile `program` for one run with `fuel` units (at least 0).

    Returns `(run, fuel_left)`: `run()` executes the main body (or
    raises Fault), `fuel_left()` returns the fuel not yet spent.
    """
    emit = output.append
    if alloc_trace is None:
        traced = None
    else:
        pointers = count()

        def traced():
            alloc_trace.append(next(pointers))

    # Compile-time layout: each class's vtable (filled once the methods
    # are compiled) and template object, each field's index in its
    # objects, and the slots of the method being compiled.
    vtables: dict[str, dict[str, tuple]] = {}
    templates: dict[str, list] = {}
    field_index: dict[tuple[str, str], int] = {}
    for name, info in table.classes.items():
        vtables[name] = {}
        templates[name] = [vtables[name],
                           *(_DEFAULTS.get(fty) for _, fty in info.all_fields.values())]
        for index, fname in enumerate(info.all_fields, start=1):
            field_index[name, fname] = index
    slots: dict[str, int] = {}

    def variable(name: str, binding) -> object:
        """Getter for a variable of the method being compiled."""
        if binding.kind == "field":
            index = field_index[binding.decl_class, name]
            return lambda f: f[0][index]
        return itemgetter(slots[name])

    # -- expressions.  `compiled(e)` is a pair: for a pure `e`, a getter
    # that charges nothing and the positions of its nodes in evaluation
    # order; for any other `e`, a closure that charges its own fuel before
    # its work, and None. --------------------------------------------------

    def compiled(e: Expr) -> tuple:
        cls = type(e)
        if cls is IntLitExpr or cls is BoolLitExpr:
            value = e.value
            return (lambda f: value), [e.span.start]
        if cls is IdentExpr:
            return variable(e.name, e.binding), [e.span.start]
        if cls is ThisExpr:
            return itemgetter(0), [e.span.start]
        if cls is NotExpr:
            operand = compiled(e.operand)
            get, poss = operand
            if poss is not None:
                return (lambda f: not get(f)), [e.span.start, *poss]
            return not_(e, operand), None
        if cls is BinaryExpr:
            if e.op in _ARITHMETIC:
                return arithmetic(e, _ARITHMETIC[e.op]), None
            if e.op == "&&":
                return and_(e), None
            left, right = compiled(e.left), compiled(e.right)
            if left[1] is not None and right[1] is not None:
                lget, rget = left[0], right[0]
                return (lambda f: lget(f) < rget(f)), [e.span.start, *left[1], *right[1]]
            return less(e, left, right), None
        return expressions[cls](e), None

    def charged(part: tuple):
        """The closure for a compiled operand: a pure one's getter behind
        one check for all of its nodes."""
        get, poss = part
        if poss is None:
            return get
        n = len(poss)

        def ev(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
            return get(f)
        return ev

    def expr(e: Expr):
        return charged(compiled(e))

    def operands(node, children) -> tuple[list[Pos], list]:
        """Positions `node` pays for with its own check, and one closure
        per child (an expression or its compiled pair): a getter for each
        pure child before the first impure one, which the node pays for,
        and otherwise the child's closure."""
        poss = [node.span.start]
        closures = []
        prefix = True
        for child in children:
            get, child_poss = child if type(child) is tuple else compiled(child)
            prefix = prefix and child_poss is not None
            if prefix:
                closures.append(get)
                poss.extend(child_poss)
            else:
                closures.append(charged((get, child_poss)))
        return poss, closures

    def arithmetic(e, op):
        poss, (left, right) = operands(e, (e.left, e.right))
        n, pos = len(poss), poss[0]

        def ev(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
            value = op(left(f), right(f))
            if value < INT_MIN or value > INT_MAX:
                raise Fault(_OVERFLOW, pos)
            return value
        return ev

    def less(e: BinaryExpr, left: tuple, right: tuple):
        poss, (left, right) = operands(e, (left, right))
        n = len(poss)

        def ev(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
            return left(f) < right(f)
        return ev

    def and_(e: BinaryExpr):
        poss, (left,) = operands(e, (e.left,))
        n = len(poss)
        right = expr(e.right)

        def ev(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
            return left(f) and right(f)
        return ev

    def not_(e: NotExpr, operand: tuple):
        poss, (operand,) = operands(e, (operand,))
        n = len(poss)

        def ev(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
            return not operand(f)
        return ev

    def index(e: ArrayIndexExpr):
        poss, (array, at) = operands(e, (e.array, e.index))
        n, pos = len(poss), poss[0]

        def ev(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
            items = array(f)
            i = at(f)
            if items is None:
                raise Fault(_NULL, pos)
            if i < 0 or i >= len(items):
                raise Fault(_BOUNDS, pos)
            return items[i]
        return ev

    def length(e: ArrayLengthExpr):
        poss, (array,) = operands(e, (e.array,))
        n, pos = len(poss), poss[0]

        def ev(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
            items = array(f)
            if items is None:
                raise Fault(_NULL, pos)
            return len(items)
        return ev

    def new_array(e: NewArrayExpr):
        poss, (size,) = operands(e, (e.length,))
        n, pos = len(poss), poss[0]

        def ev(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
            k = size(f)
            if k < 0:
                raise Fault(_NEGATIVE, pos)
            if traced is not None:
                traced()
            return [0] * k
        return ev

    def new_object(e: NewObjectExpr):
        template = templates[e.class_name]
        pos = e.span.start

        def ev(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            if traced is not None:
                traced()
            return template.copy()
        return ev

    def call(e: CallExpr):
        poss, (receiver, *args) = operands(e, (e.receiver, *e.args))
        n, pos, name = len(poss), poss[0], e.method

        def ev(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
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

    expressions = {ArrayIndexExpr: index, ArrayLengthExpr: length,
                    NewArrayExpr: new_array, NewObjectExpr: new_object,
                    CallExpr: call}

    # -- statements ---------------------------------------------------------

    def stmt(s: Stmt):
        return statements[type(s)](s)

    def block(s: BlockStmt):
        body = tuple(stmt(sub) for sub in s.body)
        pos = s.span.start

        def ex(f):
            nonlocal fuel
            if fuel < 1:
                raise Fault(_FUEL, pos)
            fuel -= 1
            for sub in body:
                sub(f)
        return ex

    def if_(s: IfStmt):
        poss, (cond,) = operands(s, (s.cond,))
        n = len(poss)
        then, else_ = stmt(s.then_branch), stmt(s.else_branch)

        def ex(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
            if cond(f):
                then(f)
            else:
                else_(f)
        return ex

    def while_(s: WhileStmt):
        # the statement's unit on entry and the one it pays after each
        # pass through the body both come just before the condition
        poss, (cond,) = operands(s, (s.cond,))
        n = len(poss)
        body = stmt(s.body)

        def ex(f):
            nonlocal fuel
            while True:
                if fuel < n:
                    raise Fault(_FUEL, poss[fuel])
                fuel -= n
                if not cond(f):
                    return
                body(f)
        return ex

    def print_(s: PrintStmt):
        poss, (value,) = operands(s, (s.value,))
        n = len(poss)

        def ex(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
            emit(value(f))
        return ex

    def assign(s: AssignStmt):
        poss, (value,) = operands(s, (s.value,))
        n = len(poss)
        if s.binding.kind == "field":
            index = field_index[s.binding.decl_class, s.name]

            def ex(f):
                nonlocal fuel
                if fuel < n:
                    raise Fault(_FUEL, poss[fuel])
                fuel -= n
                f[0][index] = value(f)
        else:
            slot = slots[s.name]

            def ex(f):
                nonlocal fuel
                if fuel < n:
                    raise Fault(_FUEL, poss[fuel])
                fuel -= n
                f[slot] = value(f)
        return ex

    def array_assign(s: ArrayAssignStmt):
        array = variable(s.name, s.binding)
        poss, (at, value) = operands(s, (s.index, s.value))
        n, pos = len(poss), poss[0]

        def ex(f):
            nonlocal fuel
            if fuel < n:
                raise Fault(_FUEL, poss[fuel])
            fuel -= n
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

    def method(decl: MethodDecl) -> tuple:
        slots.clear()
        for slot, var in enumerate((*decl.formals, *decl.local_vars), start=1):
            slots[var.name] = slot
        body = tuple(stmt(s) for s in decl.body)
        return body, expr(decl.return_expr), tuple(
            _DEFAULTS.get(var.var_type) for var in decl.local_vars)

    code = {(name, mname): method(decl)
            for name, info in table.classes.items()
            for mname, decl in info.methods.items()}
    for name, info in table.classes.items():
        for mname, (impl, _) in info.vtable.items():
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
                 fuel: int = DEFAULT_FUEL,
                 alloc_trace: list[int] | None = None) -> RunOutcome:
    """Run a typechecked program; typechecks first when no table is given.

    `alloc_trace`, when given, gets one pointer per allocation, objects
    and arrays alike, numbered from 0 in allocation order.
    """
    if table is None:
        table = typecheck(program)
    outcome, _ = run_compiled(
        lambda fuel, output: _compile(program, table, fuel, output, alloc_trace), fuel)
    return outcome
