"""Reference interpreter for MiniJava.

Values at runtime are Python ints and bools; objects and arrays live in
a heap keyed by pointers allocated sequentially from 0, and a class or
array variable holds such a pointer (or -1 for null, the default).
Arithmetic is checked 63-bit: any result outside
[-2^62, 2^62 - 1] is an IntegerOverflow fault.

Faults stop execution and are reported in the RunOutcome together with
whatever output was produced before the fault.  Every statement and
expression evaluation costs one unit of fuel; running out is the
FuelExhausted fault, and `RunOutcome.steps` is the fuel used.  The run
raises Python's recursion limit to `outcome.RECURSION_LIMIT`; overflowing
it (a MiniJava call chain some 8000 calls deep) is reported as
FuelExhausted as well, since it is the same resource-limit channel.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .mjast import (
    INT_MAX,
    INT_MIN,
    AndExpr,
    ArrayAssignStmt,
    ArrayIndexExpr,
    ArrayLengthExpr,
    AssignStmt,
    BlockStmt,
    CallExpr,
    Expr,
    FalseExpr,
    IdentExpr,
    IfStmt,
    IntLitExpr,
    LessExpr,
    MinusExpr,
    MjProgram,
    NewArrayExpr,
    NewObjectExpr,
    NotExpr,
    PlusExpr,
    Pos,
    PrintStmt,
    Stmt,
    ThisExpr,
    TimesExpr,
    TrueExpr,
    WhileStmt,
)
from .outcome import DEFAULT_FUEL, RECURSION_LIMIT, FaultKind, RunOutcome
from .sema import ClassTable, typecheck

NULL = -1


@dataclass
class HeapObject:
    class_name: str
    fields: dict[str, object]


@dataclass
class HeapArray:
    items: list[int]


class _Fault(Exception):
    def __init__(self, kind: FaultKind, pos: Pos):
        self.kind = kind
        self.pos = pos


@dataclass
class _State:
    table: ClassTable
    fuel: int
    heap: dict[int, object] = field(default_factory=dict)
    next_ptr: int = 0
    output: list[int] = field(default_factory=list)
    alloc_trace: list[int] | None = None

    def tick(self, pos: Pos) -> None:
        if self.fuel <= 0:
            raise _Fault(FaultKind.FUEL_EXHAUSTED, pos)
        self.fuel -= 1

    def alloc(self, value: object) -> int:
        ptr = self.next_ptr
        self.next_ptr += 1
        self.heap[ptr] = value
        if self.alloc_trace is not None:
            self.alloc_trace.append(ptr)
        return ptr


def _check_int(value: int, pos: Pos) -> int:
    if value < INT_MIN or value > INT_MAX:
        raise _Fault(FaultKind.INTEGER_OVERFLOW, pos)
    return value


def _default_value(ty) -> object:
    from .mjast import BOOL, INT
    if ty == INT:
        return 0
    if ty == BOOL:
        return False
    return NULL


class _Interp:
    def __init__(self, state: _State):
        self.state = state
        self.table = state.table

    def _deref_array(self, ptr: int, pos: Pos) -> HeapArray:
        if ptr == NULL:
            raise _Fault(FaultKind.NULL_DEREFERENCE, pos)
        arr = self.state.heap[ptr]
        assert isinstance(arr, HeapArray)
        return arr

    def _deref_object(self, ptr: int, pos: Pos) -> HeapObject:
        if ptr == NULL:
            raise _Fault(FaultKind.NULL_DEREFERENCE, pos)
        obj = self.state.heap[ptr]
        assert isinstance(obj, HeapObject)
        return obj

    # -- expressions ----------------------------------------------------------

    def eval(self, e: Expr, env: dict[str, object], this: int | None) -> object:
        pos = e.span.start
        self.state.tick(pos)
        if isinstance(e, IntLitExpr):
            return e.value
        if isinstance(e, TrueExpr):
            return True
        if isinstance(e, FalseExpr):
            return False
        if isinstance(e, AndExpr):
            left = self.eval(e.left, env, this)
            if not left:
                return False
            return self.eval(e.right, env, this)
        if isinstance(e, LessExpr):
            return self.eval(e.left, env, this) < self.eval(e.right, env, this)
        if isinstance(e, PlusExpr):
            return _check_int(self.eval(e.left, env, this) + self.eval(e.right, env, this), pos)
        if isinstance(e, MinusExpr):
            return _check_int(self.eval(e.left, env, this) - self.eval(e.right, env, this), pos)
        if isinstance(e, TimesExpr):
            return _check_int(self.eval(e.left, env, this) * self.eval(e.right, env, this), pos)
        if isinstance(e, NotExpr):
            return not self.eval(e.operand, env, this)
        if isinstance(e, ArrayIndexExpr):
            ptr = self.eval(e.array, env, this)
            idx = self.eval(e.index, env, this)
            arr = self._deref_array(ptr, pos)
            if idx < 0 or idx >= len(arr.items):
                raise _Fault(FaultKind.INDEX_OUT_OF_BOUNDS, pos)
            return arr.items[idx]
        if isinstance(e, ArrayLengthExpr):
            arr = self._deref_array(self.eval(e.array, env, this), pos)
            return len(arr.items)
        if isinstance(e, IdentExpr):
            assert e.binding is not None
            if e.binding.kind == "field":
                obj = self._deref_object(this, pos)
                return obj.fields[e.name]
            return env[e.name]
        if isinstance(e, ThisExpr):
            assert this is not None
            return this
        if isinstance(e, NewArrayExpr):
            n = self.eval(e.length, env, this)
            if n < 0:
                raise _Fault(FaultKind.NEGATIVE_ARRAY_SIZE, pos)
            return self.state.alloc(HeapArray([0] * n))
        if isinstance(e, NewObjectExpr):
            fields: dict[str, object] = {}
            for cname in self.table.path_from_root(e.class_name):
                for fname, fty in self.table.info(cname).fields.items():
                    fields[fname] = _default_value(fty)
            return self.state.alloc(HeapObject(e.class_name, fields))
        if isinstance(e, CallExpr):
            recv = self.eval(e.receiver, env, this)
            args = [self.eval(a, env, this) for a in e.args]
            obj = self._deref_object(recv, pos)
            return self.call(obj.class_name, e.method, recv, args)
        raise AssertionError(f"unhandled expression {type(e).__name__}")

    def call(self, dynamic_class: str, method: str, receiver: int,
             args: list[object]) -> object:
        found = self.table.lookup_method(dynamic_class, method)
        assert found is not None
        _, decl = found
        env: dict[str, object] = {}
        for formal, arg in zip(decl.formals, args):
            env[formal.name] = arg
        for local in decl.local_vars:
            env[local.name] = _default_value(local.var_type)
        for s in decl.body:
            self.exec(s, env, receiver)
        return self.eval(decl.return_expr, env, receiver)

    # -- statements -----------------------------------------------------------

    def exec(self, s: Stmt, env: dict[str, object], this: int | None) -> None:
        pos = s.span.start
        self.state.tick(pos)
        if isinstance(s, BlockStmt):
            for sub in s.body:
                self.exec(sub, env, this)
        elif isinstance(s, IfStmt):
            if self.eval(s.cond, env, this):
                self.exec(s.then_branch, env, this)
            else:
                self.exec(s.else_branch, env, this)
        elif isinstance(s, WhileStmt):
            while self.eval(s.cond, env, this):
                self.exec(s.body, env, this)
                self.state.tick(pos)
        elif isinstance(s, PrintStmt):
            self.state.output.append(self.eval(s.value, env, this))
        elif isinstance(s, AssignStmt):
            value = self.eval(s.value, env, this)
            assert s.binding is not None
            if s.binding.kind == "field":
                obj = self._deref_object(this, pos)
                obj.fields[s.name] = value
            else:
                env[s.name] = value
        elif isinstance(s, ArrayAssignStmt):
            assert s.binding is not None
            if s.binding.kind == "field":
                obj = self._deref_object(this, pos)
                ptr = obj.fields[s.name]
            else:
                ptr = env[s.name]
            idx = self.eval(s.index, env, this)
            value = self.eval(s.value, env, this)
            arr = self._deref_array(ptr, pos)
            if idx < 0 or idx >= len(arr.items):
                raise _Fault(FaultKind.INDEX_OUT_OF_BOUNDS, pos)
            arr.items[idx] = value
        else:
            raise AssertionError(f"unhandled statement {type(s).__name__}")


def interpret_mj(program: MjProgram, table: ClassTable | None = None,
                 fuel: int = DEFAULT_FUEL,
                 alloc_trace: list[int] | None = None) -> RunOutcome:
    """Run a typechecked program; typechecks first when no table is given."""
    if table is None:
        table = typecheck(program)
    state = _State(table=table, fuel=fuel, alloc_trace=alloc_trace)
    interp = _Interp(state)
    outcome = RunOutcome(output=state.output)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, RECURSION_LIMIT))
    try:
        for s in program.main.body:
            interp.exec(s, {}, None)
    except _Fault as fault:
        outcome.fault = fault.kind
        outcome.fault_pos = fault.pos
    except RecursionError:
        outcome.fault = FaultKind.FUEL_EXHAUSTED
    finally:
        sys.setrecursionlimit(old_limit)
    outcome.steps = fuel - state.fuel
    return outcome
