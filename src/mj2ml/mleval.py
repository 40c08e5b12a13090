"""Evaluator for the core ML fragment.

Values are Python ints and bools, tuples for ML tuples, `VCon` for
datatype values, and closures, which only `fun` declarations create:
the fragment has no `fn` and no literal patterns.  Environments are
dicts extended by copying, so closures capture their defining scope and
later bindings never leak in; a `LetFun` group ties its recursive knot
by inserting the closures into the shared environment dict before any
of them runs.

The evaluation loop is iterative in tail position: `let` bodies,
conditional branches, case arms, and every function application
continue the loop instead of recursing.  Translated `while` loops are
self-tail-calls, so they run in constant Python stack; only non-tail
nesting (one level per pending method call) consumes stack.  Fuel is
charged once per step; exhaustion and over-deep non-tail recursion both
report FuelExhausted.

`=` and `<` are defined on integers; arithmetic outside the 63-bit
range [-2^62, 2^62 - 1] is an IntegerOverflow fault; a `case` (or a
binding pattern) that no rule matches is a MatchFailure fault.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .mjast import INT_MAX, INT_MIN
from .mlast import (
    App,
    Case,
    Con,
    If,
    IntLit,
    Let,
    LetFun,
    MlExpr,
    MlProgram,
    Pat,
    PCon,
    PrimOp,
    PTuple,
    PVar,
    PWild,
    Tuple,
    Var,
)
from .outcome import DEFAULT_FUEL, FaultKind, RunOutcome

UNIT = ()

_RECURSION_LIMIT = 20_000


@dataclass(frozen=True)
class VCon:
    name: str
    args: tuple = ()


class VClosure:
    __slots__ = ("param", "body", "env")

    def __init__(self, param: Pat, body: MlExpr, env: dict):
        self.param = param
        self.body = body
        self.env = env


class VBuiltinPrint:
    """Callable value bound to mj_print: collects printed integers."""

    __slots__ = ("output",)

    def __init__(self, output: list[int]):
        self.output = output


class MlFault(Exception):
    def __init__(self, kind: FaultKind):
        self.kind = kind


def match(pat: Pat, value: object, env: dict) -> bool:
    """Bind pattern variables into env; False when the value does not fit."""
    cls = type(pat)
    if cls is PVar:
        env[pat.name] = value
        return True
    if cls is PWild:
        return True
    if cls is PTuple:
        if not (type(value) is tuple and len(value) == len(pat.items)):
            return False
        return all(match(p, v, env) for p, v in zip(pat.items, value))
    if cls is PCon:
        if pat.name == "true":
            return value is True
        if pat.name == "false":
            return value is False
        if not (isinstance(value, VCon) and value.name == pat.name
                and len(value.args) == len(pat.args)):
            return False
        return all(match(p, v, env) for p, v in zip(pat.args, value.args))
    raise AssertionError(f"unhandled pattern {cls.__name__}")


class _Evaluator:
    def __init__(self, fuel: int):
        self.fuel = fuel

    def eval(self, expr: MlExpr, env: dict) -> object:
        while True:
            if self.fuel <= 0:
                raise MlFault(FaultKind.FUEL_EXHAUSTED)
            self.fuel -= 1
            cls = type(expr)
            if cls is Var:
                return env[expr.name]
            if cls is IntLit:
                return expr.value
            if cls is Let:
                value = self.eval(expr.rhs, env)
                env = dict(env)
                if not match(expr.pat, value, env):
                    raise MlFault(FaultKind.MATCH_FAILURE)
                expr = expr.body
                continue
            if cls is App:
                func = self.eval(expr.func, env)
                arg = self.eval(expr.arg, env)
                if type(func) is VBuiltinPrint:
                    func.output.append(arg)
                    return UNIT
                if type(func) is not VClosure:
                    raise MlFault(FaultKind.MATCH_FAILURE)
                env = dict(func.env)
                if not match(func.param, arg, env):
                    raise MlFault(FaultKind.MATCH_FAILURE)
                expr = func.body
                continue
            if cls is If:
                expr = expr.then if self.eval(expr.cond, env) else expr.orelse
                continue
            if cls is Case:
                value = self.eval(expr.scrutinee, env)
                for pat, rhs in expr.rules:
                    rule_env = dict(env)
                    if match(pat, value, rule_env):
                        env = rule_env
                        expr = rhs
                        break
                else:
                    raise MlFault(FaultKind.MATCH_FAILURE)
                continue
            if cls is PrimOp:
                a = self.eval(expr.args[0], env)
                b = self.eval(expr.args[1], env)
                op = expr.op
                if op == "+":
                    result = a + b
                elif op == "-":
                    result = a - b
                elif op == "*":
                    result = a * b
                elif op == "<":
                    return a < b
                else:
                    return a == b
                if result < INT_MIN or result > INT_MAX:
                    raise MlFault(FaultKind.INTEGER_OVERFLOW)
                return result
            if cls is Tuple:
                return tuple(self.eval(item, env) for item in expr.items)
            if cls is Con:
                name = expr.name
                if not expr.args:
                    if name == "true":
                        return True
                    if name == "false":
                        return False
                    return VCon(name)
                return VCon(name, tuple(self.eval(a, env) for a in expr.args))
            if cls is LetFun:
                env = dict(env)
                for f in expr.funs:
                    env[f.name] = VClosure(f.param, f.body, env)
                expr = expr.body
                continue
            raise AssertionError(f"unhandled expression {cls.__name__}")


def alloc_order(state_value: object) -> list[int]:
    """Pointers in allocation order, read off a final (counter, heap) state.

    The heap conses new cells onto the front, so reversing the key list
    recovers the order in which they were allocated.
    """
    assert type(state_value) is tuple and len(state_value) == 2
    _, heap = state_value
    keys = []
    while isinstance(heap, VCon) and heap.name == "::":
        pair, heap = heap.args
        keys.append(pair[0])
    return list(reversed(keys))


def eval_program(program: MlProgram, fuel: int = DEFAULT_FUEL,
                 ) -> tuple[RunOutcome, object | None]:
    """Run the program; returns (outcome, value of the entry expression).

    The value is None when the run faulted.
    """
    output: list[int] = []
    evaluator = _Evaluator(fuel)
    env: dict = {"mj_print": VBuiltinPrint(output)}
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, _RECURSION_LIMIT))
    try:
        for group in program.fun_groups:
            env = dict(env)
            for f in group:
                env[f.name] = VClosure(f.param, f.body, env)
        value = evaluator.eval(program.main, env)
        return RunOutcome(output=output), value
    except MlFault as fault:
        return RunOutcome(output=output, fault=fault.kind), None
    except RecursionError:
        return RunOutcome(output=output, fault=FaultKind.FUEL_EXHAUSTED), None
    finally:
        sys.setrecursionlimit(old_limit)
