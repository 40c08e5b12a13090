"""A fixed reference task that measures how fast the machine is right now.

The 2-core VM the benchmark was written on slows down by up to 1.8x for
seconds or minutes at a time, and the slow phases slow every kind of
Python code by about the same factor.  The task does a little of what
mj2ml does: integer arithmetic, allocating small dataclass records and
joining strings, and walking an expression tree with association-list
environments.  It never calls mj2ml, so no change to the code under test
can change its time.  Its garbage collection is off while it runs, so a
large heap left by the code under test does not slow it either.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# The task's fastest time on that VM in a quiet phase.
REFERENCE_SECONDS = 0.0022


@dataclass
class Num:
    value: int


@dataclass
class Add:
    left: object
    right: object


@dataclass
class Var:
    name: str


@dataclass
class Let:
    name: str
    bound: object
    body: object


@dataclass
class Token:
    kind: str
    text: str
    line: int


def _tree(depth: int):
    name = f"x{depth % 5}"
    if depth == 0:
        return Var(name)
    inner = _tree(depth - 1) if depth % 3 else Var(f"x{(depth + 1) % 5}")
    return Let(name, Add(Num(depth), inner), Add(_tree(depth - 1), Num(1)))


TREE = _tree(9)
for _depth in range(5):
    TREE = Let(f"x{_depth}", Num(_depth), TREE)


def _evaluate(expr, env) -> int:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Add):
        return _evaluate(expr.left, env) + _evaluate(expr.right, env)
    if isinstance(expr, Var):
        while env is not None:
            if env[0] == expr.name:
                return env[1]
            env = env[2]
        raise KeyError(expr.name)
    return _evaluate(expr.body, (expr.name, _evaluate(expr.bound, env), env))


def _work() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    tokens = [Token("id" if i % 3 else "num", f"x{i}", i // 10) for i in range(1000)]
    text = "\n".join(t.kind + ":" + t.text if t.kind == "id" else str(int(t.text[1:]) + 1)
                     for t in tokens)
    return total + len(text.encode()) + sum(_evaluate(TREE, None) for _ in range(4))


EXPECTED = _work()


def reference_seconds() -> float:
    """Time of one run of the reference task, with garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        result = _work()
        took = time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError("reference task computed a different result")
    return took
