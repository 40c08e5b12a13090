"""Execution outcomes shared by both interpreters, and the run model.

A run produces the list of printed integers plus an optional fault.
Faults reach the caller as ordinary results, not Python exceptions, so
the two interpreters can be compared verdict-for-verdict.

The run model lives here: both interpreters run their compiled program
through `run_compiled`.  A run gets `fuel` units (at least 0) and
`RECURSION_LIMIT` Python frames beyond its caller's.  A runtime fault is
a `Fault` raised where it happens.  Running out of fuel is the
FuelExhausted fault, and since a check may charge for several nodes and
raises before spending any of them, such a run has used all of its fuel.
Going past the frames is FuelExhausted too, without a position, having
used the fuel spent until then.  Compiling has one bound as well: a
program nested past `MAX_NESTING` is a type error, and each compile stage
gets `COMPILE_FRAMES` frames, enough for any program within that limit.
The recursion limit is the process's, so each run and each compile
stage holds one process-wide lock while it sets the limit and runs (see
`extra_frames`): calls from several threads run one at a time, and a
run reads its steps before it lets go of the lock.

The cyclic collector's policy lives here too, and the caller of
`run_compiled` says which interpreter it runs.  The collector is off
while a program compiles: everything the compile step allocates is kept
until the run ends, so a collection then would only traverse it again.
A run of a translated program keeps it off as well.  Its values are
ints, bools, tuples and datatype values, and a frame holds only values
(see Frames in `mleval`), so it makes no reference cycle for the
collector to find, and reference counting frees all it drops.  Its
compile step leaves none either: the helpers of `mleval`'s one compiler
refer to each other, but they live as long as the process, as do the
store helpers they compiled once, and the run breaks the links between
its own functions and their call sites when it ends, so the closures
compiled for it go with the run.
A MiniJava run gets the collector back as the caller had it: it makes
real cycles, such as an object whose field points to itself, and only
the collector frees those; with it off, a loop that makes one per
iteration would grow without bound.  Either way the caller's setting is
restored when the run ends.
"""

from __future__ import annotations

import enum
import gc
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable

from .mjast import Pos

DEFAULT_FUEL = 10_000_000

# Python frames a run may use beyond its caller's (see `extra_frames`).
# A pending MiniJava method call takes about 4 frames (see `mjinterp`), a
# pending ML call 3 or 4 (see `mleval`).  The limit relies on CPython 3.11
# or later (`requires-python` in pyproject.toml), whose Python-to-Python
# calls take no C stack.
RECURSION_LIMIT = 40_000

# The one nesting limit (see `sema`): nodes from a body to a leaf, classes in a
# chain.  The chain limit guards memory, not frames: each class copies its
# superclass's layout, so a chain of k classes that each add a field costs
# O(k^2) memory (2 000 classes took 356 MB for a `diff` on CPython 3.11).
MAX_NESTING = 500

# Python frames each compile stage may use beyond its caller's.  Bisected
# over every way of nesting to MAX_NESTING, the costliest is parsing, 5
# per `&& (` (2 501 frames); printing takes at most 3 per nested `if`
# (1 501), and no stage recurses per chained class, so the chain limit
# does not bound frames.
COMPILE_FRAMES = 8 * MAX_NESTING


# Held by each `extra_frames` block: the recursion limit is the process's,
# so blocks of two threads run one after the other.  Re-entrant, since a
# block may run inside another of its own thread.
_FRAMES_LOCK = threading.RLock()


class extra_frames:
    """Context manager: the block may use `n` Python frames beyond those
    its caller holds, however deep the caller is.  The recursion limit is
    set from the current depth on entry and restored on exit.  A block
    holds `_FRAMES_LOCK` throughout, so a block in another thread waits
    for it instead of changing the limit under it."""

    def __init__(self, n: int):
        self.n = n

    def __enter__(self) -> None:
        _FRAMES_LOCK.acquire()
        depth, frame = 0, sys._getframe(1)
        while frame is not None:
            depth += 1
            frame = frame.f_back
        self.saved = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + self.n)

    def __exit__(self, *exc_info) -> None:
        sys.setrecursionlimit(self.saved)
        _FRAMES_LOCK.release()


class FaultKind(enum.Enum):
    NULL_DEREFERENCE = "NullDereference"
    INDEX_OUT_OF_BOUNDS = "IndexOutOfBounds"
    NEGATIVE_ARRAY_SIZE = "NegativeArraySize"
    INTEGER_OVERFLOW = "IntegerOverflow"
    MATCH_FAILURE = "MatchFailure"
    FUEL_EXHAUSTED = "FuelExhausted"


class Fault(Exception):
    """A runtime fault of a compiled program, raised where it happens;
    `pos` is the MiniJava source position (the ML side has none)."""

    def __init__(self, kind: FaultKind, pos: Pos | None = None):
        self.kind = kind
        self.pos = pos


@dataclass
class RunOutcome:
    output: list[int] = field(default_factory=list)
    fault: FaultKind | None = None
    fault_pos: Pos | None = None
    steps: int = 0  # fuel consumed: one unit per node (ML) or per
                    # statement and expression (MiniJava) visited

    @property
    def ok(self) -> bool:
        return self.fault is None

    def fault_line(self) -> str:
        """Diagnostic line for a faulting run."""
        assert self.fault is not None
        if self.fault_pos is not None:
            return f"fault: {self.fault.value} at {self.fault_pos}"
        return f"fault: {self.fault.value}"


def run_compiled(compile: Callable, fuel: int, *,
                 makes_cycles: bool) -> tuple[RunOutcome, object | None]:
    """Run a program once under the run model; returns the outcome and
    the program's value, None when the run faulted.

    `compile(fuel, output)` builds the run, printing to `output`, and
    returns `(run, fuel_left)`: `run()` executes it and returns its
    value, `fuel_left()` the fuel not yet spent.  `makes_cycles` is
    true for a MiniJava run and false for an ML one.  The cyclic
    collector is off while `compile` runs, and during `run()` too unless
    the run makes cycles, in which case it is as the caller had it (see
    the module docstring).
    """
    fuel = max(fuel, 0)
    outcome = RunOutcome()
    value = None
    spent_all = False
    with extra_frames(RECURSION_LIMIT):
        enabled = gc.isenabled()
        gc.disable()
        try:
            run, fuel_left = compile(fuel, outcome.output)
            if enabled and makes_cycles:
                gc.enable()
            try:
                value = run()
            except Fault as fault:
                outcome.fault = fault.kind
                outcome.fault_pos = fault.pos
                spent_all = fault.kind is FaultKind.FUEL_EXHAUSTED
            except RecursionError:
                outcome.fault = FaultKind.FUEL_EXHAUSTED
        finally:
            if enabled:
                gc.enable()
        # read while the lock is held: `fuel_left` reads a cell that the
        # next run's compile, in any thread, sets
        outcome.steps = fuel if spent_all else fuel - fuel_left()
    return outcome, value


# CLI exit codes.
EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_TYPE = 2
EXIT_FAULT = 3
EXIT_IO = 4
EXIT_FUEL = 5


def exit_code_for(outcome: RunOutcome) -> int:
    if outcome.fault is None:
        return EXIT_OK
    if outcome.fault is FaultKind.FUEL_EXHAUSTED:
        return EXIT_FUEL
    return EXIT_FAULT
