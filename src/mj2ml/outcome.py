"""Execution outcomes shared by both interpreters.

A run produces the list of printed integers plus an optional fault.
Faults are ordinary results, not Python exceptions, so the two
interpreters can be compared verdict-for-verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .mjast import Pos

DEFAULT_FUEL = 10_000_000

# Python frames a run may use: both interpreters raise the interpreter's
# recursion limit to this for the run and restore it after, and deeper
# recursion ends the run with FuelExhausted, like running out of fuel.
# A pending MiniJava method call takes about 4 frames (see `mjinterp`), a
# pending ML call 3 or 4 (see `mleval`).  The limit relies on CPython 3.11
# or later (`requires-python` in pyproject.toml), whose Python-to-Python
# calls take no C stack.
RECURSION_LIMIT = 40_000


class FaultKind(enum.Enum):
    NULL_DEREFERENCE = "NullDereference"
    INDEX_OUT_OF_BOUNDS = "IndexOutOfBounds"
    NEGATIVE_ARRAY_SIZE = "NegativeArraySize"
    INTEGER_OVERFLOW = "IntegerOverflow"
    MATCH_FAILURE = "MatchFailure"
    FUEL_EXHAUSTED = "FuelExhausted"


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
