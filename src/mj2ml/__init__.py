"""MiniJava to purely functional Standard ML, with differential checking.

The pipeline: `tokenize` and `parse` build the MiniJava tree,
`typecheck` validates it and returns the class table, `interpret_mj`
runs it directly, `translate` produces the core ML tree, `eval_program`
runs that, `print_ml_program` renders it as SML source, and
`validate_core` checks the tree stays inside the core fragment.
"""

from ._version import __version__
from .diffharness import (
    DiffResult,
    all_passing,
    diff_ast,
    diff_files,
    diff_generated,
    diff_source,
    render_report,
)
from .lexer import LexError, Token, TokenKind, tokenize
from .mjast import MjProgram, print_program
from .mjinterp import interpret_mj
from .mlast import MlProgram, Violation, validate_core
from .mleval import eval_program
from .mlprint import print_ml_program
from .outcome import DEFAULT_FUEL, FaultKind, RunOutcome
from .parser import ParseError, parse, parse_source
from .randgen import generate_program
from .sema import ClassTable, MjTypeError, typecheck
from .store import alloc_order
from .translate import translate

__all__ = [
    "DEFAULT_FUEL",
    "ClassTable",
    "DiffResult",
    "FaultKind",
    "LexError",
    "MjProgram",
    "MjTypeError",
    "MlProgram",
    "ParseError",
    "RunOutcome",
    "Token",
    "TokenKind",
    "Violation",
    "__version__",
    "all_passing",
    "alloc_order",
    "diff_ast",
    "diff_files",
    "diff_generated",
    "diff_source",
    "eval_program",
    "generate_program",
    "interpret_mj",
    "parse",
    "parse_source",
    "print_ml_program",
    "print_program",
    "render_report",
    "tokenize",
    "translate",
    "typecheck",
    "validate_core",
]
