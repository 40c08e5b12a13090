"""Command line interface.

Subcommands:
  translate  MiniJava in, Standard ML text out
  run-mj     run the source program on the reference interpreter
  run-ml     translate, then run the result on the ML evaluator
  diff       run .java files and directories of them both ways, compare
  check      same comparison over freshly generated random programs
  generate   print one generated random program

Exit codes: 0 success, 1 lexing/parsing error, 2 type error (including a
program nested past `outcome.MAX_NESTING`), 3 runtime fault (or a failed
comparison), 4 I/O error (including a source that is not UTF-8, a
`diff` directory with no .java file, and a `check --count` below 1,
either of which would compare nothing), 5 fuel exhausted.
Diagnostics go to stderr as `<file>:<line>:<col>: <message>`; runtime
faults as `fault: <kind> at <line>:<col>` (the ML side has no source
positions, so its faults carry none); after the `diff` or `check` table,
`<program>: <detail>` for each row that failed with a detail.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .diffharness import (
    DiffResult,
    all_passing,
    diff_files,
    diff_generated,
    render_report,
)
from .mjast import MjProgram, SourceError, print_program
from .mjinterp import interpret_mj
from .mleval import eval_program
from .mlprint import print_ml_program
from .outcome import (
    DEFAULT_FUEL,
    EXIT_FAULT,
    EXIT_IO,
    EXIT_OK,
    EXIT_SYNTAX,
    EXIT_TYPE,
    RunOutcome,
    exit_code_for,
)
from .parser import parse_source
from .randgen import GenerationError, generate_program
from .sema import ClassTable, MjTypeError, typecheck
from .translate import translate


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message


def _read_file(path: str) -> str:
    """The source text, read as UTF-8 whatever the locale."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _CliError(EXIT_IO, f"cannot read {path}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        raise _CliError(EXIT_IO, f"cannot read {path}: {err}")


def _write_output(text: str, out: str | None) -> None:
    """Write `text` to stdout, or to the file `out` as UTF-8.  A name
    the locale could not decode, as the SML header may hold, keeps its
    own bytes in the file, as it does on stdout."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8", errors="surrogateescape")
    except OSError as err:
        raise _CliError(EXIT_IO, f"cannot write {out}: {err.strerror or err}")


def _frontend(path: str) -> tuple[MjProgram, ClassTable]:
    source = _read_file(path)
    try:
        program = parse_source(source)
        return program, typecheck(program)
    except SourceError as err:
        code = EXIT_TYPE if isinstance(err, MjTypeError) else EXIT_SYNTAX
        raise _CliError(code, f"{path}:{err.pos}: {err.message}")


def _report_run(outcome: RunOutcome) -> int:
    for value in outcome.output:
        print(value)
    if outcome.fault is not None:
        print(outcome.fault_line(), file=sys.stderr)
    return exit_code_for(outcome)


def cmd_translate(args: argparse.Namespace) -> int:
    ml_program = translate(*_frontend(args.file))
    _write_output(print_ml_program(ml_program, source_name=Path(args.file).name), args.out)
    return EXIT_OK


def cmd_run_mj(args: argparse.Namespace) -> int:
    program, table = _frontend(args.file)
    return _report_run(interpret_mj(program, table, fuel=args.fuel))


def cmd_run_ml(args: argparse.Namespace) -> int:
    outcome, _ = eval_program(translate(*_frontend(args.file)), fuel=args.fuel)
    return _report_run(outcome)


def _collect_java_files(paths: list[str]) -> list[Path]:
    files = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.glob("*.java"))
            if not found:
                raise _CliError(EXIT_IO, f"no .java files under {path}")
            files.extend(found)
        else:
            files.append(path)
    return files


def _report_diff(results: list[DiffResult]) -> int:
    """The report table on stdout, then why each row with a detail got
    its verdict on stderr, in report order."""
    sys.stdout.write(render_report(results))
    sys.stdout.flush()
    for r in results:
        if r.detail:
            print(f"{r.name}: {r.detail}", file=sys.stderr)
    return EXIT_OK if all_passing(results) else EXIT_FAULT


def cmd_diff(args: argparse.Namespace) -> int:
    return _report_diff(diff_files(_collect_java_files(args.paths), fuel=args.fuel))


def cmd_check(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise _CliError(EXIT_IO, "check --count must be at least 1")
    seeds = list(range(args.seed_base, args.seed_base + args.count))
    return _report_diff(diff_generated(seeds, size=args.size, fuel=args.fuel))


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        program = generate_program(args.seed, args.size)
    except GenerationError as err:
        raise _CliError(EXIT_IO, str(err))
    _write_output(print_program(program), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mj2ml",
        description="Translate MiniJava to pure Standard ML and compare runs.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="emit the Standard ML translation")
    p.add_argument("file")
    p.add_argument("-o", "--out", default=None, help="write here instead of stdout")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("run-mj", help="interpret the MiniJava program")
    p.add_argument("file")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.set_defaults(func=cmd_run_mj)

    p = sub.add_parser("run-ml", help="translate, then run the ML program")
    p.add_argument("file")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.set_defaults(func=cmd_run_ml)

    p = sub.add_parser("diff", help="run both ways and compare")
    p.add_argument("paths", nargs="+",
                   help=".java files or directories containing them")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("check", help="compare on generated random programs")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--size", type=int, default=40)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="print one generated random program")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=40)
    p.add_argument("-o", "--out", default=None, help="write here instead of stdout")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as err:
        print(err.message, file=sys.stderr)
        return err.code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
