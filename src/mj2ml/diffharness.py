"""Differential execution: run a program on both interpreters and compare.

Per program the verdict is one of:
  match             both ran cleanly and printed the same integers
  output-mismatch   both ran cleanly, outputs differ
  fault-mismatch    the source ran cleanly, the translation faulted
  skipped-faulting  the source run faulted (including fuel), nothing to compare
  error             the program did not get through lexing, parsing or
                    typechecking (which bounds nesting for translation)

A batch passes when every verdict is match or skipped-faulting.

The report is a fixed-width table `program | mj | ml | verdict | ms`,
sorted by program name; everything except the timing column is
reproducible run to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from .lexer import LexError
from .mjast import MjProgram
from .mjinterp import interpret_mj
from .mleval import eval_program
from .outcome import DEFAULT_FUEL, RunOutcome
from .parser import ParseError, parse_source
from .randgen import _generate_run
from .sema import ClassTable, MjTypeError, typecheck
from .translate import translate

PASSING_VERDICTS = frozenset({"match", "skipped-faulting"})


@dataclass
class DiffResult:
    name: str
    mj: RunOutcome | None
    ml: RunOutcome | None
    verdict: str
    millis: float
    detail: str = ""


def diff_ast(name: str, program: MjProgram, table: ClassTable | None = None,
             fuel: int = DEFAULT_FUEL, mj: RunOutcome | None = None) -> DiffResult:
    """Compare both runs of an already parsed program.  The fuel bound
    applies to each side separately.

    `mj`, when given, is a clean MiniJava run of `program` already made
    with some fuel; it is used in place of a new run when its `steps`
    fit in `fuel`, since a run with that much fuel repeats it exactly.
    """
    start = time.perf_counter()

    def done(mj, ml, verdict, detail=""):
        return DiffResult(name, mj, ml, verdict,
                          (time.perf_counter() - start) * 1000.0, detail)

    try:
        if table is None:
            table = typecheck(program)
    except MjTypeError as err:
        return done(None, None, "error", str(err))
    if mj is None or mj.steps > fuel:
        mj = interpret_mj(program, table, fuel=fuel)
    if mj.fault is not None:
        return done(mj, None, "skipped-faulting")
    ml, _ = eval_program(translate(program, table), fuel=fuel)
    if ml.fault is not None:
        return done(mj, ml, "fault-mismatch", f"translation faulted: {ml.fault.value}")
    if mj.output != ml.output:
        return done(mj, ml, "output-mismatch",
                    f"source printed {mj.output}, translation printed {ml.output}")
    return done(mj, ml, "match")


def diff_source(name: str, source: str, fuel: int = DEFAULT_FUEL) -> DiffResult:
    start = time.perf_counter()
    try:
        program = parse_source(source)
    except (LexError, ParseError) as err:
        return DiffResult(name, None, None, "error",
                          (time.perf_counter() - start) * 1000.0, str(err))
    return diff_ast(name, program, fuel=fuel)


def diff_files(paths: list[Path | str], fuel: int = DEFAULT_FUEL) -> list[DiffResult]:
    results = []
    for path in map(Path, paths):
        try:
            source = path.read_text()
        except OSError as err:
            results.append(DiffResult(path.name, None, None, "error", 0.0, str(err)))
            continue
        results.append(diff_source(path.name, source, fuel=fuel))
    return sorted(results, key=lambda r: r.name)


def diff_generated(seeds: list[int], size: int = 40,
                   fuel: int = DEFAULT_FUEL) -> list[DiffResult]:
    results = []
    for seed in seeds:
        name = f"seed{seed:03d}"
        start = time.perf_counter()
        try:
            program, table, mj = _generate_run(seed, size)
        except Exception as err:
            results.append(DiffResult(name, None, None, "error",
                                      (time.perf_counter() - start) * 1000.0,
                                      str(err)))
            continue
        results.append(diff_ast(name, program, table, fuel=fuel, mj=mj))
    return sorted(results, key=lambda r: r.name)


def all_passing(results: list[DiffResult]) -> bool:
    return all(r.verdict in PASSING_VERDICTS for r in results)


def _outcome_cell(outcome: RunOutcome | None) -> str:
    if outcome is None:
        return "-"
    return "ok" if outcome.fault is None else outcome.fault.value


def render_report(results: list[DiffResult]) -> str:
    headers = ("program", "mj", "ml", "verdict", "ms")
    rows = [(r.name, _outcome_cell(r.mj), _outcome_cell(r.ml), r.verdict,
             f"{r.millis:.1f}") for r in results]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    counts: dict[str, int] = {}
    for r in results:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    summary = ", ".join(f"{v}: {counts[v]}" for v in sorted(counts))
    lines.append("")
    lines.append(f"{len(results)} program(s); {summary}")
    return "\n".join(lines) + "\n"
