"""The mj2ml benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; mj2ml is imported from its `src/`
and from nowhere else.  `--seed` fixes the order in which each pass visits
the workload's programs.  The programs themselves are fixed: the corpus,
`generate_program(s, 40)` for s in `--gen-base` .. `--gen-base`+199, and
the heap-scale family N = 50, 100, 200, 400.

A run makes a fixed number of rounds, set by `--seconds` and each
workload's round cost on the machine the benchmark was written on, so the
number of samples never depends on the speed of the code under test.
With `--trace 0` a round is one `diff` pass and a few compile passes, each
program timed on its own against a reference task that gauges the
machine's speed, and the end-to-end metrics sum the programs' median
times.  With `--trace 1` a round is an untraced `diff` pass and a
traced pass that re-issues each stage as a direct call inside a span; the
spans go to `.perfbench/spans-<workload>-seed<seed>.json`, and the
per-layer metrics are medians over passes.  Either way every
program's output is checked against a value the translator under test
did not produce, and the counts of the passes must repeat exactly.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
MIN_ROUNDS = 2
# Seconds one round takes, (untraced, traced), on the 2-core VM the
# benchmark was written on.  A run makes `--seconds` / this many rounds.
ROUND_SECONDS = {"corpus": (0.55, 0.6), "gen200": (18.0, 30.0),
                 "heap-scale": (7.0, 16.0)}
# Compile passes per round: compiles are cheap, so they get more samples.
COMPILE_PASSES = {"corpus": 3, "gen200": 2, "heap-scale": 50}
# A run on a machine much slower than that stops early, after MIN_ROUNDS,
# rather than run past this multiple of `--seconds`.
TIME_CAP = 1.5
SETUP_RUNS = 15
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, 'src'); "
                "t = time.perf_counter(); import mj2ml; "
                "print(time.perf_counter() - t)")

# Stages a traced pass runs that the workload's `diff` call does not:
# printing and validation never, lexing and parsing not for generated
# programs, which `check` hands to the harness as trees.
OFF_DIFF_PATH = {
    "corpus": ("mlprint.print", "mlast.validate"),
    "heap-scale": ("mlprint.print", "mlast.validate"),
    "gen200": ("mlprint.print", "mlast.validate", "lexer.lex", "parser.parse"),
}
TIMED_STAGES = ("randgen.generate", "lexer.lex", "parser.parse", "sema.typecheck",
                "mjinterp.run", "translate.translate", "mleval.eval",
                "mlprint.print", "mlast.validate")
# Counts a run must reproduce exactly, pass after pass.
DETERMINISTIC = ("lexer.tokens", "parser.mj_nodes", "translate.ml_nodes",
                 "sml_bytes", "mlprint.sml_lines", "mleval.heap_cells")


def import_seconds() -> float:
    """Time to `import mj2ml` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_TIMER], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def tree_size(root) -> int:
    """Dataclass nodes reachable through structural fields.

    Source spans and checker annotations are `compare=False` fields, so
    the count is the same before and after `typecheck`.
    """
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        if is_dataclass(node):
            count += 1
            stack.extend(getattr(node, f.name) for f in fields(node) if f.compare)
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
    return count


def wrong_results(order, results) -> int:
    """Programs of `order` without a `match` verdict and the expected output."""
    expected = {p.name: p.expected for p in order}
    right = {r.name for r in results
             if r.verdict == "match" and r.ml.output == expected.get(r.name)}
    return len(order) - len(right)


def compile_text(program) -> str:
    """What `mj2ml translate` does to one source file."""
    ast = parse_source(program.source)
    table = typecheck(ast)
    return print_ml_program(translate(ast, table), program.name)


def rounds(workload: str, seconds: float, traced: bool):
    """Yield round numbers; how many is fixed by `seconds`, not by speed."""
    count = max(MIN_ROUNDS, int(seconds / ROUND_SECONDS[workload][traced]))
    start = time.perf_counter()
    longest = 0.0
    for n in range(count):
        if n >= MIN_ROUNDS and time.perf_counter() - start + longest > TIME_CAP * seconds:
            return
        gc.collect()
        began = time.perf_counter()
        yield n, count
        longest = max(longest, time.perf_counter() - began)


def run_untraced(workload, seconds: float, rng: random.Random) -> dict:
    """Every program's `diff` and compile, timed one call at a time.

    This machine's speed swings by up to 1.8x, for seconds and for whole
    runs, and slows mj2ml and the reference task alike.  So each call is
    timed between two runs of the reference task, and its sample is its
    time over the faster of theirs (interference only ever slows the
    task), in units of the task's time on the VM the benchmark was
    written on.  A program's cost is the median of its samples, of which
    every commit takes the same number; a workload's is the sum of its
    programs'.
    """
    names = [p.name for p in workload.programs]
    samples = {kind: {name: [] for name in names} for kind in ("diff", "compile")}
    sml_bytes = {name: set() for name in names}
    setup_s: list[float] = []
    reference: list[float] = []
    attempted = failed = 0

    def timed(kind: str, p, call):
        began = time.perf_counter()
        result = call()
        took = time.perf_counter() - began
        reference.append(reference_seconds())
        speed = min(reference[-2:]) / REFERENCE_SECONDS
        samples[kind][p.name].append(took / speed)
        return result

    for n, count in rounds(workload.name, seconds, traced=False):
        order = rng.sample(workload.programs, len(workload.programs))
        reference.append(reference_seconds())
        for p in order:
            results = timed("diff", p, lambda: workload.diff([p]))
            attempted += 1
            failed += wrong_results([p], results)
        for _ in range(COMPILE_PASSES[workload.name]):
            for p in order:
                text = timed("compile", p, lambda: compile_text(p))
                sml_bytes[p.name].add(len(text.encode()))
        # Fresh-interpreter imports, spread evenly over the rounds.
        while len(setup_s) < SETUP_RUNS * (n + 1) // count:
            setup_s.append(import_seconds())
    while len(setup_s) < SETUP_RUNS:
        setup_s.append(import_seconds())

    def total(kind: str) -> float:
        return sum(statistics.median(t) for t in samples[kind].values())

    # The imports run in child processes, between the reference runs rather
    # than inside a bracket, so they are divided by the run's median.
    slowdown = statistics.median(reference) / REFERENCE_SECONDS
    print(f"{workload.name:<10} {'slowdown':<30} {slowdown:>16.6g} x reference VM",
          file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup_s) / slowdown, "s"),
        "diff_s": (total("diff"), "s"),
        "compile_s": (total("compile"), "s"),
        "sml_bytes": (sum(min(b) for b in sml_bytes.values()), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "match_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    nondeterministic = ["sml_bytes"] if any(len(b) > 1 for b in sml_bytes.values()) else []
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "nondeterministic": nondeterministic}


def traced_pass(tracer: Tracer, order) -> tuple[dict[str, int], int]:
    """Run each stage of `diff_ast`, plus print and validate, inside spans.

    Returns the pass's counts and the number of programs that went wrong.
    """
    counts = dict.fromkeys(("lexer.tokens", "parser.mj_nodes", "translate.ml_nodes",
                            "sml_bytes", "mlprint.sml_lines", "mleval.heap_cells",
                            "mjinterp.faults", "mleval.faults", "mlast.violations"), 0)
    wrong = 0
    span = tracer.span
    with span("bench.pass", trace="pass"):
        for p in order:
            with span("bench.program", trace=p.name):
                if p.seed is not None:
                    with span("randgen.generate"):
                        generate_program(p.seed, GEN_SIZE)
                with span("lexer.lex"):
                    tokens = tokenize(p.source)
                with span("parser.parse"):
                    ast = parse(tokens)
                with span("sema.typecheck"):
                    table = typecheck(ast)
                with span("mjinterp.run"):
                    mj = interpret_mj(ast, table)
                with span("translate.translate"):
                    ml = translate(ast, table)
                with span("mleval.eval"):
                    outcome, final = eval_program(ml)
                with span("mlprint.print"):
                    text = print_ml_program(ml, p.name)
                with span("mlast.validate"):
                    violations = validate_core(ml)
                with span("bench.count"):
                    counts["lexer.tokens"] += len(tokens)
                    counts["parser.mj_nodes"] += tree_size(ast)
                    counts["translate.ml_nodes"] += tree_size(ml)
                    counts["sml_bytes"] += len(text.encode())
                    counts["mlprint.sml_lines"] += text.count("\n")
                    counts["mleval.heap_cells"] += (len(alloc_order(final))
                                                     if final is not None else 0)
                    counts["mjinterp.faults"] += mj.fault is not None
                    counts["mleval.faults"] += outcome.fault is not None
                    counts["mlast.violations"] += len(violations)
                    wrong += not (mj.output == outcome.output == p.expected
                                  and mj.fault is None and outcome.fault is None
                                  and not violations)
    return counts, wrong


def scale_exponent(workload, tracer: Tracer) -> float:
    """Slope of log eval time against log N over the heap-scale family."""
    evals = tracer.durations("mleval.eval")
    points = [(math.log(p.size), math.log(evals[p.name])) for p in workload.programs]
    return statistics.linear_regression(*zip(*points)).slope


def run_traced(workload, seconds: float, rng: random.Random, spans_path: Path) -> dict:
    tracers, per_pass, millis = [], [], []
    attempted = failed = 0
    pass_counts: list[dict[str, int]] = []
    for _ in rounds(workload.name, seconds, traced=True):
        order = rng.sample(workload.programs, len(workload.programs))
        start = time.perf_counter()
        results = workload.diff(order)
        untraced = time.perf_counter() - start
        millis.extend(r.millis for r in results)
        failed += wrong_results(order, results)
        tracer = Tracer()
        counts, wrong = traced_pass(tracer, order)
        attempted += 2 * len(order)
        failed += wrong
        tracers.append(tracer)
        pass_counts.append(counts)

        # Every span sits inside bench.pass, so the self times sum to `wall`.
        own = tracer.self_times()
        wall = tracer.durations("bench.pass")["pass"]
        evals = sorted(tracer.durations("mleval.eval").values())
        metrics = {f"{name}_s": own.get(name, 0.0) for name in TIMED_STAGES}
        metrics["bench.self_s"] = own["bench.pass"] + own["bench.program"]
        metrics["bench.count_s"] = own["bench.count"]
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_s"] = wall - untraced - sum(
            own.get(name, 0.0) for name in OFF_DIFF_PATH[workload.name] + ("bench.count",))
        metrics["mleval.tail_share"] = sum(evals[-3:]) / sum(evals)
        metrics["mleval.scale_exponent"] = (scale_exponent(workload, tracer)
                                            if workload.name == "heap-scale" else 0.0)
        per_pass.append(metrics)

    write_spans(spans_path, tracers)
    units = {"mleval.tail_share": "ratio", "mleval.scale_exponent": "1"}
    metrics = {name: (statistics.median(m[name] for m in per_pass), units.get(name, "s"))
               for name in per_pass[0]}
    for name, value in pass_counts[0].items():
        if name != "sml_bytes":
            metrics[name] = (value, "count")
    quartiles = statistics.quantiles(millis, n=20, method="inclusive")
    metrics["diffharness.program_ms_p50"] = (statistics.median(millis), "ms")
    metrics["diffharness.program_ms_p95"] = (quartiles[18], "ms")
    nondeterministic = [name for name in DETERMINISTIC
                        if len({c[name] for c in pass_counts}) > 1]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "nondeterministic": nondeterministic}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the programs within each pass")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time to measure for; at least two rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gen-base", type=int, default=0,
                        help="first randgen seed of gen200 (default 0)")
    parser.add_argument("--small", action="store_true",
                        help="smallest size: 10 generated programs, N = 50, 100")
    args = parser.parse_args(argv)

    workload = build(args.workload, ROOT, OUT / "heap-scale", args.gen_base, args.small)
    rng = random.Random(args.seed)
    if args.trace:
        result = run_traced(workload, args.seconds, rng,
                            OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        result = run_untraced(workload, args.seconds, rng)

    for name in result["nondeterministic"]:
        print(f"count {name} differs between passes", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in sorted(result["metrics"].items())}
    for name, m in metrics.items():
        print(f"{args.workload:<10} {name:<30} {m['value']:>16.6g} {m['unit']}")
    correct = result["failed"] == 0 and not result["nondeterministic"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # mj2ml comes from this checkout's source tree, never from site-packages.
    if not (ROOT / "src" / "mj2ml" / "__init__.py").is_file():
        sys.exit(f"run from the root of an mj2ml checkout: no src/mj2ml under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    from mj2ml import (alloc_order, eval_program, generate_program, interpret_mj,
                       parse, parse_source, print_ml_program, tokenize, translate,
                       typecheck, validate_core)
    from reference import REFERENCE_SECONDS, reference_seconds
    from spans import Tracer, write_spans
    from workloads import GEN_SIZE, WORKLOADS as WORKLOAD_NAMES, build
    sys.exit(main())
