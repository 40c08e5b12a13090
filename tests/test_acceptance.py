"""End-to-end gate: every promised behavior, one test and one verdict line each.

Run with `pytest -sv tests/test_acceptance.py` to see the verdict lines.
"""

import re
import shutil
import subprocess
import tempfile
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from mj2ml import mlast
from mj2ml.diffharness import (
    all_passing,
    diff_ast,
    diff_files,
    diff_generated,
)
from mj2ml.cli import main as cli_main
from mj2ml.lexer import LexError, tokenize
from mj2ml.mjinterp import interpret_mj
from mj2ml.mlast import validate_core
from mj2ml.mleval import eval_program
from mj2ml.mlprint import print_ml_program
from mj2ml.parser import ParseError, parse, parse_source
from mj2ml.randgen import generate_program
from mj2ml.sema import MjTypeError, typecheck
from mj2ml.store import alloc_order, heap_cells
from mj2ml.translate import translate

RANDOM_SEEDS = list(range(200))
RANDOM_SIZE = 40


def report(label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {verdict}: {label}{suffix}")


@pytest.fixture(scope="module")
def generated_programs():
    return [(seed, generate_program(seed, RANDOM_SIZE)) for seed in RANDOM_SEEDS]


def test_corpus_differential_equivalence(corpus_files):
    start = time.monotonic()
    results = diff_files(corpus_files)
    elapsed = time.monotonic() - start
    matches = sum(r.verdict == "match" for r in results)
    ok = matches == 8 == len(results) and elapsed < 10.0
    report("differential equivalence on the 8-program corpus", ok,
           f"{matches}/8 match in {elapsed:.2f}s")
    assert ok, [(r.name, r.verdict, r.detail) for r in results if r.verdict != "match"]


def test_random_differential_testing():
    start = time.monotonic()
    results = diff_generated(RANDOM_SEEDS, size=RANDOM_SIZE)
    elapsed = time.monotonic() - start
    bad = [r for r in results if r.verdict != "match"]
    ok = not bad and len(results) == len(RANDOM_SEEDS) and elapsed < 60.0
    report("random differential testing, 200 seeds", ok,
           f"{len(results) - len(bad)}/{len(RANDOM_SEEDS)} match in {elapsed:.1f}s")
    assert ok, [(r.name, r.verdict, r.detail) for r in bad]


def _nodes(root):
    """Every node reachable from root's fields, root included."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if is_dataclass(node):
            stack.extend(getattr(node, f.name) for f in fields(node))
        elif isinstance(node, (list, tuple)):
            stack.extend(node)


def _node_types(ml_program) -> set[type]:
    """Classes of every node reachable from the program's fields."""
    return set(map(type, _nodes(ml_program)))


def test_core_feature_purity(corpus_files, generated_programs):
    violations = []
    emitted: set[type] = set()
    translations = [translate(parse_source(path.read_text())) for path in corpus_files]
    translations += [translate(program) for _, program in generated_programs]
    for ml_program in translations:
        violations += validate_core(ml_program)
        emitted |= _node_types(ml_program)
    # every expression and pattern node mlast defines must be one the
    # translator emits; a node it never builds is dead code
    defined = {cls for cls in vars(mlast).values()
               if isinstance(cls, type) and cls.__module__ == mlast.__name__
               and issubclass(cls, (mlast.MlExpr, mlast.Pat))
               and cls not in (mlast.MlExpr, mlast.Pat)}
    never_emitted = sorted(cls.__name__ for cls in defined - emitted)
    ok = violations == [] and never_emitted == []
    report("translations stay inside the functional core", ok,
           f"{len(violations)} violation(s) over {len(translations)} programs, "
           f"never emitted: {never_emitted or 'none'}")
    assert ok, (violations, never_emitted)


ALLOC_PROGRAM = """\
class AllocOrder {
    public static void main(String[] a) {
        System.out.println(new Maker().build());
    }
}
class Maker {
    Maker self;
    Pair kept;
    int[] first;
    int[] second;
    public int build() {
        Pair p;
        int[] xs;
        Pair q;
        int[] ys;
        self = this;
        p = new Pair();
        xs = new int[3];
        first = xs;
        q = new Pair();
        kept = q;
        ys = new int[1];
        second = ys;
        return p.ping() + q.ping() + first.length + second.length;
    }
}
class Pair {
    public int ping() { return 1; }
}
"""


def test_allocation_discipline():
    # MiniJava has no pointers to compare, so only the translation's heap
    # is read: objects and arrays alike take pointers 0, 1, 2, ...  Both
    # arrays, `this` and a Pair escape into fields, so the Maker, both
    # Pairs and both arrays stay in the store
    program = parse_source(ALLOC_PROGRAM)
    mj = interpret_mj(program)
    ml_outcome, final_state = eval_program(translate(program))
    order = alloc_order(final_state) if ml_outcome.ok else None
    ok = (mj.ok and ml_outcome.ok
          and order == list(range(5))
          and mj.output == ml_outcome.output == [6])
    report("the translation issues pointers as 0,1,2,...", ok,
           f"ml {order}, outputs mj {mj.output} ml {ml_outcome.output}")
    assert ok


SUBCLASS_PROGRAM = """\
class SubclassEncoding {
    public static void main(String[] a) {
        System.out.println(new Driver().go());
    }
}
class Driver {
    public int go() {
        A a;
        a = new C();
        System.out.println(a.tag());
        System.out.println(a.describe());
        return 0;
    }
}
class A {
    int base;
    public int tag() { return 1; }
    public int describe() { return this.tag() * 10; }
}
class B extends A {
    int mid;
    public int tag() { return 2; }
}
class C extends B {
    public int tag() { return 3; }
}
"""


def test_subclass_encoding():
    program = parse_source(SUBCLASS_PROGRAM)
    ml = translate(program)

    # one constructor per instantiated class, holding all of its fields
    by_name = {d.name: [c.name for c in d.cons] for d in ml.datatypes}
    structure_ok = by_name == {"heapval": ["HArr", "HObj_Driver", "HObj_C"],
                               "tree": ["Lf", "Nd"]}

    mj = interpret_mj(program)
    ml_outcome, final_state = eval_program(ml)
    behavior_ok = mj.output == ml_outcome.output == [3, 30, 0]

    # no object escapes, so the heap is empty and the C object is the
    # value `go` makes: base, then mid
    c_object = next(c for c in _nodes(ml.fun_groups)
                    if isinstance(c, mlast.Con) and c.name == "HObj_C")
    fields_ok = heap_cells(final_state) == [] and c_object.args == (mlast.IntLit(0),) * 2

    ok = structure_ok and behavior_ok and fields_ok
    report("three-level subclass encoding, structure and dispatch", ok,
           f"dispatch printed {ml_outcome.output}, C object {c_object}")
    assert ok


STAGES = {
    "lex": (LexError, 1),
    "parse": (ParseError, 1),
    "type": (MjTypeError, 2),
}
# What each ill-formed program is rejected with: position and message.
DIAGNOSTICS = {
    "lex_bad_char.java": "3:30: unexpected character '#'",
    "lex_huge_literal.java": "3:28: integer literal 4611686018427387904 exceeds the 63-bit range",
    "lex_unterminated_comment.java": "3:9: unterminated block comment",
    "parse_double_equals.java": "10:15: expected ')', found operator '='",
    "parse_missing_else.java": "5:5: expected 'else', found punctuation '}'",
    "parse_missing_return.java":
        "11:5: expected a statement or 'return', found punctuation '}'",
    "parse_unbalanced_brace.java": "4:6: expected '}', found end of input",
    "type_bad_arg_count.java": "3:28: method 'add' expects 2 argument(s), got 3",
    "type_bad_operand.java": "10:13: left operand of '+' must be int, got boolean",
    "type_bad_override.java":
        "14:5: method 'calc' in class 'Child' changes the signature of the method it overrides",
    "type_cycle.java": "7:1: inheritance cycle through 'First'",
    "type_non_bool_cond.java": "11:16: 'while' condition must be boolean, got int",
    "type_print_bool.java": "3:28: println argument must be int, got boolean",
    "type_this_in_main.java": "3:28: 'this' cannot be used in main",
    "type_undeclared_var.java": "10:13: undeclared variable 'y'",
    "type_unknown_class.java": "3:28: unknown class 'Ghost'",
}


def test_negative_suite(negative_files, capsys):
    failures = []
    for path in negative_files:
        stage = path.name.split("_")[0]
        exc_type, wanted_code = STAGES[stage]
        try:
            typecheck(parse(tokenize(path.read_text())))
            failures.append(f"{path.name}: accepted")
            continue
        except (LexError, ParseError, MjTypeError) as err:
            if not isinstance(err, exc_type):
                failures.append(f"{path.name}: {type(err).__name__}")
            if str(err) != DIAGNOSTICS.get(path.name):
                failures.append(f"{path.name}: {err}")
        code = cli_main(["run-mj", str(path)])
        if capsys.readouterr().err != f"{path}:{DIAGNOSTICS.get(path.name)}\n":
            failures.append(f"{path.name}: the command printed another diagnostic")
        if code != wanted_code:
            failures.append(f"{path.name}: exit {code} != {wanted_code}")
    with capsys.disabled():
        ok = not failures and len(negative_files) >= 10
        report("ill-formed programs rejected at the right stage", ok,
               f"{len(negative_files) - len(failures)}/{len(negative_files)} as expected")
    assert ok, failures


# -- running the emitted text on a real SML system, when one is installed ----

_INT_LINE = re.compile(r"^-?\d+$")


def find_sml_system() -> str | None:
    """Name of an installed SML implementation, in order of preference."""
    for cmd in ("mlton", "polyc", "sml"):
        if shutil.which(cmd):
            return cmd
    return None


def run_system_sml(sml_text: str, timeout: float = 120.0) -> list[int]:
    """Compile and run with the installed SML system; returns printed ints.

    Raises RuntimeError when no system is installed or the run fails.
    """
    system = find_sml_system()
    if system is None:
        raise RuntimeError("no SML system installed")
    with tempfile.TemporaryDirectory(prefix="mj2ml-") as tmp:
        tmpdir = Path(tmp)
        src = tmpdir / "program.sml"
        src.write_text(sml_text)
        if system in ("mlton", "polyc"):
            exe = tmpdir / "program"
            compile_cmd = ([system, "-output", str(exe), str(src)]
                           if system == "mlton"
                           else [system, "-o", str(exe), str(src)])
            built = subprocess.run(compile_cmd, capture_output=True, text=True,
                                   timeout=timeout)
            if built.returncode != 0:
                raise RuntimeError(f"{system} failed:\n{built.stderr}")
            ran = subprocess.run([str(exe)], capture_output=True, text=True,
                                 timeout=timeout)
            if ran.returncode != 0:
                raise RuntimeError(f"compiled program failed:\n{ran.stderr}")
            out = ran.stdout
        else:
            ran = subprocess.run([system], input=src.read_text(),
                                 capture_output=True, text=True, timeout=timeout)
            if ran.returncode != 0:
                raise RuntimeError(f"sml failed:\n{ran.stderr}")
            out = ran.stdout
        return [int(line) for line in out.splitlines()
                if _INT_LINE.match(line.strip())]


def test_external_sml_system(corpus_files):
    system = find_sml_system()
    if system is None:
        report("emitted files compile under a system SML", True,
               "skipped: no SML implementation on PATH")
        pytest.skip("no SML implementation on PATH")
    mismatched = []
    for path in corpus_files:
        program = parse_source(path.read_text())
        ml = translate(program)
        text = print_ml_program(ml, source_name=path.name)
        external = run_system_sml(text)
        internal, _ = eval_program(ml)
        if external != internal.output:
            mismatched.append(path.name)
    ok = not mismatched
    report(f"emitted files compile and agree under {system}", ok,
           f"{8 - len(mismatched)}/8 agree")
    assert ok, mismatched
