import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from unittest.mock import patch

import pytest

from mj2ml import mlprint, sema
from mj2ml.cli import main
from mj2ml.mjast import Expr, Stmt
from mj2ml.mlast import Case, If, Let, Val, validate_core
from mj2ml.mlprint import print_ml_program
from mj2ml.outcome import MAX_NESTING, RunOutcome, extra_frames
from mj2ml.parser import parse_source
from mj2ml.randgen import generate_program
from mj2ml.translate import translate

FAULTING = """\
class NullCall {
    public static void main(String[] a) {
        System.out.println(new W().run());
    }
}
class W {
    W other;
    public int run() {
        return other.run();
    }
}
"""

LOOPING = """\
class Loop {
    public static void main(String[] a) {
        System.out.println(new W().spin());
    }
}
class W {
    public int spin() {
        int x;
        x = 0;
        while (x < 1) { x = x - 1; }
        return x;
    }
}
"""


@pytest.fixture
def factorial(corpus_dir):
    return str(corpus_dir / "Factorial.java")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_translate_to_stdout(factorial, capsys):
    assert main(["translate", factorial]) == 0
    out = capsys.readouterr().out
    assert "fun mj_main () =" in out


def test_translate_to_file(factorial, tmp_path, capsys):
    target = tmp_path / "out.sml"
    assert main(["translate", factorial, "-o", str(target)]) == 0
    assert "val _ = mj_main ()" in target.read_text()
    assert capsys.readouterr().out == ""


def test_run_mj_prints_one_integer_per_line(factorial, capsys):
    assert main(["run-mj", factorial]) == 0
    assert capsys.readouterr().out == "3628800\n"


def test_run_ml_matches_run_mj(factorial, capsys):
    main(["run-mj", factorial])
    mj_out = capsys.readouterr().out
    assert main(["run-ml", factorial]) == 0
    assert capsys.readouterr().out == mj_out


def test_syntax_error_exits_1_with_position(tmp_path, capsys):
    path = write(tmp_path, "bad.java", "class X {")
    assert main(["run-mj", path]) == 1
    err = capsys.readouterr().err
    assert re.search(rf"{re.escape(path)}:\d+:\d+: ", err)


def test_type_error_exits_2(tmp_path, capsys):
    src = FAULTING.replace("other.run()", "missing + 1")
    path = write(tmp_path, "ill.java", src)
    assert main(["run-mj", path]) == 2
    assert "missing" in capsys.readouterr().err


def deep_sources():
    """A program nested too deeply to parse, and one too deeply to typecheck."""
    parens = FAULTING.replace("other.run()", "(" * 2000 + "1" + ")" * 2000)
    terms = FAULTING.replace("other.run()", " + ".join(["1"] * 2000))
    return parens, terms


def test_too_deep_nesting_exits_1_or_2_with_a_diagnostic(tmp_path, capsys):
    parens, terms = deep_sources()
    for name, src, code in (("parens.java", parens, 1), ("terms.java", terms, 2)):
        path = write(tmp_path, name, src)
        assert main(["run-mj", path]) == code
        err = capsys.readouterr().err
        assert re.match(rf"{re.escape(path)}:\d+:\d+: .*nested too deeply", err)


def test_diff_records_too_deep_files_as_errors_and_goes_on(tmp_path, corpus_dir, capsys):
    parens, terms = deep_sources()
    write(tmp_path, "Parens.java", parens)
    write(tmp_path, "Terms.java", terms)
    write(tmp_path, "Factorial.java", (corpus_dir / "Factorial.java").read_text())
    assert main(["diff", str(tmp_path)]) == 3
    rows = [re.split(r" *\| *", row)[:4] for row in capsys.readouterr().out.splitlines()]
    assert ["Factorial.java", "ok", "ok", "match"] in rows
    assert ["Parens.java", "-", "-", "error"] in rows
    assert ["Terms.java", "-", "-", "error"] in rows


def test_diff_records_an_unknown_return_type_as_an_error_and_goes_on(
        tmp_path, corpus_dir, capsys):
    write(tmp_path, "Loop.java", FAULTING.replace(
        "public int run() {\n        return other.run();",
        "public Foo loop() {\n        return this.loop();"))
    write(tmp_path, "Factorial.java", (corpus_dir / "Factorial.java").read_text())
    assert main(["diff", str(tmp_path)]) == 3
    rows = [re.split(r" *\| *", row)[:4] for row in capsys.readouterr().out.splitlines()]
    assert ["Factorial.java", "ok", "ok", "match"] in rows
    assert ["Loop.java", "-", "-", "error"] in rows


def test_runtime_fault_exits_3_with_fault_line(tmp_path, capsys):
    path = write(tmp_path, "null.java", FAULTING)
    assert main(["run-mj", path]) == 3
    err = capsys.readouterr().err
    assert re.match(r"fault: NullDereference at \d+:\d+", err)


def test_ml_fault_line_has_no_position(tmp_path, capsys):
    path = write(tmp_path, "null.java", FAULTING)
    assert main(["run-ml", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fault: ")
    assert " at " not in err


NEGATIVE_SIZE = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().f());
    }
}
class A {
    public int f() {
        int[] x;
        System.out.println(7);
        x = new int[0];
        System.out.println(x.length);
        x = new int[0 - 3];
        System.out.println(x.length);
        return 1;
    }
}
"""


def test_a_negative_array_size_faults_on_both_sides_after_the_same_output(tmp_path, capsys):
    # `new int[0]` is an empty array; `mj_zeros` has no rule for a negative size
    path = write(tmp_path, "Negative.java", NEGATIVE_SIZE)
    assert main(["run-mj", path]) == 3
    mj = capsys.readouterr()
    assert main(["run-ml", path]) == 3
    ml = capsys.readouterr()
    assert mj.out == ml.out == "7\n0\n"
    assert mj.err == "fault: NegativeArraySize at 12:13\n"
    assert ml.err == "fault: MatchFailure\n"


def test_missing_file_exits_4(capsys):
    assert main(["run-mj", "no/such/file.java"]) == 4
    assert "file.java" in capsys.readouterr().err


def test_fuel_exhaustion_exits_5(tmp_path, capsys):
    path = write(tmp_path, "loop.java", LOOPING)
    assert main(["run-mj", path, "--fuel", "200"]) == 5
    assert main(["run-ml", path, "--fuel", "200"]) == 5


DEEP = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new R().down(100000));
    }
}
class R {
    public int down(int n) {
        int r;
        if (n < 1) r = 0; else r = 1 + this.down(n - 1);
        return r;
    }
}
"""


def run_cli(*argv, launch=("-c", "from mj2ml.cli import entry; entry()")):
    """Run the command line in a fresh interpreter, at Python's default
    recursion limit."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *launch, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_running_the_cli_module_runs_the_command(tmp_path):
    missing = str(tmp_path / "missing.java")
    done = run_cli("run-mj", missing, launch=("-m", "mj2ml.cli"))
    assert done.returncode == 4
    assert done.stderr.startswith(f"cannot read {missing}")


def test_too_deep_recursion_exits_5_without_crashing(tmp_path):
    # past the recursion limit, well within fuel: a FuelExhausted fault,
    # not a crash of the interpreter
    path = write(tmp_path, "deep.java", DEEP)
    for command in ("run-ml", "run-mj"):
        done = run_cli(command, path)
        assert done.returncode == 5, (command, done.stderr)
        assert done.stdout == ""
        assert "fault: FuelExhausted" in done.stderr


def main_class(body, classes=""):
    return ("class M {\n    public static void main(String[] a) {\n"
            f"        {body}\n    }}\n}}\n{classes}")


IDENTITY = "class A {\n    public int f(int x) {\n        return x;\n    }\n}\n"


def array_reads(k):
    """`a[a[...a[0]...]]`, k reads deep, as a method's return value."""
    return main_class("System.out.println(new A().g());",
                      "class A {\n    public int g() {\n        int[] a;\n"
                      f"        a = new int[1];\n        return {'a[' * k}0{']' * k};\n"
                      "    }\n}\n")


def class_chain(k):
    """k classes, each extending the one before, and a call through the last."""
    classes = "class C0 {\n    public int f() {\n        return 1;\n    }\n}\n"
    classes += "".join(f"class C{i} extends C{i - 1} {{ }}\n" for i in range(1, k))
    return main_class(f"System.out.println(new C{k - 1}().f());", classes)


MEMBER_CHAIN = MAX_NESTING // 3


def member_in_loops(k):
    """A chain of MEMBER_CHAIN classes, the last of which writes and reads
    its own field k `while`s deep."""
    n = MEMBER_CHAIN
    classes = "class C0 { }\n"
    classes += "".join(f"class C{i} extends C{i - 1} {{ }}\n" for i in range(1, n - 1))
    classes += (f"class C{n - 1} extends C{n - 2} {{\n    int x;\n    public int g() {{\n"
                f"        {'while (false) ' * k}x = x + 1;\n        return x;\n    }}\n}}\n")
    return main_class(f"System.out.println(new C{n - 1}().g());", classes)


# Each way of nesting, as a source k levels deep and the deepest k that
# typechecks: MAX_NESTING nodes from the body to its deepest leaf (the
# `new int[...]` form takes two nodes a level, and `x` in the member form
# none for the MEMBER_CHAIN - 1 classes above its own), or MAX_NESTING
# classes.
NESTING_FORMS = {
    "if": (lambda k: main_class("if (true) " * k + "System.out.println(1);" + " else {}" * k),
           MAX_NESTING - 2),
    "while": (lambda k: main_class("while (false) " * k + "System.out.println(1);"),
              MAX_NESTING - 2),
    "block": (lambda k: main_class("{ " * k + "System.out.println(1);" + " }" * k),
              MAX_NESTING - 2),
    "plus": (lambda k: main_class(f"System.out.println({' + '.join(['1'] * (k + 1))});"),
             MAX_NESTING - 2),
    "not": (lambda k: main_class(f"if ({'!' * k}true) System.out.println(1); "
                                 "else System.out.println(0);"),
            MAX_NESTING - 2),
    "and": (lambda k: main_class(f"if ({'true && (' * k}true{')' * k}) "
                                 "System.out.println(1); else System.out.println(0);"),
            MAX_NESTING - 2),
    "call": (lambda k: main_class(f"System.out.println({'new A().f(' * k}7{')' * k});",
                                  IDENTITY),
             MAX_NESTING - 2),
    "index": (array_reads, MAX_NESTING - 1),
    "new-array": (lambda k: main_class(f"System.out.println({'new int[' * k}1{'].length' * k});"),
                  (MAX_NESTING - 2) // 2),
    "class-chain": (class_chain, MAX_NESTING),
    "member": (member_in_loops, MAX_NESTING - 3),
}


def nesting(source):
    """The most statement and expression nodes from a body to a leaf, or
    classes in an inheritance chain, whichever is more."""
    program = parse_source(source)
    # typechecked past the limit, for the inheritance chains
    with patch.object(sema, "MAX_NESTING", 2 * MAX_NESTING):
        table = sema.typecheck(program)
    stack = [(node, 1) for node in program.main.body]
    stack += [(node, 1) for cls in program.classes for method in cls.methods
              for node in [*method.body, method.return_expr]]
    deepest = 0
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        for f in fields(node):
            value = getattr(node, f.name)
            stack += [(child, depth + 1) for child in (value if isinstance(value, list) else [value])
                      if isinstance(child, (Expr, Stmt))]
    return max([deepest, *(len(info.path) for info in table.classes.values())])


@pytest.mark.parametrize("form", NESTING_FORMS)
def test_one_nesting_limit_for_every_command(form, tmp_path, capsys):
    source, deepest = NESTING_FORMS[form]
    assert nesting(source(deepest)) == MAX_NESTING
    assert nesting(source(deepest + 1)) > MAX_NESTING
    # the deepest program that typechecks passes every command
    path = write(tmp_path, "Deepest.java", source(deepest))
    target = tmp_path / "Deepest.sml"
    assert main(["translate", path, "-o", str(target)]) == 0
    assert target.read_text().endswith("\nval _ = mj_main ()\n")
    assert main(["run-mj", path]) == 0
    mj = capsys.readouterr()
    assert main(["run-ml", path]) == 0
    assert capsys.readouterr() == mj and mj.err == ""
    assert main(["diff", path]) == 0
    rows = [re.split(r" *\| *", row)[:4] for row in capsys.readouterr().out.splitlines()]
    assert ["Deepest.java", "ok", "ok", "match"] in rows
    # one level deeper, every command fails the same way
    path = write(tmp_path, "Deeper.java", source(deepest + 1))
    errors = set()
    for command in ("run-mj", "run-ml", "translate"):
        assert main([command, path]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.add(captured.err)
    [error] = errors
    assert re.fullmatch(rf"{re.escape(path)}:\d+:\d+: .*nested too deeply\n", error)
    assert main(["diff", path]) == 3
    rows = [re.split(r" *\| *", row)[:4] for row in capsys.readouterr().out.splitlines()]
    assert ["Deeper.java", "-", "-", "error"] in rows


@pytest.mark.parametrize("form", [form for form in NESTING_FORMS if form != "block"])
def test_deepest_translations_print_and_validate_from_a_deep_caller(form):
    # blocks leave nothing nested in the translation
    source, deepest = NESTING_FORMS[form]
    ml = translate(parse_source(source(deepest)))

    def at_depth(depth, run):
        return at_depth(depth - 1, run) if depth > 0 else run()

    # 900 frames deep, with at most 100 frames to spare at the call
    with extra_frames(1000):
        assert at_depth(900, lambda: validate_core(ml)) == []
        assert at_depth(900, lambda: print_ml_program(ml)).endswith("\nval _ = mj_main ()\n")


def test_the_deepest_if_prints_in_3_frames_a_level():
    # a branch that holds only a nested `if` ends in it, 1 frame a level
    # (506 in all from a script); followed by a statement, the `if` is the
    # right-hand side of a `val` in the branch's `let`, 3 frames a level
    # (`_block` for each of the `if` and the `let` and `_bind` for the
    # `val`) for the 2 nodes of the `if` and its block (753 in all at 249
    # levels); the 50 spare frames are for a caller that re-enters the
    # interpreter from C, as pytest does
    source, deepest = NESTING_FORMS["if"]
    ml = translate(parse_source(source(deepest)))
    with patch.object(mlprint, "COMPILE_FRAMES", 3 * MAX_NESTING + 50):
        assert print_ml_program(ml).endswith("\nval _ = mj_main ()\n")


def test_no_translation_declares_a_fun_inside_a_let(corpus_files):
    # every function is top-level, loops included, however deep they nest
    programs = [translate(parse_source(path.read_text())) for path in corpus_files]
    programs += [translate(generate_program(s, 40)) for s in range(200)]
    programs += [translate(parse_source(source(deepest)))
                 for source, deepest in NESTING_FORMS.values()]
    loops = 0
    for ml in programs:
        # in A-normal form (which validate_core checks) a `let` stands only
        # in a function body, a `val`, a `let` body, an `if` branch or a rule
        stack = [ml.main, *(f.body for group in ml.fun_groups for f in group)]
        while stack:
            node = stack.pop()
            if isinstance(node, Let):
                assert all(isinstance(decl, Val) for decl in node.decls)
                stack += [decl.rhs for decl in node.decls] + [node.body]
            elif isinstance(node, If):
                stack += [node.then, node.orelse]
            elif isinstance(node, Case):
                stack += [rhs for _, rhs in node.rules]
        loops += sum(f.name.startswith("mj_loop") for group in ml.fun_groups for f in group)
    assert loops > 498


def test_diff_corpus_exits_0(corpus_dir, capsys):
    assert main(["diff", str(corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["program", "|", "mj", "|", "ml",
                                           "|", "verdict", "|", "ms"]
    assert out.count("match") >= 8


def test_diff_skips_programs_that_fault_on_the_source_side(tmp_path, capsys):
    path = write(tmp_path, "null.java", FAULTING)
    assert main(["diff", path]) == 0
    assert "skipped-faulting" in capsys.readouterr().out


def test_diff_counts_unreadable_files_as_failures(tmp_path, capsys):
    assert main(["diff", str(tmp_path / "ghost.java")]) == 3
    assert "error" in capsys.readouterr().out


def test_diff_and_check_say_why_each_failed_row_failed_on_stderr(
        tmp_path, corpus_dir, negative_dir, capsys):
    assert main(["diff", str(negative_dir / "type_cycle.java"),
                 str(corpus_dir / "Factorial.java"), str(tmp_path / "ghost.java")]) == 3
    captured = capsys.readouterr()
    assert "inheritance" not in captured.out and "Errno" not in captured.out
    ghost, cycle = captured.err.splitlines()
    assert ghost.startswith("ghost.java: [Errno 2] ")
    assert cycle == "type_cycle.java: 7:1: inheritance cycle through 'First'"

    with patch("mj2ml.diffharness.eval_program",
               return_value=(RunOutcome(output=[-1]), None)):
        assert main(["check", "--count", "2"]) == 3
    captured = capsys.readouterr()
    assert "translation printed" not in captured.out
    assert [line.split(": ")[0] for line in captured.err.splitlines()] == [
        "seed000", "seed001"]
    assert captured.err.splitlines()[0].endswith(", translation printed [-1]")


def test_diff_rejects_a_directory_without_java_files(tmp_path, capsys):
    assert main(["diff", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.err.strip() == f"no .java files under {tmp_path}"
    assert captured.out == ""


def test_check_rejects_a_count_below_1(capsys):
    # like an empty `diff` directory, it would compare nothing
    for count in ("0", "-3"):
        assert main(["check", "--count", count]) == 4
        captured = capsys.readouterr()
        assert captured.err.strip() == "check --count must be at least 1"
        assert captured.out == ""


def test_diff_report_is_reproducible_modulo_timing(corpus_dir, capsys):
    def stripped(argv):
        main(argv)
        rows = capsys.readouterr().out.splitlines()
        # drop the ms column, which also sets the width of the ruler row
        return [re.split(r" \| |-\+-", row)[:4] for row in rows]

    for argv in (["diff", str(corpus_dir)], ["check", "--count", "2"]):
        assert stripped(argv) == stripped(argv)


def test_check_runs_generated_programs(capsys):
    assert main(["check", "--count", "3", "--size", "30"]) == 0
    out = capsys.readouterr().out
    assert "seed000" in out and "seed002" in out


def test_check_with_too_little_fuel_skips_the_faulting_source_run(capsys):
    assert main(["check", "--count", "1", "--fuel", "5"]) == 0
    row = capsys.readouterr().out.splitlines()[2]
    assert re.split(r" *\| *", row)[:4] == ["seed000", "FuelExhausted", "-",
                                             "skipped-faulting"]


def test_generate_is_deterministic_and_parses(capsys):
    assert main(["generate", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    from mj2ml.parser import parse_source
    parse_source(first)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mj2ml" in capsys.readouterr().out
