import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mj2ml.cli import main

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


def run_cli(*argv):
    """Run the command line in a fresh interpreter, at Python's default
    recursion limit."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", "from mj2ml.cli import entry; entry()", *argv],
        env=env, capture_output=True, text=True, timeout=120)


def test_too_deep_recursion_exits_5_without_crashing(tmp_path):
    # past the recursion limit, well within fuel: a FuelExhausted fault,
    # not a crash of the interpreter
    path = write(tmp_path, "deep.java", DEEP)
    for command in ("run-ml", "run-mj"):
        done = run_cli(command, path)
        assert done.returncode == 5, (command, done.stderr)
        assert done.stdout == ""
        assert "fault: FuelExhausted" in done.stderr


def nested_ifs(n):
    """A main body of `n` nested `if (true) ... else {}` around one print."""
    body = "if (true) " * n + "System.out.println(1);" + " else {}" * n
    return f"class N {{\n    public static void main(String[] a) {{\n        {body}\n    }}\n}}\n"


def test_translate_of_too_deeply_nested_statements_exits_1(tmp_path):
    # 250 levels parse, typecheck and diff as `match`, but are too deep
    # for the printer: a one-line diagnostic, not a traceback
    path = write(tmp_path, "deep.java", nested_ifs(250))
    assert run_cli("diff", path).returncode == 0
    done = run_cli("translate", path)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"{path}: statements nested too deeply to print as Standard ML\n"
    path = write(tmp_path, "shallow.java", nested_ifs(200))
    done = run_cli("translate", path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("val _ = mj_main ()")


def nested_whiles(n):
    """A main body of `n` nested `while (false)` around one print."""
    body = "while (false) " * n + "System.out.println(1);"
    return f"class W {{\n    public static void main(String[] a) {{\n        {body}\n    }}\n}}\n"


def test_statements_too_deep_to_translate_are_a_diagnostic(tmp_path, corpus_dir):
    # 600 levels parse, typecheck and run, but the translator takes two
    # frames a level: a one-line diagnostic, and an `error` row in `diff`
    path = write(tmp_path, "Deep.java", nested_whiles(600))
    write(tmp_path, "Factorial.java", (corpus_dir / "Factorial.java").read_text())
    assert run_cli("run-mj", path).returncode == 0
    message = f"{path}: expressions or statements nested too deeply to translate\n"
    for command in ("translate", "run-ml"):
        done = run_cli(command, path)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", message), command
    done = run_cli("diff", str(tmp_path))
    assert done.returncode == 3, done.stderr
    assert done.stderr == ""
    rows = [re.split(r" *\| *", row)[:4] for row in done.stdout.splitlines()]
    assert ["Deep.java", "ok", "-", "error"] in rows
    assert ["Factorial.java", "ok", "ok", "match"] in rows


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
