from dataclasses import replace

import pytest

from mj2ml import generate_program, mlprint
from mj2ml.mlast import (
    App,
    Case,
    Con,
    DataCon,
    DataType,
    FunDef,
    If,
    IntLit,
    Let,
    MlProgram,
    PCon,
    PTuple,
    PVar,
    PrimOp,
    PWild,
    TY_INT,
    TY_UNIT,
    Tuple,
    TyApp,
    TyName,
    TyTuple,
    TyVar,
    Val,
    Var,
)
from mj2ml.mlprint import print_expr, print_ml_program, print_pat, print_type
from mj2ml.parser import parse_source
from mj2ml.store import prelude, shared_helpers
from mj2ml.translate import translate


def test_negative_integers_use_tilde():
    assert print_expr(IntLit(-1)) == "~1"
    assert print_expr(IntLit(0)) == "0"


def test_product_types_parenthesize_components():
    state = TyTuple((TY_INT, TyApp("list", TyTuple((TY_INT, TyName("heapval"))))))
    assert print_type(state) == "int * (int * heapval) list"


def test_precedence_avoids_redundant_parens():
    e = PrimOp("+", (IntLit(1), PrimOp("*", (IntLit(2), IntLit(3)))))
    assert print_expr(e) == "1 + 2 * 3"
    e = PrimOp("*", (PrimOp("+", (IntLit(1), IntLit(2))), IntLit(3)))
    assert print_expr(e) == "(1 + 2) * 3"


def test_application_is_tighter_than_arithmetic():
    e = PrimOp("+", (App(Var("f"), Var("x")), IntLit(1)))
    assert print_expr(e) == "f x + 1"
    e = App(Var("f"), PrimOp("+", (Var("x"), IntLit(1))))
    assert print_expr(e) == "f (x + 1)"


def test_short_if_stays_on_one_line():
    e = If(Var("c"), IntLit(1), IntLit(2))
    assert print_expr(e) == "if c then 1 else 2"


def test_long_if_breaks_into_three_lines():
    wide = PrimOp("+", (Var("a_very_long_name_indeed"),
                        Var("another_very_long_name_indeed")))
    text = print_expr(If(Var("condition_name_that_is_long"), wide, wide))
    lines = text.splitlines()
    assert lines[0].startswith("if ")
    assert lines[1].lstrip().startswith("then ")
    assert lines[2].lstrip().startswith("else ")


def test_nested_lets_collapse_into_one_block():
    e = Let((Val(PVar("a"), IntLit(1)), Val(PVar("b"), IntLit(2))),
            PrimOp("+", (Var("a"), Var("b"))))
    text = print_expr(e)
    assert text.count("let") == 1
    assert text.count("in") == 1
    assert "val a = 1" in text and "val b = 2" in text


def test_case_rules_align():
    e = Case(Var("x"), ((PCon("Lf"), IntLit(0)),
                        (PCon("Nd", (PVar("h"), PWild(), PWild())), Var("h"))))
    lines = print_expr(e).splitlines()
    assert lines[0] == "case x of"
    assert lines[1].lstrip().startswith("Lf =>")
    assert lines[2].lstrip().startswith("| Nd (h, _, _) =>")
    assert lines[1].index("Lf") == lines[2].index("Nd")


def test_constructor_patterns_print_flat():
    # a constructor pattern is only a `case` rule's own, with variables
    # and wildcards for items, so nothing around it needs parentheses
    assert print_pat(PCon("C", (PVar("x"),))) == "C x"
    assert print_pat(PCon("C", (PVar("x"), PWild()))) == "C (x, _)"


def test_tuple_pattern():
    assert print_pat(PTuple((PVar("a"), PWild()))) == "(a, _)"


def test_datatype_lines():
    dt = DataType("mj_ext_A", (DataCon("Ext_B", TY_INT),))
    prog = MlProgram((dt,), ((FunDef("f", PVar("x"), Var("x")),),), IntLit(0))
    text = print_ml_program(prog)
    assert "datatype mj_ext_A =" in text
    assert "Ext_B of int" in text
    assert "fun f x = x" in text


def test_type_parameters_and_nullary_constructors():
    a = TyVar("a")
    dt = DataType("tree", (DataCon("Lf", TY_UNIT),
                           DataCon("Nd", TyTuple((a, TyApp("tree", a), TyApp("tree", a))))),
                  params=("a",))
    text = print_ml_program(MlProgram([dt], [], IntLit(0)))
    assert "datatype 'a tree =\n    Lf\n  | Nd of 'a * 'a tree * 'a tree\n" in text


def test_div_and_mod_print_at_the_level_of_times():
    i = Var("i")
    half = PrimOp("div", (i, IntLit(2)))
    assert print_expr(PrimOp("-", (half, IntLit(1)))) == "i div 2 - 1"
    assert print_expr(PrimOp("mod", (PrimOp("+", (i, IntLit(1))), IntLit(2)))) == "(i + 1) mod 2"
    assert print_expr(PrimOp("*", (i, half))) == "i * (i div 2)"
    assert print_expr(PrimOp("=", (PrimOp("mod", (i, IntLit(2))), IntLit(1)))) == "i mod 2 = 1"


def test_program_layout_and_header(corpus_files):
    factorial = next(f for f in corpus_files if f.name == "Factorial.java")
    ml = translate(parse_source(factorial.read_text()))
    text = print_ml_program(ml, source_name="Factorial.java")
    assert text.startswith("(* Factorial.java")
    assert "fun mj_print n = print" in text
    assert "datatype heapval =" in text
    assert "fun mj_main () =" in text
    assert text.rstrip().endswith("val _ = mj_main ()")
    assert "\t" not in text


def test_printing_is_deterministic(corpus_files):
    src = corpus_files[0].read_text()
    a = print_ml_program(translate(parse_source(src)))
    b = print_ml_program(translate(parse_source(src)))
    assert a == b


def comment_depths(text):
    """The SML comment depth after each line; None once a `*)` closes nothing."""
    depth, depths = 0, []
    for line in text.splitlines():
        i = 0
        while i < len(line):
            if line.startswith("(*", i):
                depth, i = depth + 1, i + 2
            elif line.startswith("*)", i):
                if depth == 0:
                    return None
                depth, i = depth - 1, i + 2
            else:
                i += 1
        depths.append(depth)
    return depths


def test_the_header_comment_closes_whatever_the_file_name():
    program = MlProgram([], [], IntLit(0))
    for name in ("odd(*name.java", "odd*)name.java", "(*)", "a(**)b.java", "plain.java"):
        text = print_ml_program(program, source_name=name)
        assert comment_depths(text) == [0] * len(text.splitlines()), name
        assert text.splitlines()[0].startswith("(* ") and text.splitlines()[0].endswith(" *)")


def test_a_case_that_ends_a_rule_other_than_the_last_is_bracketed():
    # SML extends a match as far right as it can, so unbracketed the outer
    # `| false => 3` would be read as a third rule of the inner case
    inner = Case(Con("false"), ((PCon("true"), IntLit(1)), (PCon("false"), IntLit(2))))
    outer = Case(Con("false"), ((PCon("true"), inner), (PCon("false"), IntLit(3))))
    assert print_expr(outer).splitlines() == [
        "case false of",
        "    true => (case false of",
        "          true => 1",
        "        | false => 2)",
        "  | false => 3",
    ]
    # the same when the inner case is the `else` of an `if` ending the rule
    outer = Case(Con("false"), ((PCon("true"), If(Var("c"), IntLit(0), inner)),
                                (PCon("false"), IntLit(3))))
    assert print_expr(outer).splitlines() == [
        "case false of",
        "    true => (if c",
        "      then 0",
        "      else case false of",
        "            true => 1",
        "          | false => 2)",
        "  | false => 3",
    ]
    # a case ending the last rule, or closed by `end`, needs no brackets
    last = Case(Con("false"), ((PCon("false"), IntLit(3)), (PCon("true"), inner)))
    closed = Case(Con("false"), ((PCon("true"), Let((Val(PVar("x"), IntLit(0)),), inner)),
                                 (PCon("false"), IntLit(3))))
    assert "(" not in print_expr(last) and "(" not in print_expr(closed)


def copied(groups):
    """Equal copies of `groups`, none of them the same object."""
    return [tuple(replace(f) for f in group) for group in groups]


@pytest.fixture(scope="module")
def translations(corpus_files):
    programs = [parse_source(path.read_text()) for path in corpus_files]
    programs += [generate_program(seed, 40) for seed in range(0, 40, 4)]
    return [translate(program) for program in programs]


def test_equal_copies_of_the_store_helpers_print_the_same_bytes(translations):
    # each translation leads with the store's helpers it declares, the
    # helpers themselves: a prefix of them, all seven for a program with
    # heap cells and none for one without arrays
    helpers = {f.name for f in prelude()}
    for ml in translations:
        declared = [f for group in ml.fun_groups for f in group if f.name in helpers]
        assert shared_helpers(ml.fun_groups) == len(declared)
        copies = replace(ml, fun_groups=copied(ml.fun_groups))
        assert shared_helpers(copies.fun_groups) == 0
        assert print_ml_program(copies) == print_ml_program(ml)


def test_only_the_helpers_themselves_take_the_text_printed_once(monkeypatch, translations):
    # `_group` prints a group from its tree: the helpers that lead a
    # program never reach it, and an equal copy of one always does
    ml = translations[0]
    helpers = len(prelude())
    printed = []

    def spy(funs):
        printed.append(funs)
        return group_lines(funs)

    group_lines = mlprint._group
    monkeypatch.setattr(mlprint, "_group", spy)
    text = print_ml_program(ml)
    assert printed == ml.fun_groups[helpers:]
    printed.clear()
    copies = copied(ml.fun_groups[:3])
    assert print_ml_program(replace(ml, fun_groups=[*ml.fun_groups[:2], *copies[2:],
                                                    *ml.fun_groups[3:]])) == text
    assert printed == [*copies[2:], *ml.fun_groups[3:]]


def test_a_program_that_leads_with_some_of_the_helpers_prints_each_group(translations):
    ml = translations[0]
    helpers, rest = ml.fun_groups[:len(prelude())], ml.fun_groups[len(prelude()):]
    for k in range(len(helpers) + 1):
        # the first k helpers themselves, then none of the others, copies
        # of them, all but the next, or them in reverse order
        tails = [[], copied(helpers[k:]), helpers[k + 1:]]
        tails += [helpers[k:][::-1]] if len(helpers) - k > 1 else []
        for later in tails:
            groups = [*helpers[:k], *later, *rest]
            program = replace(ml, fun_groups=groups)
            assert shared_helpers(groups) == k
            assert print_ml_program(program) == print_ml_program(
                replace(ml, fun_groups=copied(groups))), (k, later)


def test_a_helper_grouped_with_another_function_prints_the_whole_group(translations):
    ml = translations[0]
    (get,), (set_,), *others = ml.fun_groups
    other = FunDef("mj_other", PVar("n"), App(Var("mj_get"), Tuple((Var("n"), IntLit(0)))))
    for groups in ([(get, set_), *others], [(get,), (set_, other), *others],
                   [(get, other), (set_,), *others]):
        assert shared_helpers(groups) == (1 if len(groups[0]) == 1 else 0)
        text = print_ml_program(replace(ml, fun_groups=groups))
        assert text == print_ml_program(replace(ml, fun_groups=copied(groups)))
        names = [f.name for f in groups[0] + groups[1]]
        assert all(f"fun {name} " in text or f"and {name} " in text for name in names)
        assert "\nand " in text
