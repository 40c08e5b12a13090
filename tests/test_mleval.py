import gc
import hashlib
import sys
import threading
import time

import pytest

from mj2ml.diffharness import diff_source
from mj2ml.mjast import INT_MAX, INT_MIN, print_program
from mj2ml.mjinterp import interpret_mj
from mj2ml.mlast import (
    TY_INT,
    TY_UNIT,
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
    Tuple,
    TyVar,
    Val,
    Var,
    validate_core,
)
from mj2ml.mleval import eval_program
from mj2ml.mlprint import print_ml_program
from mj2ml.outcome import DEFAULT_FUEL, FaultKind, extra_frames
from mj2ml.parser import parse_source
from mj2ml.randgen import generate_program
from mj2ml.sema import typecheck
from mj2ml.store import heap_cells, prelude
from mj2ml.translate import translate


def run(main, fun_groups=(), fuel=10_000_000):
    return eval_program(MlProgram((), tuple(fun_groups), main), fuel=fuel)


def test_arithmetic_and_comparison():
    out, val = run(PrimOp("+", (IntLit(2), PrimOp("*", (IntLit(3), IntLit(4))))))
    assert out.ok and val == 14
    out, val = run(PrimOp("<", (IntLit(3), IntLit(4))))
    assert val is True
    out, val = run(PrimOp("=", (IntLit(3), IntLit(4))))
    assert val is False


def test_div_and_mod_round_towards_negative_infinity():
    for a, op, expected in ((-7, "div", -4), (-7, "mod", 1), (7, "div", 3), (6, "mod", 0)):
        out, val = run(PrimOp(op, (IntLit(a), IntLit(2))))
        assert out.ok and val == expected, (a, op)


def test_addition_overflow_faults():
    out, val = run(PrimOp("+", (IntLit(INT_MAX), IntLit(1))))
    assert out.fault == FaultKind.INTEGER_OVERFLOW and val is None
    out, val = run(PrimOp("-", (IntLit(INT_MIN), IntLit(1))))
    assert out.fault == FaultKind.INTEGER_OVERFLOW


def test_let_and_tuple_pattern():
    main = Let((Val(PTuple((PVar("a"), PVar("b"))), Tuple((IntLit(1), IntLit(2)))),),
               PrimOp("+", (Var("a"), Var("b"))))
    out, val = run(main)
    assert val == 3


def test_if_requires_boolean_and_selects_branch():
    out, val = run(If(PrimOp("<", (IntLit(1), IntLit(2))), IntLit(10), IntLit(20)))
    assert val == 10


# datatype 'a option = NONE | SOME of 'a, and datatype ab = A of int | B of int
OPTION = DataType("option", (DataCon("NONE", TY_UNIT), DataCon("SOME", TyVar("a"))),
                  params=("a",))
AB = DataType("ab", (DataCon("A", TY_INT), DataCon("B", TY_INT)))


def test_case_first_matching_rule_wins():
    # case SOME 2 of NONE => 100 | SOME x => x | _ => 300: no rule comes
    # first, since rules of distinct constructors cannot overlap, and a
    # wildcard rule, which could, is outside the fragment
    main = Case(Con("SOME", (IntLit(2),)), ((PCon("NONE"), IntLit(100)),
                                            (PCon("SOME", (PVar("x"),)), Var("x")),
                                            (PWild(), IntLit(300))))
    assert [(v.path, v.message) for v in validate_core(MlProgram([OPTION], [], main))] == [
        ("main/case-rule2-pat", "a 'case' rule other than a constructor pattern")]
    with pytest.raises(AssertionError):
        run(main)


def test_case_without_match_faults():
    out, val = run(Case(Con("NONE"), ((PCon("SOME", (PWild(),)), IntLit(0)),)))
    assert out.fault == FaultKind.MATCH_FAILURE


def test_integer_pattern_does_not_match_booleans():
    # true is the Python True, which is also the int 1: a `true` or
    # `false` rule must not confuse it with false or with 1
    assert run(Case(Con("true"), ((PCon("true"), IntLit(7)),)))[1] == 7
    for scrutinee, rule in ((Con("true"), "false"), (IntLit(1), "true")):
        out, val = run(Case(scrutinee, ((PCon(rule), IntLit(7)),)))
        assert out.fault == FaultKind.MATCH_FAILURE and val is None, rule


def test_constructor_patterns_destructure_trees():
    t = Con("Nd", (IntLit(5), Con("Nd", (IntLit(6), Con("Lf"), Con("Lf"))), Con("Lf")))
    main = Case(t, ((PCon("Nd", (PVar("h"), PWild(), PWild())), Var("h")),))
    out, val = run(main)
    assert val == 5


B12 = Con("B", (IntLit(1), IntLit(2)))
XY = (PVar("x"), PVar("y"))


@pytest.mark.parametrize("main, fault, steps, value", [
    (Let((Val(PTuple((PVar("a"), PVar("b"))), B12),), Var("a")), FaultKind.MATCH_FAILURE, 4, None),
    (Let((Val(PTuple((PVar("a"), PVar("b"))), Con("Lf")),), Var("a")),
     FaultKind.MATCH_FAILURE, 2, None),
    (Case(Tuple((IntLit(1), IntLit(2))), ((PCon("B", XY), Var("x")),)),
     FaultKind.MATCH_FAILURE, 4, None),
    (Case(B12, ((PCon("B", (PVar("x"),)), Var("x")),)), FaultKind.MATCH_FAILURE, 4, None),
    (Case(B12, ((PCon("B", XY), Var("y")),)), None, 5, 2),
], ids=["tuple-pattern-of-B", "tuple-pattern-of-Lf", "B-rule-of-a-tuple", "B-rule-of-one-item",
        "B-rule-of-two-items"])
def test_tuples_and_datatype_values_never_match_each_others_patterns(main, fault, steps, value):
    out, val = run(main)
    assert (out.fault, out.steps, val) == (fault, steps, value)


def test_deep_tail_recursion_runs_in_constant_stack():
    # 200_000 calls: far past the Python recursion limit, fine under TCO
    go = FunDef("go", PVar("n"),
                If(PrimOp("<", (Var("n"), IntLit(1))),
                   IntLit(0),
                   App(Var("go"), PrimOp("-", (Var("n"), IntLit(1))))))
    out, val = run(App(Var("go"), IntLit(200_000)), fun_groups=((go,),))
    assert out.ok and val == 0


def test_mutual_recursion_via_one_group():
    even = FunDef("even", PVar("n"),
                  If(PrimOp("<", (Var("n"), IntLit(1))), Con("true"),
                     App(Var("odd"), PrimOp("-", (Var("n"), IntLit(1))))))
    odd = FunDef("odd", PVar("n"),
                 If(PrimOp("<", (Var("n"), IntLit(1))), Con("false"),
                    App(Var("even"), PrimOp("-", (Var("n"), IntLit(1))))))
    out, val = run(App(Var("even"), IntLit(101)), fun_groups=((even, odd),))
    assert val is False


def test_a_top_level_fun_calls_itself_outside_tail_position():
    fac = FunDef("fac", PVar("n"),
                 If(PrimOp("<", (Var("n"), IntLit(1))),
                    IntLit(1),
                    PrimOp("*", (Var("n"),
                                 App(Var("fac"), PrimOp("-", (Var("n"), IntLit(1))))))))
    out, val = run(App(Var("fac"), IntLit(10)), fun_groups=((fac,),))
    assert val == 3628800


def test_fuel_exhaustion_reported():
    spin = FunDef("spin", PVar("n"), App(Var("spin"), Var("n")))
    out, val = run(App(Var("spin"), IntLit(0)), fun_groups=((spin,),), fuel=500)
    assert out.fault == FaultKind.FUEL_EXHAUSTED


def test_fuel_runs_out_after_exactly_the_visits_it_paid_for():
    # let a = 5 in (SOME a, mj_print 1, a): 9 node visits, the print
    # happening after the 8th.  Fuel 8 prints and then runs out on the
    # last `a`; fuel 7 runs out before the print.
    main = Let((Val(PVar("a"), IntLit(5)),),
               Tuple((Con("SOME", (Var("a"),)), App(Var("mj_print"), IntLit(1)), Var("a"))))
    for fuel in range(11):
        out, val = run(main, fuel=fuel)
        assert out.output == ([1] if fuel >= 8 else []), fuel
        assert out.fault == (None if fuel >= 9 else FaultKind.FUEL_EXHAUSTED), fuel
        assert out.steps == min(fuel, 9), fuel
    assert val == (["SOME", 5], (), 5)


def test_print_builtin_collects_output():
    main = Let((Val(PWild(), App(Var("mj_print"), IntLit(-5))),),
               App(Var("mj_print"), IntLit(7)))
    out, val = run(main)
    assert out.output == [-5, 7] and val == ()


def run_prelude(main):
    return run(main, fun_groups=[(f,) for f in prelude()])


def zeros(n):
    return App(Var("mj_zeros"), IntLit(n))


@pytest.mark.parametrize("index", [0, 1, 2, 3, -1, -2, -5], ids=str)
def test_an_index_outside_the_tree_fails_to_match_in_mj_get_and_mj_set(index):
    # the walk from an index outside a 3-element tree, its length or a
    # negative one, ends in an empty subtree, where both helpers have no rule
    get = run_prelude(App(Var("mj_get"), Tuple((zeros(3), IntLit(index)))))[0]
    set_ = run_prelude(App(Var("mj_set"), Tuple((zeros(3), IntLit(index), IntLit(7)))))[0]
    fault = None if 0 <= index < 3 else FaultKind.MATCH_FAILURE
    assert (get.fault, set_.fault) == (fault, fault)


def test_failed_case_rule_binds_nothing():
    # let x = 5 in case A 1 of B x => 0 | A _ => x: the x of the rule not
    # taken has a slot of its own, so the outer x is read
    main = Let((Val(PVar("x"), IntLit(5)),),
               Case(Con("A", (IntLit(1),)), ((PCon("B", (PVar("x"),)), IntLit(0)),
                                             (PCon("A", (PWild(),)), Var("x")))))
    assert validate_core(MlProgram([AB], [], main)) == []
    out, val = run(main)
    assert out.ok and val == 5


def test_tail_call_whose_argument_makes_calls():
    # fun dec n = minus1 n  (a tail call inside a non-tail one)
    # fun go n = if n < 1 then 0 else go (dec n)
    minus1 = FunDef("minus1", PVar("n"), PrimOp("-", (Var("n"), IntLit(1))))
    dec = FunDef("dec", PVar("n"), App(Var("minus1"), Var("n")))
    go = FunDef("go", PVar("n"),
                If(PrimOp("<", (Var("n"), IntLit(1))),
                   IntLit(0),
                   App(Var("go"), App(Var("dec"), Var("n")))))
    out, val = run(App(Var("go"), IntLit(200_000)),
                   fun_groups=((minus1,), (dec,), (go,)))
    assert out.ok and val == 0


def add(a, b):
    return PrimOp("+", (a, b))


# `fun f x = x + 1` and two shapes of `fun f (a, b)`
INC = FunDef("f", PVar("x"), add(Var("x"), IntLit(1)))
FIRST = FunDef("f", PTuple((PVar("a"), PVar("b"))), Var("a"))
SUM = FunDef("f", PTuple((PVar("a"), PVar("b"))), add(Var("a"), Var("b")))


def with_i(body):
    return Let((Val(PVar("i"), IntLit(9)),), body)


F2 = App(Var("f"), IntLit(2))
HALF = PrimOp("div", (Var("i"), IntLit(2)))

# Shapes the translation never emits, each run with `fun f x = x + 1`
# in scope, and its (value, fault, steps): `<` and `=` of a call or of
# arithmetic, `<` of a pure operand that is no variable or constant,
# a `div` or `mod` of a `div`, and a 3-tuple with a call in it.
COLD_SHAPES = {
    "less-call": (PrimOp("<", (F2, IntLit(3))), (False, None, 8)),
    "less-arith": (PrimOp("<", (IntLit(2), add(IntLit(1), IntLit(2)))), (True, None, 5)),
    "equal-call": (PrimOp("=", (IntLit(3), F2)), (True, None, 8)),
    "equal-arith": (PrimOp("=", (add(IntLit(1), IntLit(2)), IntLit(3))), (True, None, 5)),
    "if-less-call": (If(PrimOp("<", (F2, IntLit(3))), IntLit(1), IntLit(2)), (2, None, 10)),
    "if-less-div": (with_i(If(PrimOp("<", (HALF, IntLit(3))), IntLit(1), IntLit(2))),
                    (2, None, 9)),
    "div-of-div": (with_i(PrimOp("div", (HALF, IntLit(2)))), (2, None, 7)),
    "mod-of-div-in-tuple": (with_i(Tuple((PrimOp("mod", (HALF, IntLit(3))), F2))),
                            ((1, 3), None, 14)),
    "impure-3-tuple": (Tuple((IntLit(1), F2, IntLit(3))), ((1, 3, 3), None, 9)),
    "print-in-3-tuple": (Tuple((App(Var("mj_print"), IntLit(1)), F2,
                                PrimOp("<", (F2, IntLit(2))))), (((), 3, False), None, 18)),
}


@pytest.mark.parametrize("main, groups, expected", [
    # a later group's `fun f x` shadows the earlier `fun f (a, b)`
    (App(Var("f"), IntLit(3)),
     ((SUM,), (FunDef("f", PVar("x"), PrimOp("*", (Var("x"), IntLit(2)))),)), (6, None, 6)),
    # a 3-tuple for a 2-tuple parameter fails to match after the charge
    (App(Var("f"), Tuple((IntLit(1), IntLit(2), IntLit(3)))),
     ((FIRST,),), (None, FaultKind.MATCH_FAILURE, 6)),
    # a tuple passed through a variable
    (Let((Val(PVar("p"), Tuple((IntLit(1), IntLit(2)))),), App(Var("f"), Var("p"))),
     ((FIRST,),), (1, None, 8)),
    # a known call outside tail position
    (add(IntLit(1), App(Var("f"), IntLit(9))), ((INC,),), (11, None, 8)),
    # known calls with a tuple argument, pure or not, and with a single
    # argument, pure or not: the function position is charged, not read
    (App(Var("f"), Tuple((IntLit(1), IntLit(2)))), ((SUM,),), (3, None, 8)),
    (App(Var("f"), Tuple((IntLit(1), add(IntLit(2), IntLit(3))))), ((SUM,),), (6, None, 10)),
    (App(Var("f"), IntLit(9)), ((INC,),), (10, None, 6)),
    (App(Var("f"), add(IntLit(9), IntLit(1))), ((INC,),), (11, None, 8)),
    *[(main, ((INC,),), expected) for main, expected in COLD_SHAPES.values()],
], ids=["later-fun-shadows", "arity-mismatch", "tuple-in-variable", "non-tail",
        "known-tuple", "known-tuple-impure", "known-single", "known-single-impure",
        *COLD_SHAPES])
def test_calls_of_known_functions_keep_values_faults_and_steps(main, groups, expected):
    out, val = run(main, fun_groups=groups)
    assert (val, out.fault, out.steps) == expected


# (fuel, fault, steps, output) of each of COLD_SHAPES cut at every fuel
# from 0 to its steps: where every check falls, and what a cut run has printed.
COLD_SHAPE_CUTS_SHA256 = "561086d2a676b30f89262a41e99b9b5bed43b3fa54ce25ac7d0bd49c453eb970"


def test_shapes_the_translation_never_emits_cut_at_any_fuel():
    lines = []
    for name, (main, (_, _, steps)) in COLD_SHAPES.items():
        for fuel in range(steps + 1):
            out, _ = run(main, fun_groups=((INC,),), fuel=fuel)
            lines.append(f"{name} {fuel} {out.fault.value if out.fault else 'ok'} "
                         f"{out.steps} {out.output}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == COLD_SHAPE_CUTS_SHA256, text


def test_a_lifted_function_reads_what_its_caller_passes():
    # fun top _ = 100
    # fun inner (m, n) = if m < 1 then n + top 0 else inner (m - 1, n)
    # and outer n = inner (3, n)
    # inner, as a translated loop is, takes the variable it only reads
    # from its caller and passes it on to itself; each call's frame holds
    # its own n, and every function reads top-level ones alone
    inner = FunDef("inner", PTuple((PVar("m"), PVar("n"))),
                   If(PrimOp("<", (Var("m"), IntLit(1))),
                      add(Var("n"), App(Var("top"), IntLit(0))),
                      App(Var("inner"), Tuple((PrimOp("-", (Var("m"), IntLit(1))), Var("n"))))))
    outer = FunDef("outer", PVar("n"), App(Var("inner"), Tuple((IntLit(3), Var("n")))))
    top = FunDef("top", PWild(), IntLit(100))
    out, val = run(add(App(Var("outer"), IntLit(7)), App(Var("outer"), IntLit(5))),
                   fun_groups=((top,), (inner, outer)))
    assert out.ok and val == 212


# Fuel used on each side for the corpus, as the tree-walking evaluator
# charged it: one unit per ML node visited, one per MiniJava statement
# and expression.  A change to how either interpreter charges fuel shows
# here.
CORPUS_STEPS = {
    "BinarySearch": (13164, 4018),
    "BinaryTree": (5566, 527),
    "BubbleSort": (18196, 1856),
    "Factorial": (191, 141),
    "LinearSearch": (6499, 1293),
    "LinkedList": (1972, 171),
    "QuickSort": (10635, 1114),
    "TreeVisitor": (4202, 303),
}


@pytest.mark.parametrize("name", sorted(CORPUS_STEPS))
def test_corpus_steps_are_pinned_and_are_the_fuel_needed(corpus_dir, name):
    program = parse_source((corpus_dir / f"{name}.java").read_text())
    table = typecheck(program)
    ml_program = translate(program, table)
    ml_steps, mj_steps = CORPUS_STEPS[name]

    ml, _ = eval_program(ml_program)
    mj = interpret_mj(program, table)
    assert ml.ok and mj.ok and ml.output == mj.output
    assert (ml.steps, mj.steps) == (ml_steps, mj_steps)

    runs = {"ml": lambda fuel: eval_program(ml_program, fuel=fuel)[0],
            "mj": lambda fuel: interpret_mj(program, table, fuel=fuel)}
    for side, steps in (("ml", ml_steps), ("mj", mj_steps)):
        enough = runs[side](steps)
        assert enough.ok and enough.output == ml.output and enough.steps == steps, side
        short = runs[side](steps - 1)
        assert short.fault == FaultKind.FUEL_EXHAUSTED, side
        assert short.steps == steps - 1, side
        assert ml.output[:len(short.output)] == short.output, side


DOWN = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new R().down(%d));
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

ZEROS = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().size(%d));
    }
}
class A {
    public int size(int n) {
        int[] x;
        x = new int[n];
        return x.length;
    }
}
"""


LENGTH_LOOP = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().sum(%d));
    }
}
class A {
    public int sum(int n) {
        int[] x;
        int i;
        int s;
        x = new int[n];
        i = 0;
        s = 0;
        while (i < x.length) {
            x[i] = i;
            s = s + x[i];
            i = i + 1;
        }
        return s;
    }
}
"""


@pytest.mark.parametrize("n", [1000, 5000])
def test_a_loop_bounded_by_the_array_length_matches(n):
    # an array carries its length, so `x.length` takes a constant number
    # of steps; walking the tree for it ran the ML side out of fuel here
    result = diff_source("Length.java", LENGTH_LOOP % n)
    assert result.verdict == "match" and result.ml.output == [n * (n - 1) // 2]


def test_a_new_array_takes_fewer_steps_than_it_has_elements():
    # mj_zeros builds by halving, O(log^2 n) steps
    program = parse_source(ZEROS % 1000)
    out, _ = eval_program(translate(program, typecheck(program)))
    assert out.ok and out.output == [1000] and out.steps < 1000


@pytest.mark.parametrize("template, n", [(DOWN, 9994), (ZEROS, 9995)], ids=["down", "zeros"])
def test_deep_non_tail_recursion_finishes(template, n):
    # the deepest method recursion and the largest array the tree-walking
    # evaluator reached; each pending call holds several Python frames
    program = parse_source(template % n)
    out, _ = eval_program(translate(program, typecheck(program)))
    assert out.ok and out.output == [n]


def test_the_ml_side_alone_finishes_a_13000_deep_method_recursion():
    # 2 Python frames per pending ML call, an `if` that tests n < 1 itself
    # and the `let` of its else branch, reach depth 19 997 under
    # RECURSION_LIMIT; 3, with a `let` binding the test first, stopped at
    # 13 331
    program = parse_source(DOWN % 13000)
    out, _ = eval_program(translate(program, typecheck(program)))
    assert out.ok and out.output == [13000]


def test_a_deep_run_keeps_its_frames_while_another_thread_sets_the_limit():
    # the recursion limit is the process's: a block of another thread
    # that set it to its own depth + 50 ran this run out of frames
    program = parse_source(DOWN % 13000)
    program = translate(program, typecheck(program))
    limit = sys.getrecursionlimit()
    started, stop = threading.Event(), threading.Event()

    def churn():
        while not stop.is_set():
            with extra_frames(50):
                started.set()
                time.sleep(0.002)
    thread = threading.Thread(target=churn)
    thread.start()
    try:
        assert started.wait(timeout=60)
        out, _ = eval_program(program)
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert out.ok and out.output == [13000]
    assert sys.getrecursionlimit() == limit


def test_minijava_finishes_a_9500_deep_method_recursion():
    # 4 Python frames per pending call reach depth 9998 under
    # RECURSION_LIMIT; 5, as the tree-walking interpreter took, only 7998
    out = interpret_mj(parse_source(DOWN % 9500))
    assert out.ok and out.output == [9500]


def test_both_sides_finish_a_5000_deep_method_recursion():
    result = diff_source("Down.java", DOWN % 5000)
    assert result.verdict == "match"
    assert result.mj.output == result.ml.output == [5000]


# ML-side steps of generated programs at 100 000 fuel, one line per seed
# 0..49 with the fault, steps and output; 49 of the 50 runs finish.
GENERATED_ML_STEPS_SHA256 = "1323f6a545e08f3a5467954916650a271f4c20334994851bbfd5efc74ba1347f"


def test_generated_programs_take_the_pinned_ml_steps():
    lines = []
    for seed in range(50):
        out, _ = eval_program(translate(generate_program(seed, 40)), fuel=100_000)
        lines.append(f"{seed} {out.fault.value if out.fault else 'ok'} {out.steps} {out.output}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_ML_STEPS_SHA256, text


BIG_ARRAY = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().f());
    }
}
class A {
    public int f() {
        int[] x;
        x = new int[14000];
        x[12000] = 7;
        x[13999] = 7;
        return x.length + x[12000];
    }
}
"""


def test_a_14000_element_array_is_made_and_written_near_its_end():
    # the store helpers recurse O(log n) deep; the list helpers before
    # them recursed once per element and ran out of Python frames here
    result = diff_source("Big.java", BIG_ARRAY)
    assert result.verdict == "match" and result.ml.output == [14007]


# Allocates n objects while it fills an int[n], then sums the array: every
# store operation runs against a heap and an array that grow with n.
FILLER = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new Filler().run(%d));
    }
}
class Cell {
    int value;
    public int set(int v) {
        value = v;
        return value;
    }
}
class Filler {
    public int run(int n) {
        int[] arr;
        int i;
        int sum;
        Cell c;
        arr = new int[n];
        i = 0;
        while (i < n) {
            c = new Cell();
            arr[i] = c.set(i);
            i = i + 1;
        }
        sum = 0;
        i = 0;
        while (i < n) {
            sum = sum + arr[i];
            i = i + 1;
        }
        return sum;
    }
}
"""


def cyclic_garbage_of_a_run(program):
    """Objects the collector finds unreachable after one run of `program`
    made with the collector off."""
    gc.collect()
    gc.disable()
    try:
        out = eval_program(program)[0]
    finally:
        gc.enable()
    assert out.ok
    return gc.collect()


def test_a_run_leaves_no_cyclic_garbage_that_grows_with_the_heap():
    # each loop entry used to leave a frame <-> closure cycle holding the
    # loop's heap states: 1 374 objects at n = 100, 10 390 at n = 1 600
    counts = [cyclic_garbage_of_a_run(translate(parse_source(FILLER % n)))
              for n in (100, 1600)]
    assert counts[0] == counts[1], counts


def test_no_stage_of_an_ml_run_leaves_cyclic_garbage(corpus_files):
    # `outcome` runs an ML program, and compiles it, with the collector
    # off, since nothing on that path makes a reference cycle: parsing,
    # typechecking, translating, printing and the run itself.
    # `translate._liveness`, a nested function that called itself, once
    # left 3 123 objects of cyclic garbage over these programs
    sources = [path.read_text() for path in corpus_files]
    sources += [print_program(generate_program(seed, 40)) for seed in range(40)]
    gc.collect()
    gc.disable()
    try:
        for source in sources:
            program = parse_source(source)
            ml = translate(program, typecheck(program))
            print_ml_program(ml)
            assert eval_program(ml)[0].ok
    finally:
        gc.enable()
    assert gc.collect() == 0


# (fuel, fault, steps, output) of the ML side of each corpus program and
# of FILLER at n = 50, at 21 evenly spaced fuels from 0 to the steps the
# run needs and at each of them +-1: where every check falls, and what a
# run cut there has printed.
FUEL_CUTS_ML_SHA256 = "949dbf688f8677af32ddb16d22b2640f671d2bad6fbfc7460534d4006ace62ca"


def test_ml_runs_cut_at_any_fuel_keep_their_faults_steps_and_output(corpus_files):
    programs = {path.stem: translate(parse_source(path.read_text())) for path in corpus_files}
    programs["Filler50"] = translate(parse_source(FILLER % 50))
    lines = []
    for name, program in programs.items():
        steps = eval_program(program)[0].steps
        for fuel in sorted({k * steps // 20 + d for k in range(21) for d in (-1, 0, 1)}):
            out = eval_program(program, fuel=fuel)[0]
            lines.append(f"{name} {fuel} {out.fault.value if out.fault else 'ok'} "
                         f"{out.steps} {out.output}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == FUEL_CUTS_ML_SHA256, text


def test_a_run_of_a_corpus_program_leaves_no_cyclic_garbage(corpus_files):
    # the compiler's helper closures referred to each other through their
    # cells: 172 to 352 objects per corpus program waited for the collector
    counts = {path.stem: cyclic_garbage_of_a_run(translate(parse_source(path.read_text())))
              for path in corpus_files}
    assert counts == dict.fromkeys(counts, 0)


def outcome_of(program, fuel=DEFAULT_FUEL):
    """What a run shows: output, fault, steps and the final heap."""
    out, state = eval_program(program, fuel=fuel)
    return out.output, out.fault, out.steps, None if out.fault else repr(heap_cells(state))


def in_a_new_thread(work):
    """`work()` in a thread of its own; returns what it returned."""
    results = []

    def target():
        results.append(work())
    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    [result] = results
    return result


def test_a_program_runs_alike_first_after_others_and_in_another_thread(corpus_files):
    programs = [translate(parse_source(path.read_text())) for path in corpus_files]
    tree = programs[1]  # BinaryTree, whose heap holds objects
    steps = eval_program(tree)[0].steps

    def runs():
        return [outcome_of(tree), outcome_of(tree, steps // 2)]

    def first_then_after_others():
        first = runs()
        for program in programs:
            eval_program(program)
        return first, runs()

    first, after = in_a_new_thread(first_then_after_others)
    assert first[0][1:3] == (None, steps) and first[1][1] == FaultKind.FUEL_EXHAUSTED
    assert after == first
    assert in_a_new_thread(runs) == first
    assert runs() == first


def test_runs_from_four_threads_at_once_equal_a_sequential_pass(corpus_files):
    # the threads share one compiler: each run holds the process-wide lock
    # of `extra_frames` from its compile to its steps read, so no other
    # thread's compile sets the fuel before this run's steps are read
    programs = [translate(parse_source(path.read_text())) for path in corpus_files]
    expected = [outcome_of(program) for program in programs]
    seen = [None] * 4

    def work(k):
        seen[k] = [[outcome_of(program) for program in programs] for _ in range(10)]
    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [[expected] * 10] * 4


def test_every_steps_read_holds_the_lock(monkeypatch, corpus_files):
    # the four-thread test sees a steps read outside the lock only when a
    # thread switch falls just before it; this sees every read
    from mj2ml import mleval, outcome

    held = []
    compile_ = mleval._compile

    def wrapped(*args):
        run, fuel_left = compile_(*args)

        def checked_fuel_left():
            held.append(outcome._FRAMES_LOCK._is_owned())
            return fuel_left()
        return run, checked_fuel_left
    monkeypatch.setattr(mleval, "_compile", wrapped)
    for path in corpus_files:
        assert eval_program(translate(parse_source(path.read_text())))[0].ok
    assert held == [True] * len(corpus_files)


# `fun f x = let val y = x in case y of _ => 1 end`, which fails to
# compile with `y` in scope and slots taken
BAD_CASE = FunDef("f", PVar("x"), Let((Val(PVar("y"), Var("x")),),
                                      Case(Var("y"), ((PWild(), IntLit(1)),))))
# `fun f x = let val y = x in y end` and then `fun g x = y`, which reads
# the `y` that f's `let` bound and dropped
BOUND_IN_F = FunDef("f", PVar("x"), Let((Val(PVar("y"), Var("x")),), Var("y")))
READS_FS_Y = FunDef("g", PVar("x"), Var("y"))


@pytest.mark.parametrize("groups, main, message", [
    ([(BAD_CASE,)], App(Var("f"), IntLit(0)), "a `case` other than"),
    ([], Var("nope"), "'nope' is not bound"),
    ([], App(Var("g"), IntLit(1)), "'g' is not bound"),
    ([(BOUND_IN_F,), (READS_FS_Y,)], App(Var("g"), IntLit(1)), "'y' is not bound"),
], ids=["case", "unbound-entry", "unbound-function", "out-of-scope-value"])
def test_a_compile_that_fails_leaves_the_next_run_unchanged(corpus_files, groups, main,
                                                            message):
    # each fails to compile, as outside the fragment, after the store's
    # helpers were bound and a `fun mj_print x = x` shadowed the runtime's
    program = translate(parse_source(corpus_files[1].read_text()))
    before = outcome_of(program)
    silent = FunDef("mj_print", PVar("x"), Var("x"))
    with pytest.raises(AssertionError, match=message):
        run(main, fun_groups=[*[(f,) for f in prelude()], (silent,), *groups])
    assert outcome_of(program) == before


# mj_get (t, i) = 42, which every index of every tree reads
OWN_GET = FunDef("mj_get", PTuple((PVar("t"), PVar("i"))), IntLit(42))
# mj_lookup ((1, Lf), 0): the store's own mj_get walks into Lf
LOOKUP = App(Var("mj_lookup"), Tuple((Tuple((IntLit(1), Con("Lf"))), IntLit(0))))


def test_a_program_that_defines_its_own_store_helper_runs_its_own_definition():
    helpers = [(f,) for f in prelude()]
    lookup = [group for group in helpers if group[0].name == "mj_lookup"]
    assert run(LOOKUP, fun_groups=helpers)[0].fault == FaultKind.MATCH_FAILURE
    # the store's mj_lookup after the program's own mj_get calls that one
    out, val = run(LOOKUP, fun_groups=[(OWN_GET,), *lookup])
    assert out.ok and val == 42
    out, val = run(LOOKUP, fun_groups=[*helpers, (OWN_GET,), *lookup])
    assert out.ok and val == 42
    # the store's helpers before it still call the store's own, and the
    # program's own calls reach its own
    later = [*helpers, (OWN_GET,)]
    assert run(LOOKUP, fun_groups=later)[0].fault == FaultKind.MATCH_FAILURE
    out, val = run(App(Var("mj_get"), Tuple((Con("Lf"), IntLit(0)))), fun_groups=later)
    assert out.ok and val == 42
    # the store's mj_get after the program's own shadows it
    out = run(LOOKUP, fun_groups=[(OWN_GET,), *helpers])[0]
    assert (out.fault, out.steps) == (FaultKind.MATCH_FAILURE, 18)
    # the program's own mj_get among the store's: the helpers after it call it
    out, val = run(LOOKUP, fun_groups=[*helpers[:4], (OWN_GET,), *helpers[4:]])
    assert out.ok and (val, out.steps) == (42, 17)
    # and a run of the store's helpers alone is as before
    assert run(LOOKUP, fun_groups=helpers)[0].fault == FaultKind.MATCH_FAILURE


# SHA-256 of the final heaps: for the corpus every cell, as `heap_cells`
# gives it (22 cells: the lists', trees' and visitors' objects, which
# escape, and the arrays that escape); for seeds 0..199 at size 40 and
# FILLER at the heap-scale workload's sizes, the object cells only, as
# (constructor, fields) in allocation order.  No object of those escapes,
# so every one is a value and these two pin empty heaps, one line
# `<seed or n> []` each: they are the check that every such object is a
# value.
CORPUS_HEAP_SHA256 = "96fa7b6edec04fd6b970663a0c58b259cb54adf111d412cb215cf733acbf08fd"
GENERATED_OBJECT_HEAP_SHA256 = "6cba95bdcfb56977423876e6b0be8576180a12a4aaf6552034d6bb54d393ada6"
FILLER_OBJECT_HEAP_SHA256 = "6abbecc550e0a6b3144e45ba3b7d6947cd0401bb6ec35e491b7510a4628214fb"


def final_state(program):
    out, state = eval_program(program)
    assert out.ok, out
    return state


def object_cells(state):
    return [(value.name, value.args) for _, value in heap_cells(state) if value.name != "HArr"]


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_the_corpus_final_heaps_are_pinned(corpus_files):
    lines = [f"{path.stem} {heap_cells(final_state(translate(parse_source(path.read_text()))))!r}"
             for path in corpus_files]
    assert digest(lines) == CORPUS_HEAP_SHA256


def test_the_generated_final_object_heaps_are_pinned():
    lines = [f"{seed} {object_cells(final_state(translate(generate_program(seed, 40))))!r}"
             for seed in range(200)]
    assert digest(lines) == GENERATED_OBJECT_HEAP_SHA256


def test_the_heap_scale_final_object_heaps_are_pinned():
    lines = [f"{n} {object_cells(final_state(translate(parse_source(FILLER % n))))!r}"
             for n in (50, 100, 200, 400)]
    assert digest(lines) == FILLER_OBJECT_HEAP_SHA256


def test_store_operations_take_logarithmic_steps():
    # doubling n doubles the operations; a linear store would quadruple
    # the steps
    steps = {}
    for n in (400, 800):
        out, _ = eval_program(translate(parse_source(FILLER % n)), fuel=DEFAULT_FUEL)
        assert out.ok and out.output == [n * (n - 1) // 2], n
        steps[n] = out.steps
    assert steps[800] <= 2.5 * steps[400], steps


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_each_interpreter_runs_under_its_collector_policy(monkeypatch, enabled):
    # the ML run makes no cycles and runs with the collector off; the
    # MiniJava run makes some and runs with it as the caller had it
    from mj2ml import mjinterp, mleval

    seen = {}

    def recording(module, side):
        compile_ = module._compile

        def wrapped(*args):
            run, fuel_left = compile_(*args)

            def run_and_record():
                seen[side] = gc.isenabled()
                return run()
            return run_and_record, fuel_left
        monkeypatch.setattr(module, "_compile", wrapped)

    recording(mleval, "ml")
    recording(mjinterp, "mj")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        result = diff_source("Down.java", DOWN % 3)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert result.verdict == "match"
    assert seen == {"ml": False, "mj": enabled} and after is enabled
