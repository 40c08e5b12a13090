from mj2ml.mjast import INT_MAX, INT_MIN
from mj2ml.mlast import (
    App,
    Case,
    Con,
    FunDef,
    If,
    IntLit,
    Let,
    LetFun,
    MlProgram,
    PCon,
    PTuple,
    PVar,
    PrimOp,
    PWild,
    Tuple,
    Var,
)
from mj2ml.mleval import VCon, alloc_order, eval_program
from mj2ml.outcome import FaultKind


def run(main, fun_groups=(), fuel=10_000_000):
    return eval_program(MlProgram((), tuple(fun_groups), main), fuel=fuel)


def test_arithmetic_and_comparison():
    out, val = run(PrimOp("+", (IntLit(2), PrimOp("*", (IntLit(3), IntLit(4))))))
    assert out.ok and val == 14
    out, val = run(PrimOp("<", (IntLit(3), IntLit(4))))
    assert val is True
    out, val = run(PrimOp("=", (IntLit(3), IntLit(4))))
    assert val is False


def test_addition_overflow_faults():
    out, val = run(PrimOp("+", (IntLit(INT_MAX), IntLit(1))))
    assert out.fault == FaultKind.INTEGER_OVERFLOW and val is None
    out, val = run(PrimOp("-", (IntLit(INT_MIN), IntLit(1))))
    assert out.fault == FaultKind.INTEGER_OVERFLOW


def test_let_and_tuple_pattern():
    main = Let(PTuple((PVar("a"), PVar("b"))), Tuple((IntLit(1), IntLit(2))),
               PrimOp("+", (Var("a"), Var("b"))))
    out, val = run(main)
    assert val == 3


def test_if_requires_boolean_and_selects_branch():
    out, val = run(If(PrimOp("<", (IntLit(1), IntLit(2))), IntLit(10), IntLit(20)))
    assert val == 10


def test_case_first_matching_rule_wins():
    main = Case(Con("SOME", (IntLit(2),)), ((PCon("NONE"), IntLit(100)),
                                            (PCon("SOME", (PVar("x"),)), Var("x")),
                                            (PWild(), IntLit(300))))
    out, val = run(main)
    assert val == 2


def test_case_without_match_faults():
    out, val = run(Case(Con("NONE"), ((PCon("SOME", (PWild(),)), IntLit(0)),)))
    assert out.fault == FaultKind.MATCH_FAILURE


def test_integer_pattern_does_not_match_booleans():
    # true is the Python True, which is also the int 1: a constructor
    # pattern must not confuse it with a datatype value or with false
    main = Case(Con("true"), ((PCon("SOME", (PWild(),)), IntLit(9)),
                              (PCon("false"), IntLit(8)),
                              (PCon("true"), IntLit(7))))
    out, val = run(main)
    assert val == 7


def test_cons_patterns_destructure_lists():
    xs = Con("::", (IntLit(5), Con("::", (IntLit(6), Con("nil")))))
    main = Case(xs, ((PCon("::", (PVar("h"), PWild())), Var("h")),))
    out, val = run(main)
    assert val == 5


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


def test_letfun_ties_the_knot_locally():
    fac = FunDef("fac", PVar("n"),
                 If(PrimOp("<", (Var("n"), IntLit(1))),
                    IntLit(1),
                    PrimOp("*", (Var("n"),
                                 App(Var("fac"), PrimOp("-", (Var("n"), IntLit(1))))))))
    out, val = run(LetFun((fac,), App(Var("fac"), IntLit(10))))
    assert val == 3628800


def test_fuel_exhaustion_reported():
    spin = FunDef("spin", PVar("n"), App(Var("spin"), Var("n")))
    out, val = run(App(Var("spin"), IntLit(0)), fun_groups=((spin,),), fuel=500)
    assert out.fault == FaultKind.FUEL_EXHAUSTED


def test_print_builtin_collects_output():
    main = Let(PWild(), App(Var("mj_print"), IntLit(-5)),
               App(Var("mj_print"), IntLit(7)))
    out, val = run(main)
    assert out.output == [-5, 7] and val == ()


def test_alloc_order_reads_cons_heap_backwards():
    w = VCon("HArr", (VCon("nil"),))
    heap = VCon("nil")
    for k in (0, 1, 2):
        heap = VCon("::", ((k, w), heap))
    assert alloc_order((3, heap)) == [0, 1, 2]
