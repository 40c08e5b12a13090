import copy
import time

import pytest

from mj2ml import generate_program, parse_source, translate
from mj2ml.mlast import (
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
    PWild,
    PrimOp,
    Tuple,
    TyApp,
    TyName,
    TyVar,
    Val,
    Var,
    validate_core,
)
from mj2ml.mleval import eval_program
from mj2ml.store import EMPTY_STATE, NULL_VALUE, prelude


# datatype 'a option = NONE | SOME of 'a
OPTION = DataType("option", (DataCon("NONE", TY_UNIT), DataCon("SOME", TyVar("a"))),
                  params=("a",))


def violations(main, fun_groups=(), datatypes=()):
    program = MlProgram(list(datatypes), list(fun_groups), main)
    return [(v.path, v.message) for v in validate_core(program)]


def test_val_pattern_is_not_in_scope_in_its_own_rhs():
    # let val x = x in x end
    main = Let((Val(PVar("x"), Var("x")),), Var("x"))
    assert violations(main) == [("main/let0-rhs", "unbound variable 'x'")]


def test_a_name_is_unbound_before_the_declaration_that_binds_it():
    # let val a = b val b = 1 in a end
    main = Let((Val(PVar("a"), Var("b")), Val(PVar("b"), IntLit(1))), Var("a"))
    assert violations(main) == [("main/let0-rhs", "unbound variable 'b'")]


def test_a_group_sees_itself_and_earlier_groups_only():
    # fun h n = f n
    # fun f n = g (h n) and g n = f m
    # f 0: h cannot call the later group, and m is bound nowhere
    h = FunDef("h", PVar("n"), App(Var("f"), Var("n")))
    group = (FunDef("f", PVar("n"), App(Var("g"), App(Var("h"), Var("n")))),
             FunDef("g", PVar("n"), App(Var("f"), Var("m"))))
    assert violations(App(Var("f"), IntLit(0)), [(h,), group]) == [
        ("group0/fun h/app-fn", "unbound variable 'f'"),
        ("group1/fun g/app-arg", "unbound variable 'm'")]


def test_inner_let_bindings_do_not_leak():
    # let val a = let val b = 1 in b end in
    #   if true then let val c = a in c end else c b end
    inner = Let((Val(PVar("b"), IntLit(1)),), Var("b"))
    branch = Let((Val(PVar("c"), Var("a")),), Var("c"))
    main = Let((Val(PVar("a"), inner),),
               If(Con("true"), branch, App(Var("c"), Var("b"))))
    assert violations(main) == [
        ("main/let-body/if-else/app-fn", "unbound variable 'c'"),
        ("main/let-body/if-else/app-arg", "unbound variable 'b'"),
    ]


def test_duplicate_names_in_a_group_are_flagged_local_and_top_level():
    f0 = FunDef("f", PWild(), IntLit(0))
    f1 = FunDef("f", PWild(), IntLit(1))
    # a group in a `let` is flagged for being there, and declares nothing
    local = Let(((f0, f1),), App(Var("f"), IntLit(0)))
    assert violations(local) == [("main/let0", "'fun' inside a 'let'"),
                                 ("main/let-body/app-fn", "unbound variable 'f'")]
    top = App(Var("f"), IntLit(0))
    assert violations(top, [(f0, f1)]) == [("group0", "duplicate function name in group")]


OUTSIDE = "a constructor pattern outside a 'case' rule"


def test_val_patterns_are_checked():
    # let val (x) = 1 in 0 end; let val SOME (a, b) = SOME 1 in 0 end,
    # which only a `case` rule could match; case SOME 1 of SOME (a, b) => 0
    one_tuple = Let((Val(PTuple((PVar("x"),)), IntLit(1)),), IntLit(0))
    assert violations(one_tuple) == [("main/let0-pat", "1-element tuple pattern")]
    wrong_arity = PCon("SOME", (PVar("a"), PVar("b")))
    in_val = Let((Val(wrong_arity, Con("SOME", (IntLit(1),))),), IntLit(0))
    assert violations(in_val, datatypes=[OPTION]) == [("main/let0-pat", OUTSIDE)]
    in_rule = Case(Con("SOME", (IntLit(1),)), ((wrong_arity, IntLit(0)),))
    assert violations(in_rule, datatypes=[OPTION]) == [
        ("main/case-rule0-pat", "constructor 'SOME' takes 1 argument(s), pattern has 2")]


def test_a_declaration_must_be_a_val_or_a_group():
    # a bare FunDef, which is not even a group (and a group is a `fun`
    # inside a `let`, see test_a_fun_inside_a_let_is_rejected)
    main = Let((FunDef("f", PWild(), IntLit(0)),), IntLit(0))
    assert violations(main) == [("main/let0", "not a core declaration: FunDef")]


def test_a_32000_declaration_let_validates_within_2_seconds():
    # let val x0 = 0 val x1 = x0 ... in x31999 end: scoping must not copy
    # the names in scope at each declaration
    n = 32_000
    decls = (Val(PVar("x0"), IntLit(0)),) + tuple(
        Val(PVar(f"x{i}"), Var(f"x{i - 1}")) for i in range(1, n))
    main = Let(decls, Var(f"x{n - 1}"))
    start = time.perf_counter()
    assert violations(main) == []
    assert time.perf_counter() - start < 2.0


def test_div_and_mod_take_only_positive_literal_divisors():
    # so that the core fragment has no division fault
    bind_x = (Val(PVar("x"), IntLit(2)),)
    for op in ("div", "mod"):
        for divisor in (IntLit(0), IntLit(-2), Var("x")):
            main = Let(bind_x, PrimOp(op, (IntLit(7), divisor)))
            assert violations(main) == [
                ("main/let-body", f"'{op}' by something other than a positive literal")]
        assert violations(Let(bind_x, PrimOp(op, (Var("x"), IntLit(2))))) == []



@pytest.mark.parametrize("node", ["let", "case", "if"])
def test_a_let_case_or_if_is_flagged_as_an_operand(node):
    # the A-normal form that `mlprint` relies on: these print on one line only
    block = {"let": Let((Val(PVar("x"), IntLit(1)),), Var("x")),
             "case": Case(Con("true"), ((PCon("true"), IntLit(1)),)),
             "if": If(Con("true"), Con("true"), Con("false"))}[node]
    positions = {"tuple.0": Tuple((block, IntLit(1))),   # (let ... end, 1)
                 "SOME.0": Con("SOME", (block,)),
                 "+.0": PrimOp("+", (block, IntLit(1))),
                 "app-fn": App(block, IntLit(1)),
                 "app-arg": App(Var("f"), block),       # f (case ...)
                 "if-cond": If(block, IntLit(1), IntLit(2)),
                 "case-scrutinee": Case(block, ((PCon("false"), IntLit(1)),))}
    f = FunDef("f", PVar("n"), Var("n"))
    for position, main in positions.items():
        assert violations(main, [(f,)], [OPTION]) == [
            (f"main/{position}", f"'{node}' as an operand")]
    # bound or returned, it is fine
    assert violations(Let((Val(PVar("y"), block),), If(Con("true"), block, block))) == []


def add(a, b):
    return PrimOp("+", (a, b))


# `fun f x = x + 1`, `fun g x = x * 2`, `fun apply (g, x) = g x` and a
# local `fun inc y = y + 1`
INC = FunDef("f", PVar("x"), add(Var("x"), IntLit(1)))
DOUBLE = FunDef("g", PVar("x"), PrimOp("*", (Var("x"), IntLit(2))))
APPLY = FunDef("apply", PTuple((PVar("g"), PVar("x"))), App(Var("g"), Var("x")))
LOCAL_INC = FunDef("inc", PVar("y"), add(Var("y"), IntLit(1)))


@pytest.mark.parametrize("main, groups, expected", [
    # let val f = g in f 1 end
    (Let((Val(PVar("f"), Var("g")),), App(Var("f"), IntLit(1))), [(INC,), (DOUBLE,)],
     [("main/let0-rhs", "function 'g' read as a value"),
      ("main/let-body/app-fn", "'f' is applied but is not a function")]),
    # let val h = f in h 2 end
    (Let((Val(PVar("h"), Var("f")),), App(Var("h"), IntLit(2))), [(INC,)],
     [("main/let0-rhs", "function 'f' read as a value"),
      ("main/let-body/app-fn", "'h' is applied but is not a function")]),
    # let fun inc y = y + 1 in inc 1 + apply (inc, 4) end: `inc` is local,
    # so it is flagged for that and not in scope where it escapes
    (Let(((LOCAL_INC,),), add(App(Var("inc"), IntLit(1)),
                              App(Var("apply"), Tuple((Var("inc"), IntLit(4)))))),
     [(APPLY,)],
     [("group0/fun apply/app-fn", "'g' is applied but is not a function"),
      ("main/let0", "'fun' inside a 'let'"),
      ("main/let-body/+.0/app-fn", "unbound variable 'inc'"),
      ("main/let-body/+.1/app-arg/tuple.0", "unbound variable 'inc'")]),
], ids=["val-rebinds-fun", "val-alias", "local-fun-escapes"])
def test_a_fun_read_as_a_value_is_rejected(main, groups, expected):
    # the core fragment is first-order: a `fun` is only ever applied, and
    # the evaluator has no function values to run these with
    assert violations(main, groups) == expected
    with pytest.raises(AssertionError):
        eval_program(MlProgram([], groups, main))


def test_only_a_functions_name_is_applied():
    # (1, 2) 3, and mj_print read as a value
    assert violations(App(Tuple((IntLit(1), IntLit(2))), IntLit(3))) == [
        ("main/app-fn", "only a function's name can be applied")]
    assert violations(Let((Val(PVar("p"), Var("mj_print")),), IntLit(0))) == [
        ("main/let0-rhs", "function 'mj_print' read as a value")]
    # a value shadowing a `fun` is a value; no `fun` shadows a value, since
    # a `let` declares none
    shadowed = Let((Val(PVar("f"), IntLit(1)),), add(Var("f"), App(Var("mj_print"), Var("f"))))
    assert violations(shadowed, [(INC,)]) == []
    assert violations(Let((Val(PVar("f"), IntLit(1)), (INC,)), App(Var("f"), Var("f")))) == [
        ("main/let1", "'fun' inside a 'let'"),
        ("main/let-body/app-fn", "'f' is applied but is not a function")]


def fac(name):
    # fun fac n = if n < 1 then 1 else n * fac (n - 1)
    n = Var("n")
    recurse = App(Var(name), PrimOp("-", (n, IntLit(1))))
    return FunDef(name, PVar("n"),
                  If(PrimOp("<", (n, IntLit(1))), IntLit(1), PrimOp("*", (n, recurse))))


@pytest.mark.parametrize("main, groups, expected", [
    # let fun fac n = ... in fac 10 end
    (Let(((fac("fac"),),), App(Var("fac"), IntLit(10))), [],
     [("main/let0", "'fun' inside a 'let'"),
      ("main/let-body/app-fn", "unbound variable 'fac'")]),
    # let val x = 1 fun g _ = x val x = 2 in g () + 10 * x end: g would
    # read the x it was declared after
    (Let((Val(PVar("x"), IntLit(1)), (FunDef("g", PWild(), Var("x")),),
          Val(PVar("x"), IntLit(2))),
         add(App(Var("g"), Tuple(())), PrimOp("*", (IntLit(10), Var("x"))))), [],
     [("main/let1", "'fun' inside a 'let'"),
      ("main/let-body/+.0/app-fn", "unbound variable 'g'")]),
    # let fun f x = x + 1 in f 3 end, shadowing a top-level f
    (Let(((INC,),), App(Var("f"), IntLit(3))), [(fac("f"),)],
     [("main/let0", "'fun' inside a 'let'")]),
    # fun outer n = let fun inner m = if m < 1 then n else inner (m - 1)
    # in inner 3 end: inner would read outer's n as a free variable
    (App(Var("outer"), IntLit(7)),
     [(FunDef("outer", PVar("n"), Let(((FunDef("inner", PVar("m"), If(
         PrimOp("<", (Var("m"), IntLit(1))), Var("n"),
         App(Var("inner"), PrimOp("-", (Var("m"), IntLit(1)))))),),),
         App(Var("inner"), IntLit(3)))),)],
     [("group0/fun outer/let0", "'fun' inside a 'let'"),
      ("group0/fun outer/let-body/app-fn", "unbound variable 'inner'")]),
], ids=["recursive", "reads-a-val", "shadows-a-top-level-fun", "reads-a-parameter"])
def test_a_fun_inside_a_let_is_rejected(main, groups, expected):
    # every function of the core fragment is top-level, and the evaluator
    # has one activation level to run them in
    assert violations(main, groups) == expected
    with pytest.raises(AssertionError):
        eval_program(MlProgram([], groups, main))


RULE = "a 'case' rule other than a constructor pattern"
SOME1 = Con("SOME", (IntLit(1),))


@pytest.mark.parametrize("main, groups, expected", [
    # case SOME 1 of x => 0
    (Case(SOME1, ((PVar("x"), IntLit(0)),)), [], [("main/case-rule0-pat", RULE)]),
    # case SOME 1 of SOME x => x | _ => 0
    (Case(SOME1, ((PCon("SOME", (PVar("x"),)), Var("x")), (PWild(), IntLit(0)))), [],
     [("main/case-rule1-pat", RULE)]),
    # case (1, 2) of (a, b) => a
    (Case(Tuple((IntLit(1), IntLit(2))), ((PTuple((PVar("a"), PVar("b"))), Var("a")),)), [],
     [("main/case-rule0-pat", RULE)]),
    # case SOME 1 of SOME x => x | SOME _ => 0
    (Case(SOME1, ((PCon("SOME", (PVar("x"),)), Var("x")), (PCon("SOME", (PWild(),)), IntLit(0)))),
     [], [("main/case-rule1-pat", "a second rule for constructor 'SOME'")]),
    # case true of true => 1 | false => 0
    (Case(Con("true"), ((PCon("true"), IntLit(1)), (PCon("false"), IntLit(0)))), [],
     [("main/case-rule0-pat", "a 'true' rule beside other rules"),
      ("main/case-rule1-pat", "a 'false' rule beside other rules")]),
    # case NONE of NONE => 1 | false => 0
    (Case(Con("NONE"), ((PCon("NONE"), IntLit(1)), (PCon("false"), IntLit(0)))), [],
     [("main/case-rule1-pat", "a 'false' rule beside other rules")]),
    # case SOME (SOME 1) of SOME (SOME x) => x
    (Case(Con("SOME", (SOME1,)), ((PCon("SOME", (PCon("SOME", (PVar("x"),)),)), IntLit(0)),)),
     [], [("main/case-rule0-pat.0",
           "a constructor pattern item other than a variable or a wildcard")]),
    # let val SOME x = SOME 1 in 0 end
    (Let((Val(PCon("SOME", (PVar("x"),)), SOME1),), IntLit(0)), [], [("main/let0-pat", OUTSIDE)]),
    # fun f (n, SOME _) = n; f (1, NONE)
    (App(Var("f"), Tuple((IntLit(1), Con("NONE")))),
     [(FunDef("f", PTuple((PVar("n"), PCon("SOME", (PWild(),)))), Var("n")),)],
     [("group0/fun f/param.1", OUTSIDE)]),
    # let val ((a, (b, c)), d) = ((1, (2, 3)), 4) in a end
    (Let((Val(PTuple((PTuple((PVar("a"), PTuple((PVar("b"), PVar("c"))))), PVar("d"))),
              Tuple((Tuple((IntLit(1), Tuple((IntLit(2), IntLit(3))))), IntLit(4)))),),
         Var("a")), [],
     [("main/let0-pat.0.1", "a tuple pattern inside a tuple item")]),
], ids=["variable-rule", "wildcard-rule", "tuple-rule", "duplicate-constructors",
        "two-bool-rules", "bool-beside-constructor", "nested-constructor",
        "constructor-in-val", "constructor-in-parameter", "tuple-in-tuple-item"])
def test_a_case_or_pattern_the_translation_never_emits_is_rejected(main, groups, expected):
    # a `case` has one `true` or `false` rule or one rule for each of some
    # distinct constructors, with variables and wildcards for items; a
    # `val` pattern or a parameter has tuples one level deep at most
    assert violations(main, groups, [OPTION]) == expected
    with pytest.raises(AssertionError):
        eval_program(MlProgram([OPTION], groups, main))


# datatype twice = NONE: NONE is also OPTION's
TWICE = DataType("twice", (DataCon("NONE", TY_UNIT),))


@pytest.mark.parametrize("main, datatypes, expected", [
    # let val (x, x) = (1, 2) in x end
    (Let((Val(PTuple((PVar("x"), PVar("x"))), Tuple((IntLit(1), IntLit(2)))),), Var("x")), [],
     [("main/let0-pat.1", "duplicate variable 'x' in pattern")]),
    # a `val` whose pattern is an expression
    (Let((Val(Var("x"), IntLit(1)),), IntLit(0)), [], [("main/let0-pat", "not a core pattern: Var")]),
    # case SOME 1 of NADA => 0
    (Case(SOME1, ((PCon("NADA"), IntLit(0)),)), [OPTION],
     [("main/case-rule0-pat", "unknown constructor 'NADA' in pattern")]),
    # (1)
    (Tuple((IntLit(1),)), [], [("main", "1-element tuple")]),
    # NADA
    (Con("NADA"), [], [("main", "unknown constructor 'NADA'")]),
    # SOME applied to nothing
    (Con("SOME"), [OPTION], [("main", "constructor 'SOME' takes 1 argument(s), got 0")]),
    # 1 ^ 2
    (PrimOp("^", (IntLit(1), IntLit(2))), [], [("main", "unknown primitive '^'")]),
    # + applied to one operand
    (PrimOp("+", (IntLit(1),)), [], [("main", "primitive '+' takes 2 argument(s), got 1")]),
    # case SOME 1 of (no rules)
    (Case(SOME1, ()), [OPTION], [("main", "case with no rules")]),
    # a function declaration where the entry expression goes
    (INC, [], [("main", "not a core expression: FunDef")]),
    # NONE declared by two datatypes
    (IntLit(0), [OPTION, TWICE], [("datatype twice", "constructor 'NONE' declared twice")]),
], ids=["duplicate-pattern-variable", "non-core-pattern", "unknown-pattern-constructor",
        "one-tuple", "unknown-constructor", "constructor-arity", "unknown-primitive",
        "primitive-arity", "case-without-rules", "non-core-expression", "constructor-twice"])
def test_each_name_arity_and_node_rule_is_enforced(main, datatypes, expected):
    # the checks on names, arities and node kinds that no translation
    # trips; an ML type checker replacing `validate_core` must keep them
    assert violations(main, datatypes=datatypes) == expected


def test_nodes_compare_by_type_as_well_as_fields():
    assert Var("x") == Var("x") and Var("x") != PVar("x")
    assert TyName("a") == TyName("a") and TyName("a") != TyVar("a")
    assert Con("Lf") != PCon("Lf") and Tuple(()) != PTuple(())
    assert Tuple((Var("x"), IntLit(1))) == Tuple((Var("x"), IntLit(1)))
    assert Tuple((Var("x"), IntLit(1))) != Tuple((Var("x"), IntLit(2)))


def test_equal_nodes_hash_equal_and_key_dicts():
    built = [Var("x"), Tuple((Var("x"), IntLit(1))), Con("Nd", (IntLit(0), Con("Lf"))),
             Let((Val(PVar("y"), PrimOp("+", (Var("x"), IntLit(1)))),), Var("y")),
             TyApp("tree", TyVar("a"))]
    again = [Var("x"), Tuple((Var("x"), IntLit(1))), Con("Nd", (IntLit(0), Con("Lf"))),
             Let((Val(PVar("y"), PrimOp("+", (Var("x"), IntLit(1)))),), Var("y")),
             TyApp("tree", TyVar("a"))]
    assert [hash(a) for a in built] == [hash(b) for b in again]
    table = {node: i for i, node in enumerate(built)}
    table[PVar("x")] = "pattern"
    assert [table[node] for node in again] == list(range(len(built)))
    assert table[PVar("x")] == "pattern" and len(table) == len(built) + 1
    assert {Var("x"), Var("x"), PVar("x")} == {Var("x"), PVar("x")}


def test_translating_changes_no_shared_node(corpus_files):
    # translations share the store's helpers and constants, so building
    # one must leave every node it did not build as it was
    shared = (prelude(), EMPTY_STATE, NULL_VALUE)
    before = copy.deepcopy(shared)
    for path in corpus_files:
        translate(parse_source(path.read_text()))
    for seed in range(40):
        translate(generate_program(seed, 40))
    assert shared == before
    assert prelude() == prelude.__wrapped__()
