"""The store module: the prelude's helpers run through the core ML
evaluator, natively and compiled, the decoding of a final state, and
the module's sole ownership of the encoding."""

import re
from dataclasses import replace
from pathlib import Path

import mj2ml
from mj2ml.mlast import (App, Con, FunDef, IntLit, Let, MlProgram, PrimOp, PTuple, PVar,
                         PWild, Tuple, Val, Var)
from mj2ml.mleval import eval_program
from mj2ml.outcome import FaultKind
from mj2ml.store import (EMPTY_STATE, _tree_items, alloc, alloc_order, array_get, array_length,
                         array_set, heap_cells, lookup, natives, new_array, null_check, prelude,
                         prelude_for, shared_helpers, update, zeros as zeros_of)

LEAF = ["Lf"]


def run_prelude(main):
    program = MlProgram((), tuple((f,) for f in prelude()), main)
    return eval_program(program, fuel=10_000_000)


def zeros(n):
    return App(Var("mj_zeros"), IntLit(n))


def test_null_fails_to_match_in_mj_lookup_and_mj_update():
    # null is pointer -1, index n of an n-cell heap: the walk of index = length
    heap = Tuple((IntLit(3), zeros(3)))
    null = IntLit(-1)
    lookup = run_prelude(App(Var("mj_lookup"), Tuple((heap, null))))[0]
    update = run_prelude(App(Var("mj_update"), Tuple((heap, null, IntLit(7)))))[0]
    assert lookup.fault == update.fault == FaultKind.MATCH_FAILURE
    assert run_prelude(App(Var("mj_lookup"), Tuple((heap, IntLit(2)))))[0].ok


def test_store_helpers_read_back_what_they_wrote():
    # every index of trees of 0..9 elements, through mj_set and mj_get,
    # with the written tree's items counted
    for n in range(10):
        for i in range(n):
            main = Let((Val(PVar("t"), App(Var("mj_set"), Tuple((zeros(n), IntLit(i),
                                                                 IntLit(5))))),),
                       Tuple((App(Var("mj_get"), Tuple((Var("t"), IntLit(i)))), Var("t"))))
            out, val = run_prelude(main)
            assert out.ok and (val[0], len(_tree_items(val[1]))) == (5, n), (n, i)


def test_mj_zeros_reads_zero_below_its_size_and_fails_to_match_at_it():
    for n in range(65):
        main = Let((Val(PVar("t"), zeros(n)),),
                   Tuple(tuple(App(Var("mj_get"), Tuple((Var("t"), IntLit(i))))
                               for i in range(n)) + (Var("t"),)))
        out, val = run_prelude(main)
        assert out.ok and val[:-1] == (0,) * n and _tree_items(val[-1]) == [0] * n, n
        past = run_prelude(App(Var("mj_get"), Tuple((zeros(n), IntLit(n)))))[0]
        assert past.fault == FaultKind.MATCH_FAILURE, n


def cons(x, tree):
    # mj_cons: x becomes index 0 and index j of `tree` index j + 1
    if tree == LEAF:
        return ["Nd", x, LEAF, LEAF]
    _, v, left, right = tree
    return ["Nd", x, cons(v, right), left]


def test_alloc_order_reads_the_braun_heap_from_its_newest_cell():
    # pointer k sits at index n - 1 - k, so the cell allocated last is the root
    heap = LEAF
    for k in range(6):
        heap = cons(k * 10, heap)
    assert heap[1] == 50
    assert heap_cells((6, heap)) == [(k, k * 10) for k in range(6)]
    assert alloc_order((6, heap)) == [0, 1, 2, 3, 4, 5]




def test_a_state_decodes_to_what_was_allocated():
    # k allocations from the empty state, value 10 p at pointer p
    for k in range(65):
        allocs = tuple(Val(PTuple((PVar(f"s{p + 1}"), PWild())),
                           alloc(Var(f"s{p}"), IntLit(10 * p))) for p in range(k))
        out, state = run_prelude(Let((Val(PVar("s0"), EMPTY_STATE), *allocs), Var(f"s{k}")))
        assert out.ok and heap_cells(state) == [(p, 10 * p) for p in range(k)], k
        assert alloc_order(state) == list(range(k)), k


# The prelude's helpers, each a group of one: the shared objects, whose
# tree helpers run natively, and copies, which the evaluator compiles for
# each run as it compiles any function.
SHARED = tuple((f,) for f in prelude())
COPIES = {f.name: (replace(f),) for f in prelude()}


def test_shared_helpers_counts_the_helpers_themselves_that_lead():
    copies = [COPIES[f.name] for f in prelude()]
    assert shared_helpers(SHARED) == len(SHARED)
    assert shared_helpers([*SHARED, *copies]) == len(SHARED)
    assert shared_helpers(copies) == 0 and shared_helpers([]) == 0
    assert shared_helpers([*SHARED[:3], copies[3], *SHARED[4:]]) == 3
    assert shared_helpers([*SHARED[:2], *SHARED[3:]]) == 2
    # a helper in a group with another function is not one of them
    assert shared_helpers([SHARED[0], SHARED[1] + SHARED[2], *SHARED[3:]]) == 1


def test_a_program_starts_with_the_shortest_prefix_defining_the_helpers_it_applies():
    helpers = prelude()
    for builders, k in (([], 0), ([array_length, new_array, null_check], 0), ([array_get], 1),
                        ([array_set, array_get], 2), ([zeros_of], 4), ([array_get, zeros_of], 4),
                        ([lookup], 5), ([update, array_get], 6), ([alloc], 7),
                        ([array_length, alloc, lookup], 7)):
        prefix = prelude_for(builders)
        assert len(prefix) == k and all(a is b for a, b in zip(prefix, helpers))
    # a helper applies only itself and helpers before it, so each prefix
    # defines every helper its own helpers apply
    names = [f.name for f in helpers]
    for i, f in enumerate(helpers):
        called = {node.func.name for node in walk_apps(f.body)}
        assert all(names.index(name) <= i for name in called), f.name


def walk_apps(node):
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, App):
            yield node
        if isinstance(node, tuple):
            stack.extend(node)
        elif hasattr(node, "__dataclass_fields__"):
            stack.extend(getattr(node, name) for name in node.__dataclass_fields__)


def literal(tree):
    """The ML expression of a tree value."""
    if tree == LEAF:
        return Con("Lf")
    _, x, left, right = tree
    return Con("Nd", (IntLit(x), literal(left), literal(right)))


def shape(value, numbers: dict, seen: dict) -> object:
    """value with each datatype value numbered by its structure, in
    time linear in its distinct subtrees: a tree of 2^40 zeros shares
    them, and `==` would walk every path."""
    if type(value) is not list:
        return value
    if id(value) not in seen:
        key = (value[0], *(shape(x, numbers, seen) for x in value[1:]))
        seen[id(value)] = numbers.setdefault(key, len(numbers))
    return seen[id(value)]


def assert_runs_alike(main, helpers, every_fuel, funs=()):
    """main gives the same value, fault and steps with the native
    helpers as with copies of the named ones, `funs` declared after
    them: at full fuel and one unit short, or, `every_fuel`, at each
    fuel from 0 to its steps + 1.  Returns the full run's fault."""
    copies = tuple(COPIES[name] for name in helpers)
    numbers: dict = {}

    def run(groups, fuel):
        out, value = eval_program(MlProgram((), (*groups, *funs), main), fuel)
        return shape(value, numbers, {}), out.fault, out.steps

    full = run(copies, 10_000_000)
    assert run(SHARED, 10_000_000) == full, main
    for fuel in range(full[2] + 2) if every_fuel else (full[2] - 1,):
        assert run(SHARED, fuel) == run(copies, fuel), (main, fuel)
    return full[1]


def test_the_native_tree_helpers_charge_what_their_ml_visits():
    # mj_zeros below, at and above 0; mj_get and mj_set at every index of
    # trees of zeros and of distinct values, and 3 past each end; mj_cons
    # onto each tree: at every fuel on trees of up to 4 items, the rest
    # at full fuel and one unit short
    native = natives()
    for n in range(-3, 41):
        small = n <= 4
        assert_runs_alike(App(Var("mj_zeros"), IntLit(n)), ("mj_cons", "mj_zeros"), small)
        if n < 0:
            continue
        filled = blank = native["mj_zeros"](n)[0]
        for i in range(n):
            filled = native["mj_set"](filled, i, 100 + i)[0]
        assert _tree_items(filled) == list(range(100, 100 + n))
        for tree in (blank, filled):
            t = literal(tree)
            for i in range(-3, n + 4):
                assert_runs_alike(App(Var("mj_get"), Tuple((t, IntLit(i)))), ("mj_get",), small)
                assert_runs_alike(App(Var("mj_set"), Tuple((t, IntLit(i), IntLit(7)))),
                                  ("mj_set",), small)
            assert_runs_alike(App(Var("mj_cons"), Tuple((IntLit(7), t))), ("mj_cons",), small)
    # 2^40 zeros share their subtrees: read and written near both ends
    big = 2 ** 40
    make = ("mj_cons", "mj_zeros")
    assert_runs_alike(App(Var("mj_zeros"), IntLit(big)), make, False)
    for i in (*range(-3, 4), *range(big - 4, big + 4)):
        for helper, item in (("mj_get", ()), ("mj_set", (IntLit(7),))):
            read = App(Var(helper), Tuple((Var("t"), IntLit(i), *item)))
            assert_runs_alike(Let((Val(PVar("t"), App(Var("mj_zeros"), IntLit(big))),), read),
                              (*make, helper), False)


def test_a_native_helper_runs_alike_from_every_position_of_its_call():
    # each helper applied in a `fun` body's tail, as a `val`'s right-hand
    # side and as an operand, to literal items and to an item that makes
    # its own visit, at every fuel on trees of up to 4 items
    native = natives()
    for n in range(5):
        tree = literal(native["mj_zeros"](n)[0])
        for i in range(-1, n + 1):
            for index in (IntLit(i), PrimOp("+", (IntLit(i), IntLit(0)))):
                for helper, args, needs in (
                        ("mj_get", (tree, index), ("mj_get",)),
                        ("mj_set", (tree, index, IntLit(7)), ("mj_set",)),
                        ("mj_cons", (IntLit(7), tree), ("mj_cons",)),
                        ("mj_zeros", (index,), ("mj_cons", "mj_zeros"))):
                    apply = App(Var(helper), args[0] if len(args) == 1 else Tuple(args))
                    tail = FunDef("w", PVar("u"), apply)
                    for main, funs in (
                            (App(Var("w"), IntLit(0)), ((tail,),)),
                            (Let((Val(PVar("v"), apply),), Var("v")), ()),
                            (Tuple((apply, IntLit(0))), ())):
                        assert_runs_alike(main, needs, True, funs)


def test_an_argument_that_is_not_a_tuple_of_the_helpers_arity_fails_to_match():
    # such an application takes the general path: its parameter's
    # pattern does not match, and a variable bound to the right tuple does
    tree = literal(["Nd", 1, LEAF, LEAF])
    for helper, args in (("mj_get", (tree, IntLit(0))),
                         ("mj_set", (tree, IntLit(0), IntLit(7))),
                         ("mj_cons", (IntLit(7), tree))):
        wrong = App(Var(helper), Tuple((*args, IntLit(0))))
        assert assert_runs_alike(wrong, (helper,), True) == FaultKind.MATCH_FAILURE
        bound = Let((Val(PVar("p"), Tuple(args)),), App(Var(helper), Var("p")))
        assert assert_runs_alike(bound, (helper,), True) is None


# The store's constructors and the prelude's helpers, which only store.py
# may name.
ENCODING = re.compile(r"\b(HArr|HNull|Lf|Nd|Braun|mj_(get|set|cons|zeros|lookup|update|alloc))\b")


def test_only_the_store_module_knows_the_encoding():
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(Path(mj2ml.__file__).parent.glob("*.py"))
             if path.name != "store.py"
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if ENCODING.search(line)]
    assert found == [], "\n".join(found)
