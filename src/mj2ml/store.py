"""The store: how a translated program's heap and arrays are encoded.

A translated program threads a heap value through the code that
touches it instead of using mutable state (see `translate`).  A state
is a pair
``(next pointer, heap)``; allocation hands out pointers 0, 1, 2, ...
The heap, and each array's elements, is a Braun tree used as a flexible
array (Okasaki, *Purely Functional Data Structures*, 1998, 10.1.2; Braun
and Rem, 1983): index 0 is the root, index 2j+1 is index j of the left
subtree and 2j+2 index j of the right.  Reading or writing an index, or
consing a new index 0 onto the front, takes O(log n) steps.  Allocation
conses, so pointer k is at index n-1-k of an n-cell heap and the newest
object, the likeliest to be used next, is the root.  An array is
``HArr (length, elements)``, element i at index i; ``a.length`` is O(1)
and ``new int[n]`` builds by halving, O(log^2 n).  Null, pointer -1, is
index n, and like any array index outside 0 .. length-1 its walk ends in
an empty subtree, where the helpers have no rule: a MatchFailure fault.
An array or object that cannot escape (see `translate`) is its `HArr`
or `HObj_<C>` value itself, threaded by its methods, and never a cell.
Before its first assignment a local that holds one is `HNull`
(`NULL_VALUE`), the null of values, which no array access or call
matches: a MatchFailure fault too.  `heapval` declares `HNull` only for
a program that binds it.  A program whose arrays and objects all stay
values leaves the heap empty: its emitted code names no state, and
declares and applies none of `lookup`, `update` and `alloc`.

This module is the only one that knows that encoding.  It holds the
store's types (the `heapval` and `tree` datatypes), the `prelude` of
helpers, of which each program starts with the shortest prefix that
defines every helper it applies (`prelude_for`), the test of whether a
program leads with those helpers themselves (`shared_helpers`), by
which `mleval` compiles and `mlprint` prints them once, the Python
version of its four
tree helpers (`natives`), which `mleval` runs in their place, and a builder
for the ML expression of each store operation the translation emits: `lookup`,
`update` and `alloc` of a state, `zeros` and `new_array` for a new
array's value (which `alloc` allocates unless the array is a value),
the single-rule `case`s that read an array's length (`array_length`) or
an element (`array_get`) or write one (`array_set`), and `null_check`,
the guard of a call on a pointer that may be null.  A builder whose pattern names
a part of the array takes the caller's supply of fresh names.
`heap_cells` and `alloc_order` read a final state back: `mleval` holds a
datatype value as a list `[name, *items]`, and `heap_cells` gives each
cell with its datatype values as `VCon` records.

The tree helpers `mj_get`, `mj_set`, `mj_cons` and `mj_zeros` run in
`mleval` as their Python versions, each a loop in one Python frame that
counts the node visits its ML makes, level by level, and charges them at
once.  A pending helper call holds no frame per level of a tree, so of a
translated program's calls only method recursion comes near the Python
frame limit of a run (`outcome.RECURSION_LIMIT`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cache

from .mlast import (
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
    MlExpr,
    PCon,
    PrimOp,
    PTuple,
    PVar,
    PWild,
    Tuple,
    TyApp,
    TyTuple,
    TyVar,
    Val,
    Var,
)

# datatype 'a tree = Lf | Nd of 'a * 'a tree * 'a tree
TREE = DataType("tree", (DataCon("Lf", TY_UNIT),
                         DataCon("Nd", TyTuple((TyVar("a"), TyApp("tree", TyVar("a")),
                                                TyApp("tree", TyVar("a")))))),
                params=("a",))
EMPTY = Con("Lf")

NULL_PTR = -1

# The value of a value array or object local before its first assignment:
# no array access or call has a rule for it, so each is a match failure.
NULL_VALUE = Con("HNull")

# The state before the first allocation.
EMPTY_STATE = Tuple((IntLit(0), EMPTY))


def datatypes(objects: list[DataCon], binds_null: bool) -> list[DataType]:
    """The store's datatypes: `heapval`, whose values are the heap's
    cells, an array `HArr (length, elements)` or one of the `objects`
    constructors, and `NULL_VALUE` when `binds_null` (the program binds
    it), and then the tree."""
    array = DataCon("HArr", TyTuple((TY_INT, TyApp("tree", TY_INT))))
    null = [DataCon(NULL_VALUE.name, TY_UNIT)] if binds_null else []
    return [DataType("heapval", (array, *null, *objects)), TREE]


def null_check(ptr: MlExpr, body: MlExpr) -> MlExpr:
    """body, or a match failure when ptr is null."""
    return Case(PrimOp("<", (ptr, IntLit(0))), ((PCon("false"), body),))


def _call(name: str, *args: MlExpr) -> MlExpr:
    """name applied to the tuple of the arguments, a single one bare."""
    return App(Var(name), args[0] if len(args) == 1 else Tuple(args))


# -- the store operations of translated code ---------------------------------


def lookup(state: MlExpr, ptr: MlExpr) -> MlExpr:
    """The heap value at ptr in state."""
    return _call("mj_lookup", state, ptr)


def update(state: MlExpr, ptr: MlExpr, value: MlExpr) -> MlExpr:
    """state with value at ptr."""
    return _call("mj_update", state, ptr, value)


def alloc(state: MlExpr, value: MlExpr) -> MlExpr:
    """The (state, pointer) pair of state with value at a new pointer."""
    return _call("mj_alloc", state, value)


def zeros(length: MlExpr) -> MlExpr:
    """The elements of a new array of length zeros."""
    return _call("mj_zeros", length)


def new_array(length: MlExpr, elements: MlExpr) -> MlExpr:
    """The array value of length elements."""
    return Con("HArr", (length, elements))


def _array_case(value: MlExpr, length: PVar | PWild, elements: PVar | PWild,
                rhs: MlExpr) -> MlExpr:
    """rhs of the parts of the array value: one rule, which every array
    but `NULL_VALUE` matches."""
    return Case(value, ((PCon("HArr", (length, elements)), rhs),))


def array_length(value: MlExpr, fresh) -> MlExpr:
    """The length of the array value; `fresh()` names its part."""
    n = fresh()
    return _array_case(value, PVar(n), PWild(), Var(n))


def array_get(value: MlExpr, index: MlExpr, fresh) -> MlExpr:
    """The element at index of the array value."""
    t = fresh()
    return _array_case(value, PWild(), PVar(t), _call("mj_get", Var(t), index))


def array_set(value: MlExpr, index: MlExpr, item: MlExpr, fresh) -> MlExpr:
    """The array value with item at index."""
    n, t = fresh(), fresh()
    return _array_case(value, PVar(n), PVar(t),
                       Con("HArr", (Var(n), _call("mj_set", Var(t), index, item))))


# -- the prelude --------------------------------------------------------------


def _nd(*items: MlExpr) -> MlExpr:
    return Con("Nd", items)


def _braun_step(i: MlExpr, at_root: MlExpr, left, right) -> MlExpr:
    """One step of a walk down a Braun tree `Nd (x, l, r)` towards
    index i: index 0 is the node itself (`at_root`), an odd i is index
    i div 2 of the left subtree and an even one index i div 2 - 1 of the
    right; `left` and `right` take that index."""
    half = PrimOp("div", (i, IntLit(2)))
    return If(PrimOp("=", (i, IntLit(0))), at_root,
              If(PrimOp("=", (PrimOp("mod", (i, IntLit(2))), IntLit(1))),
                 left(half), right(PrimOp("-", (half, IntLit(1))))))


@cache
def prelude() -> tuple[FunDef, ...]:
    """The fixed runtime: the store as a Braun tree, one for the heap and
    one for each array's elements, whose length `HArr` stores beside
    them.  Built once; every translation shares its nodes.

    mj_get and mj_set deliberately have no `Lf` case: an index outside
    the tree (null, or an array index below 0 or from the length on)
    walks into an empty subtree, which is a match failure, the translated
    program's fault channel.  mj_zeros has no rule for a negative size,
    so `new int[n]` with n < 0 fails the same way.
    """
    t, i, w, x, l, r, v = map(Var, "tiwxlrv")
    node = PCon("Nd", (PVar("x"), PVar("l"), PVar("r")))
    get = FunDef(
        "mj_get", PTuple((PVar("t"), PVar("i"))),
        Case(t, ((node, _braun_step(i, x, lambda j: _call("mj_get", l, j),
                                    lambda j: _call("mj_get", r, j))),)))
    set_ = FunDef(
        "mj_set", PTuple((PVar("t"), PVar("i"), PVar("w"))),
        Case(t, ((node, _braun_step(i, _nd(w, l, r),
                                    lambda j: _nd(x, _call("mj_set", l, j, w), r),
                                    lambda j: _nd(x, l, _call("mj_set", r, j, w)))),)))
    # the new element becomes index 0, and index j of the old tree j + 1
    cons = FunDef(
        "mj_cons", PTuple((PVar("x"), PVar("t"))),
        Case(t, ((PCon("Lf"), _nd(x, EMPTY, EMPTY)),
                 (PCon("Nd", (PVar("v"), PVar("l"), PVar("r"))),
                  _nd(x, _call("mj_cons", v, r), l)))))
    # n zeros: one tree of (n - 1) div 2 on both sides, one more consed left
    # if n is even; a negative n has no rule, like an index outside the tree
    n, zero = Var("n"), IntLit(0)
    half = _call("mj_zeros", PrimOp("div", (PrimOp("-", (n, IntLit(1))), IntLit(2))))
    zeros_ = FunDef("mj_zeros", PVar("n"), If(
        PrimOp("<", (n, IntLit(1))), Case(PrimOp("<", (n, zero)), ((PCon("false"), EMPTY),)),
        Let((Val(PVar("t"), half),),
            If(PrimOp("=", (PrimOp("mod", (n, IntLit(2))), IntLit(1))),
               _nd(zero, t, t), _nd(zero, _call("mj_cons", zero, t), t)))))
    # pointer k is index n - 1 - k of the heap, so the newest cell is its root
    state = PTuple((PVar("n"), PVar("h")))
    slot = PrimOp("-", (PrimOp("-", (Var("n"), IntLit(1))), Var("k")))
    lookup_ = FunDef(
        "mj_lookup", PTuple((state, PVar("k"))),
        _call("mj_get", Var("h"), slot))
    update_ = FunDef(
        "mj_update", PTuple((state, PVar("k"), PVar("w"))),
        Tuple((Var("n"), _call("mj_set", Var("h"), slot, w))))
    alloc_ = FunDef(
        "mj_alloc", PTuple((state, PVar("w"))),
        Tuple((Tuple((PrimOp("+", (Var("n"), IntLit(1))), _call("mj_cons", w, Var("h")))),
               Var("n"))))
    return (get, set_, cons, zeros_, lookup_, update_, alloc_)


# The helper each store builder's expression applies.
_APPLIES = {array_get: "mj_get", array_set: "mj_set", zeros: "mj_zeros",
            lookup: "mj_lookup", update: "mj_update", alloc: "mj_alloc"}


def prelude_for(builders: Iterable[Callable[..., MlExpr]]) -> tuple[FunDef, ...]:
    """The shortest prefix of `prelude()` that defines every helper that
    the expressions of `builders`, store builders, apply: none for none
    of them, the four tree helpers for arrays that are values.  A helper
    applies only helpers before it, so the prefix defines those too."""
    helpers = prelude()
    names = [fd.name for fd in helpers]
    return helpers[:max((names.index(_APPLIES[b]) + 1 for b in builders if b in _APPLIES),
                        default=0)]


def shared_helpers(groups: list[tuple[FunDef, ...]]) -> int:
    """How many of `prelude()`'s helpers lead `groups`: the largest k such
    that groups 0..k-1 are helpers 0..k-1 themselves, the same objects,
    each a group of its own.  Every translation leads with the prefix
    that `prelude_for` gives.
    `mleval` runs those k as it made them once, and `mlprint` copies the
    text it printed them as once; an equal copy of a helper, or a helper
    grouped with another function, is not one of them."""
    count = 0
    for funs, fd in zip(groups, prelude()):
        if len(funs) != 1 or funs[0] is not fd:
            break
        count += 1
    return count


# -- the tree helpers in Python -----------------------------------------------
#
# Each takes a helper's arguments as `mleval` holds them (a tree is
# `["Lf"]` or `["Nd", x, l, r]`) and returns its value and the node visits
# that the helper's body in `prelude()` makes, or `STUCK` and the visits
# made up to the `case` that no rule matches.  The counts per level are
# those of the compiled ML: its `case` on the tree 2, then `i = 0` 4, and
# so on.  The arguments are as the ML's types say they are.

# The value of a helper stuck at a `case`.
STUCK = object()

_LEAF = ["Lf"]


def _get(t: list, i: int) -> tuple[object, int]:
    """mj_get: index 0 costs 7, a step left 19 and a step right 21."""
    steps = 0
    while len(t) == 4:
        if i == 0:
            return t[1], steps + 7
        if i % 2 == 1:
            t, i, steps = t[2], i // 2, steps + 19
        else:
            t, i, steps = t[3], i // 2 - 1, steps + 21
    return STUCK, steps + 2


def _set(t: list, i: int, w: object) -> tuple[object, int]:
    """mj_set: index 0 costs 10, a step left 22 and 1 more once the inner
    call returns, and a step right 25."""
    path, steps = [], 0
    while len(t) == 4:
        if i == 0:
            t = ["Nd", w, t[2], t[3]]
            break
        if i % 2 == 1:
            path.append((t, True))
            t, i, steps = t[2], i // 2, steps + 22
        else:
            path.append((t, False))
            t, i, steps = t[3], i // 2 - 1, steps + 25
    else:
        return STUCK, steps + 2
    for node, left in reversed(path):
        if left:
            t, steps = ["Nd", node[1], t, node[3]], steps + 1
        else:
            t = ["Nd", node[1], node[2], t]
    return t, steps + 10


def _cons(x: object, t: list) -> tuple[list, int]:
    """mj_cons: `Lf` costs 6, and each `Nd` 9 and 1 more once the inner
    call returns."""
    path = []
    while len(t) == 4:
        path.append((x, t[2]))
        x, t = t[1], t[3]
    t = ["Nd", x, _LEAF, _LEAF]
    for x, left in reversed(path):
        t = ["Nd", x, t, left]
    return t, 10 * len(path) + 6


def _zeros(n: int) -> tuple[object, int]:
    """mj_zeros: a negative n is stuck after 8 and 0 costs 9; any other
    n costs 12, then the call on (n - 1) div 2, then 6, then 4 if n is
    odd, or 7, a cons and 1 if it is even.  Both sides of a node share
    one tree, so n zeros take O(log^2 n) work."""
    if n < 0:
        return STUCK, 8
    sizes = []
    while n > 0:
        sizes.append(n)
        n = (n - 1) // 2
    t, steps = _LEAF, 9
    for n in reversed(sizes):
        if n % 2 == 1:
            t, steps = ["Nd", 0, t, t], steps + 22
        else:
            left, cost = _cons(0, t)
            t, steps = ["Nd", 0, left, t], steps + 26 + cost
    return t, steps


def natives() -> dict[str, object]:
    """The Python version of each tree helper, by its name in `prelude()`;
    `mj_lookup`, `mj_update` and `mj_alloc` have none."""
    return {"mj_get": _get, "mj_set": _set, "mj_cons": _cons, "mj_zeros": _zeros}


# -- reading a final state back ----------------------------------------------


@dataclass(slots=True)
class VCon:
    """A datatype value read back from a run: its constructor's name and
    its items."""
    name: str
    args: tuple = ()


def _record(value: object) -> object:
    """A run's value with each datatype value, a list `[name, *items]`
    (see `mleval`), as a `VCon`."""
    if type(value) is list:
        return VCon(value[0], tuple(_record(x) for x in value[1:]))
    if type(value) is tuple:
        return tuple(_record(x) for x in value)
    return value


def _tree_items(tree: list) -> list:
    """The items of a Braun tree value in index order: the root, then the
    left and right subtrees' items interleaved (indices 2j+1 and 2j+2)."""
    if len(tree) == 1:
        return []
    _, x, left, right = tree
    left, right = _tree_items(left), _tree_items(right)
    items = [x] * (1 + len(left) + len(right))
    items[1::2], items[2::2] = left, right
    return items


def heap_cells(state_value: object) -> list[tuple[int, object]]:
    """The (pointer, value) cells of a final (counter, heap) state value,
    in allocation order, each value with its datatype values as `VCon`s.

    The heap holds pointer k at index n - 1 - k of its Braun tree, n the
    counter, so the newest cell is the root.
    """
    assert type(state_value) is tuple and len(state_value) == 2
    n, heap = state_value
    items = _tree_items(heap)
    return [(n - 1 - i, _record(items[i])) for i in reversed(range(len(items)))]


def alloc_order(state_value: object) -> list[int]:
    """Pointers in allocation order, read off a final (counter, heap) state."""
    assert type(state_value) is tuple and len(state_value) == 2
    n, heap = state_value
    return list(range(n - len(_tree_items(heap)), n))
