"""The store: how a translated program's heap and arrays are encoded.

A translated program threads a heap value through every computation
instead of using mutable state (see `translate`).  A state is a pair
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
An unshared local array, one that cannot escape its method (see
`translate`), is such an `HArr` value threaded by the method like an
`int`, and never a cell; every other array is a heap cell.  Before its
first assignment such a local is `ANull` (`NULL_ARRAY`), the array
null, which no array access matches: a MatchFailure fault too.  So with
an object that cannot escape: it is its `HObj_<C>` value, threaded by
its methods, and never a cell, and before its first assignment a local
that holds one is `ONull` (`NULL_OBJECT`), on which no call's match has
a rule.  `heapval` declares `ANull` and `ONull` only for a program that
binds them.  A program whose arrays and objects all stay values leaves
the heap empty: its emitted code applies none of `lookup`, `update` and
`alloc`.

This module is the only one that knows that encoding.  It holds the
store's types (the `heapval` and `tree` datatypes), the
`prelude` of helpers emitted with every program, and a builder for the
ML expression of each store operation the translation emits: `lookup`,
`update` and `alloc` of a state, `zeros` and `new_array` for a new
array's value (which `alloc` allocates unless the array is unboxed),
the single-rule `case`s that read an array's length (`array_length`) or
an element (`array_get`) or write one (`array_set`), and `null_check`,
the guard of a call on a pointer that may be null.  A builder whose pattern names
a part of the array takes the caller's supply of fresh names.
`heap_cells` and `alloc_order` read a final state back: `mleval` holds a
datatype value as a list `[name, *items]`, and `heap_cells` gives each
cell with its datatype values as `VCon` records.

The helpers that are not tail-recursive, `mj_cons`, `mj_set` and
`mj_zeros`, recurse once per level of a tree, O(log n) deep for n cells,
so of a translated program's calls only method recursion comes near the
Python frame limit of a run (`outcome.RECURSION_LIMIT`).
"""

from __future__ import annotations

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

# The value of an unboxed array local before its first assignment: no
# array access has a rule for it, so each is a match failure.
NULL_ARRAY = Con("ANull")

# The value of a value object local before its first assignment: no call
# has a rule for it, so each is a match failure.
NULL_OBJECT = Con("ONull")

# The state before the first allocation.
EMPTY_STATE = Tuple((IntLit(0), EMPTY))


def datatypes(objects: list[DataCon], null_array: bool, null_object: bool) -> list[DataType]:
    """The store's datatypes: `heapval`, whose values are the heap's
    cells, an array `HArr (length, elements)` or one of the `objects`
    constructors, and `NULL_ARRAY` when `null_array` and `NULL_OBJECT`
    when `null_object` (the program binds them), and then the tree."""
    array = DataCon("HArr", TyTuple((TY_INT, TyApp("tree", TY_INT))))
    nulls = [DataCon(con.name, TY_UNIT) for con, bound in
             ((NULL_ARRAY, null_array), (NULL_OBJECT, null_object)) if bound]
    return [DataType("heapval", (array, *nulls, *objects)), TREE]


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
    but `ANull` matches."""
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
