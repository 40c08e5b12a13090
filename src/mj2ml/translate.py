"""Translation from MiniJava to the pure core ML fragment.

The generated program threads a heap value through every computation
instead of using mutable state.  A state is a pair
``(next pointer, heap)`` where the heap is an association list from
integer pointers to ``heapval``s; allocation conses onto the front and
hands out pointers 0, 1, 2, ...  Null is the pointer -1, which is never
in the heap, so dereferencing it fails the lookup's match.

Objects are nested tuples.  For each root class R the heap carries
``HObj_R`` of R's level tuple: the method slots introduced by R, then
the fields introduced by R, then one extension slot of type
``mj_ext_R option`` (or ``unit option`` for classes nobody extends).
Each direct subclass D contributes a constructor ``Ext_D`` carrying D's
own level tuple, so an object's extension depth equals its inheritance
depth and the innermost extension slot holds NONE.  Method slots are
filled at construction with the most derived implementation for the
object's dynamic class, so a call just projects a slot and applies it:
no dispatch logic exists at call sites.  Field update rebuilds the
whole constructor spine around the changed slot and reinstalls the
object in the heap.

Statements become let bindings in evaluation order, one binding per
intermediate value (administrative normal form).  An assignment binds a
fresh version ``mj_<x>_<n>`` of the variable; control flow joins carry
the state and every method variable through tuples; a while loop is a
local tail-recursive function over that tuple.

Every generated function takes and returns the state: methods are
``fn (state, self, args) -> (state, result)`` where args is (), a bare
value, or a tuple by arity; constructors are state -> (state, pointer);
``mj_main`` is unit -> state and returns the final state.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .mjast import (
    BOOL,
    INT,
    ArrayAssignStmt,
    ArrayIndexExpr,
    ArrayLengthExpr,
    AssignStmt,
    BinaryExpr,
    BlockStmt,
    BoolLitExpr,
    CallExpr,
    Expr,
    IdentExpr,
    IfStmt,
    IntLitExpr,
    MethodDecl,
    MjProgram,
    MjType,
    NewArrayExpr,
    NewObjectExpr,
    NotExpr,
    PrintStmt,
    Stmt,
    ThisExpr,
    WhileStmt,
)
from .mlast import (
    TY_BOOL,
    TY_INT,
    TY_UNIT,
    App,
    Case,
    Con,
    DataCon,
    DataType,
    Decl,
    FunDef,
    If,
    IntLit,
    Let,
    MlExpr,
    MlProgram,
    MlType,
    Pat,
    PCon,
    PrimOp,
    PTuple,
    PVar,
    PWild,
    Tuple,
    TyApp,
    TyArrow,
    TyName,
    TyTuple,
    Val,
    Var,
)
from .sema import ClassTable, typecheck

STATE_TY = TyTuple((TY_INT, TyApp("list", TyTuple((TY_INT, TyName("heapval"))))))

NULL_PTR = -1


def _enc(name: str) -> str:
    # Doubling keeps every underscore run in a source name even-length, so
    # the single-underscore separators before versions and after family
    # prefixes can never be mistaken for part of the name.
    return name.replace("_", "__")


def mangle_var(name: str, version: int) -> str:
    return f"mj_{_enc(name)}_{version}"


def mangle_method(class_index: int, name: str) -> str:
    return f"mj_m{class_index}_{_enc(name)}"


def mangle_new(class_name: str) -> str:
    return f"mj_new_{_enc(class_name)}"


def _ml_value_ty(ty: MjType) -> MlType:
    """ML type of a MiniJava value: bools stay bools, all else is int
    (numbers are numbers, arrays and objects are pointers)."""
    return TY_BOOL if ty == BOOL else TY_INT


def _default_value(ty: MjType) -> MlExpr:
    if ty == INT:
        return IntLit(0)
    if ty == BOOL:
        return Con("false")
    return IntLit(NULL_PTR)


def _tup(items: list[MlExpr]) -> MlExpr:
    """Tuple of the items: none is unit, a single item stays bare
    (1-tuples do not exist)."""
    return items[0] if len(items) == 1 else Tuple(tuple(items))


def _ptup(items: list[Pat]) -> Pat:
    return items[0] if len(items) == 1 else PTuple(tuple(items))


def _wrap(bindings: list[Decl], result: MlExpr) -> MlExpr:
    return Let(tuple(bindings), result) if bindings else result


def _spine(make, path: list[str], levels: list[list]):
    """The object, or with `make` = PCon the pattern, whose level for each
    class on `path` (the root class first) holds that level's items and
    then, but for the last level, the extension slot `SOME (Ext_<next
    class> <next level>)`.  The last level's items end with its own
    extension slot."""
    inner = tuple(levels[-1])
    for cls, items in zip(reversed(path[1:]), reversed(levels[:-1])):
        inner = (*items, make("SOME", (make(f"Ext_{_enc(cls)}", inner),)))
    return make(f"HObj_{_enc(path[0])}", inner)


@dataclass
class _FnScope:
    """Counters and variable bookkeeping for one generated function."""

    var_order: list[str]
    next_temp: int = 0
    next_state: int = 1
    next_loop: int = 0
    maxver: dict[str, int] = dc_field(default_factory=dict)

    def fresh_temp(self) -> str:
        name = f"mj_v{self.next_temp}"
        self.next_temp += 1
        return name

    def fresh_state(self) -> str:
        name = f"mj_s{self.next_state}"
        self.next_state += 1
        return name

    def fresh_loop(self) -> str:
        name = f"mj_loop{self.next_loop}"
        self.next_loop += 1
        return name

    def fresh_version(self, var: str) -> int:
        self.maxver[var] += 1
        return self.maxver[var]


@dataclass
class _Ctx:
    """A straight-line run of declarations, the current state name and
    the current version of every variable.  Branches get their own copy."""

    fn: _FnScope
    versions: dict[str, int]
    state: str
    bindings: list[Decl] = dc_field(default_factory=list)

    def branch(self) -> "_Ctx":
        return _Ctx(self.fn, dict(self.versions), self.state)

    def emit(self, pat: Pat, rhs: MlExpr) -> None:
        self.bindings.append(Val(pat, rhs))

    def emit_fun(self, fd: FunDef) -> None:
        self.bindings.append((fd,))

    def var_atom(self, name: str) -> MlExpr:
        return Var(mangle_var(name, self.versions[name]))

    def all_var_atoms(self) -> list[MlExpr]:
        return [self.var_atom(x) for x in self.fn.var_order]


class _Translator:
    def __init__(self, table: ClassTable):
        self.table = table
        # Methods whose slot lives at this class (not inherited from above).
        self.intro_methods = {
            name: [mname for mname, owner in info.slot_owner.items() if owner == name]
            for name, info in table.classes.items()}

    # -- object layout --------------------------------------------------------

    def _method_slot_ty(self, decl: MethodDecl) -> MlType:
        if not decl.formals:
            arg_ty: MlType = TY_UNIT
        elif len(decl.formals) == 1:
            arg_ty = _ml_value_ty(decl.formals[0].var_type)
        else:
            arg_ty = TyTuple(tuple(_ml_value_ty(f.var_type) for f in decl.formals))
        return TyArrow(TyTuple((STATE_TY, TY_INT, arg_ty)),
                       TyTuple((STATE_TY, _ml_value_ty(decl.return_type))))

    def _ext_slot_ty(self, cls: str) -> MlType:
        info = self.table.info(cls)
        inner = TyName(f"mj_ext_{_enc(cls)}") if info.children else TY_UNIT
        return TyApp("option", inner)

    def _level_item_tys(self, cls: str) -> list[MlType]:
        info = self.table.info(cls)
        items: list[MlType] = []
        for mname in self.intro_methods[cls]:
            items.append(self._method_slot_ty(info.vtable[mname][1]))
        for fty in info.fields.values():
            items.append(_ml_value_ty(fty))
        items.append(self._ext_slot_ty(cls))
        return items

    def _payload_ty(self, items: list[MlType]) -> MlType:
        return items[0] if len(items) == 1 else TyTuple(tuple(items))

    def datatypes(self) -> list[DataType]:
        heap_cons = [DataCon("HArr", TyApp("list", TY_INT))]
        for root in self.table.roots():
            heap_cons.append(
                DataCon(f"HObj_{_enc(root)}", self._payload_ty(self._level_item_tys(root))))
        decls = [DataType("heapval", tuple(heap_cons))]
        for info in self.table.classes.values():
            if not info.children:
                continue
            cons = [DataCon(f"Ext_{_enc(child)}",
                            self._payload_ty(self._level_item_tys(child)))
                    for child in info.children]
            decls.append(DataType(f"mj_ext_{_enc(info.name)}", tuple(cons)))
        return decls

    # -- object spines ----------------------------------------------------------

    def _level_size(self, cls: str) -> int:
        """Method and field slots of cls's level, before its extension slot."""
        return len(self.intro_methods[cls]) + len(self.table.info(cls).fields)

    def _object_value(self, dynamic_class: str) -> MlExpr:
        info = self.table.info(dynamic_class)
        levels = []
        for cls in info.path:
            items: list[MlExpr] = []
            for mname in self.intro_methods[cls]:
                impl_cls, _ = info.vtable[mname]
                items.append(Var(mangle_method(self.table.info(impl_cls).index, mname)))
            items.extend(_default_value(fty) for fty in self.table.info(cls).fields.values())
            levels.append(items)
        levels[-1].append(Con("NONE"))
        return _spine(Con, info.path, levels)

    def constructor(self, cls: str) -> FunDef:
        body = App(Var("mj_alloc"),
                   Tuple((Var("mj_s0"), self._object_value(cls))))
        return FunDef(mangle_new(cls), PVar("mj_s0"), body)

    def _slot_index(self, cls: str, kind: str, name: str) -> int:
        intro = self.intro_methods[cls]
        if kind == "method":
            return intro.index(name)
        return len(intro) + list(self.table.info(cls).fields).index(name)

    def _read_pattern(self, target_cls: str, kind: str, name: str,
                      bind: str) -> Pat:
        """Match an object whose static type reaches target_cls, binding
        the requested slot; everything else is wildcarded."""
        path = self.table.info(target_cls).path
        levels = [[PWild() for _ in range(self._level_size(cls))] for cls in path]
        levels[-1][self._slot_index(target_cls, kind, name)] = PVar(bind)
        levels[-1].append(PWild())
        return _spine(PCon, path, levels)

    def _write_spine(self, fn: _FnScope, target_cls: str, fname: str,
                     new_value: MlExpr) -> tuple[Pat, MlExpr]:
        """Pattern binding every slot down to the field's class, and the
        rebuilt object with the one slot replaced."""
        path = self.table.info(target_cls).path
        field_idx = self._slot_index(target_cls, "field", fname)
        pats: list[list[Pat]] = []
        exprs: list[list[MlExpr]] = []
        for cls in path:
            pats.append([])
            exprs.append([])
            for j in range(self._level_size(cls)):
                if cls == target_cls and j == field_idx:
                    pats[-1].append(PWild())
                    exprs[-1].append(new_value)
                else:
                    tmp = fn.fresh_temp()
                    pats[-1].append(PVar(tmp))
                    exprs[-1].append(Var(tmp))
        tmp = fn.fresh_temp()
        pats[-1].append(PVar(tmp))
        exprs[-1].append(Var(tmp))
        return _spine(PCon, path, pats), _spine(Con, path, exprs)

    # -- heap access helpers ----------------------------------------------------------

    def _destructure_state(self, ctx: _Ctx) -> tuple[str, str]:
        n = ctx.fn.fresh_temp()
        h = ctx.fn.fresh_temp()
        ctx.emit(PTuple((PVar(n), PVar(h))), Var(ctx.state))
        return n, h

    def _lookup(self, ctx: _Ctx, ptr: MlExpr) -> tuple[str, str, str]:
        """Bind the heap value at ptr; returns (value, counter, heap) temps."""
        n, h = self._destructure_state(ctx)
        o = ctx.fn.fresh_temp()
        ctx.emit(PVar(o), App(Var("mj_lookup"), Tuple((Var(h), ptr))))
        return o, n, h

    def _array_items(self, ctx: _Ctx, ptr: MlExpr) -> tuple[str, str, str]:
        """Bind the int list of the array at ptr; returns (items, counter,
        heap) temps."""
        o, n, h = self._lookup(ctx, ptr)
        inner = ctx.fn.fresh_temp()
        items = ctx.fn.fresh_temp()
        ctx.emit(PVar(items),
                 Case(Var(o), ((PCon("HArr", (PVar(inner),)), Var(inner)),)))
        return items, n, h

    def _field_read(self, ctx: _Ctx, decl_cls: str, fname: str) -> MlExpr:
        o, _, _ = self._lookup(ctx, Var("mj_this"))
        slot = ctx.fn.fresh_temp()
        result = ctx.fn.fresh_temp()
        pat = self._read_pattern(decl_cls, "field", fname, slot)
        ctx.emit(PVar(result), Case(Var(o), ((pat, Var(slot)),)))
        return Var(result)

    def _field_write(self, ctx: _Ctx, decl_cls: str, fname: str,
                     value: MlExpr) -> None:
        o, n, h = self._lookup(ctx, Var("mj_this"))
        pat, rebuilt = self._write_spine(ctx.fn, decl_cls, fname, value)
        new_obj = ctx.fn.fresh_temp()
        ctx.emit(PVar(new_obj), Case(Var(o), ((pat, rebuilt),)))
        new_heap = ctx.fn.fresh_temp()
        ctx.emit(PVar(new_heap),
                 App(Var("mj_update"), Tuple((Var(h), Var("mj_this"), Var(new_obj)))))
        new_state = ctx.fn.fresh_state()
        ctx.emit(PVar(new_state), Tuple((Var(n), Var(new_heap))))
        ctx.state = new_state

    # -- expressions --------------------------------------------------------------------

    def expr(self, e: Expr, ctx: _Ctx) -> MlExpr:
        """Translate to an atom, emitting bindings for all intermediate
        steps in evaluation order."""
        if isinstance(e, IntLitExpr):
            return IntLit(e.value)
        if isinstance(e, BoolLitExpr):
            return Con("true" if e.value else "false")
        if isinstance(e, ThisExpr):
            return Var("mj_this")
        if isinstance(e, IdentExpr):
            assert e.binding is not None
            if e.binding.kind == "field":
                return self._field_read(ctx, e.binding.decl_class, e.name)
            return ctx.var_atom(e.name)
        if isinstance(e, BinaryExpr):
            left = self.expr(e.left, ctx)
            if e.op == "&&":
                # the right operand's bindings run only when `left` holds
                rctx = ctx.branch()
                right = self.expr(e.right, rctx)
                then = _wrap(rctx.bindings, Tuple((Var(rctx.state), right)))
                orelse = Tuple((Var(ctx.state), Con("false")))
                new_state = ctx.fn.fresh_state()
                tmp = ctx.fn.fresh_temp()
                ctx.emit(PTuple((PVar(new_state), PVar(tmp))), If(left, then, orelse))
                ctx.state = new_state
                return Var(tmp)
            # the other operators are ML primitives of the same symbol
            right = self.expr(e.right, ctx)
            tmp = ctx.fn.fresh_temp()
            ctx.emit(PVar(tmp), PrimOp(e.op, (left, right)))
            return Var(tmp)
        if isinstance(e, NotExpr):
            operand = self.expr(e.operand, ctx)
            tmp = ctx.fn.fresh_temp()
            ctx.emit(PVar(tmp), If(operand, Con("false"), Con("true")))
            return Var(tmp)
        if isinstance(e, ArrayIndexExpr):
            arr = self.expr(e.array, ctx)
            idx = self.expr(e.index, ctx)
            items, _, _ = self._array_items(ctx, arr)
            tmp = ctx.fn.fresh_temp()
            ctx.emit(PVar(tmp), App(Var("mj_getnth"), Tuple((Var(items), idx))))
            return Var(tmp)
        if isinstance(e, ArrayLengthExpr):
            arr = self.expr(e.array, ctx)
            items, _, _ = self._array_items(ctx, arr)
            tmp = ctx.fn.fresh_temp()
            ctx.emit(PVar(tmp), App(Var("mj_length"), Var(items)))
            return Var(tmp)
        if isinstance(e, NewArrayExpr):
            length = self.expr(e.length, ctx)
            zeros = ctx.fn.fresh_temp()
            ctx.emit(PVar(zeros), App(Var("mj_zeros"), length))
            new_state = ctx.fn.fresh_state()
            tmp = ctx.fn.fresh_temp()
            ctx.emit(PTuple((PVar(new_state), PVar(tmp))),
                     App(Var("mj_alloc"),
                         Tuple((Var(ctx.state), Con("HArr", (Var(zeros),))))))
            ctx.state = new_state
            return Var(tmp)
        if isinstance(e, NewObjectExpr):
            new_state = ctx.fn.fresh_state()
            tmp = ctx.fn.fresh_temp()
            ctx.emit(PTuple((PVar(new_state), PVar(tmp))),
                     App(Var(mangle_new(e.class_name)), Var(ctx.state)))
            ctx.state = new_state
            return Var(tmp)
        if isinstance(e, CallExpr):
            assert e.receiver_class is not None
            receiver = self.expr(e.receiver, ctx)
            args = [self.expr(a, ctx) for a in e.args]
            intro_cls = self.table.info(e.receiver_class).slot_owner[e.method]
            o, _, _ = self._lookup(ctx, receiver)
            slot = ctx.fn.fresh_temp()
            bound = ctx.fn.fresh_temp()
            pat = self._read_pattern(intro_cls, "method", e.method, slot)
            ctx.emit(PVar(bound), Case(Var(o), ((pat, Var(slot)),)))
            new_state = ctx.fn.fresh_state()
            tmp = ctx.fn.fresh_temp()
            ctx.emit(PTuple((PVar(new_state), PVar(tmp))),
                     App(Var(bound),
                         Tuple((Var(ctx.state), receiver, _tup(args)))))
            ctx.state = new_state
            return Var(tmp)
        raise AssertionError(f"unhandled expression {type(e).__name__}")

    # -- statements ----------------------------------------------------------------------

    def stmt(self, s: Stmt, ctx: _Ctx) -> None:
        if isinstance(s, BlockStmt):
            for sub in s.body:
                self.stmt(sub, ctx)
        elif isinstance(s, PrintStmt):
            value = self.expr(s.value, ctx)
            ctx.emit(PWild(), App(Var("mj_print"), value))
        elif isinstance(s, AssignStmt):
            value = self.expr(s.value, ctx)
            assert s.binding is not None
            if s.binding.kind == "field":
                self._field_write(ctx, s.binding.decl_class, s.name, value)
            else:
                version = ctx.fn.fresh_version(s.name)
                ctx.emit(PVar(mangle_var(s.name, version)), value)
                ctx.versions[s.name] = version
        elif isinstance(s, ArrayAssignStmt):
            assert s.binding is not None
            if s.binding.kind == "field":
                ptr = self._field_read(ctx, s.binding.decl_class, s.name)
            else:
                ptr = ctx.var_atom(s.name)
            idx = self.expr(s.index, ctx)
            value = self.expr(s.value, ctx)
            items, n, h = self._array_items(ctx, ptr)
            updated = ctx.fn.fresh_temp()
            ctx.emit(PVar(updated),
                     App(Var("mj_setnth"), Tuple((Var(items), idx, value))))
            new_heap = ctx.fn.fresh_temp()
            ctx.emit(PVar(new_heap),
                     App(Var("mj_update"),
                         Tuple((Var(h), ptr, Con("HArr", (Var(updated),))))))
            new_state = ctx.fn.fresh_state()
            ctx.emit(PVar(new_state), Tuple((Var(n), Var(new_heap))))
            ctx.state = new_state
        elif isinstance(s, IfStmt):
            cond = self.expr(s.cond, ctx)
            tctx = ctx.branch()
            self.stmt(s.then_branch, tctx)
            ectx = ctx.branch()
            self.stmt(s.else_branch, ectx)
            then = _wrap(tctx.bindings, _tup([Var(tctx.state)] + tctx.all_var_atoms()))
            orelse = _wrap(ectx.bindings, _tup([Var(ectx.state)] + ectx.all_var_atoms()))
            self._join(ctx, If(cond, then, orelse))
        elif isinstance(s, WhileStmt):
            self._while(s, ctx)
        else:
            raise AssertionError(f"unhandled statement {type(s).__name__}")

    def _join(self, ctx: _Ctx, rhs: MlExpr) -> None:
        """Bind a fresh state and fresh versions of every variable to the
        joined (state, vars...) value."""
        fn = ctx.fn
        new_state = fn.fresh_state()
        pats: list[Pat] = [PVar(new_state)]
        for x in fn.var_order:
            version = fn.fresh_version(x)
            ctx.versions[x] = version
            pats.append(PVar(mangle_var(x, version)))
        ctx.emit(_ptup(pats), rhs)
        ctx.state = new_state

    def _while(self, s: WhileStmt, ctx: _Ctx) -> None:
        fn = ctx.fn
        loop = fn.fresh_loop()
        entry_state = fn.fresh_state()
        entry_versions = {x: fn.fresh_version(x) for x in fn.var_order}
        inner = _Ctx(fn, dict(entry_versions), entry_state)
        cond = self.expr(s.cond, inner)
        bctx = inner.branch()
        self.stmt(s.body, bctx)
        call = App(Var(loop), _tup([Var(bctx.state)] + bctx.all_var_atoms()))
        then = _wrap(bctx.bindings, call)
        orelse = _tup([Var(inner.state)] + inner.all_var_atoms())
        loop_body = _wrap(inner.bindings, If(cond, then, orelse))
        param = _ptup([PVar(entry_state)]
                      + [PVar(mangle_var(x, entry_versions[x])) for x in fn.var_order])
        ctx.emit_fun(FunDef(loop, param, loop_body))
        first_call = App(Var(loop), _tup([Var(ctx.state)] + ctx.all_var_atoms()))
        self._join(ctx, first_call)

    # -- whole functions --------------------------------------------------------------------

    def method(self, class_index: int, decl: MethodDecl) -> FunDef:
        var_order = [f.name for f in decl.formals] + [v.name for v in decl.local_vars]
        fn = _FnScope(var_order=var_order)
        for name in var_order:
            fn.maxver[name] = 0
        ctx = _Ctx(fn, {name: 0 for name in var_order}, "mj_s0")
        for local in decl.local_vars:
            ctx.emit(PVar(mangle_var(local.name, 0)), _default_value(local.var_type))
        for s in decl.body:
            self.stmt(s, ctx)
        result = self.expr(decl.return_expr, ctx)
        body = _wrap(ctx.bindings, Tuple((Var(ctx.state), result)))
        param = PTuple((PVar("mj_s0"), PVar("mj_this"),
                        _ptup([PVar(mangle_var(f.name, 0)) for f in decl.formals])))
        return FunDef(mangle_method(class_index, decl.name), param, body)

    def main(self, program: MjProgram) -> FunDef:
        fn = _FnScope(var_order=[])
        ctx = _Ctx(fn, {}, "mj_s0")
        ctx.emit(PVar("mj_s0"), Tuple((IntLit(0), Con("nil"))))
        for s in program.main.body:
            self.stmt(s, ctx)
        body = _wrap(ctx.bindings, Var(ctx.state))
        return FunDef("mj_main", PTuple(()), body)

    def run(self, program: MjProgram) -> MlProgram:
        groups = [(f,) for f in _prelude()]
        table_classes = list(self.table.classes.values())
        big: list[FunDef] = [self.constructor(info.name) for info in table_classes]
        for info in table_classes:
            for decl in info.decl.methods:
                big.append(self.method(info.index, decl))
        if big:
            groups.append(tuple(big))
        groups.append((self.main(program),))
        return MlProgram(datatypes=self.datatypes(),
                         fun_groups=groups,
                         main=App(Var("mj_main"), Tuple(())))


def _prelude() -> list[FunDef]:
    """The fixed runtime: association list heap, integer lists as arrays.

    mj_lookup, mj_getnth and mj_setnth deliberately have no nil case:
    falling off the end (null pointer, index out of range) is a match
    failure, which is the translated program's fault channel.
    """
    lookup = FunDef(
        "mj_lookup", PTuple((PVar("h"), PVar("k"))),
        Case(Var("h"), ((
            PCon("::", (PTuple((PVar("k2"), PVar("v"))), PVar("t"))),
            If(PrimOp("=", (Var("k2"), Var("k"))),
               Var("v"),
               App(Var("mj_lookup"), Tuple((Var("t"), Var("k")))))),)))
    update = FunDef(
        "mj_update", PTuple((PVar("h"), PVar("k"), PVar("w"))),
        Case(Var("h"), ((
            PCon("::", (PTuple((PVar("k2"), PVar("v"))), PVar("t"))),
            If(PrimOp("=", (Var("k2"), Var("k"))),
               Con("::", (Tuple((Var("k"), Var("w"))), Var("t"))),
               Con("::", (Tuple((Var("k2"), Var("v"))),
                          App(Var("mj_update"),
                              Tuple((Var("t"), Var("k"), Var("w")))))))),)))
    getnth = FunDef(
        "mj_getnth", PTuple((PVar("l"), PVar("i"))),
        Case(Var("l"), ((
            PCon("::", (PVar("x"), PVar("t"))),
            If(PrimOp("=", (Var("i"), IntLit(0))),
               Var("x"),
               App(Var("mj_getnth"),
                   Tuple((Var("t"), PrimOp("-", (Var("i"), IntLit(1)))))))),)))
    setnth = FunDef(
        "mj_setnth", PTuple((PVar("l"), PVar("i"), PVar("w"))),
        Case(Var("l"), ((
            PCon("::", (PVar("x"), PVar("t"))),
            If(PrimOp("=", (Var("i"), IntLit(0))),
               Con("::", (Var("w"), Var("t"))),
               Con("::", (Var("x"),
                          App(Var("mj_setnth"),
                              Tuple((Var("t"),
                                     PrimOp("-", (Var("i"), IntLit(1))),
                                     Var("w")))))))),)))
    length = FunDef(
        "mj_length", PVar("l"),
        Case(Var("l"), (
            (PCon("nil"), IntLit(0)),
            (PCon("::", (PWild(), PVar("t"))),
             PrimOp("+", (IntLit(1), App(Var("mj_length"), Var("t"))))))))
    zeros = FunDef(
        "mj_zeros", PVar("n"),
        If(PrimOp("<", (Var("n"), IntLit(1))),
           Con("nil"),
           Con("::", (IntLit(0),
                      App(Var("mj_zeros"), PrimOp("-", (Var("n"), IntLit(1))))))))
    alloc = FunDef(
        "mj_alloc", PTuple((PTuple((PVar("n"), PVar("h"))), PVar("w"))),
        Tuple((Tuple((PrimOp("+", (Var("n"), IntLit(1))),
                      Con("::", (Tuple((Var("n"), Var("w"))), Var("h"))))),
               Var("n"))))
    return [lookup, update, getnth, setnth, length, zeros, alloc]


def translate(program: MjProgram, table: ClassTable | None = None) -> MlProgram:
    """Translate a program; typechecks first when no table is given.

    A caller-provided table must come from `typecheck` on this same
    program, since translation reads the annotations it leaves behind.
    """
    if table is None:
        table = typecheck(program)
    return _Translator(table).run(program)
