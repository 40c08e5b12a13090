"""Deterministic random MiniJava programs for differential testing.

Candidates are type-correct by construction and shaped so that runs
terminate and stay inside checked arithmetic most of the time:

  * loops count a dedicated local down from a literal of at most 8 and
    nothing else may write the counter, so every loop is bounded;
  * method names come from one global pool calc0..calc9 and a method
    may only call higher-numbered names, so call graphs are acyclic
    even with overriding in play;
  * multiplication keeps one literal operand and literals stay small;
  * arrays get literal lengths and literal in-range indices; object and
    array locals are initialised before use; fields are int or bool, so
    null dereferences cannot happen.

What cannot be ruled out structurally (mainly overflow from repeated
arithmetic in loops, or an overlong run) is handled by rejection: the
candidate is executed on the reference interpreter with a modest fuel
bound and regenerated from the next nonce if it faults.  Generation is
a pure function of (seed, size).
"""

from __future__ import annotations

import random

from .mjast import (
    BOOL,
    INT,
    INT_ARRAY,
    ArrayAssignStmt,
    ArrayIndexExpr,
    ArrayLengthExpr,
    AssignStmt,
    BinaryExpr,
    BlockStmt,
    BoolLitExpr,
    CallExpr,
    ClassDecl,
    ClassType,
    Expr,
    IdentExpr,
    IfStmt,
    IntLitExpr,
    MainClass,
    MethodDecl,
    MjProgram,
    NewObjectExpr,
    NewArrayExpr,
    NotExpr,
    PrintStmt,
    Stmt,
    ThisExpr,
    VarDecl,
    WhileStmt,
)
from .mjinterp import interpret_mj
from .outcome import RunOutcome
from .sema import ClassTable, typecheck

METHOD_POOL = [f"calc{i}" for i in range(10)]
GENERATOR_FUEL = 150_000
MAX_ATTEMPTS = 200
MAX_LITERAL = 20


class GenerationError(Exception):
    pass


class _ClassSpec:
    def __init__(self, name: str, parent: "_ClassSpec | None"):
        self.name = name
        self.parent = parent
        self.fields: list[tuple[str, object]] = []
        self.method_indices: list[int] = []

    def chain(self) -> list["_ClassSpec"]:
        specs = []
        cur: _ClassSpec | None = self
        while cur is not None:
            specs.append(cur)
            cur = cur.parent
        return specs

    def visible_methods(self) -> set[int]:
        out: set[int] = set()
        for spec in self.chain():
            out.update(spec.method_indices)
        return out

    def visible_fields(self) -> list[tuple[str, object]]:
        out = []
        for spec in self.chain():
            out.extend(spec.fields)
        return out


class _Scope:
    """Names usable while generating one method (or main)."""

    def __init__(self, cls: _ClassSpec | None, method_index: int):
        self.cls = cls
        self.method_index = method_index
        self.int_vars: list[str] = []
        self.writable_ints: list[str] = []
        self.bool_vars: list[str] = []
        self.arrays: dict[str, int] = {}
        self.objects: dict[str, _ClassSpec] = {}
        self.int_fields: list[str] = []
        self.bool_fields: list[str] = []


class _Gen:
    def __init__(self, rng: random.Random, size: int):
        self.rng = rng
        self.size = size
        self.field_counter = 0
        self.local_counter = 0
        self.signatures: dict[int, int] = {
            i: rng.choice([0, 1, 1, 2]) for i in range(len(METHOD_POOL))}
        self.specs: list[_ClassSpec] = []

    # -- program skeleton -----------------------------------------------------

    def build_specs(self) -> None:
        rng = self.rng
        for i in range(rng.randint(1, 3)):
            parent = None
            if self.specs and rng.random() < 0.5:
                parent = rng.choice(self.specs)
            spec = _ClassSpec(f"C{i}", parent)
            for _ in range(rng.randint(0, 2)):
                ty = INT if rng.random() < 0.7 else BOOL
                spec.fields.append((f"f{self.field_counter}", ty))
                self.field_counter += 1
            inherited = spec.parent.visible_methods() if spec.parent else set()
            available = [i for i in range(len(METHOD_POOL)) if i not in inherited]
            own = rng.sample(available, k=min(len(available), rng.randint(1, 2)))
            overrides = [m for m in sorted(inherited) if rng.random() < 0.35]
            spec.method_indices = sorted(set(own) | set(overrides))
            self.specs.append(spec)

    # -- expressions -------------------------------------------------------------

    def int_leaf(self, scope: _Scope) -> Expr:
        rng = self.rng
        choices = ["lit"]
        if scope.int_vars:
            choices += ["var"] * 2
        if scope.int_fields:
            choices += ["field"] * 2
        if scope.arrays:
            choices += ["index", "length"]
        kind = rng.choice(choices)
        if kind == "var":
            return IdentExpr(rng.choice(scope.int_vars))
        if kind == "field":
            return IdentExpr(rng.choice(scope.int_fields))
        if kind == "index":
            name, length = rng.choice(sorted(scope.arrays.items()))
            return ArrayIndexExpr(IdentExpr(name), IntLitExpr(rng.randrange(length)))
        if kind == "length":
            name = rng.choice(sorted(scope.arrays))
            return ArrayLengthExpr(IdentExpr(name))
        return IntLitExpr(rng.randint(0, MAX_LITERAL))

    def _call_targets(self, scope: _Scope) -> list[tuple[Expr, _ClassSpec, int]]:
        floor = scope.method_index
        targets: list[tuple[Expr, _ClassSpec, int]] = []
        if scope.cls is not None:
            for j in sorted(scope.cls.visible_methods()):
                if j > floor:
                    targets.append((ThisExpr(), scope.cls, j))
        for name, spec in sorted(scope.objects.items()):
            for j in sorted(spec.visible_methods()):
                if j > floor:
                    targets.append((IdentExpr(name), spec, j))
        for spec in self.specs:
            for j in sorted(spec.visible_methods()):
                if j > floor:
                    targets.append((NewObjectExpr(spec.name), spec, j))
        return targets

    def int_expr(self, scope: _Scope, depth: int) -> Expr:
        rng = self.rng
        if depth <= 0:
            return self.int_leaf(scope)
        roll = rng.random()
        if roll < 0.30:
            return self.int_leaf(scope)
        if roll < 0.65:
            op = "+" if roll < 0.50 else "-"
            return BinaryExpr(op, self.int_expr(scope, depth - 1),
                              self.int_expr(scope, depth - 1))
        if roll < 0.80:
            lit = IntLitExpr(rng.randint(0, MAX_LITERAL))
            leaf = self.int_leaf(scope)
            return BinaryExpr("*", *((lit, leaf) if rng.random() < 0.5 else (leaf, lit)))
        targets = self._call_targets(scope)
        if not targets:
            return self.int_leaf(scope)
        receiver, _, j = rng.choice(targets)
        args = [self.int_expr(scope, depth - 1) for _ in range(self.signatures[j])]
        return CallExpr(receiver, METHOD_POOL[j], args)

    def bool_expr(self, scope: _Scope, depth: int) -> Expr:
        rng = self.rng
        if depth <= 0:
            choices = ["lit"]
            if scope.bool_vars:
                choices += ["var"] * 2
            if scope.bool_fields:
                choices += ["field"] * 2
            kind = rng.choice(choices)
            if kind == "var":
                return IdentExpr(rng.choice(scope.bool_vars))
            if kind == "field":
                return IdentExpr(rng.choice(scope.bool_fields))
            return BoolLitExpr(rng.random() < 0.5)
        roll = rng.random()
        if roll < 0.45:
            return BinaryExpr("<", self.int_expr(scope, depth - 1),
                              self.int_expr(scope, depth - 1))
        if roll < 0.65:
            return NotExpr(self.bool_expr(scope, depth - 1))
        if roll < 0.85:
            return BinaryExpr("&&", self.bool_expr(scope, depth - 1),
                              self.bool_expr(scope, depth - 1))
        return self.bool_expr(scope, 0)

    # -- statements ------------------------------------------------------------------

    def stmt(self, scope: _Scope, locals_out: list[VarDecl],
             depth: int, loop_depth: int) -> Stmt:
        rng = self.rng
        choices = ["print", "assign_int", "assign_int"]
        if scope.bool_vars or scope.bool_fields:
            choices.append("assign_bool")
        if scope.arrays:
            choices += ["array_store"] * 2
        if depth > 0:
            choices += ["if", "if"]
            if loop_depth < 2:
                choices += ["while", "while"]
        kind = rng.choice(choices)
        if kind == "print":
            return PrintStmt(self.int_expr(scope, 2))
        if kind == "assign_int":
            pool = scope.writable_ints + scope.int_fields
            if not pool:
                return PrintStmt(self.int_expr(scope, 2))
            return AssignStmt(rng.choice(pool), self.int_expr(scope, 2))
        if kind == "assign_bool":
            pool = scope.bool_vars + scope.bool_fields
            return AssignStmt(rng.choice(pool), self.bool_expr(scope, 2))
        if kind == "array_store":
            name, length = rng.choice(sorted(scope.arrays.items()))
            return ArrayAssignStmt(name, IntLitExpr(rng.randrange(length)),
                                   self.int_expr(scope, 2))
        if kind == "if":
            cond = self.bool_expr(scope, 2)
            then = BlockStmt([self.stmt(scope, locals_out, depth - 1, loop_depth)
                              for _ in range(rng.randint(1, 2))])
            other = BlockStmt([self.stmt(scope, locals_out, depth - 1, loop_depth)
                               for _ in range(rng.randint(1, 2))])
            return IfStmt(cond, then, other)
        counter = self.fresh_local()
        locals_out.append(VarDecl(counter, INT))
        scope.int_vars.append(counter)
        body: list[Stmt] = [AssignStmt(counter, BinaryExpr("-", IdentExpr(counter),
                                                           IntLitExpr(1)))]
        body += [self.stmt(scope, locals_out, depth - 1, loop_depth + 1)
                 for _ in range(rng.randint(1, 2))]
        loop = WhileStmt(BinaryExpr("<", IntLitExpr(0), IdentExpr(counter)),
                         BlockStmt(body))
        init = AssignStmt(counter, IntLitExpr(rng.randint(1, 8)))
        return BlockStmt([init, loop])

    def fresh_local(self) -> str:
        name = f"v{self.local_counter}"
        self.local_counter += 1
        return name

    # -- methods and classes -------------------------------------------------------------

    def method(self, spec: _ClassSpec, index: int, budget: int) -> MethodDecl:
        rng = self.rng
        formals = [VarDecl(f"p{k}", INT) for k in range(self.signatures[index])]
        scope = _Scope(spec, index)
        for f in formals:
            scope.int_vars.append(f.name)
            scope.writable_ints.append(f.name)
        for fname, fty in spec.visible_fields():
            if fty == INT:
                scope.int_fields.append(fname)
            else:
                scope.bool_fields.append(fname)
        local_decls: list[VarDecl] = []
        body: list[Stmt] = []

        for _ in range(rng.randint(1, 2)):
            name = self.fresh_local()
            local_decls.append(VarDecl(name, INT))
            body.append(AssignStmt(name, IntLitExpr(rng.randint(0, MAX_LITERAL))))
            scope.int_vars.append(name)
            scope.writable_ints.append(name)
        if rng.random() < 0.4:
            name = self.fresh_local()
            local_decls.append(VarDecl(name, BOOL))
            body.append(AssignStmt(name, BoolLitExpr(rng.random() < 0.5)))
            scope.bool_vars.append(name)
        if rng.random() < 0.5:
            name = self.fresh_local()
            length = rng.randint(3, 8)
            local_decls.append(VarDecl(name, INT_ARRAY))
            body.append(AssignStmt(name, NewArrayExpr(IntLitExpr(length))))
            scope.arrays[name] = length
        if rng.random() < 0.4 and self.specs:
            name = self.fresh_local()
            target = rng.choice(self.specs)
            local_decls.append(VarDecl(name, ClassType(target.name)))
            body.append(AssignStmt(name, NewObjectExpr(target.name)))
            scope.objects[name] = target

        for _ in range(rng.randint(2, max(2, budget))):
            body.append(self.stmt(scope, local_decls, depth=2, loop_depth=0))
        return MethodDecl(METHOD_POOL[index], INT, formals, local_decls,
                          body, self.int_expr(scope, 2))

    def main_stmts(self) -> list[Stmt]:
        rng = self.rng
        stmts: list[Stmt] = []
        callable_specs = [s for s in self.specs if s.visible_methods()]
        for _ in range(rng.randint(1, 4)):
            spec = rng.choice(callable_specs)
            j = rng.choice(sorted(spec.visible_methods()))
            args: list[Expr] = [IntLitExpr(rng.randint(0, MAX_LITERAL))
                                for _ in range(self.signatures[j])]
            stmts.append(PrintStmt(CallExpr(NewObjectExpr(spec.name),
                                            METHOD_POOL[j], args)))
        return stmts

    def program(self) -> MjProgram:
        self.build_specs()
        total_methods = sum(len(s.method_indices) for s in self.specs)
        budget = max(2, self.size // max(1, total_methods * 3))
        classes = []
        for spec in self.specs:
            methods = [self.method(spec, j, budget) for j in spec.method_indices]
            fields = [VarDecl(fname, fty) for fname, fty in spec.fields]
            parent = spec.parent.name if spec.parent else None
            classes.append(ClassDecl(spec.name, parent, fields, methods))
        main = MainClass("Main", "args", self.main_stmts())
        return MjProgram(main, classes)


def generate_program(seed: int, size: int = 40) -> MjProgram:
    """A runnable, fault-free program determined entirely by (seed, size)."""
    return _generate_run(seed, size)[0]


def _generate_run(seed: int, size: int = 40) -> tuple[MjProgram, ClassTable, RunOutcome]:
    """`generate_program`'s program with its class table and the clean
    viability run made on it, which any run with at least its `steps`
    of fuel repeats exactly."""
    for nonce in range(MAX_ATTEMPTS):
        rng = random.Random(seed * 1_000_003 + nonce)
        program = _Gen(rng, size).program()
        table = typecheck(program)
        outcome = interpret_mj(program, table, fuel=GENERATOR_FUEL)
        if outcome.fault is None and outcome.output:
            return program, table, outcome
    raise GenerationError(f"no viable program for seed {seed} "
                          f"within {MAX_ATTEMPTS} attempts")
