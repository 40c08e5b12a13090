import hashlib
import re
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mj2ml.cli import main
from mj2ml.diffharness import diff_source
from mj2ml.mjast import print_program
from mj2ml.mleval import eval_program
from mj2ml.mlast import (TY_INT, App, Case, Con, FunDef, If, IntLit, Let, PrimOp, PTuple, PVar,
                          Tuple, TyTuple, Val, Var, validate_core)
from mj2ml.mlprint import print_ml_program
from mj2ml.outcome import FaultKind
from mj2ml.parser import parse_source
from mj2ml.randgen import generate_program
from mj2ml.sema import typecheck
from mj2ml.store import alloc_order, heap_cells, prelude
from mj2ml.translate import mangle_method, mangle_new, mangle_var, translate

# `self` returns an A, so the hierarchy's objects can escape: they are
# heap cells, made by constructor functions
CHAIN = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().tag());
        System.out.println(new B().tag());
        System.out.println(new C().tag());
    }
}

class A {
    int shared;
    public int tag() { return 1; }
    public A self() { return this; }
}

class B extends A {
    int extra;
    public int tag() { return 2; }
}

class C extends B {
    public int tag() { return 3; }
}
"""


def tr(source):
    return translate(parse_source(source))


def test_translation_is_deterministic():
    assert tr(CHAIN) == tr(CHAIN)


def test_corpus_translations_stay_in_the_core(corpus_files):
    for path in corpus_files:
        assert validate_core(tr(path.read_text())) == []


# SHA-256 of each corpus file's emitted SML.  A change that alters the
# emitted bytes on purpose must update these pins and say so.
EMITTED_SML_SHA256 = {
    "BinarySearch": "38685fa0b9f1912f8fd52a5013974c045a8b6cd385e9c23b4070843e5f251f8f",
    "BinaryTree": "cb9734e5a1db8c56b9b8a6cb766120e35a02fdaf4db63e1c7c4129ee78476142",
    "BubbleSort": "e65eae6a84300c26d022a46b2446bc56c8e679d03ac5f911fdcd17b148272c18",
    "Factorial": "bc921f76f043291dbf37d99c8ab009d54b384b25f09243c0d10423937020d335",
    "LinearSearch": "4e7b8b34eed4da03ef970d7e873f98dd61de800b5e8f290228dbc1d2f02f8732",
    "LinkedList": "3b2127d1cfbaff5671afa7dcf605448c0768a470d13a7a3ede3c093917b1347c",
    "QuickSort": "28d6d9c601a11f0c58303ce1290bcadf9e8c33b5ff487c519763cc4f06eb0c4b",
    "TreeVisitor": "04358651c2d0370b27e9145dae6ba6f6fdc6f4191f1648ef033ddb2e2a6b0a9f",
}


def test_corpus_emitted_sml_is_pinned(corpus_files):
    digests = {path.stem: hashlib.sha256(
                   print_ml_program(tr(path.read_text()), path.name).encode()).hexdigest()
               for path in corpus_files}
    assert digests == EMITTED_SML_SHA256


def test_heapval_groups_one_constructor_per_root():
    # an object is one constructor per instantiated class, of all its
    # fields with its root class's first, so a hierarchy's constructors
    # share the root's prefix; a class never instantiated has none
    ml = tr(CHAIN)
    heapval = next(d for d in ml.datatypes if d.name == "heapval")
    pair = TyTuple((TY_INT, TY_INT))
    assert [(c.name, c.arg) for c in heapval.cons][1:] == [
        ("HObj_A", TY_INT), ("HObj_B", pair), ("HObj_C", pair)]
    assert [c.name for c in tr(UNREACHED).datatypes[0].cons] == ["HArr", "HObj_A"]


def test_extension_datatypes_follow_the_hierarchy():
    # the hierarchy lives in the flat constructors alone: no extension
    # datatype or option slot follows it any more
    ml = tr(CHAIN)
    assert [d.name for d in ml.datatypes] == ["heapval", "tree"]
    sml = print_ml_program(ml, "Chain.java")
    assert re.search(r"\b(option|SOME|NONE)\b|Ext_|mj_ext_", sml) is None


def test_function_group_layout():
    ml = tr(CHAIN)
    names = [[f.name for f in group] for group in ml.fun_groups]
    assert names[:7] == [["mj_get"], ["mj_set"], ["mj_cons"], ["mj_zeros"],
                         ["mj_lookup"], ["mj_update"], ["mj_alloc"]]
    assert names[-1] == ["mj_main"]
    big = names[-2]
    assert big[:3] == ["mj_new_A", "mj_new_B", "mj_new_C"]
    assert set(big[3:]) == {mangle_method(i, "tag") for i in range(3)}


def test_methods_mangle_with_declaring_class_index():
    ml = tr(CHAIN)
    flat = [f.name for group in ml.fun_groups for f in group]
    for i, cls in enumerate(["A", "B", "C"]):
        assert mangle_method(i, "tag") in flat
        assert mangle_new(cls) in flat


UNREACHED = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().used());
    }
}

class A {
    public int used() { return 1; }
    public int unused() { return this.helper() + new Never().f(); }
    public int helper() { return 2; }
}

class Never {
    public int f() { return 3; }
}
"""


def function_names(ml):
    return {f.name for group in ml.fun_groups for f in group}


def function_body(ml, name):
    return next(f.body for group in ml.fun_groups for f in group if f.name == name)


def test_uncalled_methods_and_uninstantiated_classes_emit_nothing():
    ml = tr(UNREACHED)
    names = function_names(ml)
    assert mangle_method(0, "used") in names
    assert mangle_method(0, "unused") not in names
    # an A is a value, made in main with no constructor function; a
    # Never is made only in dead code
    assert [c.name for c in ml.datatypes[0].cons] == ["HArr", "HObj_A"]
    assert Con("HObj_A") in nodes(function_body(ml, "mj_main"), Con)
    assert not {mangle_new("A"), mangle_new("Never")} & names
    # an object holds no methods, so the constructor names none
    sml = print_ml_program(ml, "Unreached")
    assert "unused" not in sml and mangle_method(1, "f") not in sml
    assert diff_source("Unreached", UNREACHED).verdict == "match"


def test_a_method_reached_only_from_dead_code_is_dead():
    program = parse_source(UNREACHED)
    table = typecheck(program)
    assert table.live == {("A", "used")}
    assert table.instantiated == {"A"}
    assert table.calls == {("A", "used")}
    names = function_names(translate(program, table))
    assert mangle_method(0, "helper") not in names
    assert mangle_method(1, "f") not in names


SUBCLASS_ONLY = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new User().run(new B()));
    }
}

class User {
    public int run(A x) { return x.get(); }
}

class A {
    public int get() { return 1; }
}

class B extends A {
    public int get() { return 2; }
}
"""


def test_an_override_only_a_subclass_instance_reaches_is_emitted():
    names = function_names(tr(SUBCLASS_ONLY))
    assert {mangle_method(0, "run"), mangle_method(2, "get"), mangle_new("B")} <= names
    assert mangle_method(1, "get") not in names
    assert mangle_new("A") not in names
    result = diff_source("SubclassOnly", SUBCLASS_ONLY)
    assert result.verdict == "match" and result.ml.output == [2]


def test_a_type_error_in_an_uncalled_method_is_still_reported(tmp_path, capsys):
    source = UNREACHED.replace("public int helper() { return 2; }",
                               "public int helper() { return true; }")
    path = tmp_path / "Unreached.java"
    path.write_text(source)
    assert main(["translate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:10:34: return value must be int, got boolean\n"


def test_main_calls_the_entry_function():
    ml = tr(CHAIN)
    text = repr(ml.main)
    assert "mj_main" in text


def test_generated_programs_stay_in_the_core():
    for seed in range(10):
        assert validate_core(translate(generate_program(seed, 40))) == []


def test_generated_subclass_encoding_is_pinned():
    # seeds 0..39 hold 20 programs with a subclass, 2 of them three levels
    # deep; the corpus has one file with `extends`
    text = "".join(print_ml_program(translate(generate_program(s, 40)), f"seed{s:03d}")
                   for s in range(40))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "b8ee4fe0db876358c9b146a04ecf31e5acf80fc1d02bc2f7eab5621131b195e5"


def test_gen200_workload_is_pinned():
    # the benchmark's gen200 programs compare across commits only while
    # the generator and the translation are byte-stable
    programs = [generate_program(s, 40) for s in range(200)]
    source = "".join(map(print_program, programs)).encode()
    sml = "".join(print_ml_program(translate(p), f"seed{s:03d}")
                  for s, p in enumerate(programs)).encode()
    assert (len(source), hashlib.sha256(source).hexdigest()) == (
        624675, "4aaa6ae173174edd3a3581bb467872f20879886553696d0b1b4401880281a271")
    assert (len(sml), hashlib.sha256(sml).hexdigest()) == (
        1314686, "f2beab662f224a44a598564f2d62bb385e407a40281c802f85352b31d64d2715")


# A's `self` returns an A, so A's objects can escape: `this` is a pointer
# to a heap cell (VALUE_PLUMBING, without `self`, has values)
PLUMBING = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().loop());
        System.out.println(new A().pick(1, 2));
        System.out.println(new A().twice());
        System.out.println(new A().around());
        System.out.println(new A().written());
        System.out.println(new A().stale());
        System.out.println(new A().reread());
    }
}
class A {
    int x;
    int y;
    public A self() { return this; }
    public int loop() {
        int a;
        int b;
        int c;
        int d;
        int e;
        a = 1;
        b = 2;
        c = 3;
        d = 4;
        e = 0;
        while (e < 50) { e = e + a + b + c + d; }
        return e;
    }
    public int pick(int p, int q) {
        if (p < q) System.out.println(p); else System.out.println(q);
        return p;
    }
    public int twice() { return x + y; }
    public int around() { return x + this.twice() + y; }
    public int written() {
        x = 5;
        return x;
    }
    public int stale() {
        int before;
        x = 1;
        before = x;
        y = this.bump();
        return before * 10 + x;
    }
    public int bump() {
        x = 7;
        return 0;
    }
    public int reread() {
        int w;
        int z;
        x = 4;
        w = x + 1;
        z = x;
        return z + w + x;
    }
}
"""


def plumbing_method(name):
    ml = tr(PLUMBING)
    return next(f for group in ml.fun_groups for f in group if f.name == mangle_method(0, name))


def lookups(fn):
    return sum(app.func == Var("mj_lookup") for app in nodes(fn, App))


def slot_reads(fn):
    # a slot read is a one-rule `case` whose rule returns the slot's variable
    return sum(isinstance(case.rules[0][1], Var) for case in nodes(fn, Case))


def test_a_loop_carries_the_state_and_only_the_variables_it_assigns():
    # the loop's top-level function also takes a, b, c and d, which it
    # only reads, after e, each under its name at loop entry; it returns
    # the state and e alone, and the method, which returns e, ends in the
    # loop's call
    [loop] = [f for group in tr(PLUMBING).fun_groups for f in group if f.name == "mj_loop0"]
    e = mangle_var("e", 1)
    assert loop.param == PTuple((PVar("mj_s1"), PVar(e),
                                 *(PVar(mangle_var(x, 1)) for x in "abcd")))
    assert loop.body.orelse == Tuple((Var("mj_s1"), Var(e)))
    call = plumbing_method("loop").body.body
    assert call == App(Var("mj_loop0"), Tuple((Var("mj_s0"), Var(mangle_var("e", 1)),
                                               *(Var(mangle_var(x, 1)) for x in "abcd"))))


def test_a_loop_binds_each_variable_under_its_name_at_entry(corpus_files):
    # each mj_loop<k> is called once outside its own body, and its
    # parameter binds that call's arguments, apart from the state, under
    # the names they have there: a loop rebinds nothing on entry
    programs = [parse_source(path.read_text()) for path in corpus_files]
    programs += [generate_program(seed, 40) for seed in range(200)]
    loops = 0
    for program in programs:
        funs = [f for group in translate(program).fun_groups for f in group]
        calls = {}
        for f in funs:
            for app in nodes(f.body, App):
                if app.func.name != f.name:
                    calls.setdefault(app.func.name, []).append(app.arg)
        for loop in funs:
            if loop.name.startswith("mj_loop"):
                [arg] = calls[loop.name]
                args = arg.items if isinstance(arg, Tuple) else (arg,)
                params = loop.param.items if isinstance(loop.param, PTuple) else (loop.param,)
                assert [a.name for a in args[1:]] == [p.name for p in params[1:]], loop.name
                loops += 1
    assert loops == 724


def dead_code(ml):
    """What each function of `ml` binds or takes and never reads: a join
    item other than the state, a loop's result or parameter, or a `val`
    of a variable bound to a variable, a constant, `<` or a negation.
    Versions are named once per function, so a read is any occurrence."""
    negation = (Con("false"), Con("true"))
    found = []
    for f in (f for group in ml.fun_groups for f in group):
        read = {var.name for var in nodes(f.body, Var)}
        unread = []
        if f.name.startswith("mj_loop"):
            unread += [p for p in f.param.items[1:] if p.name not in read]
        for val in nodes(f.body, Val):
            pat, rhs = val.pat, val.rhs
            if isinstance(pat, PTuple) and (isinstance(rhs, If) or isinstance(rhs, App)
                                            and rhs.func.name.startswith("mj_loop")):
                unread += [p for p in pat.items[1:] if isinstance(p, PVar) and p.name not in read]
            elif isinstance(pat, PVar) and pat.name not in read and (
                    isinstance(rhs, (Var, IntLit)) or isinstance(rhs, Con) and not rhs.args
                    or isinstance(rhs, PrimOp) and rhs.op == "<"
                    or isinstance(rhs, If) and (rhs.then, rhs.orelse) == negation):
                unread.append(pat)
        found += [(f.name, p.name) for p in unread]
    return found


def test_no_dead_code_is_emitted(corpus_files):
    # every join item, loop result and loop parameter is read, and no
    # value that cannot fault is bound to a variable nothing reads
    programs = [parse_source(path.read_text()) for path in corpus_files]
    programs += [generate_program(seed, 40) for seed in range(200)]
    assert [dead for program in programs for dead in dead_code(translate(program))] == []
    # one of each: the loop's `s` and the join's `t`, which nothing reads
    # after them, and the copy `u = n`
    dead = dead_code(tr(ESCAPE_MAIN % "new A().f(3)" + """\
class A {
    public int f(int n) {
        int s;
        int t;
        int u;
        s = 0;
        while (s < n) s = s + 1;
        if (0 < n) t = 1; else t = 2;
        u = n;
        return n;
    }
}
"""))
    assert dead == [], dead


def test_a_return_of_a_call_ends_in_the_call(corpus_dir):
    # TreeVisitor's accept returns what v.visit(this) returns: it ends in
    # the `case` on v's class, whose every rule is a call, rather than
    # binding the call's (state, value) and rebuilding that tuple
    ml = tr((corpus_dir / "TreeVisitor.java").read_text())
    [accept] = [f for group in ml.fun_groups for f in group if f.name.endswith("_accept")]
    dispatch = accept.body.body
    assert isinstance(dispatch, Case) and len(dispatch.rules) == 3
    assert all(isinstance(rhs, App) and rhs.func.name.endswith("_visit")
               for _, rhs in dispatch.rules)


DOWN = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new R().down(5));
    }
}
class R {
    public int down(int n) {
        int r;
        if (n < 1) r = 7; else r = this.down(n - 1);
        return r;
    }
}
"""


def test_a_branch_whose_last_binding_is_its_join_tuple_ends_in_it():
    # the `else` binds the callee's (state, value) as its (state, r) join
    # tuple, so it ends in the call, and the method in the `if`: a tail call
    ml = tr(DOWN)
    down = next(f for group in ml.fun_groups for f in group if f.name == mangle_method(0, "down"))
    [branch] = nodes(down, If)
    assert down.body is branch
    assert branch.orelse.body == App(Var(mangle_method(0, "down")),
                                     Tuple((Var("mj_s0"), Var("mj_this"), Var("mj_v0"))))
    assert diff_source("Down.java", DOWN).ml.output == [7]


INHERITED_FIELD = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().set(3));
        System.out.println(new B().set(4));
    }
}
class A {
    int x;
    public int set(int v) { x = v; return this.get(); }
    public int get() { return x; }
}
class B extends A {
    int y;
}
"""


def test_an_inherited_method_reads_and_writes_its_field_in_every_receiver_class():
    # A's methods run on A and B objects, two constructors of the heap's
    # values: a field read or write matches `this` with a rule for each
    result = diff_source("Inherited.java", INHERITED_FIELD)
    assert result.verdict == "match" and result.mj.output == result.ml.output == [3, 4]
    ml = tr(INHERITED_FIELD)
    methods = {f.name: f for group in ml.fun_groups for f in group}
    [read] = nodes(methods[mangle_method(0, "get")], Case)
    assert [pat.name for pat, _ in read.rules] == ["HObj_A", "HObj_B"]
    [write] = nodes(methods[mangle_method(0, "set")], Case)
    assert [(pat.name, rhs.name) for pat, rhs in write.rules] == [("HObj_A", "HObj_A"),
                                                                  ("HObj_B", "HObj_B")]


def test_an_if_that_assigns_nothing_carries_only_the_state():
    [join] = [v for v in nodes(plumbing_method("pick"), Val) if isinstance(v.rhs, If)]
    assert join.pat == PVar("mj_s1")


def test_a_heap_cell_is_read_once_per_state():
    assert lookups(plumbing_method("twice")) == 1
    # the call makes a new state, whose `this` is read again
    assert lookups(plumbing_method("around")) == 2
    # the read after a field write uses the object the write stored
    assert lookups(plumbing_method("written")) == 1


def test_a_slot_is_read_once_per_state():
    # `w = x + 1` reads x into a temporary; `z = x` binds z's version
    # itself rather than copy that temporary, and the last read reuses it
    reread = plumbing_method("reread")
    assert slot_reads(reread) == 2
    assert TEMP_COPY.findall(print_ml_program(tr(PLUMBING))) == []


def test_a_read_after_a_call_sees_the_callees_write():
    result = diff_source("Plumbing.java", PLUMBING)
    assert result.verdict == "match"
    assert result.ml.output == [50, 1, 1, 0, 0, 5, 17, 13]


# an assignment's value copied from the ANF temporary that holds it
TEMP_COPY = re.compile(r"^ *val mj_\w+_\d+ = mj_v\d+$", re.M)


def test_assignments_bind_their_value_directly(corpus_files):
    texts = [print_ml_program(tr(path.read_text())) for path in corpus_files]
    texts += [print_ml_program(translate(generate_program(s, 40))) for s in range(200)]
    assert [copy for text in texts for copy in TEMP_COPY.findall(text)] == []
    # the pattern finds the copies the translation used to emit
    assert TEMP_COPY.findall("  val mj_x_3 = mj_v24\nval mj_v1_1 = mj_v1\n") == [
        "  val mj_x_3 = mj_v24", "val mj_v1_1 = mj_v1"]


def outcome_at_depth(depth, source):
    """Parse, typecheck and translate `source` from `depth` Python frames
    below the caller; the result, or the error's type and text."""
    if depth > 0:
        return outcome_at_depth(depth - 1, source)
    try:
        program = parse_source(source)
        translate(program, typecheck(program))
        return "ok"
    except Exception as err:
        return type(err).__name__, str(err)


def test_nesting_limits_do_not_depend_on_the_callers_depth():
    main = ("class M {{ public static void main(String[] a) {{\n"
            "    System.out.println({});\n}} }}\n")
    sources = [main.format(" + ".join(["1"] * (n + 1))) for n in range(460, 540)]
    sources += [main.format("(" * n + "1" + ")" * n) for n in range(960, 1040)]
    direct = [outcome_at_depth(0, src) for src in sources]
    assert [outcome_at_depth(200, src) for src in sources] == direct
    # both kinds reach their limit inside the ranges
    assert direct[0] == direct[80] == "ok"
    assert direct[79] != "ok" and direct[159] != "ok"


def nodes(root, kind):
    """Every node of type `kind` reachable from `root`."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            yield node
        if is_dataclass(node):
            stack.extend(getattr(node, f.name) for f in fields(node))
        elif isinstance(node, (list, tuple)):
            stack.extend(node)


def test_every_emitted_method_function_is_called(corpus_files):
    # liveness goes by each call's receiver class: seeds 132, 146 and 189
    # each emitted a method function that no call names while it went by
    # method slot
    programs = [tr(path.read_text()) for path in corpus_files]
    programs += [translate(generate_program(s, 40)) for s in (132, 146, 189)]
    for ml in programs:
        called = {app.func.name for app in nodes(ml, App) if isinstance(app.func, Var)}
        methods = {name for name in function_names(ml) if name.startswith("mj_m")}
        assert methods and methods <= called


def test_each_let_is_a_whole_run_of_declarations(corpus_files):
    # mlprint prints each `Let` as one let/in/end and merges none, so the
    # emitted SML keeps its shape only while no `Let` is empty and none
    # is the body of another
    programs = [tr(path.read_text()) for path in corpus_files]
    programs += [translate(generate_program(s, 40)) for s in range(40)]
    found = [let for ml in programs for let in nodes(ml, Let)]
    assert found
    for let in found:
        assert let.decls and not isinstance(let.body, Let)


def test_reversed_class_order_runs_the_same(corpus_dir):
    source = (corpus_dir / "TreeVisitor.java").read_text()
    program = parse_source(source)
    assert any(c.superclass for c in program.classes)
    program.classes.reverse()
    before = diff_source("TreeVisitor", source)
    after = diff_source("TreeVisitor", print_program(program))
    assert after.verdict == "match"
    assert after.mj.output == before.mj.output


def test_long_method_bodies_validate():
    body = "x = x + 1;\n" * 2000
    src = CHAIN.replace("public int tag() { return 1; }",
                        f"public int tag() {{ int x; x = 0; {body} return x; }}")
    assert validate_core(tr(src)) == []


# identifiers: a letter, then letters, digits and underscores
names = st.from_regex(r"[a-dm-n][a-d0-3_]{0,6}", fullmatch=True)
versions = st.integers(min_value=0, max_value=99)


@given(st.tuples(names, versions), st.tuples(names, versions))
def test_variable_mangling_is_injective(a, b):
    if mangle_var(*a) == mangle_var(*b):
        assert a == b


@given(st.integers(0, 50), names, st.integers(0, 50), names)
def test_method_mangling_is_injective(i, m, j, n):
    if mangle_method(i, m) == mangle_method(j, n):
        assert (i, m) == (j, n)


@given(names, versions, st.integers(0, 50), names, names)
def test_mangling_families_do_not_collide(v, ver, i, m, cls):
    assert mangle_var(v, ver) != mangle_method(i, m)
    assert mangle_var(v, ver) != mangle_new(cls)
    assert mangle_method(i, m) != mangle_new(cls)
    assert mangle_var(v, ver) not in {f.name for f in prelude()} | {"mj_print", "mj_main"}


ALIASING = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().f());
    }
}
class A {
    public int f() {
        int[] s;
        int[] t;
        int x;
        s = new int[4];
        t = s;
        x = s[1];
        t[1] = 5;
        return s[1] + x;
    }
}
"""


def test_a_write_through_an_alias_is_seen_by_the_next_read():
    # t and s name one array: the read of s[1] after `t[1] = 5` must not
    # reuse the value read before it
    result = diff_source("Aliasing.java", ALIASING)
    assert result.verdict == "match"
    assert result.mj.output == result.ml.output == [5]


ESCAPE_MAIN = """\
class Main {
    public static void main(String[] a) {
        System.out.println(%s);
    }
}
"""


def made_in_main(ml):
    """The objects main makes as values: the `HObj_` constructors it applies."""
    return [con.name for con in nodes(function_body(ml, "mj_main"), Con)
            if con.name.startswith("HObj_")]

# One program for each use that keeps an `int[]` local in the store, then
# those whose local is a value: (main's argument, class A, output, the
# final heap's constructors in allocation order).  No A escapes, so the
# A each program makes is a value too, never a cell.
ARRAY_USES = {
    "copy": ("new A().f()", """\
class A {
    public int f() {
        int[] x;
        int[] y;
        x = new int[2];
        y = x;
        y[1] = 4;
        return x[1];
    }
}
""", [4], ["HArr"]),
    "call-argument": ("new A().f()", """\
class A {
    public int f() {
        int[] x;
        x = new int[2];
        x[0] = 3;
        return this.g(x);
    }
    public int g(int[] b) { return b[0] + b.length; }
}
""", [5], ["HArr"]),
    "return": ("new A().f()", """\
class A {
    public int f() {
        int[] x;
        x = this.make();
        return x[0] + x.length;
    }
    public int[] make() {
        int[] b;
        b = new int[3];
        b[0] = 7;
        return b;
    }
}
""", [10], ["HArr"]),
    "field-store": ("new A().f()", """\
class A {
    int[] kept;
    public int f() {
        int[] x;
        x = new int[2];
        kept = x;
        x[1] = 6;
        return kept[1];
    }
}
""", [6], ["HArr"]),
    "array-formal": ("new A().g(new int[1])", """\
class A {
    public int g(int[] b) {
        b = new int[3];
        b[2] = 8;
        return b[2] + b.length;
    }
}
""", [11], ["HArr", "HArr"]),
    "unboxed": ("new A().f(3)", """\
class A {
    public int f(int n) {
        int[] x;
        int i;
        if (0 < n) x = new int[n]; else x = new int[1];
        i = 0;
        while (i < x.length) {
            x[i] = i + 1;
            i = i + 1;
        }
        return x[n - 1] + x.length;
    }
}
""", [6], []),
    # made anew in each round, so no round reads the last one's array
    "unboxed-per-round": ("new A().f(3)", """\
class A {
    public int f(int n) {
        int[] x;
        int i;
        int s;
        i = 0;
        s = 0;
        while (i < n) {
            x = new int[i + 1];
            x[i] = i;
            s = s + x[i] + x.length;
            i = i + 1;
        }
        return s;
    }
}
""", [9], []),
    # read or written where it may be unassigned: on that path it is the
    # array null, `ANull`, and here it is assigned
    "read-before-assignment": ("new A().f(3)", """\
class A {
    public int f(int n) {
        int[] x;
        if (0 < n) x = new int[n]; else {}
        return x.length;
    }
}
""", [3], []),
    "write-before-assignment": ("new A().f(3)", """\
class A {
    public int f(int n) {
        int[] x;
        if (0 < n) x = new int[n]; else {}
        x[0] = 5;
        x = new int[2];
        return x.length;
    }
}
""", [2], []),
}


@pytest.mark.parametrize("use", ARRAY_USES)
def test_an_array_local_leaves_the_store_only_when_it_cannot_escape(use):
    argument, source, output, cells = ARRAY_USES[use]
    source = ESCAPE_MAIN % argument + source
    result = diff_source(f"{use}.java", source)
    assert result.verdict == "match" and result.ml.output == output
    program = parse_source(source)
    table = typecheck(program)
    unboxed = any("x" in names for names in table.unboxed.values())
    assert unboxed == ("HArr" not in cells)
    ml = translate(program, table)
    out, state = eval_program(ml)
    assert out.ok and alloc_order(state) == list(range(len(cells)))
    assert [value.name for _, value in heap_cells(state)] == cells
    assert made_in_main(ml) == ["HObj_A"] and table.value_classes == {"A"}


# An unboxed local used where it may be unassigned, after printing n:
# assigned when 0 < n, the array null when n = 0.
UNASSIGNED_ARRAY = """\
class A {
    public int f(int n) {
        int[] x;
        int i;
        System.out.println(n);
        %s
        return n;
    }
}
"""
MAYBE_ASSIGNED = "if (0 < n) x = new int[n]; else {}"
UNASSIGNED_USES = {
    "length": f"{MAYBE_ASSIGNED} System.out.println(x.length);",
    "index": f"{MAYBE_ASSIGNED} System.out.println(x[0]);",
    "write": f"{MAYBE_ASSIGNED} x[0] = 5;",
    # assigned only in the loop's body, read after it ran no rounds
    "after-zero-rounds": "i = 0; while (i < n) { x = new int[i + 1]; i = i + 1; } "
                         "System.out.println(x.length);",
}


def test_a_read_that_may_come_before_the_assignment_reads_null():
    for use, body in UNASSIGNED_USES.items():
        source = ESCAPE_MAIN % "new A().f(%d)" + UNASSIGNED_ARRAY % body
        assigned = source % 3
        assert diff_source("Assigned.java", assigned).verdict == "match", use
        ml = tr(assigned)
        out, state = eval_program(ml)
        # the array and the A are both values
        assert out.ok and heap_cells(state) == [] and made_in_main(ml) == ["HObj_A"], use
        result = diff_source("Null.java", source % 0)
        assert result.verdict == "skipped-faulting", use
        assert result.mj.output == [0] and result.mj.fault is FaultKind.NULL_DEREFERENCE, use
        ml, _ = eval_program(tr(source % 0))
        assert ml.output == [0] and ml.fault is FaultKind.MATCH_FAILURE, use


def test_the_array_null_is_declared_exactly_when_an_unboxed_default_is_read(corpus_files):
    sources = {use: ESCAPE_MAIN % argument + source
               for use, (argument, source, _, _) in ARRAY_USES.items()}
    sources.update((use, ESCAPE_MAIN % "new A().f(0)" + UNASSIGNED_ARRAY % body)
                   for use, body in UNASSIGNED_USES.items())
    sources.update((path.stem, path.read_text()) for path in corpus_files)
    declared = set()
    for name, source in sources.items():
        ml = tr(source)
        [heapval] = [d for d in ml.datatypes if d.name == "heapval"]
        read = any(con.name == "ANull" for con in nodes(ml.fun_groups, Con))
        assert ("ANull" in [c.name for c in heapval.cons]) == read, name
        assert validate_core(ml) == [], name
        if read:
            declared.add(name)
    # `unboxed-per-round` makes its array anew in each round, and nothing
    # reads it after the loop, so the loop neither takes nor returns it
    assert declared == {"read-before-assignment", "write-before-assignment", *UNASSIGNED_USES}


# A class whose objects are made and read by these programs: `set` writes
# its field `v` and `get` reads it.
B_CLASS = """\
class B {
    int v;%s
    public int set(int x) {
        v = x;
        return v;
    }
    public int get() { return v; }
}
"""

# One program for each way an object escapes, whose objects stay heap
# cells, then each shape whose objects are values: (main's argument, the
# class A that main calls and any others, output, the final heap's
# constructors in allocation order).  Every A is a value.
OBJECT_USES = {
    # a field of B's type, though nothing assigns it
    "field-of-its-type": ("new A().f()", """\
class A {
    public int f() {
        B b;
        b = new B();
        return b.set(5) + b.get();
    }
}
""" + B_CLASS % "\n    B next;", [10], ["HObj_B"]),
    "formal": ("new A().f()", """\
class A {
    public int f() {
        B b;
        b = new B();
        return b.set(6) + this.read(b);
    }
    public int read(B x) { return x.get(); }
}
""" + B_CLASS % "", [12], ["HObj_B"]),
    "result": ("new A().f()", """\
class A {
    public int f() {
        B b;
        b = this.make();
        return b.get();
    }
    public B make() {
        B m;
        int t;
        m = new B();
        t = m.set(7);
        return m;
    }
}
""" + B_CLASS % "", [7], ["HObj_B"]),
    # a and b name one object: the write through b is read through a
    "copy": ("new A().f()", """\
class A {
    public int f() {
        B a;
        B b;
        int t;
        a = new B();
        b = a;
        t = b.set(5);
        return a.get();
    }
}
""" + B_CLASS % "", [5], ["HObj_B"]),
    "this-passed": ("new A().f()", """\
class A {
    public int f() {
        B b;
        int t;
        b = new B();
        t = b.set(8);
        return b.pass();
    }
}
class Reader {
    public int read(B x) { return x.get(); }
}
""" + B_CLASS % """
    public int pass() { return new Reader().read(this); }""", [8], ["HObj_B"]),
    # c is b: the write through c is read through b
    "this-returned": ("new A().f()", """\
class A {
    public int f() {
        B b;
        B c;
        int t;
        b = new B();
        t = b.set(9);
        c = b.me();
        t = c.set(t + 1);
        return b.get();
    }
}
""" + B_CLASS % """
    public B me() { return this; }""", [10], ["HObj_B"]),
    # `self` is this object: the write after `keep` is read through it
    "this-stored": ("new A().f()", """\
class A {
    public int f() {
        B b;
        int t;
        b = new B();
        t = b.keep();
        t = b.set(4);
        return b.viaSelf();
    }
}
""" + B_CLASS % """
    B self;
    public int keep() {
        self = this;
        return 0;
    }
    public int viaSelf() { return self.get(); }""", [4], ["HObj_B"]),
    # Sub makes no escape of its own, but its group's root, Base, has a
    # field of Base's type
    "subclass-of-escaping": ("new A().f()", """\
class A {
    public int f() {
        Sub s;
        int t;
        s = new Sub();
        t = s.set(3);
        return s.get();
    }
}
class Base {
    int v;
    Base link;
    public int set(int x) {
        v = x;
        return v;
    }
    public int get() { return v; }
}
class Sub extends Base {
    public int get() { return v + 100; }
}
""", [103], ["HObj_Sub"]),
    "local-from-new": ("new A().f()", """\
class A {
    public int f() {
        B b;
        int t;
        b = new B();
        t = b.set(4);
        return b.get() + t;
    }
}
""" + B_CLASS % "", [8], []),
    "subclass-object-in-superclass-local": ("new A().f()", """\
class A {
    public int f() {
        Base x;
        int t;
        x = new Sub();
        t = x.set(2);
        return x.get();
    }
}
class Base {
    int v;
    public int set(int k) {
        v = k;
        return v;
    }
    public int get() { return v; }
}
class Sub extends Base {
    public int get() { return v + 100; }
}
""", [102], []),
    "new-receiver": ("new A().f()", """\
class A {
    public int f() { return new B().set(6); }
}
""" + B_CLASS % "", [6], []),
    # a new object in each round: each `add` starts from 0, so s is
    # 0 + 1 + 2 (one object for all rounds would give 0 + 1 + 3)
    "new-in-each-round": ("new A().f(3)", """\
class A {
    public int f(int n) {
        B b;
        int i;
        int s;
        i = 0;
        s = 0;
        while (i < n) {
            b = new B();
            s = s + b.add(i);
            i = i + 1;
        }
        return s;
    }
}
""" + B_CLASS % """
    public int add(int x) {
        v = v + x;
        return v;
    }""", [3], []),
}


@pytest.mark.parametrize("use", OBJECT_USES)
def test_an_object_leaves_the_store_only_when_it_cannot_escape(use):
    argument, source, output, cells = OBJECT_USES[use]
    source = ESCAPE_MAIN % argument + source
    result = diff_source(f"{use}.java", source)
    assert result.verdict == "match" and result.ml.output == output
    program = parse_source(source)
    table = typecheck(program)
    out, state = eval_program(translate(program, table))
    assert out.ok and [value.name for _, value in heap_cells(state)] == cells
    boxed = {name.removeprefix("HObj_") for name in cells}
    assert "A" in table.value_classes and not boxed & table.value_classes
    assert cells or table.value_classes == set(table.classes)


# A value object local called where it may be unassigned, after printing
# n: assigned when 0 < n, the object null `ONull` when n = 0.
UNASSIGNED_OBJECT = """\
class A {
    public int f(int n) {
        B b;
        System.out.println(n);
        if (0 < n) %s else {}
        return %s;
    }
}
class B {
    int v;
    public int get() { return v + 4; }
    public int set(int x) {
        v = x;
        return v;
    }
}
class C extends B {
    public int get() { return v + 5; }
}
"""
# (the assignment, the call after the join, its output when 0 < n)
UNASSIGNED_CALLS = {
    "known-call": ("b = new B();", "b.get()", 4),
    "dispatch": ("b = new C();", "b.get() + new B().get()", 9),
    # set writes b, and get reads the written value: 3 + 7
    "writer": ("b = new B();", "b.set(n) + b.get()", 10),
}


def test_a_call_that_may_come_before_the_assignment_calls_null():
    for use, (assignment, call, value) in UNASSIGNED_CALLS.items():
        source = ESCAPE_MAIN % "new A().f(%d)" + UNASSIGNED_OBJECT % (assignment, call)
        assigned = diff_source("Assigned.java", source % 3)
        assert assigned.verdict == "match" and assigned.ml.output == [3, value], use
        ml = tr(source % 0)
        assert [c.name for c in ml.datatypes[0].cons][:2] == ["HArr", "ONull"], use
        result = diff_source("Null.java", source % 0)
        assert result.verdict == "skipped-faulting", use
        assert result.mj.output == [0] and result.mj.fault is FaultKind.NULL_DEREFERENCE, use
        out, _ = eval_program(ml)
        assert out.output == [0] and out.fault is FaultKind.MATCH_FAILURE, use


# A field written through a call on `this` is read after it: in a loop's
# body and its condition, in an `if` branch and after its join, in the
# right operand of `&&`, and after a call that dispatches between two
# subclasses that both override the writer.
WRITE_BACK = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new Counter().run(4));
        System.out.println(new Counter().counted());
        System.out.println(new Counter().pick(3));
        System.out.println(new Counter().pick(7));
        System.out.println(new Counter().both(1));
        System.out.println(new Driver().go(3));
        System.out.println(new Driver().go(6));
    }
}
class Counter {
    int n;
    public int bump(int x) {
        n = n + x;
        return 1;
    }
    public int step() { return this.bump(1) * n; }
    public int run(int k) {
        int i;
        i = 0;
        while (i < k) {
            i = i + this.bump(i);
            System.out.println(n);
        }
        return n;
    }
    public int counted() {
        while (this.step() < 3) System.out.println(n);
        return n;
    }
    public int pick(int k) {
        int t;
        if (k < 5) {
            t = this.bump(k);
            System.out.println(n);
        } else t = this.bump(k * 2);
        return n;
    }
    public int both(int k) {
        if (0 < k && this.step() < 5) System.out.println(n); else {}
        return n * 10;
    }
}
class Driver {
    public int go(int k) {
        Shape s;
        if (k < 5) s = new Square(); else s = new Circle();
        return s.resize(k);
    }
}
class Shape {
    int area;
    public int grow(int k) {
        area = k;
        return 0;
    }
    public int resize(int k) {
        int t;
        t = this.grow(k);
        return area * 10 + t;
    }
}
class Square extends Shape {
    public int grow(int k) {
        area = k * k;
        return 1;
    }
}
class Circle extends Shape {
    public int grow(int k) {
        area = 3 * k * k;
        return 2;
    }
}
"""


def test_a_field_written_through_a_call_on_this_is_read_after_it():
    # run: n is 0, 1, 3, 6 after each round; counted: 1 and 2 print, 3
    # ends the loop; pick: 3 in the branch and after it, and 14; both:
    # the step makes n 1; go: a Square's area 9 and a Circle's 108
    result = diff_source("WriteBack.java", WRITE_BACK)
    assert result.verdict == "match"
    assert result.ml.output == [0, 1, 3, 6, 6, 1, 2, 3, 3, 3, 14, 1, 10, 91, 1082]
    program = parse_source(WRITE_BACK)
    table = typecheck(program)
    assert table.value_classes == {"Counter", "Driver", "Shape", "Square", "Circle"}
    # every Counter method writes `this` through `bump`; `go` writes a
    # local, not `this`
    assert table.this_writers == {("Counter", m) for m in
                                  ("bump", "step", "run", "counted", "pick", "both")} | {
        ("Shape", "grow"), ("Shape", "resize")}
    # nothing is in the store, and no function reads or writes it
    ml = translate(program, table)
    assert heap_cells(eval_program(ml)[1]) == []
    program_apps = [app.func.name for group in ml.fun_groups[7:] for f in group
                    for app in nodes(f, App)]
    assert not {"mj_lookup", "mj_update", "mj_alloc"} & set(program_apps)


# `g` read before `&&` and in a branch after it: the right operand
# `y < 3` makes no new state, so the `&&` is a plain `if`, and the object
# read in the state before it is known in the branch.  A's `self` keeps
# its objects in the store, where a read is a lookup.
AND_KEEPS_READS = ESCAPE_MAIN % "new A().f(0 - 1, 2)" + """\
class A {
    int g;
    A self;
    public int f(int x, int y) {
        int r;
        if (x < g && y < 3) r = g; else r = 5;
        return r;
    }
}
"""


def test_an_and_whose_right_operand_makes_no_state_keeps_the_known_reads():
    ml = tr(AND_KEEPS_READS)
    f = function_body(ml, mangle_method(0, "f"))
    assert lookups(f) == 1
    states = [val for val in nodes(f, Val)
              if isinstance(val.pat, PTuple) and isinstance(val.rhs, If)]
    assert states == []
    assert diff_source("And.java", AND_KEEPS_READS).ml.output == [0]


# f reads x after a call that writes it, after one that does not, and
# after a second write: as a value, `this` has a new version after each
# write, and each version's x is read once
READS_PER_VERSION = ESCAPE_MAIN % "new A().f(3)" + """\
class A {
    int x;%s
    public int f(int n) {
        int t;
        t = this.set(n);
        t = x + this.get() + x;
        t = t + this.set(t) + x;
        return t;
    }
    public int set(int v) {
        x = v;
        return 0;
    }
    public int get() { return x; }
}
"""


def test_a_value_objects_field_is_read_once_per_version():
    value = tr(READS_PER_VERSION % "")
    f = function_body(value, mangle_method(0, "f"))
    assert (lookups(f), slot_reads(f)) == (0, 2)
    # as a heap cell, each call's new state is read again: x three times
    cell = tr(READS_PER_VERSION % "\n    A self;")
    assert slot_reads(function_body(cell, mangle_method(0, "f"))) == 3
    for source in (READS_PER_VERSION % "", READS_PER_VERSION % "\n    A self;"):
        result = diff_source("Reads.java", source)
        assert result.verdict == "match" and result.ml.output == [18]


REASSIGNED_RECEIVER = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new Driver().go());
    }
}
class Driver {
    public int go() {
        Shape s;
        int total;
        s = new Square();
        total = s.area(3);
        s = new Circle();
        total = total * 100 + s.area(3);
        s = new Square();
        return total * 100 + s.area(4);
    }
}
class Shape {
    public int area(int n) { return 0; }
}
class Square extends Shape {
    public int area(int n) { return n * n; }
}
class Circle extends Shape {
    public int area(int n) { return 3 * n * n; }
}
"""


def test_a_call_dispatches_on_the_class_its_receiver_holds_now():
    # one call site, s.area, sees a Square, then a Circle, then a Square
    result = diff_source("Reassigned.java", REASSIGNED_RECEIVER)
    assert result.verdict == "match"
    assert result.mj.output == result.ml.output == [92716]
    # each call matches the receiver's class, one rule per class
    [go] = [f for group in tr(REASSIGNED_RECEIVER).fun_groups for f in group
            if f.name == mangle_method(0, "go")]
    assert sum(len(case.rules) == 2 for case in nodes(go, Case)) == 3


NULL_RECEIVER = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().f());
    }
}
class A {
    A next;
    public int f() { return next.m(this.p()); }
    public int p() {
        System.out.println(7);
        return 1;
    }
    public int m(int x) { return x; }
}
"""


def test_a_call_on_a_null_field_faults_after_its_arguments():
    # m reads no field, so only the call's null check can fault, and it
    # checks after the argument has printed, where MiniJava checks
    result = diff_source("Null.java", NULL_RECEIVER)
    assert result.verdict == "skipped-faulting"
    assert result.mj.output == [7] and result.mj.fault is FaultKind.NULL_DEREFERENCE
    ml, _ = eval_program(translate(parse_source(NULL_RECEIVER)))
    assert ml.output == [7] and ml.fault is FaultKind.MATCH_FAILURE


FRESH_RECEIVER = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().f());
    }
}
class A {
    B kept;
    public int f() {
        B b;
        int i;
        b = new B();
        System.out.println(b.m(9));
        i = 0;
        while (i < 2) {
            System.out.println(b.m(i));
            b = this.get();
            i = i + 1;
        }
        return i;
    }
    public B get() { return kept; }
}
class B {
    public int m(int x) { return x + 5; }
}
"""


def test_a_call_on_a_version_bound_from_new_needs_no_null_check():
    # the first b.m runs on the `new` object: no check; in the loop, b
    # is the loop's parameter, which the second round takes from an
    # unassigned field, so that call keeps its check and faults there
    ml = tr(FRESH_RECEIVER)
    checks = [case for case in nodes(ml.fun_groups, Case)
              if isinstance(case.scrutinee, PrimOp) and case.scrutinee.args[0] == Var("mj_b_1")]
    [loop] = [f for group in ml.fun_groups for f in group if f.name == "mj_loop0"]
    assert len(checks) == 1 and checks == list(nodes(loop, Case))
    result = diff_source("Fresh.java", FRESH_RECEIVER)
    assert result.verdict == "skipped-faulting"
    assert result.mj.output == [14, 5] and result.mj.fault is FaultKind.NULL_DEREFERENCE
    out, _ = eval_program(ml)
    assert out.output == [14, 5] and out.fault is FaultKind.MATCH_FAILURE


# An assignment nothing reads after it still evaluates what can fault:
# (the statement, MiniJava's fault, the ML side's), each after printing n.
DEAD_FAULTS = {
    "overflow": ("d = 4611686018427387903 + n;", FaultKind.INTEGER_OVERFLOW,
                 FaultKind.INTEGER_OVERFLOW),
    "index": ("x = new int[2]; d = x[n + 1];", FaultKind.INDEX_OUT_OF_BOUNDS,
              FaultKind.MATCH_FAILURE),
    "unassigned-length": ("d = x.length;", FaultKind.NULL_DEREFERENCE, FaultKind.MATCH_FAILURE),
    "negative-size": ("x = new int[0 - n];", FaultKind.NEGATIVE_ARRAY_SIZE,
                      FaultKind.MATCH_FAILURE),
    "compared": ("b = !(x[n] < 0);", FaultKind.NULL_DEREFERENCE, FaultKind.MATCH_FAILURE),
}
DEAD_ASSIGNMENT = """\
class A {
    public int f(int n) {
        int[] x;
        int d;
        boolean b;
        System.out.println(n);
        %s
        System.out.println(n + 1);
        return n;
    }
}
"""


@pytest.mark.parametrize("case", DEAD_FAULTS)
def test_a_dead_assignment_keeps_its_fault(case):
    statement, mj_fault, ml_fault = DEAD_FAULTS[case]
    source = ESCAPE_MAIN % "new A().f(1)" + DEAD_ASSIGNMENT % statement
    assert typecheck(parse_source(source)).unboxed[("A", "f")] == {"x"}
    result = diff_source("Dead.java", source)
    assert result.verdict == "skipped-faulting"
    assert result.mj.output == [1] and result.mj.fault is mj_fault
    out, _ = eval_program(tr(source))
    assert out.output == [1] and out.fault is ml_fault


NEVER_INSTANTIATED = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().f());
    }
}
class A {
    Base b;
    public int f() {
        System.out.println(3);
        return b.tag();
    }
}
class Base {
    public int tag() { return 1; }
}
"""


def test_a_call_no_object_can_reach_is_only_a_null_check():
    # no Base is ever made, so b is null and no implementation is emitted
    assert mangle_method(1, "tag") not in function_names(tr(NEVER_INSTANTIATED))
    result = diff_source("Never.java", NEVER_INSTANTIATED)
    assert result.verdict == "skipped-faulting"
    assert result.mj.output == [3] and result.mj.fault is FaultKind.NULL_DEREFERENCE
    ml, _ = eval_program(tr(NEVER_INSTANTIATED))
    assert ml.output == [3] and ml.fault is FaultKind.MATCH_FAILURE
