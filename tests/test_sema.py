import pytest

from mj2ml.diffharness import diff_source
from mj2ml.mjast import (BOOL, INT, INT_ARRAY, CallExpr, ClassType, IdentExpr, print_program,
                         walk)
from mj2ml.outcome import MAX_NESTING
from mj2ml.parser import parse_source
from mj2ml.randgen import generate_program
from mj2ml.sema import Effect, MjTypeError, build_class_table, typecheck

CHAIN = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new C().tag());
    }
}

class A {
    int shared;
    public int tag() { return 1; }
    public int base() { return 10; }
}

class B extends A {
    int extra;
    public int tag() { return 2; }
}

class C extends B {
    public int tag() { return 3; }
}
"""


def check(source):
    program = parse_source(source)
    return program, typecheck(program)


def expect_type_error(source, fragment):
    with pytest.raises(MjTypeError) as err:
        check(source)
    assert fragment in err.value.message


def test_class_table_shape():
    _, table = check(CHAIN)
    assert table.info("C").path[::-1] == ["C", "B", "A"]
    assert table.info("C").path == ["A", "B", "C"]


def test_field_lookup_walks_up_the_chain():
    _, table = check(CHAIN)
    assert table.info("C").all_fields.get("shared") == ("A", INT)
    assert table.info("C").all_fields.get("extra") == ("B", INT)
    assert table.info("A").all_fields.get("extra") is None


def test_method_lookup_is_most_derived():
    _, table = check(CHAIN)
    assert table.info("C").vtable["tag"][0] == "C"
    assert table.info("B").vtable["tag"][0] == "B"
    assert table.info("C").vtable["base"][0] == "A"
    # an override keeps the slot its method's name has in the superclass
    assert list(table.info("C").vtable) == list(table.info("A").vtable) == ["tag", "base"]


def test_assignability_follows_subtyping():
    _, table = check(CHAIN)
    assert table.is_assignable(ClassType("C"), ClassType("A"))
    assert table.is_assignable(ClassType("B"), ClassType("B"))
    assert not table.is_assignable(ClassType("A"), ClassType("C"))
    assert not table.is_assignable(INT, BOOL)


def test_annotations_record_bindings_and_receivers():
    program, _ = check(CHAIN)
    call = next(e for e in walk(program) if isinstance(e, CallExpr))
    assert call.receiver_class == "C"


def test_locals_may_shadow_fields():
    src = CHAIN.replace("public int base() { return 10; }",
                        "public int base(int shared) { return shared; }")
    program, _ = check(src)
    a = next(c for c in program.classes if c.name == "A")
    base = next(m for m in a.methods if m.name == "base")
    assert isinstance(base.return_expr, IdentExpr)
    assert base.return_expr.binding == "formal"


def test_formal_and_local_may_not_collide():
    expect_type_error(CHAIN.replace(
        "public int base() { return 10; }",
        "public int base(int x) { int x; x = 1; return x; }"), "x")


def reversed_classes(source):
    """The same program with its classes declared in reverse order."""
    program = parse_source(source)
    program.classes.reverse()
    return print_program(program)


def test_redeclaring_inherited_field_rejected():
    src = CHAIN.replace("int extra;", "int shared;")
    for text in (src, reversed_classes(src)):
        expect_type_error(text, "field 'shared' in class 'B' redeclares "
                                "a field of class 'A'")


def test_override_must_keep_signature():
    src = CHAIN.replace("public int tag() { return 2; }",
                        "public int tag(int n) { return 2; }")
    for text in (src, reversed_classes(src)):
        expect_type_error(text, "signature")


def test_unknown_superclass_rejected():
    expect_type_error(CHAIN.replace("class A {", "class A extends Z {"), "Z")


def test_duplicate_class_rejected():
    expect_type_error(CHAIN + "\nclass A { public int z() { return 0; } }\n",
                      "duplicate")


def test_inheritance_cycle_rejected():
    src = """\
class Main {
    public static void main(String[] a) {
        System.out.println(1);
    }
}
class P extends Q { public int p() { return 1; } }
class Q extends P { public int q() { return 2; } }
"""
    expect_type_error(src, "cycle")


UNKNOWN_RETURN = {
    # the call's result type reached the subtype check, which had no class
    # to look up
    "loop": "public Foo loop() { return this.loop(); }",
    # reported as a mismatch against a type that does not exist
    "make": "public Foo make() { return new A(); }",
}


def test_unknown_return_type_is_reported_at_the_method():
    for name, decl in UNKNOWN_RETURN.items():
        src = CHAIN.replace("public int base() { return 10; }", decl)
        program = parse_source(src)
        with pytest.raises(MjTypeError) as err:
            typecheck(program)
        method = next(m for m in program.classes[0].methods if m.name == name)
        assert err.value.message == "unknown class 'Foo'"
        assert err.value.pos == method.pos


def test_unknown_formal_type_is_reported_at_the_formal():
    # `tag` is checked first, and passes `base` an argument of a class
    # that exists
    src = CHAIN.replace("public int tag() { return 1; }",
                        "public int tag() { return this.base(new A()); }")
    src = src.replace("public int base() { return 10; }",
                      "public int base(Foo x) { return 10; }")
    program = parse_source(src)
    with pytest.raises(MjTypeError) as err:
        typecheck(program)
    assert err.value.message == "unknown class 'Foo'"
    assert err.value.pos == program.classes[0].methods[1].formals[0].pos


def test_condition_must_be_boolean():
    expect_type_error(CHAIN.replace("return 10;",
                                    "if (1) shared = 1; else shared = 2; return 10;"),
                      "boolean")


def test_call_on_non_object_rejected():
    expect_type_error(CHAIN.replace("new C().tag()", "5.tag()"), "receiver")


def test_argument_types_checked():
    src = CHAIN.replace("public int base() { return 10; }",
                        "public int base(int n) { return n; }")
    expect_type_error(src.replace("new C().tag()", "new C().base(true)"),
                      "must be int")


# Each remaining rule, as (text of CHAIN, its replacement) and the message.
REJECTED = {
    "extends-main": (("class A {", "class A extends Main {"),
                     "cannot extend main class 'Main'"),
    "duplicate-field": (("int extra;", "int extra; int extra;"),
                        "duplicate field 'extra' in class 'B'"),
    "duplicate-method": (("public int base() { return 10; }",
                          "public int base() { return 10; } public int base() { return 11; }"),
                         "duplicate method 'base' in class 'A'"),
    "duplicate-parameter": (("public int base() { return 10; }",
                             "public int base(int n, int n) { return n; }"),
                            "duplicate parameter 'n'"),
    "missing-method": (("new C().tag()", "new C().gone()"), "class 'C' has no method 'gone'"),
    "incompatible-assignment": (("return 10;", "shared = true; return 10;"),
                                "cannot assign boolean to 'shared' of type int"),
    "index-non-array": (("return 10;", "shared[0] = 1; return 10;"),
                        "'shared[...]=' requires int[], got int"),
}


@pytest.mark.parametrize("rule", REJECTED)
def test_each_declaration_and_statement_rule_is_enforced(rule):
    (old, new), fragment = REJECTED[rule]
    assert old in CHAIN
    expect_type_error(CHAIN.replace(old, new, 1), fragment)


def test_this_rejected_in_main():
    expect_type_error(CHAIN.replace("new C().tag()", "this.tag()"), "this")


def test_build_class_table_alone_accepts_valid_hierarchy():
    program = parse_source(CHAIN)
    table = build_class_table(program)
    assert table.has("A") and table.has("B") and table.has("C")


def test_too_deep_nesting_is_a_type_error_at_the_body_start():
    terms = " + ".join(["1"] * 2000)
    in_method = CHAIN.replace("return 10;", f"return {terms};")
    in_main = CHAIN.replace("new C().tag()", terms)
    for src, body in ((in_method, lambda p: p.classes[0].methods[1]),
                      (in_main, lambda p: p.main)):
        program = parse_source(src)
        with pytest.raises(MjTypeError) as err:
            typecheck(program)
        assert "nested too deeply" in err.value.message
        assert err.value.pos == body(program).pos


def test_a_member_access_costs_no_nesting_for_the_classes_above_its_own():
    # an object is one constructor of all its fields, so the translation
    # matches a field of the last class of a MAX_NESTING-class chain as
    # shallowly as a field of a root class: only the body's nodes count
    main = ("class Main {\n    public static void main(String[] a) {\n"
            "        System.out.println(new X().g());\n    }\n}\n")
    chain = "class C0 { }\n" + "".join(
        f"class C{i} extends C{i - 1} {{ }}\n" for i in range(1, MAX_NESTING - 1))

    def member(loops):
        return (f"class X extends C{MAX_NESTING - 2} {{\n    int x;\n    public int g() {{\n"
                f"        {'while (false) ' * loops}x = x + 1;\n"
                "        return x;\n    }\n}\n")

    assert diff_source("X.java", main + chain + member(MAX_NESTING - 3)).verdict == "match"
    with pytest.raises(MjTypeError) as err:
        typecheck(parse_source(main + chain + member(MAX_NESTING - 2)))
    assert "nested too deeply" in err.value.message


def test_a_501_class_chain_is_a_type_error_at_its_last_class():
    # each class copies its superclass's layout, so the limit bounds the
    # quadratic memory of a long chain
    main = ("class Main {\n    public static void main(String[] a) {\n"
            "        System.out.println(1);\n    }\n}\n")
    chain = "class C0 { }\n" + "".join(
        f"class C{i} extends C{i - 1} {{ }}\n" for i in range(1, MAX_NESTING + 1))
    program = parse_source(main + chain)
    with pytest.raises(MjTypeError) as err:
        typecheck(program)
    assert err.value.message == f"inheritance of class 'C{MAX_NESTING}' nested too deeply"
    last = program.classes[-1]
    assert last.name == f"C{MAX_NESTING}" and err.value.pos == last.pos


def test_a_call_keeps_only_the_implementations_its_receiver_can_reach():
    # `new B().f()` is a call of f on a new B, which runs B's f alone: an
    # A object is instantiated but is no B, so A.f is dead, and so is
    # Unused.f, whose class is never instantiated.  A call on a `new`
    # object is no (receiver class, method) pair to dispatch on
    _, table = check("""\
class Main {
    public static void main(String[] a) {
        System.out.println(new B().f() + new U().g(new A()) + new A().h());
    }
}
class A { public int f() { return 1; } public int h() { return 2; } }
class B extends A { public int f() { return 3; } public int h() { return 6; } }
class U { public int g(A a) { return 4; } }
class Unused extends B { public int f() { return 5; } }
""")
    assert table.instantiated == {"A", "B", "U"}
    assert table.calls == set()
    # `new A().h()` runs A's h, though a B is an A too
    assert table.live == {("B", "f"), ("U", "g"), ("A", "h")}


VALUE_GROUPS = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().f());
    }
}
class A {
    public int f() {
        B b;
        b = new B();
        return b.get() + new D().g(0);
    }
    public int unused() {
        B x;
        B y;
        x = new B();
        y = x;
        return y.get();
    }
}
class B {
    int n;
    public int get() { return this.bump(); }
    public int bump() {
        n = n + 1;
        return n;
    }
}
class C {
    public int g(int k) { return k; }
    public int pair(C other) { return 0; }
}
class D extends C {
}
"""


def test_a_group_is_a_value_unless_a_declaration_or_a_live_body_lets_it_escape():
    # the copy `y = x` is in a method no run reaches, so B stays a value;
    # C's formal `other` names C's type, though nothing calls `pair`, so
    # C's group, D too, keeps its objects in the store
    _, table = check(VALUE_GROUPS)
    assert table.group(ClassType("D")) == "C"
    assert {c for c in table.classes if table.is_value(ClassType(c))} == {"A", "B"}
    # bump writes a field, and get calls it on `this`
    assert table.this_writers == {("B", "bump"), ("B", "get")}
    assert table.writes_this("B", "get") and not table.writes_this("A", "f")
    assert diff_source("Groups.java", VALUE_GROUPS).ml.output == [1]


VALUE_ARRAYS = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().f(3));
    }
}
class A {
    public int f(int n) {
        int[] x;
        x = new int[n];
        x[1] = 4;
        return x[1] + x.length;
    }
    public int unused() {
        int[] x;
        int[] y;
        x = new int[1];
        y = x;
        return y[0];
    }
}
"""


def test_arrays_are_a_value_unless_a_declaration_or_a_live_body_lets_one_escape():
    # arrays are one group: the copy `y = x` is in a method no run
    # reaches, so they stay values; a formal of type int[], though
    # nothing calls its method, keeps every array in the store
    _, table = check(VALUE_ARRAYS)
    assert table.group(INT_ARRAY) == "int[]" and table.is_value(INT_ARRAY)
    assert diff_source("Arrays.java", VALUE_ARRAYS).ml.output == [7]
    _, table = check(VALUE_ARRAYS.replace("unused()", "unused(int[] z)"))
    assert not table.is_value(INT_ARRAY)


EFFECTS = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new Box().run(new Square(), 4) + new Box().run(new Shape(), 1));
    }
}
class Box {
    int v;
    Box next;
    public int get() { return v; }
    public int put(int w) { v = w; return w; }
    public int pure(int n) { return n + 1; }
    public int even(int n) {
        int r;
        if (n < 1) r = v; else r = this.odd(n - 1);
        return r;
    }
    public int odd(int n) {
        int r;
        if (n < 1) r = 0; else r = this.even(n - 1);
        return r;
    }
    public int poke(Shape s) { return s.touch(this); }
    public int run(Shape s, int n) {
        return this.pure(n) + this.even(n) + this.poke(s) + this.get();
    }
}
class Shape { public int touch(Box b) { return 0; } }
class Square extends Shape { public int touch(Box b) { return b.put(7); } }
"""


def test_each_live_method_has_the_heap_effect_of_what_it_and_its_callees_do():
    # Box and Shape objects are heap cells (the field `next` and the
    # formals name their types).  get only reads a field; put writes one;
    # pure touches no cell; even and odd call each other and reach a
    # field read, which the fixpoint carries round the cycle; Shape's
    # touch writes nothing itself, but Square's calls put, and a call on
    # a Shape may run either, so both are writes, and so is poke, which
    # reaches them only through that dispatch
    _, table = check(EFFECTS)
    effects = {m: table.effect(cls, m) for cls, m in table.live}
    assert effects == {"get": Effect.READS, "put": Effect.WRITES, "pure": Effect.NONE,
                       "even": Effect.READS, "odd": Effect.READS, "touch": Effect.WRITES,
                       "poke": Effect.WRITES, "run": Effect.WRITES}
    assert table.effect("Shape", "touch") == table.effect("Square", "touch") == Effect.WRITES
    assert diff_source("Effects.java", EFFECTS).ml.output == [21]
    # with touch writing nothing in either class, poke still reads the
    # heap: the call reads its receiver's cell to choose the class
    source = EFFECTS.replace("b.put(7)", "7")
    _, table = check(source)
    assert (table.effect("Shape", "touch"), table.effect("Box", "poke")) == (
        Effect.NONE, Effect.READS)
    assert diff_source("Effects.java", source).ml.output == [12 + 2]


def test_a_program_with_no_heap_cells_has_only_methods_without_effect():
    # no generated program keeps an array or object in the store
    for seed in range(40):
        table = typecheck(generate_program(seed, 40))
        assert set(table.effects) == {(table.group(ClassType(cls)), m) for cls, m in table.live}
        assert set(table.effects.values()) <= {Effect.NONE}


def test_a_method_runs_on_the_objects_whose_calls_reach_it():
    # B inherits A's f, but only A objects are asked for f: B is
    # instantiated for g alone, so A's f is matched on A objects only
    _, table = check("""\
class Main {
    public static void main(String[] a) {
        System.out.println(new A().f() + new B().g());
    }
}
class A { int x; public int f() { return x; } }
class B extends A { public int g() { return 2; } }
""")
    assert table.instantiated == {"A", "B"}
    assert table.reached == {("A", "f"), ("B", "g")}
