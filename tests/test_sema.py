import pytest

from mj2ml.diffharness import diff_source
from mj2ml.mjast import BOOL, INT, CallExpr, ClassType, IdentExpr, print_program, walk
from mj2ml.outcome import MAX_NESTING
from mj2ml.parser import parse_source
from mj2ml.sema import MjTypeError, build_class_table, typecheck

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
    # `new B().f()` is a call of f on a B receiver: an A object is
    # instantiated but is no B, so A.f is dead, and so is Unused.f, whose
    # class is never instantiated
    _, table = check("""\
class Main {
    public static void main(String[] a) {
        System.out.println(new B().f() + new U().g(new A()));
    }
}
class A { public int f() { return 1; } public int h() { return 2; } }
class B extends A { public int f() { return 3; } }
class U { public int g(A a) { return 4; } }
class Unused extends B { public int f() { return 5; } }
""")
    assert table.instantiated == {"A", "B", "U"}
    assert table.calls == {("B", "f"), ("U", "g")}
    assert table.live == {("B", "f"), ("U", "g")}


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
    assert table.group("D") == "C"
    assert table.value_classes == {"A", "B"}
    # bump writes a field, and get calls it on `this`
    assert table.this_writers == {("B", "bump"), ("B", "get")}
    assert table.writes_this("B", "get") and not table.writes_this("A", "f")
    assert diff_source("Groups.java", VALUE_GROUPS).ml.output == [1]
