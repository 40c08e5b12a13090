import hashlib
from dataclasses import fields, is_dataclass

from hypothesis import given
from hypothesis import strategies as st

from mj2ml.cli import main
from mj2ml.diffharness import diff_source
from mj2ml.mjast import print_program
from mj2ml.mlast import Let, validate_core
from mj2ml.mlprint import print_ml_program
from mj2ml.parser import parse_source
from mj2ml.sema import typecheck
from mj2ml.translate import mangle_method, mangle_new, mangle_var, prelude, translate

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
    "BinarySearch": "baface89ce23accf3e18111e389eae8d0612b5dbe40a26398aba4da3d388b0f7",
    "BinaryTree": "0871f69674270143fd8b5519df95f21b86f1b3463c2d2eda5fccd2379f3f2237",
    "BubbleSort": "2213d8208b05ce19ccd3c78fe59d7daedd1c7ac8186536a285a0cf88a7f0233e",
    "Factorial": "39a73b7e65e194626953bd2715f6d4e8bf0da87d8864a7b0db4d2036d81c2b35",
    "LinearSearch": "7ca09ab885c40d6f93c642cb080089d24c31919638076def7a1a392210da407d",
    "LinkedList": "39d0c01c87f65ce7649e2a357773ac9c78ac5a45230eeb1131736c9843414fa4",
    "QuickSort": "b6f04d1808a64b5bbc72b6b8c267043b7f089a307b17b2d257de7c6841d7e89e",
    "TreeVisitor": "20550d783a0054aa95a257da818fe2ae7caff8282ccdd89f935f9e9d4248a292",
}


def test_corpus_emitted_sml_is_pinned(corpus_files):
    digests = {path.stem: hashlib.sha256(
                   print_ml_program(tr(path.read_text()), path.name).encode()).hexdigest()
               for path in corpus_files}
    assert digests == EMITTED_SML_SHA256


def test_heapval_groups_one_constructor_per_root():
    ml = tr(CHAIN)
    heapval = next(d for d in ml.datatypes if d.name == "heapval")
    names = [c.name for c in heapval.cons]
    assert names == ["HArr", "HObj_A"]


def test_extension_datatypes_follow_the_hierarchy():
    ml = tr(CHAIN)
    by_name = {d.name: d for d in ml.datatypes}
    assert set(by_name) == {"heapval", "tree", "mj_ext_A", "mj_ext_B"}
    assert [c.name for c in by_name["mj_ext_A"].cons] == ["Ext_B"]
    assert [c.name for c in by_name["mj_ext_B"].cons] == ["Ext_C"]


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


def test_uncalled_methods_and_uninstantiated_classes_emit_nothing():
    ml = tr(UNREACHED)
    names = function_names(ml)
    assert {mangle_new("A"), mangle_method(0, "used")} <= names
    assert mangle_method(0, "unused") not in names
    assert mangle_new("Never") not in names
    # A's level holds the one slot read, so the constructor names no other method
    sml = print_ml_program(ml, "Unreached")
    assert "unused" not in sml and mangle_method(1, "f") not in sml
    assert diff_source("Unreached", UNREACHED).verdict == "match"


def test_a_method_reached_only_from_dead_code_is_dead():
    program = parse_source(UNREACHED)
    table = typecheck(program)
    assert table.live == {("A", "used")}
    assert table.instantiated == {"A"}
    assert table.read_slots == {("A", "used")}
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
    from mj2ml.randgen import generate_program
    for seed in range(10):
        assert validate_core(translate(generate_program(seed, 40))) == []


def test_generated_subclass_encoding_is_pinned():
    # seeds 0..39 hold 20 programs with a subclass, 2 of them three levels
    # deep; the corpus has one file with `extends`
    from mj2ml.randgen import generate_program
    text = "".join(print_ml_program(translate(generate_program(s, 40)), f"seed{s:03d}")
                   for s in range(40))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "7fec80f575d8ab7315c580fe4f70b45ddc96b028fb88ecba779b6d9993535763"


def test_gen200_workload_is_pinned():
    # the benchmark's gen200 programs compare across commits only while
    # the generator and the translation are byte-stable
    from mj2ml.randgen import generate_program
    programs = [generate_program(s, 40) for s in range(200)]
    source = "".join(map(print_program, programs)).encode()
    sml = "".join(print_ml_program(translate(p), f"seed{s:03d}")
                  for s, p in enumerate(programs)).encode()
    assert (len(source), hashlib.sha256(source).hexdigest()) == (
        624675, "4aaa6ae173174edd3a3581bb467872f20879886553696d0b1b4401880281a271")
    assert (len(sml), hashlib.sha256(sml).hexdigest()) == (
        2636923, "23ec5d41e05ee39a0e18947750cf927206fd7986fba40471eaef251078363302")


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


def lets(root):
    """Every `Let` reachable from `root`."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Let):
            yield node
        if is_dataclass(node):
            stack.extend(getattr(node, f.name) for f in fields(node))
        elif isinstance(node, (list, tuple)):
            stack.extend(node)


def test_each_let_is_a_whole_run_of_declarations(corpus_files):
    # mlprint prints each `Let` as one let/in/end and merges none, so the
    # emitted SML keeps its shape only while no `Let` is empty and none
    # is the body of another
    from mj2ml.randgen import generate_program
    programs = [tr(path.read_text()) for path in corpus_files]
    programs += [translate(generate_program(s, 40)) for s in range(40)]
    found = [let for ml in programs for let in lets(ml)]
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
