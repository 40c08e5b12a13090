import gc
import math
import tracemalloc

import pytest

from mj2ml.diffharness import diff_source
from mj2ml.mjast import INT_MAX
from mj2ml.mjinterp import interpret_mj
from mj2ml.outcome import FaultKind, run_compiled
from mj2ml.parser import parse_source
from mj2ml.sema import typecheck


def run(source, fuel=10_000_000):
    return interpret_mj(parse_source(source), fuel=fuel)


def worker(body, main_expr="new W().run()", extra=""):
    return f"""\
class Main {{
    public static void main(String[] a) {{
        System.out.println({main_expr});
    }}
}}
class W {{
{extra}
    public int run() {{
{body}
    }}
}}
"""


def test_factorial_matches_math_oracle(corpus_dir):
    out = run((corpus_dir / "Factorial.java").read_text())
    assert out.ok
    assert out.output == [math.factorial(10)]


def test_bubble_sort_matches_sorted_oracle(corpus_dir):
    data = [20, 7, 12, 18, 2, 11, 6, 9, 19, 5]
    out = run((corpus_dir / "BubbleSort.java").read_text())
    assert out.output == data + [99999] + sorted(data) + [0]


def test_quick_sort_matches_sorted_oracle(corpus_dir):
    data = [14, 3, 17, 8, 0, 18, 9, 1, 20, 11]
    out = run((corpus_dir / "QuickSort.java").read_text())
    assert out.output == data + [77777] + sorted(data) + [0]


def test_binary_search_matches_membership_oracle(corpus_dir):
    table = [20 + 2 * j for j in range(20)]
    probes = [8, 22, 41, 58, 60]
    out = run((corpus_dir / "BinarySearch.java").read_text())
    assert out.output == [int(p in table) for p in probes] + [999]


def test_linear_search_matches_membership_oracle(corpus_dir):
    table = [2 * j + 3 for j in range(10)]
    probes = [9, 12, 17, 50]
    out = run((corpus_dir / "LinearSearch.java").read_text())
    assert out.output == [int(p in table) for p in probes] + [55]


def test_linked_list_matches_sum_oracle(corpus_dir):
    values = [5, 8, 13]
    out = run((corpus_dir / "LinkedList.java").read_text())
    assert out.output == [sum(values)] + values + [len(values)] + [0]


def test_binary_tree_matches_sorted_and_membership_oracles(corpus_dir):
    inserted = [16, 8, 24, 4, 12, 20, 28, 14]
    probes = [24, 12, 50, 5]
    out = run((corpus_dir / "BinaryTree.java").read_text())
    expected = sorted(inserted) + [100000000]
    expected += [int(p in inserted) for p in probes] + [0]
    assert out.output == expected


def test_tree_visitor_matches_aggregate_oracles(corpus_dir):
    weights = [30, 42, 25, 15]
    out = run((corpus_dir / "TreeVisitor.java").read_text())
    assert out.output == [sum(weights), len(weights), max(weights), 0]


def test_addition_overflow_faults():
    out = run(worker(f"        return {INT_MAX} + 1;"))
    assert out.fault == FaultKind.INTEGER_OVERFLOW
    assert str(out.fault_pos) == "9:16"
    assert out.output == []


def test_subtraction_underflow_faults():
    out = run(worker(f"        return 0 - {INT_MAX} - 2;"))
    assert out.fault == FaultKind.INTEGER_OVERFLOW


def test_in_range_arithmetic_is_exact_at_the_edge():
    out = run(worker(f"        return {INT_MAX} + 0;"))
    assert out.ok and out.output == [INT_MAX]


def test_null_field_call_faults_with_position():
    out = run(worker("        return other.run();", extra="    W other;"))
    assert out.fault == FaultKind.NULL_DEREFERENCE
    assert str(out.fault_pos) == "9:16"


def test_index_out_of_bounds_faults():
    body = "        int[] xs;\n        xs = new int[3];\n        return xs[3];"
    out = run(worker(body))
    assert out.fault == FaultKind.INDEX_OUT_OF_BOUNDS
    assert str(out.fault_pos) == "11:16"


def test_index_out_of_bounds_write_faults_at_the_statement():
    body = "        int[] xs;\n        xs = new int[3];\n        xs[3] = 1;\n        return 0;"
    out = run(worker(body))
    assert out.fault == FaultKind.INDEX_OUT_OF_BOUNDS
    assert str(out.fault_pos) == "11:9"


def test_negative_index_faults():
    body = "        int[] xs;\n        xs = new int[3];\n        return xs[0 - 1];"
    out = run(worker(body))
    assert out.fault == FaultKind.INDEX_OUT_OF_BOUNDS


def test_negative_array_size_faults():
    body = "        int[] xs;\n        xs = new int[0 - 2];\n        return xs.length;"
    out = run(worker(body))
    assert out.fault == FaultKind.NEGATIVE_ARRAY_SIZE
    assert str(out.fault_pos) == "10:14"


def test_fresh_array_is_zeroed_and_has_length():
    body = ("        int[] xs;\n        xs = new int[4];\n"
            "        return xs[0] + xs[3] + xs.length;")
    out = run(worker(body))
    assert out.ok and out.output == [4]


def test_fuel_exhaustion_on_endless_loop():
    body = ("        int x;\n        x = 0;\n"
            "        while (0 < 1) { x = x + 1; }\n        return x;")
    out = run(worker(body), fuel=1_000)
    assert out.fault == FaultKind.FUEL_EXHAUSTED
    assert str(out.fault_pos) == "11:25" and out.steps == 1_000


def test_short_circuit_and_skips_right_operand():
    body = ("        int[] xs;\n        int r;\n        xs = new int[1];\n"
            "        if (0 < 0 && xs[9] < 1) r = 1; else r = 2;\n"
            "        return r;")
    out = run(worker(body))
    assert out.ok and out.output == [2]


def test_fields_default_to_zero_and_false():
    src = worker("        int r;\n        if (flag) r = 1; else r = n;\n        return r;",
                 extra="    int n;\n    boolean flag;")
    out = run(src)
    assert out.ok and out.output == [0]


def test_dynamic_dispatch_picks_runtime_class():
    src = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new Caller().go());
    }
}
class Caller {
    public int go() {
        Base b;
        b = new Derived();
        return b.tag();
    }
}
class Base {
    public int tag() { return 1; }
}
class Derived extends Base {
    public int tag() { return 2; }
}
"""
    out = run(src)
    assert out.output == [2]


FIELDS = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new C().run(5));
        System.out.println(new B().setY(2));
    }
}
class A {
    int x;
    public int addX(int v) { x = x + v; return x; }
}
class B extends A {
    int y;
    public int setY(int v) { y = this.addX(v) * 10; return y + x; }
}
class C extends B {
    int z;
    public int run(int v) {
        z = 7;
        x = 100;
        return this.setY(v) + this.addX(1) + z;
    }
}
"""


def test_an_inherited_method_reads_and_writes_an_ancestors_field_on_a_subclass_object():
    # each class adds a field, and A's and B's methods run on a C object:
    # a field has its index in the layout of the class whose method reads
    # it.  C: x = 100, setY(5) makes x 105 and y 1050 and returns 1155,
    # addX(1) makes x 106; 1155 + 106 + 7.  B: x = 2, y = 20; 20 + 2.
    result = diff_source("Fields.java", FIELDS)
    assert result.verdict == "match" and result.mj.output == [1268, 22]


def test_only_live_method_bodies_are_compiled():
    src = worker("        return 1;",
                 extra="    public int unused() { return this.run() + 1; }")
    program = parse_source(src)
    table = typecheck(program)
    assert table.live == {("W", "run")}
    # compiling the uncalled method would now fail
    unused = table.info("W").methods["unused"]
    unused.body = unused.return_expr = None
    out = interpret_mj(program, table)
    assert out.ok and out.output == [1]


def test_a_call_on_a_class_never_instantiated_faults_on_null():
    body = "        Base b;\n        return b.tag();"
    src = worker(body) + "class Base {\n    public int tag() { return 1; }\n}\n"
    program = parse_source(src)
    table = typecheck(program)
    assert "Base" not in table.instantiated and table.live == {("W", "run")}
    out = interpret_mj(program, table)
    assert out.fault == FaultKind.NULL_DEREFERENCE and str(out.fault_pos) == "10:16"


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_compiled_keeps_the_callers_collector_setting(enabled):
    # a MiniJava run, which makes cycles, gets the caller's setting back;
    # an ML run, which makes none, keeps the collector off; both restore it
    def check(makes_cycles):
        seen = {}

        def compile_(fuel, output):
            seen["compile"] = gc.isenabled()

            def run():
                seen["run"] = gc.isenabled()
                return 0
            return run, lambda: fuel

        def broken(fuel, output):
            raise ValueError("no program")

        def failing(fuel, output):
            def run():
                raise ValueError("no run")
            return run, lambda: fuel

        out, value = run_compiled(compile_, 10, makes_cycles=makes_cycles)
        after_run = gc.isenabled()
        with pytest.raises(ValueError):
            run_compiled(broken, 10, makes_cycles=makes_cycles)
        after_raise = gc.isenabled()
        with pytest.raises(ValueError):
            run_compiled(failing, 10, makes_cycles=makes_cycles)
        after_failed_run = gc.isenabled()
        assert out.ok and value == 0
        assert seen == {"compile": False, "run": enabled and makes_cycles}
        assert after_run is after_raise is after_failed_run is enabled

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        check(makes_cycles=True)
        check(makes_cycles=False)
    finally:
        (gc.enable if was else gc.disable)()


# Each iteration makes an object whose field points to itself: a cycle that
# only the cyclic collector frees, so the collector must stay on in a run.
SELF_LINKS = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new Loop().run(%d));
    }
}
class Node {
    Node next;
    public int link() {
        next = this;
        return 0;
    }
}
class Loop {
    public int run(int n) {
        int i;
        int r;
        Node c;
        i = 0;
        while (i < n) {
            c = new Node();
            r = c.link();
            i = i + 1;
        }
        return i;
    }
}
"""


def test_a_run_making_a_cycle_per_iteration_stays_in_bounded_memory():
    # with the collector off for the run the peak was 3.44 MB at 50 000
    # iterations, against 0.06 MB with it on
    n = 30_000
    program = parse_source(SELF_LINKS % n)
    table = typecheck(program)
    tracemalloc.start()
    try:
        out = interpret_mj(program, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.ok and out.output == [n]
    assert peak < 1 << 20, peak


# Where each corpus run stops with one unit less fuel than it needs: the
# last node the full run visits.
CORPUS_CUT_POS = {
    "BinarySearch": "19:16",
    "BinaryTree": "94:16",
    "BubbleSort": "18:16",
    "Factorial": "14:16",
    "LinearSearch": "18:16",
    "LinkedList": "61:16",
    "QuickSort": "18:16",
    "TreeVisitor": "108:16",
}


@pytest.mark.parametrize("name", sorted(CORPUS_CUT_POS))
def test_corpus_run_one_unit_short_faults_at_its_last_node(corpus_dir, name):
    program = parse_source((corpus_dir / f"{name}.java").read_text())
    steps = interpret_mj(program).steps
    out = interpret_mj(program, fuel=steps - 1)
    assert out.fault == FaultKind.FUEL_EXHAUSTED
    assert str(out.fault_pos) == CORPUS_CUT_POS[name]


COUNTDOWN = """\
class Main {
    public static void main(String[] a) {
        System.out.println(new W().run(2));
    }
}
class W {
    int k;
    public int run(int n) {
        int[] xs;
        xs = new int[n];
        while (0 < n && !(k < 0)) {
            xs[n - 1] = k + n;
            n = n - 1;
        }
        return xs[0] + xs.length;
    }
}
"""

# The node at which a run of COUNTDOWN with fuel 0, 1, .. 59 stops: every
# statement and expression visit in order, the while's own unit before
# each test of its condition.  A binary expression starts where its left
# operand does.
COUNTDOWN_VISITS = (
    ["3:9", "3:28", "3:28", "3:40", "10:9", "10:14", "10:22"]
    + ["11:9", "11:16", "11:16", "11:16", "11:20", "11:25", "11:27", "11:27",
       "11:31", "11:35", "12:13", "12:16", "12:16", "12:20", "12:25", "12:25",
       "12:29", "13:13", "13:17", "13:17", "13:21"] * 2
    + ["11:9", "11:16", "11:16", "11:16", "11:20",
       "15:16", "15:16", "15:16", "15:19", "15:24", "15:24"])


def test_fuel_runs_out_at_each_visit_in_order():
    program = parse_source(COUNTDOWN)
    full = interpret_mj(program)
    assert full.ok and full.output == [3] and full.steps == len(COUNTDOWN_VISITS)
    for fuel, pos in enumerate(COUNTDOWN_VISITS):
        out = interpret_mj(program, fuel=fuel)
        assert (out.fault, str(out.fault_pos), out.steps) == (
            FaultKind.FUEL_EXHAUSTED, pos, fuel), fuel
