import hashlib

from mj2ml.diffharness import diff_generated
from mj2ml.mjast import BinaryExpr, IdentExpr, IntLitExpr, WhileStmt, print_program, walk
from mj2ml.mjinterp import interpret_mj
from mj2ml.outcome import FaultKind
from mj2ml.parser import parse_source
from mj2ml.randgen import GENERATOR_FUEL, MAX_LITERAL, generate_program
from mj2ml.sema import typecheck


def test_same_seed_same_program():
    a = generate_program(3, 40)
    b = generate_program(3, 40)
    assert a == b
    assert print_program(a) == print_program(b)


def test_different_seeds_differ_somewhere():
    texts = {print_program(generate_program(seed, 40)) for seed in range(6)}
    assert len(texts) > 1


def test_generated_programs_typecheck_and_run_clean():
    for seed in range(12):
        program = generate_program(seed, 40)
        table = typecheck(program)
        out = interpret_mj(program, table, fuel=GENERATOR_FUEL)
        assert out.ok, f"seed {seed} faulted: {out.fault}"
        assert out.output, f"seed {seed} printed nothing"


def test_generated_text_parses_back_to_the_same_ast():
    for seed in range(8):
        program = generate_program(seed, 40)
        assert parse_source(print_program(program)) == program


def test_literals_stay_small():
    for seed in range(8):
        program = generate_program(seed, 40)
        for node in walk(program):
            if isinstance(node, IntLitExpr):
                assert 0 <= node.value <= MAX_LITERAL


def test_loops_are_counter_bounded():
    # every while condition has the shape `0 < counter`
    found = 0
    for seed in range(20):
        program = generate_program(seed, 40)
        for node in walk(program):
            if isinstance(node, WhileStmt):
                found += 1
                assert isinstance(node.cond, BinaryExpr) and node.cond.op == "<"
                assert node.cond.left == IntLitExpr(0)
                assert isinstance(node.cond.right, IdentExpr)
    assert found > 0


def test_diff_generated_reuses_the_generator_run_only_within_its_fuel():
    program = generate_program(0, 40)
    steps = interpret_mj(program).steps
    short, = diff_generated([0], fuel=steps - 1)
    assert short.verdict == "skipped-faulting"
    assert short.mj.fault == FaultKind.FUEL_EXHAUSTED and short.mj.steps == steps - 1
    # the ML side needs more fuel than the MiniJava side, so with just
    # `steps` only the MiniJava run is clean
    exact, = diff_generated([0], fuel=steps)
    assert exact.mj.ok and exact.mj.steps == steps
    full, = diff_generated([0])
    assert full.verdict == "match" and full.mj.steps == steps
    assert full.mj.output == exact.mj.output == interpret_mj(program).output


# Generated programs cut mid-run, inside calls, inherited fields and nested
# `&&` and `!`: one line per seed and cut (one unit short and half the fuel
# needed) with the fault, fault position, steps and output of the cut run.
# The programs are parsed from their text, so their nodes have positions.
FUEL_CUTS_SHA256 = "26bdaf0de042343e123785e835b1b9a3fd6154b3b3ba214bc7a00fc2fe8fab91"


def test_generated_runs_cut_at_the_same_node_and_step():
    lines = []
    for seed in range(50):
        program = parse_source(print_program(generate_program(seed, 40)))
        table = typecheck(program)
        steps = interpret_mj(program, table).steps
        for fuel in (steps - 1, steps // 2):
            out = interpret_mj(program, table, fuel=fuel)
            lines.append(f"{seed} {fuel} {out.fault.value} {out.fault_pos} "
                         f"{out.steps} {out.output}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == FUEL_CUTS_SHA256, text
