"""The benchmark's three workloads and the outputs each program must print.

Every expected output comes from outside the translator under test: the
corpus and the generated programs from the MiniJava interpreter run on
the source text, the heap-scale programs from the closed form N(N-1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from mj2ml import (DiffResult, diff_files, diff_generated, generate_program,
                   interpret_mj, parse_source, print_program)

GEN_SIZE = 40
GEN_COUNT = 200
HEAP_SIZES = (50, 100, 200, 400)
WORKLOADS = ("corpus", "gen200", "heap-scale")

# Allocates N `Cell` objects while it fills an int[N] with 0..N-1, then sums
# the array.  Reads (a field read, a[i]) sit beside writes (allocation, a
# field write, a[i] = v), so every store operation of the emitted code runs
# against a heap and an array that both grow with N.
HEAP_SCALE_SOURCE = """\
class HeapScale {{
    public static void main(String[] a) {{
        System.out.println(new Filler().run({n}));
    }}
}}

class Cell {{
    int value;

    public int set(int v) {{
        value = v;
        return value;
    }}
}}

class Filler {{
    public int run(int n) {{
        int[] arr;
        int i;
        int sum;
        Cell c;
        arr = new int[n];
        i = 0;
        while (i < n) {{
            c = new Cell();
            arr[i] = c.set(i);
            i = i + 1;
        }}
        sum = 0;
        i = 0;
        while (i < n) {{
            sum = sum + arr[i];
            i = i + 1;
        }}
        return sum;
    }}
}}
"""


@dataclass(frozen=True)
class Program:
    name: str                # the name `diff` reports it under
    source: str              # MiniJava text, as `mj2ml translate` reads it
    expected: list[int]
    path: Path | None = None  # the file `mj2ml diff` reads
    seed: int | None = None   # the randgen seed `mj2ml check` uses
    size: int | None = None   # N, for heap-scale


@dataclass(frozen=True)
class Workload:
    name: str
    programs: list[Program]

    def diff(self, programs: list[Program]) -> list[DiffResult]:
        """The public call `mj2ml check` (generated) or `mj2ml diff` makes."""
        if self.name == "gen200":
            return diff_generated([p.seed for p in programs], GEN_SIZE)
        return diff_files([p.path for p in programs])


def _mj_output(source: str) -> list[int]:
    outcome = interpret_mj(parse_source(source))
    if outcome.fault is not None:
        raise RuntimeError(f"workload program faults: {outcome.fault_line()}")
    return outcome.output


def build(name: str, root: Path, scratch: Path, gen_base: int,
          small: bool) -> Workload:
    """Programs of one workload.  `small` picks its smallest size."""
    if name == "corpus":
        paths = sorted((root / "corpus").glob("*.java"))
        if not paths:
            raise FileNotFoundError(f"no corpus programs under {root / 'corpus'}")
        programs = [Program(p.name, p.read_text(), _mj_output(p.read_text()), path=p)
                    for p in paths]
    elif name == "gen200":
        programs = []
        for seed in range(gen_base, gen_base + (10 if small else GEN_COUNT)):
            source = print_program(generate_program(seed, GEN_SIZE))
            programs.append(Program(f"seed{seed:03d}", source, _mj_output(source),
                                    seed=seed))
    elif name == "heap-scale":
        scratch.mkdir(parents=True, exist_ok=True)
        programs = []
        for n in HEAP_SIZES[:2] if small else HEAP_SIZES:
            path = scratch / f"HeapScale{n}.java"
            path.write_text(HEAP_SCALE_SOURCE.format(n=n))
            programs.append(Program(path.name, path.read_text(), [n * (n - 1) // 2],
                                    path=path, size=n))
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return Workload(name, programs)
