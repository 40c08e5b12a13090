"""Smoke test of the benchmark: each workload at its smallest size.

    python3 -m pytest perfbench/test_smoke.py

Checks that a run prints every metric `BENCHMARK.json` declares, each with
a unit, that every program's output was right, that a traced run writes
its spans, and that the benchmark refuses to run where there is no mj2ml
source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_a_unit(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    if not trace:
        assert result["metrics"]["match_ratio"]["value"] == 1.0


def test_traced_run_writes_one_span_tree_per_pass():
    assert bench(ROOT, "corpus", 1).returncode == 0
    passes = json.loads((ROOT / ".perfbench" / "spans-corpus-seed3.json")
                        .read_text())["passes"]
    assert len(passes) >= 2
    for spans in passes:
        root = next(s for s in spans if s["parent"] is None)
        assert root["name"] == "bench.pass"
        covered = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
        assert covered <= root["end"] - root["start"]
        assert {s["trace"] for s in spans if s["name"] == "bench.program"} \
            == {p.name for p in (ROOT / "corpus").glob("*.java")}


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
