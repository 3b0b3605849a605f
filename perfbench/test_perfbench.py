"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run the benchmark itself (about a minute) and check that its counts
replay exactly for a seed, that it prints exactly the metrics BENCHMARK.json
declares, and that it refuses to report from a tree without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_and_ratios_replay_exactly(workload):
    first, second = (last_json(run_benchmark(workload, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    exact = [name for name in first["metrics"]
             if name.endswith((".calls", ".sites", ".repeat_ratio", ".noop_ratio"))]
    assert len(exact) == 19
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_prints_every_end_to_end_metric():
    result = last_json(run_benchmark("sphere-identity", trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_report_without_the_program():
    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_benchmark("lattice-sweep", trace=0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_a_condition_that_checked_zero_sites_fails():
    check = workloads.LATTICE_CLEAN[2]
    outcome = {"exit": 0, "sites": {"compat_a": 6}, "violations": 0, "digest": ""}
    assert workloads.problems(check, outcome, None)
    fault = workloads.fault_check("{}")
    assert workloads.problems(fault, {"exit": 1, "sites": {"gauge": 3600}, "violations": 0,
                                      "digest": ""}, None)
