"""Smoke test of the benchmark: every workload at reduced size, in both modes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def lines(proc):
    assert proc.returncode == 0, proc.stderr
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line(workload, trace):
    info, result = lines(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == sum(c["failed"] for c in info["checks"].values())
    # only artefact checks may fail: the recorded sweep.csv defect
    assert {c["kind"] for c in info["checks"].values() if c["failed"]} <= {"artefact"}
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_seed_fixes_the_work():
    first, again, other = (lines(bench("focus", 0, seed))[0]["figures"]
                           for seed in (5, 5, 6))
    assert first == again
    assert first != other


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("focus", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
