"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload of the harness, big-rings included, runs once untraced and
once traced; every metric that BENCHMARK.json names must come out with its
unit.  A copy of the harness
with one expected value changed must report the failure, and a directory
without the ringgraph sources must end without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402

# workload -> (text in workloads.py, the same with a wrong expected value)
CORRUPTIONS = {
    "catalog": ('"tiny": (16, 53,', '"tiny": (16, 54,'),
    "verify": ('"residue-remark": 1}),', '"residue-remark": 2}),'),
    "big-rings": ('("GF(8)", 3, True)', '("GF(8)", 4, True)'),
}


def _run(root: Path, workload: str, trace: int):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def _copy_harness(dest: Path) -> Path:
    (dest / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, dest / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def test_spec_names_the_harness_workloads():
    assert set(CORRUPTIONS) == set(WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_is_reported_as_failure(workload, tmp_path):
    root = _copy_harness(tmp_path)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = root / "perfbench" / "workloads.py"
    text = path.read_text()
    right, wrong = CORRUPTIONS[workload]
    assert text.count(right) == 1
    path.write_text(text.replace(right, wrong))

    proc = _run(root, workload, 0)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] < 1
    assert "PASS" not in proc.stdout


def test_directory_without_sources_gives_no_result(tmp_path):
    root = _copy_harness(tmp_path)
    proc = _run(root, "catalog", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
