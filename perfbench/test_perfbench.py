"""Smoke test of the performance benchmark at a tiny input size.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload untraced and one traced, checks that each metric of
BENCHMARK.json prints with its unit and that the output check passes
(including the digests pinned for the default seed).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, seed: int = 1) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def check(result: dict, stdout: str, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in stdout.splitlines())
    assert "error_rate" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke(workload):
    result, stdout = run(workload, trace=0)
    check(result, stdout, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.split()[:1] == ["wall_s"] and line.split()[2] == "s"
               for line in stdout.splitlines())


@pytest.mark.parametrize("workload", ["rollout_hawkes"])
def test_traced_smoke(workload):
    result, stdout = run(workload, trace=1)
    check(result, stdout, BENCH["per_layer"])
    assert result["metrics"]["simulator.run.calls"]["value"] == 1
    assert result["metrics"]["simulator.wakes"]["value"] > 0


def test_unpinned_seed():
    result, _ = run("fit_full", trace=0, seed=7)
    assert result["correct"] and result["attempted"] >= 2
