"""Smoke tests of the benchmark itself (tiny inputs, a few seconds each).

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def bench(*extra: str, cwd: Path = ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done.returncode, done.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    status, stdout = bench("--workload", workload, "--trace", trace, "--smoke")
    assert status == 0
    payload = result(stdout)
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True
    assert payload["failed"] == 0 and payload["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: entry["unit"] for name, entry in payload["metrics"].items()
    } == {entry["name"]: entry["unit"] for entry in declared}
    for entry in payload["metrics"].values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_expected_answer_counts_as_failed(workload):
    status, stdout = bench(
        "--workload", workload, "--trace", "0", "--smoke", "--wrong-answer"
    )
    assert status == 0
    payload = result(stdout)
    assert payload["correct"] is False
    assert payload["failed"] >= 1
    assert payload["metrics"]["success_ratio"]["value"] < 1.0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    status, stdout = bench("--workload", "explore", "--trace", "0", cwd=tmp_path)
    assert status != 0
    assert not stdout.strip()
