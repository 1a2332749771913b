"""The benchmark's own tests: deterministic inputs, declared metrics, smoke runs.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)


def _run_bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    digests = []
    for out, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs = workloads.generate(workload, seed, str(tmp_path / out))
        digests.append(checks.tree_digest(inputs.data_dir))
        assert inputs.files and all(f.wrong for f in inputs.files)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_declared_workloads_match_definitions():
    declared = {w["name"]: w["why"] for w in DECLARED["workloads"]}
    assert declared == {name: w.why for name, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_declared_metrics(trace):
    rc, lines = _run_bench(
        "--workload", "captions_mismatch_block", "--seed", "3", "--seconds", "1",
        "--trace", trace,
    )
    assert rc == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "1":
        # the block of wrong lines must take the grow-and-skip path
        assert result["metrics"]["aligner.grows"]["value"] > 0
        assert result["metrics"]["aligner.skips"]["value"] >= 1
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_run_with_workers_check():
    rc, lines = _run_bench(
        "--workload", "plaintext_batch", "--seed", "3", "--seconds", "1", "--trace", "0",
    )
    assert rc == 0, lines
    assert json.loads(lines[-1])["correct"] is True


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__")
    )
    rc, lines = _run_bench(
        "--workload", "plaintext_batch", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
