"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs with ``--smoke`` (tiny inputs, all output checks on),
untraced and traced. Every workload must print exactly the metrics
BENCHMARK.json declares, with their units, each above 0. It is
not part of the repository's test suite: it starts depot processes and
takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_declared_metrics_match_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert PER_LAYER == spans.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(declared)
    for metric, reading in result["metrics"].items():
        assert reading["unit"] == declared[metric]
        assert reading["value"] > 0, metric


def test_refuses_without_sources():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for entry in os.listdir(HERE):
        if entry.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, entry), os.path.join(bare, "bench"))
    proc = run_bench("--workload", "bulk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
