"""Smoke test of the benchmark itself; never gates on timings.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_selftest.py

Every workload runs once untraced and once traced at the minimal length.
Each must exit 0, end with the result object, print every declared metric
by name with its unit, and pass its output checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
# every workload, gated or not, and the end-to-end metrics it reports
# beside the declared ones
EXTRA = {"medium": ["payload_bits_per_s", "R_measured", "D_measured", "failed_frac"],
         "multirate": ["payload_bits_per_s", "R_measured", "D_measured", "failed_frac"],
         "ingest": ["payload_bits_per_s", "failed_frac"],
         "analytics": ["failed_frac"]}
WORKLOADS = list(EXTRA)


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    report = lines[:-1]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}")
                   for ln in report), m["name"]
    if not trace:
        for name in EXTRA[workload]:
            assert any(ln.startswith(f"{name} = ") for ln in report), name
        assert any(ln.startswith("machine nproc=") for ln in report)
        assert any(ln.startswith("op_tail_ms is p") for ln in report)


def test_fails_without_the_program():
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run exits non-zero and prints no result."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
