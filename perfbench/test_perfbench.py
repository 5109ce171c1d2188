"""Self-test of the benchmark at a reduced size.

Run from the repository root (about two minutes on two CPUs)::

    python3 -m pytest -q -p no:cacheprovider perfbench/test_perfbench.py

It checks that the seed reaches the generated inputs, that every
workload's answers pass their checks, and that the deterministic
per-repetition counts repeat exactly across two traced runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().with_name("run.py")
ROOT = RUN.parent.parent

#: Counts that must repeat exactly, per workload.
DETERMINISTIC = {
    "campaign.adaptive": ("campaigns.cells_simulated", "core.join_nnz"),
    "serving.mixed": ("storage.block_reads", "simulation.runs",
                      "sampling.cells"),
    "dm2td.external": ("distributed.bytes_sent_per_job",),
}


def bench(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "2", "--trace", str(trace),
         "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    inputs = next(line.split()[-1] for line in lines
                  if line.startswith("# inputs "))
    return inputs, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(DETERMINISTIC))
def test_seed_and_counts(workload):
    inputs_a1, traced_1 = bench(workload, seed=3, trace=1)
    inputs_a2, traced_2 = bench(workload, seed=3, trace=1)
    inputs_b, plain = bench(workload, seed=4, trace=0)

    assert inputs_a1 == inputs_a2
    assert inputs_a1 != inputs_b
    for result in (traced_1, traced_2, plain):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    for name in DETERMINISTIC[workload]:
        first = traced_1["metrics"][name]["value"]
        assert first > 0, name
        assert first == traced_2["metrics"][name]["value"], name
    assert set(plain["metrics"]) == {"setup_s", "wall_s", "unit_p50_ms",
                                     "peak_rss_mb", "accuracy"}
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())
    trace = traced_1["metrics"]
    assert trace["trace.self_sum_s"]["value"] <= trace["trace.wall_s"]["value"]


def test_refuses_without_program():
    """With only the benchmark's own files (no ``src/``) it exits
    nonzero and prints no result."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(RUN.parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "campaign.adaptive", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
