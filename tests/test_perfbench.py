"""Smoke tests of the benchmark harness on each of its workloads.

The harness rebuilds every fitted flow from the written q and r and
checks it against the generator, independently of qtfit's own residual,
recomputes every column of every scan CSV from its rates, and checks
each trajectory's stationary state, final state and CSV rows.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_tiny(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fit_workload_tiny_run_is_correct():
    summary = run_tiny("fit")
    assert summary["correct"] is True
    assert summary["failed"] == 0


def test_scan_workload_tiny_run_is_correct():
    summary = run_tiny("scan")
    assert summary["correct"] is True
    assert summary["failed"] == 0


def test_trajectory_workload_tiny_run_is_correct():
    summary = run_tiny("trajectory")
    assert summary["correct"] is True
    assert summary["failed"] == 0
