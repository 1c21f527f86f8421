"""Smoke test of the benchmark harness on the fit workload.

The harness rebuilds every fitted flow from the written q and r and
checks it against the generator, independently of qtfit's own residual.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fit_workload_tiny_run_is_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "fit",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
