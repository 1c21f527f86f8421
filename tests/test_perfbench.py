"""Smoke tests of the benchmark harness on each of its workloads.

The harness rebuilds every fitted flow from the written q and r and
checks it against the generator, independently of qtfit's own residual,
recomputes every column of every scan CSV from its rates, and checks
each trajectory's stationary state, final state and CSV rows.  The
traced names are checked here too: a run without --trace never looks
them up.
"""

import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np

from qtrep import dynamics

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


def test_traced_qtrep_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    traced = [(module, attr) for module, attr, _ in tracing.TRACED
              if module == "qtrep" or module.startswith("qtrep.")]
    assert traced
    for module, attr in traced:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)

    read = set(re.findall(r"traj\.(\w+)", inspect.getsource(tracing._count_integrate)))
    fields = {field.name for field in dataclasses.fields(dynamics.Trajectory)}
    assert read and read <= fields
    counts = dict.fromkeys(tracing.COUNT_NAMES, 0)
    for entropy in (None, lambda rows: rows[:, 0]):
        traj = dynamics.integrate(lambda y: -y, np.ones(2), 0.1, 0.05, entropy=entropy)
        tracing._count_integrate(counts, (), traj)
    assert counts["dynamics.steps"] == 4
    assert counts["dynamics.states_bytes"] == 2 * (3 + 6 + 3) * 8 + 2 * 3 * 8
