"""One workload process: import qtrep, warm up, run ops, check them.

Started by run.py, one process at a time, with the BLAS thread
variables pinned to 1.  It drives the real CLI in-process through
``qtrep.cli.main([command, "--config", path])`` as a closed loop with
one client, and prints one JSON document as its last stdout line.

Roles:

* ``loop``:  import and warm up (the set-up), then run timed ops from
  ``--first-op`` on until their summed time reaches ``--seconds``; each
  op is checked after its clock stops.  After the set-up, and between
  ops with the clock stopped, it times the reference computation
  (reference.py) that run.py uses to scale its times to a fixed host
  speed.
* ``trace``: set up with the tracer on, then run a fixed number of ops,
  each once traced and once untraced, for the per-layer metrics and the
  tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from time import perf_counter

# Traced ops per second of --seconds, about half the untraced rate on a
# 2-core x86 VM, so the traced and the untraced runs of each op fit in
# about --seconds.
# Fixed numbers, so two traced runs of one seed run the same ops.
TRACE_OPS_PER_S = {
    "full": {"trajectory": 3.0, "scan": 2.5, "fit": 20.0},
    "tiny": {"trajectory": 6.0, "scan": 6.0, "fit": 6.0},
}


# Reference samples taken right after the set-up, and the op time after
# which the loop takes the next one.
REF_SETUP_SAMPLES = 5
REF_EVERY_S = 0.1


def trace_op_count(workload, size, seconds):
    return max(1, round(TRACE_OPS_PER_S[size][workload] * seconds))


class Runner:
    """Writes op configs, calls the CLI, and checks its outputs."""

    def __init__(self, cli, checks, workdir):
        self.cli = cli
        self.checks = checks
        self.config_path = os.path.join(workdir, "config.json")
        self.failures = []

    def call(self, op, out_base, tracer=None, op_id=0):
        """Run one op; return (seconds inside cli.main, failure reason)."""
        cfg = dict(op.config, out=out_base)
        with open(self.config_path, "w") as handle:
            json.dump(cfg, handle)
        argv = [op.command, "--config", self.config_path]
        stderr = io.StringIO()
        code = None
        error = None
        if tracer is not None:
            tracer.start(op_id)
        with contextlib.redirect_stderr(stderr):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # an op that raises fails
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.stop()
        reason = error or self.checks.check_op(op.command, cfg, out_base, code)
        if reason and stderr.getvalue():
            reason += f" ({stderr.getvalue().strip().splitlines()[-1]})"
        return elapsed, reason

    def record_failure(self, phase, index, op, reason):
        self.failures.append({"phase": phase, "op": index, "kind": op.kind,
                              "command": op.command, "reason": reason,
                              "config": op.config})

    def output_bytes(self, op, out_base):
        out = []
        for path in self.checks.output_files(op.command, out_base):
            with open(path, "rb") as handle:
                out.append(handle.read())
        return out


def _flip_digit(path):
    """Change the first decimal digit of the first cell of a middle row."""
    with open(path) as handle:
        lines = handle.read().split("\n")
    row = len(lines) // 2
    cell, _, rest = lines[row].partition(",")
    pos = next(i for i in range(cell.index(".") + 1, len(cell)) if cell[i].isdigit())
    digit = str((int(cell[pos]) + 5) % 10)
    lines[row] = cell[:pos] + digit + cell[pos + 1:] + "," + rest
    with open(path, "w") as handle:
        handle.write("\n".join(lines))


def corrupt_check(runner, workloads, args):
    """Check one scan op, flip a digit in its CSV, and check it again."""
    op = workloads.timed_op("scan", args.seed, 0, args.size)
    out_base = os.path.join(args.workdir, "corrupt")
    _, clean = runner.call(op, out_base)
    _flip_digit(out_base + ".csv")
    corrupted = runner.checks.check_op(op.command, dict(op.config, out=out_base),
                                       out_base, 0)
    return {"clean": clean, "corrupted": corrupted}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--role", choices=("loop", "trace", "corrupt"), required=True)
    parser.add_argument("--first-op", type=int, default=0)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    from qtrep import cli
    import qtrep

    if not os.path.abspath(qtrep.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported qtrep from {qtrep.__file__}, not from {src}")
    import numpy
    import scipy

    import checks
    import reference
    import tracing
    import workloads

    import_s = time.monotonic() - args.spawn_time
    runner = Runner(cli, checks, args.workdir)
    tracer = tracing.Tracer() if args.role == "trace" else None

    warm_start = perf_counter()
    for j, op in enumerate(workloads.warmup_ops(args.workload, args.seed, args.size)):
        _, reason = runner.call(op, os.path.join(args.workdir, f"warm{j}"), tracer, -1 - j)
        if reason:
            runner.record_failure("warmup", j, op, reason)
    warmup_s = perf_counter() - warm_start
    setup_s = time.monotonic() - args.spawn_time

    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.role == "corrupt":
        print(json.dumps(corrupt_check(runner, workloads, args)))
        return 0

    op_out = os.path.join(args.workdir, "op")
    first = None

    def run_op(i, traced):
        nonlocal first
        op = workloads.timed_op(args.workload, args.seed, i, args.size)
        elapsed, reason = runner.call(op, op_out, tracer if traced else None, i)
        if reason:
            runner.record_failure("timed", i, op, reason)
        elif i == args.first_op and not traced:
            first = runner.output_bytes(op, op_out)
        return elapsed, reason

    times = []
    ref_s = []
    failed = 0
    if args.role == "loop":
        # The first reference sample is a warm-up and is not kept.
        reference.sample()
        ref_s.extend(reference.sample() for _ in range(REF_SETUP_SAMPLES))
        # The loop ends on a cycle boundary, so every run holds the same
        # mix of op kinds.
        cycle = workloads.cycle_length(args.workload, args.size)
        total = 0.0
        since_ref = 0.0
        while total < args.seconds or len(times) % cycle:
            elapsed, reason = run_op(args.first_op + len(times), False)
            times.append(elapsed)
            total += elapsed
            failed += reason is not None
            since_ref += elapsed
            if since_ref >= REF_EVERY_S:
                ref_s.append(reference.sample())
                since_ref = 0.0
    else:
        # Each op runs traced and untraced back to back, in alternating
        # order, so a change in machine speed hits both passes alike.
        untraced = []
        for i in range(trace_op_count(args.workload, args.size, args.seconds)):
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                elapsed, reason = run_op(i, traced)
                (times if traced else untraced).append(elapsed)
                failed += traced and reason is not None

    # Determinism: the first op run again at the end, under another out
    # path, writes the same bytes as its first run.
    op0 = workloads.timed_op(args.workload, args.seed, args.first_op, args.size)
    again = os.path.join(args.workdir, "again")
    _, reason = runner.call(op0, again)
    deterministic = (reason is None and first is not None
                     and runner.output_bytes(op0, again) == first)
    if not deterministic:
        runner.record_failure("determinism", args.first_op, op0,
                              reason or "rerun of the first op wrote different bytes")

    result.update({
        "ops": len(times),
        "failed": failed,
        "failures": runner.failures,
        "deterministic": deterministic,
        "op_s": times,
        "ref_s": ref_s,
        "ref_nominal_s": reference.NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if args.role == "trace":
        layer = tracer.metrics()
        traced_rate = (len(times) - failed) / sum(times)
        untraced_rate = len(untraced) / sum(untraced)
        layer.update({
            "setup.import_s": import_s,
            "setup.warmup_s": warmup_s,
            "trace.ops": len(times),
            "trace.ops_per_s": traced_rate,
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.overhead_ops_per_s": untraced_rate - traced_rate,
        })
        result["layer"] = layer
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
