"""qtrep benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload scan --seed 1 --seconds 1 --trace 0 --size tiny
    python3 perfbench/run.py --self-check

With ``--trace 0`` the workload runs in three fresh processes, one after
another.  Each sets up and then runs a third of the timed closed loop on
its own ops.  ``setup_s`` is the median of the three set-ups; the op
metrics pool the ops of all three, so they sample three time windows
spread over the whole run.  Each process's times are scaled to a fixed
host speed by the reference computation it times between ops
(reference.py); the raw times are printed and stored beside them.
With ``--trace 1`` one process sets up and runs a fixed number of ops
with spans recorded around qtrep's public functions, then runs the same
ops untraced to measure the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  A copy of the full
result, the run record and every failure is written to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json``.

This file uses the standard library only; the workload processes
(worker.py) import qtrep from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("trajectory", "scan", "fit")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOOP_PROCESSES = 3
# Op index offset between the loop processes, so each runs its own ops.
OP_OFFSET = 10**6
# Every run must end within 180 s; leave room for reporting.
DEADLINE_S = 170.0



class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def run_record(versions):
    return {
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: "1" for k in BLAS_VARS},
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


class Spawner:
    """Starts workload processes one at a time against a shared deadline."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, **{k: "1" for k in BLAS_VARS})

    def run(self, workload, seed, seconds, size, role, spans=None, first_op=0):
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--root", ROOT, "--workdir", self.workdir,
                "--workload", workload, "--seed", str(seed),
                "--seconds", repr(float(seconds)), "--size", size, "--role", role,
                "--first-op", str(first_op)]
        if spans:
            argv += ["--spans", spans]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a workload process")
        argv += ["--spawn-time", repr(time.monotonic())]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{role} process for {workload} timed out") from exc
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"{role} process for {workload} exited "
                             f"{proc.returncode}:\n{tail}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{role} process for {workload} printed nothing")
        return json.loads(lines[-1])


def speed_factor(run):
    """Scale for one process's times: nominal over its median reference time."""
    return run["ref_nominal_s"] / statistics.median(run["ref_s"])


def _timing_values(runs, factors):
    """Timing metrics of the loop processes, each scaled by its factor."""
    times = [t * f for r, f in zip(runs, factors) for t in r["op_s"]]
    failed = sum(r["failed"] for r in runs)
    return {
        "setup_s": statistics.median(r["setup_s"] * f for r, f in zip(runs, factors)),
        "op_p50_ms": statistics.median(times) * 1000.0,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1000.0,
        "ops_per_s": (len(times) - failed) / sum(times),
    }


def measure(spawner, workload, seed, seconds, size):
    """Untraced run: end-to-end metrics from three fresh processes."""
    runs = [spawner.run(workload, seed, seconds / LOOP_PROCESSES, size, "loop",
                        first_op=k * OP_OFFSET)
            for k in range(LOOP_PROCESSES)]
    ops = sum(len(r["op_s"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"ops": ops, "failed": failed, "versions": runs[0]["versions"],
              "deterministic": all(r["deterministic"] for r in runs)}
    factors = [speed_factor(r) for r in runs]
    values = _timing_values(runs, factors)
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    extra = {
        "failed_frac": failed / ops,
        "speed_factor_each": factors,
        "raw": _timing_values(runs, [1.0] * len(runs)),
        "setup_s_each": [r["setup_s"] for r in runs],
        "import_s_each": [r["import_s"] for r in runs],
        "peak_rss_mb_each": [r["peak_rss_mb"] for r in runs],
        "op_s_each": [r["op_s"] for r in runs],
        "ref_s_each": [r["ref_s"] for r in runs],
    }
    failures = [f for r in runs for f in r["failures"]]
    return result, metrics, failures, extra


def traced(spawner, workload, seed, seconds, size, spans):
    """Traced run: per-layer metrics from one process."""
    result = spawner.run(workload, seed, seconds, size, "trace", spans=spans)
    metrics = {name: {"value": result["layer"][name], "unit": unit}
               for name, unit, _ in PER_LAYER}
    extra = {"spans_file": os.path.relpath(spans, ROOT)}
    return result, metrics, result["failures"], extra


def _print_human(workload, seed, trace, result, metrics, failures, extra, record):
    print(f"qtrep benchmark  workload={workload}  seed={seed}  trace={trace}  "
          f"ops={result['ops']}  failed={result['failed']}")
    if not trace:
        print(f"  {'failed_frac':<44} {extra['failed_frac']:.6g} ratio")
        print(f"  {'speed factor (each process)':<44} "
              + " ".join(f"{f:.4g}" for f in extra["speed_factor_each"]))
    for name, metric in metrics.items():
        raw = extra.get("raw", {}).get(name)
        note = "" if raw is None else f"  (raw {raw:.6g})"
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}{note}")
    for failure in failures:
        print(f"  FAILED {failure['phase']} op {failure['op']} {failure['command']}: "
              f"{failure['reason']}; config: {json.dumps(failure['config'])}")
    print("record: " + json.dumps(record, sort_keys=True))


def run_workload(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    spawner = Spawner(workdir, time.monotonic() + DEADLINE_S)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{tag}.csv")
            result, metrics, failures, extra = traced(
                spawner, args.workload, args.seed, args.seconds, args.size, spans)
        else:
            result, metrics, failures, extra = measure(
                spawner, args.workload, args.seed, args.seconds, args.size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = run_record(result["versions"])
    _print_human(args.workload, args.seed, args.trace, result, metrics, failures,
                 extra, record)
    summary = {
        "correct": not failures and result["deterministic"],
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as handle:
        json.dump({"summary": summary, "record": record, "size": args.size,
                   "failures": failures, **extra}, handle, indent=1)
    print(json.dumps(summary))
    return summary


def _count_metrics(summary):
    """Per-layer values that must repeat exactly: everything but times."""
    return {name: m["value"] for name, m in summary["metrics"].items()
            if m["unit"] not in ("s", "1/s")}


def self_check():
    """Prove the harness works: tiny runs, repeatable counts, live checks.

    1. BENCHMARK.json lists exactly the metrics this harness prints.
    2. Every workload runs at tiny size with every op correct, untraced
       and traced, and two traced runs on one seed give equal counts.
    3. A scan CSV with one flipped digit is reported as failed.
    4. A copy of the harness without src/ exits non-zero, printing no
       result.
    """
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(table):
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")

    for workload in WORKLOADS:
        base = dict(workload=workload, seed=1, seconds=1.0, size="tiny")
        with contextlib.redirect_stdout(io.StringIO()):
            plain, first, second = (run_workload(argparse.Namespace(trace=t, **base))
                                    for t in (0, 1, 1))
        for name, summary in (("untraced", plain), ("traced", first)):
            if not summary["correct"]:
                problems.append(f"{workload}: {name} tiny run is not correct")
        a, b = _count_metrics(first), _count_metrics(second)
        for name in sorted(a):
            if a[name] != b[name]:
                problems.append(f"{workload}: {name} is {a[name]!r} then {b[name]!r}")
        print(f"{workload}: tiny runs correct={plain['correct']}/{first['correct']}, "
              f"{len(a)} traced counts compared")

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="check-", dir=OUT_DIR)
    try:
        spawner = Spawner(workdir, time.monotonic() + DEADLINE_S)
        found = spawner.run("scan", 1, 1.0, "tiny", "corrupt")
        if found["clean"] is not None or found["corrupted"] is None:
            problems.append(f"flipped digit in a scan CSV not detected: {found}")
        else:
            print(f"flipped digit detected: {found['corrupted']}")

        bare = os.path.join(workdir, "bare")
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a copy without src/ did not fail cleanly")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    print(json.dumps({"self_check": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="qtrep benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op so a run takes seconds")
    parser.add_argument("--self-check", action="store_true",
                        help="run the harness's own checks at tiny size")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "qtrep", "cli.py")):
        print(f"error: no qtrep sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
