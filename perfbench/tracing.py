"""Spans around calls into qtrep's modules, recorded from outside.

The tracer replaces each traced function with a wrapper in every module
that holds a reference to it: the defining module's attribute and each
by-name import (``qtfit.ham_term``, ``lindblad.six_slot_main_term``,
``qtfit.build_generator``, the ``qtrep`` package re-exports).  A call
resolved through any of those names is therefore recorded.
``scipy.optimize.least_squares`` is wrapped the same way, to count the
Levenberg-Marquardt starts of ``qtfit.fit``.

A span holds its name, start, end, parent span and op id.  Spans are
kept in compact arrays and written out once, when the run ends.  Op ids
below zero are warm-up ops; their spans and counters are reported under
the ``setup.`` prefix.  Self time is a span's duration minus the time
its direct children cover; spans nest strictly in this single-threaded
program, so the children never overlap.

Counters are read from return values (``Trajectory`` arrays, CSV text,
``least_squares`` results) at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

from metrics import SETUP_METRICS, TIMED_METRICS

# (module, attribute, span name) of every traced function.
TRACED = (
    ("qtrep.cli", "main", "cli.main"),
    ("qtrep.dynamics", "integrate", "dynamics.integrate"),
    ("qtrep.lindblad", "bloch_rhs", "lindblad.bloch_rhs"),
    ("qtrep.lindblad", "bloch_entropy", "lindblad.bloch_entropy"),
    ("qtrep.lindblad", "qt_six_rhs", "lindblad.qt_six_rhs"),
    ("qtrep.pme", "bs_entropy", "pme.bs_entropy"),
    ("qtrep.pme", "build_generator", "pme.build_generator"),
    ("qtrep.pme", "stationary_state", "pme.stationary_state"),
    ("qtrep.pme", "spectrum", "pme.spectrum"),
    ("qtrep.qtfit", "fit", "qtfit.fit"),
    ("scipy.optimize", "least_squares", "qtfit.least_squares"),
    ("qtrep.multilinear", "ham_term", "multilinear.ham_term"),
    ("qtrep.multilinear", "main_term_bruteforce", "multilinear.main_term_bruteforce"),
    ("qtrep.multilinear", "six_slot_main_term", "multilinear.six_slot_main_term"),
    ("qtrep.relaxation", "scan", "relaxation.scan"),
    ("qtrep.relaxation", "classify", "relaxation.classify"),
    ("qtrep.composite", "qt_flow", "composite.qt_flow"),
    ("qtrep._jsonio", "csv_text", "jsonio.csv_text"),
    ("qtrep._jsonio", "dumps", "jsonio.dumps"),
    ("qtrep._jsonio", "atomic_write_text", "jsonio.atomic_write_text"),
)


def _count_integrate(counts, args, traj):
    counts["dynamics.steps"] += traj.times.size - 1
    counts["dynamics.states_bytes"] += sum(
        a.nbytes for a in (traj.times, traj.states, traj.sum_drift,
                           traj.entropy, traj.entropy_delta) if a is not None)


def _count_scan(counts, args, result):
    counts["relaxation.scan.samples"] += result.rates.shape[0]


def _count_csv(counts, args, text):
    counts["jsonio.csv_text.rows"] += text.count("\n") - 1
    counts["jsonio.csv_text.bytes"] += len(text)


def _count_dumps(counts, args, text):
    counts["jsonio.dumps.bytes"] += len(text)


def _count_write(counts, args, result):
    counts["jsonio.atomic_write_text.bytes"] += len(args[1])


def _count_lm(counts, args, sol):
    counts["qtfit.lm_starts"] += 1
    counts["qtfit.lm_nfev"] += int(sol.nfev)


def _count_fit(counts, args, rep):
    counts["qtfit.fit.residual_max"] = max(counts["qtfit.fit.residual_max"],
                                           float(rep.residual))


COUNTERS = {
    "dynamics.integrate": _count_integrate,
    "relaxation.scan": _count_scan,
    "jsonio.csv_text": _count_csv,
    "jsonio.dumps": _count_dumps,
    "jsonio.atomic_write_text": _count_write,
    "qtfit.least_squares": _count_lm,
    "qtfit.fit": _count_fit,
}

COUNT_NAMES = (
    "dynamics.steps", "dynamics.states_bytes", "relaxation.scan.samples",
    "jsonio.csv_text.rows", "jsonio.csv_text.bytes", "jsonio.dumps.bytes",
    "jsonio.atomic_write_text.bytes", "qtfit.lm_starts", "qtfit.lm_nfev",
    "qtfit.fit.residual_max",
)

class Tracer:
    """Records spans and counters while its wrappers are installed.

    ``start(op_id)`` installs the wrappers and ``stop()`` puts the
    original functions back, so untraced code never pays for them.
    """

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start_s = array("d")
        self.end_s = array("d")
        self._stack = []
        self.op_id = -1
        self.counts = {"setup": dict.fromkeys(COUNT_NAMES, 0),
                       "timed": dict.fromkeys(COUNT_NAMES, 0)}
        # (module, attribute, original, wrapper) for every name under
        # which a traced function is reachable.
        self._targets = []
        qtrep_modules = [m for k, m in list(sys.modules.items())
                         if m is not None and (k == "qtrep" or k.startswith("qtrep."))]
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            scope = qtrep_modules if module_name.startswith("qtrep") \
                else [sys.modules[module_name]]
            for module in scope:
                for key, value in vars(module).items():
                    if value is original:
                        self._targets.append((module, key, original, wrapper))

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start_s)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start_s.append(0.0)
            self.end_s.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start_s[idx] = t0
                self.end_s[idx] = t1
            if counter is not None:
                counter(self.counts["setup" if self.op_id < 0 else "timed"], args, result)
            return result

        return traced

    def start(self, op_id):
        """Install the wrappers; spans recorded from now on belong to op_id."""
        self.op_id = op_id
        for module, key, _, wrapper in self._targets:
            setattr(module, key, wrapper)

    def stop(self):
        for module, key, original, _ in self._targets:
            setattr(module, key, original)

    def span_totals(self, phase):
        """{span name: (calls, seconds, self seconds)} for one phase."""
        if not len(self.start_s):
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = np.frombuffer(self.end_s) - np.frombuffer(self.start_s)
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                      minlength=dur.size)
        in_phase = op < 0 if phase == "setup" else op >= 0
        out = {}
        for i, name in enumerate(self.names):
            mask = in_phase & (nid == i)
            out[name] = (int(mask.sum()), float(dur[mask].sum()),
                         float(self_time[mask].sum()))
        return out

    def metrics(self):
        """Per-layer metric values of both phases by name."""
        values = {}
        for phase, table, prefix in (("timed", TIMED_METRICS, ""),
                                     ("setup", SETUP_METRICS, "setup.")):
            totals = self.span_totals(phase)
            counts = self.counts[phase]
            for name, _, _ in table:
                if name == "qtfit.lm_useful_ratio":
                    continue
                if name in counts:
                    values[prefix + name] = counts[name]
                    continue
                span, _, field = name.rpartition(".")
                if name == "cli.self_s":
                    span, field = "cli.main", "self_s"
                calls, seconds, self_seconds = totals.get(span, (0, 0.0, 0.0))
                values[prefix + name] = {"calls": calls, "s": seconds,
                                         "self_s": self_seconds}[field]
        starts = values["qtfit.lm_starts"]
        values["qtfit.lm_useful_ratio"] = (
            values["qtfit.fit.calls"] / starts if starts else 0.0)
        return values

    def write_spans(self, path):
        """Write every span as CSV: op, name, start_s, end_s, parent."""
        lines = ["op,name,start_s,end_s,parent"]
        for i in range(len(self.start_s)):
            lines.append(f"{self.op[i]},{self.names[self.name_id[i]]},"
                         f"{self.start_s[i]!r},{self.end_s[i]!r},{self.parent[i]}")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
