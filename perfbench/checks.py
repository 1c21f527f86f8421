"""Output checks for every op the benchmark runs.

Each checker reads the files one CLI call wrote and returns ``None``
when they are right or a one-line reason when they are not.  The checks
recompute what they can with plain numpy instead of trusting the
program's own report; only ``qt-fit`` rebuilds the represented flow with
``qtrep.qtfit``, because the ham-term matrices have no independent
closed form here.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Tolerances are the program's own contract (README and ROADMAP).
FIT_RESIDUAL_TOL = 1e-8
IDENTITY_TOL = 1e-12
KERNEL_TOL = 1e-9
SUM_TOL = 1e-9
# A scan sample whose |disc| is below this share of max(1, xi**2) sits
# on the monotonic/oscillatory boundary (relaxation.BOUNDARY_BAND).
BOUNDARY_BAND = 1e-9
# Relative agreement of recomputed scan columns with the CSV.
SCAN_RTOL = 1e-12

SCAN_HEADER = "a,b,c,d,e,f,xi,disc,omega,u,v,monotonic"


def output_files(command, out_base):
    """Files one op writes, in a fixed order."""
    if command in ("pme-solve", "lindblad", "relax-scan"):
        return [out_base + ".csv", out_base + ".json"]
    return [out_base + ".json"]


def _read(path):
    with open(path) as handle:
        return handle.read()


def _generator(w):
    gen = np.array(w, dtype=float)
    np.fill_diagonal(gen, 0.0)
    gen -= np.diag(gen.sum(axis=0))
    return gen


def _trajectory_rows(t_end, dt, stride):
    steps = round(t_end / dt)
    recorded = steps + 1
    return len(range(0, recorded, stride)) + (1 if (recorded - 1) % stride else 0)


def _check_trajectory_csv(text, cfg, dim):
    lines = text.rstrip("\n").split("\n")
    header = ["t"] + [f"y{i + 1}" for i in range(dim)] + ["entropy", "sum_drift"]
    if lines[0] != ",".join(header):
        return f"csv header {lines[0]!r}"
    expected = _trajectory_rows(cfg["t_end"], cfg["dt"], cfg.get("stride", 1))
    if len(lines) - 1 != expected:
        return f"csv has {len(lines) - 1} rows, expected {expected}"
    last = lines[-1].split(",")
    if len(last) != len(header) or float(last[0]) != cfg["t_end"]:
        return f"last csv row {lines[-1][:60]!r} does not end at t_end"
    return None


def check_pme_solve(cfg, out_base):
    report = json.loads(_read(out_base + ".json"))
    n = len(cfg["W"])
    p = np.array(report["stationary"], dtype=float)
    if p.shape != (n,) or abs(math.fsum(p) - 1.0) > SUM_TOL:
        return f"stationary {p.tolist()} does not sum to 1"
    gen = _generator(cfg["W"])
    flow = float(np.max(np.abs(gen @ p)))
    if flow > KERNEL_TOL * max(1.0, float(np.max(np.abs(gen)))):
        return f"|L p| = {flow:.3e} at the reported stationary state"
    final = np.array(report["final_state"], dtype=float)
    if abs(math.fsum(final) - 1.0) > SUM_TOL:
        return f"final state sums to {math.fsum(final)!r}"
    return _check_trajectory_csv(_read(out_base + ".csv"), cfg, n)


def check_lindblad(cfg, out_base):
    report = json.loads(_read(out_base + ".json"))
    if cfg.get("gradient_check", True):
        for key in ("gradient_identity_residual", "six_variable_equivalence_residual"):
            if not report[key] <= IDENTITY_TOL:
                return f"{key} = {report[key]!r} above {IDENTITY_TOL}"
    if len(report["P_final"]) != 3:
        return "P_final is not a 3-vector"
    return _check_trajectory_csv(_read(out_base + ".csv"), cfg, 3)


def check_qt_fit(cfg, out_base):
    from qtrep.qtfit import QTRepresentation, flow_matrix

    document = json.loads(_read(out_base + ".json"))
    if not document["residual"] <= FIT_RESIDUAL_TOL:
        return f"residual {document['residual']!r} above {FIT_RESIDUAL_TOL}"
    rep = QTRepresentation.from_json_dict(document)
    n = len(cfg["W"])
    diff = flow_matrix(rep) - _generator(cfg["W"])
    # Tangent directions e_b - e_{b+1} and the centroid span R^n.
    dirs = np.vstack([np.eye(n)[:-1] - np.eye(n)[1:], np.full(n, 1.0 / n)])
    rebuilt = float(np.max(np.abs(diff @ dirs.T)))
    if rebuilt > FIT_RESIDUAL_TOL:
        return f"flow rebuilt from q, r misses the generator by {rebuilt:.3e}"
    return None


def _parse_scan_csv(path):
    # loadtxt parses in C and in chunks, so the check's own memory stays
    # below that of the CSV text the program builds.
    with open(path) as handle:
        header = handle.readline().rstrip("\n")
    if header != SCAN_HEADER:
        return None, None, f"csv header {header!r}"
    table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(11), ndmin=2)
    flags = np.loadtxt(path, delimiter=",", skiprows=1, usecols=[11], dtype=str, ndmin=1)
    if not np.all((flags == "true") | (flags == "false")):
        return None, None, "monotonic column holds values other than true/false"
    return table, flags == "true", None


def check_relax_scan(cfg, out_base):
    table, flags, reason = _parse_scan_csv(out_base + ".csv")
    if reason:
        return reason
    samples = cfg["samples"]
    if table.shape[0] != samples:
        return f"csv has {table.shape[0]} rows, expected {samples}"
    rates = table[:, :6]
    a, b, c, d, e, f = rates.T
    xi = rates.sum(axis=1)
    disc = xi * xi - 4.0 * ((c + d + f) * (a + b + e) - (e - c) * (f - a))
    omega = (a + d + e) - (b + c + f)
    l, m = f - a, b - d
    scale = np.maximum(1.0, xi * xi)
    for name, col, value, ref in (
        ("xi", 6, xi, xi), ("disc", 7, disc, scale), ("omega", 8, omega, xi),
        ("u", 9, l + m, xi), ("v", 10, l - m, xi),
    ):
        err = np.abs(table[:, col] - value) / np.maximum(1.0, ref)
        if np.any(err > SCAN_RTOL):
            row = int(np.argmax(err))
            return f"row {row}: {name} does not match the rates in that row"
    boundary = np.abs(disc) < BOUNDARY_BAND * scale
    monotonic = disc >= 0.0
    wrong_flag = (flags != monotonic) & ~boundary
    if np.any(wrong_flag):
        return f"row {int(np.argmax(wrong_flag))}: monotonic flag disagrees with disc"
    if cfg.get("constrain_omega_zero") and np.any(np.abs(omega) > SCAN_RTOL * np.maximum(1.0, xi)):
        return "omega is not zero under constrain_omega_zero"
    summary = json.loads(_read(out_base + ".json"))
    if summary["samples"] != samples:
        return f"summary samples {summary['samples']} != {samples}"
    fraction = 1.0 - float(monotonic.mean())
    slack = boundary.sum() / samples + 1e-12
    if abs(summary["oscillatory_fraction"] - fraction) > slack:
        return (f"oscillatory_fraction {summary['oscillatory_fraction']!r} != "
                f"recomputed {fraction!r}")
    bins = summary["omega_bins"]
    if len(bins) != cfg.get("bins", 10) or sum(b["count"] for b in bins) != samples:
        return "omega_bins counts do not sum to samples"
    return None


def check_relax_classify(cfg, out_base):
    report = json.loads(_read(out_base + ".json"))
    if report["monotonic"] != (report["disc"] >= 0.0):
        return f"monotonic {report['monotonic']} but disc {report['disc']!r}"
    a, b, c, d, e, f = cfg["rates"]
    xi = a + b + c + d + e + f
    disc = xi * xi - 4.0 * ((c + d + f) * (a + b + e) - (e - c) * (f - a))
    if abs(report["disc"] - disc) > 1e-12 * max(1.0, xi * xi):
        return f"disc {report['disc']!r} != recomputed {disc!r}"
    roots = sum(complex(re, im) for re, im in report["eigenvalues"])
    if abs(roots + xi) > 1e-12 * max(1.0, xi):
        return f"eigenvalues sum to {roots!r}, expected {-xi!r}"
    return None


def check_composite(cfg, out_base):
    report = json.loads(_read(out_base + ".json"))
    if not report["gradient_residual"] <= IDENTITY_TOL:
        return f"gradient_residual {report['gradient_residual']!r} above {IDENTITY_TOL}"
    if abs(math.fsum(report["stationary"]) - 1.0) > SUM_TOL:
        return "stationary does not sum to 1"
    return None


CHECKERS = {
    "pme-solve": check_pme_solve,
    "lindblad": check_lindblad,
    "qt-fit": check_qt_fit,
    "relax-scan": check_relax_scan,
    "relax-classify": check_relax_classify,
    "composite": check_composite,
}


def check_op(command, cfg, out_base, exit_code):
    """Reason the op failed, or None when its outputs are right."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    for path in output_files(command, out_base):
        if not os.path.exists(path):
            return f"missing output {os.path.basename(path)}"
    try:
        return CHECKERS[command](cfg, out_base)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
