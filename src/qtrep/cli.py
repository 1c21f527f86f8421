"""Command-line interface.

Every subcommand reads one JSON config file, validates it against its
schema (unknown keys are rejected), computes, and writes results
atomically.  Outputs are byte-identical for identical configs and
seeds.  Exit codes: 0 success, 2 invalid input, 3 fit residual above
1e-8.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import _jsonio, composite, dynamics, lindblad, pme, qtfit, relaxation
from .errors import FitNonConvergenceError, InputError, QtrepError

_COMMON_KEYS = "Common keys: seed (int, default 0), precision (int, default 17)."

_SCHEMAS = {
    "pme-solve": (
        "Integrate a master equation and report its stationary state.\n"
        "Config: {W: NxN rate matrix, p0: length-N probabilities, t_end: "
        "number, dt: number (default 1e-3 / max rate), stride: int "
        "(default 1), out: path base}. " + _COMMON_KEYS + "\n"
        "Writes <out>.csv (t, y1..yN, entropy, sum_drift) and <out>.json."
    ),
    "qt-fit": (
        "Fit a quadratic-entropy representation to a rate matrix.\n"
        "Config: {W: NxN rate matrix, out: path base}. " + _COMMON_KEYS + "\n"
        "The fit is the closed-form Sylvester solve, for any N; it draws "
        "no random numbers, so seed has no effect.  Writes <out>.json "
        "with fields n, q, r, subsets, norm, residual.  Exit code 3 if the "
        "flow residual is above 1e-8 (the representation is still "
        "written)."
    ),
    "relax-classify": (
        "Classify the relaxation character of a three-state chain.\n"
        "Config: {rates: [a, b, c, d, e, f], out: path base (optional, "
        "stdout when absent)}. " + _COMMON_KEYS
    ),
    "relax-scan": (
        "Sample rate space and classify each sample.\n"
        "Config: {samples: int, ranges: [lo, hi] or six pairs (default "
        "[0, 1]), constrain_omega_zero: bool (default false), bins: int "
        "(default 10), out: path base}. " + _COMMON_KEYS + "\n"
        "Writes <out>.csv (a,b,c,d,e,f,xi,disc,omega,u,v,monotonic) and "
        "<out>.json with the oscillatory fractions.  The sample order in "
        "the output is the sampling order."
    ),
    "lindblad": (
        "Integrate a two-level dissipative channel in Bloch form.\n"
        "Config: {channel: {h: [3] (default zero), dissipators: "
        "[{A: [3], B: [3]}, ...]}, P0: [3], t_end: number, dt: number "
        "(default 1e-3 / rate scale), stride: int (default 1), "
        "gradient_check: bool (default true), out: path base}. "
        + _COMMON_KEYS + "\n"
        "gradient_check requires a single dissipator and h = 0; other "
        "channels are rejected (exit 2) unless it is set to false."
    ),
    "composite": (
        "Report the coupled two-by-two system at its gradient coupling.\n"
        "Config: {a: rate, c: rate, k: Boltzmann constant (default 1), "
        "out: path base (optional, stdout when absent)}. " + _COMMON_KEYS
    ),
}


def _fail(message):
    raise InputError(message)


def _load_config(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        _fail(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"config {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        _fail(f"config {path} must be a JSON object")
    return data


def _check_keys(cfg, allowed, command):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        _fail(f"unknown config keys for {command}: {', '.join(unknown)}")


def _get_number(cfg, key, default=None, positive=False):
    if key not in cfg:
        if default is None and positive:
            _fail(f"missing required key: {key}")
        return default
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{key} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        _fail(f"{key} must be finite")
    if positive and value <= 0.0:
        _fail(f"{key} must be positive, got {value!r}")
    return value


def _get_int(cfg, key, default, minimum):
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        _fail(f"{key} must be >= {minimum}, got {value}")
    return value


def _get_bool(cfg, key, default):
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        _fail(f"{key} must be a boolean, got {value!r}")
    return value


def _get_out(cfg, required=True):
    if "out" not in cfg:
        if required:
            _fail("missing required key: out")
        return None
    value = cfg["out"]
    if not isinstance(value, str) or not value:
        _fail(f"out must be a non-empty path string, got {value!r}")
    directory = os.path.dirname(os.path.abspath(value))
    if not os.path.isdir(directory):
        _fail(f"out directory does not exist: {directory}")
    return value


def _get_matrix(cfg, key="W"):
    if key not in cfg:
        _fail(f"missing required key: {key}")
    try:
        arr = np.array(cfg[key], dtype=float)
    except (TypeError, ValueError):
        _fail(f"{key} must be a numeric matrix")
    if arr.ndim != 2:
        _fail(f"{key} must be a matrix, got array of dimension {arr.ndim}")
    return arr


def _get_vector(cfg, key, length=None):
    if key not in cfg:
        _fail(f"missing required key: {key}")
    try:
        arr = np.array(cfg[key], dtype=float)
    except (TypeError, ValueError):
        _fail(f"{key} must be a numeric vector")
    if arr.ndim != 1:
        _fail(f"{key} must be a vector")
    if length is not None and arr.size != length:
        _fail(f"{key} must have length {length}, got {arr.size}")
    return arr


def _write_json(out_base, document, precision):
    text = _jsonio.dumps(document, precision=precision)
    if out_base is None:
        sys.stdout.write(text)
    else:
        _jsonio.atomic_write_text(out_base + ".json", text)


def _write_trajectory(out_base, traj, stride, precision):
    dim = traj.states.shape[1]
    header = ["t"] + [f"y{i + 1}" for i in range(dim)] + ["entropy", "sum_drift"]
    count = traj.times.size
    rows = np.arange(0, count, stride)
    if rows[-1] != count - 1:
        rows = np.append(rows, count - 1)
    entropy = np.full(rows.size, np.nan) if traj.entropy is None else traj.entropy[rows]
    columns = [traj.times[rows], *traj.states[rows].T, entropy, traj.sum_drift[rows]]
    text = _jsonio.csv_text(header, columns, precision)
    _jsonio.atomic_write_text(out_base + ".csv", text)


def _cmd_pme_solve(cfg):
    _check_keys(
        cfg, ("W", "p0", "t_end", "dt", "stride", "out", "seed", "precision"),
        "pme-solve",
    )
    precision = _get_int(cfg, "precision", 17, 1)
    _get_int(cfg, "seed", 0, 0)
    stride = _get_int(cfg, "stride", 1, 1)
    out = _get_out(cfg)
    w = pme.TransitionMatrix(_get_matrix(cfg))
    p0 = pme.ProbabilityState(_get_vector(cfg, "p0", w.n))
    t_end = _get_number(cfg, "t_end", positive=True)
    max_rate = float(np.max(w.w))
    dt = _get_number(cfg, "dt", default=1e-3 / max_rate if max_rate > 0 else 1e-3)
    if dt <= 0:
        _fail(f"dt must be positive, got {dt!r}")

    gen = pme.build_generator(w)
    flags = pme.classify_w(w)
    spec = pme.spectrum(w)
    traj = dynamics.integrate(
        lambda y: gen @ y,
        p0.p,
        t_end,
        dt,
        entropy=lambda y: pme.bs_entropy(np.clip(y, 0.0, 1.0)),
    )
    stationary = pme.stationary_state(w)
    report = {
        "n": w.n,
        "dt": dt,
        "stationary": [float(v) for v in stationary.p],
        "eigenvalues": [[float(z.real), float(z.imag)] for z in spec.eigenvalues],
        "zero_mode_index": spec.zero_mode_index,
        "symmetric": flags.symmetric,
        "doubly_stochastic": flags.doubly_stochastic,
        "final_state": [float(v) for v in traj.final_state],
    }
    _write_trajectory(out, traj, stride, precision)
    _write_json(out, report, precision)
    return 0


def _cmd_qt_fit(cfg):
    _check_keys(cfg, ("W", "out", "seed", "precision"), "qt-fit")
    precision = _get_int(cfg, "precision", 17, 1)
    _get_int(cfg, "seed", 0, 0)
    out = _get_out(cfg)
    w = pme.TransitionMatrix(_get_matrix(cfg))
    try:
        rep = qtfit.fit(w)
    except FitNonConvergenceError as exc:
        _write_json(out, exc.best.to_json_dict(), precision)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_json(out, rep.to_json_dict(), precision)
    return 0


def _cmd_relax_classify(cfg):
    _check_keys(cfg, ("rates", "out", "seed", "precision"), "relax-classify")
    precision = _get_int(cfg, "precision", 17, 1)
    _get_int(cfg, "seed", 0, 0)
    out = _get_out(cfg, required=False)
    rates = relaxation.ThreeStateRates(*_get_vector(cfg, "rates", 6))
    report = relaxation.classify(rates)
    document = {"rates": list(rates.as_tuple()), **report.to_json_dict()}
    _write_json(out, document, precision)
    return 0


def _cmd_relax_scan(cfg):
    _check_keys(
        cfg,
        ("samples", "ranges", "constrain_omega_zero", "bins", "out", "seed", "precision"),
        "relax-scan",
    )
    precision = _get_int(cfg, "precision", 17, 1)
    seed = _get_int(cfg, "seed", 0, 0)
    out = _get_out(cfg)
    if "samples" not in cfg:
        _fail("missing required key: samples")
    samples = _get_int(cfg, "samples", None, 1)
    grid = relaxation.ScanGrid(
        ranges=cfg.get("ranges", (0.0, 1.0)),
        samples=samples,
        constrain_omega_zero=_get_bool(cfg, "constrain_omega_zero", False),
        bins=_get_int(cfg, "bins", 10, 1),
    )
    result = relaxation.scan(grid, seed=seed)
    header = ["a", "b", "c", "d", "e", "f", "xi", "disc", "omega", "u", "v", "monotonic"]
    columns = [*result.rates.T, result.xi, result.disc, result.omega, result.u,
               result.v, result.monotonic]
    text = _jsonio.csv_text(header, columns, precision)
    _jsonio.atomic_write_text(out + ".csv", text)
    summary = {
        "samples": grid.samples,
        "oscillatory_fraction": result.oscillatory_fraction,
        "omega_bins": result.omega_bins(grid.bins),
    }
    _write_json(out, summary, precision)
    return 0


def _cmd_lindblad(cfg):
    _check_keys(
        cfg,
        ("channel", "P0", "t_end", "dt", "stride", "gradient_check", "out",
         "seed", "precision"),
        "lindblad",
    )
    precision = _get_int(cfg, "precision", 17, 1)
    seed = _get_int(cfg, "seed", 0, 0)
    stride = _get_int(cfg, "stride", 1, 1)
    out = _get_out(cfg)
    if "channel" not in cfg or not isinstance(cfg["channel"], dict):
        _fail("missing or malformed key: channel")
    channel = lindblad.LindbladChannel.from_dict(cfg["channel"])
    if not channel.dissipators:
        _fail("channel needs at least one dissipator")
    p0 = _get_vector(cfg, "P0", 3)
    t_end = _get_number(cfg, "t_end", positive=True)
    rate_scale = float(np.linalg.norm(channel.h)) + sum(
        float(a @ a + b @ b) for a, b in channel.dissipators
    )
    dt = _get_number(cfg, "dt", default=1e-3 / rate_scale if rate_scale > 0 else 1e-3)
    if dt <= 0:
        _fail(f"dt must be positive, got {dt!r}")
    gradient_check = _get_bool(cfg, "gradient_check", True)

    entropy = None
    report = {"dt": dt}
    if gradient_check:
        a, b = lindblad.require_gradient_form(channel)
        entropy = lambda y: lindblad.bloch_entropy(a, b, y)
        p_st = lindblad.stationary_bloch(a, b)
        rng = np.random.default_rng(seed)
        grad_resid = 0.0
        six_resid = 0.0
        for _ in range(20):
            direction = rng.standard_normal(3)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                continue
            sample = direction / norm * rng.uniform(0.0, 1.0)
            flow = lindblad.bloch_rhs(channel, sample)
            grad = lindblad.gradient_rhs(a, b, sample)
            grad_resid = max(grad_resid, float(np.max(np.abs(flow - grad))))
            six = lindblad.extract_bloch(
                lindblad.qt_six_rhs(a, b, lindblad.embed_six(sample))
            )
            six_resid = max(six_resid, float(np.max(np.abs(six - grad))))
        report.update(
            {
                "P_st": [float(v) for v in p_st],
                "P_st_abs": float(np.linalg.norm(p_st)),
                "gradient_identity_residual": grad_resid,
                "six_variable_equivalence_residual": six_resid,
            }
        )

    traj = dynamics.integrate(
        lambda y: lindblad.bloch_rhs(channel, y), p0, t_end, dt, entropy=entropy
    )
    report["P_final"] = [float(v) for v in traj.final_state]
    _write_trajectory(out, traj, stride, precision)
    _write_json(out, report, precision)
    return 0


def _cmd_composite(cfg):
    _check_keys(cfg, ("a", "c", "k", "out", "seed", "precision"), "composite")
    precision = _get_int(cfg, "precision", 17, 1)
    seed = _get_int(cfg, "seed", 0, 0)
    out = _get_out(cfg, required=False)
    a = _get_number(cfg, "a", positive=True)
    c = _get_number(cfg, "c", positive=True)
    k = _get_number(cfg, "k", default=1.0)
    if k <= 0:
        _fail(f"k must be positive, got {k!r}")
    system = composite.CompositeSystem.with_lambda_star(a, c, boltzmann_k=k)
    gen = composite.composite_generator(system)
    rng = np.random.default_rng(seed)
    residual = 0.0
    for _ in range(20):
        state = rng.dirichlet(np.ones(4))
        residual = max(
            residual,
            float(np.max(np.abs(composite.qt_flow(system, state) - gen @ state))),
        )
    stationary = pme.stationary_state(pme.TransitionMatrix(gen))
    q_value = composite.q_parameter(system)
    report = {
        "a": a,
        "c": c,
        "k": k,
        "lambda": system.lam,
        "q": q_value,
        "tsallis_coupling": (1.0 - q_value) / k,
        "gradient_residual": residual,
        "stationary": [float(v) for v in stationary.p],
    }
    _write_json(out, report, precision)
    return 0


_HANDLERS = {
    "pme-solve": _cmd_pme_solve,
    "qt-fit": _cmd_qt_fit,
    "relax-classify": _cmd_relax_classify,
    "relax-scan": _cmd_relax_scan,
    "lindblad": _cmd_lindblad,
    "composite": _cmd_composite,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtrep",
        description="Quasithermodynamic representations of Markov master equations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, schema in _SCHEMAS.items():
        sub = subparsers.add_parser(
            name,
            help=schema.splitlines()[0],
            description=schema,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.add_argument("--config", required=True, help="path to the JSON config file")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        cfg = _load_config(args.config)
        return handler(cfg)
    except FitNonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QtrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
