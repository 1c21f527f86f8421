"""Command-line interface.

Every subcommand reads one JSON config file, validates it against its
entry in the _COMMANDS table (unknown keys are rejected), computes, and
writes results atomically.  The same table builds each subcommand's
--help text; main builds its argparse parser once per process and
parses every call with it.  Outputs are byte-identical for identical
configs.  Exit codes: 0 success, 2 invalid input or a failed write, 3
fit residual above 1e-8 * max(1, max|L|), L the generator of the rates.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import sys

import numpy as np

from . import _jsonio, composite, dynamics, lindblad, pme, qtfit, relaxation
from .errors import (
    FitNonConvergenceError, InputError, QtrepError,
    _boolean, _finite_array, _integer, _json_object, _positive,
)

# No double has more significant digits; higher precisions add nothing.
MAX_PRECISION = 767
# Roundoff allowed above |P0| = 1 for a state on the Bloch sphere.
BLOCH_TOL = 1e-12


# Readers: each takes a key and its raw JSON value and returns the
# validated value or raises InputError.


def _reader(check, *args):
    """Reader from a shared check(value, key, *args) of the errors module."""
    return lambda key, value: check(value, key, *args)


def _out(key, value):
    if not isinstance(value, str) or not value:
        raise InputError(f"{key} must be a non-empty path string, got {value!r}")
    directory = os.path.dirname(os.path.abspath(value))
    if not os.path.isdir(directory):
        raise InputError(f"{key} directory does not exist: {directory}")
    return value


def _bloch_vector(key, value):
    arr = _finite_array(value, key, (3,))
    norm = math.hypot(*arr)  # no overflow, unlike the sum of squares
    if norm > 1.0 + BLOCH_TOL:
        raise InputError(f"{key} must lie in the Bloch ball, got |{key}| = {norm!r}")
    return arr


# A subcommand: its handler, summary line, config keys and help notes.
# keys maps each key to (reader, default, help fragment); a default of
# _REQUIRED makes the key mandatory, None leaves it to the handler.
_Command = collections.namedtuple("_Command", "handler summary keys notes", defaults=("",))
_REQUIRED = object()

# Keys every subcommand accepts.
_COMMON_KEYS = {"precision": (_reader(_integer, 1, MAX_PRECISION), 17, "int, default 17")}


def _description(command):
    fields = ", ".join(f"{key}: {text}" for key, (_, _, text) in command.keys.items())
    common = ", ".join(f"{key} ({text})" for key, (_, _, text) in _COMMON_KEYS.items())
    lines = [command.summary, f"Config: {{{fields}}}. Common keys: {common}."]
    if command.notes:
        lines.append(command.notes)
    return "\n".join(lines)


def _load_config(path, name):
    """Parse the config file and return its validated keys with defaults."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}")
    keys = {**_COMMANDS[name].keys, **_COMMON_KEYS}
    required = [key for key, (_, default, _) in keys.items() if default is _REQUIRED]
    data = _json_object(data, f"{name} config", keys, required)
    return {key: read(key, data[key]) if key in data else default
            for key, (read, default, _) in keys.items()}


def _write_outputs(cfg, document, csv=None):
    """Write <out>.csv and <out>.json, or the document to stdout.

    A failed write is an InputError naming its path; the CSV is written
    first, so a failed JSON write leaves it in place.
    """
    # Render every text before writing any file, so that a value that
    # cannot be serialized leaves no output behind.
    text = _jsonio.dumps(document, precision=cfg["precision"])
    out = cfg["out"]
    if out is None:
        sys.stdout.write(text)
        return
    for path, content in ((out + ".csv", csv), (out + ".json", text)):
        if content is not None:
            try:
                _jsonio.atomic_write_text(path, content)
            except OSError as exc:  # its text names the random temporary file
                raise InputError(f"cannot write {path}: {exc.strerror or exc}")


def _trajectory_csv(traj, cfg):
    """CSV of the recorded rows; the entropy column is NaN without a monitor."""
    dim = traj.states.shape[1]
    header = ["t"] + [f"y{i + 1}" for i in range(dim)] + ["entropy", "sum_drift"]
    entropy = np.full(traj.times.size, np.nan) if traj.entropy is None else traj.entropy
    columns = [traj.times, *traj.states.T, entropy, traj.sum_drift]
    return _jsonio.csv_text(header, columns, cfg["precision"])


def _default_dt(dt, scale, name):
    """dt when given, else 1e-3 / scale (1e-3 when the scale is zero)."""
    if dt is None:
        dt = 1e-3 / scale if scale > 0 else 1e-3
        if not math.isfinite(dt):
            raise InputError(
                f"{name} {scale!r} is too small for the default dt = 1e-3 / {name}; set dt"
            )
    return dt


def _cmd_pme_solve(cfg):
    w = pme.TransitionMatrix(cfg["W"])
    if cfg["p0"].size != w.n:
        raise InputError(f"p0 must have length {w.n}, got {cfg['p0'].size}")
    p0 = pme.ProbabilityState(cfg["p0"])
    dt = _default_dt(cfg["dt"], float(np.max(w.w)), "max rate")

    gen = pme.build_generator(w)
    flags = pme.classify_w(w)
    spec = pme.spectrum(w)
    # Before integrating: a chain without a unique stationary state fails
    # at once, not after every step.
    stationary = pme.stationary_state(w)
    dynamics._check_rk4_stable(dt, spec.eigenvalues)
    traj = dynamics.integrate(
        gen.dot, p0.p, cfg["t_end"], dt,
        entropy=lambda rows: pme.bs_entropy(np.clip(rows, 0.0, 1.0)), stride=cfg["stride"],
    )
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
    _write_outputs(cfg, report, _trajectory_csv(traj, cfg))


def _cmd_qt_fit(cfg):
    try:
        rep = qtfit.fit(cfg["W"])
    except FitNonConvergenceError as exc:
        _write_outputs(cfg, exc.best.to_json_dict())
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_outputs(cfg, rep.to_json_dict())


def _cmd_relax_classify(cfg):
    rates = relaxation.ThreeStateRates(*cfg["rates"])
    report = relaxation.classify(rates)
    _write_outputs(cfg, {"rates": list(rates.as_tuple()), **report.to_json_dict()})


def _cmd_relax_scan(cfg):
    grid = relaxation.ScanGrid(
        ranges=cfg["ranges"],
        samples=cfg["samples"],
        constrain_omega_zero=cfg["constrain_omega_zero"],
    )
    result = relaxation.scan(grid, seed=cfg["seed"])
    header = ["a", "b", "c", "d", "e", "f", "xi", "disc", "omega", "u", "v", "monotonic"]
    columns = [*result.rates.T, result.xi, result.disc, result.omega, result.u,
               result.v, result.monotonic]
    # Built first: it rejects an infinite |omega|, on which omega_bins warns.
    csv = _jsonio.csv_text(header, columns, cfg["precision"])
    summary = {
        "samples": grid.samples,
        "oscillatory_fraction": result.oscillatory_fraction,
        "omega_bins": result.omega_bins(cfg["bins"]),
    }
    _write_outputs(cfg, summary, csv)


# The regular tetrahedron in the Bloch sphere: its vertices are affinely independent, so
# an identity affine in P that holds to roundoff on them holds everywhere.  Unit vectors
# would make the embedding (1 +- P)/2 exact and its residual read 0.
_TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
# The same for the composite flow, linear in the state, on four independent product
# states; on the pure ones most products vanish and the residual often reads 0.
_PRODUCT_STATES = [composite.product_state(p, q) for p in (0.25, 0.75) for q in (0.25, 0.75)]


def _cmd_lindblad(cfg):
    channel = cfg["channel"]
    if not channel.dissipators:
        raise InputError("channel needs at least one dissipator")
    rate_scale = math.hypot(*channel.h) + sum(channel.weights)
    if not math.isfinite(rate_scale):
        raise InputError("channel rate scale |h| + sum(A**2 + B**2) is not finite")
    dt = _default_dt(cfg["dt"], rate_scale, "rate scale")
    # bloch_rhs(P) = M P + c, so these rows form M^T, which has M's eigenvalues.
    origin = lindblad.bloch_rhs(channel, np.zeros(3))
    rows = [lindblad.bloch_rhs(channel, e) - origin for e in np.eye(3)]
    dynamics._check_rk4_stable(dt, np.linalg.eigvals(rows))

    report = {"dt": dt}
    entropy = None
    if cfg["gradient_check"]:
        p_st = lindblad.stationary_bloch(channel)
        entropy = lambda rows: lindblad.bloch_entropy(channel, rows)
        grad_resid = six_resid = 0.0
        for point in _TETRAHEDRON:
            flow = lindblad.bloch_rhs(channel, point)
            grad = lindblad.gradient_rhs(channel, point)
            six = lindblad.extract_bloch(lindblad.qt_six_rhs(channel, lindblad.embed_six(point)))
            grad_resid = max(grad_resid, float(np.max(np.abs(flow - grad))))
            six_resid = max(six_resid, float(np.max(np.abs(six - grad))))
        # Relative to the rate scale, as qt-fit's tolerance is to max|L|.
        report.update({
            "P_st": [float(v) for v in p_st],
            "P_st_abs": math.hypot(*p_st),
            "gradient_identity_residual": grad_resid / max(1.0, rate_scale),
            "six_variable_equivalence_residual": six_resid / max(1.0, rate_scale),
        })

    traj = dynamics.integrate(
        lambda y: lindblad.bloch_rhs(channel, y), cfg["P0"], cfg["t_end"], dt,
        entropy=entropy, stride=cfg["stride"],
    )
    report["P_final"] = [float(v) for v in traj.final_state]
    _write_outputs(cfg, report, _trajectory_csv(traj, cfg))


def _cmd_composite(cfg):
    a, c, k = cfg["a"], cfg["c"], cfg["k"]
    system = composite.CompositeSystem.with_lambda_star(a, c, boltzmann_k=k)
    gen = composite.composite_generator(system)
    # Relative to a + c, which is max|L| for this generator.
    residual = max(float(np.max(np.abs(composite.qt_flow(system, state) - gen @ state)))
                   for state in _PRODUCT_STATES) / max(1.0, a + c)
    stationary = pme.stationary_state(pme.TransitionMatrix(gen))
    q_value = composite.q_parameter(system)
    report = {
        "a": a,
        "c": c,
        "k": k,
        "lambda": system.lam,
        "q": q_value,
        "tsallis_coupling": -(a + c) / 4.0,
        "gradient_residual": residual,
        "stationary": [float(v) for v in stationary.p],
    }
    _write_outputs(cfg, report)


_OUT = (_out, _REQUIRED, "path base")
_OPTIONAL_OUT = (_out, None, "path base (optional, stdout when absent)")
_STRIDE = (_reader(_integer, 1), 1, "int (default 1)")

_COMMANDS = {
    "pme-solve": _Command(
        _cmd_pme_solve, "Integrate a master equation and report its stationary state.",
        {
            "W": (_reader(_finite_array, (None, None)), _REQUIRED, "NxN rate matrix"),
            "p0": (_reader(_finite_array, (None,)), _REQUIRED, "length-N probabilities"),
            "t_end": (_reader(_positive), _REQUIRED, "number"),
            "dt": (_reader(_positive), None, "number (default 1e-3 / max rate)"),
            "stride": _STRIDE,
            "out": _OUT,
        },
        "Writes <out>.csv (t, y1..yN, entropy, sum_drift) and <out>.json.",
    ),
    "qt-fit": _Command(
        _cmd_qt_fit, "Fit a quadratic-entropy representation to a rate matrix.",
        {"W": (_reader(_finite_array, (None, None)), _REQUIRED, "NxN rate matrix"), "out": _OUT},
        f"The fit is the closed-form Sylvester solve, for N <= {qtfit.MAX_FIT_N}.  "
        "Writes <out>.json with fields n, q, r, subsets, norm, residual.  Exit code 3 if the "
        "flow residual is above 1e-8 * max(1, max|L|), L the generator "
        "(the representation is still written).",
    ),
    "relax-classify": _Command(
        _cmd_relax_classify, "Classify the relaxation character of a three-state chain.",
        {"rates": (_reader(_finite_array, (6,)), _REQUIRED, "[a, b, c, d, e, f]"),
         "out": _OPTIONAL_OUT},
    ),
    "relax-scan": _Command(
        _cmd_relax_scan, "Sample rate space and classify each sample.",
        {
            "samples": (_reader(_integer, 1), _REQUIRED, "int"),
            "ranges": (_reader(_finite_array, [(2,), (6, 2)]), (0.0, 1.0),
                       "[lo, hi] or six pairs (default [0, 1])"),
            "constrain_omega_zero": (_reader(_boolean), False, "bool (default false)"),
            "bins": (_reader(relaxation._budget, relaxation.MAX_BINS), 10, "int (default 10)"),
            "out": _OUT,
            "seed": (_reader(_integer, 0), 0, "int (default 0)"),
        },
        "Writes <out>.csv (a,b,c,d,e,f,xi,disc,omega,u,v,monotonic) and "
        "<out>.json with the oscillatory fractions.  The sample order in "
        "the output is the sampling order.",
    ),
    "lindblad": _Command(
        _cmd_lindblad, "Integrate a two-level dissipative channel in Bloch form.",
        {
            "channel": (lambda _, value: lindblad.LindbladChannel.from_dict(value), _REQUIRED,
                        "{h: [3] (default zero), dissipators: [{A: [3], B: [3]}, ...]}"),
            "P0": (_bloch_vector, _REQUIRED, "[3]"),
            "t_end": (_reader(_positive), _REQUIRED, "number"),
            "dt": (_reader(_positive), None, "number (default 1e-3 / rate scale)"),
            "stride": _STRIDE,
            "gradient_check": (_reader(_boolean), True, "bool (default true)"),
            "out": _OUT,
        },
        "gradient_check requires a single dissipator and h = 0; other "
        "channels are rejected (exit 2) unless it is set to false.",
    ),
    "composite": _Command(
        _cmd_composite, "Report the coupled two-by-two system at its gradient coupling.",
        {
            "a": (_reader(_positive), _REQUIRED, "rate"),
            "c": (_reader(_positive), _REQUIRED, "rate"),
            "k": (_reader(_positive), 1.0, "Boltzmann constant (default 1)"),
            "out": _OPTIONAL_OUT,
        },
    ),
}


def build_parser():
    """A fresh parser of the _COMMANDS table; main keeps its own."""
    parser = argparse.ArgumentParser(
        prog="qtrep",
        description="Quasithermodynamic representations of Markov master equations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(
            name,
            help=command.summary,
            description=_description(command),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.add_argument("--config", required=True, help="path to the JSON config file")
    return parser


# main's parser, built on its first call.  argparse reads sys.stdout,
# sys.stderr and the terminal width when it prints, not when it builds,
# so the cached parser prints what a fresh one would.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        # A handler returns its exit code only when that is not 0.
        return _COMMANDS[args.command].handler(cfg) or 0
    except QtrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
