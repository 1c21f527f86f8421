"""Command-line interface.

Every subcommand reads one JSON config file, validates it against its
entry in the _COMMANDS table (unknown keys are rejected), computes, and
writes results atomically.  The same table builds each subcommand's
--help text.  Outputs are byte-identical for identical configs and
seeds.  Exit codes: 0 success, 2 invalid input, 3 fit residual above
1e-8 * max(1, max|L|), L the generator of the rates.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import sys

import numpy as np

from . import _jsonio, composite, dynamics, lindblad, pme, qtfit, relaxation
from .errors import FitNonConvergenceError, InputError, QtrepError, _finite_array

# No double has more significant digits; higher precisions add nothing.
MAX_PRECISION = 767
# Roundoff allowed above |P0| = 1 for a state on the Bloch sphere.
BLOCH_TOL = 1e-12


def _fail(message):
    raise InputError(message)


# Readers: each takes a key and its raw JSON value and returns the
# validated value or raises InputError.


def _positive(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        _fail(f"{key} must be finite")
    if value <= 0.0:
        _fail(f"{key} must be positive, got {value!r}")
    return value


def _integer(minimum, maximum=None):
    def read(key, value):
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(f"{key} must be an integer, got {value!r}")
        if value < minimum:
            _fail(f"{key} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            _fail(f"{key} must be <= {maximum}, got {value}")
        return value

    return read


def _boolean(key, value):
    if not isinstance(value, bool):
        _fail(f"{key} must be a boolean, got {value!r}")
    return value


def _out(key, value):
    if not isinstance(value, str) or not value:
        _fail(f"{key} must be a non-empty path string, got {value!r}")
    directory = os.path.dirname(os.path.abspath(value))
    if not os.path.isdir(directory):
        _fail(f"{key} directory does not exist: {directory}")
    return value


def _finite(*shapes):
    return lambda key, value: _finite_array(value, key, list(shapes))


def _bloch_vector(key, value):
    arr = _finite_array(value, key, (3,))
    norm = math.hypot(*arr)  # no overflow, unlike the sum of squares
    if norm > 1.0 + BLOCH_TOL:
        _fail(f"{key} must lie in the Bloch ball, got |{key}| = {norm!r}")
    return arr


def _object(key, value):
    if not isinstance(value, dict):
        _fail(f"missing or malformed key: {key}")
    return value


# A subcommand: its handler, summary line, config keys and help notes.
# keys maps each key to (reader, default, help fragment); a default of
# _REQUIRED makes the key mandatory, None leaves it to the handler.
_Command = collections.namedtuple("_Command", "handler summary keys notes", defaults=("",))
_REQUIRED = object()

# Keys every subcommand accepts.
_COMMON_KEYS = {
    "seed": (_integer(0), 0, "int, default 0"),
    "precision": (_integer(1, MAX_PRECISION), 17, "int, default 17"),
}


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
        _fail(f"cannot read config {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        _fail(f"config {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        _fail(f"config {path} must be a JSON object")
    keys = {**_COMMANDS[name].keys, **_COMMON_KEYS}
    unknown = sorted(set(data) - set(keys))
    if unknown:
        _fail(f"unknown config keys for {name}: {', '.join(unknown)}")
    cfg = {}
    for key, (read, default, _) in keys.items():
        if key in data:
            cfg[key] = read(key, data[key])
        elif default is _REQUIRED:
            _fail(f"missing required key: {key}")
        else:
            cfg[key] = default
    return cfg


def _write_outputs(cfg, document, csv=None):
    """Write <out>.csv and <out>.json, or the document to stdout."""
    # Render every text before writing any file, so that a value that
    # cannot be serialized leaves no output behind.
    text = _jsonio.dumps(document, precision=cfg["precision"])
    out = cfg["out"]
    if out is None:
        sys.stdout.write(text)
        return
    if csv is not None:
        _jsonio.atomic_write_text(out + ".csv", csv)
    _jsonio.atomic_write_text(out + ".json", text)


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
            _fail(f"{name} {scale!r} is too small for the default dt = 1e-3 / {name}; set dt")
    return dt


def _cmd_pme_solve(cfg):
    w = pme.TransitionMatrix(cfg["W"])
    if cfg["p0"].size != w.n:
        _fail(f"p0 must have length {w.n}, got {cfg['p0'].size}")
    p0 = pme.ProbabilityState(cfg["p0"])
    dt = _default_dt(cfg["dt"], float(np.max(w.w)), "max rate")

    gen = pme.build_generator(w)
    flags = pme.classify_w(w)
    spec = pme.spectrum(w)
    # Before integrating: a chain without a unique stationary state fails
    # at once, not after every step.
    stationary = pme.stationary_state(w)
    traj = dynamics.integrate(
        lambda y: gen @ y, p0.p, cfg["t_end"], dt,
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
        bins=cfg["bins"],
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
        "omega_bins": result.omega_bins(grid.bins),
    }
    _write_outputs(cfg, summary, csv)


def _cmd_lindblad(cfg):
    channel = lindblad.LindbladChannel.from_dict(cfg["channel"])
    if not channel.dissipators:
        _fail("channel needs at least one dissipator")
    with np.errstate(over="ignore"):
        rate_scale = float(np.linalg.norm(channel.h)) + sum(channel.weights)
    if not math.isfinite(rate_scale):
        _fail("channel rate scale |h| + sum(A**2 + B**2) is not finite")
    dt = _default_dt(cfg["dt"], rate_scale, "rate scale")

    report = {"dt": dt}
    entropy = None
    if cfg["gradient_check"]:
        p_st = lindblad.stationary_bloch(channel)
        entropy = lambda rows: lindblad.bloch_entropy(channel, rows)
        rng = np.random.default_rng(cfg["seed"])
        grad_resid = 0.0
        six_resid = 0.0
        for _ in range(20):
            direction = rng.standard_normal(3)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                continue
            sample = direction / norm * rng.uniform(0.0, 1.0)
            flow = lindblad.bloch_rhs(channel, sample)
            grad = lindblad.gradient_rhs(channel, sample)
            grad_resid = max(grad_resid, float(np.max(np.abs(flow - grad))))
            six = lindblad.extract_bloch(
                lindblad.qt_six_rhs(channel, lindblad.embed_six(sample))
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
        lambda y: lindblad.bloch_rhs(channel, y), cfg["P0"], cfg["t_end"], dt,
        entropy=entropy, stride=cfg["stride"],
    )
    report["P_final"] = [float(v) for v in traj.final_state]
    _write_outputs(cfg, report, _trajectory_csv(traj, cfg))


def _cmd_composite(cfg):
    a, c, k = cfg["a"], cfg["c"], cfg["k"]
    system = composite.CompositeSystem.with_lambda_star(a, c, boltzmann_k=k)
    gen = composite.composite_generator(system)
    rng = np.random.default_rng(cfg["seed"])
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
        "tsallis_coupling": -(a + c) / 4.0,
        "gradient_residual": residual,
        "stationary": [float(v) for v in stationary.p],
    }
    _write_outputs(cfg, report)


_OUT = (_out, _REQUIRED, "path base")
_OPTIONAL_OUT = (_out, None, "path base (optional, stdout when absent)")
_STRIDE = (_integer(1), 1, "int (default 1)")

_COMMANDS = {
    "pme-solve": _Command(
        _cmd_pme_solve, "Integrate a master equation and report its stationary state.",
        {
            "W": (_finite((None, None)), _REQUIRED, "NxN rate matrix"),
            "p0": (_finite((None,)), _REQUIRED, "length-N probabilities"),
            "t_end": (_positive, _REQUIRED, "number"),
            "dt": (_positive, None, "number (default 1e-3 / max rate)"),
            "stride": _STRIDE,
            "out": _OUT,
        },
        "Writes <out>.csv (t, y1..yN, entropy, sum_drift) and <out>.json.",
    ),
    "qt-fit": _Command(
        _cmd_qt_fit, "Fit a quadratic-entropy representation to a rate matrix.",
        {"W": (_finite((None, None)), _REQUIRED, "NxN rate matrix"), "out": _OUT},
        "The fit is the closed-form Sylvester solve, for any N; it draws "
        "no random numbers, so seed has no effect.  Writes <out>.json "
        "with fields n, q, r, subsets, norm, residual.  Exit code 3 if the "
        "flow residual is above 1e-8 * max(1, max|L|), L the generator "
        "(the representation is still written).",
    ),
    "relax-classify": _Command(
        _cmd_relax_classify, "Classify the relaxation character of a three-state chain.",
        {"rates": (_finite((6,)), _REQUIRED, "[a, b, c, d, e, f]"), "out": _OPTIONAL_OUT},
    ),
    "relax-scan": _Command(
        _cmd_relax_scan, "Sample rate space and classify each sample.",
        {
            "samples": (_integer(1), _REQUIRED, "int"),
            "ranges": (_finite((2,), (6, 2)), (0.0, 1.0),
                       "[lo, hi] or six pairs (default [0, 1])"),
            "constrain_omega_zero": (_boolean, False, "bool (default false)"),
            "bins": (_integer(1), 10, "int (default 10)"),
            "out": _OUT,
        },
        "Writes <out>.csv (a,b,c,d,e,f,xi,disc,omega,u,v,monotonic) and "
        "<out>.json with the oscillatory fractions.  The sample order in "
        "the output is the sampling order.",
    ),
    "lindblad": _Command(
        _cmd_lindblad, "Integrate a two-level dissipative channel in Bloch form.",
        {
            "channel": (_object, _REQUIRED,
                        "{h: [3] (default zero), dissipators: [{A: [3], B: [3]}, ...]}"),
            "P0": (_bloch_vector, _REQUIRED, "[3]"),
            "t_end": (_positive, _REQUIRED, "number"),
            "dt": (_positive, None, "number (default 1e-3 / rate scale)"),
            "stride": _STRIDE,
            "gradient_check": (_boolean, True, "bool (default true)"),
            "out": _OUT,
        },
        "gradient_check requires a single dissipator and h = 0; other "
        "channels are rejected (exit 2) unless it is set to false.",
    ),
    "composite": _Command(
        _cmd_composite, "Report the coupled two-by-two system at its gradient coupling.",
        {
            "a": (_positive, _REQUIRED, "rate"),
            "c": (_positive, _REQUIRED, "rate"),
            "k": (_positive, 1.0, "Boltzmann constant (default 1)"),
            "out": _OPTIONAL_OUT,
        },
    ),
}


def build_parser():
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        # A handler returns its exit code only when that is not 0.
        return _COMMANDS[args.command].handler(cfg) or 0
    except QtrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
