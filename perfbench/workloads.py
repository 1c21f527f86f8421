"""Seeded config generators for the three benchmark workloads.

Each workload is a fixed cycle of op kinds.  Op ``i`` of a run has the
kind at position ``i % len(cycle)`` and draws its numbers from a
generator seeded by ``(seed, 1, i)``, so the same seed gives the same
configs and every op is a fresh input (the program cannot reuse a
result).  Warm-up ops, one per distinct (subcommand, shape), draw from
``(seed, 0, j)``.

The cycle composition is chosen so that the median and the 90th
percentile of op time fall inside one op kind's cluster, not on the gap
between two clusters; README.md gives the reasoning per workload.

Every config sets ``out`` and, for integrations, an explicit ``dt`` that
divides ``t_end`` exactly in binary, so the step count is known.
"""

from __future__ import annotations

import dataclasses

import numpy as np

@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI call: subcommand, config (without ``out``) and its kind."""

    kind: str
    command: str
    config: dict


# Integration horizons are powers of two times dt, so t_end / dt is exact.
_TRAJECTORY_SIZES = {
    "full": {"pme_dt": 1 / 256, "pme_t_end": 4.0, "long_t_end": 64.0,
             "lind_dt": 1 / 128, "lind_t_end": 1.0, "max_n": 8},
    "tiny": {"pme_dt": 1 / 64, "pme_t_end": 1.0, "long_t_end": 4.0,
             "lind_dt": 1 / 32, "lind_t_end": 0.5, "max_n": 5},
}
_THIN_STRIDE = 50
_LONG_STRIDE = 250
_SCAN_SAMPLES = {"full": 6000, "tiny": 300}
_FIT_MAX_N = {"full": 8, "tiny": 5}


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def _rates_matrix(rng, n):
    # Every off-diagonal rate is positive, so the chain is irreducible.
    w = _log_uniform(rng, 0.1, 10.0, (n, n))
    np.fill_diagonal(w, 0.0)
    return w.tolist()


def _ball_point(rng, radius):
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    return (direction * radius * rng.uniform(0.2, 1.0)).tolist()


def _dissipator(rng):
    return {"A": (0.6 * rng.standard_normal(3)).tolist(),
            "B": (0.6 * rng.standard_normal(3)).tolist()}


def _trajectory_cycle(max_n):
    """pme ops over n x {stride 1, thinned}, one long thinned op, lindblad.

    Two pme ops per lindblad op: lindblad ops are the slow tail, so the
    median falls among pme ops and the 90th percentile among the
    two-dissipator lindblad ops.  The one long thinned op per cycle
    stores 16x the states of a short op and sets peak memory.  The
    thinning strides do not divide the step counts, so the final row
    the CLI always appends is exercised.
    """
    ns = list(range(3, max_n + 1))
    pme = [("pme", n, 1) for n in ns] + [("pme", n, _THIN_STRIDE) for n in ns]
    pme[-1] = ("pme-long", max_n, _LONG_STRIDE)
    # Order pme ops so n and stride both vary along the cycle.
    pme = pme[0::2] + pme[1::2]
    lind = ["lind-1", "lind-2"] * (len(pme) // 4)
    cycle = []
    for i, spec in enumerate(pme):
        cycle.append(spec)
        if i % 2 == 1 and lind:
            cycle.append((lind.pop(0),))
    return tuple(cycle)


def _trajectory_op(rng, spec, size):
    s = _TRAJECTORY_SIZES[size]
    kind = spec[0]
    if kind in ("pme", "pme-long"):
        _, n, stride = spec
        t_end = s["long_t_end"] if kind == "pme-long" else s["pme_t_end"]
        cfg = {"W": _rates_matrix(rng, n),
               "p0": rng.dirichlet(np.ones(n)).tolist(),
               "t_end": t_end, "dt": s["pme_dt"], "stride": stride}
        return Op(f"{kind}-n{n}-s{stride}", "pme-solve", cfg)
    cfg = {"P0": _ball_point(rng, 0.9), "t_end": s["lind_t_end"],
           "dt": s["lind_dt"], "stride": 1}
    if kind == "lind-1":
        cfg["channel"] = {"dissipators": [_dissipator(rng)]}
    else:
        cfg["channel"] = {"h": rng.standard_normal(3).tolist(),
                          "dissipators": [_dissipator(rng), _dissipator(rng)]}
        cfg["gradient_check"] = False
    return Op(kind, "lindblad", cfg)


def _trajectory_warmups(size):
    max_n = _TRAJECTORY_SIZES[size]["max_n"]
    return [("pme", n, 1) for n in range(3, max_n + 1)] + [("lind-1",), ("lind-2",)]


_SCAN_CYCLE = (
    (False, "single"), (False, "six"), (True, "single"), (True, "six"),
)


def _scan_op(rng, spec, size):
    constrain, ranges_kind = spec
    if ranges_kind == "single":
        ranges = [0.0, float(rng.uniform(0.5, 2.0))]
    else:
        lows = rng.uniform(0.0, 0.5, 6)
        ranges = [[float(lo), float(lo + w)]
                  for lo, w in zip(lows, rng.uniform(0.5, 2.0, 6))]
    cfg = {"samples": _SCAN_SAMPLES[size], "ranges": ranges,
           "constrain_omega_zero": constrain, "bins": 10,
           "seed": int(rng.integers(0, 2**31))}
    kind = f"scan-{'omega0' if constrain else 'free'}-{ranges_kind}"
    return Op(kind, "relax-scan", cfg)


def _fit_cycle(max_n):
    """Fits over n with one small op per three fits.

    At full size the cycle is 12 ops: three small ops (composite,
    relax-classify), fits at n = 3, 4, two at 5, two at 6, one at 7 and
    two at 8.  Sorted by time the two n = 5 fits sit at ranks 6 and 7,
    so the median is a fit at n = 5, and the two n = 8 fits hold the
    90th percentile.
    """
    if max_n == 8:
        return (("fit", 3), ("fit", 5), ("composite",), ("fit", 6),
                ("fit", 8), ("classify",), ("fit", 4), ("fit", 5),
                ("composite",), ("fit", 6), ("fit", 7), ("fit", 8))
    fits = [("fit", n) for n in range(3, max_n + 1)]
    return tuple(fits + [("composite",), ("classify",)])


def _fit_op(rng, spec, size):
    kind = spec[0]
    if kind == "fit":
        n = spec[1]
        return Op(f"fit-n{n}", "qt-fit", {"W": _rates_matrix(rng, n)})
    if kind == "composite":
        a, c = _log_uniform(rng, 0.1, 10.0, 2)
        return Op("composite", "composite", {"a": float(a), "c": float(c)})
    rates = _log_uniform(rng, 0.1, 10.0, 6)
    return Op("classify", "relax-classify", {"rates": rates.tolist()})


def _fit_warmups(size):
    max_n = _FIT_MAX_N[size]
    return [("fit", n) for n in range(3, max_n + 1)] + [("composite",), ("classify",)]


def _cycle(workload, size):
    if workload == "trajectory":
        return _trajectory_cycle(_TRAJECTORY_SIZES[size]["max_n"])
    if workload == "scan":
        return _SCAN_CYCLE
    return _fit_cycle(_FIT_MAX_N[size])


def _make(workload, rng, spec, size):
    maker = {"trajectory": _trajectory_op, "scan": _scan_op, "fit": _fit_op}[workload]
    return maker(rng, spec, size)


def timed_op(workload, seed, index, size):
    """Op ``index`` of the timed stream of a workload."""
    cycle = _cycle(workload, size)
    rng = np.random.default_rng((seed, 1, index))
    return _make(workload, rng, cycle[index % len(cycle)], size)


def warmup_ops(workload, seed, size):
    """One op per distinct (subcommand, shape) of the workload."""
    if workload == "trajectory":
        specs = _trajectory_warmups(size)
    elif workload == "scan":
        specs = [_SCAN_CYCLE[0]]
    else:
        specs = _fit_warmups(size)
    return [_make(workload, np.random.default_rng((seed, 0, j)), spec, size)
            for j, spec in enumerate(specs)]


def cycle_length(workload, size):
    return len(_cycle(workload, size))
