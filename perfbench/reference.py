"""A fixed reference computation that measures the host's current speed.

The benchmark runs on shared virtual machines whose speed drifts by
15-50 % in phases that last from tens of seconds to minutes, longer
than one run.  Every loop process therefore times this computation
between ops, with the op clock stopped, and run.py scales that
process's times by ``NOMINAL_S / median(reference times)``: the times a
host running the reference at ``NOMINAL_S`` would have measured.

The reference never calls qtrep, so no change to the program can move
it.  It mixes the kinds of work qtrep's ops do, in parts of roughly
equal length: a Levenberg-Marquardt fit, an interpreter loop, small
numpy calls in a Python loop, and float formatting.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.optimize

# Typical time of one sample in a workload process on a 2-vCPU Intel
# Xeon VM (Python 3.11.7, numpy 2.4.6, scipy 1.17.1, BLAS threads pinned
# to 1).  It only sets the scale of the scaled times; ratios between
# runs do not depend on it.
NOMINAL_S = 0.014

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 27))
_B = _rng.standard_normal(64)
_M = _rng.standard_normal((8, 8))
_V = _rng.standard_normal(3)
_FLOATS = _rng.standard_normal(3000).tolist()
_XS = np.linspace(0.0, 3.0, 40)
_YS = 2.0 * np.exp(-1.3 * _XS) + 0.5 * np.exp(-0.2 * _XS) * np.cos(2.0 * _XS)


def _residual(p):
    return p[0] * np.exp(-p[1] * _XS) + p[2] * np.exp(-p[3] * _XS) * np.cos(p[4] * _XS) - _YS


def _fit_part():
    for start in (1.0, 1.1):
        scipy.optimize.least_squares(_residual, [start, 1.0, 1.0, 0.1, 1.5], method="lm")


def _python_part():
    total = 0
    for i in range(20000):
        total += i * i
    table = {}
    for i in range(3000):
        table[i] = str(i)
    return total, table


def _numpy_part():
    x = _V.copy()
    for i in range(100):
        x = x + 0.01 * np.cross(_V, x)
        x = x / (1.0 + float((_M @ _M)[0, 0] ** 2))
        if i % 20 == 0:
            np.linalg.lstsq(_A, _B, rcond=None)
    return x


def _format_part():
    return ",".join("%.17g" % f for f in _FLOATS)


def sample():
    """Seconds taken by one run of the reference computation."""
    t0 = perf_counter()
    _fit_part()
    _python_part()
    _numpy_part()
    _format_part()
    return perf_counter() - t0
