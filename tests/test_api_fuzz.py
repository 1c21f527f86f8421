"""Fuzz of the library boundary, with calls built from qtrep.__all__.

Every public callable but the exception types is called through its
inspect.signature: each required parameter, and a drawn subset of the
optional ones, gets a value from one pool.  The pool holds junk (None,
bools, strings and bytes, empty and ragged lists, NaN and infinities,
10**400, a complex number, 0-d and object arrays, dicts and a bare
object()) and one valid value of each kind the library reads (a size,
a state, a rate matrix and rate tuple, a channel, a system, an entropy,
a representation, a grid, a trajectory and an rhs), so that a bad value
among good ones reaches the later checks too.  Whatever the call, it
must return or raise a QtrepError, raise no warning, and end within
MAX_SECONDS.
"""

import inspect
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtrep
from qtrep.errors import QtrepError

# Wall-time bound per call.  Valid calls on the pool take milliseconds;
# the size caps and the step and sample budgets must stop the rest.
MAX_SECONDS = 5.0

JUNK = [None, True, False, "x", b"x", [], [[1.0], [1.0, 2.0]], [1.0, [2.0]],
        math.nan, math.inf, -math.inf, 10**400, -1, 0, 1e-300, 1 + 2j, np.array(1.0),
        np.array([None, 1.0], dtype=object), np.array([[math.nan, 1.0], [1.0, 0.0]]), {},
        {"w": 1}, object()]

_RATES = [[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [2.0, 5.0, 0.0]]
_CHANNEL = qtrep.LindbladChannel(
    h=np.zeros(3), dissipators=((np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),))
VALID = [3, 0.5, (), [0.2, 0.3, 0.5], np.zeros(3), _RATES, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
         [0.1, 0.9, 0.2, 0.8, 0.3, 0.7], qtrep.TransitionMatrix(_RATES), _CHANNEL,
         qtrep.CompositeSystem(a=1.0, c=2.0, lam=1.0), qtrep.QuadraticEntropy(np.eye(3)),
         qtrep.fit(_RATES), qtrep.ScanGrid((0.0, 1.0), 4),
         qtrep.integrate(lambda y: -y, [0.2, 0.3, 0.5], 1.0, 0.25), lambda y: -y]
POOL = JUNK + VALID

# Exception types carry results the package raises; they read no outside input.
NAMES = sorted(name for name, obj in ((name, getattr(qtrep, name)) for name in qtrep.__all__)
               if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)))


def _parameters(name):
    params = inspect.signature(getattr(qtrep, name)).parameters.values()
    required = [p.name for p in params if p.default is p.empty]
    optional = [p.name for p in params if p.default is not p.empty]
    return required, optional


def _call(name, args, kwargs):
    """Call qtrep.<name>; fail on any exception but a QtrepError, a warning or a slow call."""
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            getattr(qtrep, name)(*args, **kwargs)
        except QtrepError:
            pass
    elapsed = time.perf_counter() - start
    assert elapsed < MAX_SECONDS, f"{name} took {elapsed:.1f} s"


def test_names_cover_the_package():
    # every public callable is fuzzed; each reads at least one argument
    assert {"fit", "integrate", "QTRepresentation", "ham_term", "scan"} <= set(NAMES)
    assert all(_parameters(name)[0] for name in NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_each_value_in_every_slot(name):
    required, _ = _parameters(name)
    for value in POOL:
        _call(name, [value] * len(required), {})


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_drawn_calls(data):
    name = data.draw(st.sampled_from(NAMES), label="name")
    required, optional = _parameters(name)
    args = [data.draw(st.sampled_from(POOL), label=key) for key in required]
    kwargs = {key: data.draw(st.sampled_from(POOL), label=key)
              for key in optional if data.draw(st.booleans(), label=f"pass {key}")}
    _call(name, args, kwargs)
