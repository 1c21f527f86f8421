"""Fuzz of the library boundary, with calls built from qtrep.__all__.

Every public callable but the exception types, and every public method
or classmethod of a public class that takes an argument (called on one
valid instance of the class), is called through its inspect.signature:
each required parameter, and a drawn subset of the optional ones, gets
a value from one pool.  The pool holds junk (None, bools, strings and
bytes, empty and ragged lists, NaN and infinities, 10**400, a complex
number, 0-d and object arrays, dicts, a bare object() and a Trajectory
record of None fields) and one valid value of each kind the library
reads (a size, a state, a rate matrix and rate tuple, a channel, a
system, an entropy, a representation, a grid, a trajectory and an rhs),
so that a bad value among good ones reaches the later checks too.
Whatever the call, it must return or raise a QtrepError, raise no
warning, and end within MAX_SECONDS.  Two cases the drawn calls seldom
build get tests of their own: integrate with each pool value as rhs and
a valid state and horizon, and ScanResult records with at most one junk
field, whose methods are called when the record is built.
"""

import dataclasses
import inspect
import math
import time
import types
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
        {"w": 1}, object(), qtrep.Trajectory(None, None, None, None, None, None)]

_RATES = [[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [2.0, 5.0, 0.0]]
_CHANNEL = qtrep.LindbladChannel(
    h=np.zeros(3), dissipators=((np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),))
_RATES_6 = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
VALID = [3, 0.5, (), [0.2, 0.3, 0.5], np.zeros(3), _RATES, _RATES_6,
         [0.1, 0.9, 0.2, 0.8, 0.3, 0.7], qtrep.TransitionMatrix(_RATES), _CHANNEL,
         qtrep.CompositeSystem(a=1.0, c=2.0, lam=1.0), qtrep.QuadraticEntropy(np.eye(3)),
         qtrep.fit(_RATES), qtrep.ScanGrid((0.0, 1.0), 4),
         qtrep.integrate(lambda y: -y, [0.2, 0.3, 0.5], 1.0, 0.25), lambda y: -y]
POOL = JUNK + VALID

# Exception types carry results the package raises; they read no outside input.
NAMES = sorted(name for name, obj in ((name, getattr(qtrep, name)) for name in qtrep.__all__)
               if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)))
CLASSES = [getattr(qtrep, name) for name in NAMES if isinstance(getattr(qtrep, name), type)]

# One valid instance of each public class, whose methods are called on it.
INSTANCES = {type(obj): obj for obj in [
    *(value for value in VALID if isinstance(value, tuple(CLASSES))),
    qtrep.ProbabilityState([0.2, 0.3, 0.5]), qtrep.ThreeStateRates(*_RATES_6),
    qtrep.classify(_RATES_6), qtrep.scan(qtrep.ScanGrid((0.0, 1.0), 4)), qtrep.spectrum(_RATES),
    qtrep.classify_w(_RATES)]}
# "Class.method" -> the method bound to its instance, for each public method
# and classmethod that takes an argument.
METHODS = {f"{cls.__name__}.{attr}": getattr(INSTANCES[cls], attr)
           for cls in CLASSES for attr, raw in vars(cls).items()
           if not attr.startswith("_") and isinstance(raw, (types.FunctionType, classmethod))
           and inspect.signature(getattr(INSTANCES[cls], attr)).parameters}
CALLABLES = {**{name: getattr(qtrep, name) for name in NAMES}, **METHODS}


def _parameters(name):
    params = inspect.signature(CALLABLES[name]).parameters.values()
    required = [p.name for p in params if p.default is p.empty]
    optional = [p.name for p in params if p.default is not p.empty]
    return required, optional


def _call(name, args, kwargs):
    """Call CALLABLES[name]; fail on any exception but a QtrepError, a warning or a slow call."""
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            CALLABLES[name](*args, **kwargs)
        except QtrepError:
            pass
    elapsed = time.perf_counter() - start
    assert elapsed < MAX_SECONDS, f"{name} took {elapsed:.1f} s"


def test_names_cover_the_package():
    # every public callable is fuzzed; each reads at least one argument
    assert {"fit", "integrate", "QTRepresentation", "ham_term", "scan"} <= set(NAMES)
    assert all(_parameters(name)[0] for name in NAMES)


def test_methods_cover_the_classes():
    # every public class has an instance, and the methods that read outside input are called
    assert set(INSTANCES) == set(CLASSES)
    assert {"ScanResult.omega_bins", "QuadraticEntropy.value", "QuadraticEntropy.gradient",
            "QTRepresentation.from_json_dict", "LindbladChannel.from_dict",
            "CompositeSystem.with_lambda_star"} <= set(METHODS)


@pytest.mark.parametrize("name", [*NAMES, *METHODS])
def test_each_value_in_every_slot(name):
    required, _ = _parameters(name)
    for value in POOL:
        _call(name, [value] * len(required), {})


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_drawn_calls(data):
    name = data.draw(st.sampled_from(sorted(CALLABLES)), label="name")
    required, optional = _parameters(name)
    args = [data.draw(st.sampled_from(POOL), label=key) for key in required]
    kwargs = {key: data.draw(st.sampled_from(POOL), label=key)
              for key in optional if data.draw(st.booleans(), label=f"pass {key}")}
    _call(name, args, kwargs)


def test_integrate_reads_any_rhs():
    for value in POOL:
        _call("integrate", [value, [0.2, 0.3, 0.5], 1.0, 0.25], {})


# Good values of each ScanResult field for 3 samples, non-finite entries among them.
_COLUMNS = [np.zeros(3), np.array([0.5, math.inf, -1.0]), np.array([math.nan, 0.0, 1.0]),
            [1e308, -1e308, 5e-324], [-math.inf, math.inf, math.nan]]
SCAN_FIELDS = {
    "rates": [np.ones((3, 6)), np.full((3, 6), math.nan), [[1e308] * 6] * 3],
    **dict.fromkeys(["xi", "disc", "omega", "u", "v"], _COLUMNS),
    "monotonic": [np.array([True, False, True]), np.zeros(3, bool)],
}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_scan_result_with_a_junk_field(data):
    junk = data.draw(st.sampled_from([None, *SCAN_FIELDS]), label="junk field")
    fields = {name: data.draw(st.sampled_from(POOL if name == junk else good), label=name)
              for name, good in SCAN_FIELDS.items()}
    assert list(fields) == [field.name for field in dataclasses.fields(qtrep.ScanResult)]
    bins = data.draw(st.sampled_from(POOL + [1, 7, 10**4]), label="bins")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = qtrep.ScanResult(**fields)
        except QtrepError:
            return
        assert 0.0 <= result.oscillatory_fraction <= 1.0
        try:
            result.omega_bins(bins)
        except QtrepError:
            pass
