"""Array-holding records: one converter, private copies, identity equality.

Every record and reader turns outside input into a float array through
errors._finite_array: a copy of the right shape with finite entries, or
an InputError naming the value.  Records compare by identity, since
numpy arrays have no single truth value.
"""

import math

import numpy as np
import pytest

from qtrep import composite, dynamics, lindblad, pme, qtfit, relaxation
from qtrep.errors import InputError

CHAIN3 = [[0.0, 3.0, 5.0], [1.0, 0.0, 6.0], [2.0, 4.0, 0.0]]


def decay():
    return dynamics.integrate(lambda y: -y, [1.0, 0.5], 0.1, 0.05)


def zero_entropy(n):
    return qtfit.QuadraticEntropy(np.zeros((n, n)))


# Each record with a zero-argument builder; two calls give equal content.
RECORDS = {
    "TransitionMatrix": lambda: pme.TransitionMatrix(CHAIN3),
    "ProbabilityState": lambda: pme.ProbabilityState([0.25, 0.75]),
    "QuadraticEntropy": lambda: zero_entropy(3),
    "QTRepresentation": lambda: qtfit.fit(CHAIN3),
    "LindbladChannel": lambda: lindblad.LindbladChannel(
        h=[0.0, 0.0, 1.0], dissipators=(([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),)),
    "Trajectory": decay,
    "Spectrum": lambda: pme.spectrum(CHAIN3),
    "ScanResult": lambda: relaxation.scan(relaxation.ScanGrid((0.0, 1.0), 8)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equality_is_a_bool(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert (first == first) is True
    assert (first == second) is False
    assert (first != second) is True


def _channel(h, a, b):
    return lindblad.LindbladChannel(h=h, dissipators=((a, b),))


# (id, build, fresh caller arrays, the record fields that hold copies of them)
COPIED = [
    ("TransitionMatrix", pme.TransitionMatrix, lambda: [np.array(CHAIN3)],
     lambda rec: [rec.w]),
    ("ProbabilityState", pme.ProbabilityState, lambda: [np.array([0.25, 0.75])],
     lambda rec: [rec.p]),
    ("QuadraticEntropy", qtfit.QuadraticEntropy, lambda: [np.eye(2)],
     lambda rec: [rec.q]),
    ("QTRepresentation",
     lambda r: qtfit.QTRepresentation(zero_entropy(3), r, 1.0, 0.0),
     lambda: [np.array([0.5])], lambda rec: [rec.r]),
    ("LindbladChannel", _channel,
     lambda: [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
              np.array([0.0, 1.0, 0.0])],
     lambda rec: [rec.h, *rec.dissipators[0]]),
]


@pytest.mark.parametrize("build, make_inputs, fields", [c[1:] for c in COPIED],
                         ids=[c[0] for c in COPIED])
def test_caller_arrays_stay_writable_and_unaliased(build, make_inputs, fields):
    inputs = make_inputs()
    record = build(*inputs)
    for given, held in zip(inputs, fields(record)):
        assert given.flags.writeable
        assert not held.flags.writeable
        assert not np.shares_memory(given, held)
        before = held.copy()
        given += 1.0
        np.testing.assert_array_equal(held, before)


def _first_entry(shape, value):
    """A zero array of the given shape, as nested lists, with value first."""
    arr = np.zeros(shape).tolist()
    row = arr
    for _ in shape[1:]:
        row = row[0]
    row[0] = value
    return arr


BAD = {
    "string": lambda shape: "abc",
    "non-numeric entry": lambda shape: _first_entry(shape, "x"),
    # numpy would parse these strings and drop these imaginary parts.
    "numeric string entry": lambda shape: _first_entry(shape, "3"),
    "bytes entry": lambda shape: _first_entry(shape, b"3"),
    "complex entry": lambda shape: _first_entry(shape, 1 + 2j),
    "string in object array": lambda shape: np.array(_first_entry(shape, "3"), dtype=object),
    "complex in object array":
        lambda shape: np.array(_first_entry(shape, np.complex128(2j)), dtype=object),
    "ragged": lambda shape: _first_entry(shape, [0.0]),
    "nan": lambda shape: _first_entry(shape, math.nan),
    "inf": lambda shape: _first_entry(shape, -math.inf),
}

# Every place outside input becomes an array: (id, shape, call, name).
CONVERTED = [
    ("TransitionMatrix", (2, 2), pme.TransitionMatrix, "rate matrix"),
    ("ProbabilityState", (2,), pme.ProbabilityState, "state"),
    ("QuadraticEntropy", (2, 2), qtfit.QuadraticEntropy, "q"),
    ("QTRepresentation.r", (1,),
     lambda x: qtfit.QTRepresentation(zero_entropy(3), x, 1.0, 0.0), "r"),
    ("LindbladChannel.h", (3,), lambda x: lindblad.LindbladChannel(h=x, dissipators=()), "h"),
    ("LindbladChannel.B", (3,), lambda x: _channel([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], x),
     r"B\[0\]"),
    ("integrate.y0", (2,), lambda x: dynamics.integrate(lambda y: -y, x, 0.1, 0.05), "y0"),
    ("monotonicity_witness.stationary", (2,),
     lambda x: dynamics.monotonicity_witness(decay(), x), "stationary"),
    ("composite state", (4,),
     lambda x: composite.qt_flow(composite.CompositeSystem.with_lambda_star(1.0, 2.0), x),
     "composite state"),
    ("classify rates", (6,), relaxation.classify, "rates"),
]


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("shape, call, name", [c[1:] for c in CONVERTED],
                         ids=[c[0] for c in CONVERTED])
def test_bad_array_input_rejected(shape, call, name, bad):
    with pytest.raises(InputError, match=rf"^{name} (must be a|has non-finite)"):
        call(BAD[bad](shape))


@pytest.mark.parametrize("shape, call", [c[1:3] for c in CONVERTED],
                         ids=[c[0] for c in CONVERTED])
def test_empty_array_rejected(shape, call):
    # the converter takes an empty array; each record's own size check rejects it
    with pytest.raises(InputError):
        call(np.zeros((0,) * len(shape)))


@pytest.mark.parametrize("build", [
    lambda: relaxation.ThreeStateRates("a", 1, 1, 1, 1, 1),
    lambda: relaxation.ThreeStateRates([1, 2], 1, 1, 1, 1, 1),
    lambda: relaxation.ThreeStateRates(10**400, 1, 1, 1, 1, 1),
    lambda: relaxation.ThreeStateRates(math.nan, 1, 1, 1, 1, 1),
    lambda: composite.CompositeSystem(a=1, c=1, lam="x"),
    lambda: composite.CompositeSystem(a=None, c=1, lam=1),
    lambda: composite.CompositeSystem(a=1, c=[1, 2], lam=1),
    lambda: composite.CompositeSystem(a=1, c=1, lam=1, boltzmann_k=10**400),
    lambda: composite.CompositeSystem.with_lambda_star("x", 1.0),
    lambda: composite.product_state(math.nan, 0.5),
], ids=["rates-string", "rates-list", "rates-huge-int", "rates-nan", "lam-string",
        "a-none", "c-list", "k-huge-int", "lambda-star-string", "marginal-nan"])
def test_bad_scalar_field_rejected(build):
    with pytest.raises(InputError):
        build()
