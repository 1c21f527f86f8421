"""The shared readers of outside input, and the entry points that use them.

Each kind of outside value has one reader in qtrep.errors: _integer
(and _integers), _positive, _boolean, _json_object, _sequence and
_instance, next to the array converter _finite_array.  Bad input raises InputError,
never a TypeError, AttributeError or KeyError.
"""

import json
import math

import numpy as np
import pytest

from qtrep import cli, composite, dynamics, lindblad, pme, qtfit, relaxation
from qtrep.errors import (
    InputError,
    _boolean,
    _finite_array,
    _instance,
    _integer,
    _integers,
    _json_object,
    _positive,
    _sequence,
)

CHAIN3 = [[0.0, 3.0, 5.0], [1.0, 0.0, 6.0], [2.0, 4.0, 0.0]]


class TestInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 10**30])
    def test_integers_accepted_as_python_ints(self, value):
        got = _integer(value, "k", 0)
        assert got == value and type(got) is int

    @pytest.mark.parametrize("value", [True, np.True_, 3.0, "3", None, [3], np.array(3)])
    def test_non_integers_rejected(self, value):
        with pytest.raises(InputError, match=r"^k must be an integer, got "):
            _integer(value, "k", 0)

    def test_bounds(self):
        assert _integer(5, "k", 5, 5) == 5
        with pytest.raises(InputError, match=r"^k must be >= 1, got 0$"):
            _integer(0, "k", 1)
        with pytest.raises(InputError, match=r"^k must be <= 4, got 5$"):
            _integer(5, "k", 1, 4)

    def test_one_pass_over_a_sequence(self):
        assert _integers((), "i", 0, 0) == ()
        assert _integers((2, np.int32(0), 1), "i", 0, 2) == (2, 0, 1)
        with pytest.raises(InputError, match=r"^i must be an integer, got False$"):
            _integers((0, False), "i", 0)
        with pytest.raises(InputError, match=r"^i must be <= 2, got 7$"):
            _integers((0, 7, 1), "i", 0, 2)


class TestPositive:
    @pytest.mark.parametrize("value", [2, 2.5, np.float32(0.5), np.int64(3), 1e-300])
    def test_numbers_accepted_as_floats(self, value):
        got = _positive(value, "x")
        assert got == float(value) and type(got) is float

    @pytest.mark.parametrize("value", [True, np.True_, "1", None, [1.0], np.array(1.0), 1j])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(InputError, match=r"^x must be a number, got "):
            _positive(value, "x")

    @pytest.mark.parametrize("value, message", [
        (0, "x must be positive, got 0.0"), (-1.5, "x must be positive, got -1.5"),
        (math.nan, "x must be finite"), (math.inf, "x must be finite"),
        (10**400, "x must be finite"),
    ])
    def test_out_of_range_rejected(self, value, message):
        with pytest.raises(InputError, match=rf"^{message}$"):
            _positive(value, "x")


class TestBoolean:
    def test_flags_accepted(self):
        assert _boolean(True, "f") is True
        assert _boolean(np.False_, "f") is False

    @pytest.mark.parametrize("value", [0, 1, 1.0, "true", None, [True]])
    def test_non_flags_rejected(self, value):
        with pytest.raises(InputError, match=r"^f must be a boolean, got "):
            _boolean(value, "f")


class TestSequence:
    def test_iterables_become_tuples(self):
        assert _sequence([1, 2], "s") == (1, 2)
        assert _sequence(np.arange(2), "s") == (0, 1)
        assert _sequence(iter("ab"), "s") == ("a", "b")

    @pytest.mark.parametrize("value, kind", [
        (5, "int"), (None, "NoneType"), ("ab", "str"), (b"ab", "bytes"),
        ({"A": 1}, "dict"), (np.array(5), "ndarray"),
    ])
    def test_non_sequences_rejected(self, value, kind):
        with pytest.raises(InputError, match=rf"^s must be a sequence, got {kind}$"):
            _sequence(value, "s")


class TestJsonObject:
    def test_known_keys_pass(self):
        data = {"a": 1}
        assert _json_object(data, "doc", ("a", "b"), ("a",)) is data

    @pytest.mark.parametrize("value, kind", [
        ([], "list"), ([1], "list"), ("a", "str"), (None, "NoneType"), (True, "bool"),
    ])
    def test_non_objects_rejected(self, value, kind):
        with pytest.raises(InputError, match=rf"^doc must be a JSON object, got {kind}$"):
            _json_object(value, "doc", ("a",))

    def test_unknown_keys_named_sorted_before_missing_ones(self):
        with pytest.raises(InputError, match=r"^unknown doc keys: 1, x, y$"):
            _json_object({"y": 0, "x": 0, 1: 0}, "doc", ("a",), ("a",))
        with pytest.raises(InputError, match=r"^missing required doc key: b$"):
            _json_object({"a": 0}, "doc", ("a", "b"), ("a", "b"))


class TestInstance:
    def test_instances_returned_as_they_are(self):
        system = composite.CompositeSystem.with_lambda_star(1.0, 2.0)
        assert _instance(system, composite.CompositeSystem, "system") is system
        assert _instance(True, int, "flag") is True

    def test_other_types_rejected(self):
        with pytest.raises(InputError, match=r"^system must be a CompositeSystem, got dict$"):
            _instance({"a": 1.0}, composite.CompositeSystem, "system")


class TestFiniteArrayBools:
    # numpy reads a bool as 0/1, and casts one mixed with numbers in a
    # list to a number: every bool is rejected, alone or mixed
    @pytest.mark.parametrize("value", [
        True, np.True_, [True, False], [[False, True], [True, False]],
        [[0, True], [1.5, 0]], [1, np.False_], (0.5, True), np.array([True, False]),
        np.array([1.0, True], dtype=object), [np.array([True, False]), [0.0, 1.0]],
        [np.array(True), 1.5], [[np.array(True), 1.5], [0.0, 1.0]],
    ])
    def test_bools_rejected(self, value):
        with pytest.raises(InputError, match=r"^x must be a numeric "):
            _finite_array(value, "x", [(), (None,), (None, None)])

    @pytest.mark.parametrize("value", [
        1, 2.5, np.int64(3), [0, 1], [[0, 1.5], [2, 0]], (0.5, np.float32(1)),
        np.array([0, 1]), np.array([1.0, 2], dtype=object),
    ])
    def test_numbers_accepted(self, value):
        np.testing.assert_array_equal(_finite_array(value, "x", [(), (None,), (None, None)]),
                                      np.asarray(value, dtype=float))

    @pytest.mark.parametrize("call", [
        lambda: composite.CompositeSystem(a=1.0, c=1.0, lam=True),
        lambda: pme.ProbabilityState([True, False]),
        lambda: pme.TransitionMatrix([[0, True], [1.5, 0]]),
        lambda: lindblad.LindbladChannel(h=[True, 0, 0], dissipators=()),
        lambda: relaxation.ThreeStateRates(1.0, True, 1.0, 1.0, 1.0, 1.0),
    ], ids=["lam", "ProbabilityState", "TransitionMatrix", "channel-h", "ThreeStateRates"])
    def test_entry_points_reject_bools(self, call):
        with pytest.raises(InputError, match=r" must be a numeric "):
            call()


# Every config whose exit code a bool in an array moves from 0 to 2.
BOOL_CONFIGS = {
    "qt-fit-W": ("qt-fit", {"W": [[False, True], [True, False]]}, "W"),
    "qt-fit-W-mixed": ("qt-fit", {"W": [[0, True], [1.5, 0]]}, "W"),
    "pme-solve-p0": ("pme-solve", {"W": CHAIN3, "p0": [True, 0, 0], "t_end": 1}, "p0"),
    "relax-classify-rates": ("relax-classify", {"rates": [1, 2, 3, 4, 5, True]}, "rates"),
    "relax-scan-ranges": ("relax-scan", {"samples": 4, "ranges": [0, True]}, "ranges"),
    "lindblad-P0": ("lindblad", {"channel": {"dissipators": [{"A": [1, 0, 0], "B": [0, 1, 0]}]},
                                 "P0": [0, 0, True], "t_end": 1}, "P0"),
    "lindblad-h": ("lindblad", {"channel": {"h": [0, 0, True], "dissipators": [
        {"A": [1, 0, 0], "B": [0, 1, 0]}]}, "P0": [0, 0, 0], "t_end": 1,
        "gradient_check": False}, "h"),
}


@pytest.mark.parametrize("name", BOOL_CONFIGS)
def test_cli_rejects_bool_arrays(name, tmp_path, capsys):
    command, cfg, key = BOOL_CONFIGS[name]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**cfg, "out": str(tmp_path / "o")}))
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} must be a numeric ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


# Each library entry point named for the outside value it reads.  None
# of them takes a bool, a string, None or a list there.
ENTRY_POINTS = {
    "integrate.t_end": lambda x: dynamics.integrate(lambda y: -y, [1.0], x, 0.1),
    "integrate.dt": lambda x: dynamics.integrate(lambda y: -y, [1.0], 1.0, x),
    "integrate.stride": lambda x: dynamics.integrate(lambda y: -y, [1.0], 1.0, 0.1, stride=x),
    "CompositeSystem.a": lambda x: composite.CompositeSystem(a=x, c=1.0, lam=1.0),
    "CompositeSystem.c": lambda x: composite.CompositeSystem(a=1.0, c=x, lam=1.0),
    "CompositeSystem.boltzmann_k":
        lambda x: composite.CompositeSystem(a=1.0, c=1.0, lam=1.0, boltzmann_k=x),
    "lambda_star": lambda x: composite.lambda_star(x, 1.0),
    "scan.seed": lambda x: relaxation.scan(relaxation.ScanGrid((0.0, 1.0), 4), seed=x),
    "ScanGrid.samples": lambda x: relaxation.ScanGrid((0.0, 1.0), x),
    "LindbladChannel.from_dict": lindblad.LindbladChannel.from_dict,
    "QTRepresentation.from_json_dict": qtfit.QTRepresentation.from_json_dict,
}
BAD_VALUES = {"bool": True, "string": "1", "none": None, "list": [1]}


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_rejects_wrong_type(entry, bad):
    with pytest.raises(InputError):
        ENTRY_POINTS[entry](BAD_VALUES[bad])


# Every library function that takes a channel, a composite system, a
# fitted representation, a trajectory, an entropy or a scan grid, its
# other arguments valid, with the argument's name and type.
_P = np.zeros(3)
_W = composite.product_state(0.25, 0.75)
_CHANNEL = ("channel", "LindbladChannel")
_SYSTEM = ("system", "CompositeSystem")
OBJECT_ARGUMENTS = {
    "bloch_rhs": (lambda x: lindblad.bloch_rhs(x, _P), _CHANNEL),
    "stationary_bloch": (lindblad.stationary_bloch, _CHANNEL),
    "bloch_entropy": (lambda x: lindblad.bloch_entropy(x, _P), _CHANNEL),
    "gradient_rhs": (lambda x: lindblad.gradient_rhs(x, _P), _CHANNEL),
    "qt_six_rhs": (lambda x: lindblad.qt_six_rhs(x, lindblad.embed_six(_P)), _CHANNEL),
    "require_gradient_form": (lindblad.require_gradient_form, _CHANNEL),
    "composite_generator": (composite.composite_generator, _SYSTEM),
    "subsystem_entropies": (lambda x: composite.subsystem_entropies(x, _W), _SYSTEM),
    "composite_entropy": (lambda x: composite.composite_entropy(x, _W), _SYSTEM),
    "entropy_gradient": (lambda x: composite.entropy_gradient(x, _W), _SYSTEM),
    "qt_flow": (lambda x: composite.qt_flow(x, _W), _SYSTEM),
    "q_parameter": (composite.q_parameter, _SYSTEM),
    "flow_matrix": (qtfit.flow_matrix, ("rep", "QTRepresentation")),
    "monotonicity_witness":
        (lambda x: dynamics.monotonicity_witness(x, _P), ("trajectory", "Trajectory")),
    "QTRepresentation": (lambda x: qtfit.QTRepresentation(x, [], 1.0, 0.0),
                         ("entropy", "QuadraticEntropy")),
    "scan": (relaxation.scan, ("grid", "ScanGrid")),
}
BAD_OBJECTS = {"none": None, "dict": {}, "object": object(), "string": "channel"}


@pytest.mark.parametrize("bad", BAD_OBJECTS)
@pytest.mark.parametrize("entry", OBJECT_ARGUMENTS)
def test_object_argument_rejected(entry, bad):
    value = BAD_OBJECTS[bad]
    call, (name, cls) = OBJECT_ARGUMENTS[entry]
    with pytest.raises(InputError) as info:
        call(value)
    assert str(info.value) == f"{name} must be a {cls}, got {type(value).__name__}"


def _channel(dissipators):
    return {"dissipators": dissipators}


def _representation(**change):
    return {**qtfit.fit(CHAIN3).to_json_dict(), **change}


@pytest.mark.parametrize("call, message", [
    (lambda: relaxation.scan(relaxation.ScanGrid((0.0, 1.0), 4), seed=-1),
     "seed must be >= 0, got -1"),
    (lambda: relaxation.scan(relaxation.ScanGrid((0.0, 1.0), 4), seed="x"),
     "seed must be an integer, got 'x'"),
    (lambda: lindblad.LindbladChannel.from_dict([]), "channel must be a JSON object, got list"),
    (lambda: lindblad.LindbladChannel.from_dict({}), "missing required channel key: dissipators"),
    (lambda: lindblad.LindbladChannel.from_dict(_channel([[[1, 0, 0], [0, 1, 0]]])),
     "dissipator 0 must be a JSON object, got list"),
    (lambda: lindblad.LindbladChannel.from_dict(_channel(5)),
     "dissipators must be a sequence, got int"),
    (lambda: lindblad.LindbladChannel.from_dict(_channel("ab")),
     "dissipators must be a sequence, got str"),
    (lambda: lindblad.LindbladChannel.from_dict(
        _channel([{"A": [1, 0, 0], "B": [0, 1, 0]}, {"A": [1, 0, 0], "a": 1}])),
     "unknown dissipator 1 keys: a"),
    (lambda: lindblad.LindbladChannel.from_dict(_channel([{"A": [1, 0, 0]}])),
     "missing required dissipator 0 key: B"),
    (lambda: qtfit.QTRepresentation.from_json_dict([1]),
     "representation must be a JSON object, got list"),
    (lambda: qtfit.QTRepresentation.from_json_dict(_representation(extra=1)),
     "unknown representation keys: extra"),
    (lambda: qtfit.QTRepresentation.from_json_dict({"r": []}),
     "missing required representation key: q"),
], ids=["seed-negative", "seed-string", "channel-list", "channel-no-dissipators-key",
        "dissipator-pair-list", "dissipators-int", "dissipators-string",
        "dissipator-unknown-key", "dissipator-missing-key", "representation-list",
        "representation-unknown-key", "representation-missing-key"])
def test_document_errors_name_the_value(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
