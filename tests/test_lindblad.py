"""Bloch-vector channels: flows, gradient identity, six-variable form."""

import dataclasses
import warnings

import numpy as np
import pytest

from qtrep import lindblad as lb
from qtrep import multilinear as ml
from qtrep.errors import (
    DegenerateChannelError,
    GradientFormUnavailableError,
    InputError,
)
from qtrep.multilinear import check_six_state


def unit_pair(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(3), rng.standard_normal(3)


def single(a, b):
    """Gradient-form channel: no field, the one dissipator (a, b)."""
    return lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b),))


class TestChannel:
    def test_from_dict_defaults_h_to_zero(self):
        ch = lb.LindbladChannel.from_dict(
            {"dissipators": [{"A": [1, 0, 0], "B": [0, 1, 0]}]}
        )
        np.testing.assert_array_equal(ch.h, np.zeros(3))
        assert len(ch.dissipators) == 1

    def test_bad_vector_rejected(self):
        with pytest.raises(InputError):
            lb.LindbladChannel.from_dict({"dissipators": [{"A": [1, 0], "B": [0, 1, 0]}]})

    def test_non_numeric_vector_rejected(self):
        for bad in ([0, [], 0], "x", {"a": 1}, [10**400, 0, 0]):
            with pytest.raises(InputError, match="B\\[0\\] must be a numeric 3-vector"):
                lb.LindbladChannel(h=np.zeros(3), dissipators=(([1, 0, 0], bad),))

    def test_unknown_dissipator_key_rejected(self):
        with pytest.raises(InputError):
            lb.LindbladChannel.from_dict(
                {"dissipators": [{"A": [1, 0, 0], "B": [0, 1, 0], "C": [0, 0, 1]}]}
            )

    @pytest.mark.parametrize("dissipators, match", [
        (([1, 2, 3],), r"dissipator 0 must be an \(A, B\) pair"),
        ((([1, 0, 0], [0, 1, 0], [0, 0, 1]),), r"dissipator 0 must be an \(A, B\) pair"),
        ((([1, 0, 0], [0, 1, 0]), {"A": [1, 0, 0], "B": [0, 1, 0]}),
         r"dissipator 1 must be an \(A, B\) pair"),
        (({"A": [1, 0, 0]},), r"dissipator 0 must be an \(A, B\) pair"),
        ((None,), r"dissipator 0 must be an \(A, B\) pair"),
        (5, r"^dissipators must be a sequence, got int$"),
    ], ids=["flat-vector", "three-vectors", "dict-entry", "one-key-dict", "none",
            "not-iterable"])
    def test_malformed_dissipators_rejected(self, dissipators, match):
        with pytest.raises(InputError, match=match):
            lb.LindbladChannel(h=np.zeros(3), dissipators=dissipators)


def literal_bloch_rhs(channel, p):
    """bloch_rhs with 2 (A x B) formed on every call: the bitwise oracle."""
    out = np.cross(channel.h, p)
    for a, b in channel.dissipators:
        out += 2.0 * np.cross(a, b)
        out -= np.cross(a, np.cross(p, a))
        out -= np.cross(b, np.cross(p, b))
    return out


def dot3(u, v):
    """u . v in the library's fixed order; `@` is BLAS ddot, whose bits vary by kernel."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def literal_stationary_bloch(a, b):
    cross = np.cross(a, b)
    return 2.0 * cross / float(dot3(a, a) + dot3(b, b))


def literal_bloch_entropy(a, b, p):
    """bloch_entropy of one state on Python floats."""
    source = (2.0 * np.cross(a, b)).tolist()
    a, b, p = (np.asarray(v, dtype=float).tolist() for v in (a, b, p))
    ap, bp = dot3(a, p), dot3(b, p)
    weight = dot3(a, a) + dot3(b, b)
    return dot3(source, p) - dot3(p, p) * weight / 2.0 + ap * ap / 2.0 + bp * bp / 2.0


def literal_gradient_rhs(a, b, p):
    return 2.0 * np.cross(a, b) - p * (dot3(a, a) + dot3(b, b)) + a * dot3(a, p) + b * dot3(b, p)


def random_pair(rng):
    """(A, B) with |A| and |B| each drawn log-uniformly from 1e-3 to 1e3."""
    return tuple(
        rng.standard_normal(3) / np.sqrt(3.0) * 10.0 ** rng.uniform(-3.0, 3.0)
        for _ in range(2)
    )


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def offset_copy(x, offset):
    """x copied into a view of a larger buffer, starting offset bytes past a 32-byte boundary."""
    buffer = np.empty(x.size + 4)
    start = (offset - buffer.ctypes.data) % 32 // 8
    view = buffer[start:start + x.size].reshape(x.shape)
    view[...] = x
    assert view.ctypes.data % 32 == offset
    return view


class TestDerivedConstants:
    def test_values(self):
        rng = np.random.default_rng(900)
        pairs = tuple(random_pair(rng) for _ in range(3))
        ch = lb.LindbladChannel(h=np.zeros(3), dissipators=pairs)
        for (a, b), source, weight in zip(pairs, ch.sources, ch.weights):
            assert bits(source) == bits(2.0 * np.cross(a, b))
            assert type(weight) is float
            assert weight == float(dot3(a, a) + dot3(b, b))

    def test_read_only(self):
        ch = single(*unit_pair(901))
        assert isinstance(ch.sources, tuple) and isinstance(ch.weights, tuple)
        with pytest.raises(ValueError):
            ch.sources[0][0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ch.weights = (1.0,)

    def test_not_constructor_arguments(self):
        fields = dataclasses.fields(lb.LindbladChannel)
        assert [f.name for f in fields if f.init] == ["h", "dissipators"]
        with pytest.raises(TypeError):
            lb.LindbladChannel(h=np.zeros(3), dissipators=(), sources=())
        with pytest.raises(TypeError):
            lb.LindbladChannel(h=np.zeros(3), dissipators=(), weights=())

    def test_overflow_is_silent(self):
        # The CLI reports these channels through its rate-scale check.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ch = lb.LindbladChannel(
                h=np.zeros(3),
                dissipators=(([1e300, 0, 0], [0, 1e300, 0]),
                             ([1e200, 1e200, 0], [1e200, 1e200, 0])),
            )
        assert ch.weights == (np.inf, np.inf)
        assert ch.sources[0][2] == np.inf
        assert np.isnan(ch.sources[1][2])


class TestAlignment:
    """No bit depends on where a vector sits in memory.

    BLAS ddot on a 3-vector gives other bits at another address mod 32
    under some OpenBLAS kernels (Core2, Prescott); the library's dot
    products are fixed-order sums instead.
    """

    @pytest.mark.parametrize("offset", [0, 8, 16, 24])
    def test_entropy_of_offset_rows(self, offset):
        a, b = unit_pair(47)
        ch = single(a, b)
        # Rows of a stack start 24 bytes apart, so every offset mod 32 occurs.
        rows = offset_copy(np.random.default_rng(48).uniform(-0.9, 0.9, (200, 3)), offset)
        got = lb.bloch_entropy(ch, rows)
        assert bits(got) == bits([lb.bloch_entropy(ch, row) for row in rows])
        assert bits(got) == bits([literal_bloch_entropy(a, b, row) for row in rows])

    @pytest.mark.parametrize("offset", [0, 8, 16, 24])
    def test_weights_of_offset_vectors(self, offset):
        rng = np.random.default_rng(49)
        for _ in range(100):
            a, b = random_pair(rng)
            shifted = lb.LindbladChannel(
                h=np.zeros(3), dissipators=((offset_copy(a, offset), offset_copy(b, offset)),))
            assert shifted.weights == single(a.copy(), b.copy()).weights
            assert shifted.weights == (float(dot3(a, a) + dot3(b, b)),)


class TestBitwiseAgainstLiteralFormulas:
    """The channel's stored constants reproduce the per-call formulas bit for bit."""

    def test_bloch_rhs(self):
        # bloch_rhs works on Python floats; literal_bloch_rhs is np.cross.
        rng = np.random.default_rng(910)
        for _ in range(3000):
            pairs = tuple(random_pair(rng) for _ in range(rng.integers(1, 4)))
            h = random_pair(rng)[0] if rng.uniform() < 0.5 else np.zeros(3)
            ch = lb.LindbladChannel(h=h, dissipators=pairs)
            direction = rng.standard_normal(3)
            p = direction / np.linalg.norm(direction) * rng.uniform() ** (1 / 3)
            assert bits(lb.bloch_rhs(ch, p)) == bits(literal_bloch_rhs(ch, p))

    def test_gradient_form_functions(self):
        rng = np.random.default_rng(911)
        for _ in range(300):
            a, b = random_pair(rng)
            ch = single(a, b)
            p = rng.uniform(-1.0, 1.0, 3)
            assert bits(lb.stationary_bloch(ch)) == bits(literal_stationary_bloch(a, b))
            assert bits(lb.bloch_entropy(ch, p)) == bits(literal_bloch_entropy(a, b, p))
            assert bits(lb.gradient_rhs(ch, p)) == bits(literal_gradient_rhs(a, b, p))
            s = lb.embed_six(p)
            g3 = literal_gradient_rhs(a, b, lb.extract_bloch(s))
            assert bits(lb.qt_six_rhs(ch, s)) == bits(ml.six_slot_main_term(g3))


class TestBlochRhs:
    def test_pure_decay_reference(self):
        # h = 0, A = x, B = 0 at P = z: dP/dt = -P_z z
        ch = lb.LindbladChannel.from_dict(
            {"dissipators": [{"A": [1, 0, 0], "B": [0, 0, 0]}]}
        )
        out = lb.bloch_rhs(ch, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, -1.0], atol=1e-14)

    def test_field_term_precesses(self):
        ch = lb.LindbladChannel.from_dict({"h": [0, 0, 2], "dissipators": []})
        out = lb.bloch_rhs(ch, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 2.0, 0.0], atol=1e-14)

    def test_field_conserves_length(self):
        rng = np.random.default_rng(3)
        ch = lb.LindbladChannel.from_dict({"h": [0.3, -1.0, 0.7], "dissipators": []})
        p = rng.standard_normal(3)
        assert abs(p @ lb.bloch_rhs(ch, p)) < 1e-13

    def test_dissipators_add(self):
        a1, b1 = unit_pair(10)
        a2, b2 = unit_pair(11)
        p = np.array([0.2, -0.4, 0.1])
        one = lb.LindbladChannel(h=np.zeros(3), dissipators=((a1, b1),))
        two = lb.LindbladChannel(h=np.zeros(3), dissipators=((a2, b2),))
        both = lb.LindbladChannel(h=np.zeros(3), dissipators=((a1, b1), (a2, b2)))
        np.testing.assert_allclose(
            lb.bloch_rhs(both, p),
            lb.bloch_rhs(one, p) + lb.bloch_rhs(two, p),
            atol=1e-13,
        )

    @pytest.mark.parametrize("p, match", [
        (np.array([np.nan, 0.0, 0.0]), "^P has non-finite entries$"),
        (np.array([0.0, -np.inf, 0.0]), "^P has non-finite entries$"),
        (np.array([0.0, 0.0, np.inf], np.float32), "^P has non-finite entries$"),
        ([0.1, np.nan, 0.3], "^P has non-finite entries$"),
        (np.zeros(2), r"^P must be a 3-vector, got shape \(2,\)$"),
        (np.zeros((1, 3)), r"^P must be a 3-vector, got shape \(1, 3\)$"),
        (np.zeros(3, complex), "^P must be a numeric 3-vector$"),
        ([True, 0.0, 0.0], "^P must be a numeric 3-vector$"),
        ("abc", "^P must be a numeric 3-vector$"),
    ], ids=["nan", "inf", "inf-float32", "nan-list", "length", "row", "complex", "bool",
            "string"])
    def test_bad_state_rejected(self, p, match):
        ch = lb.LindbladChannel(h=np.ones(3), dissipators=(unit_pair(12),))
        with pytest.raises(InputError, match=match):
            lb.bloch_rhs(ch, p)

    def test_finite_float64_state_skips_the_converter(self, monkeypatch):
        ch = lb.LindbladChannel(h=np.ones(3), dissipators=(unit_pair(13),))
        p = np.array([0.25, -0.5, 1e-300])
        # other inputs go through the converter to the same float64 values
        for q in (p.tolist(), p.astype(np.float32), np.array([1, 0, -2])):
            assert bits(lb.bloch_rhs(ch, q)) == bits(literal_bloch_rhs(ch, np.asarray(q, float)))

        def converter(*args):
            raise AssertionError("_finite_array called on a finite float64 state")

        monkeypatch.setattr(lb, "_finite_array", converter)
        assert bits(lb.bloch_rhs(ch, p)) == bits(literal_bloch_rhs(ch, p))
        # a strided view and a read-only array are float64 3-vectors too
        assert bits(lb.bloch_rhs(ch, np.repeat(p, 2)[::2])) == bits(literal_bloch_rhs(ch, p))
        frozen = p.copy()
        frozen.setflags(write=False)
        assert bits(lb.bloch_rhs(ch, frozen)) == bits(literal_bloch_rhs(ch, p))


class TestStationary:
    def test_reference_values(self):
        np.testing.assert_allclose(
            lb.stationary_bloch(single([1.0, 0, 0], [0, 1.0, 0])),
            [0.0, 0.0, 1.0],
            atol=1e-14,
        )
        np.testing.assert_allclose(
            lb.stationary_bloch(single([1.0, 0, 0], [0, 2.0, 0])),
            [0.0, 0.0, 0.8],
            atol=1e-14,
        )

    def test_perpendicular_equal_pair_is_pure(self):
        # |A| = |B|, A.B = 0 gives |P_st| = 1
        a = np.array([0.6, 0.0, 0.8])
        b = np.cross(a, np.array([0.0, 1.0, 0.0]))
        b *= np.linalg.norm(a) / np.linalg.norm(b)
        p = lb.stationary_bloch(single(a, b))
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_rhs_vanishes_at_stationary(self):
        a, b = unit_pair(20)
        ch = lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b),))
        p = lb.stationary_bloch(ch)
        np.testing.assert_allclose(lb.bloch_rhs(ch, p), 0.0, atol=1e-12)

    def test_zero_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            lb.stationary_bloch(single(np.zeros(3), np.zeros(3)))

    @pytest.mark.parametrize("a, b", [
        ([1, 0, 0], [2, 0, 0]),
        ([0.3, -0.4, 1.2], [-0.6, 0.8, -2.4]),
        ([0, 0, 0], [0, 1, 0]),
        ([1, 0, 0], [0, 0, 0]),
    ])
    def test_parallel_or_zero_pair_rejected(self, a, b):
        with pytest.raises(DegenerateChannelError, match="A x B = 0"):
            lb.stationary_bloch(single(a, b))

    def test_parallel_pair_has_no_single_stationary_state(self):
        # The component along A is conserved: every point of that line is
        # stationary, so no formula can name one P_st.
        ch = lb.LindbladChannel(h=np.zeros(3), dissipators=(([1.0, 0, 0], [2.0, 0, 0]),))
        for x in (-0.5, 0.0, 0.5):
            np.testing.assert_array_equal(lb.bloch_rhs(ch, np.array([x, 0, 0])), 0.0)

    def test_tiny_cross_product_accepted(self):
        ch = single([1.0, 0, 0], [1.0, 1e-300, 0])
        np.testing.assert_array_equal(lb.stationary_bloch(ch), [0.0, 0.0, 1e-300])


class TestGradientIdentity:
    def test_single_dissipator_flow_is_gradient(self):
        for seed in range(25):
            a, b = unit_pair(seed)
            ch = lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b),))
            p = np.random.default_rng(400 + seed).uniform(-0.6, 0.6, 3)
            np.testing.assert_allclose(
                lb.bloch_rhs(ch, p), lb.gradient_rhs(ch, p), atol=1e-12
            )

    def test_gradient_matches_finite_differences(self):
        ch = single(*unit_pair(31))
        p = np.array([0.25, -0.1, 0.4])
        step = 1e-5
        grad = np.zeros(3)
        for i in range(3):
            up = p.copy()
            dn = p.copy()
            up[i] += step
            dn[i] -= step
            grad[i] = (lb.bloch_entropy(ch, up) - lb.bloch_entropy(ch, dn)) / (2 * step)
        np.testing.assert_allclose(lb.gradient_rhs(ch, p), grad, atol=1e-6)

    def test_entropy_reference_value(self):
        value = lb.bloch_entropy(single([1.0, 0, 0], [0, 1.0, 0]), np.array([0, 0, 1.0]))
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_entropy_of_a_stack_is_per_row_bitwise(self):
        a, b = unit_pair(44)
        ch = single(a, b)
        rows = np.random.default_rng(45).uniform(-0.6, 0.6, (50, 3))
        got = lb.bloch_entropy(ch, rows)
        assert got.shape == (50,)
        want = np.array([literal_bloch_entropy(a, b, p) for p in rows])
        assert got.tobytes() == want.tobytes()
        assert isinstance(lb.bloch_entropy(ch, rows[0]), float)

    @pytest.mark.parametrize("p", [
        [0.1, [0.2], 0.3], [[0.1, 0.2, 0.3], [0.1, 0.2]],
        ["0.1", "0.2", "0.3"], [["0.1", "0.2", "0.3"]],
        [np.nan, 0.0, 0.0], [[0.1, 0.2, 0.3], [0.0, np.nan, 0.0]],
        np.zeros(4), np.zeros((2, 4)), np.zeros((2, 2, 3)),
    ], ids=["ragged", "ragged-rows", "strings", "string-rows", "nan", "nan-rows",
            "length", "row-length", "3-d"])
    def test_entropy_rejects_bad_states(self, p):
        with pytest.raises(InputError, match="^P "):
            lb.bloch_entropy(single(*unit_pair(46)), p)

    def test_entropy_increases_along_flow(self):
        ch = single(*unit_pair(42))
        p = np.random.default_rng(43).uniform(-0.5, 0.5, 3)
        production = lb.gradient_rhs(ch, p) @ lb.gradient_rhs(ch, p)
        flow_production = lb.gradient_rhs(ch, p) @ lb.bloch_rhs(ch, p)
        assert flow_production == pytest.approx(production, rel=1e-10)
        assert flow_production >= 0.0


class TestSixVariableForm:
    def test_embedding_round_trip(self):
        p = np.array([0.3, -0.2, 0.7])
        s = lb.embed_six(p)
        check_six_state(s)
        np.testing.assert_allclose(lb.extract_bloch(s), p, atol=1e-14)
        np.testing.assert_allclose(s[0::2] + s[1::2], 1.0, atol=1e-14)

    def test_six_flow_matches_bloch_flow(self):
        for seed in range(20):
            ch = single(*unit_pair(500 + seed))
            p = np.random.default_rng(600 + seed).uniform(-0.5, 0.5, 3)
            six = lb.qt_six_rhs(ch, lb.embed_six(p))
            np.testing.assert_allclose(
                lb.extract_bloch(six), lb.gradient_rhs(ch, p), atol=1e-10
            )
            # pair populations stay conserved
            np.testing.assert_allclose(six[0::2] + six[1::2], 0.0, atol=1e-12)

    def test_six_flow_is_exact_at_extracted_state(self):
        # the kernel halves exactly, so only the embedding (1 +- P)/2 rounds
        for seed in range(20):
            ch = single(*unit_pair(700 + seed))
            s = lb.embed_six(np.random.default_rng(800 + seed).uniform(-0.5, 0.5, 3))
            six = lb.qt_six_rhs(ch, s)
            assert bits(lb.extract_bloch(six)) == bits(lb.gradient_rhs(ch, lb.extract_bloch(s)))
            assert bits(six[0::2] + six[1::2]) == bits(np.zeros(3))

    def test_bad_pair_sum_rejected(self):
        s = lb.embed_six(np.zeros(3))
        s[2] += 1e-6
        with pytest.raises(InputError):
            check_six_state(s)
        ch = single(*unit_pair(80))
        with pytest.raises(InputError, match="pair 1 must sum to 1"):
            lb.qt_six_rhs(ch, s)
        s = lb.embed_six(np.zeros(3))
        s[0] += 1e-6
        with pytest.raises(InputError, match="pair 0 must sum to 1"):
            lb.qt_six_rhs(ch, s)

    @pytest.mark.parametrize("s", [[np.nan, 1, 0.5, 0.5, 0.5, 0.5], np.full(5, 0.5),
                                   np.full(7, 0.5)])
    def test_qt_six_rhs_rejects_bad_state(self, s):
        ch = single(*unit_pair(81))
        with pytest.raises(InputError, match="six-variable state"):
            lb.qt_six_rhs(ch, s)

    def test_qt_six_rhs_is_kernel_at_gradient(self):
        ch = single(*unit_pair(82))
        s = lb.embed_six(np.array([0.1, -0.4, 0.3]))
        g3 = lb.gradient_rhs(ch, lb.extract_bloch(s))
        assert lb.qt_six_rhs(ch, s).tobytes() == ml.six_slot_main_term(g3).tobytes()

    @pytest.mark.parametrize("s", [[np.nan, 1, 0.5, 0.5, 0.5, 0.5], np.full(5, 0.5)])
    def test_extract_rejects_bad_state(self, s):
        with pytest.raises(InputError, match="six-variable state"):
            lb.extract_bloch(s)


class TestGradientFormGate:
    def test_accepts_single_dissipator_no_field(self):
        a, b = unit_pair(70)
        ch = lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b),))
        got_a, got_b = lb.require_gradient_form(ch)
        np.testing.assert_array_equal(got_a, a)
        np.testing.assert_array_equal(got_b, b)

    def test_rejects_field(self):
        a, b = unit_pair(71)
        ch = lb.LindbladChannel(h=np.array([0.0, 0.0, 1.0]), dissipators=((a, b),))
        with pytest.raises(GradientFormUnavailableError):
            lb.require_gradient_form(ch)

    def test_rejects_two_dissipators(self):
        a1, b1 = unit_pair(72)
        a2, b2 = unit_pair(73)
        ch = lb.LindbladChannel(h=np.zeros(3), dissipators=((a1, b1), (a2, b2)))
        with pytest.raises(GradientFormUnavailableError):
            lb.require_gradient_form(ch)

    @pytest.mark.parametrize("call", [
        lambda ch: lb.stationary_bloch(ch),
        lambda ch: lb.bloch_entropy(ch, np.zeros(3)),
        lambda ch: lb.gradient_rhs(ch, np.zeros(3)),
        lambda ch: lb.qt_six_rhs(ch, lb.embed_six(np.zeros(3))),
    ], ids=["stationary_bloch", "bloch_entropy", "gradient_rhs", "qt_six_rhs"])
    def test_every_gradient_form_function_gated(self, call):
        a, b = unit_pair(74)
        field = lb.LindbladChannel(h=np.array([0.0, 0.0, 1.0]), dissipators=((a, b),))
        with pytest.raises(GradientFormUnavailableError, match="field term"):
            call(field)
        two = lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b), unit_pair(75)))
        with pytest.raises(GradientFormUnavailableError, match="got 2"):
            call(two)
