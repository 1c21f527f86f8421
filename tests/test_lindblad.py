"""Bloch-vector channels: flows, gradient identity, six-variable form."""

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


class TestStationary:
    def test_reference_values(self):
        np.testing.assert_allclose(
            lb.stationary_bloch(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
            [0.0, 0.0, 1.0],
            atol=1e-14,
        )
        np.testing.assert_allclose(
            lb.stationary_bloch(np.array([1.0, 0, 0]), np.array([0, 2.0, 0])),
            [0.0, 0.0, 0.8],
            atol=1e-14,
        )

    def test_perpendicular_equal_pair_is_pure(self):
        # |A| = |B|, A.B = 0 gives |P_st| = 1
        a = np.array([0.6, 0.0, 0.8])
        b = np.cross(a, np.array([0.0, 1.0, 0.0]))
        b *= np.linalg.norm(a) / np.linalg.norm(b)
        p = lb.stationary_bloch(a, b)
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_rhs_vanishes_at_stationary(self):
        a, b = unit_pair(20)
        ch = lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b),))
        p = lb.stationary_bloch(a, b)
        np.testing.assert_allclose(lb.bloch_rhs(ch, p), 0.0, atol=1e-12)

    def test_zero_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            lb.stationary_bloch(np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("a, b", [
        ([1, 0, 0], [2, 0, 0]),
        ([0.3, -0.4, 1.2], [-0.6, 0.8, -2.4]),
        ([0, 0, 0], [0, 1, 0]),
        ([1, 0, 0], [0, 0, 0]),
    ])
    def test_parallel_or_zero_pair_rejected(self, a, b):
        with pytest.raises(DegenerateChannelError, match="A x B = 0"):
            lb.stationary_bloch(np.array(a, dtype=float), np.array(b, dtype=float))

    def test_parallel_pair_has_no_single_stationary_state(self):
        # The component along A is conserved: every point of that line is
        # stationary, so no formula can name one P_st.
        ch = lb.LindbladChannel(h=np.zeros(3), dissipators=(([1.0, 0, 0], [2.0, 0, 0]),))
        for x in (-0.5, 0.0, 0.5):
            np.testing.assert_array_equal(lb.bloch_rhs(ch, np.array([x, 0, 0])), 0.0)

    def test_tiny_cross_product_accepted(self):
        a, b = np.array([1.0, 0, 0]), np.array([1.0, 1e-300, 0])
        np.testing.assert_array_equal(lb.stationary_bloch(a, b), [0.0, 0.0, 1e-300])


class TestGradientIdentity:
    def test_single_dissipator_flow_is_gradient(self):
        for seed in range(25):
            a, b = unit_pair(seed)
            ch = lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b),))
            p = np.random.default_rng(400 + seed).uniform(-0.6, 0.6, 3)
            np.testing.assert_allclose(
                lb.bloch_rhs(ch, p), lb.gradient_rhs(a, b, p), atol=1e-12
            )

    def test_gradient_matches_finite_differences(self):
        a, b = unit_pair(31)
        p = np.array([0.25, -0.1, 0.4])
        step = 1e-5
        grad = np.zeros(3)
        for i in range(3):
            up = p.copy()
            dn = p.copy()
            up[i] += step
            dn[i] -= step
            grad[i] = (lb.bloch_entropy(a, b, up) - lb.bloch_entropy(a, b, dn)) / (2 * step)
        np.testing.assert_allclose(lb.gradient_rhs(a, b, p), grad, atol=1e-6)

    def test_entropy_reference_value(self):
        value = lb.bloch_entropy(
            np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])
        )
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_entropy_increases_along_flow(self):
        a, b = unit_pair(42)
        p = np.random.default_rng(43).uniform(-0.5, 0.5, 3)
        production = lb.gradient_rhs(a, b, p) @ lb.gradient_rhs(a, b, p)
        flow_production = lb.gradient_rhs(a, b, p) @ lb.bloch_rhs(
            lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b),)), p
        )
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
            a, b = unit_pair(500 + seed)
            p = np.random.default_rng(600 + seed).uniform(-0.5, 0.5, 3)
            six = lb.qt_six_rhs(a, b, lb.embed_six(p))
            np.testing.assert_allclose(
                lb.extract_bloch(six), lb.gradient_rhs(a, b, p), atol=1e-10
            )
            # pair populations stay conserved
            np.testing.assert_allclose(six[0::2] + six[1::2], 0.0, atol=1e-12)

    def test_bad_pair_sum_rejected(self):
        s = lb.embed_six(np.zeros(3))
        s[2] += 1e-6
        with pytest.raises(InputError):
            check_six_state(s)
        a, b = unit_pair(80)
        with pytest.raises(InputError, match="pair 1 must sum to 1"):
            lb.qt_six_rhs(a, b, s)
        s = lb.embed_six(np.zeros(3))
        s[0] += 1e-6
        with pytest.raises(InputError, match="pair 0 must sum to 1"):
            lb.qt_six_rhs(a, b, s)

    @pytest.mark.parametrize("s", [[np.nan, 1, 0.5, 0.5, 0.5, 0.5], np.full(5, 0.5),
                                   np.full(7, 0.5)])
    def test_qt_six_rhs_rejects_bad_state(self, s):
        a, b = unit_pair(81)
        with pytest.raises(InputError, match="six-variable state"):
            lb.qt_six_rhs(a, b, s)

    def test_qt_six_rhs_is_kernel_at_gradient(self):
        a, b = unit_pair(82)
        s = lb.embed_six(np.array([0.1, -0.4, 0.3]))
        g3 = lb.gradient_rhs(a, b, lb.extract_bloch(s))
        assert lb.qt_six_rhs(a, b, s).tobytes() == ml.six_slot_main_term(g3).tobytes()

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
