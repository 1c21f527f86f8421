import re

import numpy as np
import pytest

from qtrep import composite as cp
from qtrep import multilinear as ml
from qtrep import pme
from qtrep.errors import InputError


def kron_sum_generator(a, c):
    # independent two-state flips at rates a and c, ordered (11, 12, 21, 22)
    la = np.array([[-a, a], [a, -a]])
    lc = np.array([[-c, c], [c, -c]])
    return np.kron(la, np.eye(2)) + np.kron(np.eye(2), lc)


class TestSystem:
    def test_lambda_star_reference_values(self):
        assert cp.lambda_star(2.0, 2.0) == 4.0
        assert cp.lambda_star(4.0, 4.0) == 2.0
        assert cp.lambda_star(1.0, 1.0) == 8.0

    def test_with_lambda_star(self):
        system = cp.CompositeSystem.with_lambda_star(3.0, 5.0)
        assert system.lam == pytest.approx(4.0 * 8.0 / 15.0, rel=1e-14)

    @pytest.mark.parametrize("rate", [1e-200, 1e200, 1e308])
    def test_lambda_star_rejects_out_of_range_pairs(self, rate):
        # a * c underflows to 0, a * c overflows, a + c overflows
        with pytest.raises(InputError, match=re.escape(f"rates a={rate!r} and c={rate!r}")):
            cp.lambda_star(rate, rate)

    def test_lambda_star_near_the_range_ends(self):
        assert cp.lambda_star(1e154, 1e154) == pytest.approx(8e-154, rel=1e-14)
        assert cp.lambda_star(1e-154, 1e-154) == pytest.approx(8e154, rel=1e-14)

    def test_bad_rates_rejected(self):
        with pytest.raises(InputError):
            cp.CompositeSystem(a=0.0, c=1.0, lam=1.0)
        with pytest.raises(InputError):
            cp.CompositeSystem(a=1.0, c=-2.0, lam=1.0)


class TestGenerator:
    def test_reference_first_row(self):
        system = cp.CompositeSystem.with_lambda_star(1.0, 1.0)
        gen = cp.composite_generator(system)
        np.testing.assert_array_equal(gen[0], [-2.0, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize("a,c", [(1.0, 1.0), (2.0, 0.5), (0.3, 1.7)])
    def test_matches_kronecker_sum(self, a, c):
        system = cp.CompositeSystem.with_lambda_star(a, c)
        np.testing.assert_allclose(
            cp.composite_generator(system), kron_sum_generator(a, c), atol=1e-14
        )

    def test_balanced_directions_are_eigenvectors(self):
        a, c = 1.3, 0.4
        gen = cp.composite_generator(cp.CompositeSystem.with_lambda_star(a, c))
        v_a = np.array([1.0, 1.0, -1.0, -1.0])
        v_b = np.array([1.0, -1.0, 1.0, -1.0])
        v_c = np.array([1.0, -1.0, -1.0, 1.0])
        np.testing.assert_allclose(gen @ v_a, -2.0 * a * v_a, atol=1e-13)
        np.testing.assert_allclose(gen @ v_b, -2.0 * c * v_b, atol=1e-13)
        np.testing.assert_allclose(gen @ v_c, -2.0 * (a + c) * v_c, atol=1e-13)

    def test_uniform_is_stationary(self):
        system = cp.CompositeSystem.with_lambda_star(0.8, 2.2)
        gen = cp.composite_generator(system)
        np.testing.assert_allclose(gen @ np.full(4, 0.25), 0.0, atol=1e-14)
        st = pme.stationary_state(pme.TransitionMatrix(gen))
        np.testing.assert_allclose(st.p, 0.25, atol=1e-10)


class TestEntropy:
    def test_subsystem_entropy_reference(self):
        system = cp.CompositeSystem(a=2.0, c=2.0, lam=cp.lambda_star(2.0, 2.0))
        s_a, s_b = cp.subsystem_entropies(system, np.array([1.0, 0.0, 0.0, 0.0]))
        assert s_a == pytest.approx(-0.5, abs=1e-14)
        assert s_b == pytest.approx(-0.5, abs=1e-14)

    def test_uniform_state_maximizes(self):
        system = cp.CompositeSystem.with_lambda_star(1.0, 2.0)
        uniform = np.full(4, 0.25)
        assert cp.composite_entropy(system, uniform) == pytest.approx(0.0, abs=1e-14)
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = rng.dirichlet(np.ones(4))
            assert cp.composite_entropy(system, w) <= 1e-14

    def test_gradient_matches_finite_differences(self):
        system = cp.CompositeSystem.with_lambda_star(1.4, 0.6)
        w = np.array([0.4, 0.3, 0.2, 0.1])
        step = 1e-6
        grad = np.zeros(4)
        for i in range(4):
            up, dn = w.copy(), w.copy()
            up[i] += step
            dn[i] -= step
            grad[i] = (
                cp.composite_entropy(system, up) - cp.composite_entropy(system, dn)
            ) / (2 * step)
        np.testing.assert_allclose(cp.entropy_gradient(system, w), grad, atol=1e-7)


class TestGradientFlow:
    @pytest.mark.parametrize("a,c", [(1.0, 1.0), (2.0, 2.0), (0.5, 1.5), (3.0, 0.25)])
    def test_flow_equals_generator_at_lambda_star(self, a, c):
        system = cp.CompositeSystem.with_lambda_star(a, c)
        gen = cp.composite_generator(system)
        rng = np.random.default_rng(17)
        for _ in range(10):
            w = rng.dirichlet(np.ones(4))
            np.testing.assert_allclose(
                cp.qt_flow(system, w), gen @ w, atol=1e-12
            )

    @pytest.mark.parametrize("lam", [cp.lambda_star(0.7, 2.3), 1.0])
    def test_matches_bruteforce_kernel(self, lam):
        system = cp.CompositeSystem(a=0.7, c=2.3, lam=lam)
        rng = np.random.default_rng(18)
        for _ in range(10):
            w = rng.dirichlet(np.ones(4))
            oracle = ml.main_term_bruteforce(cp.entropy_gradient(system, w), 4)
            np.testing.assert_allclose(cp.qt_flow(system, w), oracle, rtol=0, atol=1e-14)

    def test_off_star_coupling_differs(self):
        system = cp.CompositeSystem(a=1.0, c=1.0, lam=1.0)
        gen = cp.composite_generator(system)
        w = np.array([0.4, 0.1, 0.2, 0.3])
        assert np.max(np.abs(cp.qt_flow(system, w) - gen @ w)) > 1e-3

    def test_flow_conserves_probability(self):
        system = cp.CompositeSystem.with_lambda_star(0.9, 1.8)
        w = np.array([0.1, 0.2, 0.3, 0.4])
        assert abs(cp.qt_flow(system, w).sum()) < 1e-13

    def test_gradient_sum_is_zero_on_simplex(self):
        # entropy built from mean-free directions: gradient has no
        # component along ones
        system = cp.CompositeSystem.with_lambda_star(1.1, 0.7)
        w = np.random.default_rng(19).dirichlet(np.ones(4))
        assert abs(cp.entropy_gradient(system, w).sum()) < 1e-13


class TestProductStates:
    def test_product_state_marginals(self):
        w = cp.product_state(0.7, 0.4)
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-14)
        assert w[0] + w[1] == pytest.approx(0.7, abs=1e-14)
        assert w[0] + w[2] == pytest.approx(0.4, abs=1e-14)

    def test_product_identity_for_balanced_differences(self):
        # on product states (v_A.w)(v_B.w) = v_C.w
        w = cp.product_state(0.65, 0.3)
        v_a = np.array([1.0, 1.0, -1.0, -1.0])
        v_b = np.array([1.0, -1.0, 1.0, -1.0])
        v_c = np.array([1.0, -1.0, -1.0, 1.0])
        assert (v_a @ w) * (v_b @ w) == pytest.approx(v_c @ w, abs=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            cp.product_state(1.2, 0.5)


class TestQParameter:
    def test_reference_values(self):
        assert cp.q_parameter(cp.CompositeSystem.with_lambda_star(1.0, 1.0)) == 1.5
        assert cp.q_parameter(cp.CompositeSystem.with_lambda_star(2.0, 2.0)) == 2.0

    def test_exceeds_one(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a, c = rng.uniform(0.1, 5.0, 2)
            assert cp.q_parameter(cp.CompositeSystem.with_lambda_star(a, c)) > 1.0

    @pytest.mark.parametrize("a,c,k", [(1.0, 1.0, 1.0), (0.3, 7.0, 2.5), (4.0, 0.2, 0.1)])
    def test_composition_rule_coefficient(self, a, c, k):
        # (1 - q)/k is the coefficient -(a + c)/4 of the entropy product.
        q = cp.q_parameter(cp.CompositeSystem.with_lambda_star(a, c, boltzmann_k=k))
        assert abs((1.0 - q) / k + (a + c) / 4.0) <= 1e-12 * max(1.0, abs(q))

    def test_boltzmann_scaling(self):
        system = cp.CompositeSystem.with_lambda_star(1.0, 2.0, boltzmann_k=0.5)
        assert cp.q_parameter(system) == pytest.approx(1.0 + 0.5 * 3.0 / 4.0, rel=1e-14)
