import math

import numpy as np
import pytest

from qtrep import dynamics, pme
from qtrep.errors import DivergenceError, InconclusiveError, InputError


def decay_rhs(rate):
    return lambda y: -rate * y


class TestIntegrate:
    def test_exponential_accuracy(self):
        traj = dynamics.integrate(decay_rhs(1.0), np.array([1.0]), 1.0, 1e-3)
        assert traj.final_state[0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_fourth_order_convergence(self):
        w = pme.TransitionMatrix([[0.0, 1.0], [2.0, 0.0]])
        gen = pme.build_generator(w)
        rhs = lambda y: gen @ y
        p0 = np.array([0.9, 0.1])
        exact = dynamics.integrate(rhs, p0, 1.0, 1e-4).final_state
        err = []
        for dt in (0.02, 0.01, 0.005):
            approx = dynamics.integrate(rhs, p0, 1.0, dt).final_state
            err.append(np.max(np.abs(approx - exact)))
        order1 = math.log2(err[0] / err[1])
        order2 = math.log2(err[1] / err[2])
        assert order1 > 3.5 and order2 > 3.5

    def test_final_time_is_exact(self):
        # t_end not a multiple of dt: last step is shortened
        traj = dynamics.integrate(decay_rhs(0.3), np.array([1.0]), 1.0, 0.3)
        assert traj.times[-1] == 1.0
        assert traj.times.size == 5
        np.testing.assert_allclose(np.diff(traj.times)[:-1], 0.3, atol=1e-15)
        assert traj.final_state[0] == pytest.approx(math.exp(-0.3), abs=1e-6)

    def test_integer_step_count_has_no_stub_step(self):
        traj = dynamics.integrate(decay_rhs(1.0), np.array([1.0]), 1.0, 0.25)
        assert traj.times.size == 5

    def test_records_every_step(self):
        traj = dynamics.integrate(decay_rhs(1.0), np.array([1.0]), 0.1, 0.01)
        assert traj.times.size == 11
        assert traj.states.shape == (11, 1)
        assert traj.sum_drift.size == 11

    def test_sum_conservation_monitor(self):
        w = pme.TransitionMatrix([[0.0, 0.7, 0.2], [0.4, 0.0, 0.9], [0.3, 0.5, 0.0]])
        gen = pme.build_generator(w)
        traj = dynamics.integrate(
            lambda y: gen @ y, np.array([0.5, 0.3, 0.2]), 5.0, 1e-2
        )
        assert traj.sum_drift.max() < 1e-12

    def test_entropy_monitor(self):
        traj = dynamics.integrate(
            decay_rhs(1.0),
            np.array([0.5]),
            1.0,
            0.1,
            entropy=lambda y: float(y[0] ** 2),
        )
        assert traj.entropy is not None
        assert traj.entropy[0] == 0.25
        np.testing.assert_allclose(np.diff(traj.entropy), traj.entropy_delta[1:], atol=0)
        assert traj.entropy_delta[0] == 0.0

    def test_no_entropy_by_default(self):
        traj = dynamics.integrate(decay_rhs(1.0), np.array([1.0]), 0.1, 0.05)
        assert traj.entropy is None and traj.entropy_delta is None

    @pytest.mark.filterwarnings("error")
    def test_divergence_detected(self):
        # The overflowing step raises DivergenceError and no numpy warning.
        # dy/dt = y**2 blows up at t = 1
        with pytest.raises(DivergenceError) as err:
            dynamics.integrate(lambda y: y * y, np.array([1.0]), 2.0, 0.01)
        assert err.value.step > 0

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
        calls = []

        def rhs(y):
            calls.append(1)
            return -y

        assert dynamics.integrate(rhs, np.array([1.0]), 1.0, 0.1).times.size == 11
        calls.clear()
        with pytest.raises(InputError, match="11 steps exceeds the budget of 10 steps; raise dt"):
            dynamics.integrate(rhs, np.array([1.0]), 1.1, 0.1)
        with pytest.raises(InputError, match="inf steps"):
            dynamics.integrate(rhs, np.array([1.0]), 1e308, 1e-10)
        assert calls == []

    def test_bad_horizon_rejected(self):
        with pytest.raises(InputError):
            dynamics.integrate(decay_rhs(1.0), np.array([1.0]), -1.0, 0.1)
        with pytest.raises(InputError):
            dynamics.integrate(decay_rhs(1.0), np.array([1.0]), 1.0, 0.0)


class TestMonotonicityWitness:
    def test_two_state_relaxation_is_monotone(self):
        w = pme.TransitionMatrix([[0.0, 1.0], [2.0, 0.0]])
        gen = pme.build_generator(w)
        traj = dynamics.integrate(
            lambda y: gen @ y, np.array([0.9, 0.1]), 10.0, 1e-2
        )
        flags = dynamics.monotonicity_witness(traj, pme.stationary_state(w).p)
        assert flags == [True, True]

    def test_oscillatory_cycle_is_flagged(self):
        # one-directional cycle overshoots: some component crosses its
        # stationary value
        w = np.zeros((3, 3))
        w[1, 0] = w[2, 1] = w[0, 2] = 1.0
        tm = pme.TransitionMatrix(w)
        gen = pme.build_generator(tm)
        traj = dynamics.integrate(
            lambda y: gen @ y, np.array([1.0, 0.0, 0.0]), 20.0, 1e-2
        )
        flags = dynamics.monotonicity_witness(traj, pme.stationary_state(tm).p)
        assert not all(flags)

    def test_unconverged_trajectory_is_inconclusive(self):
        w = pme.TransitionMatrix([[0.0, 1.0], [2.0, 0.0]])
        gen = pme.build_generator(w)
        traj = dynamics.integrate(
            lambda y: gen @ y, np.array([0.9, 0.1]), 0.1, 1e-2
        )
        with pytest.raises(InconclusiveError):
            dynamics.monotonicity_witness(traj, pme.stationary_state(w).p)

    def test_shape_mismatch_rejected(self):
        traj = dynamics.integrate(decay_rhs(1.0), np.array([1.0]), 0.1, 0.05)
        with pytest.raises(InputError):
            dynamics.monotonicity_witness(traj, np.zeros(2))
