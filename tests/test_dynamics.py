import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _rk4_step
from qtrep import dynamics, lindblad, pme
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
            entropy=lambda rows: rows[:, 0] ** 2,
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

    @pytest.mark.filterwarnings("error")
    def test_rejected_overflowed_stage_is_divergence(self):
        # bloch_rhs rejects a non-finite P; an RK4 stage overflows before
        # the state does, and that is a divergence, not bad input.
        channel = lindblad.LindbladChannel(
            h=np.zeros(3), dissipators=(([30.0, 0, 0], [0, 30.0, 0]),))
        rhs = lambda y: lindblad.bloch_rhs(channel, y)
        with pytest.raises(DivergenceError, match=r"step 30 \(t = 15.0\)") as err:
            dynamics.integrate(rhs, np.array([0.3, -0.2, 0.1]), 50.0, 0.5)
        assert err.value.step == 30

    @pytest.mark.filterwarnings("error")
    def test_divergence_on_shortened_last_step_reports_t_end(self):
        # y[0] is the time; the rhs turns infinite past t = 1.02, which
        # only the stages of step 11, shortened to land on 1.05, reach.
        rhs = lambda y: np.array([1.0 if y[0] < 1.02 else np.inf])
        message = r"^non-finite state at step 11 \(t = 1\.05\)$"
        with pytest.raises(DivergenceError, match=message) as err:
            dynamics.integrate(rhs, np.array([0.0]), 1.05, 0.1)
        assert err.value.step == 11

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", [
        # rhs turns infinite past t = 1.02: the state after step 11 is.
        (lambda y: np.array([1.0 if y[0] < 1.02 else np.inf]), np.array([0.0]), 5.0, 0.1),
        # bloch_rhs rejects the overflowed stage of step 30.
        (lambda y, channel=lindblad.LindbladChannel(
            h=np.zeros(3), dissipators=(([30.0, 0, 0], [0, 30.0, 0]),)):
         lindblad.bloch_rhs(channel, y), np.array([0.3, -0.2, 0.1]), 50.0, 0.5),
    ], ids=["infinite-state", "rejected-stage"])
    def test_divergence_between_recorded_rows_matches_oracle(self, case):
        with pytest.raises(DivergenceError) as err:
            dynamics.integrate(*case, stride=7)
        with pytest.raises(DivergenceError) as want:
            reference_integrate(*case)
        assert err.value.step % 7 != 0
        assert err.value.step == want.value.step
        assert str(err.value) == str(want.value)

    @pytest.mark.parametrize("t_end, dt, stride, steps, rows", [
        (0.1, 0.01, 1, 10, 11),
        (0.1, 0.01, 11, 10, 2),
        (1.0, 0.3, 3, 4, 3),  # three full steps and a truncated one
    ])
    def test_steps_counts_every_step_taken(self, t_end, dt, stride, steps, rows):
        traj = dynamics.integrate(decay_rhs(1.0), np.array([1.0]), t_end, dt, stride=stride)
        assert traj.steps == steps
        assert traj.times.size == rows

    def test_entropy_must_give_one_value_per_row(self):
        with pytest.raises(InputError, match=r"^entropy gave shape \(\), not \(3,\)$"):
            dynamics.integrate(decay_rhs(1.0), np.array([1.0]), 0.1, 0.05,
                               entropy=lambda rows: float(rows[0, 0]))

    def test_entropy_called_once_on_the_recorded_rows(self):
        seen = []
        traj = dynamics.integrate(decay_rhs(1.0), np.array([1.0, 2.0]), 1.0, 0.1, stride=3,
                                  entropy=lambda rows: seen.append(rows.copy()) or rows[:, 1])
        assert len(seen) == 1
        assert seen[0].tobytes() == traj.states.tobytes()
        assert traj.entropy.tobytes() == traj.states[:, 1].tobytes()

    def test_input_error_on_finite_stage_propagates(self):
        def rhs(y):
            if y[0] < 0.5:
                raise InputError("y below 0.5")
            return -y

        with pytest.raises(InputError, match="y below 0.5"):
            dynamics.integrate(rhs, np.array([1.0]), 2.0, 0.1)

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


def reference_integrate(rhs, y0, t_end, dt, entropy=None):
    """Per-step recorder: monitors evaluated as each step is accepted.

    Each step is the oracle's _rk4_step, followed by the earlier loop's
    np.isfinite check and DivergenceError.
    """
    y = np.array(y0, dtype=float)
    n_full = int(t_end / dt)
    remainder = t_end - n_full * dt
    if remainder <= 1e-12 * t_end and n_full > 0:
        remainder = 0.0
    steps = n_full + (1 if remainder > 0.0 else 0)
    times, states = [0.0], [y.copy()]
    sum0 = math.fsum(y.tolist())
    drift = [0.0]
    s_values = s_delta = None
    if entropy is not None:
        s_values, s_delta = [float(entropy(y))], [0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            h = dt if step <= n_full else remainder
            y = _rk4_step(rhs, y, h)
            t = step * dt if step <= n_full else t_end
            if not np.isfinite(y).all():
                raise DivergenceError(f"non-finite state at step {step} (t = {t!r})", step)
            times.append(min(t, t_end))
            states.append(y.copy())
            drift.append(abs(math.fsum(y.tolist()) - sum0))
            if entropy is not None:
                value = float(entropy(y))
                s_delta.append(value - s_values[-1])
                s_values.append(value)
    times[-1] = t_end
    arrays = [times, states, drift, s_values, s_delta]
    return [None if a is None else np.array(a) for a in arrays]


def pme_case(n, seed, t_end, dt):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 3.0, (n, n))
    p0 = rng.dirichlet(np.ones(n))
    p0[[0, n // 2]] = 0.0
    gen = pme.build_generator(w)
    entropy = lambda y: pme.bs_entropy(np.clip(y, 0.0, 1.0))
    return (lambda y: gen @ y), p0 / p0.sum(), t_end, dt, entropy


def lindblad_case():
    a, b = np.array([0.5, 0.1, -0.3]), np.array([0.2, -0.4, 0.6])
    channel = lindblad.LindbladChannel(h=np.zeros(3), dissipators=((a, b),))
    return (
        lambda y: lindblad.bloch_rhs(channel, y),
        np.array([0.3, -0.2, 0.1]),
        0.77,
        0.01,
        lambda y: lindblad.bloch_entropy(channel, y),
    )


RECORDER_CASES = [
    pme_case(9, 1, 1.0, 1 / 64),  # every step full length
    pme_case(9, 2, 1.3, 0.0137),  # truncated last step
    pme_case(4, 3, 0.5, 0.3),
    pme_case(3, 5, 0.9, 0.03),  # 30 steps end 1.1e-16 short of t_end
    lindblad_case(),
]


class TestRecorder:
    @pytest.mark.parametrize("case", RECORDER_CASES)
    def test_matches_per_step_reference_bitwise(self, case):
        traj = dynamics.integrate(*case)
        want = reference_integrate(*case)
        got = [traj.times, traj.states, traj.sum_drift, traj.entropy, traj.entropy_delta]
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_without_entropy(self):
        rhs, y0, t_end, dt, _ = pme_case(5, 4, 1.0, 0.07)
        traj = dynamics.integrate(rhs, y0, t_end, dt)
        want = reference_integrate(rhs, y0, t_end, dt)
        assert traj.entropy is None and traj.entropy_delta is None
        for g, w in zip([traj.times, traj.states, traj.sum_drift], want):
            assert g.tobytes() == w.tobytes()


def recorded_rows(steps, stride):
    """Rows 0, stride, 2 * stride, ... and the last of a full record."""
    rows = list(range(0, steps + 1, stride))
    if rows[-1] != steps:
        rows.append(steps)
    return rows


class TestGeneratorDot:
    """pme-solve's rhs gen.dot steps to the bytes of gen @ y under the oracle step."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([0.0, 0.3]), st.booleans(), st.sampled_from([1, 7, "past"]))
    def test_matches_matmul_reference_bitwise(self, n, seed, zero_share, truncated, stride):
        rng = np.random.default_rng(seed)
        w = 10.0 ** rng.uniform(-2.0, 2.0, (n, n))
        w[rng.random((n, n)) < zero_share] = 0.0
        np.fill_diagonal(w, 0.0)
        gen = pme.build_generator(w)
        p0 = rng.dirichlet(np.ones(n))
        # dt * (largest exit rate) <= 1/2 puts every Gershgorin disc of
        # dt * L inside |z + 1/2| <= 1/2, where RK4 is stable.
        dt = 0.5 / max(1.0, float(np.max(-np.diag(gen))))
        t_end = dt * (20.37 if truncated else 20)
        times, states, drift, _, _ = reference_integrate(lambda y: gen @ y, p0, t_end, dt)
        steps = times.size - 1
        stride = steps + 1 if stride == "past" else stride
        traj = dynamics.integrate(gen.dot, p0, t_end, dt, stride=stride)
        rows = recorded_rows(steps, stride)
        assert traj.steps == steps
        for got, want in zip([traj.times, traj.states, traj.sum_drift], [times, states, drift]):
            assert got.shape == want[rows].shape
            assert got.tobytes() == want[rows].tobytes()


def drawn_flow(n, seed, dense):
    """A matrix, its initial state and a step of size 0.5 / (largest absolute row sum).

    A chain's generator from rates e^U(-5, 5), 30 % of them zero, or a dense normal matrix,
    whose flow may grow; over 40 steps it stays far below overflow.
    """
    rng = np.random.default_rng(seed)
    if dense:
        m, y0 = rng.normal(size=(n, n)), rng.normal(size=n)
    else:
        n = max(n, 2)
        w = np.exp(rng.uniform(-5.0, 5.0, (n, n)))
        w[rng.random((n, n)) < 0.3] = 0.0
        np.fill_diagonal(w, 0.0)
        m, y0 = pme.build_generator(w), rng.dirichlet(np.ones(n))
    return m, y0, 0.5 / max(1.0, float(np.max(np.abs(m).sum(axis=1))))


def divergence(*args, **kwargs):
    """The DivergenceError that integrate(*args, **kwargs) raises."""
    with pytest.raises(DivergenceError) as info:
        dynamics.integrate(*args, **kwargs)
    return info.value


class TestMatrixRhs:
    """A matrix rhs runs the matrix loop, to the bits of the callable loop on M @ y.

    Odd and even n put the rows of the loop's (4, n) stage array at different
    address offsets; the strides run from 1 to past the step count.
    """

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=1, max_value=17), st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans(), st.integers(min_value=1, max_value=40), st.booleans(),
           st.integers(min_value=1, max_value=45))
    def test_matches_callable_and_oracle_bitwise(self, n, seed, dense, steps, truncated, stride):
        m, y0, dt = drawn_flow(n, seed, dense)
        t_end = dt * (steps + (0.37 if truncated else 0.0))
        traj = dynamics.integrate(m, y0, t_end, dt, stride=stride)
        want = dynamics.integrate(lambda y: m @ y, y0, t_end, dt, stride=stride)
        assert traj.steps == want.steps
        for got, kept in zip([traj.times, traj.states, traj.sum_drift],
                             [want.times, want.states, want.sum_drift]):
            assert got.tobytes() == kept.tobytes()
        assert_matches_reference(traj, lambda y: m @ y, y0, t_end, dt, stride)

    # No filterwarnings("error") mark: pyproject's filter already errors on numpy's
    # warnings, and a mark would drop its ignore entry that hypothesis's report needs.
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=60), st.booleans())
    def test_divergence_matches_callable(self, n, seed, stride, truncated):
        # dt * |eigenvalue| of 10 to 1000 overflows within a few hundred steps; the
        # first non-finite state mostly falls inside a segment, where the replay finds it.
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(1.0, 3.0)
        y0 = rng.normal(size=n)
        t_end = 300.0 + (0.5 if truncated else 0.0)
        got = divergence(m, y0, t_end, 1.0, stride=stride)
        want = divergence(lambda y: m @ y, y0, t_end, 1.0, stride=stride)
        assert type(got) is type(want)
        assert (got.step, str(got)) == (want.step, str(want))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t_end, stride, message", [
        # y' = 100 y grows about 4.3e6-fold a step and overflows at step 47.
        (200.0, 1, r"^non-finite state at step 47 \(t = 47\.0\)$"),
        (200.0, 10, r"^non-finite state at step 47 \(t = 47\.0\)$"),  # inside (40, 50]
        (200.0, 47, r"^non-finite state at step 47 \(t = 47\.0\)$"),  # a segment's end
        (200.0, 500, r"^non-finite state at step 47 \(t = 47\.0\)$"),  # past the last step
        # Step 47 is the last, shortened to 0.5, and still overflows.
        (46.5, 10, r"^non-finite state at step 47 \(t = 46\.5\)$"),
    ])
    def test_divergence_step_and_time(self, t_end, stride, message):
        rhs = lambda y: np.array([[100.0]]) @ y
        with pytest.raises(DivergenceError, match=message) as want:
            reference_integrate(rhs, [1.0], t_end, 1.0)
        got = divergence([[100.0]], [1.0], t_end, 1.0, stride=stride)
        assert got.step == want.value.step == 47
        assert str(got) == str(want.value)

    @pytest.mark.parametrize("rhs, message", [
        (np.zeros((3, 2)), r"^rhs must be a 3x3 matrix, got shape \(3, 2\)$"),
        (np.zeros((2, 2)), r"^rhs must be a 3x3 matrix, got shape \(2, 2\)$"),
        (np.zeros(3), r"^rhs must be a 3x3 matrix, got shape \(3,\)$"),
        (np.eye(3, dtype=bool), r"^rhs must be a numeric 3x3 matrix$"),
        (np.eye(3) * 1j, r"^rhs must be a numeric 3x3 matrix$"),
        ([[0.0, 1.0, math.nan], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], r"^rhs has non-finite entries$"),
        ([[0.0, 1.0], [1.0, 0.0, 0.0], [0.0]], r"^rhs must be a numeric 3x3 matrix$"),
        (None, r"^rhs must be a 3x3 matrix, got shape \(\)$"),
        (5, r"^rhs must be a 3x3 matrix, got shape \(\)$"),
        ("abc", r"^rhs must be a numeric 3x3 matrix$"),
        ([1.0], r"^rhs must be a 3x3 matrix, got shape \(1,\)$"),
    ], ids=["non-square", "wrong-size", "vector", "bool", "complex", "nan", "ragged", "none",
            "int", "string", "list"])
    def test_bad_matrix_rejected(self, rhs, message):
        with pytest.raises(InputError, match=message):
            dynamics.integrate(rhs, [0.2, 0.3, 0.5], 1.0, 0.25)

    def test_caller_arrays_unchanged(self):
        # The loop updates its state in place, in its own copy of y0.
        m = pme.build_generator([[0.0, 0.7, 0.2], [0.4, 0.0, 0.9], [0.3, 0.5, 0.0]])
        y0 = np.array([0.5, 0.3, 0.2])
        kept = m.copy(), y0.copy()
        traj = dynamics.integrate(m, y0, 1.0, 0.1, stride=3)
        assert m.tobytes() == kept[0].tobytes() and y0.tobytes() == kept[1].tobytes()
        assert traj.states[0].tobytes() == y0.tobytes()

    def test_integer_matrix_read_as_float(self):
        m = [[-1, 2], [1, -2]]
        traj = dynamics.integrate(m, [1.0, 0.0], 1.0, 0.1)
        want = dynamics.integrate(np.array(m, dtype=float), [1.0, 0.0], 1.0, 0.1)
        assert traj.states.tobytes() == want.states.tobytes()


def smallest_divisor(steps):
    return next(d for d in range(2, steps + 1) if steps % d == 0)


class TestThinning:
    """stride = k keeps exactly the rows 0, k, 2k, ... and the last row.

    The second case ends on a truncated step (95 steps): its smallest
    divisor 5 records it as a multiple of the stride, 7 only as the
    appended final row.
    """

    @pytest.mark.parametrize("stride", [1, 7, "divisor", "past"])
    @pytest.mark.parametrize("case", RECORDER_CASES)
    def test_rows_of_the_full_record_bitwise(self, case, stride):
        full = dynamics.integrate(*case)
        steps = full.times.size - 1
        stride = {"divisor": smallest_divisor(steps), "past": steps + 5}.get(stride, stride)
        thin = dynamics.integrate(*case, stride=stride)
        rows = recorded_rows(steps, stride)
        assert thin.times[-1] == case[2]
        for got, want in zip(
            [thin.times, thin.states, thin.sum_drift, thin.entropy],
            [full.times, full.states, full.sum_drift, full.entropy],
        ):
            assert got.shape == want[rows].shape
            assert got.tobytes() == want[rows].tobytes()
        delta = np.diff(thin.entropy, prepend=thin.entropy[0])
        assert thin.entropy_delta.tobytes() == delta.tobytes()

    @pytest.mark.parametrize("stride", [0, -1, 1.5, True, "2", None])
    def test_bad_stride_rejected(self, stride):
        with pytest.raises(InputError, match=r"^stride must be (an integer|>= 1), got "):
            dynamics.integrate(decay_rhs(1.0), np.array([1.0]), 1.0, 0.1, stride=stride)


def assert_matches_reference(traj, rhs, y0, t_end, dt, stride=1):
    """traj holds, bit for bit, the rows of reference_integrate's full record."""
    times, states, drift, _, _ = reference_integrate(rhs, y0, t_end, dt)
    rows = recorded_rows(times.size - 1, stride)
    assert traj.steps == times.size - 1
    for got, want in zip([traj.times, traj.states, traj.sum_drift], [times, states, drift]):
        assert got.shape == want[rows].shape
        assert got.tobytes() == want[rows].tobytes()


class TestStepBuffers:
    """The loop's owned buffers: fresh stages and states, checked first rhs result.

    The loop writes its scaled products and its stage sum into two
    buffers of its own; an rhs must never see those, nor an array that
    the loop changes after handing it over.
    """

    @pytest.mark.parametrize("rhs", [
        lambda y: y,
        lambda y: y[::-1],
        lambda y: y.reshape(3)[:],
        # 2 k on a uint8 result is 2.0 * k, not a wrapping k + k.
        lambda y: np.full(y.shape, 200, dtype=np.uint8),
    ], ids=["argument", "reversed-view", "view", "uint8"])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_matches_oracle_bitwise(self, rhs, stride):
        y0 = np.array([0.5, -0.25, 1.0])
        traj = dynamics.integrate(rhs, y0, 1.05, 0.1, stride=stride)
        assert_matches_reference(traj, rhs, y0, 1.05, 0.1, stride)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_truncated_last_step(self, stride):
        # 1.3 / 0.0137 leaves a last step of 0.0122 after 94 full ones,
        # whose scalars h/2, h and h/6 the loop builds again.
        rhs, y0, *_ = lindblad_case()
        traj = dynamics.integrate(rhs, y0, 1.3, 0.0137, stride=stride)
        assert traj.steps == 95
        assert_matches_reference(traj, rhs, y0, 1.3, 0.0137, stride)

    def test_stages_handed_to_rhs_are_never_overwritten(self):
        gen = pme.build_generator([[0.0, 0.7, 0.2], [0.4, 0.0, 0.9], [0.3, 0.5, 0.0]])
        seen = []

        def rhs(y):
            seen.append((y, y.copy()))
            return gen @ y

        y0 = np.array([0.5, 0.3, 0.2])
        traj = dynamics.integrate(rhs, y0, 0.37, 0.1)
        assert len(seen) == 4 * traj.steps
        for got, kept in seen:
            assert got.tobytes() == kept.tobytes()
        assert_matches_reference(traj, lambda y: gen @ y, y0, 0.37, 0.1)

    def test_caller_state_is_not_modified(self):
        y0 = np.array([0.5, -0.25, 1.0])
        kept = y0.copy()
        dynamics.integrate(lambda y: y, y0, 1.0, 0.1)
        assert y0.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("result, got", [
        (lambda y: y.tolist(), "list"),
        (lambda y: float(y[0]), "float"),
        (lambda y: y[0], "float64"),
        (lambda y: y.astype(complex), "complex128 array of shape (2,)"),
        (lambda y: y > 0, "bool array of shape (2,)"),
        (lambda y: y.astype(object), "object array of shape (2,)"),
        (lambda y: y[None, :], "float64 array of shape (1, 2)"),
        (lambda y: y[:1], "float64 array of shape (1,)"),
    ], ids=["list", "float", "numpy-scalar", "complex", "bool", "object", "2-d", "short"])
    def test_first_rhs_result_checked(self, result, got):
        message = f"rhs must return a real numeric array of shape (2,), got {got}"
        with pytest.raises(InputError) as info:
            dynamics.integrate(result, np.array([1.0, 2.0]), 1.0, 0.1)
        assert str(info.value) == message


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

    @pytest.mark.parametrize("states, message", [
        (None, r"^trajectory states must be a matrix, got shape \(\)$"),
        ("ab", r"^trajectory states must be a numeric matrix$"),
        ([["a", "b"]], r"^trajectory states must be a numeric matrix$"),
        ([0.5, 0.5], r"^trajectory states must be a matrix, got shape \(2,\)$"),
        ([[0.5, math.nan]], r"^trajectory states has non-finite entries$"),
        (np.zeros((0, 2)), r"^trajectory states must be a non-empty matrix$"),
        (np.zeros((1, 0)), r"^trajectory states must be a non-empty matrix$"),
    ], ids=["none", "string", "string-entries", "vector", "nan", "no-rows", "no-columns"])
    def test_record_states_checked(self, states, message):
        # Trajectory is an unchecked record: the witness reads its states as
        # outside input, whatever the other fields hold.
        for fill in (None, "x"):
            traj = dynamics.Trajectory(fill, states, fill, fill, fill, fill)
            with pytest.raises(InputError, match=message):
                dynamics.monotonicity_witness(traj, [0.5, 0.5])

    def test_record_states_read_as_floats(self):
        traj = dynamics.Trajectory(None, [[1, 0], [0.5, 0.5]], None, None, None, None)
        assert dynamics.monotonicity_witness(traj, [0.5, 0.5]) == [True, True]
