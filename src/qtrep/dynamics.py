"""Fixed-step classical Runge-Kutta integration with monitors.

One integrator serves every flow in the package.  Its loop carries the
RK4 step inline, with no call per step: stages y + (h/2) k1,
y + (h/2) k2 and y + h k3, then y + (h/6) (((k1 + 2 k2) + 2 k3) + k4),
rounded in that order.  The 2 and the step scalars h/2, h and h/6 are
0-d float64 arrays, the latter built again only for a truncated last
step: numpy multiplies by those without converting a Python float on
every call.  Each scaled product goes into one scratch buffer and the
weighted sum of the stages into another, both owned by the loop.  Every
stage and every new state is a fresh array, so rhs is never handed a
buffer that the loop overwrites later, and an rhs that returns its
argument, or a view of it, stays correct.  The first rhs result must be
a real numeric ndarray of y0's shape.  Every new state is checked finite
before the next step evaluates rhs on it, by math.isfinite over its
Python floats: on a float64 state that is np.isfinite(y).all()'s answer
at a fraction of its dispatch cost.  A non-finite state, or an
InputError from rhs on a non-finite stage, is a DivergenceError at that
step.  The loop records the initial state, every stride-th accepted
state and the final one in one array.  After the run it derives from
each recorded state the drift of the component sum (the conserved
energy of the probability flows).
When an entropy callable is supplied, it is called once on the whole
array of recorded states, and gives each row's entropy; the increments
between recorded rows follow from those values.
The step size is constant except for the final step, which is truncated
so the last recorded time is exactly t_end.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (
    DivergenceError, InconclusiveError, InputError, _finite_array, _instance, _integer,
    _positive,
)

__all__ = ["Trajectory", "integrate", "monotonicity_witness"]

# Allowed per-step increase of the distance to the stationary point
# before a component counts as non-monotone.
WITNESS_TOL = 1e-9
# A trajectory must end this close to the claimed stationary state for
# the witness to mean anything.
WITNESS_CONVERGENCE = 1e-6
# Most steps one integration may take; this bounds time.  Memory grows
# with the recorded rows, (steps / stride + 2) of them at most.
MAX_STEPS = 10**6


@dataclasses.dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states and monitors of one integration run.

    Row k holds the k-th recorded state.  sum_drift[k] is
    |sum(y_k) - sum(y_0)|.  entropy and entropy_delta are None unless an
    entropy callable was supplied; entropy[k] is its value on row k,
    entropy_delta[k] is entropy[k] - entropy[k - 1], and
    entropy_delta[0] is zero by convention.  steps is the number of RK4
    steps taken, a truncated last step included: the recorded rows minus
    one at stride 1, and up to stride times that above it.
    """

    times: np.ndarray
    states: np.ndarray
    sum_drift: np.ndarray
    entropy: np.ndarray | None
    entropy_delta: np.ndarray | None
    steps: int

    @property
    def final_state(self):
        return self.states[-1]


def _check_rk4_stable(dt, eigenvalues):
    """Reject a dt at which one RK4 step amplifies a mode of a linear flow."""
    with np.errstate(over="ignore", invalid="ignore"):
        gain = np.abs(np.polyval([1 / 24, 1 / 6, 1 / 2, 1, 1], dt * eigenvalues))
    # NaN is an overflow to inf - inf; the slack covers a zero mode's roundoff.
    gain = float(np.max(np.where(np.isnan(gain), np.inf, gain)))
    if gain > 1 + 1e-12:
        raise InputError(f"dt = {dt!r} is beyond RK4's stability limit: one step amplifies "
                         f"a mode by {gain:.3g}; lower dt")


def _step_scalars(h):
    """h/2, h and h/6 of one RK4 step, as 0-d float64 arrays."""
    return np.array(0.5 * h), np.array(h), np.array(h / 6.0)


def _check_rhs_result(k, y):
    """Raise InputError unless k, rhs's first result, is a real numeric array of y's shape."""
    if isinstance(k, np.ndarray) and k.dtype.kind in "iuf" and k.shape == y.shape:
        return
    got = f"{k.dtype} array of shape {k.shape}" if isinstance(k, np.ndarray) else type(k).__name__
    raise InputError(f"rhs must return a real numeric array of shape {y.shape}, got {got}")


def integrate(rhs, y0, t_end, dt, entropy=None, stride=1):
    """Integrate dy/dt = rhs(y) from 0 to t_end with fixed step dt.

    Parameters
    ----------
    rhs : callable
        Maps a state vector to its time derivative, a real numeric
        ndarray of the state's shape.  It must not modify its argument.
    y0 : array
        Initial state.
    t_end, dt : float
        Horizon and step; both must be positive and finite.  The last
        step is shortened to land on t_end exactly.
    entropy : callable, optional
        Maps the (rows, dim) array of recorded states to one entropy
        value per row.  It is called once, after the last step, and must
        not modify its argument.  pme.bs_entropy and
        lindblad.bloch_entropy take such an array.
    stride : int, optional
        Record the states after steps 0, stride, 2 * stride, ... and
        the final state, whatever its step index; the default 1 records
        every step.  A stride above the step count records the initial
        and the final state only.  Unrecorded states are not kept, so
        memory grows with the recorded rows, not with t_end / dt.

    Raises
    ------
    InputError
        When t_end or dt is not a positive finite number, t_end / dt
        exceeds MAX_STEPS or stride is not a positive integer, before the
        first step; when the first rhs result is not a real numeric
        ndarray of y0's shape (later results are cast into float64
        buffers, which numpy checks); or when entropy does not return one
        value per recorded row.
    DivergenceError
        When a step produces a non-finite state, or rhs raises InputError
        on a non-finite stage of it; carries the step index.  The time
        it reports is the one the step reaches, t_end on the last.
    """
    t_end = _positive(t_end, "t_end")
    dt = _positive(dt, "dt")
    stride = _integer(stride, "stride", 1)
    y = _finite_array(y0, "y0", (None,))
    if y.size == 0:
        raise InputError("y0 must be a non-empty vector")

    if t_end / dt > MAX_STEPS:
        raise InputError(
            f"t_end / dt = {t_end / dt:.6g} steps exceeds the budget of "
            f"{MAX_STEPS} steps; raise dt"
        )
    n_full = int(t_end / dt)
    remainder = t_end - n_full * dt
    # Guard against t_end/dt landing a hair above an integer.
    if remainder <= 1e-12 * t_end and n_full > 0:
        remainder = 0.0
    steps = n_full + (1 if remainder > 0.0 else 0)

    recorded = np.arange(0, steps + 1, min(stride, steps))
    if recorded[-1] != steps:
        recorded = np.append(recorded, steps)
    states = np.empty((recorded.size, y.size))
    states[0] = y
    row = 1
    half, full, sixth = _step_scalars(dt)
    two = np.array(2.0)
    scratch, acc = np.empty_like(y), np.empty_like(y)
    # Bound to locals: a module lookup per ufunc call is a measurable share of a step.
    add, multiply = np.add, np.multiply
    # A step that overflows is caught by the finiteness check, which
    # raises DivergenceError; an overflowing monitor leaves a non-finite
    # value in its column.  numpy's warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            if step > n_full:
                half, full, sixth = _step_scalars(remainder)
            k1 = rhs(y)
            if step == 1:
                _check_rhs_result(k1, y)
            multiply(half, k1, scratch)
            stage = add(y, scratch)
            try:
                k2 = rhs(stage)
                multiply(half, k2, scratch)
                stage = add(y, scratch)
                k3 = rhs(stage)
                multiply(full, k3, scratch)
                stage = add(y, scratch)
                k4 = rhs(stage)
            except InputError:
                # rhs rejected a stage: a finite one is bad input, a
                # non-finite one is this step's divergence.
                if np.all(np.isfinite(stage)):
                    raise
                y = stage
            else:
                # acc = ((k1 + 2 k2) + 2 k3) + k4, then (h/6) acc.
                multiply(two, k2, scratch)
                add(k1, scratch, acc)
                multiply(two, k3, scratch)
                add(acc, scratch, acc)
                add(acc, k4, acc)
                multiply(sixth, acc, acc)
                y = add(y, acc)
            # k1 = rhs(y) of the next step relies on a finite y.
            if not all(map(math.isfinite, y.tolist())):
                t = step * dt if step <= n_full else t_end
                raise DivergenceError(f"non-finite state at step {step} (t = {t!r})", step)
            if step % stride == 0 or step == steps:
                states[row] = y
                row += 1
        # Only the last step can pass t_end, and it ends there exactly.
        times = recorded * dt
        times[-1] = t_end
        sum0 = math.fsum(states[0].tolist())
        drift = np.abs(np.array(list(map(math.fsum, states.tolist()))) - sum0)
        s_values = s_delta = None
        if entropy is not None:
            s_values = np.array(entropy(states), dtype=float)
            if s_values.shape != times.shape:
                raise InputError(f"entropy gave shape {s_values.shape}, not {times.shape}")
            s_delta = np.diff(s_values, prepend=s_values[0])

    return Trajectory(
        times=times, states=states, sum_drift=drift, entropy=s_values, entropy_delta=s_delta,
        steps=steps,
    )


def monotonicity_witness(trajectory, stationary):
    """Per-component monotonicity of the approach to a stationary state.

    Component i is monotone when |y_i(t) - st_i| never increases by
    more than 1e-9 between recorded steps.  Requires the trajectory to
    have converged (final distance below 1e-6 in every component);
    otherwise raises InconclusiveError.
    """
    states = _instance(trajectory, Trajectory, "trajectory").states
    states = _finite_array(states, "trajectory states", (None, None))
    if states.size == 0:
        raise InputError("trajectory states must be a non-empty matrix")
    st = _finite_array(stationary, "stationary", states.shape[1:])
    dist = np.abs(states - st)
    final_gap = float(dist[-1].max())
    if final_gap >= WITNESS_CONVERGENCE:
        raise InconclusiveError(
            f"trajectory ends {final_gap:.3e} away from the stationary "
            f"state, above {WITNESS_CONVERGENCE:.0e}; integrate longer"
        )
    increments = np.diff(dist, axis=0)
    return [bool(np.all(increments[:, i] <= WITNESS_TOL)) for i in range(st.size)]
