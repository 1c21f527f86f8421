"""Fixed-step classical Runge-Kutta integration with monitors.

One integrator serves every flow in the package.  It records each
accepted state in one array; after the run it derives from each state
the drift of the component sum (the conserved energy of the
probability flows) and, when an entropy callable is supplied, the
entropy value and its per-step increment.
The step size is constant except for the final step, which is truncated
so the last recorded time is exactly t_end.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DivergenceError, InconclusiveError, InputError

__all__ = ["Trajectory", "integrate", "monotonicity_witness"]

# Allowed per-step increase of the distance to the stationary point
# before a component counts as non-monotone.
WITNESS_TOL = 1e-9
# A trajectory must end this close to the claimed stationary state for
# the witness to mean anything.
WITNESS_CONVERGENCE = 1e-6
# Most steps one integration may take.  Every state is kept, so this
# bounds memory as well as time: 1e5 steps at n = 8 add about 12 MB.
MAX_STEPS = 10**6


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Recorded states and monitors of one integration run.

    sum_drift[k] is |sum(y_k) - sum(y_0)|.  entropy and entropy_delta
    are None unless an entropy callable was supplied; entropy_delta[0]
    is zero by convention.
    """

    times: np.ndarray
    states: np.ndarray
    sum_drift: np.ndarray
    entropy: np.ndarray | None
    entropy_delta: np.ndarray | None

    @property
    def final_state(self):
        return self.states[-1]


def _rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(rhs, y0, t_end, dt, entropy=None):
    """Integrate dy/dt = rhs(y) from 0 to t_end with fixed step dt.

    Parameters
    ----------
    rhs : callable
        Maps a state vector to its time derivative.
    y0 : array
        Initial state.
    t_end, dt : float
        Horizon and step; both must be positive.  The last step is
        shortened to land on t_end exactly.
    entropy : callable, optional
        Scalar monitor evaluated at every recorded state.

    Raises
    ------
    InputError
        When t_end / dt exceeds MAX_STEPS, before the first step.
    DivergenceError
        When a step produces a non-finite state; carries the step index.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise InputError(f"t_end must be positive and finite, got {t_end!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise InputError(f"dt must be positive and finite, got {dt!r}")
    y = np.array(y0, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise InputError(f"y0 must be a non-empty vector, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InputError("y0 has non-finite entries")

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

    states = np.empty((steps + 1, y.size))
    states[0] = y
    # A step that overflows is caught by the finiteness check, which
    # raises DivergenceError; numpy's warning would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            h = dt if step <= n_full else remainder
            y = _rk4_step(rhs, y, h)
            if not np.all(np.isfinite(y)):
                raise DivergenceError(
                    f"non-finite state at step {step} (t = {step * dt!r})", step
                )
            states[step] = y
        # Only the last step can pass t_end, and it ends there exactly.
        times = np.arange(steps + 1) * dt
        times[-1] = t_end
        # Row by row: each monitor gets the same argument a per-step
        # call would, and the state array is never copied whole.
        sum0 = math.fsum(states[0].tolist())
        drift = np.array([abs(math.fsum(row.tolist()) - sum0) for row in states])
        s_values = None
        if entropy is not None:
            s_values = np.array([float(entropy(row)) for row in states])

    return Trajectory(
        times=times,
        states=states,
        sum_drift=drift,
        entropy=s_values,
        entropy_delta=None if s_values is None else np.diff(s_values, prepend=s_values[0]),
    )


def monotonicity_witness(trajectory, stationary):
    """Per-component monotonicity of the approach to a stationary state.

    Component i is monotone when |y_i(t) - st_i| never increases by
    more than 1e-9 between recorded steps.  Requires the trajectory to
    have converged (final distance below 1e-6 in every component);
    otherwise raises InconclusiveError.
    """
    st = np.asarray(stationary, dtype=float)
    if st.shape != trajectory.states.shape[1:]:
        raise InputError(
            f"stationary shape {st.shape} does not match states "
            f"{trajectory.states.shape[1:]}"
        )
    dist = np.abs(trajectory.states - st)
    final_gap = float(dist[-1].max())
    if final_gap >= WITNESS_CONVERGENCE:
        raise InconclusiveError(
            f"trajectory ends {final_gap:.3e} away from the stationary "
            f"state, above {WITNESS_CONVERGENCE:.0e}; integrate longer"
        )
    increments = np.diff(dist, axis=0)
    return [bool(np.all(increments[:, i] <= WITNESS_TOL)) for i in range(st.size)]
