"""Pauli master equation: generators, stationary states, spectra.

Rate convention: w[i, k] is the transition rate from state k to state i,
so the generator is L[i, k] = w[i, k] off the diagonal with column sums
exactly zero.  Diagonal entries of the rate matrix itself are unused and
stored as zero.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DegenerateChainError, InputError, _finite_array

__all__ = [
    "TransitionMatrix",
    "ProbabilityState",
    "Spectrum",
    "WSymmetryFlags",
    "build_generator",
    "pme_rhs",
    "stationary_state",
    "spectrum",
    "classify_w",
    "bs_entropy",
]


@dataclasses.dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Non-negative off-diagonal rate matrix, diagonal ignored."""

    w: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.w, "rate matrix", (None, None))
        if arr.shape[0] != arr.shape[1]:
            raise InputError(f"rate matrix must be square, got {arr.shape}")
        if arr.shape[0] < 2:
            raise InputError("need at least two states")
        np.fill_diagonal(arr, 0.0)
        if np.any(arr < 0.0):
            raise InputError("off-diagonal rates must be non-negative")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(arr.sum(axis=0))):
                raise InputError("rate matrix column sums are not finite")
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)

    @property
    def n(self):
        return self.w.shape[0]


@dataclasses.dataclass(frozen=True, eq=False)
class ProbabilityState:
    """Probability vector: entries >= -1e-12, sum within 1e-9 of one."""

    p: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.p, "state", (None,))
        if arr.size < 2:
            raise InputError(f"state must be a vector of length >= 2, got {arr.shape}")
        if np.any(arr < -1e-12):
            raise InputError(f"state has negative entries: min = {float(arr.min())!r}")
        total = math.fsum(arr.tolist())
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"state must sum to 1 within 1e-9, got {total!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def n(self):
        return self.p.size

    def __array__(self, dtype=None, copy=None):
        # Vector checks take a state wherever they take an array.
        if copy is None:  # numpy 1.x rejects copy=None and never passes copy
            return np.asarray(self.p, dtype=dtype)
        return np.array(self.p, dtype=dtype, copy=copy)


@dataclasses.dataclass(frozen=True, eq=False)
class Spectrum:
    """Generator eigenvalues sorted by descending real part."""

    eigenvalues: np.ndarray
    zero_mode_index: int


@dataclasses.dataclass(frozen=True)
class WSymmetryFlags:
    symmetric: bool
    doubly_stochastic: bool


def _as_transition_matrix(w):
    return w if isinstance(w, TransitionMatrix) else TransitionMatrix(w)


def build_generator(w):
    """Generator matrix L with L[i,k] = w[i,k] and zero column sums.

    Diagonals are compensated sums of their columns, so the column sum
    check sum_i L[i,k] stays at the roundoff floor.
    """
    w = _as_transition_matrix(w)
    gen = np.array(w.w)
    for k, col in enumerate(w.w.T.tolist()):
        del col[k]
        gen[k, k] = -math.fsum(col)
    return gen


def pme_rhs(w, p):
    """Right-hand side dp/dt = L p of the master equation."""
    w = _as_transition_matrix(w)
    return build_generator(w) @ _finite_array(p, "state", (w.n,))


def stationary_state(w):
    """Unique stationary distribution of the chain; transient states get exactly 0.

    One exists exactly when the rate graph (w > 0) has one closed class;
    DegenerateChainError reports the class count otherwise.  GTH elimination
    (Grassmann, Taksar, Heyman, Oper. Res. 33, 1107 (1985)) subtracts nothing,
    so each entry has a small relative error (O'Cinneide, Numer. Math. 65, 109 (1993)).
    """
    w = _as_transition_matrix(w)
    reach = (w.w > 0.0).T | np.eye(w.n, dtype=bool)  # reach[k, i]: k leads to i
    for _ in range(w.n.bit_length()):
        reach = reach @ reach
    # Recurrent: reached back from all it reaches; a class counts at its first state.
    recurrent = (reach <= reach.T).all(axis=1)
    closed = int(np.sum(recurrent & (reach.argmax(axis=1) == np.arange(w.n))))
    if closed != 1:
        raise DegenerateChainError(f"no unique stationary state: {closed} closed classes", closed)
    states = np.flatnonzero(recurrent)
    # Each rate is a fraction times 2**exponent, the exponent an int64, so no
    # rate the elimination builds leaves the float range.  A zero rate gets an
    # exponent below every other, so that a sum takes its scale from the rest.
    frac, expo = np.frexp(w.w[np.ix_(states, states)])
    expo = expo.astype(np.int64)
    expo[frac == 0.0] = -2**40
    exits = [None] * states.size
    for k in range(states.size - 1, 0, -1):  # censor the chain to states 0..k-1
        fe, ee = _frexp_sum(frac[:k, k], expo[:k, k])
        exits[k] = float(fe), int(ee)
        # rate(i -> j) += rate(i -> k) * rate(k -> j) / exits[k]: two terms,
        # shifted to their larger exponent as _frexp_sum shifts a sum's terms
        via = np.outer(frac[:k, k] / fe, frac[k, :k])
        via_expo = np.add.outer(expo[:k, k] - ee, expo[k, :k])
        top = np.maximum(expo[:k, :k], via_expo)
        f, e = np.frexp(np.ldexp(frac[:k, :k], np.maximum(expo[:k, :k] - top, -1100))
                        + np.ldexp(via, np.maximum(via_expo - top, -1100)))
        frac[:k, :k], expo[:k, :k] = f, e + top
    # Balance each state against the ones before it.  p[i] = f * 2**e with an
    # int exponent, so no entry or product leaves the float range.
    fracs, expos, p = frac.tolist(), expo.tolist(), [(0.5, 0)]
    for k in range(1, states.size):
        terms = [math.frexp(f * r) + (e + er,)
                 for (f, e), r, er in zip(p, fracs[k], expos[k]) if f * r]
        top = max((x + e for _, x, e in terms), default=0) + states.size.bit_length()
        inflow = math.fsum(math.ldexp(m, x + e - top) for m, x, e in terms)
        (fa, ea), (fb, eb) = math.frexp(inflow), exits[k]
        f, e = math.frexp(fa / fb)
        p.append((f, e + ea - eb + top))
    top = max(e for f, e in p if f)
    full = np.zeros(w.n)
    full[states] = [math.ldexp(f, e - top) for f, e in p]
    return ProbabilityState(full / math.fsum(full))


def _frexp_sum(frac, expo):
    """Sum over axis 0 of frac * 2**expo, as a fraction and an int64 exponent."""
    top = expo.max(axis=0)
    # Terms over 1100 binades below the largest vanish; clipped, every shift also
    # fits the C long that ldexp takes, 32 bits on some platforms.
    f, e = np.frexp(np.ldexp(frac, np.maximum(expo - top, -1100)).sum(axis=0))
    return f, e + top


def spectrum(w):
    """Eigenvalues of the generator, real parts descending."""
    w = _as_transition_matrix(w)
    eig = np.linalg.eigvals(build_generator(w))
    order = np.lexsort((-eig.imag, -eig.real))
    eig = eig[order]
    zero_index = int(np.argmin(np.abs(eig)))
    return Spectrum(eigenvalues=eig, zero_mode_index=zero_index)


def classify_w(w):
    """Symmetry flags of the rate matrix, within 1e-12 * max(1, max rate).

    symmetric means w equal to its transpose; doubly_stochastic means
    equal row and column sums.  Symmetry implies the latter, which the
    return value preserves by construction.
    """
    w = _as_transition_matrix(w)
    tol = 1e-12 * max(1.0, float(np.max(w.w)))
    symmetric = bool(np.all(np.abs(w.w - w.w.T) <= tol))
    row_sums = w.w.sum(axis=1)
    col_sums = w.w.sum(axis=0)
    doubly = bool(np.all(np.abs(row_sums - col_sums) <= tol)) or symmetric
    return WSymmetryFlags(symmetric=symmetric, doubly_stochastic=doubly)


def bs_entropy(p):
    """Boltzmann-Shannon entropy -sum p ln p of a vector in [0, 1], 0 ln 0 = 0.

    A 2-D stack of such vectors gives one value per row, each summed as
    its row alone would be.  Rows with every entry positive are summed
    in one vectorized pass, which groups each row's sum as a single
    vector's; a row with a zero entry takes the masked sum, since
    dropping entries regroups numpy's summation.
    """
    message = "p must be a non-empty vector, or a stack of them, with entries in [0, 1]"
    try:
        arr = _finite_array(p, "p", [(None,), (None, None)])
    except InputError as exc:
        raise InputError(message) from exc
    if arr.size == 0 or not ((arr >= -1e-12) & (arr <= 1.0 + 1e-9)).all():
        raise InputError(message)
    rows = np.clip(arr, 0.0, 1.0).reshape(-1, arr.shape[-1])
    out = np.empty(rows.shape[0])
    positive = (rows > 0.0).all(axis=1)
    full = rows[positive]
    out[positive] = -(full * np.log(full)).sum(axis=1)
    for k in np.flatnonzero(~positive):
        row = rows[k][rows[k] > 0.0]
        out[k] = -(row * np.log(row)).sum()
    return float(out[0]) if arr.ndim == 1 else out
