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

# Relative threshold for detecting the generator kernel and for the
# symmetry classifiers.
_KERNEL_RTOL = 1e-10
_CLASSIFY_ATOL = 1e-12


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
            raise InputError(f"state has negative entries: min = {arr.min()!r}")
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
    if isinstance(w, TransitionMatrix):
        return w
    return TransitionMatrix(w)


def build_generator(w):
    """Generator matrix L with L[i,k] = w[i,k] and zero column sums.

    Diagonals are compensated sums of their columns, so the column sum
    check sum_i L[i,k] stays at the roundoff floor.
    """
    w = _as_transition_matrix(w)
    gen = np.array(w.w)
    for k in range(w.n):
        column = [gen[i, k] for i in range(w.n) if i != k]
        gen[k, k] = -math.fsum(column)
    return gen


def pme_rhs(w, p):
    """Right-hand side dp/dt = L p of the master equation."""
    w = _as_transition_matrix(w)
    return build_generator(w) @ _finite_array(p, "state", (w.n,))


def stationary_state(w):
    """Unique stationary distribution of the chain.

    The kernel of L is taken from the SVD with relative threshold 1e-10.
    A kernel dimension other than one, or kernel entries below -1e-10,
    raise DegenerateChainError with the detected dimension.  A dimension
    above one means a reducible chain, or an irreducible one whose rates
    span so many decades that the threshold cannot tell them from zero.
    """
    w = _as_transition_matrix(w)
    gen = build_generator(w)
    _, svals, vt = np.linalg.svd(gen)
    scale = svals[0] if svals[0] > 0.0 else 1.0
    kernel_dim = int(np.sum(svals <= _KERNEL_RTOL * scale))
    if kernel_dim != 1:
        raise DegenerateChainError(
            f"generator kernel has dimension {kernel_dim} at relative SVD threshold "
            f"{_KERNEL_RTOL:g}, expected 1 (reducible chain, or rates too far apart "
            "to resolve)",
            kernel_dim,
        )
    vec = vt[-1]
    total = vec.sum()
    if total == 0.0:
        raise DegenerateChainError("kernel vector sums to zero", 1)
    vec = vec / total
    if np.any(vec < -1e-10):
        raise DegenerateChainError(
            f"kernel vector has negative entries (min {vec.min()!r}); "
            "chain is numerically degenerate",
            1,
        )
    return ProbabilityState(np.clip(vec, 0.0, None) / np.clip(vec, 0.0, None).sum())


def spectrum(w):
    """Eigenvalues of the generator, real parts descending."""
    w = _as_transition_matrix(w)
    eig = np.linalg.eigvals(build_generator(w))
    order = np.lexsort((-eig.imag, -eig.real))
    eig = eig[order]
    zero_index = int(np.argmin(np.abs(eig)))
    return Spectrum(eigenvalues=eig, zero_mode_index=zero_index)


def classify_w(w):
    """Symmetry flags of the rate matrix.

    symmetric means w equal to its transpose; doubly_stochastic means
    equal row and column sums.  Symmetry implies the latter, which the
    return value preserves by construction.
    """
    w = _as_transition_matrix(w)
    scale = max(1.0, float(np.max(w.w)))
    tol = _CLASSIFY_ATOL * scale
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
