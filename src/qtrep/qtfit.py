"""Quadratic-entropy representations of master-equation flows.

A flow dp/dt = L p on the probability simplex is rewritten as

    dp/dt = norm**2 * [ main(g) + sum_a r_a * ham_a(g) ],    g = q p,

where main is the raw rank-N double contraction (equal to
N*(N-2)!*(g - mean g)), the ham_a are the single-epsilon terms of
multilinear.ham_term over all size-(N-3) subsets of the tangent basis,
and q is a symmetric matrix defining the quadratic entropy
S = p q p / 2.  The two contraction families share one overall
normalization so that the fitted coefficients r_a are independent of it;
with norm = normalizer(N) the main term is exactly the tangent
projection of the entropy gradient.

Unknown count: q contributes N(N+1)/2 - 1 (one direction is pure gauge,
q -> q + k * ones changes nothing on the simplex), the coefficients
contribute (N-1)(N-2)/2, together N(N-1), matching the degrees of
freedom of a generator with zero column sums.

fit() solves the matching problem in closed form.  With U an
orthonormal tangent basis, the main term is the projection U U^T and
the ham terms span the antisymmetric maps U K U^T, one-to-one through
K = norm**2 sum_a r_a U^T ham_a U, so L = U (I + K) U^T q.  Each ham_a
is a wedge of two integer cut vectors, so sum_a r_a ham_a = C^T W C / N
with the signed r_a the entries of one antisymmetric (N-1) x (N-1) W
(multilinear._ham_sum).  Symmetry of U^T q U is the Sylvester equation
B K + K B^T = B - B^T with B = U^T L U, solved for r by linear least
squares; then U^T q = (I + K)^-1 U^T L and the gauge q[N-1, N-1] = 0
fixes the rest of q.  With K fixed, q is linear in L: one refinement
pass of the q map on the flow mismatch removes the roundoff the first
pass leaves on stiff chains.  The fit has no random start.  It is
capped at N = MAX_FIT_N, a bound on the size of the Sylvester least
squares.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import (
    FitNonConvergenceError, InputError,
    _finite_array, _integer, _json_object, _positive, _sequence,
)
from .multilinear import _check_subset, _ham_sum, difference_basis, normalizer
from .pme import _as_transition_matrix, build_generator
from .relaxation import _as_rates

__all__ = [
    "QuadraticEntropy",
    "QTRepresentation",
    "ham_subsets",
    "qt_rhs",
    "flow_matrix",
    "two_state_entropy",
    "three_state_kappa_r",
    "fit",
]

# A flow residual above ACCEPT_TOL * max(1, max|L|) raises FitNonConvergenceError
# (CLI exit 3); relative, so scaling the rates keeps roundoff a pass.
ACCEPT_TOL = 1e-8

# Largest state count fit accepts; a larger W is rejected before any
# frame is built.  The cap bounds the Sylvester lstsq, an (N-1)**2 by
# (N-1)(N-2)/2 system: a warm fit takes 74 ms at N = 30, 281 ms at
# N = 40 and 783 ms at N = 50 (2-core Xeon, numpy 2.4).
MAX_FIT_N = 30


@dataclasses.dataclass(frozen=True, eq=False)
class QuadraticEntropy:
    """Entropy S(p) = p q p / 2 with symmetric coefficient matrix q."""

    q: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.q, "q", (None, None))
        if arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise InputError(f"q must be a non-empty square matrix, got shape {arr.shape}")
        scale = max(1.0, float(np.max(np.abs(arr))))
        if np.max(np.abs(arr - arr.T)) > 1e-14 * scale:
            raise InputError("q must be symmetric to 1e-14")
        arr.setflags(write=False)
        object.__setattr__(self, "q", arr)

    @property
    def n(self):
        return self.q.shape[0]

    def value(self, p):
        p = _finite_array(p, "state", (self.n,))
        return 0.5 * float(p @ self.q @ p)

    def gradient(self, p):
        return self.q @ _finite_array(p, "state", (self.n,))


@dataclasses.dataclass(frozen=True, eq=False)
class QTRepresentation:
    """Fitted representation: entropy, ham coefficients, normalization.

    subsets holds the 0-based tangent-basis index tuples in the same
    order as the coefficients r.  norm is positive and finite.  residual
    is the worst absolute mismatch of the represented flow against the
    target generator over the tangent basis directions and the simplex
    centroid, finite and non-negative.
    """

    entropy: QuadraticEntropy
    r: np.ndarray
    subsets: tuple
    norm: float
    residual: float

    def __post_init__(self):
        r = _finite_array(self.r, "r", (None,))
        subsets = tuple(_check_subset(s, self.entropy.n)
                        for s in _sequence(self.subsets, "subsets"))
        if r.size != len(subsets):
            raise InputError(
                f"got {r.size} coefficients for {len(subsets)} subsets"
            )
        norm = _positive(self.norm, "norm")
        residual = float(_finite_array(self.residual, "residual", ()))
        if residual < 0.0:
            raise InputError(f"residual must be >= 0, got {residual!r}")
        r.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "subsets", subsets)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "residual", residual)

    @property
    def n(self):
        return self.entropy.n

    def to_json_dict(self):
        return {
            "n": self.n,
            "q": [[float(v) for v in row] for row in self.entropy.q],
            "r": [float(v) for v in self.r],
            "subsets": [list(s) for s in self.subsets],
            "norm": float(self.norm),
            "residual": float(self.residual),
        }

    @classmethod
    def from_json_dict(cls, data):
        """Representation from a to_json_dict document; every key is required."""
        keys = ("n", "q", "r", "subsets", "norm", "residual")
        data = _json_object(data, "representation", keys, keys)
        n = _integer(data["n"], "n", 1)
        entropy = QuadraticEntropy(data["q"])
        if entropy.n != n:
            raise InputError(f"q has size {entropy.n}, document says n = {n}")
        return cls(entropy, data["r"], data["subsets"], data["norm"], data["residual"])


def ham_subsets(n):
    """Catalog of ham-term subsets: size-(n-3) combinations, lex order.

    Indices are 0-based positions in difference_basis(n).  Empty for
    n = 2 (the two-state flow has no Hamiltonian freedom); a single
    empty subset for n = 3.
    """
    n = _integer(n, "n", 2)
    if n == 2:
        return ()
    return tuple(itertools.combinations(range(n - 1), n - 3))


def _main_scale(norm, n):
    # Raw double contraction is N*(N-2)! times the tangent projection.
    try:
        return norm * norm * n * math.factorial(n - 2)
    except OverflowError:
        raise InputError(f"n = {n} is too large: (n-2)! exceeds the float range") from None


def _flow_operator(n, norm, r, subsets):
    """Matrix that multiplies q in the represented flow."""
    return _main_scale(norm, n) * (np.eye(n) - 1.0 / n) + norm * norm * _ham_sum(n, subsets, r)


def qt_rhs(rep, p):
    """Right-hand side of the represented flow at state p."""
    return flow_matrix(rep) @ _finite_array(p, "state", (rep.n,))


def flow_matrix(rep):
    """The represented flow as a matrix acting on states."""
    op = _flow_operator(rep.n, rep.norm, rep.r, rep.subsets)
    return op @ rep.entropy.q


def two_state_entropy(w):
    """Diagonal entropy reproducing the two-state master equation.

    Returns q = diag(-w21, -w12), verified against pme_rhs under the
    raw two-variable contraction (norm = 1): the flow it generates is
    dp1/dt = w12 p2 - w21 p1.  Note the cross assignment, rate 1->2 on
    the p1 slot; the straight one fails the verification with the two
    rates interchanged.
    """
    w = _as_transition_matrix(w)
    if w.n != 2:
        raise InputError(f"two_state_entropy needs n = 2, got n = {w.n}")
    return QuadraticEntropy(np.diag([-w.w[1, 0], -w.w[0, 1]]))


def three_state_kappa_r(rates):
    """Closed-form asymmetry ratio and coefficient for three states.

    rates is the tuple (a, b, c, d, e, f) of the three-state chain in
    the order (w21, w31, w12, w32, w13, w23).  Returns (kappa, r) with
    kappa = (b + c + f)/(a + d + e) and r = (1 - kappa)/(1 + kappa).
    Under the tensor orientation used by fit() the fitted coefficient
    comes out as -r; the magnitudes agree.  The limit a + d + e = 0
    with a non-zero opposite group returns (inf, -1.0); all six rates
    zero is rejected.
    """
    a, b, c, d, e, f = _as_rates(rates).as_tuple()
    forward = a + d + e
    backward = b + c + f
    if forward == 0.0:
        if backward == 0.0:
            raise InputError("all rates zero, kappa undefined (0/0)")
        return math.inf, -1.0
    kappa = backward / forward
    return kappa, (1.0 - kappa) / (1.0 + kappa)


def _residual_metric(diff, n):
    """Worst flow mismatch over tangent directions and the centroid."""
    dirs = np.vstack([difference_basis(n), np.full(n, 1.0 / n)])
    return float(np.max(np.abs(diff @ dirs.T)))


@lru_cache(maxsize=None)
def _tangent_frame(n):
    """Orthonormal frame [U, e] of R^n and the map from r to K.

    U spans the simplex tangent space and e = ones / sqrt(n).  Column a
    of the map is vec(norm**2 U^T ham_a U); the ham terms span the
    antisymmetric maps of the tangent space, so r -> K is one-to-one.
    """
    u = np.linalg.qr(difference_basis(n).T)[0]
    frame = np.column_stack([u, np.full(n, n ** -0.5)])
    r_to_k = normalizer(n) ** 2 * np.column_stack(
        [(u.T @ _ham_sum(n, [s], [1.0]) @ u).ravel() for s in ham_subsets(n)]
    )
    for arr in (frame, r_to_k):
        arr.setflags(write=False)
    return frame, r_to_k


def _closed_form(gen):
    """(r, q) solving L = (P + U K U^T) q through the Sylvester equation."""
    n = gen.shape[0]
    m = n - 1
    frame, r_to_k = _tangent_frame(n)
    u = frame[:, :m]
    b = u.T @ gen @ u
    # Column a of the operator is B K_a + K_a B^T, K_a the image of r_a.
    # lstsq gives the minimum-norm r where the chain is reducible and
    # the operator singular.
    ks = r_to_k.T.reshape(-1, m, m)
    sylvester = (b @ ks + ks @ b.T).reshape(len(ks), m * m).T
    r = np.linalg.lstsq(sylvester, (b - b.T).ravel(), rcond=None)[0]
    # I + K is invertible for antisymmetric K.
    i_plus_k = np.eye(m) + (r_to_k @ r).reshape(m, m)

    def q_map(target):
        # Symmetric q, gauge q[n-1, n-1] = 0, with U^T q = (I + K)^-1 U^T target.
        y = np.linalg.solve(i_plus_k, u.T @ target @ frame)
        z = np.zeros((n, n))
        z[:m] = y
        z[m, :m] = y[:, m]
        q = frame @ z @ frame.T
        q = 0.5 * (q + q.T)
        return q - q[-1, -1]

    # q is linear in L once K is fixed: a second pass on the flow
    # mismatch removes the roundoff the first leaves on stiff chains
    # (stiff_chain(1e7) in the CLI tests reads 1.4e-8 without it).
    q = q_map(gen)
    q += q_map(gen - _flow_operator(n, normalizer(n), r, ham_subsets(n)) @ q)
    return r, q


def fit(w):
    """Fit a quadratic-entropy representation to a master equation.

    Parameters
    ----------
    w : TransitionMatrix or array
        Rate matrix of the target flow.

    Returns
    -------
    QTRepresentation
        With norm = normalizer(n) for n >= 3; the two-state case is the
        closed form of two_state_entropy with norm = 1 and no
        coefficients.  Deterministic: the same w gives the same bytes.

    Raises
    ------
    InputError
        If n exceeds MAX_FIT_N, or the rates are so close to the float
        limit that the solve overflows.
    FitNonConvergenceError
        If the flow residual lies above ACCEPT_TOL * max(1, max|L|),
        ACCEPT_TOL = 1e-8, L the generator.  The error carries the
        representation found, with its absolute residual.

    Notes
    -----
    The closed form of the module docstring, with one refinement pass
    of the q map.
    """
    w = _as_transition_matrix(w)
    n = w.n
    if n > MAX_FIT_N:
        raise InputError(f"n = {n} exceeds the fit cap MAX_FIT_N = {MAX_FIT_N}")
    gen = build_generator(w)
    if n == 2:
        entropy, r, subsets, norm = two_state_entropy(w), np.zeros(0), (), 1.0
    else:
        norm = normalizer(n)
        subsets = ham_subsets(n)
        # Rates within a few factors of the float limit overflow the
        # solve itself: that is input out of range, not a misfit.
        try:
            with np.errstate(over="raise"):
                r, q = _closed_form(gen)
        except FloatingPointError as exc:
            raise InputError(f"rate matrix too large to fit: {exc}") from exc
        entropy = QuadraticEntropy(q)
    # Residual first, so the representation is built and validated once.
    resid = _residual_metric(_flow_operator(n, norm, r, subsets) @ entropy.q - gen, n)
    rep = QTRepresentation(entropy, r, subsets, norm, resid)
    tol = ACCEPT_TOL * max(1.0, float(np.max(np.abs(gen))))
    if not resid <= tol:
        raise FitNonConvergenceError(
            f"fit residual {resid:.3e} above {tol:.3e} = {ACCEPT_TOL:.0e} * max(1, max|L|)",
            rep,
        )
    return rep
