"""Quadratic-entropy representations of master-equation flows.

A flow dp/dt = L p on the probability simplex is rewritten as

    dp/dt = norm**2 * [ main(g) + sum_a r_a * ham_a(g) ],    g = q p,

where main is the raw rank-N double contraction (equal to
N*(N-2)!*(g - mean g)), the ham_a are the single-epsilon terms of
multilinear.ham_term over the catalog ham_subsets(N) of size-(N-3)
subsets of the tangent basis, and q is a symmetric matrix defining the
quadratic entropy S = p q p / 2.  The catalog follows from N and N from
q, so a representation stores neither: it is q, r, norm and the fit's
residual.  The two contraction families share one overall
normalization so that the fitted coefficients r_a are independent of
it; with norm = normalizer(N) the main term is exactly the tangent
projection of the entropy gradient.

Unknown count: q contributes N(N+1)/2 - 1 (one direction is pure gauge,
q -> q + k * ones changes nothing on the simplex), the coefficients
contribute (N-1)(N-2)/2, together N(N-1), matching the degrees of
freedom of a generator with zero column sums.

fit() solves the matching problem in closed form, in cut coordinates.
With V = difference_basis(N), G = V V^T and the integer cut vectors
C = N G^-1 V, sum_a r_a ham_a = C^T W C / N (multilinear._wedge_sum), so
V L = (G + K) G^-1 V q with K antisymmetric, r_a its one entry
K[i, j] = sign * r_a / (N-2)! at the cut pair (i, j, sign) its subset
leaves out: the upper triangle in reverse lex order, as the catalog is
in lex order (multilinear._catalog_pairs).  Symmetry of q is B K + K B^T
= Lambda - Lambda^T, Lambda = V L V^T and B = Lambda G^-1, one equation
per entry above the diagonal: a square system of side C(N-1, 2), solved
by least squares for the minimum-norm r where three or more closed
classes make it singular.  Then V q = G (G + K)^-1 V L gives the rows
of q as tail sums, the last row fixed by symmetry and the gauge
q[N-1, N-1] = 0.
With K fixed, q is linear in L: one refinement pass of the q map on the
flow mismatch removes the roundoff the first pass leaves on stiff
chains.  There is no random start; N is capped at MAX_FIT_N, a bound on
the size of the least squares.  The arrays fixed by N (V, G, the cut
vectors and pairs) are built once per N, and the flow operator of the
refinement pass also gives the fit's residual.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math

import numpy as np

from .errors import (
    FitNonConvergenceError, InputError, _finite_array, _instance, _json_object, _positive,
)
from .multilinear import (
    _catalog_pairs, _cut_vectors, _size, _wedge_sum, difference_basis, normalizer,
)
from .pme import _as_transition_matrix, build_generator
from .relaxation import _as_rates

__all__ = [
    "QuadraticEntropy",
    "QTRepresentation",
    "flow_matrix",
    "two_state_entropy",
    "three_state_kappa_r",
    "fit",
]

# A flow residual above ACCEPT_TOL * max(1, max|L|) raises FitNonConvergenceError
# (CLI exit 3); relative, so scaling the rates keeps roundoff a pass.
ACCEPT_TOL = 1e-8

# Largest state count fit accepts; a larger W is rejected before any
# matrix is built.  The cap bounds the Sylvester lstsq, a square system
# of side (N-1)(N-2)/2 that takes most of a warm fit: 40 ms at N = 30,
# 182 ms at N = 40 and 545 ms at N = 50 (2-core Xeon, numpy 2.4).
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

    r holds one coefficient per term of the catalog ham_subsets(n), in
    its order.  norm is positive and finite.  residual is the worst
    absolute mismatch of the represented flow against the target
    generator over the tangent basis directions and the simplex
    centroid, finite and non-negative.
    """

    entropy: QuadraticEntropy
    r: np.ndarray
    norm: float
    residual: float

    def __post_init__(self):
        n = _instance(self.entropy, QuadraticEntropy, "entropy").n
        r = _finite_array(self.r, "r", (None,))
        terms = math.comb(_size(n) - 1, 2)
        if r.size != terms:
            raise InputError(f"got {r.size} coefficients for {terms} subsets")
        norm = _positive(self.norm, "norm")
        residual = float(_finite_array(self.residual, "residual", ()))
        if residual < 0.0:
            raise InputError(f"residual must be >= 0, got {residual!r}")
        r.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "residual", residual)

    @property
    def n(self):
        return self.entropy.n

    def to_json_dict(self):
        return {
            "q": self.entropy.q.tolist(),
            "r": self.r.tolist(),
            "norm": float(self.norm),
            "residual": float(self.residual),
        }

    @classmethod
    def from_json_dict(cls, data):
        """Representation from a to_json_dict document; every key is required."""
        keys = ("q", "r", "norm", "residual")
        data = _json_object(data, "representation", keys, keys)
        return cls(QuadraticEntropy(data["q"]), data["r"], data["norm"], data["residual"])


def _main_scale(norm, n):
    # Raw double contraction is N*(N-2)! times the tangent projection.
    return norm * norm * n * math.factorial(n - 2)


def _flow_operator(n, norm, r, cuts, pairs):
    """Matrix that multiplies q in the represented flow, from the catalog's cut pairs."""
    return _main_scale(norm, n) * (np.eye(n) - 1.0 / n) + norm * norm * _wedge_sum(cuts, pairs, r)


def flow_matrix(rep):
    """The represented flow as a matrix acting on states."""
    rep = _instance(rep, QTRepresentation, "rep")
    op = _flow_operator(rep.n, rep.norm, rep.r, _cut_vectors(rep.n), _catalog_pairs(rep.n))
    return op @ rep.entropy.q


def two_state_entropy(w):
    """Diagonal entropy reproducing the two-state master equation.

    Returns q = diag(-w21, -w12), verified against build_generator
    under the raw two-variable contraction (norm = 1): the flow it
    generates is dp1/dt = w12 p2 - w21 p1.  Note the cross assignment,
    rate 1->2 on the p1 slot; the straight one fails the verification
    with the two rates interchanged.
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


# The arrays fixed by n, read-only: V = difference_basis(n), G = V V^T,
# the cut vectors and the (i, j, sign) _catalog_pairs of the catalog,
# r_scale = sign * (n-2)! (r from K[i, j]), and the residual's
# directions (V and the centroid) as rows.
_Frame = collections.namedtuple("_Frame", "pairs cuts basis gram dirs r_scale")


@functools.lru_cache(maxsize=MAX_FIT_N)
def _fit_frame(n):
    """The _Frame of n, built once per n <= MAX_FIT_N."""
    pairs = _catalog_pairs(n)
    v = difference_basis(n)
    frame = _Frame(pairs, _cut_vectors(n), v, v @ v.T,
                   np.vstack([v, np.full(n, 1.0 / n)]), pairs[2] * math.factorial(n - 2))
    for arr in (*pairs, *frame[1:]):
        arr.setflags(write=False)
    return frame


def _closed_form(gen):
    """(r, q, flow operator) solving V L = (G + K) G^-1 V q through the Sylvester equation."""
    n = gen.shape[0]
    m = n - 1
    frame = _fit_frame(n)
    v, g = frame.basis, frame.gram
    i, j, _ = frame.pairs
    vl = v @ gen
    lam = vl @ v.T
    # B = Lambda G^-1, with G^-1 V^T = C^T / n from the integer cut vectors.
    b = vl @ frame.cuts.T / n
    # Row (p, q), column (i, j) of K -> B K + K B^T, over the cut pairs: the
    # entries above the diagonal, each once, with 0/1 factors such as
    # j[:, None] == j for eye[j][:, j].  lstsq gives the minimum-norm K
    # where three or more closed classes make the system singular.
    sylvester = b[i[:, None], i] * (j[:, None] == j)
    sylvester -= b[i[:, None], j] * (j[:, None] == i)
    sylvester += b[j[:, None], j] * (i[:, None] == i)
    sylvester -= b[j[:, None], i] * (i[:, None] == j)
    k = np.zeros((m, m))
    k[i, j] = solution = np.linalg.lstsq(sylvester, (lam - lam.T)[i, j], rcond=None)[0]
    r = frame.r_scale * solution
    k -= k.T

    def q_map(target):
        # Symmetric q, gauge q[n-1, n-1] = 0, with V q = G (G + K)^-1 V target: row i
        # is the tail sum of V q from i plus the last row, by symmetry the last column.
        vq = g @ np.linalg.solve(g + k, v @ target)
        tails = np.zeros((n, n))
        tails[:m] = np.cumsum(vq[::-1], axis=0)[::-1]
        q = tails + tails[:, m]
        return 0.5 * (q + q.T)

    # q is linear in L once K is fixed: a second pass on the flow
    # mismatch removes the roundoff the first leaves on stiff chains
    # (stiff_chain(1e7) in the CLI tests reads 7.1e-9 without it, 3.9e-9 with it).
    q = q_map(gen)
    op = _flow_operator(n, normalizer(n), r, frame.cuts, frame.pairs)
    q += q_map(gen - op @ q)
    return r, q, op


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
    """
    w = _as_transition_matrix(w)
    n = w.n
    if n > MAX_FIT_N:
        raise InputError(f"n = {n} exceeds the fit cap MAX_FIT_N = {MAX_FIT_N}")
    gen = build_generator(w)
    frame = _fit_frame(n)
    if n == 2:
        entropy, r, norm = two_state_entropy(w), np.zeros(0), 1.0
        op = _flow_operator(n, norm, r, frame.cuts, frame.pairs)
    else:
        norm = normalizer(n)
        # Rates within a few factors of the float limit overflow the
        # solve itself: that is input out of range, not a misfit.
        try:
            with np.errstate(over="raise"):
                r, q, op = _closed_form(gen)
        except FloatingPointError as exc:
            raise InputError(
                "rate matrix too large to fit: the solve overflows at max rate "
                f"{float(np.max(w.w))!r}"
            ) from exc
        entropy = QuadraticEntropy(q)
    # Residual first, so the representation is built and validated once: the
    # worst flow mismatch over the tangent directions and the centroid.
    resid = float(np.max(np.abs((op @ entropy.q - gen) @ frame.dirs.T)))
    rep = QTRepresentation(entropy, r, norm, resid)
    tol = ACCEPT_TOL * max(1.0, float(np.max(np.abs(gen))))
    if not resid <= tol:
        raise FitNonConvergenceError(
            f"fit residual {resid:.3e} above {tol:.3e} = {ACCEPT_TOL:.0e} * max(1, max|L|)",
            rep,
        )
    return rep
