"""Antisymmetric contraction kernels for simplex flows.

The flows in this package are built from contractions of the rank-N
Levi-Civita symbol with an energy gradient (always the all-ones vector
for probability vectors, since the conserved quantity is sum(p)) and an
entropy gradient g.  The central identity, obtained by summing the
product of two epsilon factors over their shared indices, is

    sum_perm  e_{i,i1,...}  e_{j,j1,...} u_{i1} g_j u_{j1}
        = (N-2)! * (N * g_i - sum_j g_j)            with u = ones,

so after attaching the normalizer 1/sqrt(N*(N-2)!) to both epsilon
factors the double contraction collapses to the centered gradient
g_i - mean(g), the orthogonal projection of g onto the simplex tangent
space.  A contraction of epsilon with fixed vectors is a determinant,
so the permutation signs and the single-contraction ham terms are
evaluated as determinants, for any N.  Only main_term_bruteforce is a
permutation sum: the oracle for the closed form, capped at N = 8.

All functions are pure and safe to call from multiple threads.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import InputError, SizeError, _finite_array

# Brute-force permutation sums cost O(N!) and exist to cross-check the
# closed forms, not to be fast.  Above this cap the factorial cost and
# the N**(N-2) intermediate tensor stop being reasonable.
MAX_BRUTEFORCE_N = 8

__all__ = [
    "MAX_BRUTEFORCE_N",
    "normalizer",
    "difference_basis",
    "main_term_bruteforce",
    "main_term_closed",
    "ham_term",
    "check_six_state",
    "six_slot_main_term",
]


@lru_cache(maxsize=None)
def _signed_permutations(n):
    """All permutations of range(n) in lexicographic order with their signs.

    Each sign is the determinant of the permutation matrix, rounded: the
    LU of a permutation matrix only swaps rows, so it is exactly +-1.
    Cached per n.
    """
    perms = list(itertools.permutations(range(n)))
    signs = np.rint(np.linalg.det(np.eye(n)[np.array(perms)]))
    return tuple(zip(signs.tolist(), perms))


def normalizer(n):
    """Normalization constant 1/sqrt(N * (N-2)!) for the rank-N kernel.

    Attached to both epsilon factors of the main term it makes the
    double contraction equal to g - mean(g) exactly.  For N = 4 this is
    1/sqrt(8), i.e. the choice fixed by 8 * normalizer**2 = 1.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    return 1.0 / math.sqrt(n * math.factorial(n - 2))


def difference_basis(n):
    """Basis of the simplex tangent hyperplane, rows e_b - e_{b+1}.

    Returns an (n-1, n) array.  These are the vectors whose size-(N-3)
    subsets parameterize the Hamiltonian-like terms of the flow.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    basis = np.zeros((n - 1, n))
    for b in range(n - 1):
        basis[b, b] = 1.0
        basis[b, b + 1] = -1.0
    return basis


def _check_subset(subset, n):
    """subset as a tuple of n - 3 distinct indices into difference_basis(n)."""
    subset = tuple(int(s) for s in subset)
    if len(subset) != n - 3 or len(set(subset)) != len(subset) or not all(
        0 <= s < n - 1 for s in subset
    ):
        raise InputError(
            f"subset {subset} is not n - 3 = {n - 3} distinct indices in 0..{n - 2}"
        )
    return subset


def main_term_bruteforce(g, n):
    """Main flow term by literal double permutation sum.

    Evaluates

        out_i = norm * sum e_{i,i1,m...} u_{i1} A_{m...},
        A_{m...} = norm * sum e_{j,j1,m...} g_j u_{j1},

    with u the all-ones vector and norm = normalizer(n), summing every
    epsilon entry explicitly.  The result equals main_term_closed(g, n)
    up to roundoff; divided by norm**2 it is the raw contraction
    (N-2)! * (N*g_i - sum g).

    Factorial cost, capped at n = MAX_BRUTEFORCE_N.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    if n > MAX_BRUTEFORCE_N:
        raise SizeError(
            f"n = {n} exceeds the brute-force cap {MAX_BRUTEFORCE_N}; "
            "use main_term_closed instead"
        )
    g = _finite_array(g, "gradient", (n,))
    norm = normalizer(n)
    perms = _signed_permutations(n)
    # A carries n-2 free indices; a 0-d array handles n = 2 uniformly.
    inner = np.zeros((n,) * (n - 2))
    for sign, p in perms:
        inner[p[2:]] += sign * g[p[0]]
    inner *= norm
    out = np.zeros(n)
    for sign, p in perms:
        out[p[0]] += sign * inner[p[2:]]
    out *= norm
    return out

def main_term_closed(g, n):
    """Closed form of the main flow term: g_i - mean(g).

    Equal to main_term_bruteforce(g, n) with the default normalizer;
    valid for every n >= 2.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    g = _finite_array(g, "gradient", (n,))
    return g - g.mean()


def ham_term(g, subset, n):
    """Hamiltonian-like flow term for one basis subset, for any n >= 3.

    Contracts a single rank-n epsilon with the ones vector, the gradient
    g, and n-3 fixed tangent basis vectors:

        out_i = sum e_{i,j,k,m1..m_{n-3}} u_j g_k v(s1)_{m1} ... ,

    where the v(s) are rows of difference_basis(n) selected by `subset`
    (0-based indices, size n-3, distinct).  No normalization constant is
    applied; any scale belongs to the coefficient multiplying the term.
    For n = 3 the subset is empty and the result is the cross product
    ones x g.  These terms conserve both sum(p) and the entropy whose
    gradient is g: sum_i out_i = 0 and dot(out, g) = 0 by antisymmetry.
    """
    if n < 3:
        raise InputError(f"ham terms need n >= 3, got {n}")
    g = _finite_array(g, "gradient", (n,))
    return _ham_matrix(n, _check_subset(subset, n)) @ g


@lru_cache(maxsize=None)
def _ham_matrix(n, subset):
    """Matrix of ham_term(., subset, n) in the standard basis.

    Entry [i, k] is det[e_i; ones; e_k; v_s1; ...; v_s(n-3)], the
    epsilon contraction of ham_term written as a determinant, so the
    cost is polynomial in n.  The rows are integer vectors, so every
    entry is an integer and rounding removes the LU roundoff.
    """
    eye = np.eye(n)
    rows = np.empty((n, n, n, n))
    rows[:, :, 0] = eye[:, None, :]
    rows[:, :, 1] = 1.0
    rows[:, :, 2] = eye[None, :, :]
    rows[:, :, 3:] = difference_basis(n)[list(subset)]
    mat = np.rint(np.linalg.det(rows))
    mat.setflags(write=False)
    return mat


# Slot layout of the six-variable kernel: three two-level subsystems
# with conserved pair sums, so the three energy gradients are the pair
# indicators below and the entropy enters through its gradient over the
# three pair differences.
_H_SLOTS = ((0, 1), (2, 3), (4, 5))
_SIX_NORM = 0.125  # on both epsilon factors; see six_slot_main_term


def check_six_state(s):
    """Validate a six-variable state: finite, each pair summing to 1 (1e-9)."""
    s = _finite_array(s, "six-variable state", (6,))
    for i, (a, b) in enumerate(_H_SLOTS):
        total = s[a] + s[b]
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"pair {i} must sum to 1, got {total!r}")
    return s


def six_slot_main_term(g3):
    """Rank-6 double contraction driving three coupled two-level pairs.

    g3 is the entropy gradient over the three pair differences (p1-p2,
    p3-p4, p5-p6); the contraction depends on it alone.  Each pair sums
    to one, so the per-slot gradient is dS/dp1 = -dS/dp2 = 2 * g3[0],
    and so on.  The inner contraction then reduces to four equal entries
    per output slot, out_1 = 8 * norm**2 * (dS/dp1 - dS/dp2), with norm
    on both epsilon factors.  norm is fixed at 1/8, which makes
    d(p1 - p2)/dt = g3[0]: the gradient flow in the difference variables.
    """
    g3 = _finite_array(g3, "g3", (3,))

    # Per-slot entropy gradient under the pair constraints.
    gs = np.empty(6)
    gs[0::2] = 2.0 * g3
    gs[1::2] = -2.0 * g3

    (s1, i0, i1, i2), (s2, o0, o4, o5) = _six_slot_table()
    # np.add.at adds in index order, as the permutation loop did.
    inner = np.zeros((6, 6))
    np.add.at(inner, (i0, i1), s1 * gs[i2])
    inner *= _SIX_NORM
    out = np.zeros(6)
    np.add.at(out, o0, s2 * inner[o4, o5])
    out *= _SIX_NORM
    return out


@lru_cache(maxsize=None)
def _six_slot_table():
    """Signs and indices of the 48 permutations each kernel pass keeps.

    The inner pass keeps permutations p with p[3], p[4], p[5] in the
    three energy slots and adds sign * gs[p[2]] to inner[p[0], p[1]];
    the outer pass keeps p[1], p[2], p[3] in the slots and adds
    sign * inner[p[4], p[5]] to out[p[0]].  Rows are in permutation
    order, so the sums accumulate in the order of the full loop.
    """
    in1, in2, in3 = _H_SLOTS

    def columns(first):
        kept = [(sign, p) for sign, p in _signed_permutations(6)
                if p[first] in in1 and p[first + 1] in in2 and p[first + 2] in in3]
        signs = np.array([sign for sign, _ in kept])
        perms = np.array([p for _, p in kept])
        return signs, perms

    s1, p1 = columns(3)
    s2, p2 = columns(1)
    return (s1, p1[:, 0], p1[:, 1], p1[:, 2]), (s2, p2[:, 0], p2[:, 4], p2[:, 5])
