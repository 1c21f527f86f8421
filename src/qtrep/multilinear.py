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
space.  A contraction of epsilon with fixed vectors is a determinant:
the signs are evaluated as determinants, each ham-term matrix as their
closed form, the wedge of two integer cut vectors (a sum of terms is
one antisymmetric matrix between the cut vectors, its pairs an upper
triangle over the whole catalog), and the rank-6
three-pair kernel as +-g/2 per pair.  Only main_term_bruteforce is a
permutation sum: the oracle for the closed form, capped at N = 8.

All functions are pure and safe to call from multiple threads.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import InputError, SizeError, _finite_array, _integer, _integers, _sequence

# Largest state count of normalizer, difference_basis, ham_term and
# ham_subsets: n * (n-2)!, the square of 1 / normalizer(n), is a
# finite float up to n = 171.  Each checks it before it allocates.
MAX_N = 171

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
    "ham_subsets",
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


def _size(n, minimum=2):
    """n as a Python int in [minimum, MAX_N]."""
    n = _integer(n, "n", minimum)
    if n > MAX_N:
        raise InputError(
            f"n = {n} is too large: the size cap is MAX_N = {MAX_N}, above which "
            "n * (n-2)! exceeds the float range"
        )
    return n


def normalizer(n):
    """Normalization constant 1/sqrt(N * (N-2)!) for the rank-N kernel.

    Attached to both epsilon factors of the main term it makes the
    double contraction equal to g - mean(g) exactly.  For N = 4 this is
    1/sqrt(8), i.e. the choice fixed by 8 * normalizer**2 = 1.
    """
    n = _size(n)
    return 1.0 / math.sqrt(n * math.factorial(n - 2))


def difference_basis(n):
    """Basis of the simplex tangent hyperplane, rows e_b - e_{b+1}.

    Returns an (n-1, n) array.  These are the vectors whose size-(N-3)
    subsets parameterize the Hamiltonian-like terms of the flow.
    """
    n = _size(n)
    return np.eye(n - 1, n) - np.eye(n - 1, n, 1)


def _check_subset(subset, n):
    """subset as a tuple of n - 3 distinct indices into difference_basis(n)."""
    subset = _integers(_sequence(subset, "subset"), "subset index", 0, n - 2)
    if len(subset) != n - 3 or len(set(subset)) != len(subset):
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
    n = _integer(n, "n", 2)
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
    n = _integer(n, "n", 2)
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
    n = _size(n, 3)
    g = _finite_array(g, "gradient", (n,))
    a, b = sorted(set(range(n - 1)).difference(_check_subset(subset, n)))
    return _wedge_sum(_cut_vectors(n), _signed(n, a, b), 1.0) @ g


def _cut_vectors(n):
    """Integer cut vectors c_a = n [i <= a] - (a + 1) as rows: C = n G^-1 V, G = V V^T."""
    return n * np.tri(n - 1, n) - np.arange(1.0, n)[:, None]


def _signed(n, a, b):
    """(a, b, sign = (-1)**(n+a+b+1)) for the cuts a < b, ints or index arrays.

    The determinants det[e_i; ones; e_k; v_s1; ...] of the subset leaving
    out a and b form the wedge sign * (c_a c_b^T - c_b c_a^T) / n.
    """
    return a, b, np.where((n + a + b) % 2, 1.0, -1.0)


def ham_subsets(n):
    """Catalog of ham-term subsets: size-(n-3) combinations, lex order.

    Indices are 0-based positions in difference_basis(n).  Empty for
    n = 2 (the two-state flow has no Hamiltonian freedom); a single
    empty subset for n = 3.
    """
    n = _size(n)
    if n == 2:
        return ()
    return tuple(itertools.combinations(range(n - 1), n - 3))


def _catalog_pairs(n):
    """_signed cut pairs of the terms of ham_subsets(n), in its order.

    The catalog lists the size-(n-3) subsets of 0..n-2 in lex order, so
    the pairs a < b they leave out are the upper triangle of range(n-1)
    in reverse lex order.
    """
    a, b = np.triu_indices(n - 1, 1)
    return _signed(n, a[::-1], b[::-1])


def _wedge_sum(cuts, pairs, coeffs):
    """C^T (W - W^T) C / n, C = _cut_vectors(n), W[a, b] = sign * coeff per distinct pair."""
    a, b, sign = pairs
    n = cuts.shape[1]
    w = np.zeros((n - 1, n - 1))
    w[a, b] += sign * coeffs
    return cuts.T @ (w - w.T) @ cuts / n


def check_six_state(s):
    """Validate a six-variable state: finite, each pair summing to 1 (1e-9)."""
    s = _finite_array(s, "six-variable state", (6,))
    for i, total in enumerate((s[0::2] + s[1::2]).tolist()):
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
    on both epsilon factors.  norm is fixed at 1/8, so out = (g3[0]/2,
    -g3[0]/2, g3[1]/2, ...): d(p1 - p2)/dt = g3[0], the gradient flow in
    the difference variables, and every pair sum is conserved, exactly.
    """
    g3 = _finite_array(g3, "g3", (3,))
    out = np.empty(6)
    out[0::2] = 0.5 * g3
    out[1::2] = -0.5 * g3
    return out
