"""Permutation-sum oracles for the determinant kernels of qtrep.multilinear.

Each oracle sums the epsilon symbol entry by entry, with signs from an
inversion count, and shares no code with the implementation it checks.
"""

import itertools
from functools import lru_cache

import numpy as np

from qtrep.errors import InputError


def levi_civita_sign(indices):
    """Sign of the Levi-Civita symbol at a tuple of indices.

    Parameters
    ----------
    indices : sequence of int
        Indices drawn from 0..len(indices)-1.

    Returns
    -------
    int
        +1 for an even permutation of (0, 1, ..., N-1), -1 for an odd
        one, 0 when any index repeats.

    Raises
    ------
    InputError
        If an index lies outside 0..N-1.
    """
    idx = tuple(indices)
    n = len(idx)
    for value in idx:
        if not isinstance(value, (int, np.integer)):
            raise InputError(f"indices must be integers, got {value!r}")
        if value < 0 or value >= n:
            raise InputError(f"index {value} out of range 0..{n - 1}")
    if len(set(idx)) != n:
        return 0
    inversions = 0
    for a in range(n):
        for b in range(a + 1, n):
            if idx[a] > idx[b]:
                inversions += 1
    return -1 if inversions & 1 else 1


@lru_cache(maxsize=None)
def signed_permutations(n):
    """All permutations of range(n) in lexicographic order, with float signs."""
    return tuple((float(levi_civita_sign(p)), p) for p in itertools.permutations(range(n)))


def ham_term_bruteforce(g, subset, n):
    """multilinear.ham_term as the literal single-epsilon permutation sum.

    out_i = sum e_{i,j,k,m1..} u_j g_k v(s1)_{m1} ..., with u the ones
    vector and v(s) = e_s - e_{s+1}.  Factorial cost.
    """
    g = np.asarray(g, dtype=float)
    vecs = [np.eye(n)[s] - np.eye(n)[s + 1] for s in subset]
    out = np.zeros(n)
    for sign, p in signed_permutations(n):
        term = sign * g[p[2]]
        for t in range(n - 3):
            term *= vecs[t][p[3 + t]]
            if term == 0.0:
                break
        out[p[0]] += term
    return out
