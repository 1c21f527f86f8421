"""Reference implementations that tests compare qtrep against.

* Permutation-sum oracles for the epsilon kernels of qtrep.multilinear:
  each sums the epsilon symbol entry by entry, with signs from an
  inversion count.
* The rank-6 three-pair kernel as two loops over all 720 permutations,
  for the closed form of qtrep.multilinear.six_slot_main_term.
* The ham-term matrix as a batched stack of n**4 determinants, for the
  wedge form of qtrep.multilinear._ham_sum: the subset leaving out the
  cuts a < b gives (-1)**(n+a+b+1) (c_a c_b^T - c_b c_a^T) / n, with
  integer cut vectors c_a = n [i <= a] - (a + 1), so a sum of terms is
  C^T W C / n, W antisymmetric with the signed coefficients r_a as its
  entries.
* The CSV writer as one Python ``%`` row template per row, for the
  numpy digit path of qtrep._jsonio.csv_text.

No oracle shares code with the implementation it checks.
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


def literal_six_slot_main_term(g3):
    """multilinear.six_slot_main_term as two loops over all 720 permutations.

    The per-slot gradient is (2 g3[0], -2 g3[0], ...); each epsilon
    factor keeps the permutations with one index in each pair (0, 1),
    (2, 3), (4, 5) and carries the normalization 1/8.
    """
    gs = np.empty(6)
    gs[0::2] = 2.0 * g3
    gs[1::2] = -2.0 * g3
    in1, in2, in3 = (0, 1), (2, 3), (4, 5)
    perms = signed_permutations(6)
    inner = np.zeros((6, 6))
    for sign, p in perms:
        if p[3] in in1 and p[4] in in2 and p[5] in in3:
            inner[p[0], p[1]] += sign * gs[p[2]]
    inner *= 0.125
    out = np.zeros(6)
    for sign, p in perms:
        if p[1] in in1 and p[2] in in2 and p[3] in in3:
            out[p[0]] += sign * inner[p[4], p[5]]
    out *= 0.125
    return out


def ham_matrix_det(n, subset):
    """multilinear._ham_sum(n, [subset], [1.0]) as one determinant per entry.

    Entry [i, k] is det[e_i; ones; e_k; v_s1; ...; v_s(n-3)] with
    v_s = e_s - e_{s+1}: an (n, n, n, n) stack through np.linalg.det.
    The rows are integer vectors, so rounding removes the LU roundoff.
    """
    eye = np.eye(n)
    rows = np.empty((n, n, n, n))
    rows[:, :, 0] = eye[:, None, :]
    rows[:, :, 1] = 1.0
    rows[:, :, 2] = eye[None, :, :]
    rows[:, :, 3:] = (eye[:-1] - eye[1:])[list(subset)]
    return np.rint(np.linalg.det(rows))


def csv_text_template(header, columns, precision=17):
    """_jsonio.csv_text formatted by one '%' row template per row.

    Bool columns print true/false; every other column is cast to float
    and printed with '%.{precision}g' (NaN prints nan).  A column
    holding +-inf raises InputError.
    """
    arrays = []
    fmts = []
    for col in columns:
        col = np.asarray(col)
        if col.dtype == bool:
            arrays.append(np.where(col, "true", "false"))
            fmts.append("%s")
            continue
        col = col.astype(float, copy=False)
        if np.isinf(col).any():
            value = float(col[np.isinf(col)][0])
            raise InputError(f"cannot serialize non-finite value {value!r}")
        arrays.append(col)
        fmts.append(f"%.{precision}g")
    template = ",".join(fmts) + "\n"
    rows = zip(*(col.tolist() for col in arrays))
    return ",".join(header) + "\n" + "".join(template % row for row in rows)
