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
* The fit in an orthonormal QR frame, for the cut-coordinate closed
  form of qtrep.qtfit: _tangent_frame maps r to K through one ham-term
  matrix per subset, and _closed_form solves the Sylvester equation on
  all (N-1)**2 entries of K by least squares.  It is the earlier
  implementation, kept verbatim, so it calls qtrep's _ham_sum (checked
  against the determinants above), ham_subsets and flow operator.
* The CSV writer as one Python ``%`` row template per row, for the
  numpy digit path of qtrep._jsonio.csv_text.
* One RK4 step as its own function, for the step that
  qtrep.dynamics.integrate runs inline in its loop.  It is the earlier
  implementation, kept verbatim.

Apart from the QR-frame fit, no oracle shares code with the
implementation it checks.
"""

import itertools
from functools import lru_cache

import numpy as np

from qtrep.errors import InputError
from qtrep.multilinear import _ham_sum, difference_basis, normalizer
from qtrep.qtfit import _flow_operator, ham_subsets


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


def _rk4_step(rhs, y, h):
    """One RK4 step from a finite y, or the non-finite stage rhs rejected."""
    k1 = rhs(y)
    stage = y + 0.5 * h * k1
    try:
        k2 = rhs(stage)
        stage = y + 0.5 * h * k2
        k3 = rhs(stage)
        stage = y + h * k3
        k4 = rhs(stage)
    except InputError:
        if np.all(np.isfinite(stage)):
            raise
        return stage
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
