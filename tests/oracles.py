"""Reference implementations that tests compare qtrep against.

* Permutation-sum oracles for the epsilon kernels of qtrep.multilinear:
  each sums the epsilon symbol entry by entry, with signs from an
  inversion count.
* The rank-6 three-pair kernel as two loops over all 720 permutations,
  for the closed form of qtrep.multilinear.six_slot_main_term.
* The ham-term matrix as a batched stack of n**4 determinants, for the
  wedge form of qtrep.multilinear._wedge_sum: the subset leaving out the
  cuts a < b gives (-1)**(n+a+b+1) (c_a c_b^T - c_b c_a^T) / n, with
  integer cut vectors c_a = n [i <= a] - (a + 1), so a sum of terms is
  C^T W C / n, W antisymmetric with the signed coefficients r_a as its
  entries.
* The cut pairs of any list of subsets by set difference
  (cut_pairs_per_call), for the closed form of the catalog's pairs,
  qtrep.multilinear._catalog_pairs, and the ham terms of any list of
  subsets, repeats included, summed with one Python += per term
  (ham_sum_loop).
* The fit in an orthonormal QR frame, for the cut-coordinate closed
  form of qtrep.qtfit: _tangent_frame maps r to K through one ham-term
  matrix per subset, and _closed_form solves the Sylvester equation on
  all (N-1)**2 entries of K by least squares.  It is the earlier
  implementation, kept verbatim but for the ham-term sum, which is
  ham_sum_loop below (checked against the determinants above), so it
  calls ham_subsets and the per-call flow operator below.
* The cut-coordinate fit as it ran before qtrep.qtfit built its fixed
  structure once per n: fit_per_call rebuilds V, G, the cut vectors, the
  cut pairs and the Sylvester gather on every call, adds the ham terms
  one by one and builds the flow operator twice.  With it, the earlier
  build_generator (one numpy scalar per entry), the stationary state
  with the censoring update summed over a stacked axis, and dumps with
  every list rendered item by item.  They are the earlier code, kept
  verbatim as byte references; they share with qtrep only the parts
  that did not change: the records, normalizer, ham_subsets,
  two_state_entropy, _main_scale and format_float.
* The CSV writer as one Python ``%`` row template per row, for the
  numpy digit path of qtrep._jsonio.csv_text.
* One RK4 step as its own function, for the step that
  qtrep.dynamics.integrate runs inline in its loop.  It is the earlier
  implementation, kept verbatim.

Apart from the QR-frame fit and the per-call references, no oracle
shares code with the implementation it checks.
"""

import itertools
import json
import math
from functools import lru_cache

import numpy as np

from qtrep._jsonio import format_float
from qtrep.errors import DegenerateChainError, FitNonConvergenceError, InputError
from qtrep.multilinear import difference_basis, ham_subsets, normalizer
from qtrep.pme import ProbabilityState, _as_transition_matrix
from qtrep.qtfit import (
    ACCEPT_TOL, MAX_FIT_N, QTRepresentation, QuadraticEntropy, _main_scale, two_state_entropy,
)


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
    """The matrix of multilinear.ham_term(., subset, n) as one determinant per entry.

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
        [(u.T @ ham_sum_loop(n, [s], [1.0]) @ u).ravel() for s in ham_subsets(n)]
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
    q += q_map(gen - flow_operator_per_call(n, normalizer(n), r, ham_subsets(n)) @ q)
    return r, q


def cut_vectors_per_call(n):
    """Integer cut vectors c_a = n [i <= a] - (a + 1) as rows: C = n G^-1 V, G = V V^T."""
    return n * np.tri(n - 1, n) - np.arange(1.0, n)[:, None]


def cut_pairs_per_call(n, subsets):
    """(a, b, sign) per subset: the two cuts a < b of 0..n-2 it leaves out."""
    cuts = set(range(n - 1))
    for subset in subsets:
        a, b = sorted(cuts.difference(subset))
        yield a, b, 1.0 if (n + a + b) % 2 else -1.0


def ham_sum_loop(n, subsets, coeffs):
    """sum_a coeffs[a] * (matrix of ham_term(., subsets[a], n)), one Python += per term."""
    w = np.zeros((n - 1, n - 1))
    for coeff, (a, b, sign) in zip(coeffs, cut_pairs_per_call(n, subsets)):
        w[a, b] += sign * coeff
    c = cut_vectors_per_call(n)
    return c.T @ (w - w.T) @ c / n


def flow_operator_per_call(n, norm, r, subsets):
    """Matrix that multiplies q in the represented flow."""
    return _main_scale(norm, n) * (np.eye(n) - 1.0 / n) + norm * norm * ham_sum_loop(n, subsets, r)


def residual_metric(diff, n):
    """Worst flow mismatch over tangent directions and the centroid."""
    dirs = np.vstack([difference_basis(n), np.full(n, 1.0 / n)])
    return float(np.max(np.abs(diff @ dirs.T)))


def closed_form_per_call(gen):
    """(r, q) solving V L = (G + K) G^-1 V q, with every fixed array built anew."""
    n = gen.shape[0]
    m = n - 1
    v = difference_basis(n)
    g = v @ v.T
    vl = v @ gen
    lam = vl @ v.T
    b = vl @ cut_vectors_per_call(n).T / n
    subsets = ham_subsets(n)
    i, j, sign = (np.array(col) for col in zip(*cut_pairs_per_call(n, subsets)))
    bi, bj, ei, ej = b[i], b[j], np.eye(m)[i], np.eye(m)[j]
    sylvester = bi[:, i] * ej[:, j] - bi[:, j] * ej[:, i] + ei[:, i] * bj[:, j] - ei[:, j] * bj[:, i]
    k = np.zeros((m, m))
    k[i, j] = np.linalg.lstsq(sylvester, (lam - lam.T)[i, j], rcond=None)[0]
    r = sign * math.factorial(n - 2) * k[i, j]
    k -= k.T

    def q_map(target):
        vq = g @ np.linalg.solve(g + k, v @ target)
        tails = np.zeros((n, n))
        tails[:m] = np.cumsum(vq[::-1], axis=0)[::-1]
        q = tails + tails[:, m]
        return 0.5 * (q + q.T)

    q = q_map(gen)
    q += q_map(gen - flow_operator_per_call(n, normalizer(n), r, subsets) @ q)
    return r, q


def build_generator_per_entry(w):
    """pme.build_generator with each diagonal an fsum over numpy scalars."""
    w = _as_transition_matrix(w)
    gen = np.array(w.w)
    for k in range(w.n):
        gen[k, k] = -math.fsum(gen[i, k] for i in range(w.n) if i != k)
    return gen


def fit_per_call(w):
    """qtfit.fit on closed_form_per_call, with the flow operator built again for the residual."""
    w = _as_transition_matrix(w)
    n = w.n
    if n > MAX_FIT_N:
        raise InputError(f"n = {n} exceeds the fit cap MAX_FIT_N = {MAX_FIT_N}")
    gen = build_generator_per_entry(w)
    if n == 2:
        entropy, r, subsets, norm = two_state_entropy(w), np.zeros(0), (), 1.0
    else:
        norm = normalizer(n)
        subsets = ham_subsets(n)
        try:
            with np.errstate(over="raise"):
                r, q = closed_form_per_call(gen)
        except FloatingPointError as exc:
            raise InputError(
                "rate matrix too large to fit: the solve overflows at max rate "
                f"{float(np.max(w.w))!r}"
            ) from exc
        entropy = QuadraticEntropy(q)
    resid = residual_metric(flow_operator_per_call(n, norm, r, subsets) @ entropy.q - gen, n)
    rep = QTRepresentation(entropy, r, norm, resid)
    tol = ACCEPT_TOL * max(1.0, float(np.max(np.abs(gen))))
    if not resid <= tol:
        raise FitNonConvergenceError(
            f"fit residual {resid:.3e} above {tol:.3e} = {ACCEPT_TOL:.0e} * max(1, max|L|)",
            rep,
        )
    return rep


def to_json_dict_per_value(rep):
    """QTRepresentation.to_json_dict with one float() per entry."""
    return {
        "q": [[float(v) for v in row] for row in rep.entropy.q],
        "r": [float(v) for v in rep.r],
        "norm": float(rep.norm),
        "residual": float(rep.residual),
    }


def stationary_state_stacked(w):
    """pme.stationary_state with each censoring update summed over a stacked axis."""
    w = _as_transition_matrix(w)
    reach = (w.w > 0.0).T | np.eye(w.n, dtype=bool)
    for _ in range(w.n.bit_length()):
        reach = reach @ reach
    recurrent = (reach <= reach.T).all(axis=1)
    closed = int(np.sum(recurrent & (reach.argmax(axis=1) == np.arange(w.n))))
    if closed != 1:
        raise DegenerateChainError(f"no unique stationary state: {closed} closed classes", closed)
    states = np.flatnonzero(recurrent)
    frac, expo = np.frexp(w.w[np.ix_(states, states)])
    expo = expo.astype(np.int64)
    expo[frac == 0.0] = -2**40
    exits = [None] * states.size
    for k in range(states.size - 1, 0, -1):
        fe, ee = frexp_sum(frac[:k, k], expo[:k, k])
        exits[k] = float(fe), int(ee)
        frac[:k, :k], expo[:k, :k] = frexp_sum(
            np.stack([frac[:k, :k], np.outer(frac[:k, k] / fe, frac[k, :k])]),
            np.stack([expo[:k, :k], np.add.outer(expo[:k, k] - ee, expo[k, :k])]))
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


def frexp_sum(frac, expo):
    """Sum over axis 0 of frac * 2**expo, as a fraction and an int64 exponent."""
    top = expo.max(axis=0)
    f, e = np.frexp(np.ldexp(frac, np.maximum(expo - top, -1100)).sum(axis=0))
    return f, e + top


def render_recursive(obj, precision, level):
    """_jsonio._render with every list item rendered by its own call."""
    pad = "  " * level
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {render_recursive(value, precision, level + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{render_recursive(value, precision, level + 1)}" for value in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj, precision)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InputError(f"cannot serialize {type(obj).__name__}")


def dumps_recursive(obj, precision=17):
    """_jsonio.dumps on render_recursive."""
    return render_recursive(obj, precision, 0) + "\n"


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
