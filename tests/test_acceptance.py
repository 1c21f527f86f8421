"""Acceptance suite: one criterion per test, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL
lines.  Every criterion is deterministic (seeded) and finishes in
seconds; the whole module stays under a minute.
"""

import math

import numpy as np

from qtrep import (
    composite as cp,
    dynamics,
    lindblad as lb,
    multilinear as ml,
    pme,
    qtfit,
    relaxation,
)


def report(num, label, ok, detail):
    line = f"ACCEPTANCE {num:2d} {label}: {'PASS' if ok else 'FAIL'}  [{detail}]"
    print(line)
    assert ok, line


def random_chain(n, rng, lo=0.05, hi=1.0):
    w = rng.uniform(lo, hi, (n, n))
    np.fill_diagonal(w, 0.0)
    return pme.TransitionMatrix(w)


def ball_point(rng, radius=1.0):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return v * radius * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)


def test_criterion_01_two_state_stationary_law():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        w12, w21 = rng.uniform(0.05, 5.0, 2)
        st = pme.stationary_state([[0.0, w12], [w21, 0.0]])
        expected = np.array([w12, w21]) / (w12 + w21)
        worst = max(worst, float(np.max(np.abs(st.p - expected))))
    report(1, "two-state stationary law (tol 1e-10)", worst < 1e-10,
           f"max err {worst:.2e} over 100 rate pairs")


def test_criterion_02_fit_round_trip():
    rng = np.random.default_rng(102)
    worst = 0.0
    fits = 0
    for n in (2, 3, 4, 5):
        for _ in range(50):
            w = random_chain(n, rng)
            rep = qtfit.fit(w)
            fits += 1
            # unknown count must match the generator dof
            q_dof = n * (n + 1) // 2 - 1
            assert q_dof + rep.r.size == n * (n - 1)
            for _ in range(20):
                p = rng.dirichlet(np.ones(n))
                diff = qtfit.flow_matrix(rep) @ p - pme.build_generator(w) @ p
                worst = max(worst, float(np.max(np.abs(diff))))
    report(2, "fit round-trip, 200 random generators (tol 1e-8)",
           worst < 1e-8, f"max flow mismatch {worst:.2e} over {fits} fits")


def test_criterion_03_three_state_r_formula():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        rates = tuple(rng.uniform(0.05, 2.0, 6))
        rep = qtfit.fit(relaxation.ThreeStateRates(*rates).to_transition_matrix())
        _, r_closed = qtfit.three_state_kappa_r(rates)
        worst = max(worst, abs(abs(float(rep.r[0])) - abs(r_closed)))
    report(3, "three-state |r| = |1-kappa|/(1+kappa) (tol 1e-8)",
           worst < 1e-8, f"max |r| mismatch {worst:.2e} over 100 tuples")


def test_criterion_04_contraction_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    for n in (3, 4, 5, 6):
        for _ in range(100):
            g = rng.standard_normal(n)
            diff = ml.main_term_bruteforce(g, n) - ml.main_term_closed(g, n)
            worst = max(worst, float(np.max(np.abs(diff))))
    norm4 = abs(8.0 * ml.normalizer(4) ** 2 - 1.0)
    ok = worst < 1e-12 and norm4 < 1e-15
    report(4, "double contraction vs closed form, N=3..6 (tol 1e-12)",
           ok, f"max err {worst:.2e}, |8 norm(4)^2 - 1| = {norm4:.1e}")


def test_criterion_05_relaxation_classifier():
    grid = relaxation.ScanGrid(ranges=(0.0, 1.0), samples=100_000)
    result = relaxation.scan(grid, seed=105)

    # eigenvalue oracle, vectorized over all samples
    r = result.rates
    gens = np.zeros((r.shape[0], 3, 3))
    gens[:, 1, 0] = r[:, 0]
    gens[:, 2, 0] = r[:, 1]
    gens[:, 0, 1] = r[:, 2]
    gens[:, 2, 1] = r[:, 3]
    gens[:, 0, 2] = r[:, 4]
    gens[:, 1, 2] = r[:, 5]
    diag = -gens.sum(axis=1)
    gens[:, 0, 0] = diag[:, 0]
    gens[:, 1, 1] = diag[:, 1]
    gens[:, 2, 2] = diag[:, 2]
    eig = np.linalg.eigvals(gens)
    zero_idx = np.argmin(np.abs(eig), axis=1)
    eig[np.arange(eig.shape[0]), zero_idx] = np.nan
    max_imag = np.nanmax(np.abs(eig.imag), axis=1)
    oracle_monotonic = max_imag < 1e-7

    outside = np.abs(result.disc) >= 1e-9
    agree = bool(np.all(result.monotonic[outside] == oracle_monotonic[outside]))

    # closed-form identity for the discriminant, via l = f-a, m = b-d
    lm_l = 0.5 * (result.u + result.v)
    lm_m = 0.5 * (result.u - result.v)
    alt = (result.omega**2 + 4.0 * result.omega * (lm_l + lm_m)
           + 4.0 * (lm_l**2 + lm_m**2 + lm_l * lm_m))
    identity_err = float(np.max(np.abs(result.disc - alt)
                                / np.maximum(1.0, np.abs(result.disc))))

    zgrid = relaxation.ScanGrid(ranges=(0.0, 1.0), samples=10_000,
                                constrain_omega_zero=True)
    zresult = relaxation.scan(zgrid, seed=106)
    all_monotonic = bool(zresult.monotonic.all())

    ok = agree and identity_err < 1e-9 and all_monotonic
    report(5, "classifier vs eigenvalues, 1e5 samples", ok,
           f"agree={agree}, disc identity err {identity_err:.2e}, "
           f"omega=0 monotone fraction {zresult.monotonic.mean():.4f}")


def test_criterion_06_oscillation_witness():
    # one-directional cycle at unit rate
    cyc = relaxation.ThreeStateRates(1, 0, 0, 1, 1, 0)
    _, _, roots = relaxation.secular(cyc)
    expected = (-3.0 + 1j * math.sqrt(3.0)) / 2.0
    root_err = max(abs(roots[0] - expected), abs(roots[1] - expected.conjugate()))

    tm = cyc.to_transition_matrix()
    gen = pme.build_generator(tm)
    traj = dynamics.integrate(lambda y: gen @ y, np.array([1.0, 0.0, 0.0]),
                              20.0, 5e-3)
    flags = dynamics.monotonicity_witness(traj, pme.stationary_state(tm).p)
    non_monotone = not all(flags)

    _, _, flat_roots = relaxation.secular((1, 1, 1, 1, 1, 1))
    repeated = max(abs(flat_roots[0] + 3.0), abs(flat_roots[1] + 3.0))

    ok = root_err < 1e-10 and non_monotone and repeated < 1e-10
    report(6, "oscillation witness for the unit cycle", ok,
           f"root err {root_err:.2e}, witness flags {flags}, "
           f"repeated-root err {repeated:.2e}")


def test_criterion_07_lindblad_gradient_identity():
    rng = np.random.default_rng(107)
    worst_flow = 0.0
    worst_fd = 0.0
    for _ in range(100):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        p = ball_point(rng)
        ch = lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b),))
        grad = lb.gradient_rhs(ch, p)
        worst_flow = max(worst_flow,
                         float(np.max(np.abs(lb.bloch_rhs(ch, p) - grad))))
        step = 1e-5
        for i in range(3):
            up, dn = p.copy(), p.copy()
            up[i] += step
            dn[i] -= step
            fd = (lb.bloch_entropy(ch, up) - lb.bloch_entropy(ch, dn)) / (2 * step)
            worst_fd = max(worst_fd, abs(fd - grad[i]))

    worst_pure = 0.0
    for _ in range(10):
        a = rng.standard_normal(3)
        b = np.cross(a, rng.standard_normal(3))
        b *= np.linalg.norm(a) / np.linalg.norm(b)
        ch = lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b),))
        worst_pure = max(worst_pure,
                         abs(np.linalg.norm(lb.stationary_bloch(ch)) - 1.0))

    ok = worst_flow < 1e-12 and worst_fd < 1e-6 and worst_pure < 1e-12
    report(7, "dissipator flow is the entropy gradient", ok,
           f"flow err {worst_flow:.2e}, fd err {worst_fd:.2e}, "
           f"|P_st|-1 err {worst_pure:.2e}")


def test_criterion_08_six_variable_embedding():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        p = ball_point(rng)
        ch = lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b),))
        grad = lb.gradient_rhs(ch, p)
        six = lb.qt_six_rhs(ch, lb.embed_six(p))
        worst = max(worst, float(np.max(np.abs(lb.extract_bloch(six) - grad))))
    report(8, "six-variable contraction equals gradient flow (tol 1e-10)",
           worst < 1e-10, f"max err {worst:.2e} over 100 inputs")


def test_criterion_09_composite_coupling():
    rng = np.random.default_rng(109)
    worst_id = 0.0
    worst_flow = 0.0
    worst_grad_sum = 0.0
    min_q = math.inf
    for _ in range(25):
        a, c = rng.uniform(0.2, 4.0, 2)
        system = cp.CompositeSystem.with_lambda_star(a, c)
        lhs = a * c * system.lam / 8.0
        rhs = (a + c) / 2.0
        worst_id = max(worst_id, abs(lhs - rhs) / rhs)
        gen = cp.composite_generator(system)
        for _ in range(4):
            w = rng.dirichlet(np.ones(4))
            worst_flow = max(worst_flow,
                             float(np.max(np.abs(cp.qt_flow(system, w) - gen @ w))))
            worst_grad_sum = max(worst_grad_sum,
                                 abs(float(cp.entropy_gradient(system, w).sum())))
        min_q = min(min_q, cp.q_parameter(system))
    ok = (worst_id < 1e-14 and worst_flow < 1e-10
          and worst_grad_sum < 1e-13 and min_q > 1.0)
    report(9, "composite coupling reproduces the generator", ok,
           f"coupling identity err {worst_id:.1e}, flow err {worst_flow:.2e}, "
           f"grad sum {worst_grad_sum:.1e}, min q {min_q:.3f}")


def per_row(entropy):
    """Rows monitor for integrate from an entropy of one state."""
    return lambda rows: [entropy(y) for y in rows]


def test_criterion_10_conservation_and_entropy_production():
    rng = np.random.default_rng(110)
    runs = []

    # represented master-equation flows, one fit per size
    for n in (2, 3, 4, 5):
        w = random_chain(n, rng)
        rep = qtfit.fit(w)
        mat = qtfit.flow_matrix(rep)
        p0 = rng.dirichlet(np.ones(n))
        runs.append((
            f"qt flow n={n}",
            dynamics.integrate(lambda y, m=mat: m @ y, p0, 5.0, 1e-3,
                               entropy=per_row(rep.entropy.value)),
            5.0,
        ))

    # the oscillatory cycle, fitted and integrated
    cyc = relaxation.ThreeStateRates(1, 0, 0, 1, 1, 0).to_transition_matrix()
    rep = qtfit.fit(cyc)
    mat = qtfit.flow_matrix(rep)
    runs.append((
        "qt flow cycle",
        dynamics.integrate(lambda y: mat @ y, np.array([1.0, 0.0, 0.0]),
                           8.0, 1e-3, entropy=per_row(rep.entropy.value)),
        8.0,
    ))

    # six-variable dissipator flows
    for seed in (1, 2, 3):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal(3)
        b = gen.standard_normal(3)
        ch = lb.LindbladChannel(h=np.zeros(3), dissipators=((a, b),))
        y0 = lb.embed_six(ball_point(gen, radius=0.8))
        runs.append((
            f"six-variable channel {seed}",
            dynamics.integrate(
                lambda y, ch=ch: lb.qt_six_rhs(ch, y),
                y0, 4.0, 2e-3,
                entropy=per_row(lambda y, ch=ch: lb.bloch_entropy(ch, lb.extract_bloch(y))),
            ),
            4.0,
        ))

    # composite flows at the gradient coupling
    for a, c in ((1.0, 1.0), (2.0, 0.5)):
        system = cp.CompositeSystem.with_lambda_star(a, c)
        runs.append((
            f"composite a={a} c={c}",
            dynamics.integrate(
                lambda w, s=system: cp.qt_flow(s, w),
                rng.dirichlet(np.ones(4)), 4.0, 2e-3,
                entropy=per_row(lambda w, s=system: cp.composite_entropy(s, w)),
            ),
            4.0,
        ))

    worst_drift = 0.0
    worst_delta = 0.0
    for label, traj, t_end in runs:
        drift = float(traj.sum_drift.max()) / max(1.0, t_end)
        delta = float(traj.entropy_delta.min())
        worst_drift = max(worst_drift, drift)
        worst_delta = min(worst_delta, delta)
        assert drift < 1e-12, f"{label}: drift {drift:.2e} per unit time"
        assert delta > -1e-9, f"{label}: entropy step {delta:.2e}"
    report(10, "conservation and entropy production over all flows",
           worst_drift < 1e-12 and worst_delta > -1e-9,
           f"{len(runs)} flows, max drift/time {worst_drift:.2e}, "
           f"min entropy step {worst_delta:.2e}")
