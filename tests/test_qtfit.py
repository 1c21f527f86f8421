"""Representation fitting: closed forms, round trips, conventions."""

import math

import numpy as np
import pytest

from oracles import ham_term_bruteforce
from qtrep import multilinear, pme, qtfit
from qtrep.errors import FitNonConvergenceError, InputError
from qtrep.relaxation import ThreeStateRates


def random_chain(n, seed, lo=0.05, hi=1.0):
    rng = np.random.default_rng(seed)
    w = rng.uniform(lo, hi, (n, n))
    np.fill_diagonal(w, 0.0)
    return pme.TransitionMatrix(w)


class TestQuadraticEntropy:
    def test_value_and_gradient(self):
        q = np.array([[2.0, 1.0], [1.0, 3.0]])
        ent = qtfit.QuadraticEntropy(q)
        p = np.array([0.4, 0.6])
        assert ent.value(p) == pytest.approx(0.5 * p @ q @ p, rel=1e-14)
        np.testing.assert_allclose(ent.gradient(p), q @ p, atol=0)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            qtfit.QuadraticEntropy(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_symmetrized_roundoff_accepted(self):
        q = np.array([[1.0, 2.0], [2.0 + 1e-16, 1.0]])
        assert qtfit.QuadraticEntropy(q).n == 2


class TestCatalog:
    def test_subset_counts(self):
        # (n-1 choose n-3) terms, matching (n-1)(n-2)/2
        assert qtfit.ham_subsets(2) == ()
        assert qtfit.ham_subsets(3) == ((),)
        assert len(qtfit.ham_subsets(4)) == 3
        assert len(qtfit.ham_subsets(5)) == 6
        assert len(qtfit.ham_subsets(6)) == 10

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_ham_matrix_matches_ham_term(self, n):
        # the determinants against the literal permutation sum, column by column
        assert qtfit._ham_matrix is multilinear._ham_matrix
        for subset in qtfit.ham_subsets(n):
            oracle = np.column_stack(
                [ham_term_bruteforce(np.eye(n)[k], subset, n) for k in range(n)]
            )
            terms = np.column_stack(
                [multilinear.ham_term(np.eye(n)[k], subset, n) for k in range(n)]
            )
            np.testing.assert_array_equal(multilinear._ham_matrix(n, subset), oracle)
            np.testing.assert_array_equal(terms, oracle)

    def test_parameter_count_matches_generator_dof(self):
        for n in range(2, 7):
            q_dof = n * (n + 1) // 2 - 1
            assert q_dof + len(qtfit.ham_subsets(n)) == n * (n - 1)


class TestTwoState:
    def test_entropy_matrix(self):
        w = pme.TransitionMatrix([[0.0, 1.0], [2.0, 0.0]])
        ent = qtfit.two_state_entropy(w)
        # cross assignment: rate 1->2 sits on the p1 slot
        np.testing.assert_allclose(ent.q, np.diag([-2.0, -1.0]), atol=0)

    def test_flow_is_exact(self):
        w = random_chain(2, seed=0)
        rep = qtfit.fit(w)
        assert rep.norm == 1.0
        assert rep.r.size == 0
        assert rep.residual < 1e-14
        p = np.array([0.3, 0.7])
        np.testing.assert_allclose(
            qtfit.qt_rhs(rep, p), pme.pme_rhs(w, p), atol=1e-14
        )

    def test_entropy_increases_along_flow(self):
        w = random_chain(2, seed=1)
        rep = qtfit.fit(w)
        p = np.array([0.9, 0.1])
        production = rep.entropy.gradient(p) @ qtfit.qt_rhs(rep, p)
        assert production >= -1e-15


class TestThreeStateClosedForm:
    def test_kappa_reference(self):
        # a+d+e = 3, b+c+f = 0: fully one-directional, kappa = 0, |r| = 1
        kappa, r = qtfit.three_state_kappa_r((1, 0, 0, 1, 1, 0))
        assert kappa == 0.0
        assert r == 1.0

    def test_balanced_chain_has_zero_r(self):
        kappa, r = qtfit.three_state_kappa_r((1, 1, 1, 1, 1, 1))
        assert kappa == 1.0
        assert r == 0.0

    def test_reverse_direction_limit(self):
        kappa, r = qtfit.three_state_kappa_r((0, 1, 1, 0, 0, 1))
        assert kappa == math.inf
        assert r == -1.0

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            qtfit.three_state_kappa_r((0, 0, 0, 0, 0, 0))

    def test_accepts_rate_object(self):
        rates = ThreeStateRates(1, 2, 3, 4, 5, 6)
        kappa, _ = qtfit.three_state_kappa_r(rates)
        assert kappa == pytest.approx(11.0 / 10.0, rel=1e-15)

    def test_fitted_r_is_negated_closed_form(self):
        # orientation convention: fit() returns -(1-kappa)/(1+kappa),
        # equal to -omega/xi
        for rates in [(1, 2, 3, 4, 5, 6), (2, 1, 1, 2, 2, 1), (0.3, 0.7, 0.2, 0.9, 1.1, 0.5)]:
            w = ThreeStateRates(*rates).to_transition_matrix()
            rep = qtfit.fit(w)
            _, r_formula = qtfit.three_state_kappa_r(rates)
            assert rep.r[0] == pytest.approx(-r_formula, abs=1e-10)
            omega = (rates[0] + rates[3] + rates[4]) - (rates[1] + rates[2] + rates[5])
            assert rep.r[0] == pytest.approx(-omega / sum(rates), abs=1e-10)


class TestFitRoundTrip:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_flow_matches_target(self, n):
        for trial in range(3):
            w = random_chain(n, seed=1000 * n + trial)
            rep = qtfit.fit(w)
            assert rep.residual < 1e-8
            rng = np.random.default_rng(trial)
            for _ in range(5):
                p = rng.dirichlet(np.ones(n))
                np.testing.assert_allclose(
                    qtfit.qt_rhs(rep, p), pme.pme_rhs(w, p), atol=1e-8
                )

    @pytest.mark.parametrize(
        "p", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [0.5, 0.5], [[0.2, 0.3, 0.5]], "abc"]
    )
    def test_bad_state_rejected(self, p):
        rep = qtfit.fit(random_chain(3, seed=4))
        for evaluate in (lambda p: qtfit.qt_rhs(rep, p), rep.entropy.value,
                         rep.entropy.gradient):
            with pytest.raises(InputError):
                evaluate(p)

    def test_probability_state_accepted(self):
        rep = qtfit.fit(random_chain(3, seed=4))
        ps = pme.ProbabilityState([0.2, 0.3, 0.5])
        assert qtfit.qt_rhs(rep, ps).tobytes() == qtfit.qt_rhs(rep, ps.p).tobytes()
        assert rep.entropy.value(ps) == rep.entropy.value(ps.p)
        assert rep.entropy.gradient(ps).tobytes() == rep.entropy.gradient(ps.p).tobytes()

    def test_flow_matrix_agrees_with_rhs(self):
        w = random_chain(4, seed=5)
        rep = qtfit.fit(w)
        mat = qtfit.flow_matrix(rep)
        p = np.random.default_rng(6).dirichlet(np.ones(4))
        np.testing.assert_allclose(mat @ p, qtfit.qt_rhs(rep, p), atol=1e-12)

    def test_gauge_invariance_of_flow(self):
        # q and q + k*ones generate the same flow on the simplex
        w = random_chain(3, seed=8)
        rep = qtfit.fit(w)
        shifted = qtfit.QTRepresentation(
            entropy=qtfit.QuadraticEntropy(rep.entropy.q + 5.0),
            r=rep.r,
            subsets=rep.subsets,
            norm=rep.norm,
            residual=rep.residual,
        )
        p = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(
            qtfit.qt_rhs(shifted, p), qtfit.qt_rhs(rep, p), atol=1e-12
        )

    def test_seed_free_and_deterministic(self):
        w = random_chain(4, seed=21)
        with pytest.raises(TypeError):
            qtfit.fit(w, seed=3)
        rep1 = qtfit.fit(w)
        rep2 = qtfit.fit(w)
        np.testing.assert_array_equal(rep1.entropy.q, rep2.entropy.q)
        np.testing.assert_array_equal(rep1.r, rep2.r)
        assert rep1.residual == rep2.residual

    @pytest.mark.parametrize("w", [
        np.zeros((4, 4)),
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]],
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    ])
    def test_reducible_chains(self, w):
        rep = qtfit.fit(w)
        assert rep.residual < 1e-8
        np.testing.assert_allclose(
            qtfit.flow_matrix(rep), pme.build_generator(pme.TransitionMatrix(w)),
            rtol=0, atol=1e-8,
        )

    @pytest.mark.parametrize("n", [10, 12])
    def test_beyond_bruteforce_cap(self, n):
        w = random_chain(n, seed=40 + n)
        rep = qtfit.fit(w)
        assert rep.residual < 1e-8
        np.testing.assert_allclose(
            qtfit.flow_matrix(rep), pme.build_generator(w), rtol=0, atol=1e-8
        )

    @pytest.mark.filterwarnings("error")
    def test_rates_near_the_float_limit(self):
        # The Sylvester operator overflows: out of range, not a misfit.
        with pytest.raises(InputError, match="rate matrix too large to fit: overflow"):
            qtfit.fit([[0, 3, 5], [1, 0, 1e308], [2, 4, 0]])
        # Rates of 1e300 solve; their roundoff tops 1e-8 in absolute terms
        # but not relative to max|L| = 2e300.
        w = np.full((3, 3), 1e300)
        np.fill_diagonal(w, 0.0)
        rep = qtfit.fit(w)
        assert math.isfinite(rep.residual)
        assert qtfit.ACCEPT_TOL < rep.residual <= qtfit.ACCEPT_TOL * 2e300

    @pytest.mark.parametrize("scale", [1.0, 1e9, 1e300])
    def test_tolerance_is_relative_to_the_generator(self, scale):
        # Scaling every rate scales the flow: the fit stays accepted and
        # its residual, the absolute mismatch, scales along.
        w = random_chain(4, seed=60).w * scale
        rep = qtfit.fit(w)
        gen_max = float(np.max(np.abs(pme.build_generator(w))))
        assert rep.residual <= qtfit.ACCEPT_TOL * max(1.0, gen_max)
        assert rep.residual <= 1e-13 * gen_max

    def test_misfit_raises_with_the_representation(self, monkeypatch):
        # Shift the corrected coefficient by one: a real misfit, not roundoff.
        step = qtfit._gauss_newton_step

        def shifted_step(gen, r, q):
            r, q = step(gen, r, q)
            return r + 1.0, q

        monkeypatch.setattr(qtfit, "_gauss_newton_step", shifted_step)
        w = random_chain(3, seed=61)
        tol = qtfit.ACCEPT_TOL * float(np.max(np.abs(pme.build_generator(w))))
        with pytest.raises(FitNonConvergenceError,
                           match=rf"above {tol:.3e} = 1e-08 \* max\(1, max\|L\|\)$") as err:
            qtfit.fit(w)
        assert err.value.residual == err.value.best.residual > 1e-2
        assert err.value.best.n == 3

    def test_entropy_production_nonnegative(self):
        # main term produces sum of squares, ham terms conserve entropy
        w = random_chain(4, seed=30)
        rep = qtfit.fit(w)
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            g = rep.entropy.gradient(p)
            assert g @ qtfit.qt_rhs(rep, p) >= -1e-12


class TestSerialization:
    def test_json_round_trip(self):
        w = random_chain(4, seed=50)
        rep = qtfit.fit(w)
        doc = rep.to_json_dict()
        back = qtfit.QTRepresentation.from_json_dict(doc)
        np.testing.assert_array_equal(back.entropy.q, rep.entropy.q)
        np.testing.assert_array_equal(back.r, rep.r)
        assert back.subsets == rep.subsets
        assert back.norm == rep.norm

    def test_inconsistent_document_rejected(self):
        w = random_chain(3, seed=51)
        doc = qtfit.fit(w).to_json_dict()
        doc["n"] = 4
        with pytest.raises(InputError):
            qtfit.QTRepresentation.from_json_dict(doc)

    @pytest.mark.parametrize("subset", [[0, 0], [1, 4], [1]])
    def test_bad_subset_rejected(self, subset):
        doc = qtfit.fit(random_chain(5, seed=52)).to_json_dict()
        doc["subsets"][2] = subset
        with pytest.raises(InputError):
            qtfit.QTRepresentation.from_json_dict(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(InputError):
            qtfit.QTRepresentation.from_json_dict({"n": 3})

    @pytest.mark.parametrize("key, value", [
        ("norm", math.nan), ("norm", math.inf), ("norm", 0.0), ("norm", -1.0), ("norm", "x"),
        ("residual", math.nan), ("residual", math.inf), ("residual", -1.0), ("residual", "x"),
    ])
    def test_bad_norm_or_residual_rejected(self, key, value):
        doc = qtfit.fit(random_chain(3, seed=53)).to_json_dict()
        with pytest.raises(InputError, match=key):
            qtfit.QTRepresentation.from_json_dict({**doc, key: value})
        rep = qtfit.QTRepresentation.from_json_dict(doc)
        with pytest.raises(InputError, match=key):
            qtfit.QTRepresentation(
                entropy=rep.entropy, r=rep.r, subsets=rep.subsets,
                **{"norm": rep.norm, "residual": rep.residual, key: value},
            )
