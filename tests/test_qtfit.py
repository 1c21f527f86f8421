"""Representation fitting: closed forms, round trips, conventions."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _closed_form as qr_closed_form
from oracles import cut_pairs_per_call, ham_matrix_det, ham_sum_loop, ham_term_bruteforce
from qtrep import multilinear, pme, qtfit
from qtrep.errors import FitNonConvergenceError, InputError
from qtrep.relaxation import ThreeStateRates


def catalog_term(n, k):
    """Matrix of the k-th catalog term from its closed-form cut pair."""
    a, b, sign = multilinear._catalog_pairs(n)
    return multilinear._wedge_sum(multilinear._cut_vectors(n), (a[k], b[k], sign[k]), 1.0)


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

    @pytest.mark.parametrize("n", [*range(3, 13), 20, 30])
    def test_ham_matrix_matches_determinants(self, n):
        # the wedge of two cut vectors against one determinant per entry:
        # every subset up to n = 12, five seeded ones above
        subsets = qtfit.ham_subsets(n)
        picks = range(len(subsets))
        if n > 12:
            picks = np.random.default_rng(n).choice(len(subsets), size=5, replace=False)
        for k in picks:
            np.testing.assert_array_equal(catalog_term(n, k), ham_matrix_det(n, subsets[k]))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_ham_matrix_matches_ham_term(self, n):
        # the wedge form against the literal permutation sum, column by column
        for index, subset in enumerate(qtfit.ham_subsets(n)):
            oracle = np.column_stack(
                [ham_term_bruteforce(np.eye(n)[k], subset, n) for k in range(n)]
            )
            terms = np.column_stack(
                [multilinear.ham_term(np.eye(n)[k], subset, n) for k in range(n)]
            )
            np.testing.assert_array_equal(catalog_term(n, index), oracle)
            np.testing.assert_array_equal(terms, oracle)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_ham_sum_matches_determinants(self, data):
        # drawn coefficients over the whole catalog: the one antisymmetric
        # matrix on the closed-form pairs adds the terms the determinants give
        n = data.draw(st.integers(min_value=3, max_value=9), label="n")
        subsets = qtfit.ham_subsets(n)
        coeffs = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(subsets),
                                    max_size=len(subsets)), label="coeffs")
        oracle = np.zeros((n, n))
        for coeff, subset in zip(coeffs, subsets):
            oracle += coeff * ham_matrix_det(n, subset)
        tol = 4 * np.finfo(float).eps * n**3 * sum(map(abs, coeffs))
        got = multilinear._wedge_sum(multilinear._cut_vectors(n),
                                     multilinear._catalog_pairs(n), np.array(coeffs))
        np.testing.assert_allclose(got, oracle, rtol=0, atol=tol)
        # the oracle sum the QR-frame fit uses, on the same terms
        np.testing.assert_allclose(ham_sum_loop(n, subsets, coeffs), oracle, rtol=0, atol=tol)

    def test_catalog_pairs_match_set_difference(self):
        # the upper triangle in reverse lex order is, for every n up to the
        # cap, the pairs each catalog subset leaves out, with their signs
        for n in range(2, multilinear.MAX_N + 1):
            got = np.column_stack(multilinear._catalog_pairs(n))
            oracle = np.array(list(cut_pairs_per_call(n, qtfit.ham_subsets(n)))).reshape(-1, 3)
            np.testing.assert_array_equal(got, oracle)

    def test_flow_matrix_of_a_large_representation_stays_small(self):
        # a loaded n = 100 representation: its 4,851 terms fold into one
        # 99 x 99 matrix, not one n x n matrix each
        n = 100
        subsets = qtfit.ham_subsets(n)
        rng = np.random.default_rng(0)
        q = rng.standard_normal((n, n))
        rep = qtfit.QTRepresentation(qtfit.QuadraticEntropy(q + q.T),
                                     rng.standard_normal(len(subsets)),
                                     multilinear.normalizer(n), 0.0)
        tracemalloc.start()
        try:
            qtfit.flow_matrix(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_fewer_than_two_states_rejected(self):
        with pytest.raises(InputError, match=r"^n must be >= 2, got 1$"):
            qtfit.ham_subsets(1)

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

    def test_three_states_rejected(self):
        with pytest.raises(InputError, match=r"^two_state_entropy needs n = 2, got n = 3$"):
            qtfit.two_state_entropy(random_chain(3, seed=2))

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

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 12), st.sampled_from([1, 3, 4, 5]), st.sampled_from([0.0, 0.3, 1.0]),
           st.integers(0, 2**32 - 1))
    def test_matches_the_qr_frame_fit(self, n, classes, zero, seed):
        # The cut-coordinate solve against the earlier QR-frame one, on
        # rates over four decades with some or all of them zero, and on
        # chains split into three to five closed classes, where lstsq
        # returns the minimum-norm r of a singular system.
        rng = np.random.default_rng(seed)
        w = 10.0 ** rng.uniform(-2.0, 2.0, (n, n))
        w[rng.random((n, n)) < zero] = 0.0
        labels = rng.permutation(np.arange(n) % min(classes, n))
        w *= labels[:, None] == labels[None, :]
        np.fill_diagonal(w, 0.0)
        rep = qtfit.fit(w)
        r, q = qr_closed_form(pme.build_generator(w))
        np.testing.assert_allclose(rep.r, r, rtol=0, atol=1e-11 * max(1.0, np.max(np.abs(r))))
        np.testing.assert_allclose(rep.entropy.q, q, rtol=0, atol=1e-11 * np.max(np.abs(q)))

    @pytest.mark.parametrize("n", [10, 12])
    def test_beyond_bruteforce_cap(self, n):
        w = random_chain(n, seed=40 + n)
        rep = qtfit.fit(w)
        assert rep.residual < 1e-8
        np.testing.assert_allclose(
            qtfit.flow_matrix(rep), pme.build_generator(w), rtol=0, atol=1e-8
        )

    def test_wide_rate_sweep(self):
        # Rates spanning twelve decades with 30 % of them zero: the closed
        # form alone holds the residual at roundoff relative to max|L|.
        rng = np.random.default_rng(80)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(3, 13))
            w = 10.0 ** rng.uniform(-6.0, 6.0, (n, n))
            w[rng.random((n, n)) < 0.3] = 0.0
            np.fill_diagonal(w, 0.0)
            rep = qtfit.fit(w)
            gen_max = float(np.max(np.abs(pme.build_generator(w))))
            worst = max(worst, rep.residual / max(1.0, gen_max))
        assert worst <= 1e-13

    @pytest.mark.filterwarnings("error")
    def test_rates_near_the_float_limit(self):
        # The Sylvester operator overflows: out of range, not a misfit.
        with pytest.raises(InputError, match=r"^rate matrix too large to fit: the solve "
                                             r"overflows at max rate 1e\+308$"):
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
        # Shift the fitted coefficient by one: a real misfit, not roundoff.
        solve = qtfit._closed_form

        def shifted_solve(gen):
            # The flow operator the residual is taken from follows the shifted r.
            r, q, _ = solve(gen)
            n, frame = gen.shape[0], qtfit._fit_frame(gen.shape[0])
            r = r + 1.0
            op = qtfit._flow_operator(n, qtfit.normalizer(n), r, frame.cuts, frame.pairs)
            return r, q, op

        monkeypatch.setattr(qtfit, "_closed_form", shifted_solve)
        w = random_chain(3, seed=61)
        tol = qtfit.ACCEPT_TOL * float(np.max(np.abs(pme.build_generator(w))))
        with pytest.raises(FitNonConvergenceError,
                           match=rf"above {tol:.3e} = 1e-08 \* max\(1, max\|L\|\)$") as err:
            qtfit.fit(w)
        assert err.value.residual == err.value.best.residual > 1e-2
        assert err.value.best.n == 3

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_representation_validated_once(self, n, monkeypatch):
        calls = []
        check = qtfit.QTRepresentation.__post_init__

        def counted(rep):
            calls.append(rep.residual)
            check(rep)

        monkeypatch.setattr(qtfit.QTRepresentation, "__post_init__", counted)
        rep = qtfit.fit(random_chain(n, seed=62))
        assert calls == [rep.residual]

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

    @pytest.mark.parametrize("subset", [[0, 0], [1, 4], [1], [-1, 2]])
    def test_bad_subset_rejected(self, subset):
        doc = qtfit.fit(random_chain(5, seed=52)).to_json_dict()
        doc["subsets"][2] = subset
        with pytest.raises(InputError):
            qtfit.QTRepresentation.from_json_dict(doc)

    @pytest.mark.parametrize("change", [
        lambda s: s[::-1], lambda s: s[1:], lambda s: s[:1] + s[1:-1],
        lambda s: s[:2] + s[1:-1], lambda s: s + [[2, 4]], lambda s: s + s[:1],
        lambda s: [t[::-1] for t in s], lambda s: [[*t, 0] for t in s], lambda s: [],
    ], ids=["reordered", "partial", "short", "repeated", "extra", "extra-repeat",
            "reversed-subsets", "longer-subsets", "empty"])
    def test_only_the_catalog_accepted(self, change):
        # A document holds ham_subsets(n), whole and in order; any other
        # list is refused with one message, however many coefficients come with it.
        doc = qtfit.fit(random_chain(5, seed=52)).to_json_dict()
        subsets = change(doc["subsets"])
        message = (r"^subsets must be ham_subsets\(5\): every size-\(n-3\) subset of "
                   r"0\.\.n-2 once, in lex order$")
        for r in (doc["r"], [0.5] * len(subsets)):
            with pytest.raises(InputError, match=message):
                qtfit.QTRepresentation.from_json_dict({**doc, "subsets": subsets, "r": r})

    def test_catalog_stored_as_tuples(self):
        # lists and numpy integers read as the catalog, stored as its tuple
        doc = qtfit.fit(random_chain(5, seed=52)).to_json_dict()
        subsets = [np.array(s, dtype=np.int32) for s in doc["subsets"]]
        rep = qtfit.QTRepresentation.from_json_dict({**doc, "subsets": subsets})
        assert rep.subsets == qtfit.ham_subsets(5)
        assert all(type(i) is int for s in rep.subsets for i in s)

    def test_catalog_derived_from_n(self):
        # The constructor takes no catalog: subsets is ham_subsets(n), defined
        # once, in multilinear, and read-only.
        assert [f.name for f in dataclasses.fields(qtfit.QTRepresentation)] == [
            "entropy", "r", "norm", "residual"]
        assert qtfit.ham_subsets is multilinear.ham_subsets
        for n in range(2, 8):
            rep = qtfit.fit(random_chain(n, seed=n))
            assert rep.subsets == multilinear.ham_subsets(n)
            with pytest.raises(dataclasses.FrozenInstanceError):
                rep.subsets = ()

    @pytest.mark.parametrize("n, r, message", [
        (4, [0.5, 0.5], r"^got 2 coefficients for 3 subsets$"),
        (3, [], r"^got 0 coefficients for 1 subsets$"),
        (2, [0.5], r"^got 1 coefficients for 0 subsets$"),
        (1, [], r"^n must be >= 2, got 1$"),
        (multilinear.MAX_N + 1, [], rf"^n = {multilinear.MAX_N + 1} is too large"),
    ])
    def test_coefficient_count_checked(self, n, r, message):
        # One coefficient per catalog term, under the catalog's size cap.
        with pytest.raises(InputError, match=message):
            qtfit.QTRepresentation(qtfit.QuadraticEntropy(np.zeros((n, n))), r, 1.0, 0.0)

    @pytest.mark.parametrize("key, value", [
        ("n", 4.0), ("n", 4.9), ("n", "4"), ("n", True),
        ("subsets", [[0.9], [1.2], [2.5]]), ("subsets", [[0.0], [1], [2]]),
        ("subsets", [["0"], [1], [2]]), ("subsets", [[False], [1], [2]]),
    ])
    def test_non_integer_index_rejected(self, key, value):
        # Indices are integers; a float, string or bool is not truncated.
        doc = qtfit.fit(random_chain(4, seed=54)).to_json_dict()
        with pytest.raises(InputError, match="integer"):
            qtfit.QTRepresentation.from_json_dict({**doc, key: value})
        if key == "subsets":
            with pytest.raises(InputError, match="integer"):
                multilinear.ham_term(np.ones(4), value[0], 4)

    def test_size_beyond_float_factorial_rejected(self):
        # (n-2)! overflows a float from n = 173: the catalog's size cap
        # rejects the document at load, with an InputError naming n
        n = 173
        doc = {"n": n, "q": np.zeros((n, n)).tolist(), "r": [], "subsets": [],
               "norm": 1e-150, "residual": 0.0}
        with pytest.raises(InputError, match=rf"^n = {n} is too large"):
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
                entropy=rep.entropy, r=rep.r,
                **{"norm": rep.norm, "residual": rep.residual, key: value},
            )
