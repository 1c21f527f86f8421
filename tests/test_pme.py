import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrep import pme
from qtrep.errors import DegenerateChainError, InputError


def random_rates(n, seed, lo=0.05, hi=1.0):
    rng = np.random.default_rng(seed)
    w = rng.uniform(lo, hi, (n, n))
    np.fill_diagonal(w, 0.0)
    return w


class TestTransitionMatrix:
    def test_diagonal_is_cleared(self):
        tm = pme.TransitionMatrix([[5.0, 1.0], [2.0, 7.0]])
        assert tm.w[0, 0] == 0.0 and tm.w[1, 1] == 0.0
        assert tm.n == 2

    def test_negative_rate_rejected(self):
        with pytest.raises(InputError):
            pme.TransitionMatrix([[0.0, -1.0], [2.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            pme.TransitionMatrix(np.zeros((2, 3)))

    def test_single_state_rejected(self):
        with pytest.raises(InputError):
            pme.TransitionMatrix([[0.0]])

    def test_overflowing_column_sum_rejected(self):
        w = np.full((3, 3), 1e308)
        with pytest.raises(InputError, match="column sums"):
            pme.TransitionMatrix(w)
        # each rate is finite; only a column sum overflows
        w[0, 1] = w[0, 2] = 0.0
        with pytest.raises(InputError, match="column sums"):
            pme.TransitionMatrix(w)
        w[1, 0] = 0.0
        assert pme.TransitionMatrix(w).w[2, 0] == 1e308

    def test_frozen_array(self):
        tm = pme.TransitionMatrix([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            tm.w[0, 1] = 3.0


class TestProbabilityState:
    def test_accepts_simplex_point(self):
        ps = pme.ProbabilityState([0.2, 0.3, 0.5])
        assert ps.n == 3

    def test_rejects_bad_sum(self):
        with pytest.raises(InputError):
            pme.ProbabilityState([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            pme.ProbabilityState([1.1, -0.1])

    def test_tolerates_roundoff_negatives(self):
        ps = pme.ProbabilityState([1.0 + 1e-13, -1e-13])
        assert ps.p[1] == -1e-13


class TestGenerator:
    def test_two_state_example(self):
        gen = pme.build_generator([[0.0, 1.0], [2.0, 0.0]])
        np.testing.assert_allclose(gen, [[-2.0, 1.0], [2.0, -1.0]], atol=0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_column_sums_at_roundoff_floor(self, n):
        w = random_rates(n, seed=n)
        gen = pme.build_generator(w)
        for k in range(n):
            total = math.fsum(gen[:, k].tolist())
            # diagonal entries are the rounded negative of the exact
            # column sum; the residue is at most half an ulp of it
            assert abs(total) <= 2e-16 * max(1.0, w[:, k].sum())

    def test_rhs_matches_generator(self):
        w = random_rates(4, seed=3)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(
            pme.pme_rhs(w, p), pme.build_generator(w) @ p, atol=0
        )

    @pytest.mark.parametrize(
        "p", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [0.5, 0.5], [[0.2, 0.3, 0.5]], "abc"]
    )
    def test_rhs_rejects_bad_state(self, p):
        with pytest.raises(InputError):
            pme.pme_rhs(random_rates(3, seed=1), p)

    def test_rhs_accepts_probability_state(self):
        w = random_rates(3, seed=2)
        ps = pme.ProbabilityState([0.2, 0.3, 0.5])
        assert pme.pme_rhs(w, ps).tobytes() == pme.pme_rhs(w, ps.p).tobytes()
        assert pme.bs_entropy(ps) == pme.bs_entropy(ps.p)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_rhs_conserves_probability(self, seed):
        w = random_rates(4, seed=seed)
        p = np.random.default_rng(seed + 1).dirichlet(np.ones(4))
        assert abs(pme.pme_rhs(w, p).sum()) < 1e-13


class TestStationaryState:
    def test_two_state_closed_form(self):
        # w[0,1] = 2 (rate 2->1), w[1,0] = 1: balance gives (2/3, 1/3)
        st_state = pme.stationary_state([[0.0, 2.0], [1.0, 0.0]])
        np.testing.assert_allclose(st_state.p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_kernel_property(self, n):
        w = random_rates(n, seed=40 + n)
        st_state = pme.stationary_state(w)
        resid = pme.build_generator(w) @ st_state.p
        assert np.max(np.abs(resid)) < 1e-12
        assert abs(st_state.p.sum() - 1.0) < 1e-12

    def test_detailed_balance_ratio(self):
        st_state = pme.stationary_state([[0.0, 2.0], [1.0, 0.0]])
        assert st_state.p[0] / st_state.p[1] == pytest.approx(2.0, rel=1e-12)

    def test_disconnected_chain_rejected(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(DegenerateChainError) as err:
            pme.stationary_state(w)
        assert err.value.kernel_dim == 2

    def test_all_zero_rates_rejected(self):
        with pytest.raises(DegenerateChainError):
            pme.stationary_state(np.zeros((3, 3)))

    @pytest.mark.parametrize("w", [
        # reducible: two closed classes {0, 1} and {2}
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        # irreducible, every rate positive, but 1e-12 is below the threshold
        [[0.0, 1.0, 1e-12], [1.0, 0.0, 1e-12], [1e-12, 1e-12, 0.0]],
    ], ids=["reducible", "stiff-irreducible"])
    def test_kernel_message_names_both_causes(self, w):
        with pytest.raises(DegenerateChainError, match=(
            r"dimension 2 at relative SVD threshold 1e-10, expected 1 "
            r"\(reducible chain, or rates too far apart to resolve\)"
        )) as err:
            pme.stationary_state(w)
        assert err.value.kernel_dim == 2


class TestSpectrum:
    def test_all_to_all_three_state(self):
        # unit rates everywhere: eigenvalues 0, -3, -3
        spec = pme.spectrum(np.ones((3, 3)))
        np.testing.assert_allclose(
            sorted(spec.eigenvalues.real), [-3.0, -3.0, 0.0], atol=1e-10
        )
        np.testing.assert_allclose(spec.eigenvalues.imag, 0.0, atol=1e-10)
        assert spec.zero_mode_index == 0

    def test_cyclic_three_state(self):
        # one-directional cycle: 0 and (-3 +- i sqrt(3))/2
        w = np.zeros((3, 3))
        w[1, 0] = w[2, 1] = w[0, 2] = 1.0
        spec = pme.spectrum(w)
        nonzero = np.delete(spec.eigenvalues, spec.zero_mode_index)
        np.testing.assert_allclose(nonzero.real, [-1.5, -1.5], atol=1e-10)
        np.testing.assert_allclose(
            sorted(nonzero.imag), [-math.sqrt(3) / 2, math.sqrt(3) / 2], atol=1e-10
        )

    def test_sorted_by_real_part(self):
        spec = pme.spectrum(random_rates(5, seed=9))
        assert np.all(np.diff(spec.eigenvalues.real) <= 1e-12)

    def test_zero_mode_present(self):
        spec = pme.spectrum(random_rates(6, seed=10))
        assert abs(spec.eigenvalues[spec.zero_mode_index]) < 1e-10


class TestClassify:
    def test_symmetric_flags(self):
        w = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
        flags = pme.classify_w(w)
        assert flags.symmetric and flags.doubly_stochastic

    def test_cyclic_is_doubly_stochastic_not_symmetric(self):
        w = np.zeros((3, 3))
        w[1, 0] = w[2, 1] = w[0, 2] = 1.0
        flags = pme.classify_w(w)
        assert not flags.symmetric
        assert flags.doubly_stochastic

    def test_generic_is_neither(self):
        flags = pme.classify_w([[0.0, 1.0], [2.0, 0.0]])
        assert not flags.symmetric and not flags.doubly_stochastic

    def test_symmetric_stationary_is_uniform(self):
        w = random_rates(5, seed=77)
        w = 0.5 * (w + w.T)
        st_state = pme.stationary_state(w)
        np.testing.assert_allclose(st_state.p, 0.2, atol=1e-12)


class TestBsEntropy:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_rows_monitor_matches_bs_entropy_bitwise(self, n):
        # Rows with exact zeros take the masked sum, the rest the batched
        # one; both must give bs_entropy's bits.
        rng = np.random.default_rng(n)
        rows = rng.dirichlet(np.ones(n), 400) * 10.0 ** rng.uniform(-3.0, 0.0, (400, n))
        pick = rng.uniform(size=rows.shape)
        rows[pick < 0.05] = 0.0
        rows[(pick >= 0.05) & (pick < 0.08)] = 1.0
        rows[(pick >= 0.08) & (pick < 0.11)] = 5e-324 * rng.integers(1, 2**20)
        rows[(pick >= 0.11) & (pick < 0.13)] = -1e-14
        rows[(pick >= 0.13) & (pick < 0.15)] = 1.0 + 1e-12
        rows[0] = 0.0
        rows[1] = 1.0
        got = pme._bs_entropy_rows(np.clip(rows, 0.0, 1.0))
        want = np.array([pme.bs_entropy(np.clip(row, 0.0, 1.0)) for row in rows])
        assert got.tobytes() == want.tobytes()

    def test_uniform_is_log_n(self):
        assert pme.bs_entropy(np.full(4, 0.25)) == pytest.approx(math.log(4), rel=1e-14)

    def test_pure_state_is_zero(self):
        assert pme.bs_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            pme.bs_entropy([1.5, -0.5])

    @pytest.mark.parametrize(
        "p", [[np.nan, 0.5, 0.5], [np.inf, 0.0], [0.5, -np.inf]])
    def test_non_finite_rejected(self, p):
        with pytest.raises(InputError, match=r"entries in \[0, 1\]"):
            pme.bs_entropy(p)

    @pytest.mark.parametrize("p", [[], [[0.5, 0.5], [0.5, 0.5]], 0.5])
    def test_non_vector_rejected(self, p):
        with pytest.raises(InputError, match="non-empty vector"):
            pme.bs_entropy(p)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_bounds(self, seed):
        p = np.random.default_rng(seed).dirichlet(np.ones(5))
        s = pme.bs_entropy(p)
        assert 0.0 <= s <= math.log(5) + 1e-12
