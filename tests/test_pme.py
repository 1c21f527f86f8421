import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
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

    def test_array_copy_is_writable_and_unaliased(self):
        ps = pme.ProbabilityState([0.25, 0.75])
        copy = np.array(ps, copy=True)
        copy[0] = 1.0
        assert ps.p.tolist() == [0.25, 0.75]
        assert np.asarray(ps) is not copy and not np.shares_memory(copy, ps.p)


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

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_rhs_conserves_probability(self, seed):
        w = random_rates(4, seed=seed)
        p = np.random.default_rng(seed + 1).dirichlet(np.ones(4))
        assert abs((pme.build_generator(w) @ p).sum()) < 1e-13


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
        with pytest.raises(DegenerateChainError) as err:
            pme.stationary_state(np.zeros((3, 3)))
        assert err.value.kernel_dim == 3

    def test_reducible_chain_message(self):
        # two closed classes, {0, 1} and {2}
        w = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(DegenerateChainError, match=(
            r"^no unique stationary state: 2 closed classes$"
        )) as err:
            pme.stationary_state(w)
        assert err.value.kernel_dim == 2

    def test_stiff_irreducible_chain_solved_exactly(self):
        # Symmetric rates 12 decades apart: uniform, not degenerate.
        w = [[0.0, 1.0, 1e-12], [1.0, 0.0, 1e-12], [1e-12, 1e-12, 0.0]]
        assert pme.stationary_state(w).p.tolist() == [1.0 / 3.0] * 3

    @pytest.mark.parametrize("up, down", [
        ([1.0, 1e-3, 1e-6, 1e-9, 1e-12], [1.0] * 5),  # entries down to 5.0e-31
        ([1e-8] * 5, [1e8] * 5),
        ([3e5, 1e-7, 2.5, 1e10, 7e-3], [1e-9, 4.0, 1e12, 0.3, 1e-5]),
        ([1e150, 1e150], [1e-150, 1e-150]),
        ([1e-200] * 3, [1.0] * 3),
    ])
    def test_birth_death_closed_form(self, up, down):
        # p[k+1] / p[k] = up[k] / down[k], evaluated in exact rationals.
        n = len(up) + 1
        w = np.zeros((n, n))
        exact = [Fraction(1)]
        for k, (u, d) in enumerate(zip(up, down)):
            w[k + 1, k], w[k, k + 1] = u, d
            exact.append(exact[-1] * Fraction(u) / Fraction(d))
        expected = np.array([float(x / sum(exact)) for x in exact])
        p = pme.stationary_state(w).p
        np.testing.assert_allclose(p, expected, rtol=4 * n * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("w, expected", [
        # 0 -> 1 -> 2, 2 absorbing
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [0.0, 0.0, 1.0]),
        # transient 0 and 1 feed the closed class {2, 3}, where p2 / p3 = 3
        ([[0, 0, 0, 0], [2, 0, 0, 0], [5, 1, 0, 3], [0, 7, 1, 0]], [0.0, 0.0, 0.75, 0.25]),
    ])
    def test_transient_states_exactly_zero(self, w, expected):
        assert pme.stationary_state(w).p.tolist() == expected

    @pytest.mark.parametrize("w, classes", [
        # transient 0 feeds the classes {1, 2} and {3}
        ([[0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], 2),
        # transient 3 feeds {0}, {1} and {2}; 4 leads to 3
        ([[0, 0, 0, 1, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1],
          [0, 0, 0, 0, 0]], 3),
    ])
    def test_kernel_dim_is_closed_class_count(self, w, classes):
        with pytest.raises(DegenerateChainError) as err:
            pme.stationary_state(w)
        assert err.value.kernel_dim == classes
        svals = np.linalg.svd(pme.build_generator(w), compute_uv=False)
        assert np.sum(svals < 1e-12 * svals[0]) == classes

    @pytest.mark.parametrize("w, expected", [
        # p0 / p1 = 1e-310 overflows as p1 / p0: 5e-311 is subnormal
        ([[0, 1e-10, 0], [1e300, 0, 1], [0, 1, 0]], [5e-311, 0.5, 0.5]),
        # p0 / p1 = 1e-600 underflows to 0
        ([[0, 1e-300, 0], [1e300, 0, 1], [0, 1, 0]], [0.0, 0.5, 0.5]),
        # p2 = p1 * 1e-200 / 1e-300, where p1 * 1e-200 is below the float range
        ([[0, 1, 1e-300], [1e-200, 0, 0], [0, 1e-200, 0]], [1.0, 1e-200, 1e-100]),
        # 2 leaves for 0 with probability 1e-400, below the float range, yet
        # the path 1 -> 2 -> 0 carries nearly all of the flow from 1 to 0
        ([[0, 1e-300, 1e-200], [1e-200, 0, 1e200], [1e-200, 1e200, 0]], [0.2, 0.4, 0.4]),
        # 1 leaves only through 3, so the censored rates out of 1 are near
        # 1e-600, below the float range, yet they carry a third of the mass
        ([[0, 0, 1e-100, 1], [0, 0, 0, 1e300], [1e200, 0, 0, 1], [1e-300, 1e-300, 0, 0]],
         [2e-300 / 3, 1 / 3, 2 / 3, 0.0]),
    ])
    def test_rates_beyond_float_range(self, w, expected):
        np.testing.assert_allclose(pme.stationary_state(w).p, expected, rtol=1e-15, atol=0.0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_svd_where_gap_is_separated(self, n, seed):
        rng = np.random.default_rng(seed)
        w = np.exp(rng.uniform(-3.0, 3.0, (n, n))) * (rng.random((n, n)) < 0.7)
        np.fill_diagonal(w, 0.0)
        _, svals, vt = np.linalg.svd(pme.build_generator(w))
        try:
            p, dim = pme.stationary_state(w).p, 1
        except DegenerateChainError as err:
            p, dim = None, err.kernel_dim
        assert np.all(svals[n - dim:] <= 1e-12 * svals[0])
        assume(dim < n and svals[n - dim - 1] > 1e-6 * svals[0])
        if p is not None:
            oracle = vt[-1] / vt[-1].sum()
            tol = 1e-14 * svals[0] / svals[-2]
            np.testing.assert_allclose(p, oracle, rtol=0.0, atol=tol)


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
    def test_accepts_probability_state(self):
        ps = pme.ProbabilityState([0.2, 0.3, 0.5])
        assert pme.bs_entropy(ps) == pme.bs_entropy(ps.p)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_rows_monitor_matches_bs_entropy_bitwise(self, n):
        # Rows with exact zeros take the masked sum, the rest the batched
        # one; both must give the bits of the masked sum over one row,
        # and so must each row passed alone.
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
        want = []
        for row in np.clip(rows, 0.0, 1.0):
            kept = row[row > 0.0]
            want.append(float(-(kept * np.log(kept)).sum()))
        want = np.array(want)
        got = pme.bs_entropy(rows)
        assert got.shape == (400,)
        assert got.tobytes() == want.tobytes()
        one_by_one = np.array([pme.bs_entropy(row) for row in rows])
        assert one_by_one.tobytes() == want.tobytes()

    def test_stack_gives_one_value_per_row(self):
        got = pme.bs_entropy([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert got.tolist() == [pme.bs_entropy(row)
                                for row in ([0.5, 0.5], [1.0, 0.0], [0.25, 0.75])]
        assert isinstance(pme.bs_entropy([0.5, 0.5]), float)

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

    @pytest.mark.parametrize("p", [[], np.full((2, 2, 2), 0.25), 0.5, np.empty((0, 3))])
    def test_non_vector_rejected(self, p):
        with pytest.raises(InputError, match="non-empty vector"):
            pme.bs_entropy(p)

    @pytest.mark.parametrize("p", [
        [0.5, [0.5]], [[0.5, 0.5], [1.0]],
        ["0.5", "0.5"], [["0.5", "0.5"], ["1", "0"]],
        [np.nan, 1.0], [[0.5, 0.5], [np.nan, 1.0]],
    ], ids=["ragged", "ragged-rows", "strings", "string-rows", "nan", "nan-rows"])
    def test_ragged_string_and_nan_rejected(self, p):
        with pytest.raises(InputError, match=r"entries in \[0, 1\]"):
            pme.bs_entropy(p)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_bounds(self, seed):
        p = np.random.default_rng(seed).dirichlet(np.ones(5))
        s = pme.bs_entropy(p)
        assert 0.0 <= s <= math.log(5) + 1e-12
