"""Contraction kernels against brute-force and closed-form oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import literal_six_slot_main_term, signed_permutations
from qtrep import multilinear as ml
from qtrep.errors import InputError, SizeError


class TestLeviCivitaSign:
    # the sign of a permutation is its entry in the kernel's signed table
    def test_identity_is_even(self):
        assert dict((p, s) for s, p in ml._signed_permutations(3))[(0, 1, 2)] == 1.0

    def test_single_swap_is_odd(self):
        assert dict((p, s) for s, p in ml._signed_permutations(3))[(1, 0, 2)] == -1.0


class TestSignedPermutations:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_signs_match_inversion_count(self, n):
        # determinant signs, as floats, equal the inversion-count oracle
        table = ml._signed_permutations(n)
        assert table == signed_permutations(n)
        assert all(type(sign) is float for sign, _ in table)


class TestNormalizer:
    def test_reference_values(self):
        assert ml.normalizer(3) == pytest.approx(1.0 / math.sqrt(3), abs=1e-15)
        # the four-state constant is pinned by 8 * norm**2 = 1
        assert ml.normalizer(4) == pytest.approx(1.0 / math.sqrt(8), abs=1e-15)

    def test_formula(self):
        for n in range(2, 9):
            expected = 1.0 / math.sqrt(n * math.factorial(n - 2))
            assert ml.normalizer(n) == pytest.approx(expected, rel=1e-15)

    def test_too_small_rejected(self):
        with pytest.raises(InputError):
            ml.normalizer(1)

    @pytest.mark.parametrize("call", [
        ml.normalizer, ml.difference_basis,
        lambda n: ml.main_term_bruteforce(np.zeros(1), n),
        lambda n: ml.main_term_closed(np.zeros(1), n),
        lambda n: ml.ham_term(np.zeros(1), (), n),
    ], ids=["normalizer", "difference_basis", "main_term_bruteforce", "main_term_closed",
            "ham_term"])
    def test_size_read_as_a_bounded_integer(self, call):
        with pytest.raises(InputError, match=r"^n must be >= \d, got \d$"):
            call(1)
        for size in (2.0, True, "2"):
            with pytest.raises(InputError, match=r"^n must be an integer, got "):
                call(size)

    def test_largest_float_size(self):
        # n * (n-2)! fits a float up to n = 171; above, an InputError names n
        assert ml.normalizer(171) == 1.0 / math.sqrt(171 * math.factorial(169))
        for n in (172, 200):
            with pytest.raises(InputError, match=rf"^n = {n} is too large"):
                ml.normalizer(n)


class TestSizeCap:
    """One cap, MAX_N, the largest n with n * (n-2)! a finite float,
    checked before anything is computed or allocated."""

    SIZED = {
        "normalizer": ml.normalizer,
        "difference_basis": ml.difference_basis,
        "ham_subsets": ml.ham_subsets,
        "ham_term": lambda n: ml.ham_term(np.zeros(3), (), n),
    }

    def test_cap_is_the_largest_float_size(self):
        assert math.isfinite(float(ml.MAX_N * math.factorial(ml.MAX_N - 2)))
        with pytest.raises(OverflowError):
            float((ml.MAX_N + 1) * math.factorial(ml.MAX_N - 1))

    @pytest.mark.parametrize("name", SIZED)
    @pytest.mark.parametrize("n", [ml.MAX_N + 1, 3 * 10**5, 10**10, 10**400])
    def test_above_the_cap_rejected_first(self, name, n, monkeypatch):
        # No numpy call, factorial or combination runs above the cap.
        monkeypatch.setattr(ml, "np", None)
        monkeypatch.setattr(ml, "math", None)
        monkeypatch.setattr(ml, "itertools", None)
        with pytest.raises(InputError, match=rf"^n = {n} is too large: the size cap is "
                                             rf"MAX_N = {ml.MAX_N}, above which"):
            self.SIZED[name](n)

    def test_at_the_cap(self):
        assert ml.difference_basis(ml.MAX_N).shape == (ml.MAX_N - 1, ml.MAX_N)
        assert ml.normalizer(ml.MAX_N) > 0.0


class TestMainTerm:
    def test_unnormalized_three_state_value(self):
        # raw contraction: (N-2)! * (N g - sum g) = 3*(1,0,0) - 1
        out = ml.main_term_bruteforce(np.array([1.0, 0.0, 0.0]), 3) / ml.normalizer(3) ** 2
        np.testing.assert_allclose(out, [2.0, -1.0, -1.0], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bruteforce_matches_closed_form(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            g = rng.standard_normal(n)
            brute = ml.main_term_bruteforce(g, n)
            closed = ml.main_term_closed(g, n)
            np.testing.assert_allclose(brute, closed, atol=1e-12)

    def test_closed_form_centers(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal(7)
        out = ml.main_term_closed(g, 7)
        assert abs(out.sum()) < 1e-13
        np.testing.assert_allclose(out, g - g.mean(), atol=0)

    def test_shift_invariance(self):
        # adding a multiple of ones to g is pure gauge
        g = np.array([0.3, -1.2, 0.9, 0.05])
        np.testing.assert_allclose(
            ml.main_term_closed(g + 17.0, 4),
            ml.main_term_closed(g, 4),
            atol=1e-12,
        )

    def test_bruteforce_cap(self):
        with pytest.raises(SizeError):
            ml.main_term_bruteforce(np.zeros(9), 9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            ml.main_term_closed(np.zeros(3), 4)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            ml.main_term_closed(np.array([1.0, np.nan, 0.0]), 3)


class TestHamTerm:
    def test_three_state_cross_product(self):
        # n = 3, empty subset: out = ones x g
        g = np.array([1.0, 0.0, 0.0])
        out = ml.ham_term(g, (), 3)
        np.testing.assert_allclose(out, [0.0, 1.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(out, np.cross(np.ones(3), g), atol=1e-14)

    # 9 and 10 lie above MAX_BRUTEFORCE_N: ham_term has no size cap
    @pytest.mark.parametrize("n", [3, 4, 5, 9, 10])
    def test_conserves_sum_and_entropy(self, n):
        rng = np.random.default_rng(200 + n)
        for subset in itertools.combinations(range(n - 1), n - 3):
            g = rng.standard_normal(n)
            out = ml.ham_term(g, subset, n)
            assert abs(out.sum()) < 1e-12
            assert abs(out @ g) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 9, 10])
    def test_matrix_is_antisymmetric(self, n):
        for subset in itertools.combinations(range(n - 1), n - 3):
            cols = [ml.ham_term(np.eye(n)[k], subset, n) for k in range(n)]
            mat = np.column_stack(cols)
            np.testing.assert_allclose(mat, -mat.T, atol=1e-12)

    def test_wrong_subset_size(self):
        with pytest.raises(InputError):
            ml.ham_term(np.zeros(4), (), 4)

    def test_repeated_subset_indices(self):
        with pytest.raises(InputError):
            ml.ham_term(np.zeros(5), (1, 1), 5)

    def test_subset_index_out_of_range(self):
        with pytest.raises(InputError):
            ml.ham_term(np.zeros(4), (3,), 4)

    @pytest.mark.parametrize("subset", [[0.9], [0.0], ["0"], [False]])
    def test_non_integer_index_rejected(self, subset):
        # Indices are integers; a float, string or bool is not truncated.
        with pytest.raises(InputError, match="integer"):
            ml.ham_term(np.ones(4), subset, 4)

    def test_two_states_have_no_ham_terms(self):
        with pytest.raises(InputError):
            ml.ham_term(np.zeros(2), (), 2)


class TestDifferenceBasis:
    def test_shape_and_rows(self):
        basis = ml.difference_basis(4)
        assert basis.shape == (3, 4)
        np.testing.assert_allclose(basis[0], [1, -1, 0, 0])
        np.testing.assert_allclose(basis[2], [0, 0, 1, -1])

    def test_rows_span_tangent_space(self):
        basis = ml.difference_basis(6)
        assert np.linalg.matrix_rank(basis) == 5
        np.testing.assert_allclose(basis.sum(axis=1), 0.0, atol=0)


class TestSixSlotMainTerm:
    # halving is exact, so both pair identities hold bit for bit
    def test_reproduces_difference_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g3 = rng.standard_normal(3)
            out = ml.six_slot_main_term(g3)
            np.testing.assert_array_equal(out[0::2] - out[1::2], g3)

    def test_pair_sums_conserved(self):
        rng = np.random.default_rng(12)
        g3 = rng.standard_normal(3)
        out = ml.six_slot_main_term(g3)
        np.testing.assert_array_equal(out[0::2] + out[1::2], 0.0)

    @pytest.mark.parametrize("pair", range(3))
    def test_bad_pair_sum_rejected(self, pair):
        # the six-slot state is checked by check_six_state, once, before the
        # kernel is formed from its gradient
        p6 = np.full(6, 0.5)
        ml.check_six_state(p6)
        p6[2 * pair] += 1e-6
        with pytest.raises(InputError, match=rf"^pair {pair} must sum to 1, got 1\.000001"):
            ml.check_six_state(p6)

    def test_bad_shapes_rejected(self):
        for g3 in (np.zeros(2), np.zeros(4), [0.0, np.nan, 0.0]):
            with pytest.raises(InputError, match="g3"):
                ml.six_slot_main_term(g3)

    def test_matches_permutation_loops(self):
        # the 720-permutation oracle rounds in its sums; the closed form
        # does not, so they agree to one ulp of the largest component
        rng = np.random.default_rng(13)
        for _ in range(3000):
            g3 = rng.standard_normal(3) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
            got = ml.six_slot_main_term(g3)
            err = np.max(np.abs(got - literal_six_slot_main_term(g3)))
            assert err <= 2.0**-52 * np.max(np.abs(g3))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_main_term_is_tangent_projection(n, seed):
    # idempotency and symmetry of g -> g - mean(g)
    g = np.random.default_rng(seed).standard_normal(n)
    once = ml.main_term_closed(g, n)
    twice = ml.main_term_closed(once, n)
    np.testing.assert_allclose(once, twice, atol=1e-13)
    assert abs(once.sum()) < 1e-12
