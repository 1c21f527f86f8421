import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrep import pme, relaxation
from qtrep.errors import InputError

rate_values = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


class TestRates:
    def test_order_of_transition_matrix(self):
        # (a..f) = (w21, w31, w12, w32, w13, w23), w[i,k] = rate k+1 -> i+1
        tm = relaxation.ThreeStateRates(1, 2, 3, 4, 5, 6).to_transition_matrix()
        expected = np.array([[0.0, 3.0, 5.0], [1.0, 0.0, 6.0], [2.0, 4.0, 0.0]])
        np.testing.assert_array_equal(tm.w, expected)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            relaxation.ThreeStateRates(1, -1, 0, 0, 0, 0)


class TestSecular:
    def test_reference_coefficients(self):
        # rates (1..6): xi = 21, eta = 13, constant = 13*8 - 2*5 = 94
        xi, constant, roots = relaxation.secular((1, 2, 3, 4, 5, 6))
        assert xi == 21.0
        assert constant == 94.0
        assert roots[0].real >= roots[1].real

    def test_roots_match_generator_spectrum(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            rates = relaxation.ThreeStateRates(*rng.uniform(0.0, 2.0, 6))
            _, _, roots = relaxation.secular(rates)
            spec = pme.spectrum(rates.to_transition_matrix())
            nonzero = np.delete(spec.eigenvalues, spec.zero_mode_index)
            got = sorted(roots, key=lambda z: (z.real, z.imag))
            want = sorted(nonzero, key=lambda z: (z.real, z.imag))
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-9 * max(1.0, abs(w))

    def test_cyclic_chain_roots(self):
        # unit one-directional cycle: (-3 +- i sqrt(3))/2
        _, _, roots = relaxation.secular((1, 0, 0, 1, 1, 0))
        expected = (-3.0 + 1j * math.sqrt(3.0)) / 2.0
        assert abs(roots[0] - expected) < 1e-12
        assert abs(roots[1] - expected.conjugate()) < 1e-12


class TestClassify:
    def test_reference_report(self):
        rep = relaxation.classify((1, 2, 3, 4, 5, 6))
        assert rep.xi == 21.0
        assert rep.disc == 65.0
        assert rep.omega == -1.0
        assert rep.k == 2.0 and rep.l == 5.0 and rep.m == -2.0
        assert rep.u == 3.0 and rep.v == 7.0
        assert rep.monotonic and not rep.boundary

    def test_cyclic_reference(self):
        rep = relaxation.classify((1, 0, 0, 1, 1, 0))
        assert rep.omega == 3.0
        assert rep.u == -2.0
        assert rep.v == 0.0
        assert rep.disc == -3.0
        assert not rep.monotonic

    def test_disc_identity(self):
        # disc = omega**2 + 4 omega (l+m) + 4 (l**2 + m**2 + l m)
        rng = np.random.default_rng(4)
        for _ in range(50):
            rep = relaxation.classify(rng.uniform(0.0, 3.0, 6))
            alt = (
                rep.omega**2
                + 4.0 * rep.omega * (rep.l + rep.m)
                + 4.0 * (rep.l**2 + rep.m**2 + rep.l * rep.m)
            )
            assert rep.disc == pytest.approx(alt, rel=1e-9, abs=1e-9)

    def test_ellipse_form_of_disc(self):
        # boundary set over (u, v) is the shifted ellipse
        # (sqrt(3) u + 2 omega/sqrt(3))**2 + v**2 = omega**2/3
        rng = np.random.default_rng(5)
        for _ in range(50):
            rep = relaxation.classify(rng.uniform(0.0, 3.0, 6))
            lhs = (math.sqrt(3.0) * rep.u + 2.0 * rep.omega / math.sqrt(3.0)) ** 2
            lhs += rep.v**2 - rep.omega**2 / 3.0
            assert lhs == pytest.approx(rep.disc, rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(rate_values, rate_values, rate_values)
    def test_omega_zero_implies_monotonic(self, a, d, e):
        # choose the reverse group to cancel omega exactly
        rep = relaxation.classify((a, d, e, d, e, a))
        assert rep.omega == pytest.approx(0.0, abs=1e-12)
        # disc = 4(l**2 + m**2 + l m) >= 0 analytically; allow the
        # cancellation floor of xi**2 - 4*constant
        assert rep.disc >= -1e-9 * max(1.0, rep.xi**2)

    def test_classification_against_spectrum(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(200):
            rates = relaxation.ThreeStateRates(*rng.uniform(0.0, 1.0, 6))
            rep = relaxation.classify(rates)
            if rep.boundary:
                continue
            spec = pme.spectrum(rates.to_transition_matrix())
            nonzero = np.delete(spec.eigenvalues, spec.zero_mode_index)
            oscillatory = bool(np.max(np.abs(nonzero.imag)) > 1e-9)
            assert oscillatory == (not rep.monotonic)
            checked += 1
        assert checked > 150


class TestScan:
    def test_signed_zero_and_huge_range_ends(self):
        grid = relaxation.ScanGrid(ranges=(0.0, -0.0), samples=4)
        assert math.copysign(1.0, grid.ranges[0][1]) == 1.0
        np.testing.assert_array_equal(relaxation.scan(grid, seed=1).rates, 0.0)
        with pytest.raises(InputError, match="malformed ranges"):
            relaxation.ScanGrid(ranges=(0.0, 10**400), samples=4)

    def test_deterministic(self):
        grid = relaxation.ScanGrid(ranges=(0.0, 1.0), samples=100)
        r1 = relaxation.scan(grid, seed=9)
        r2 = relaxation.scan(grid, seed=9)
        np.testing.assert_array_equal(r1.rates, r2.rates)
        np.testing.assert_array_equal(r1.monotonic, r2.monotonic)

    def test_matches_classify_rowwise(self):
        grid = relaxation.ScanGrid(ranges=(0.0, 2.0), samples=50)
        result = relaxation.scan(grid, seed=1)
        for i in range(20):
            rep = relaxation.classify(result.rates[i])
            assert result.xi[i] == pytest.approx(rep.xi, rel=1e-12)
            assert result.disc[i] == pytest.approx(rep.disc, rel=1e-12, abs=1e-12)
            assert result.omega[i] == pytest.approx(rep.omega, rel=1e-12, abs=1e-12)
            assert result.u[i] == pytest.approx(rep.u, rel=1e-12, abs=1e-12)
            assert result.v[i] == pytest.approx(rep.v, rel=1e-12, abs=1e-12)
            assert bool(result.monotonic[i]) == rep.monotonic

    def test_omega_zero_constraint(self):
        grid = relaxation.ScanGrid(
            ranges=(0.0, 1.0), samples=500, constrain_omega_zero=True
        )
        result = relaxation.scan(grid, seed=2)
        assert np.max(np.abs(result.omega)) < 1e-12
        assert bool(result.monotonic.all())
        assert result.oscillatory_fraction == 0.0

    def test_per_rate_ranges(self):
        ranges = ((0.0, 1.0), (2.0, 3.0), (0.0, 0.5), (1.0, 1.5), (0.0, 1.0), (4.0, 5.0))
        grid = relaxation.ScanGrid(ranges=ranges, samples=200)
        result = relaxation.scan(grid, seed=3)
        for j, (lo, hi) in enumerate(ranges):
            assert result.rates[:, j].min() >= lo
            assert result.rates[:, j].max() <= hi

    def test_omega_bins_partition(self):
        grid = relaxation.ScanGrid(ranges=(0.0, 1.0), samples=300, bins=7)
        result = relaxation.scan(grid, seed=4)
        bins = result.omega_bins(7)
        assert len(bins) == 7
        assert sum(b["count"] for b in bins) == 300

    def test_bad_ranges_rejected(self):
        with pytest.raises(InputError):
            relaxation.ScanGrid(ranges=((0.0, 1.0), (0.0, 1.0)), samples=10)
        with pytest.raises(InputError):
            relaxation.ScanGrid(ranges=(1.0, 0.5), samples=10)
        with pytest.raises(InputError):
            relaxation.ScanGrid(ranges=(-1.0, 1.0), samples=10)

    def test_bad_samples_rejected(self):
        with pytest.raises(InputError):
            relaxation.ScanGrid(ranges=(0.0, 1.0), samples=0)
