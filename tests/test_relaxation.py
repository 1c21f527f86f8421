import dataclasses
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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
        with pytest.raises(InputError, match="ranges must be a numeric 2-vector or 6x2 matrix"):
            relaxation.ScanGrid(ranges=(0.0, 10**400), samples=4)

    def test_grid_must_be_a_scan_grid(self):
        with pytest.raises(InputError, match=r"^grid must be a ScanGrid, got dict$"):
            relaxation.scan({"ranges": (0.0, 1.0), "samples": 4})

    def test_deterministic(self):
        grid = relaxation.ScanGrid(ranges=(0.0, 1.0), samples=100)
        r1 = relaxation.scan(grid, seed=9)
        r2 = relaxation.scan(grid, seed=9)
        np.testing.assert_array_equal(r1.rates, r2.rates)
        np.testing.assert_array_equal(r1.monotonic, r2.monotonic)

    def test_matches_classify_rowwise(self):
        # One kernel serves both paths, so the values agree exactly.
        grid = relaxation.ScanGrid(ranges=(0.0, 2.0), samples=50)
        result = relaxation.scan(grid, seed=1)
        for i in range(50):
            rep = relaxation.classify(result.rates[i])
            assert result.xi[i] == rep.xi
            assert result.disc[i] == rep.disc
            assert result.omega[i] == rep.omega
            assert result.u[i] == rep.u
            assert result.v[i] == rep.v
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
        grid = relaxation.ScanGrid(ranges=(0.0, 1.0), samples=300)
        result = relaxation.scan(grid, seed=4)
        bins = result.omega_bins(7)
        assert len(bins) == 7
        assert sum(b["count"] for b in bins) == 300

    @staticmethod
    def _bins_oracle(omega, monotonic, bins):
        # One mask per bin: [lo, hi) for every bin but the last, which
        # is [lo, hi].
        abs_omega = np.abs(omega)
        top = float(abs_omega.max())
        if top == 0.0:
            top = 1.0
        edges = np.linspace(0.0, top, bins + 1)
        out = []
        for i in range(bins):
            if i == bins - 1:
                mask = (abs_omega >= edges[i]) & (abs_omega <= edges[i + 1])
            else:
                mask = (abs_omega >= edges[i]) & (abs_omega < edges[i + 1])
            count = int(mask.sum())
            frac = None if count == 0 else float(1.0 - monotonic[mask].mean())
            out.append((float(edges[i]), float(edges[i + 1]), count, frac))
        return out

    @pytest.mark.parametrize("case", ["scan", "edges", "zero", "nan", "inf"])
    @pytest.mark.parametrize("bins", [1, 3, 7, 97])
    def test_omega_bins_match_per_bin_masks(self, case, bins):
        rng = np.random.default_rng(bins)
        if case == "scan":
            grid = relaxation.ScanGrid(ranges=(0.0, 1.0), samples=2000)
            result = relaxation.scan(grid, seed=bins)
            omega, monotonic = result.omega, result.monotonic
        else:
            # Every edge of the bins, both signs, plus interior points.
            edges = np.linspace(0.0, 0.9, bins + 1)
            omega = np.concatenate([edges, -edges, rng.uniform(-0.9, 0.9, 50)])
            if case == "zero":
                omega = np.zeros(40)
            elif case == "nan":
                omega[[3, 7]] = np.nan
            elif case == "inf":
                omega[[2, 5]] = [np.inf, -np.inf]
            monotonic = rng.uniform(size=omega.size) < 0.6
        result = relaxation.ScanResult(
            rates=None, xi=None, disc=None, omega=omega, u=None, v=None,
            monotonic=monotonic,
        )
        # np.linspace warns on an infinite top edge.
        with np.errstate(invalid="ignore"):
            want = self._bins_oracle(omega, monotonic, bins)
            got = [
                (b["lo"], b["hi"], b["count"], b["oscillatory_fraction"])
                for b in result.omega_bins(bins)
            ]
        np.testing.assert_array_equal([g[:2] for g in got], [w[:2] for w in want])
        assert [g[2:] for g in got] == [w[2:] for w in want]
        if case in ("scan", "edges", "zero"):
            assert sum(g[2] for g in got) == omega.size

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
        result = relaxation.scan(relaxation.ScanGrid(ranges=(0.0, 1.0), samples=5))
        with pytest.raises(InputError, match=r"^bins must be >= 1, got 0$"):
            result.omega_bins(0)
        # int() would read these as 5, 2 and 1 samples or bins.
        for value in ("5", 2.7, True, None):
            with pytest.raises(InputError, match=f"samples must be an integer, got {value!r}"):
                relaxation.ScanGrid(ranges=(0.0, 1.0), samples=value)
            with pytest.raises(InputError, match=f"bins must be an integer, got {value!r}"):
                result.omega_bins(value)
        grid = relaxation.ScanGrid(ranges=(0.0, 1.0), samples=np.int64(5))
        assert grid.samples == 5 and type(grid.samples) is int
        assert len(result.omega_bins(np.int32(3))) == 3

    def test_non_bool_constraint_rejected(self):
        # "false" is truthy and would switch the constraint on.
        for value in ("false", 0, None):
            with pytest.raises(InputError, match=(
                f"constrain_omega_zero must be a boolean, got {value!r}"
            )):
                relaxation.ScanGrid(ranges=(0.0, 1.0), samples=5, constrain_omega_zero=value)
        grid = relaxation.ScanGrid(ranges=(0.0, 1.0), samples=5, constrain_omega_zero=np.True_)
        assert grid.constrain_omega_zero

    def test_budget(self):
        grid = relaxation.ScanGrid(ranges=(0.0, 1.0), samples=relaxation.MAX_SAMPLES)
        assert grid.samples == 10**6
        with pytest.raises(InputError, match="samples = 1000001 exceeds the budget"):
            relaxation.ScanGrid(ranges=(0.0, 1.0), samples=10**6 + 1)
        result = relaxation.scan(relaxation.ScanGrid(ranges=(0.0, 1.0), samples=1))
        assert len(result.omega_bins(relaxation.MAX_BINS)) == 10**4
        with pytest.raises(InputError, match=r"^bins = 10001 exceeds the budget of 10000 bins$"):
            result.omega_bins(10**4 + 1)

    def test_grid_fields(self):
        # The bin count belongs to omega_bins, not to the sampling plan.
        assert [f.name for f in dataclasses.fields(relaxation.ScanGrid)] == [
            "ranges", "samples", "constrain_omega_zero"]
