"""Three-state relaxation: secular equation, classification, scans.

Rates follow the fixed order (a, b, c, d, e, f) = (w21, w31, w12, w32,
w13, w23).  The non-zero part of the generator spectrum solves

    lam**2 + xi * lam + eta * (a + b + e) - (e - c) * (f - a) = 0,

with xi the total rate sum and eta = c + d + f.  The discriminant of
that quadratic decides the character of the relaxation: real roots mean
monotonic decay, a conjugate pair means oscillatory approach.  In the
combinations k = e - c, l = f - a, m = b - d and the cyclic imbalance
omega = (a + d + e) - (b + c + f) the discriminant takes the form

    disc = omega**2 + 4*omega*(l + m) + 4*(l**2 + m**2 + l*m),

whose zero set in the (u, v) = (l + m, l - m) plane is the ellipse
(sqrt(3) u + 2 omega / sqrt(3))**2 + v**2 = omega**2 / 3.  States with
omega = 0 therefore always relax monotonically.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .errors import InputError
from .pme import TransitionMatrix

__all__ = [
    "ThreeStateRates",
    "RelaxationReport",
    "ScanGrid",
    "ScanResult",
    "secular",
    "classify",
    "scan",
]

# Samples with |disc| below this (relative to xi**2) sit on the
# monotonic/oscillatory boundary and are flagged instead of trusted.
BOUNDARY_BAND = 1e-9


@dataclasses.dataclass(frozen=True)
class ThreeStateRates:
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "e", "f"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise InputError(f"rate {name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def to_transition_matrix(self):
        w = np.zeros((3, 3))
        w[1, 0] = self.a
        w[2, 0] = self.b
        w[0, 1] = self.c
        w[2, 1] = self.d
        w[0, 2] = self.e
        w[1, 2] = self.f
        return TransitionMatrix(w)


@dataclasses.dataclass(frozen=True)
class RelaxationReport:
    xi: float
    eta: float
    disc: float
    k: float
    l: float
    m: float
    omega: float
    u: float
    v: float
    eigenvalues: tuple
    monotonic: bool
    boundary: bool

    def to_json_dict(self):
        return {
            "xi": self.xi,
            "eta": self.eta,
            "disc": self.disc,
            "k": self.k,
            "l": self.l,
            "m": self.m,
            "omega": self.omega,
            "u": self.u,
            "v": self.v,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "monotonic": self.monotonic,
            "boundary": self.boundary,
        }


def _as_rates(rates):
    if isinstance(rates, ThreeStateRates):
        return rates
    vals = tuple(float(v) for v in rates)
    if len(vals) != 6:
        raise InputError(f"need 6 rates, got {len(vals)}")
    return ThreeStateRates(*vals)


def secular(rates):
    """Coefficients and roots of the non-zero spectral quadratic.

    Returns (xi, constant, roots) where the quadratic is
    lam**2 + xi lam + constant and roots are its two solutions sorted by
    descending real part, then descending imaginary part.
    """
    r = _as_rates(rates)
    xi = r.a + r.b + r.c + r.d + r.e + r.f
    eta = r.c + r.d + r.f
    constant = eta * (r.a + r.b + r.e) - (r.e - r.c) * (r.f - r.a)
    root_disc = cmath.sqrt(xi * xi - 4.0 * constant)
    roots = [(-xi + root_disc) / 2.0, (-xi - root_disc) / 2.0]
    roots.sort(key=lambda z: (-z.real, -z.imag))
    return xi, constant, (roots[0], roots[1])


def classify(rates):
    """Full relaxation character report for one rate tuple.

    monotonic is disc >= 0 (real spectrum); boundary flags samples with
    |disc| < 1e-9 * max(1, xi**2) where the classification is not
    numerically trustworthy.
    """
    r = _as_rates(rates)
    xi, constant, roots = secular(r)
    disc = xi * xi - 4.0 * constant
    k = r.e - r.c
    l = r.f - r.a
    m = r.b - r.d
    omega = (r.a + r.d + r.e) - (r.b + r.c + r.f)
    u = l + m
    v = l - m
    return RelaxationReport(
        xi=xi,
        eta=r.c + r.d + r.f,
        disc=disc,
        k=k,
        l=l,
        m=m,
        omega=omega,
        u=u,
        v=v,
        eigenvalues=roots,
        monotonic=disc >= 0.0,
        boundary=abs(disc) < BOUNDARY_BAND * max(1.0, xi * xi),
    )


@dataclasses.dataclass(frozen=True)
class ScanGrid:
    """Sampling plan for scan().

    ranges is either one (lo, hi) pair applied to all six rates or six
    pairs, one per rate.  With constrain_omega_zero the (b, c, f) group
    is rescaled after sampling so the cyclic imbalance vanishes.
    """

    ranges: tuple
    samples: int
    constrain_omega_zero: bool = False
    bins: int = 10

    def __post_init__(self):
        try:
            ranges = tuple(self.ranges)
            if len(ranges) == 2 and np.isscalar(ranges[0]):
                ranges = (ranges,) * 6
            ranges = tuple((float(lo), float(hi)) for lo, hi in ranges)
        except InputError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed ranges: {exc}") from exc
        if len(ranges) != 6:
            raise InputError(f"need 1 or 6 ranges, got {len(ranges)}")
        for lo, hi in ranges:
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0.0 or hi < lo:
                raise InputError(f"bad range ({lo!r}, {hi!r})")
        object.__setattr__(self, "ranges", ranges)
        if int(self.samples) <= 0:
            raise InputError(f"samples must be positive, got {self.samples}")
        object.__setattr__(self, "samples", int(self.samples))
        if int(self.bins) <= 0:
            raise InputError(f"bins must be positive, got {self.bins}")
        object.__setattr__(self, "bins", int(self.bins))


@dataclasses.dataclass(frozen=True)
class ScanResult:
    """Vectorized classification of a sampled rate region."""

    rates: np.ndarray
    xi: np.ndarray
    disc: np.ndarray
    omega: np.ndarray
    u: np.ndarray
    v: np.ndarray
    monotonic: np.ndarray

    @property
    def oscillatory_fraction(self):
        return float(1.0 - self.monotonic.mean())

    def omega_bins(self, bins=10):
        """Oscillatory fraction binned over |omega|.

        Returns a list of dicts with the bin edges, the sample count and
        the oscillatory fraction (None for empty bins).
        """
        abs_omega = np.abs(self.omega)
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
            frac = None if count == 0 else float(1.0 - self.monotonic[mask].mean())
            out.append(
                {
                    "lo": float(edges[i]),
                    "hi": float(edges[i + 1]),
                    "count": count,
                    "oscillatory_fraction": frac,
                }
            )
        return out


def scan(grid, seed=0):
    """Classify a deterministic random sample of rate space.

    Sampling is uniform per rate within grid.ranges, driven by a seeded
    generator, so equal (grid, seed) pairs give identical results.
    """
    if not isinstance(grid, ScanGrid):
        raise InputError(f"grid must be a ScanGrid, got {type(grid).__name__}")
    rng = np.random.default_rng(seed)
    lows = np.array([r[0] for r in grid.ranges])
    highs = np.array([r[1] for r in grid.ranges])
    rates = rng.uniform(lows, highs, size=(grid.samples, 6))
    # Rates near the float limit overflow to inf or nan below; the CSV
    # writer rejects those with one error, so numpy's warnings are muted.
    with np.errstate(over="ignore", invalid="ignore"):
        if grid.constrain_omega_zero:
            fwd = rates[:, [0, 3, 4]].sum(axis=1)
            bwd = rates[:, [1, 2, 5]].sum(axis=1)
            safe = bwd > 0.0
            factor = np.where(safe, fwd / np.where(safe, bwd, 1.0), 0.0)
            rates[:, [1, 2, 5]] *= factor[:, None]
            # A zero backward group cannot be rescaled; zero the forward
            # group too so omega = 0 still holds.
            if np.any(~safe):
                rates[np.ix_(~safe, [0, 3, 4])] = 0.0

        a, b, c, d, e, f = (rates[:, i] for i in range(6))
        xi = rates.sum(axis=1)
        eta = c + d + f
        constant = eta * (a + b + e) - (e - c) * (f - a)
        disc = xi * xi - 4.0 * constant
        omega = (a + d + e) - (b + c + f)
        l = f - a
        m = b - d
        u = l + m
        v = l - m
        monotonic = disc >= 0.0
    return ScanResult(
        rates=rates, xi=xi, disc=disc, omega=omega, u=u, v=v, monotonic=monotonic
    )
