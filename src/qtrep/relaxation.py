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

import numpy as np

from .errors import InputError, _boolean, _finite_array, _instance, _integer
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
# Largest scan.  Every sample and its CSV row are held in memory, so
# the budget bounds memory as well as time.
MAX_SAMPLES = 10**6
MAX_BINS = 10**4


@dataclasses.dataclass(frozen=True)
class ThreeStateRates:
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self):
        values = _finite_array(self.as_tuple(), "rates", (6,)).tolist()
        for name, value in zip(("a", "b", "c", "d", "e", "f"), values):
            if value < 0.0:
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
        # Keys in field order; each root becomes a [real, imag] pair.
        doc = dataclasses.asdict(self)
        doc["eigenvalues"] = [[z.real, z.imag] for z in self.eigenvalues]
        return doc


def _as_rates(rates):
    if isinstance(rates, ThreeStateRates):
        return rates
    return ThreeStateRates(*_finite_array(rates, "rates", (6,)))


def _invariants(a, b, c, d, e, f):
    """Secular coefficients and rate combinations of the three-state chain.

    Uses only + - *, so the rates may be Python floats or equal-length
    column arrays; secular, classify and scan all take their values
    from here.
    """
    xi = a + b + c + d + e + f
    eta = c + d + f
    constant = eta * (a + b + e) - (e - c) * (f - a)
    l = f - a
    m = b - d
    return {
        "xi": xi,
        "eta": eta,
        "constant": constant,
        "disc": xi * xi - 4.0 * constant,
        "k": e - c,
        "l": l,
        "m": m,
        "omega": (a + d + e) - (b + c + f),
        "u": l + m,
        "v": l - m,
    }


def _roots(xi, disc):
    root_disc = cmath.sqrt(disc)
    roots = [(-xi + root_disc) / 2.0, (-xi - root_disc) / 2.0]
    roots.sort(key=lambda z: (-z.real, -z.imag))
    return roots[0], roots[1]


def secular(rates):
    """Coefficients and roots of the non-zero spectral quadratic.

    Returns (xi, constant, roots) where the quadratic is
    lam**2 + xi lam + constant and roots are its two solutions sorted by
    descending real part, then descending imaginary part.
    """
    inv = _invariants(*_as_rates(rates).as_tuple())
    return inv["xi"], inv["constant"], _roots(inv["xi"], inv["disc"])


def classify(rates):
    """Full relaxation character report for one rate tuple.

    monotonic is disc >= 0 (real spectrum); boundary flags samples with
    |disc| < 1e-9 * max(1, xi**2) where the classification is not
    numerically trustworthy.
    """
    inv = _invariants(*_as_rates(rates).as_tuple())
    del inv["constant"]  # a secular coefficient, not part of the report
    xi, disc = inv["xi"], inv["disc"]
    return RelaxationReport(
        **inv,
        eigenvalues=_roots(xi, disc),
        monotonic=disc >= 0.0,
        boundary=abs(disc) < BOUNDARY_BAND * max(1.0, xi * xi),
    )


@dataclasses.dataclass(frozen=True)
class ScanGrid:
    """Sampling plan for scan().

    ranges is either one (lo, hi) pair applied to all six rates or six
    pairs, one per rate.  With constrain_omega_zero the (b, c, f) group
    is rescaled after sampling so the cyclic imbalance vanishes.
    samples may not exceed MAX_SAMPLES.
    """

    ranges: tuple
    samples: int
    constrain_omega_zero: bool = False

    def __post_init__(self):
        # + 0.0 turns -0.0 into 0.0: numpy rejects a high of -0.0 over a
        # low of 0.0.
        pairs = _finite_array(self.ranges, "ranges", [(2,), (6, 2)]) + 0.0
        ranges = tuple(map(tuple, np.broadcast_to(pairs, (6, 2)).tolist()))
        for lo, hi in ranges:
            if lo < 0.0 or hi < lo:
                raise InputError(f"bad range ({lo!r}, {hi!r})")
        object.__setattr__(self, "ranges", ranges)
        flag = _boolean(self.constrain_omega_zero, "constrain_omega_zero")
        object.__setattr__(self, "constrain_omega_zero", flag)
        object.__setattr__(self, "samples", _budget(self.samples, "samples", MAX_SAMPLES))


def _budget(value, name, budget):
    """value as a Python int in [1, budget]: a sample or bin count."""
    value = _integer(value, name, 1)
    if value > budget:
        raise InputError(f"{name} = {value} exceeds the budget of {budget} {name}")
    return value


@dataclasses.dataclass(frozen=True, eq=False)
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

    def omega_bins(self, bins):
        """Oscillatory fraction over |omega| in 1 <= bins <= MAX_BINS bins.

        Returns a list of dicts with the bin edges, the sample count and
        the oscillatory fraction (None for empty bins).
        """
        bins = _budget(bins, "bins", MAX_BINS)
        abs_omega = np.abs(self.omega)
        top = float(abs_omega.max())
        if top == 0.0:
            top = 1.0
        edges = np.linspace(0.0, top, bins + 1)
        # Bins are [lo, hi) except the last, which also takes its top
        # edge: a sample falls in the last bin whose lo it reaches, if it
        # is not above the top edge.  A NaN |omega| falls in none.
        index = np.searchsorted(edges[:-1], abs_omega, side="right") - 1
        kept = (index >= 0) & (abs_omega <= edges[-1])
        counts = np.bincount(index[kept], minlength=bins)
        monotone = np.bincount(index[kept], weights=self.monotonic[kept], minlength=bins)
        return [
            {
                "lo": float(edges[i]),
                "hi": float(edges[i + 1]),
                "count": int(counts[i]),
                "oscillatory_fraction": (
                    None if counts[i] == 0 else float(1.0 - monotone[i] / counts[i])
                ),
            }
            for i in range(bins)
        ]


def scan(grid, seed=0):
    """Classify a deterministic random sample of rate space.

    Sampling is uniform per rate within grid.ranges, driven by a seeded
    generator, so equal (grid, seed) pairs give identical results.  seed
    is a non-negative integer.
    """
    grid = _instance(grid, ScanGrid, "grid")
    rng = np.random.default_rng(_integer(seed, "seed", 0))
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

        inv = _invariants(*rates.T)
        monotonic = inv["disc"] >= 0.0
    return ScanResult(
        rates=rates, xi=inv["xi"], disc=inv["disc"], omega=inv["omega"],
        u=inv["u"], v=inv["v"], monotonic=monotonic,
    )
