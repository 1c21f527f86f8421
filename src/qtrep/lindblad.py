"""Two-level dissipative dynamics in Bloch-vector form.

A channel is a magnetic-field vector h plus dissipator pairs (A_j, B_j)
of real 3-vectors; the state is the Bloch vector P with |P| <= 1.  The
equation of motion is

    dP/dt = h x P + sum_j [ 2 (A_j x B_j) - A_j x (P x A_j)
                                          - B_j x (P x B_j) ].

For a single dissipator and h = 0 the flow is the exact gradient of

    S(P) = 2 (A x B) . P - |P|**2 (A**2 + B**2) / 2
           + (A . P)**2 / 2 + (B . P)**2 / 2,

with stationary point P_st = 2 (A x B) / (A**2 + B**2); the identity
A x (P x A) = P A**2 - A (A . P) turns one form into the other.  The
same flow embeds into six probability-like variables (one conserved
pair per Bloch component), where the rank-6 kernel of
multilinear.six_slot_main_term moves each pair by (g/2, -g/2), g its
component of the gradient flow.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (
    DegenerateChannelError,
    GradientFormUnavailableError,
    InputError,
    _finite_array,
    _instance,
    _json_object,
    _sequence,
)
from .multilinear import check_six_state, six_slot_main_term

__all__ = [
    "LindbladChannel",
    "bloch_rhs",
    "stationary_bloch",
    "bloch_entropy",
    "gradient_rhs",
    "embed_six",
    "extract_bloch",
    "qt_six_rhs",
    "require_gradient_form",
]


@dataclasses.dataclass(frozen=True, eq=False)
class LindbladChannel:
    """Field vector plus a tuple of (A, B) dissipator pairs.

    Each pair is validated once, here, which also derives its read-only
    source 2 (A x B) and its weight |A|**2 + |B|**2, summed by _dot3.
    The vectors are read-only copies; the caller's arrays stay as they
    were.  bloch_rhs reads h and each (A, B, source) triple as Python
    floats, kept in _floats.
    """

    h: np.ndarray
    dissipators: tuple
    sources: tuple = dataclasses.field(init=False, repr=False, compare=False)
    weights: tuple = dataclasses.field(init=False, repr=False, compare=False)
    _floats: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = _finite_array(self.h, "h", (3,))
        pairs = tuple(_checked_pair(idx, pair)
                      for idx, pair in enumerate(_sequence(self.dissipators, "dissipators")))
        # An overflow is left to the caller's rate-scale check.
        with np.errstate(over="ignore", invalid="ignore"):
            sources = tuple(2.0 * np.cross(a, b) for a, b in pairs)
            weights = tuple(float(_dot3(a, a) + _dot3(b, b)) for a, b in pairs)
        for vec in (h, *sum(pairs, ()), *sources):
            vec.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "dissipators", pairs)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_floats", (
            tuple(h.tolist()),
            tuple((tuple(a.tolist()), tuple(b.tolist()), tuple(source.tolist()))
                  for (a, b), source in zip(pairs, sources)),
        ))

    @classmethod
    def from_dict(cls, data):
        """Channel from its document {h: [3] (default zero), dissipators: [{A, B}, ...]}."""
        data = _json_object(data, "channel", ("h", "dissipators"), ["dissipators"])
        pairs = []
        for idx, entry in enumerate(_sequence(data["dissipators"], "dissipators")):
            entry = _json_object(entry, f"dissipator {idx}", ("A", "B"), ("A", "B"))
            pairs.append((entry["A"], entry["B"]))
        return cls(h=data.get("h", (0.0, 0.0, 0.0)), dissipators=tuple(pairs))


def _checked_pair(idx, pair):
    """Dissipator idx as a pair of finite 3-vectors (A, B)."""
    try:
        # A dict entry would unpack into its keys.
        a, b = () if isinstance(pair, dict) else pair
    except (TypeError, ValueError) as exc:
        raise InputError(f"dissipator {idx} must be an (A, B) pair") from exc
    return _finite_array(a, f"A[{idx}]", (3,)), _finite_array(b, f"B[{idx}]", (3,))


def _dot3(u, v):
    """u . v as u0 v0 + u1 v1 + u2 v2, per row of a (rows, 3) stack too: no BLAS."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _cross(u, v):
    """u x v of two 3-tuples of floats, in np.cross's operation order."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0


def bloch_rhs(channel, p):
    """dP/dt for the full channel at Bloch vector p.

    Evaluated on Python floats: np.cross on 3-vectors costs far more than
    its arithmetic.  Every operation is the one numpy performs, in the
    same order, so the result is the same to the bit.  A float64
    3-vector, the state integrate passes, is checked by math.isfinite on
    its Python floats; any other p, and a non-finite one, goes through
    _finite_array, which raises its InputError.
    """
    plain = type(p) is np.ndarray and p.dtype == np.float64 and p.shape == (3,)
    values = p.tolist() if plain else None
    if values is None or not all(map(math.isfinite, values)):
        values = _finite_array(p, "P", (3,)).tolist()
    p = tuple(values)
    try:
        h, terms = channel._floats
    except AttributeError:
        h, terms = _instance(channel, LindbladChannel, "channel")._floats
    o0, o1, o2 = _cross(h, p)
    for a, b, (s0, s1, s2) in terms:
        x0, x1, x2 = _cross(a, _cross(p, a))
        y0, y1, y2 = _cross(b, _cross(p, b))
        o0 = o0 + s0 - x0 - y0
        o1 = o1 + s1 - x1 - y1
        o2 = o2 + s2 - x2 - y2
    return np.array((o0, o1, o2))


def stationary_bloch(channel):
    """Stationary Bloch vector 2 (A x B) / (A**2 + B**2), for A x B != 0."""
    require_gradient_form(channel)
    source = channel.sources[0]
    # A x B != 0 needs some a_i b_j != 0, so the weight below is positive.
    if not np.any(source):
        raise DegenerateChannelError(
            "A x B = 0 (A and B parallel or zero): no unique stationary state"
        )
    return source / channel.weights[0]


def bloch_entropy(channel, p):
    """Entropy whose gradient flow is the single-dissipator channel.

    p is one Bloch vector, or a 2-D stack of them for one value per row,
    with the bits of the one-vector call.  Squares are products: libm's
    pow(x, 2) is not always x * x.
    """
    a, b = require_gradient_form(channel)
    p = _finite_array(p, "P", [(3,), (None, 3)])
    ap, bp = _dot3(a, p), _dot3(b, p)
    values = (_dot3(channel.sources[0], p) - _dot3(p, p) * channel.weights[0] / 2.0
              + ap * ap / 2.0 + bp * bp / 2.0)
    return float(values) if p.ndim == 1 else values


def gradient_rhs(channel, p):
    """Analytic gradient of bloch_entropy with respect to P."""
    a, b = require_gradient_form(channel)
    p = _finite_array(p, "P", (3,))
    return channel.sources[0] - p * channel.weights[0] + a * _dot3(a, p) + b * _dot3(b, p)


def embed_six(p):
    """Six-variable embedding p_k = (1 +/- P_i) / 2, pairs summing to 1."""
    p = _finite_array(p, "P", (3,))
    out = np.empty(6)
    out[0::2] = (1.0 + p) / 2.0
    out[1::2] = (1.0 - p) / 2.0
    return out


def extract_bloch(s):
    """Pair differences (p1-p2, p3-p4, p5-p6) of a six-variable state."""
    s = _finite_array(s, "six-variable state", (6,))
    return s[0::2] - s[1::2]


def qt_six_rhs(channel, s):
    """Six-variable flow of the single-dissipator channel.

    Evaluates the rank-6 contraction at the entropy gradient taken in
    the pair-difference variables.  Pairs move oppositely by exactly
    half of it, so each pair sum is conserved and extract_bloch of the
    result equals gradient_rhs(channel, extract_bloch(s)) bit for bit;
    s is validated once, by check_six_state.
    """
    s = check_six_state(s)
    return six_slot_main_term(gradient_rhs(channel, s[0::2] - s[1::2]))


def require_gradient_form(channel):
    """Return the (A, B) pair of a gradient-form channel or raise.

    The gradient and six-variable machinery cover exactly the channels
    with h = 0 and a single dissipator.
    """
    channel = _instance(channel, LindbladChannel, "channel")
    if np.any(channel.h != 0.0):
        raise GradientFormUnavailableError(
            "gradient form unavailable: channel has a field term"
        )
    if len(channel.dissipators) != 1:
        raise GradientFormUnavailableError(
            "gradient form unavailable: need exactly one dissipator, "
            f"got {len(channel.dissipators)}"
        )
    return channel.dissipators[0]
