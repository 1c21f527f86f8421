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
pair per Bloch component), where it is generated by the rank-6 kernel
of multilinear.six_slot_main_term.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (
    DegenerateChannelError,
    GradientFormUnavailableError,
    InputError,
    _finite_array,
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
    source 2 (A x B) and its weight |A|**2 + |B|**2.  The vectors are
    read-only copies; the caller's arrays stay as they were.  bloch_rhs
    reads h and each (A, B, source) triple as Python floats, kept in
    _floats.
    """

    h: np.ndarray
    dissipators: tuple
    sources: tuple = dataclasses.field(init=False, repr=False, compare=False)
    weights: tuple = dataclasses.field(init=False, repr=False, compare=False)
    _floats: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = _finite_array(self.h, "h", (3,))
        try:
            entries = tuple(enumerate(self.dissipators))
        except TypeError as exc:
            raise InputError("dissipators must be a sequence of (A, B) pairs") from exc
        pairs = tuple(_checked_pair(idx, pair) for idx, pair in entries)
        # An overflow is left to the caller's rate-scale check.
        with np.errstate(over="ignore", invalid="ignore"):
            sources = tuple(2.0 * np.cross(a, b) for a, b in pairs)
            weights = tuple(float(a @ a + b @ b) for a, b in pairs)
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
        unknown = sorted(set(data) - {"h", "dissipators"})
        if unknown:
            raise InputError(f"unknown channel keys: {', '.join(unknown)}")
        try:
            h = data.get("h", (0.0, 0.0, 0.0))
            dissipators = []
            for entry in data["dissipators"]:
                extra = sorted(set(entry) - {"A", "B"})
                if extra:
                    raise InputError(
                        f"unknown dissipator keys: {', '.join(extra)}"
                    )
                dissipators.append((entry["A"], entry["B"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad channel document: {exc}") from exc
        return cls(h=h, dissipators=tuple(dissipators))


def _checked_pair(idx, pair):
    """Dissipator idx as a pair of finite 3-vectors (A, B)."""
    try:
        # A dict entry would unpack into its keys.
        a, b = () if isinstance(pair, dict) else pair
    except (TypeError, ValueError) as exc:
        raise InputError(f"dissipator {idx} must be an (A, B) pair") from exc
    return _finite_array(a, f"A[{idx}]", (3,)), _finite_array(b, f"B[{idx}]", (3,))


def _cross(u, v):
    """u x v of two 3-tuples of floats, in np.cross's operation order."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0


def bloch_rhs(channel, p):
    """dP/dt for the full channel at Bloch vector p.

    Evaluated on Python floats: np.cross on 3-vectors costs far more than
    its arithmetic.  Every operation is the one numpy performs, in the
    same order, so the result is the same to the bit.
    """
    p = tuple(_finite_array(p, "P", (3,)).tolist())
    h, terms = channel._floats
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

    p is one Bloch vector, or a 2-D stack of them for one value per row.
    Each row keeps its own 3-vector dot products: a matmul over the rows
    would regroup the sums and move the last bits.
    """
    a, b = require_gradient_form(channel)
    p = _finite_array(p, "P", [(3,), (None, 3)])
    source, weight = channel.sources[0], channel.weights[0]
    values = np.array([
        source @ row - (row @ row) * weight / 2.0 + (a @ row) ** 2 / 2.0 + (b @ row) ** 2 / 2.0
        for row in p.reshape(-1, 3)
    ])
    return float(values[0]) if p.ndim == 1 else values


def gradient_rhs(channel, p):
    """Analytic gradient of bloch_entropy with respect to P."""
    a, b = require_gradient_form(channel)
    p = _finite_array(p, "P", (3,))
    return channel.sources[0] - p * channel.weights[0] + a * (a @ p) + b * (b @ p)


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
    the pair-difference variables.  Pairs move oppositely, so each pair
    sum is conserved and the extracted differences obey the gradient
    flow: extract_bloch(qt_six_rhs(channel, embed_six(P))) equals
    gradient_rhs(channel, P).  s is validated once, by check_six_state.
    """
    s = check_six_state(s)
    return six_slot_main_term(gradient_rhs(channel, s[0::2] - s[1::2]))


def require_gradient_form(channel):
    """Return the (A, B) pair of a gradient-form channel or raise.

    The gradient and six-variable machinery cover exactly the channels
    with h = 0 and a single dissipator.
    """
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
