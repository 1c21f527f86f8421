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
)
from .multilinear import _finite_vector, check_six_state, six_slot_main_term

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


@dataclasses.dataclass(frozen=True)
class LindbladChannel:
    """Field vector plus a tuple of (A, B) dissipator pairs."""

    h: np.ndarray
    dissipators: tuple

    def __post_init__(self):
        h = _finite_vector(self.h, 3, "h")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        pairs = []
        for idx, pair in enumerate(self.dissipators):
            a, b = pair
            a = _finite_vector(a, 3, f"A[{idx}]")
            b = _finite_vector(b, 3, f"B[{idx}]")
            a.setflags(write=False)
            b.setflags(write=False)
            pairs.append((a, b))
        object.__setattr__(self, "dissipators", tuple(pairs))

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


def bloch_rhs(channel, p):
    """dP/dt for the full channel at Bloch vector p."""
    p = _finite_vector(p, 3, "P")
    out = np.cross(channel.h, p)
    for a, b in channel.dissipators:
        out += 2.0 * np.cross(a, b)
        out -= np.cross(a, np.cross(p, a))
        out -= np.cross(b, np.cross(p, b))
    return out


def stationary_bloch(a, b):
    """Stationary Bloch vector 2 (A x B) / (A**2 + B**2), for A x B != 0."""
    a = _finite_vector(a, 3, "A")
    b = _finite_vector(b, 3, "B")
    cross = np.cross(a, b)
    # A x B != 0 needs some a_i b_j != 0, so the weight below is positive.
    if not np.any(cross):
        raise DegenerateChannelError(
            "A x B = 0 (A and B parallel or zero): no unique stationary state"
        )
    return 2.0 * cross / float(a @ a + b @ b)


def bloch_entropy(a, b, p):
    """Entropy whose gradient flow is the single-dissipator channel."""
    a = _finite_vector(a, 3, "A")
    b = _finite_vector(b, 3, "B")
    p = _finite_vector(p, 3, "P")
    return float(
        2.0 * np.cross(a, b) @ p
        - (p @ p) * (a @ a + b @ b) / 2.0
        + (a @ p) ** 2 / 2.0
        + (b @ p) ** 2 / 2.0
    )


def gradient_rhs(a, b, p):
    """Analytic gradient of bloch_entropy with respect to P."""
    a = _finite_vector(a, 3, "A")
    b = _finite_vector(b, 3, "B")
    p = _finite_vector(p, 3, "P")
    return (
        2.0 * np.cross(a, b)
        - p * (a @ a + b @ b)
        + a * (a @ p)
        + b * (b @ p)
    )


def embed_six(p):
    """Six-variable embedding p_k = (1 +/- P_i) / 2, pairs summing to 1."""
    p = _finite_vector(p, 3, "P")
    out = np.empty(6)
    out[0::2] = (1.0 + p) / 2.0
    out[1::2] = (1.0 - p) / 2.0
    return out


def extract_bloch(s):
    """Pair differences (p1-p2, p3-p4, p5-p6) of a six-variable state."""
    s = _finite_vector(s, 6, "six-variable state")
    return s[0::2] - s[1::2]


def qt_six_rhs(a, b, s):
    """Six-variable flow of the single-dissipator channel.

    Evaluates the rank-6 contraction at the entropy gradient taken in
    the pair-difference variables.  Pairs move oppositely, so each pair
    sum is conserved and the extracted differences obey the gradient
    flow: extract_bloch(qt_six_rhs(a, b, embed_six(P))) equals
    gradient_rhs(a, b, P).  s is validated once, by check_six_state.
    """
    s = check_six_state(s)
    return six_slot_main_term(gradient_rhs(a, b, s[0::2] - s[1::2]))


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
