"""Composite two-by-two system with a subextensive joint entropy.

Two symmetric two-state subsystems (flip rates a and c) evolve jointly
on the four product states W = (p1 q1, p1 q2, p2 q1, p2 q2).  The joint
generator is the Kronecker sum of the marginal generators.  Each
subsystem carries the quadratic entropy of its marginal, expressed in
the joint variables as

    S_A = -(a/4) (W1 + W2 - W3 - W4)**2,
    S_B = -(c/4) (W1 + W3 - W2 - W4)**2,

and the joint entropy is the non-additive combination

    S = S_A + S_B - lam * S_A * S_B.

With lam = lambda_star(a, c) = 4 (a + c) / (a c), the rank-4 double
contraction of grad S (normalization 8 * norm**2 = 1) reproduces the
joint generator exactly on product states; the coupling matches a
deformed-statistics composition rule with deformation parameter
q = 1 + k (a + c) / 4.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import multilinear
from .errors import InputError, _finite_array, _instance, _positive

__all__ = [
    "CompositeSystem",
    "lambda_star",
    "composite_generator",
    "subsystem_entropies",
    "composite_entropy",
    "entropy_gradient",
    "qt_flow",
    "q_parameter",
    "product_state",
]

# Sign patterns of the three balanced directions in the product basis.
_V_A = np.array([1.0, 1.0, -1.0, -1.0])
_V_B = np.array([1.0, -1.0, 1.0, -1.0])
_V_C = np.array([1.0, -1.0, -1.0, 1.0])


@dataclasses.dataclass(frozen=True)
class CompositeSystem:
    """Flip rates of the two subsystems plus the entropy coupling."""

    a: float
    c: float
    lam: float
    boltzmann_k: float = 1.0

    def __post_init__(self):
        for name in ("a", "c", "boltzmann_k"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        object.__setattr__(self, "lam", float(_finite_array(self.lam, "lam", ())))
        if not math.isfinite(q_parameter(self)):
            raise InputError(
                f"k={self.boltzmann_k!r} with a={self.a!r} and c={self.c!r} "
                "overflows q = 1 + k (a + c) / 4"
            )

    @classmethod
    def with_lambda_star(cls, a, c, boltzmann_k=1.0):
        return cls(a=a, c=c, lam=lambda_star(a, c), boltzmann_k=boltzmann_k)


def lambda_star(a, c):
    """Coupling 4 (a + c)/(a c) that makes the joint flow a gradient."""
    a = _positive(a, "a")
    c = _positive(c, "c")
    total = a + c
    product = a * c
    # Finite rates near the float limits still overflow the sum or the
    # product, or underflow the product to zero.
    if not (math.isfinite(total) and 0.0 < product < math.inf):
        raise InputError(
            f"rates a={a!r} and c={c!r} must be > 0, with a finite sum and a "
            "finite, positive product"
        )
    # Dividing first keeps 4 * total from overflowing; the bits are
    # the same wherever the product-first form is finite.
    return 4.0 * (total / product)


def product_state(p1, q1):
    """Product state (p1 q1, p1 q2, p2 q1, p2 q2) from marginals."""
    p1 = float(_finite_array(p1, "p1", ()))
    q1 = float(_finite_array(q1, "q1", ()))
    for value in (p1, q1):
        if value < -1e-12 or value > 1.0 + 1e-12:
            raise InputError(f"marginal probability {value!r} outside [0, 1]")
    p2 = 1.0 - p1
    q2 = 1.0 - q1
    return np.array([p1 * q1, p1 * q2, p2 * q1, p2 * q2])


def composite_generator(system):
    """Joint generator, the Kronecker sum of the two flip generators."""
    system = _instance(system, CompositeSystem, "system")
    a, c = system.a, system.c
    return np.array([
        [-(a + c), c, a, 0.0],
        [c, -(a + c), 0.0, a],
        [a, 0.0, -(a + c), c],
        [0.0, a, c, -(a + c)],
    ])


def _balanced(system, w):
    """(V_A . w, V_B . w, V_C . w), each summed left to right, for a checked system."""
    _instance(system, CompositeSystem, "system")
    w0, w1, w2, w3 = _finite_array(w, "composite state", (4,)).tolist()
    return w0 + w1 - w2 - w3, w0 - w1 + w2 - w3, w0 - w1 - w2 + w3


def subsystem_entropies(system, w):
    """Marginal entropies (S_A, S_B) at joint state w."""
    d_a, d_b, _ = _balanced(system, w)
    return (
        -(system.a / 4.0) * d_a * d_a,
        -(system.c / 4.0) * d_b * d_b,
    )


def composite_entropy(system, w):
    """Joint entropy S_A + S_B - lam * S_A * S_B, expanded in w.

    On product states the two pair differences multiply into the third
    balanced direction, (V_A . w)(V_B . w) = V_C . w, which turns the
    entropy product into a quadratic form in the joint state:

        S = -(a/4) (V_A . w)**2 - (c/4) (V_B . w)**2
            - lam * (a c / 16) (V_C . w)**2.

    This expanded form is what the flow machinery differentiates; it
    agrees with the literal product expression on product states.
    """
    d_a, d_b, d_c = _balanced(system, w)
    return (
        -(system.a / 4.0) * d_a * d_a
        - (system.c / 4.0) * d_b * d_b
        - system.lam * (system.a * system.c / 16.0) * d_c * d_c
    )


def entropy_gradient(system, w):
    """Gradient of the expanded composite entropy; sums to zero."""
    d_a, d_b, d_c = _balanced(system, w)
    return (
        -(system.a / 2.0) * d_a * _V_A
        - (system.c / 2.0) * d_b * _V_B
        - system.lam * (system.a * system.c / 8.0) * d_c * _V_C
    )


def qt_flow(system, w):
    """Rank-4 double contraction of the entropy gradient.

    Uses the closed form of the kernel, equal to main_term_bruteforce
    with the normalization fixed by 8 * norm**2 = 1.  With
    lam = lambda_star(a, c) this equals composite_generator(system) @ w
    on product states.
    """
    grad = entropy_gradient(system, w)
    return multilinear.main_term_closed(grad, 4)


def q_parameter(system):
    """Deformation parameter q = 1 + k (a + c) / 4 of the coupling.

    (1 - q)/k equals -(a + c)/4, the coefficient in front of the entropy
    product of the composition rule.
    """
    system = _instance(system, CompositeSystem, "system")
    return 1.0 + system.boltzmann_k * (system.a + system.c) / 4.0
