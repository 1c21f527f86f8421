"""Quasithermodynamic representations of Markov master equations.

The package turns a classical master equation dp/dt = L p into an
explicitly thermodynamic flow built from a quadratic entropy: a
gradient-like main term plus antisymmetric correction terms, contracted
through Levi-Civita tensors.  Submodules:

    multilinear  epsilon-tensor contractions and their closed forms
    pme          rate matrices, generators, spectra, stationary states
    qtfit        fitting entropies and coefficients to a given L
    relaxation   three-state secular analysis and rate-space scans
    lindblad     two-level dissipative channels in Bloch form
    composite    coupled pair of two-state systems, gradient coupling
    dynamics     fixed-step integration with conservation monitors
    errors       the exception types
    cli          the qtrep command-line entry point

The package re-exports the __all__ of every submodule except cli, so
each public name is declared once, in its module.
"""

from . import composite, dynamics, errors, lindblad, multilinear, pme, qtfit, relaxation
from .composite import *
from .dynamics import *
from .errors import *
from .lindblad import *
from .multilinear import *
from .pme import *
from .qtfit import *
from .relaxation import *

__version__ = "0.1.0"

__all__ = sorted({
    name
    for module in (composite, dynamics, errors, lindblad, multilinear, pme, qtfit, relaxation)
    for name in module.__all__
})
