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
    cli          the qtrep command-line entry point
"""

from .composite import (
    CompositeSystem,
    composite_entropy,
    composite_generator,
    entropy_gradient,
    lambda_star,
    q_parameter,
    qt_flow,
)
from .dynamics import Trajectory, integrate, monotonicity_witness
from .errors import (
    DegenerateChainError,
    DegenerateChannelError,
    DivergenceError,
    FitNonConvergenceError,
    GradientFormUnavailableError,
    InconclusiveError,
    InputError,
    QtrepError,
    SizeError,
)
from .lindblad import (
    LindbladChannel,
    bloch_entropy,
    bloch_rhs,
    embed_six,
    extract_bloch,
    gradient_rhs,
    qt_six_rhs,
    stationary_bloch,
)
from .multilinear import (
    difference_basis,
    ham_term,
    levi_civita_sign,
    main_term_bruteforce,
    main_term_closed,
    normalizer,
    six_slot_main_term,
)
from .pme import (
    ProbabilityState,
    Spectrum,
    TransitionMatrix,
    WSymmetryFlags,
    bs_entropy,
    build_generator,
    classify_w,
    pme_rhs,
    spectrum,
    stationary_state,
)
from .qtfit import (
    QTRepresentation,
    QuadraticEntropy,
    fit,
    flow_matrix,
    ham_subsets,
    qt_rhs,
    three_state_kappa_r,
    two_state_entropy,
)
from .relaxation import (
    RelaxationReport,
    ScanGrid,
    ScanResult,
    ThreeStateRates,
    classify,
    scan,
    secular,
)

__version__ = "0.1.0"

__all__ = [
    "CompositeSystem",
    "DegenerateChainError",
    "DegenerateChannelError",
    "DivergenceError",
    "FitNonConvergenceError",
    "GradientFormUnavailableError",
    "InconclusiveError",
    "InputError",
    "LindbladChannel",
    "ProbabilityState",
    "QTRepresentation",
    "QtrepError",
    "QuadraticEntropy",
    "RelaxationReport",
    "ScanGrid",
    "ScanResult",
    "SizeError",
    "Spectrum",
    "ThreeStateRates",
    "Trajectory",
    "TransitionMatrix",
    "WSymmetryFlags",
    "bloch_entropy",
    "bloch_rhs",
    "bs_entropy",
    "build_generator",
    "classify",
    "classify_w",
    "composite_entropy",
    "composite_generator",
    "difference_basis",
    "embed_six",
    "entropy_gradient",
    "extract_bloch",
    "fit",
    "flow_matrix",
    "gradient_rhs",
    "ham_subsets",
    "ham_term",
    "integrate",
    "lambda_star",
    "levi_civita_sign",
    "main_term_bruteforce",
    "main_term_closed",
    "monotonicity_witness",
    "normalizer",
    "pme_rhs",
    "q_parameter",
    "qt_flow",
    "qt_rhs",
    "qt_six_rhs",
    "scan",
    "secular",
    "six_slot_main_term",
    "spectrum",
    "stationary_bloch",
    "stationary_state",
    "three_state_kappa_r",
    "two_state_entropy",
]
