"""The package namespace: one declaration per public name.

Each submodule's __all__ is the only list of its public names; qtrep
re-exports their union.  perfbench/tracing.py wraps functions by
identity in every qtrep module, so the names it traces must resolve.
"""

import importlib
import os
import sys

import pytest

import qtrep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SUBMODULES = ("composite", "dynamics", "errors", "lindblad", "multilinear", "pme",
              "qtfit", "relaxation")

# Names callers rely on.  New names need no entry here; dropping one is
# an API change and has to edit this set.
PINNED = frozenset("""
    CompositeSystem DegenerateChainError DegenerateChannelError DivergenceError
    FitNonConvergenceError GradientFormUnavailableError InconclusiveError InputError
    LindbladChannel ProbabilityState QTRepresentation QtrepError QuadraticEntropy
    RelaxationReport ScanGrid ScanResult SizeError Spectrum ThreeStateRates Trajectory
    TransitionMatrix WSymmetryFlags bloch_entropy bloch_rhs bs_entropy build_generator
    classify classify_w composite_entropy composite_generator difference_basis
    embed_six entropy_gradient extract_bloch fit flow_matrix gradient_rhs ham_subsets
    ham_term integrate lambda_star main_term_bruteforce
    main_term_closed monotonicity_witness normalizer q_parameter qt_flow
    qt_six_rhs scan secular six_slot_main_term spectrum stationary_bloch
    stationary_state three_state_kappa_r two_state_entropy MAX_BRUTEFORCE_N
    check_six_state product_state require_gradient_form subsystem_entropies
""".split())


def module(name):
    return importlib.import_module(f"qtrep.{name}")


def test_all_is_sorted_union_of_submodule_all():
    union = set()
    for name in SUBMODULES:
        names = module(name).__all__
        assert len(set(names)) == len(names), name
        assert not union & set(names), name
        union |= set(names)
    assert qtrep.__all__ == sorted(union)
    assert PINNED <= union


@pytest.mark.parametrize("submodule", SUBMODULES)
def test_every_name_is_its_module_object(submodule):
    mod = module(submodule)
    for name in mod.__all__:
        obj = getattr(mod, name)
        assert getattr(qtrep, name) is obj, name
        # Defined there, not imported from a sibling.
        assert getattr(obj, "__module__", mod.__name__) == mod.__name__, name


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, imported as the harness imports it."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    yield importlib.import_module("tracing")
    for name in ("tracing", "metrics"):
        sys.modules.pop(name, None)


def test_traced_names_resolve(tracing):
    traced = [(m, attr) for m, attr, _ in tracing.TRACED if m.split(".")[0] == "qtrep"]
    assert traced
    for module_name, attr in traced:
        fn = getattr(importlib.import_module(module_name), attr)
        assert callable(fn), (module_name, attr)
