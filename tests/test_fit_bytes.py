"""qt-fit, composite and relax-classify output bytes against per-call references.

The references in oracles.py are the fit, the stationary state and the
JSON renderer as they ran before qtfit built the arrays fixed by n once
per n: fit_per_call (with the earlier build_generator and to_json_dict),
stationary_state_stacked and dumps_recursive.  Each config runs through
cli.main twice, once with those references patched in and once as it
is, and the two output files must be byte-identical.  The fit runs once
on a cold frame cache and once on a warm one.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qtrep import _jsonio, cli, pme, qtfit
from qtrep.errors import DegenerateChainError


def random_chain(n, seed):
    """Rates 10**U(-2, 2), a fifth of them zero, on a cycle that keeps the chain irreducible."""
    rng = np.random.default_rng(seed)
    w = 10.0 ** rng.uniform(-2.0, 2.0, (n, n))
    w[rng.random((n, n)) < 0.2] = 0.0
    w[(np.arange(n) + 1) % n, np.arange(n)] = rng.uniform(0.5, 2.0, n)
    np.fill_diagonal(w, 0.0)
    return w.tolist()


def stiff_chain(s):
    return [[0, s, 1e-6, 1], [1, 0, 1, 1], [1e-6, 1, 0, s], [1, 1, 1, 0]]


# States 0 and 1 only leak into the closed class {2, 3, 4}.
TRANSIENT = [[0, 0.5, 0, 0, 0], [2, 0, 0, 0, 0], [1, 3, 0, 4, 1],
             [0, 1, 2, 0, 3], [0.5, 0, 1, 1, 0]]
# Three closed classes: the Sylvester system is singular.
THREE_CLASSES = [[0, 1, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0], [0, 0, 0, 3, 0, 0],
                 [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 5], [0, 0, 0, 0, 0.5, 0]]

FITS = [pytest.param(random_chain(n, n), id=f"n{n}") for n in range(2, 31)] + [
    pytest.param(stiff_chain(1e7), id="stiff-1e7"),
    pytest.param(TRANSIENT, id="transient"),
    pytest.param(THREE_CLASSES, id="three-classes"),
]


def run_bytes(tmp_path, command, cfg, tag):
    """Exit code and the JSON bytes of one CLI run."""
    out = tmp_path / tag
    path = tmp_path / f"{tag}.cfg"
    path.write_text(json.dumps(dict(cfg, out=str(out))))
    code = cli.main([command, "--config", str(path)])
    return code, (tmp_path / f"{tag}.json").read_bytes()


def reference_bytes(tmp_path, monkeypatch, command, cfg):
    with monkeypatch.context() as patch:
        patch.setattr(qtfit, "fit", oracles.fit_per_call)
        patch.setattr(qtfit.QTRepresentation, "to_json_dict", oracles.to_json_dict_per_value)
        patch.setattr(pme, "stationary_state", oracles.stationary_state_stacked)
        patch.setattr(_jsonio, "dumps", oracles.dumps_recursive)
        return run_bytes(tmp_path, command, cfg, "reference")


@pytest.mark.parametrize("frame", ["cold", "warm"])
@pytest.mark.parametrize("w", FITS)
def test_qt_fit_matches_per_call_reference(tmp_path, monkeypatch, w, frame):
    want = reference_bytes(tmp_path, monkeypatch, "qt-fit", {"W": w})
    if frame == "cold":
        qtfit._fit_frame.cache_clear()
    else:
        qtfit._fit_frame(len(w))
    assert run_bytes(tmp_path, "qt-fit", {"W": w}, "change") == want


@pytest.mark.parametrize("a, c, k", [
    (1.0, 1.0, 1.0), (0.3, 7.0, 1.0), (2.5, 0.1, 0.01), (1e6, 1e-6, 1.0),
    (1e4, 1e-4, 3.0), (2.0**53, 2.0, 1.0),
])
def test_composite_matches_per_call_reference(tmp_path, monkeypatch, a, c, k):
    cfg = {"a": a, "c": c, "k": k}
    assert run_bytes(tmp_path, "composite", cfg, "change") == reference_bytes(
        tmp_path, monkeypatch, "composite", cfg)


@pytest.mark.parametrize("rates", [
    [1, 2, 3, 4, 5, 6], [0.5, 0.5, 0.5, 0.5, 0.5, 0.5], [0, 1, 0, 2, 0, 3],
    [1e-3, 2e3, 0.7, 1e2, 5.0, 1e-1], [3, 0, 0, 0, 0, 1],
])
def test_relax_classify_matches_per_call_reference(tmp_path, monkeypatch, rates):
    cfg = {"rates": rates}
    assert run_bytes(tmp_path, "relax-classify", cfg, "change") == reference_bytes(
        tmp_path, monkeypatch, "relax-classify", cfg)


def test_frame_is_cached_and_read_only():
    for n in (2, 3, 8):
        frame = qtfit._fit_frame(n)
        assert qtfit._fit_frame(n) is frame
        arrays = [*frame.pairs, *frame[1:]]
        assert all(isinstance(arr, np.ndarray) for arr in arrays)
        assert not any(arr.flags.writeable for arr in arrays)


def test_frame_cache_is_bounded():
    assert qtfit._fit_frame.cache_info().maxsize == qtfit.MAX_FIT_N


@st.composite
def rate_matrices(draw):
    """Rates m * 10**e with e up to +-300, a third of them zero (some -0.0)."""
    n = draw(st.integers(2, 8), label="n")
    cells = st.one_of(
        st.sampled_from([0.0, 0.0, -0.0]),
        st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 300)),
    )
    return np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n), label="w")).reshape(n, n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rate_matrices())
def test_stationary_state_bitwise(w):
    try:
        want = oracles.stationary_state_stacked(w).p
    except DegenerateChainError as exc:
        with pytest.raises(DegenerateChainError) as err:
            pme.stationary_state(w)
        assert str(err.value) == str(exc)
        return
    got = pme.stationary_state(w).p
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rate_matrices())
def test_build_generator_bitwise(w):
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(w.sum(axis=0))):
            return
    assert pme.build_generator(w).tobytes() == oracles.build_generator_per_entry(w).tobytes()


def test_column_of_negative_zeros():
    # Each diagonal is an fsum of the off-diagonal entries alone, as before,
    # so the sign of a zero sum does not hang on the +0.0 diagonal.
    w = [[0, -0.0, 1], [-0.0, 0, 1], [-0.0, -0.0, 0]]
    assert pme.build_generator(w).tobytes() == oracles.build_generator_per_entry(w).tobytes()
