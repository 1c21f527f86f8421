"""Fuzz of the CLI config boundary, with strategies built from cli._COMMANDS.

For every subcommand a draw keeps or drops each key of its table entry,
gives each kept key a valid value or a broken one (wrong type or shape,
NaN/Infinity tokens, +-1e+-300, 0, negative values, the large integers
2**31, 2**63 and 10**400, scaled or truncated copies of the valid value)
and may add unknown keys.  Whatever the config, the run must end within
MAX_SECONDS with exit 0, 2 or 3; any non-zero exit prints exactly one
``error:`` line and nothing else on stderr, numpy raises no warning, and
exit 2 leaves no output file.
"""

import contextlib
import io
import json
import os
import tempfile
import time
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qtrep import cli

# One valid value per key (besides out), small enough that a run takes
# milliseconds; the broken values are drawn around these.
VALID = {
    "pme-solve": {"W": [[0.0, 1.0], [2.0, 0.0]], "p0": [0.5, 0.5], "t_end": 0.5,
                  "dt": 0.01, "stride": 3},
    "qt-fit": {"W": [[0.0, 3.0, 5.0], [1.0, 0.0, 6.0], [2.0, 4.0, 0.0]]},
    "relax-classify": {"rates": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
    "relax-scan": {"samples": 16, "ranges": [0.0, 1.0], "constrain_omega_zero": True,
                   "bins": 3, "seed": 3},
    "lindblad": {"channel": {"dissipators": [{"A": [1.0, 0.0, 0.0], "B": [0.0, 1.0, 0.0]}]},
                 "P0": [0.1, 0.2, 0.3], "t_end": 0.1, "dt": 0.01, "stride": 2,
                 "gradient_check": True},
    "composite": {"a": 1.0, "c": 2.0, "k": 1.0},
}
VALID_COMMON = {"precision": 9}

SPECIAL = [float("nan"), float("inf"), float("-inf"), 1e300, -1e300, 1e-300,
           -1e-300, 0, 0.0, -1, -2.5, 1e308, 2**31, 2**63, 10**400]
WRONG = [None, True, "x", [], {}, [1.0, 2.0], [[1.0]], [[1.0, 2.0], [3.0]], {"h": 1}]
UNKNOWN = ["typo", "Out", "seeds", "dt_max"]
# Broken out values; an "OUT" prefix stands for a path in the run's
# directory, so the last two fail only on the NUL and on the surrogate no
# file system encodes.
BROKEN_OUT = ["", 5, "missing/o", ["o"], "OUT\0y", "OUT\ud800"]
# Wall-time bound per config.  Valid runs take milliseconds; the step,
# sample and bin budgets must stop any config long before this.
MAX_SECONDS = 10.0


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaves(value, path=()):
    """Paths of the numeric leaves of a JSON value."""
    if _is_number(value):
        return [path]
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [p for key, item in items for p in _leaves(item, path + (key,))]


def _scaled(value, factor):
    if _is_number(value):
        return value * factor
    if isinstance(value, dict):
        return {key: _scaled(item, factor) for key, item in value.items()}
    if isinstance(value, list):
        return [_scaled(item, factor) for item in value]
    return value


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _broken(valid):
    """A value broken around a valid one."""
    options = [st.sampled_from(SPECIAL), st.sampled_from(WRONG)]
    leaves = _leaves(valid)
    if leaves and not _is_number(valid):
        options.append(st.sampled_from(SPECIAL[:6]).map(lambda f: _scaled(valid, f)))
        options.append(st.builds(_replaced, st.just(valid), st.sampled_from(leaves),
                                 st.sampled_from(SPECIAL + WRONG)))
    if isinstance(valid, list) and valid:
        options.append(st.sampled_from([valid[:-1], valid + [valid[-1]]]))
    return st.one_of(options)


@st.composite
def configs(draw, name):
    """Up to two broken keys, each key dropped one time in sixteen."""
    keys = {**cli._COMMANDS[name].keys, **cli._COMMON_KEYS}
    valid = {**VALID[name], **VALID_COMMON, "out": "OUT"}
    broken = draw(st.sets(st.sampled_from(sorted(keys)), max_size=2))
    cfg = {}
    for key in keys:
        if draw(st.sampled_from([False] * 15 + [True])):
            continue
        if key not in broken:
            cfg[key] = draw(st.booleans()) if isinstance(valid[key], bool) else valid[key]
        elif key == "out":
            cfg[key] = draw(st.sampled_from(BROKEN_OUT))
        else:
            cfg[key] = draw(_broken(valid[key]))
    if draw(st.sampled_from([False] * 7 + [True])):
        cfg[draw(st.sampled_from(UNKNOWN))] = 1
    return cfg


def run_config(name, cfg):
    """Run one config in a fresh directory; return (code, stdout, stderr, files)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = cfg.get("out")
        if isinstance(out, str) and out.startswith("OUT"):
            cfg = {**cfg, "out": os.path.join(tmp, "o") + out[3:]}
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as handle:
            json.dump(cfg, handle)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([name, "--config", path])
        files = sorted(set(os.listdir(tmp)) - {"config.json"})
    return code, out.getvalue(), err.getvalue(), files


def check_contract(name, cfg):
    start = time.perf_counter()
    code, _, err, files = run_config(name, cfg)
    assert time.perf_counter() - start < MAX_SECONDS
    assert code in (0, 2, 3)
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert err.endswith("\n")
    else:
        assert err == ""
    if code == 2:
        assert files == []
    return code


def test_every_key_has_a_valid_value():
    for name, command in cli._COMMANDS.items():
        assert set(VALID[name]) | {"out"} == set(command.keys), name
    assert set(VALID_COMMON) == set(cli._COMMON_KEYS)


def _case(name, **changes):
    return name, {**VALID[name], **VALID_COMMON, "out": "OUT", **changes}


def test_valid_configs_succeed():
    for name in cli._COMMANDS:
        assert check_contract(*_case(name)) == 0, name


def _cases():
    return st.sampled_from(sorted(VALID)).flatmap(
        lambda name: configs(name).map(lambda cfg: (name, cfg)))


# The @example cases are defects this test found, each a traceback or a
# numpy warning before the fix, and a chain whose stationary ratio
# p1 / p0 = 1e310 overflows a double.  The two out paths failed after the
# fit had run, with a ValueError and a UnicodeEncodeError.
@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
@example(case=_case("qt-fit", W=[[0.0, 3.0, 5.0], [1.0, 0.0, 1e308], [2.0, 4.0, 0.0]]))
@example(case=_case("lindblad", channel={"dissipators": [
    {"A": [1.0, 0.0, 0.0], "B": [0.0, [], 0.0]}]}))
@example(case=_case("lindblad", P0=[-1e299, -2e299, -3e299]))
@example(case=_case("pme-solve", stride=10**400))
@example(case=_case("lindblad", stride=2**63))
@example(case=_case("relax-scan", ranges=[0.0, -0.0]))
@example(case=_case("relax-scan", ranges=[0.0, -10**400]))
@example(case=_case("pme-solve", W=[[0.0, 1e-10, 0.0], [1e300, 0.0, 1.0], [0.0, 1.0, 0.0]],
                    p0=[0.0, 0.5, 0.5], t_end=1e-300, dt=1e-303))
@example(case=_case("qt-fit", out="OUT\0y"))
@example(case=_case("pme-solve", out="OUT\ud800"))
def test_config_boundary(case):
    check_contract(*case)
