"""pme-solve and lindblad output bytes against a per-step reference.

The reference rebuilds each CSV from reference_integrate, which runs the
monitors as each step is accepted (bs_entropy on the clipped state, or
bloch_entropy), on the np.cross form of bloch_rhs, and picks the rows
0, stride, 2 * stride, ... and the last one from the full record.  The
report fields that do not come from the trajectory are taken from the
CLI's own report; the final state comes from the reference, and the
whole report is rendered again and compared byte for byte.  Comparing
against bytes computed on this machine, not stored hashes, keeps the
test independent of the platform's log.
"""

import json

import numpy as np
import pytest

from qtrep import _jsonio, cli, lindblad, pme
from test_dynamics import reference_integrate
from test_lindblad import literal_bloch_rhs


def reference_rhs(command, cfg):
    """(rhs, y0, entropy, final-state key) of a config, per the old CLI."""
    if command == "pme-solve":
        gen = pme.build_generator(pme.TransitionMatrix(cfg["W"]))
        entropy = lambda y: pme.bs_entropy(np.clip(y, 0.0, 1.0))
        return (lambda y: gen @ y), cfg["p0"], entropy, "final_state"
    channel = lindblad.LindbladChannel.from_dict(cfg["channel"])
    entropy = None
    if cfg.get("gradient_check", True):
        entropy = lambda y: lindblad.bloch_entropy(channel, y)
    return (lambda y: literal_bloch_rhs(channel, y)), cfg["P0"], entropy, "P_final"


def reference_csv(command, cfg):
    rhs, y0, entropy, key = reference_rhs(command, cfg)
    times, states, drift, s_values, _ = reference_integrate(
        rhs, y0, cfg["t_end"], cfg["dt"], entropy)
    count = times.size
    rows = np.arange(0, count, min(cfg["stride"], count))
    if rows[-1] != count - 1:
        rows = np.append(rows, count - 1)
    column = np.full(rows.size, np.nan) if s_values is None else s_values[rows]
    header = ["t"] + [f"y{i + 1}" for i in range(states.shape[1])] + ["entropy", "sum_drift"]
    columns = [times[rows], *states[rows].T, column, drift[rows]]
    return _jsonio.csv_text(header, columns, 17), key, [float(v) for v in states[-1]]


def pme_config(n, stride):
    rng = np.random.default_rng(n)
    w = rng.uniform(0.1, 3.0, (n, n))
    np.fill_diagonal(w, 0.0)
    p0 = rng.dirichlet(np.ones(n))
    p0[0] = 0.0  # an exact zero takes the masked entropy sum
    return {"W": w.tolist(), "p0": (p0 / p0.sum()).tolist(), "t_end": 1.3,
            "dt": 0.0137, "stride": stride}


GRADIENT = {"dissipators": [{"A": [0.5, 0.1, -0.3], "B": [0.2, -0.4, 0.6]}]}
FIELD_TWO = {"h": [0.3, -1.1, 0.7],
             "dissipators": [{"A": [0.5, 0.1, -0.3], "B": [0.2, -0.4, 0.6]},
                             {"A": [-0.8, 0.2, 0.1], "B": [0.0, 0.9, -0.2]}]}

CONFIGS = [
    ("pme-solve", pme_config(n, stride)) for n in range(3, 9) for stride in (1, 7)
] + [
    ("lindblad", {"channel": GRADIENT, "P0": [0.3, -0.2, 0.1], "t_end": 0.77,
                  "dt": 0.01, "stride": stride}) for stride in (1, 10)
] + [
    ("lindblad", {"channel": FIELD_TWO, "P0": [0.1, 0.6, -0.2], "t_end": 0.77,
                  "dt": 0.01, "stride": stride, "gradient_check": False})
    for stride in (1, 10)
]


@pytest.mark.parametrize("command, cfg", CONFIGS,
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(CONFIGS)])
def test_outputs_match_per_step_reference(tmp_path, command, cfg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**cfg, "out": str(tmp_path / "r")}))
    assert cli.main([command, "--config", str(path)]) == 0
    csv, key, final = reference_csv(command, cfg)
    assert (tmp_path / "r.csv").read_text() == csv
    text = (tmp_path / "r.json").read_text()
    report = json.loads(text)
    report[key] = final
    assert text == _jsonio.dumps(report, precision=17)
