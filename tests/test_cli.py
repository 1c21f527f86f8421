"""CLI contract: schemas, exit codes, determinism, atomic output."""

import json
import warnings

import numpy as np
import pytest

from qtrep import cli, qtfit
from qtrep.errors import InputError


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return cli.main([str(a) for a in args])


def error_lines(capsys):
    return [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("error:")
    ]


@pytest.fixture
def chain3():
    return [[0.0, 3.0, 5.0], [1.0, 0.0, 6.0], [2.0, 4.0, 0.0]]


class TestConfigHandling:
    def test_missing_file(self, tmp_path, capsys):
        assert run(["qt-fit", "--config", tmp_path / "nope.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"W": [[0, 1], [2, 0]')
        assert run(["qt-fit", "--config", cfg]) == 2
        assert not (tmp_path / "result.json").exists()
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_config_rejected(self, tmp_path):
        cfg = tmp_path / "arr.json"
        cfg.write_text("[1, 2, 3]")
        assert run(["qt-fit", "--config", cfg]) == 2

    def test_unknown_key_rejected(self, tmp_path, capsys, chain3):
        cfg = write_config(
            tmp_path / "c.json",
            {"W": chain3, "out": str(tmp_path / "r"), "typo_key": 1},
        )
        assert run(["qt-fit", "--config", cfg]) == 2
        assert "typo_key" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_wrong_type_rejected(self, tmp_path, chain3):
        cfg = write_config(
            tmp_path / "c.json",
            {"W": chain3, "out": str(tmp_path / "r"), "seed": "zero"},
        )
        assert run(["qt-fit", "--config", cfg]) == 2


class TestQtFit:
    def test_writes_representation(self, tmp_path, chain3):
        out = tmp_path / "rep"
        cfg = write_config(tmp_path / "c.json", {"W": chain3, "out": str(out)})
        assert run(["qt-fit", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        rep = qtfit.QTRepresentation.from_json_dict(doc)
        assert rep.n == 3
        assert rep.residual < 1e-8

    def test_byte_identical_reruns(self, tmp_path, chain3):
        out = tmp_path / "rep"
        cfg = write_config(
            tmp_path / "c.json", {"W": chain3, "out": str(out), "seed": 4}
        )
        assert run(["qt-fit", "--config", cfg]) == 0
        first = (tmp_path / "rep.json").read_bytes()
        assert run(["qt-fit", "--config", cfg]) == 0
        assert (tmp_path / "rep.json").read_bytes() == first

    def test_negative_rate_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"W": [[0.0, -1.0], [1.0, 0.0]], "out": str(tmp_path / "r")},
        )
        assert run(["qt-fit", "--config", cfg]) == 2

    def test_overflowing_rates_rejected(self, tmp_path, capsys):
        w = [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]
        cfg = write_config(tmp_path / "c.json", {"W": w, "out": str(tmp_path / "r")})
        assert run(["qt-fit", "--config", cfg]) == 2
        assert error_lines(capsys) == ["error: rate matrix column sums are not finite"]
        assert not (tmp_path / "r.json").exists()

    @staticmethod
    def stiff_chain(s):
        return [[0, s, 1e-6, 1], [1, 0, 1, 1], [1e-6, 1, 0, s], [1, 1, 1, 0]]

    def test_stiff_chain_within_tolerance(self, tmp_path, capsys):
        out = tmp_path / "rep"
        cfg = write_config(
            tmp_path / "c.json", {"W": self.stiff_chain(1e7), "out": str(out)}
        )
        assert run(["qt-fit", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["residual"] <= 1e-8

    @pytest.mark.parametrize("w", [
        stiff_chain(1e9),
        [[0, 1e300, 1e300], [1e300, 0, 1e300], [1e300, 1e300, 0]],
    ], ids=["stiff-1e9", "all-1e300"])
    def test_scaled_rates_within_relative_tolerance(self, tmp_path, capfd, w):
        # Roundoff tops 1e-8 in absolute terms, not relative to max|L|;
        # the written residual stays the absolute mismatch.
        cfg = write_config(tmp_path / "c.json", {"W": w, "out": str(tmp_path / "rep")})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["qt-fit", "--config", cfg]) == 0
        assert capfd.readouterr().err == ""
        doc = json.loads((tmp_path / "rep.json").read_text())
        # max|L| is the largest column sum of the rates.
        assert 1e-8 < doc["residual"] <= 1e-8 * np.max(np.sum(w, axis=0))

    def test_residual_above_tolerance_exits_3(self, tmp_path, capsys, chain3, monkeypatch):
        # Shift the corrected coefficient by one: a real misfit.
        step = qtfit._gauss_newton_step

        def shifted_step(gen, r, q):
            r, q = step(gen, r, q)
            return r + 1.0, q

        monkeypatch.setattr(qtfit, "_gauss_newton_step", shifted_step)
        out = tmp_path / "rep"
        cfg = write_config(tmp_path / "c.json", {"W": chain3, "out": str(out)})
        assert run(["qt-fit", "--config", cfg]) == 3
        errors = error_lines(capsys)
        assert len(errors) == 1
        assert errors[0].endswith("above 1.100e-07 = 1e-08 * max(1, max|L|)")
        doc = json.loads((tmp_path / "rep.json").read_text())
        rep = qtfit.QTRepresentation.from_json_dict(doc)
        assert rep.n == 3
        assert rep.residual > 1e-2


class TestPmeSolve:
    def test_trajectory_and_report(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "W": [[0.0, 1.0], [2.0, 0.0]],
                "p0": [0.9, 0.1],
                "t_end": 2.0,
                "stride": 100,
                "out": str(out),
            },
        )
        assert run(["pme-solve", "--config", cfg]) == 0
        report = json.loads((tmp_path / "run.json").read_text())
        np.testing.assert_allclose(report["stationary"], [1 / 3, 2 / 3], atol=1e-10)
        assert report["zero_mode_index"] == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == "t,y1,y2,entropy,sum_drift"
        last = lines[-1].split(",")
        assert float(last[0]) == 2.0
        np.testing.assert_allclose(
            [float(last[1]), float(last[2])], report["final_state"], atol=0
        )

    def test_state_dimension_mismatch(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "W": [[0.0, 1.0], [2.0, 0.0]],
                "p0": [0.5, 0.3, 0.2],
                "t_end": 1.0,
                "out": str(tmp_path / "r"),
            },
        )
        assert run(["pme-solve", "--config", cfg]) == 2

    def test_overflowing_rates_rejected(self, tmp_path, capsys):
        w = [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]
        cfg = write_config(
            tmp_path / "c.json",
            {"W": w, "p0": [1, 0, 0], "t_end": 1.0, "out": str(tmp_path / "r")},
        )
        assert run(["pme-solve", "--config", cfg]) == 2
        assert error_lines(capsys) == ["error: rate matrix column sums are not finite"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_reducible_chain_fails_before_integrating(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.dynamics, "integrate", lambda *a, **k: calls.append(a))
        cfg = write_config(
            tmp_path / "c.json",
            {"W": [[0, 0, 0], [1, 0, 0], [0, 0, 0]], "p0": [1, 0, 0], "t_end": 1000,
             "dt": 0.001, "out": str(tmp_path / "r")},
        )
        assert run(["pme-solve", "--config", cfg]) == 2
        assert error_lines(capsys) == [
            "error: generator kernel has dimension 2 at relative SVD threshold 1e-10, "
            "expected 1 (reducible chain, or rates too far apart to resolve)"
        ]
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_bad_probability_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "W": [[0.0, 1.0], [2.0, 0.0]],
                "p0": [0.9, 0.3],
                "t_end": 1.0,
                "out": str(tmp_path / "r"),
            },
        )
        assert run(["pme-solve", "--config", cfg]) == 2


class TestRelaxCommands:
    def test_classify_to_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"rates": [1, 2, 3, 4, 5, 6]})
        assert run(["relax-classify", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["xi"] == 21
        assert doc["disc"] == 65
        assert doc["monotonic"] is True

    def test_classify_to_file(self, tmp_path):
        out = tmp_path / "cls"
        cfg = write_config(
            tmp_path / "c.json", {"rates": [1, 0, 0, 1, 1, 0], "out": str(out)}
        )
        assert run(["relax-classify", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "cls.json").read_text())
        assert doc["monotonic"] is False
        assert doc["omega"] == 3

    def test_scan_outputs(self, tmp_path):
        out = tmp_path / "scan"
        cfg = write_config(
            tmp_path / "c.json",
            {"samples": 64, "ranges": [0, 1], "seed": 7, "out": str(out)},
        )
        assert run(["relax-scan", "--config", cfg]) == 0
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "a,b,c,d,e,f,xi,disc,omega,u,v,monotonic"
        assert len(lines) == 65
        summary = json.loads((tmp_path / "scan.json").read_text())
        assert summary["samples"] == 64
        assert 0.0 <= summary["oscillatory_fraction"] <= 1.0
        assert len(summary["omega_bins"]) == 10

    def test_scan_determinism(self, tmp_path):
        out = tmp_path / "scan"
        cfg = write_config(
            tmp_path / "c.json", {"samples": 32, "seed": 3, "out": str(out)}
        )
        assert run(["relax-scan", "--config", cfg]) == 0
        first = (tmp_path / "scan.csv").read_bytes()
        assert run(["relax-scan", "--config", cfg]) == 0
        assert (tmp_path / "scan.csv").read_bytes() == first

    def test_scalar_ranges_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", {"samples": 8, "ranges": 5, "out": str(tmp_path / "s")}
        )
        assert run(["relax-scan", "--config", cfg]) == 2
        assert len(error_lines(capsys)) == 1
        assert not (tmp_path / "s.csv").exists()

    def test_non_finite_scan_value_writes_nothing(self, tmp_path, capsys):
        # xi sums six rates of up to 1e308, so it overflows to inf
        cfg = write_config(
            tmp_path / "c.json",
            {"samples": 8, "ranges": [0, 1e308], "out": str(tmp_path / "s")},
        )
        assert run(["relax-scan", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot serialize non-finite value")
        assert err.count("\n") == 1
        assert not (tmp_path / "s.csv").exists()
        assert not (tmp_path / "s.json").exists()


class TestLindblad:
    def test_gradient_channel_report(self, tmp_path):
        out = tmp_path / "lb"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "channel": {"dissipators": [{"A": [1, 0, 0], "B": [0, 1, 0]}]},
                "P0": [0.2, 0.1, -0.3],
                "t_end": 4.0,
                "stride": 500,
                "out": str(out),
            },
        )
        assert run(["lindblad", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "lb.json").read_text())
        np.testing.assert_allclose(doc["P_st"], [0, 0, 1], atol=1e-12)
        assert doc["P_st_abs"] == pytest.approx(1.0, abs=1e-12)
        assert doc["gradient_identity_residual"] < 1e-12
        assert doc["six_variable_equivalence_residual"] < 1e-10
        np.testing.assert_allclose(doc["P_final"], doc["P_st"], atol=1e-2)

    def test_field_channel_rejected_by_default(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "channel": {
                    "h": [0, 0, 1],
                    "dissipators": [{"A": [1, 0, 0], "B": [0, 1, 0]}],
                },
                "P0": [0.1, 0.0, 0.0],
                "t_end": 1.0,
                "out": str(tmp_path / "r"),
            },
        )
        assert run(["lindblad", "--config", cfg]) == 2
        assert "gradient form unavailable" in capsys.readouterr().err

    def test_field_channel_allowed_without_check(self, tmp_path):
        out = tmp_path / "lb"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "channel": {
                    "h": [0, 0, 1],
                    "dissipators": [{"A": [1, 0, 0], "B": [0, 1, 0]}],
                },
                "P0": [0.1, 0.0, 0.0],
                "t_end": 1.0,
                "gradient_check": False,
                "out": str(out),
            },
        )
        assert run(["lindblad", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "lb.json").read_text())
        assert "P_final" in doc
        assert "P_st" not in doc
        # no entropy monitor without the gradient form
        lines = (tmp_path / "lb.csv").read_text().splitlines()
        assert lines[1].split(",")[4] == "nan"


class TestComposite:
    def test_report_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"a": 2.0, "c": 2.0})
        assert run(["composite", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == 4
        assert doc["q"] == 2
        assert doc["tsallis_coupling"] == -1
        assert doc["gradient_residual"] < 1e-12
        np.testing.assert_allclose(doc["stationary"], 0.25, atol=1e-9)

    def test_bad_rate_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"a": -1.0, "c": 2.0})
        assert run(["composite", "--config", cfg]) == 2

    @pytest.mark.parametrize("a, c, k, expected", [
        (1.0, 1.0, 1e-300, -0.5),  # (1 - q) / k read 0: q rounds to 1
        (1.0, 1.0, 1e-10, -0.5),  # (1 - q) / k read -0.5000000413701855
        (1e-12, 3e-12, 1.0, -1e-12),  # (1 - q) / k read -1.000088900582341e-12
        (0.37, 2.9, 1.0, -0.8175),  # (1 - q) / k read -0.8174999999999999
    ])
    def test_tsallis_coupling_exact(self, tmp_path, capsys, a, c, k, expected):
        cfg = write_config(tmp_path / "c.json", {"a": a, "c": c, "k": k})
        assert run(["composite", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["tsallis_coupling"] == expected


class TestOutPath:
    def test_missing_directory_relax_scan(self, tmp_path, capsys):
        out = tmp_path / "missing" / "scan"
        cfg = write_config(tmp_path / "c.json", {"samples": 8, "out": str(out)})
        assert run(["relax-scan", "--config", cfg]) == 2
        errors = error_lines(capsys)
        assert len(errors) == 1
        assert "does not exist" in errors[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_missing_directory_pme_solve(self, tmp_path, capsys):
        out = tmp_path / "missing" / "run"
        cfg = write_config(
            tmp_path / "c.json",
            {"W": [[0.0, 1.0], [2.0, 0.0]], "p0": [0.9, 0.1], "t_end": 1.0,
             "out": str(out)},
        )
        assert run(["pme-solve", "--config", cfg]) == 2
        errors = error_lines(capsys)
        assert len(errors) == 1
        assert "does not exist" in errors[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


class TestAtomicWrites:
    def test_no_partial_file_on_failure(self, tmp_path):
        # stationary_state fails after the trajectory would be computed;
        # no output may exist afterwards
        out = tmp_path / "part"
        w = [[0.0, 0.0, 0.0, 0.0] for _ in range(4)]
        w[0][1] = w[1][0] = 1.0
        w[2][3] = w[3][2] = 1.0
        cfg = write_config(
            tmp_path / "c.json",
            {"W": w, "p0": [0.25, 0.25, 0.25, 0.25], "t_end": 0.1, "out": str(out)},
        )
        assert run(["pme-solve", "--config", cfg]) == 2
        assert not (tmp_path / "part.json").exists()
        assert not (tmp_path / "part.csv").exists()

    def test_existing_file_is_replaced(self, tmp_path, chain3):
        out = tmp_path / "rep"
        (tmp_path / "rep.json").write_text("stale")
        cfg = write_config(tmp_path / "c.json", {"W": chain3, "out": str(out)})
        assert run(["qt-fit", "--config", cfg]) == 0
        assert "stale" not in (tmp_path / "rep.json").read_text()


LINDBLAD_CHANNEL = {"dissipators": [{"A": [1, 0, 0], "B": [0, 1, 0]}]}


class TestBoundary:
    """Configs outside the supported cases: one error line, no output."""

    @pytest.mark.parametrize(
        "command, cfg, code, message",
        [
            ("pme-solve",
             {"W": [[0, 1], [2, 0]], "p0": [1, 0], "t_end": 1e308, "dt": 1e-10},
             2, "error: t_end / dt = inf steps exceeds the budget of 1000000 steps; raise dt"),
            ("pme-solve",
             {"W": [[0, 1e300], [1e300, 0]], "p0": [1, 0], "t_end": 1.0},
             2, "error: t_end / dt = 1e+303 steps exceeds the budget of 1000000 steps; raise dt"),
            ("lindblad",
             {"channel": LINDBLAD_CHANNEL, "P0": [3, 0, 0], "t_end": 0.01},
             2, "error: P0 must lie in the Bloch ball, got |P0| = 3.0"),
            ("composite", {"a": 1e-200, "c": 1e-200}, 2,
             "error: rates a=1e-200 and c=1e-200 must be > 0, with a finite sum "
             "and a finite, positive product"),
            ("composite", {"a": 1e200, "c": 1e200}, 2,
             "error: rates a=1e+200 and c=1e+200 must be > 0, with a finite sum "
             "and a finite, positive product"),
            ("composite", {"a": 1e308, "c": 1e308}, 2,
             "error: rates a=1e+308 and c=1e+308 must be > 0, with a finite sum "
             "and a finite, positive product"),
            ("lindblad",
             {"channel": {"dissipators": [{"A": [30, 0, 0], "B": [0, 30, 0]}]},
              "P0": [0.3, -0.2, 0.1], "t_end": 50, "dt": 0.5},
             2, "error: non-finite state at step 30 (t = 15.0)"),
            ("lindblad",
             {"channel": {"dissipators": [{"A": [1e300, 0, 0], "B": [0, 1, 0]}]},
              "P0": [0.1, 0, 0], "t_end": 1.0},
             2, "error: channel rate scale |h| + sum(A**2 + B**2) is not finite"),
            ("qt-fit", {"W": [[0, 1], [2, 0]], "precision": cli.MAX_PRECISION + 1},
             2, f"error: precision must be <= {cli.MAX_PRECISION}, got 768"),
            ("composite", {"a": 10**400, "c": 1.0}, 2, "error: a must be finite"),
            ("composite", {"a": 1e154, "c": 1e154, "k": 1e300}, 2,
             "error: k=1e+300 with a=1e+154 and c=1e+154 overflows q = 1 + k (a + c) / 4"),
            ("pme-solve", {"W": [[0, 1e-320], [1e-320, 0]], "p0": [1, 0], "t_end": 1.0}, 2,
             "error: max rate 1e-320 is too small for the default dt = 1e-3 / max rate; "
             "set dt"),
            ("lindblad",
             {"channel": {"dissipators": [{"A": [1e-160, 0, 0], "B": [0, 0, 0]}]},
              "P0": [0.1, 0, 0], "t_end": 1.0, "gradient_check": False},
             2, "error: rate scale 1e-320 is too small for the default dt = 1e-3 / "
             "rate scale; set dt"),
            ("relax-scan", {"samples": 2**63}, 2,
             "error: samples = 9223372036854775808 exceeds the budget of 1000000 samples"),
            ("relax-scan", {"samples": 10**9}, 2,
             "error: samples = 1000000000 exceeds the budget of 1000000 samples"),
            ("relax-scan", {"samples": 10, "bins": 10**9}, 2,
             "error: bins = 1000000000 exceeds the budget of 10000 bins"),
            ("relax-scan",
             {"samples": 5, "ranges": [[1e308, 1.7e308], [0, 1], [0, 1], [1e308, 1.7e308],
                                       [1e308, 1.7e308], [0, 1]]},
             2, "error: cannot serialize non-finite value inf"),
            ("composite", {"a": 1e308, "c": 1e-10}, 2,
             "error: generator kernel has dimension 4 at relative SVD threshold 1e-10, "
             "expected 1 (reducible chain, or rates too far apart to resolve)"),
            ("lindblad",
             {"channel": {"dissipators": [{"A": [1, 0, 0], "B": [2, 0, 0]}]},
              "P0": [0.3, -0.2, 0.1], "t_end": 1.0},
             2, "error: A x B = 0 (A and B parallel or zero): no unique stationary state"),
            ("lindblad",
             {"channel": LINDBLAD_CHANNEL, "P0": [float("nan"), 0, 0], "t_end": 0.01},
             2, "error: P0 has non-finite entries"),
            ("qt-fit", {"W": [["0", "3"], ["1", "0"]]}, 2,
             "error: W must be a numeric matrix"),
            ("pme-solve", {"W": [[0, 1], [2, 0]], "p0": ["1", 0], "t_end": 1.0}, 2,
             "error: p0 must be a numeric vector"),
            ("relax-scan", {"samples": 4, "ranges": ["0", "1"]}, 2,
             "error: ranges must be a numeric 2-vector or 6x2 matrix"),
            ("relax-scan", {"samples": 4, "ranges": [[0, 1], [0, 1]]}, 2,
             "error: ranges must be a 2-vector or 6x2 matrix, got shape (2, 2)"),
            ("relax-scan", {"samples": 4, "ranges": [0, float("inf")]}, 2,
             "error: ranges has non-finite entries"),
        ],
    )
    def test_rejected_with_one_line(self, tmp_path, capfd, command, cfg, code, message):
        out = tmp_path / "r"
        config = write_config(tmp_path / "c.json", {**cfg, "out": str(out)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--config", config]) == code
        assert capfd.readouterr().err == message + "\n"
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == (["c.json"] if code == 2 else ["c.json", "r.json"])

    @pytest.mark.parametrize("key, value, kind", [
        ("W", [[0, 1 + 2j], [1, 0]], "matrix"),
        ("W", np.array([[0, 2j], [1, 0]], dtype=object), "matrix"),
        ("p0", [0.5, 0.5 + 0j], "vector"),
    ])
    def test_complex_array_rejected_by_reader(self, key, value, kind):
        # JSON has no complex numbers; a config reader still gets one
        # only through a library caller, and must not truncate it.
        read = cli._COMMANDS["pme-solve"].keys[key][0]
        with pytest.raises(InputError, match=rf"^{key} must be a numeric {kind}$"):
            read(key, value)

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[" * 100000)
        assert run(["qt-fit", "--config", cfg]) == 2
        assert len(error_lines(capsys)) == 1

    def test_stride_past_row_count_matches_row_count(self, tmp_path):
        texts = []
        for stride in (51, 10**400):
            out = tmp_path / f"s{len(texts)}"
            cfg = write_config(
                tmp_path / "c.json",
                {"W": [[0, 1], [2, 0]], "p0": [1, 0], "t_end": 0.5, "dt": 0.01,
                 "stride": stride, "out": str(out)},
            )
            assert run(["pme-solve", "--config", cfg]) == 0
            texts.append((tmp_path / f"{out.name}.csv").read_text())
        assert texts[0] == texts[1]
        assert len(texts[0].splitlines()) == 3


class TestHelp:
    def test_description_from_table(self):
        parser = cli.build_parser()
        sub = parser._subparsers._group_actions[0].choices["pme-solve"]
        assert sub.description == (
            "Integrate a master equation and report its stationary state.\n"
            "Config: {W: NxN rate matrix, p0: length-N probabilities, t_end: "
            "number, dt: number (default 1e-3 / max rate), stride: int "
            "(default 1), out: path base}. Common keys: seed (int, default 0), "
            "precision (int, default 17).\n"
            "Writes <out>.csv (t, y1..yN, entropy, sum_drift) and <out>.json."
        )

    def test_every_key_in_help(self):
        choices = cli.build_parser()._subparsers._group_actions[0].choices
        assert list(choices) == list(cli._COMMANDS)
        for name, command in cli._COMMANDS.items():
            text = choices[name].description
            assert text.splitlines()[0] == command.summary
            for key in [*command.keys, *cli._COMMON_KEYS]:
                assert key in text, (name, key)
