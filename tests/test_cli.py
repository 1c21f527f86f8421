"""CLI contract: schemas, exit codes, determinism, atomic output."""

import json
import warnings

import numpy as np
import pytest

from qtrep import cli, composite, lindblad, qtfit, relaxation
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
            {"W": chain3, "out": str(tmp_path / "r"), "precision": "nine"},
        )
        assert run(["qt-fit", "--config", cfg]) == 2

    @pytest.mark.parametrize("name, payload", [
        ("pme-solve", {"W": [[0, 1], [2, 0]], "p0": [0.5, 0.5], "t_end": 0.1}),
        ("qt-fit", {"W": [[0, 1], [2, 0]]}),
        ("relax-classify", {"rates": [1, 2, 3, 4, 5, 6]}),
        ("lindblad", {"channel": {"dissipators": [{"A": [1, 0, 0], "B": [0, 1, 0]}]},
                      "P0": [0.1, 0.2, 0.3], "t_end": 0.1}),
        ("composite", {"a": 1.0, "c": 2.0}),
    ])
    def test_seed_belongs_to_relax_scan_alone(self, tmp_path, capsys, name, payload):
        # Only relax-scan draws random numbers; elsewhere seed is an unknown key.
        cfg = write_config(tmp_path / "c.json", {**payload, "seed": 0, "out": str(tmp_path / "r")})
        assert run([name, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown {name} config keys: seed\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


class TestQtFit:
    def test_writes_representation(self, tmp_path, chain3):
        out = tmp_path / "rep"
        cfg = write_config(tmp_path / "c.json", {"W": chain3, "out": str(out)})
        assert run(["qt-fit", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert list(doc) == ["q", "r", "norm", "residual"]
        rep = qtfit.QTRepresentation.from_json_dict(doc)
        assert rep.n == 3
        assert rep.residual < 1e-8

    def test_byte_identical_reruns(self, tmp_path, chain3):
        out = tmp_path / "rep"
        cfg = write_config(tmp_path / "c.json", {"W": chain3, "out": str(out)})
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

    def test_size_above_cap_rejected(self, tmp_path, capsys, monkeypatch):
        n = qtfit.MAX_FIT_N + 1
        w = np.ones((n, n)) - np.eye(n)
        cfg = write_config(tmp_path / "c.json", {"W": w.tolist(), "out": str(tmp_path / "r")})

        def no_solve(gen):
            raise AssertionError("the closed form ran above the cap")

        # Nothing is built above the cap: the solve is never reached.
        monkeypatch.setattr(qtfit, "_closed_form", no_solve)
        assert run(["qt-fit", "--config", cfg]) == 2
        assert error_lines(capsys) == [
            f"error: n = {n} exceeds the fit cap MAX_FIT_N = {qtfit.MAX_FIT_N}"
        ]
        assert not (tmp_path / "r.json").exists()

    def test_size_at_cap_fits_cold(self, tmp_path, capsys):
        n = qtfit.MAX_FIT_N
        w = np.random.default_rng(0).uniform(0.05, 1.0, (n, n))
        np.fill_diagonal(w, 0.0)
        cfg = write_config(tmp_path / "c.json", {"W": w.tolist(), "out": str(tmp_path / "r")})
        assert run(["qt-fit", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "r.json").read_text())
        assert len(doc["q"]) == n
        # max|L| is the largest column sum of the rates.
        assert doc["residual"] <= qtfit.ACCEPT_TOL * max(1.0, np.max(np.sum(w, axis=0)))

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
        # Shift the fitted coefficient by one: a real misfit.
        solve = qtfit._closed_form

        def shifted_solve(gen):
            # The flow operator the residual is taken from follows the shifted r.
            r, q, _ = solve(gen)
            n, frame = gen.shape[0], qtfit._fit_frame(gen.shape[0])
            r = r + 1.0
            op = qtfit._flow_operator(n, qtfit.normalizer(n), r, frame.cuts, frame.pairs)
            return r, q, op

        monkeypatch.setattr(qtfit, "_closed_form", shifted_solve)
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

    def test_zero_mode_roundoff_passes_stability_check(self, tmp_path, capsys):
        # The zero mode reads 3.6e-15, so |R(dt * lambda_0)| = 1 + 4.4e-16;
        # every other mode is damped (|R| <= 0.32): dt = 0.1 is stable.
        w = [[0.0, 4.0, 6.0], [2.0, 0.0, 5.0], [9.0, 8.0, 0.0]]
        cfg = write_config(
            tmp_path / "c.json",
            {"W": w, "p0": [0.2, 0.3, 0.5], "t_end": 1.0, "dt": 0.1, "out": str(tmp_path / "r")},
        )
        assert run(["pme-solve", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""

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
            "error: no unique stationary state: 2 closed classes"
        ]
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_stationary_ratio_beyond_float_range(self, tmp_path):
        # p0 / p1 = 1e-10 / 1e300: its inverse overflows, p0 is subnormal.
        w = [[0, 1e-10, 0], [1e300, 0, 1], [0, 1, 0]]
        out = tmp_path / "r"
        cfg = write_config(
            tmp_path / "c.json",
            {"W": w, "p0": [0, 0.5, 0.5], "t_end": 1e-300, "out": str(out)},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["pme-solve", "--config", cfg]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["stationary"] == [5e-311, 0.5, 0.5]

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

    def test_negative_entry_printed_as_python_float(self, tmp_path, capsys):
        # the same line under numpy 1.x and 2.x: no np.float64(...) repr
        cfg = write_config(
            tmp_path / "c.json",
            {"W": [[0.0, 1.0], [2.0, 0.0]], "p0": [1.1, -0.1], "t_end": 1.0,
             "out": str(tmp_path / "r")},
        )
        assert run(["pme-solve", "--config", cfg]) == 2
        assert error_lines(capsys) == ["error: state has negative entries: min = -0.1"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


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

    def test_scan_seed_selects_the_sample(self, tmp_path):
        def scan(name, **seed):
            cfg = write_config(tmp_path / f"{name}.json",
                               {"samples": 32, "out": str(tmp_path / name), **seed})
            assert run(["relax-scan", "--config", cfg]) == 0
            return (tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}.json").read_bytes()

        default = scan("default")
        assert scan("zero", seed=0) == default
        assert scan("again", seed=5) == scan("five", seed=5)
        assert scan("five", seed=5)[0] != default[0]

    def test_bins_budget_checked_before_sampling(self, tmp_path, capsys, monkeypatch):
        # The config reader checks bins, so an over-budget count draws no sample.
        def no_scan(*args, **kwargs):
            raise AssertionError("scan called")

        monkeypatch.setattr(relaxation, "scan", no_scan)
        cfg = write_config(tmp_path / "c.json", {"samples": 10, "bins": 10**9,
                                                 "out": str(tmp_path / "s")})
        assert run(["relax-scan", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: bins = 1000000000 exceeds the budget of 10000 bins\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

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

    @pytest.mark.parametrize("channel, message", [
        ({"dissipators": []}, "channel needs at least one dissipator"),
        ({"dissipators": [[[1, 0, 0], [0, 1, 0]]]},
         "dissipator 0 must be a JSON object, got list"),
        ({"dissipators": 5}, "dissipators must be a sequence, got int"),
        ({"dissipators": "ab"}, "dissipators must be a sequence, got str"),
        ({"dissipators": [{"A": [1, 0, 0], "B": [0, 1, 0], "C": 1}]},
         "unknown dissipator 0 keys: C"),
        ([1, 2], "channel must be a JSON object, got list"),
    ], ids=["no-dissipator", "pair-list", "int", "string", "unknown-key", "list"])
    def test_bad_channel_one_error_line(self, tmp_path, capsys, channel, message):
        cfg = write_config(
            tmp_path / "c.json",
            {"channel": channel, "P0": [0.0, 0.0, 0.0], "t_end": 0.1, "out": str(tmp_path / "lb")},
        )
        assert run(["lindblad", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_residuals_over_the_tetrahedron(self, tmp_path):
        # The identities are affine in P: the report checks them on the four
        # vertices (+-1, +-1, +-1)/sqrt(3) with an even number of minus signs.
        spec = {"dissipators": [{"A": [0.4, -0.7, -1.4], "B": [-1.5, 0.9, 1.2]}]}
        cfg = write_config(
            tmp_path / "c.json",
            {"channel": spec, "P0": [0.1, 0.2, 0.3], "t_end": 0.01, "out": str(tmp_path / "lb")},
        )
        assert run(["lindblad", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "lb.json").read_text())
        channel = lindblad.LindbladChannel.from_dict(spec)
        vertices = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        grads = [lindblad.gradient_rhs(channel, p) for p in vertices]
        flows = [lindblad.bloch_rhs(channel, p) for p in vertices]
        sixes = [lindblad.extract_bloch(lindblad.qt_six_rhs(channel, lindblad.embed_six(p)))
                 for p in vertices]
        # Both are relative to the rate scale |h| + sum(A**2 + B**2), h = 0 here.
        a, b = np.array(spec["dissipators"][0]["A"]), np.array(spec["dissipators"][0]["B"])
        scale = float(a @ a + b @ b)
        assert scale > 1
        grad_resid = float(np.max(np.abs(np.subtract(flows, grads)))) / scale
        six_resid = float(np.max(np.abs(np.subtract(sixes, grads)))) / scale
        assert doc["gradient_identity_residual"] == grad_resid
        assert doc["six_variable_equivalence_residual"] == six_resid
        # Neither reads 0 on this channel, and another point set gives
        # other values: the equalities pin the four vertices.
        assert 0 < grad_resid < 1e-14 and 0 < six_resid < 1e-14

    def test_residuals_relative_to_the_rate_scale(self, tmp_path):
        # Rate scale 7.11e8: the absolute roundoff mismatch reaches 1e-7.
        spec = {"dissipators": [{"A": [4e3, -7e3, -1.4e4], "B": [-1.5e4, 9e3, 1.2e4]}]}
        cfg = write_config(
            tmp_path / "c.json",
            {"channel": spec, "P0": [0.1, 0.2, 0.3], "t_end": 1e-9, "out": str(tmp_path / "lb")},
        )
        assert run(["lindblad", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "lb.json").read_text())
        assert 0 < doc["gradient_identity_residual"] < 1e-15
        assert 0 < doc["six_variable_equivalence_residual"] < 1e-15

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
        assert doc["stationary"] == [0.25] * 4

    @pytest.mark.parametrize("a, c", [
        (0.37, 2.9), (1e4, 1e-4), (1e6, 1e-6), (2.0**53, 2.0), (1e308, 1e-10),
    ])
    def test_stiff_rates_exactly_uniform(self, tmp_path, capsys, a, c):
        # Both subsystems are symmetric, so each product state has 1/4.
        cfg = write_config(tmp_path / "c.json", {"a": a, "c": c})
        assert run(["composite", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["stationary"] == [0.25] * 4

    def test_residual_over_four_mixed_product_states(self, tmp_path, capsys):
        # The flow is linear in the state: the report checks it on the four
        # product states with marginals in {1/4, 3/4}, a basis of R^4.
        cfg = write_config(tmp_path / "c.json", {"a": 0.37, "c": 2.9})
        assert run(["composite", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        system = composite.CompositeSystem.with_lambda_star(0.37, 2.9)
        gen = composite.composite_generator(system)
        states = [composite.product_state(p, q) for p in (0.25, 0.75) for q in (0.25, 0.75)]
        assert np.linalg.matrix_rank(states) == 4
        # Relative to a + c = max|L|.
        residual = max(float(np.max(np.abs(composite.qt_flow(system, w) - gen @ w)))
                       for w in states) / (0.37 + 2.9)
        assert doc["gradient_residual"] == residual
        assert 0 < residual < 1e-14

    def test_residual_relative_to_the_rate_scale(self, tmp_path, capsys):
        # a = 2**53: one unit in the last place of L is 0.5 in absolute terms.
        cfg = write_config(tmp_path / "c.json", {"a": 2**53, "c": 2})
        assert run(["composite", "--config", cfg]) == 0
        assert 0 < json.loads(capsys.readouterr().out)["gradient_residual"] < 1e-15

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

    @pytest.mark.parametrize("command, cfg, target", [
        ("relax-classify", {"rates": [1, 2, 3, 4, 5, 6]}, "r.json"),
        ("qt-fit", {"W": [[0.0, 3.0, 5.0], [1.0, 0.0, 6.0], [2.0, 4.0, 0.0]]}, "r.json"),
        ("pme-solve", {"W": [[0.0, 1.0], [2.0, 0.0]], "p0": [0.9, 0.1], "t_end": 0.1}, "r.json"),
        ("pme-solve", {"W": [[0.0, 1.0], [2.0, 0.0]], "p0": [0.9, 0.1], "t_end": 0.1}, "r.csv"),
    ], ids=["relax-classify", "qt-fit", "pme-solve-json", "pme-solve-csv"])
    def test_failed_write_exits_2_with_one_line(self, tmp_path, capsys, command, cfg, target):
        # The target names a directory, so the rename onto it fails; its
        # temporary file is removed.  The CSV is written before the JSON, so a
        # failed JSON write leaves it in place and a failed CSV write writes no JSON.
        (tmp_path / target).mkdir()
        config = write_config(tmp_path / "c.json", {**cfg, "out": str(tmp_path / "r")})
        assert run([command, "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {tmp_path / target}: Is a directory\n"
        left = {"c.json", target}
        if command == "pme-solve" and target == "r.json":
            left.add("r.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(left)
        assert list((tmp_path / target).iterdir()) == []


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
             2, "error: dt = 0.5 is beyond RK4's stability limit: one step amplifies a mode "
             "by 2.72e+10; lower dt"),
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
            ("pme-solve", {"W": [[0, 1, 0], [1, 0, 0], [0, 0, 0]], "p0": [1, 0, 0], "t_end": 1.0},
             2, "error: no unique stationary state: 2 closed classes"),
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
            ("pme-solve",
             {"W": [[0, 1000], [1000, 0]], "p0": [0.9, 0.1], "t_end": 0.05, "dt": 0.01}, 2,
             "error: dt = 0.01 is beyond RK4's stability limit: one step amplifies a mode "
             "by 5.51e+03; lower dt"),
            ("lindblad",
             {"channel": {"dissipators": [{"A": [700, 0, 0], "B": [0, 700, 0]}]},
              "P0": [0.1, 0, 0], "t_end": 0.25, "dt": 1 / 64, "gradient_check": False},
             2, "error: dt = 0.015625 is beyond RK4's stability limit: one step amplifies "
             "a mode by 2.29e+15; lower dt"),
            # |R(dt lambda)| overflows to inf - inf = NaN, read as unbounded.
            ("pme-solve",
             {"W": [[0, 0, 1e200], [1e200, 0, 0], [0, 1e200, 0]], "p0": [1, 0, 0],
              "t_end": 1.0, "dt": 1.0}, 2,
             "error: dt = 1.0 is beyond RK4's stability limit: one step amplifies a mode "
             "by inf; lower dt"),
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
            "(default 1), out: path base}. Common keys: precision (int, default 17).\n"
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


class TestParseOnce:
    """main parses every call with one parser; its bytes stay a fresh parser's."""

    @pytest.mark.parametrize("argv", [["nosuch"], ["qt-fit"], []])
    def test_usage_error_repeats(self, capsys, argv):
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: qtrep")
            errs.append(captured.err)
        assert errs[0] == errs[1]

    @pytest.mark.parametrize("columns", ["50", "200"])
    @pytest.mark.parametrize("name", [None, *cli._COMMANDS])
    def test_help_repeats_a_fresh_parsers_bytes(self, capsys, monkeypatch, name, columns):
        # The width is read at print time, so the cached parser follows it.
        monkeypatch.setenv("COLUMNS", columns)
        argv = ["--help"] if name is None else [name, "--help"]
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 0
            texts.append(capsys.readouterr().out)
        fresh = cli.build_parser()
        if name is not None:
            fresh = fresh._subparsers._group_actions[0].choices[name]
        assert texts[0] == texts[1] == fresh.format_help()

    def test_valid_op_after_failed_parse(self, tmp_path, capsys, chain3):
        with pytest.raises(SystemExit):
            cli.main(["qt-fit"])
        cfg = write_config(tmp_path / "c.json", {"W": chain3, "out": str(tmp_path / "fit")})
        capsys.readouterr()
        assert run(["qt-fit", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "fit.json").exists()

    def test_build_parser_is_fresh(self):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert cli._parser() is cli._parser()
        assert cli._parser() not in (first, second)
