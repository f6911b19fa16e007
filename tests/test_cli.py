import argparse
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rmtldp import cli, dyson, measures, montecarlo
from rmtldp.cli import model_from_json, model_to_json, run
from rmtldp.dyson import CovarianceModel
from rmtldp.measures import SpectralMeasure
from rmtldp.montecarlo import edge_stats
from rmtldp.rate import epsilon_truncate
from rmtldp.wigner import DeformedWignerModel, dw_rate, dw_rate_variational


@pytest.fixture
def wishart1(tmp_path):
    path = tmp_path / "wishart1.json"
    path.write_text(json.dumps({
        "kind": "covariance", "alpha": 1.0, "beta": 1, "entry_law": "gaussian",
        "rho": {"atoms": [[1.0, 1.0]], "density": None},
    }))
    return str(path)


@pytest.fixture
def degenerate_model(tmp_path):
    path = tmp_path / "degen.json"
    path.write_text(json.dumps({
        "alpha": 0.5, "beta": 1, "entry_law": "gaussian",
        "rho": {"atoms": [[-1.0, 1.0]], "density": None},
    }))
    return str(path)


@pytest.fixture
def wigner_point(tmp_path):
    path = tmp_path / "dw.json"
    path.write_text(json.dumps({
        "kind": "deformed-wigner", "beta": 1, "entry_law": "gaussian",
        "deformation": {"atoms": [[0.0, 1.0]], "density": None},
    }))
    return str(path)


class TestEdgeCommand:
    def test_wishart_report(self, wishart1, tmp_path):
        out = tmp_path / "edge.json"
        assert run(["edge", "--model", wishart1, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["theta_max"] == pytest.approx(1.0)
        assert report["x_c"] == "inf"
        assert report["theta_c"] == pytest.approx(0.5, abs=1e-10)
        assert report["r_sigma"] == pytest.approx(4.0, abs=1e-10)
        assert report["degenerate"] is False

    def test_degenerate_report(self, degenerate_model, tmp_path):
        out = tmp_path / "edge.json"
        assert run(["edge", "--model", degenerate_model, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["degenerate"] is True


class TestRateCommand:
    def test_csv_output(self, wishart1, tmp_path):
        out = tmp_path / "rate.csv"
        code = run(["rate", "--model", wishart1, "--xmax", "6", "--points", "100",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,G,Gbar,I"
        assert len(lines) == 101
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(4.0, abs=1e-10)
        assert float(first[3]) == 0.0

    def test_degenerate_rejected_with_pointer(self, degenerate_model, tmp_path, capsys):
        code = run(["rate", "--model", degenerate_model, "--xmax", "2", "--out",
                    str(tmp_path / "r.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "degenerate" in err


class TestDensityCommand:
    def test_density_values(self, wishart1, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["density", "--model", wishart1, "--xmin", "0.2", "--xmax", "3.8",
                    "--points", "19", "--eta", "1e-4", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,density"
        mid = lines[10].split(",")  # x = 2.0
        assert float(mid[0]) == pytest.approx(2.0, abs=1e-12)
        assert float(mid[1]) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-3)

    def test_degenerate_density_fails(self, degenerate_model):
        assert run(["density", "--model", degenerate_model]) == 1

    def test_both_bounds_given_and_no_left_edge_every_point_descends(self, tmp_path, capsys):
        # the left edge of sigma of this model is not solvable (a tiny
        # negative atom puts the reflected model's edge inside the snap
        # window); with both bounds given the command does not need the
        # window, and sigma_density, which cannot solve it, descends at
        # every point; without a bound the command fails on the left edge
        path = tmp_path / "tiny-left-atom.json"
        rho = {"atoms": [[-1.5067585918145452e-22, 0.5], [1.0, 0.5]], "density": None}
        path.write_text(json.dumps({"kind": "covariance", "alpha": 1.0, "rho": rho}))
        out = tmp_path / "d.csv"
        argv = ["density", "--model", str(path), "--xmin", "0.5", "--points", "5"]
        assert run(argv + ["--xmax", "4", "--out", str(out)]) == 0
        from rmtldp.dyson import sigma_density
        model = CovarianceModel(SpectralMeasure.from_json(rho), 1.0)
        xs = np.linspace(0.5, 4.0, 5)
        assert out.read_text() == cli.csv_text("x,density", (xs, sigma_density(model, xs, 1e-4)))
        capsys.readouterr()
        assert run(argv) == 1
        assert "left edge of sigma" in capsys.readouterr().err


class TestFlagRanges:
    """Out-of-range flags are usage errors that name the flag, and leave no
    output file."""

    @pytest.mark.parametrize("argv, flag", [
        (["rate", "--xmax", "6", "--points", "0"], "--points"),
        (["rate", "--xmax", "6", "--points", "-3"], "--points"),
        (["density", "--points", "0"], "--points"),
        (["density", "--points", "-3"], "--points"),
        (["approx", "--eps", "0.1", "--xmax", "6", "--points", "0"], "--points"),
        (["density", "--eta", "0"], "--eta"),
        (["density", "--eta", "-1e-4"], "--eta"),
        (["density", "--eta", "nan"], "--eta"),
        (["density", "--eta", "inf"], "--eta"),
        (["variational", "--x="], "--x"),
        (["variational", "--x=,"], "--x"),
        (["approx", "--eps=", "--xmax", "6"], "--eps"),
        (["approx", "--eps=,", "--xmax", "6"], "--eps"),
    ])
    def test_out_of_range_flags_exit_2(self, wishart1, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.csv"
        assert run(argv + ["--model", wishart1, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "zero-size" not in err and "linspace" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["density", "--points", "abc"], "argument --points: expected an integer, got 'abc'"),
        (["rate", "--xmax", "6", "--points", "2.5"],
         "argument --points: expected an integer, got '2.5'"),
        (["density", "--eta", "abc"], "argument --eta: expected a number, got 'abc'"),
    ])
    def test_non_numeric_flags_exit_2(self, wishart1, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert run(argv + ["--model", wishart1, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "_positive" not in err
        assert not out.exists()

    @pytest.mark.parametrize("points", ["", ",", "4.5,abc"])
    def test_a_bad_point_list_fails_before_the_sigma_solve(self, wishart1, tmp_path,
                                                           monkeypatch, capsys, points):
        def refuse(*args, **kwargs):
            raise AssertionError("a bad --x must fail before sigma is solved")

        monkeypatch.setattr(dyson, "sigma_rule", refuse)
        out = tmp_path / "v.csv"
        assert run(["variational", "--model", wishart1, f"--x={points}",
                    "--out", str(out)]) == 2
        assert "argument --x:" in capsys.readouterr().err
        assert not out.exists()

    def test_one_point_is_in_range(self, wishart1, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["density", "--model", wishart1, "--points", "1", "--xmin", "2",
                    "--eta", "1e-4", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2


class TestMcCommand:
    def test_byte_identical_reruns(self, wishart1, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["mc", "--model", wishart1, "--n", "40", "--replicas", "5", "--seed", "7"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_spectra_sidecar(self, wishart1, tmp_path):
        out = tmp_path / "mc.csv"
        side = tmp_path / "spectra.bin"
        assert run(["mc", "--model", wishart1, "--n", "16", "--replicas", "3",
                    "--seed", "1", "--out", str(out), "--spectra", str(side)]) == 0
        raw = np.frombuffer(side.read_bytes(), dtype="<f8")
        assert raw.size == 48

    def test_env_thread_fallback(self, wishart1, tmp_path, monkeypatch):
        monkeypatch.setenv("RMTLDP_THREADS", "2")
        out = tmp_path / "mc.csv"
        assert run(["mc", "--model", wishart1, "--n", "20", "--replicas", "2",
                    "--out", str(out)]) == 0

    def test_bad_env_threads_is_a_usage_error(self, wishart1, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RMTLDP_THREADS", "abc")
        assert run(["mc", "--model", wishart1, "--n", "20", "--replicas", "2",
                    "--out", str(tmp_path / "mc.csv")]) == 2
        assert "RMTLDP_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "mc.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, wishart1, tmp_path, monkeypatch, capsys,
                                                value):
        """From the flag or from the variable, named in the message; no file."""
        out = tmp_path / "mc.csv"
        argv = ["mc", "--model", wishart1, "--n", "20", "--replicas", "2", "--out", str(out)]
        monkeypatch.delenv("RMTLDP_THREADS", raising=False)
        assert run(argv + ["--threads", value]) == 2
        assert "--threads" in capsys.readouterr().err
        monkeypatch.setenv("RMTLDP_THREADS", value)
        assert run(argv) == 2
        assert "RMTLDP_THREADS" in capsys.readouterr().err
        assert not out.exists()
        # the flag takes precedence over the variable
        assert run(argv + ["--threads", "1"]) == 0

    @pytest.mark.parametrize("replicas", ["0", "-1"])
    def test_empty_replica_range_fails(self, wishart1, tmp_path, capsys, replicas):
        out = tmp_path / "mc.csv"
        assert run(["mc", "--model", wishart1, "--n", "20", "--replicas", replicas,
                    "--out", str(out)]) == 1
        assert "replicas must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_do_not_change_results(self, wishart1, tmp_path):
        serial, threaded = tmp_path / "s.csv", tmp_path / "t.csv"
        argv = ["mc", "--model", wishart1, "--n", "30", "--replicas", "8", "--seed", "5"]
        assert run(argv + ["--out", str(serial)]) == 0
        assert run(argv + ["--threads", "4", "--out", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes()


class TestWignerCommands:
    def test_edge_report(self, wigner_point, tmp_path):
        out = tmp_path / "we.json"
        assert run(["wigner-edge", "--model", wigner_point, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["y_c"] == pytest.approx(1.0, abs=1e-9)
        assert report["r_edge"] == pytest.approx(2.0, abs=1e-9)
        assert report["x_c"] == "inf"

    def test_rate_table(self, wigner_point, tmp_path):
        out = tmp_path / "wr.csv"
        assert run(["wigner-rate", "--model", wigner_point, "--xmax", "4",
                    "--points", "30", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,G,Gbar,I"
        assert len(lines) == 31
        last = lines[-1].split(",")
        s = math.sqrt(16.0 - 4.0)
        oracle = 0.5 * (2.0 * s - 2.0 * math.log(0.5 * (4.0 + s)))
        assert float(last[3]) == pytest.approx(oracle, abs=1e-8)

    def test_rate_table_past_capped_threshold(self, tmp_path):
        # semicircle deformation: the second branch is capped past x_c = 3
        model = DeformedWignerModel(SpectralMeasure.semicircle(0.0, 1.0))
        path = tmp_path / "dw-sc.json"
        path.write_text(json.dumps(model_to_json(model)))
        out = tmp_path / "wr.csv"
        assert run(["wigner-rate", "--model", str(path), "--xmax", "5",
                    "--points", "12", "--out", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 12 and rows[-1][0] > 3.0
        for x, _, _, i_val in rows:
            assert i_val == dw_rate(model, x)

    def test_rate_table_past_a_log_divergent_edge(self, tmp_path):
        # uniform deformation: from x(floor) = 18.56 on, the left root lies
        # inside the snap window of the edge, and the floor stands for it
        model = DeformedWignerModel(SpectralMeasure.uniform(-1.0, 1.0))
        path = tmp_path / "dw-uniform.json"
        path.write_text(json.dumps(model_to_json(model)))
        out = tmp_path / "wr.csv"
        assert run(["wigner-rate", "--model", str(path), "--xmax", "30",
                    "--points", "12", "--out", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 12 and rows[-1][0] == 30.0
        level = model.level
        for x, _, g_bar, i_val in rows:
            assert i_val == dw_rate(model, x)
            if x >= level.x_floor:
                assert g_bar == x - level.curve.floor

    def test_density(self, wigner_point, tmp_path):
        out = tmp_path / "wd.csv"
        assert run(["wigner-density", "--model", wigner_point, "--xmin", "-3",
                    "--xmax", "3", "--points", "61", "--eta", "1e-4",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        mid = lines[31].split(",")
        assert float(mid[0]) == pytest.approx(0.0, abs=1e-9)
        assert float(mid[1]) == pytest.approx(1.0 / math.pi, abs=1e-3)

    def test_kind_mismatch_is_usage_error(self, wishart1, tmp_path):
        assert run(["wigner-edge", "--model", wishart1]) == 2


@pytest.fixture
def wigner_two_atom(tmp_path):
    path = tmp_path / "dw2.json"
    path.write_text(json.dumps({
        "kind": "deformed-wigner", "beta": 1, "entry_law": "gaussian",
        "deformation": {"atoms": [[-1.0, 0.5], [1.0, 0.5]], "density": None},
    }))
    return str(path)


class TestOneHandlerPerKind:
    @pytest.mark.parametrize("command,extra", [
        ("edge", []),
        ("rate", ["--xmax", "4", "--points", "15"]),
        ("density", ["--points", "41"]),
    ])
    def test_wigner_alias_emits_the_same_bytes(self, wigner_two_atom, tmp_path,
                                               command, extra):
        plain, alias = tmp_path / "plain", tmp_path / "alias"
        argv = ["--model", wigner_two_atom] + extra
        assert run([command] + argv + ["--out", str(plain)]) == 0
        assert run([f"wigner-{command}"] + argv + ["--out", str(alias)]) == 0
        assert plain.read_bytes() == alias.read_bytes()

    def test_wigner_rate_at_or_below_the_edge_is_a_numeric_failure(self, wigner_point):
        # the spectral edge of the pure Wigner matrix is 2
        assert run(["wigner-rate", "--model", wigner_point, "--xmax", "2"]) == 1

    def test_variational_on_wigner_model(self, wigner_two_atom, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["variational", "--model", wigner_two_atom, "--x", "3,3.5",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,rate_primal,rate_variational,abs_diff"
        model = model_from_json(json.loads(open(wigner_two_atom).read()))
        for line in lines[1:]:
            x, primal, varia, _ = (float(v) for v in line.split(","))
            assert primal == dw_rate(model, x)
            assert varia == dw_rate_variational(model, x)

    def test_approx_refuses_wigner_model(self, wigner_two_atom):
        assert run(["approx", "--model", wigner_two_atom, "--eps", "0.1",
                    "--xmax", "4"]) == 2

    @pytest.mark.parametrize("fixture", ["wishart1", "wigner_two_atom"])
    def test_mc_matches_edge_stats_bitwise(self, fixture, request, tmp_path):
        path = request.getfixturevalue(fixture)
        out = tmp_path / "mc.csv"
        assert run(["mc", "--model", path, "--n", "24", "--replicas", "6", "--seed", "11",
                    "--threads", "2", "--out", str(out)]) == 0
        column = [float(line.split(",")[3])
                  for line in out.read_text().strip().splitlines()[1:]]
        model = model_from_json(json.loads(open(path).read()))
        np.testing.assert_array_equal(column, edge_stats(model, 24, 6, 11).values)

    def test_mc_builds_gamma_once(self, wishart1, tmp_path, monkeypatch):
        calls = []
        build = montecarlo.build_gamma
        monkeypatch.setattr(montecarlo, "build_gamma",
                            lambda rho, m: calls.append(m) or build(rho, m))
        assert run(["mc", "--model", wishart1, "--n", "12", "--replicas", "5",
                    "--out", str(tmp_path / "mc.csv")]) == 0
        assert calls == [12]

    def test_wigner_density_window_needs_no_grid_measure(self, wigner_two_atom, tmp_path,
                                                         monkeypatch):
        from rmtldp import cli, dyson, wigner

        def refuse(*args, **kwargs):
            raise AssertionError("the default window must not build a grid measure")

        for module in (cli, wigner):
            monkeypatch.setattr(module, "free_convolution_measure", refuse, raising=False)
        # wigner-density runs the shared limit-law code of both model kinds
        for module, name in ((dyson, "sigma_rule"), (wigner, "sigma_rule"),
                             (dyson, "sigma_measure")):
            monkeypatch.setattr(module, name, refuse)
        assert run(["wigner-density", "--model", wigner_two_atom, "--points", "21",
                    "--out", str(tmp_path / "wd.csv")]) == 0


class TestVariationalAndApprox:
    def test_variational_csv(self, wishart1, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["variational", "--model", wishart1, "--x", "4.5,5.0",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,rate_primal,rate_variational,abs_diff"
        for line in lines[1:]:
            assert float(line.split(",")[3]) <= 2e-3

    def test_a_3_point_variational_call_builds_the_rule_once(self, wishart1, tmp_path,
                                                             monkeypatch):
        """One rule sigma per command, read at its 64 nodes: no table Gauss
        rule is built."""
        builds, rules = [], []
        build, rule = dyson.sigma_rule, measures._gauss_rule
        monkeypatch.setattr(dyson, "sigma_rule",
                            lambda *args: builds.append(args) or build(*args))
        monkeypatch.setattr(measures, "_gauss_rule",
                            lambda *args: rules.append(args[-1]) or rule(*args))
        assert run(["variational", "--model", wishart1, "--x=4.5,6,8",
                    "--out", str(tmp_path / "v.csv")]) == 0
        assert len(builds) == 1 and rules == []

    def test_approx_csv(self, tmp_path):
        model_path = tmp_path / "sc.json"
        model_path.write_text(json.dumps({
            "alpha": 1.0, "beta": 1, "entry_law": "gaussian",
            "rho": {"atoms": [], "density": {
                "kind": "semicircle", "params": {"center": 2.0, "radius": 1.0, "mass": 1.0},
                "support": [1.0, 3.0], "nodes": 128}},
        }))
        out = tmp_path / "ap.csv"
        assert run(["approx", "--model", str(model_path), "--eps", "0.4,0.2",
                    "--xmax", "15", "--points", "10", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eps,r_sigma_eps,sup_error"
        assert len(lines) == 3

    def test_approx_on_a_table_model(self, tmp_path):
        # a nodes-only table rho; approx_sweep itself enforces domination to
        # 1e-9 and a nondecreasing r(sigma_eps)
        rho = SpectralMeasure.from_density(
            lambda u: 2.0 / math.pi * np.sqrt(np.maximum(1.0 - (np.asarray(u) - 2.0) ** 2, 0.0)),
            (1.0, 3.0), 64, edge_finite_g=True)
        model_path = tmp_path / "table.json"
        model_path.write_text(json.dumps({
            "kind": "covariance", "alpha": 1.0, "beta": 1, "entry_law": "gaussian",
            "rho": rho.to_json()}))
        eps = [0.013, 0.1, 0.37]
        loaded = model_from_json(json.loads(model_path.read_text())).rho
        for e in eps:
            assert abs(epsilon_truncate(loaded, e).total_mass() - 1.0) <= 1e-12
        out = tmp_path / "ap.csv"
        assert run(["approx", "--model", str(model_path), "--eps", ",".join(map(str, eps)),
                    "--xmax", "16", "--points", "10", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (3, 3)
        assert np.all(np.diff(rows[:, 1]) >= -1e-12)


def table_rho(**params):
    """rho of one table on [0, 1] with nodes 0.25 and 0.75 of weight 1/2
    each, but for the params given."""
    params = {"x": [0.25, 0.75], "w": [0.5, 0.5], "edge_finite_g": False, **params}
    return {"density": {"kind": "table", "support": [0, 1], "params": params}}


def semicircle_rho(support, center, radius):
    """rho of one semicircle of the given support, center and radius."""
    return {"density": {"kind": "semicircle", "support": support,
                        "params": {"center": center, "radius": radius}}}


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["edge", "--model", str(bad)]) == 2

    def test_missing_file(self, tmp_path):
        assert run(["edge", "--model", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("field, value, named", [
        ("beta", 1.5, "beta"),
        ("beta", True, "beta"),
        ("alpha", math.nan, "alpha"),
        ("alpha", math.inf, "alpha"),
        ("rho", {"atoms": [[1.0, 0.5], [2.0, math.nan]]}, "atom weights"),
        ("rho", {"atoms": [[1.0, 0.5], [math.inf, 0.5]]}, "atom locations"),
        ("rho", {"atoms": [[1.0, 0.5], [-math.inf, 0.5]]}, "atom locations"),
        ("rho", {"atoms": [[1.0]]}, "atoms"),
        ("rho", {"atoms": [[1.0, 0.5, 2.0]]}, "atoms"),
        ("alpha", True, "alpha"),
        ("alpha", "0.5", "alpha"),
        ("rho", {"atoms": [["1.0", 1.0]]}, "atom locations"),
        ("rho", {"atoms": [[1.0, "1.0"]]}, "atom weights"),
        ("rho", {"density": {"kind": "uniform", "support": [0, 1], "nodes": 12.7}}, "nodes"),
        ("rho", {"density": {"kind": "uniform", "support": [0, 1], "nodes": 0}}, "nodes"),
        ("rho", {"density": {"kind": "uniform", "support": [0, 1], "nodes": True}}, "nodes"),
        ("rho", {"density": {"kind": "uniform", "support": [0, 1],
                             "params": {"mass": "1"}}}, "mass"),
        ("rho", table_rho(x=["0.25", 0.75]), "x must be a number"),
        ("rho", table_rho(w=[0.5, "0.5"]), "w must be a number"),
        ("rho", table_rho(x=0.25), "x must be a list"),
        ("rho", table_rho(w=[0.5, 0.25, 0.25]), "x and w differ in length"),
        ("rho", table_rho(x=[0.25, math.nan]), "x must be finite"),
        ("rho", table_rho(w=[math.inf, 0.5]), "w must be finite"),
        ("rho", table_rho(w=[1.5, -0.5]), "w must be nonnegative"),
        ("rho", table_rho(x=[0.25, 1.75]), "x must lie in the support"),
        ("rho", table_rho(x=[0.75, 0.25]), "x must ascend"),
        ("rho", table_rho(edge_finite_g="no"), "edge_finite_g"),
        ("rho", table_rho(edge_finite_g=1), "edge_finite_g"),
        ("rho", semicircle_rho([0.5, 1.5], 5.0, 1.0), "support"),
        ("rho", semicircle_rho([4.0, 5.5], 5.0, 1.0), "support"),
        ("rho", semicircle_rho([4.0, 6.0], 5.0, -1.0), "radius"),
        ("rho", {"atoms": [[1.0, 1.5]], "density": {"kind": "uniform", "support": [0, 1],
                                                    "params": {"mass": -0.5}}}, "mass"),
        ("rho", {"atoms": [[1.0, 1.0]], "density": {"kind": "uniform", "support": [5, 6],
                                                    "params": {"mass": 0}}}, "mass"),
        ("rho", table_rho(x=[], w=[]), "w must have a positive total"),
        ("rho", {"density": {"kind": "uniform", "support": [0, math.inf]}}, "support"),
    ], ids=["beta-1.5", "beta-true", "alpha-nan", "alpha-inf", "weight-nan",
            "location-inf", "location-minus-inf", "atom-of-one-entry", "atom-of-three-entries",
            "alpha-true", "alpha-string", "location-string", "weight-string", "nodes-12.7",
            "nodes-0", "nodes-true", "mass-string", "table-x-string", "table-w-string",
            "table-x-not-a-list", "table-lengths-differ", "table-x-nan", "table-w-inf",
            "table-w-negative", "table-x-past-the-support", "table-x-unsorted",
            "table-edge-finite-g-string", "table-edge-finite-g-1", "semicircle-off-its-support",
            "semicircle-half-its-support", "semicircle-radius-negative", "uniform-mass-negative",
            "uniform-mass-zero", "table-of-no-nodes", "uniform-to-infinity"])
    def test_non_finite_or_truncated_model_data_is_refused(self, tmp_path, capsys,
                                                           field, value, named):
        """A value the model cannot take exits 2 naming its field, before
        any solve: no beta or node count is truncated to an integer, no
        bool or string is read as a number, no atom entry is cut short, no
        NaN or infinity reaches the edge solve, and a table's nodes and
        weights are of one length, its weights nonnegative of positive
        total, its nodes ascending inside its support and its edge_finite_g
        a bool or null; a support is finite, a closed form's mass positive,
        and a semicircle's support [c - R, c + R] with R > 0."""
        obj = {"kind": "covariance", "alpha": 1.0, "beta": 1, "entry_law": "gaussian",
               "rho": {"atoms": [[1.0, 1.0]]}}
        obj[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "rate.csv"
        assert run(["rate", "--model", str(path), "--xmax", "6", "--points", "5",
                    "--out", str(out)]) == 2
        assert f"invalid model data: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_no_tmp_leftovers(self, wishart1, tmp_path):
        out = tmp_path / "edge.json"
        assert run(["edge", "--model", wishart1, "--out", str(out)]) == 0
        leftovers = [p for p in out.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestParserReuse:
    """``run`` builds its parser once per process and parses every later
    argv with the same one."""

    def test_the_parser_is_built_once(self, wishart1, tmp_path, monkeypatch):
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                            lambda self, **kw: builds.append(1) or add_subparsers(self, **kw))
        cli._build_parser.cache_clear()
        out = str(tmp_path / "out")
        for argv in (["edge", "--model", wishart1],
                     ["rate", "--model", wishart1, "--xmax", "6", "--points", "5"],
                     ["density", "--model", wishart1, "--points", "5"],
                     ["mc", "--model", wishart1, "--n", "8", "--replicas", "2"],
                     ["frobnicate"]):
            run(argv + ["--out", out])
        assert builds == [1]
        assert cli._build_parser() is cli._build_parser()

    def test_options_of_one_call_do_not_reach_the_next(self, wishart1, tmp_path):
        first, reused, fresh = (tmp_path / name for name in ("first", "reused", "fresh"))
        plain = ["density", "--model", wishart1]
        assert run(plain + ["--xmin", "0.5", "--xmax", "3", "--points", "7",
                            "--out", str(first)]) == 0
        assert run(plain + ["--out", str(reused)]) == 0
        cli._build_parser.cache_clear()
        assert run(plain + ["--out", str(fresh)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()
        assert len(reused.read_text().splitlines()) == 401
        assert reused.read_bytes() != first.read_bytes()

    def test_usage_error_and_help_leave_the_next_run_unchanged(self, wishart1, tmp_path,
                                                                capsys):
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        argv = ["rate", "--model", wishart1, "--xmax", "6", "--points", "9"]
        assert run(argv + ["--out", str(before)]) == 0
        assert run(["rate", "--model", wishart1, "--points", "x"]) == 2
        assert "--xmax" in capsys.readouterr().err
        for _ in range(2):
            assert run(["rate", "--help"]) == 0
            assert "usage: rmtldp rate" in capsys.readouterr().out
        assert run(argv + ["--out", str(after)]) == 0
        assert before.read_bytes() == after.read_bytes()

    def test_the_thread_variable_is_read_on_every_call(self, wishart1, tmp_path,
                                                       monkeypatch):
        threads = []
        sample = cli._sample
        monkeypatch.setattr(cli, "_sample", lambda model, n, seed, reps, t:
                            threads.append(t) or sample(model, n, seed, reps, t))
        argv = ["mc", "--model", wishart1, "--n", "8", "--replicas", "2",
                "--out", str(tmp_path / "mc.csv")]
        monkeypatch.delenv("RMTLDP_THREADS", raising=False)
        assert run(argv) == 0
        monkeypatch.setenv("RMTLDP_THREADS", "3")
        assert run(argv) == 0
        assert run(argv + ["--threads", "2"]) == 0
        monkeypatch.setenv("RMTLDP_THREADS", "abc")
        assert run(argv) == 2
        monkeypatch.delenv("RMTLDP_THREADS")
        assert run(argv) == 0
        assert threads == [None, 3, 2, None]


class TestCsvText:
    SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0, -2.5]

    @staticmethod
    def _former_fmt(v) -> str:
        """The former per-value formatter of the density and variational
        tables."""
        v = float(v)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.17g}"

    def test_the_bytes_of_the_former_formatters(self):
        rng = np.random.default_rng(7)
        a = np.concatenate([self.SPECIAL, rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50)])
        b = np.roll(a, 5)
        c = np.roll(a, 11).tolist()  # a list column, as the variational rates were
        got = cli.csv_text("a,b,c", (a, b, c))
        former_cli = "\n".join(["a,b,c"] + [",".join(self._former_fmt(v) for v in row)
                                              for row in zip(a, b, c)]) + "\n"
        former_tables = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                             for row in zip(a, b, c))
        assert got == former_cli == former_tables
        assert [line.split(",")[0] for line in got.splitlines()[1:7]] == [
            "inf", "-inf", "nan", "-0", "0", "4.9406564584124654e-324"]

    def test_an_empty_table_is_its_header(self):
        assert cli.csv_text("x,density", (np.array([]), [])) == "x,density\n"

    @pytest.mark.parametrize("rows", [0, 1, 2, 4095, 4096, 4097, 9000])
    def test_the_bytes_of_the_per_row_formatter(self, rows):
        """Tables of 0 and 1 rows, and tables on either side of the blocks
        that one format string covers, with every special value."""
        rng = np.random.default_rng(rows)
        a = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        special = (self.SPECIAL + [1e308, -1e308])[:rows]
        a[:len(special)] = special
        columns = (a, np.roll(a, 3), np.roll(a, 7).tolist())
        former = "x,y,z\n" + "".join("%.17g,%.17g,%.17g\n" % row
                                      for row in zip(*(np.asarray(c, dtype=float).tolist()
                                                       for c in columns)))
        assert cli.csv_text("x,y,z", columns) == former
        assert cli.csv_text("x", (a,)) == "x\n" + "".join(f"{v:.17g}\n" for v in a.tolist())


class TestModelRoundTrip:
    def test_covariance_round_trip(self):
        model = CovarianceModel(SpectralMeasure.from_atoms([-6.0, 2.0], [0.5, 0.5]), 4.0)
        again = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert again.alpha == model.alpha
        assert again.beta == model.beta
        assert again.entry_law == model.entry_law
        assert again.rho == model.rho

    def test_semicircle_round_trip(self):
        model = CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), 1.0)
        again = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert again.rho == model.rho

    def test_wigner_round_trip(self):
        model = DeformedWignerModel(SpectralMeasure.point_mass(0.0))
        again = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert again.mu_d == model.mu_d


class TestImportCost:
    """Importing scipy takes most of a command's start-up, and the package
    does not depend on it: no command and no measure may load it."""

    MODELS = {
        "atoms": ({"kind": "covariance", "alpha": 1.0, "beta": 1, "entry_law": "gaussian",
                   "rho": {"atoms": [[1.0, 1.0]], "density": None}}, 5.0),
        "semicircle": ({"kind": "covariance", "alpha": 1.0, "beta": 1, "entry_law": "gaussian",
                        "rho": {"atoms": [], "density": {
                            "kind": "semicircle", "support": [1.0, 3.0],
                            "params": {"center": 2.0, "radius": 1.0, "mass": 1.0}}}}, 10.0),
        "uniform-deformation": ({"kind": "deformed-wigner", "beta": 1, "entry_law": "gaussian",
                                 "deformation": {"atoms": [], "density": {
                                     "kind": "uniform", "support": [-1.0, 1.0],
                                     "params": {"mass": 1.0}}}}, 3.0),
    }

    @staticmethod
    def _run_without_scipy(body, tmp_path):
        """Run ``body`` in a fresh interpreter, then require that no scipy
        module was loaded."""
        script = textwrap.dedent(body) + textwrap.dedent("""
            import sys
            loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
            assert not loaded, loaded
            """)
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]

    def test_commands_run_without_scipy(self, tmp_path):
        commands = []
        for name, (model, x) in self.MODELS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(model))
            out = str(tmp_path / f"{name}.out")
            commands += [
                ["rate", "--model", str(path), "--xmax", str(x + 1.0), "--points", "5",
                 "--out", out],
                ["variational", "--model", str(path), "--x", str(x), "--out", out],
                ["density", "--model", str(path), "--points", "20", "--out", out],
                ["mc", "--model", str(path), "--n", "20", "--replicas", "4", "--out", out],
            ]
        self._run_without_scipy(f"""
            import rmtldp
            from rmtldp.cli import run
            for argv in {commands!r}:
                assert run(argv) == 0, argv
            """, tmp_path)

    def test_a_grid_sigma_rate_loads_no_scipy_mpmath_or_numpy_ma(self, tmp_path):
        """The variational rate on the 2000-point grid sigma reads a table
        through its Gauss rule; np.unique would load numpy.ma there, at
        12-15 ms of import."""
        self._run_without_scipy("""
            import sys
            import rmtldp
            from rmtldp import SpectralMeasure
            from rmtldp.wigner import (DeformedWignerModel, dw_rate_variational,
                                       free_convolution_measure)
            model = DeformedWignerModel(SpectralMeasure.uniform(-1.0, 1.0))
            sigma = free_convolution_measure(model, 2000)
            assert dw_rate_variational(model, 3.0, sigma=sigma) > 0.0
            loaded = [m for m in ("mpmath", "numpy.ma") if m in sys.modules]
            assert not loaded, loaded
            """, tmp_path)

    def test_callable_table_runs_without_scipy(self, tmp_path):
        self._run_without_scipy("""
            import json
            import numpy as np
            from rmtldp import SpectralMeasure, build_gamma, epsilon_truncate
            from rmtldp.cli import run
            rho = SpectralMeasure.from_density(lambda u: 1.5 * np.sqrt(u), (0.0, 1.0), 64,
                                               edge_finite_g=True)
            rho.cdf(np.linspace(-0.5, 1.5, 50))
            rho.quantile([0.1, 0.5, 0.9])
            build_gamma(rho, 20)
            epsilon_truncate(rho, 0.1).cdf(0.95)
            with open("table.json", "w") as fh:
                json.dump({"kind": "covariance", "alpha": 1.0, "beta": 1,
                           "entry_law": "gaussian", "rho": rho.to_json()}, fh)
            assert run(["approx", "--model", "table.json", "--eps", "0.1,0.3", "--xmax", "6",
                        "--points", "5", "--out", "approx.csv"]) == 0
            """, tmp_path)
