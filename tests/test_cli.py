import json
import math

import numpy as np
import pytest

from rmtldp import montecarlo
from rmtldp.cli import model_from_json, model_to_json, run
from rmtldp.dyson import CovarianceModel
from rmtldp.measures import SpectralMeasure
from rmtldp.montecarlo import edge_stats
from rmtldp.wigner import DeformedWignerModel, dw_edge, dw_rate, dw_rate_variational


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
        edge = dw_edge(model)
        for x, _, _, i_val in rows:
            assert i_val == dw_rate(model, x, edge)

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
        for module in (cli, dyson):
            monkeypatch.setattr(module, "sigma_measure", refuse)
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

    def test_no_tmp_leftovers(self, wishart1, tmp_path):
        out = tmp_path / "edge.json"
        assert run(["edge", "--model", wishart1, "--out", str(out)]) == 0
        leftovers = [p for p in out.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


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
