"""The variational rate on an array of points: one branch solve, one J per
reading of sigma and one F for all of them, bit for bit the rates of the
points one at a time; the scan's failure at one point of many; the floor at
theta = 0's objective and the rate's rule at r(sigma); the variational
command's one solve; and the density command's window."""

import importlib

import numpy as np
import pytest

from rmtldp import dyson, wigner
from rmtldp.cli import run
from rmtldp.dyson import CovarianceModel, SolverError, sigma_density, sigma_measure, sigma_rule
from rmtldp.rate import csv_text, rate, rate_variational
from rmtldp.measures import SpectralMeasure
from test_sigma_rule import MODELS as MODEL_FILES
from test_sigma_rule import load
from test_variational_scan import BENCHMARK_RANGES, MODELS

# the module, which the package's rate function shadows as an attribute
rate_module = importlib.import_module("rmtldp.rate")
WIGNER = ("dw-point", "dw-two-atom", "dw-uniform")


def points(lo, hi, n):
    return np.array([0.5 * (lo + hi)]) if n == 1 else np.linspace(lo, hi, n)


def one_at_a_time(model, xs, sigma):
    return np.array([rate_variational(model, x, sigma) for x in xs.tolist()])


@pytest.mark.parametrize("n", [1, 3, 50])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_the_batch_gives_the_one_point_rates_on_the_rule_sigma(name, n):
    model = MODELS[name][0]()
    sigma = sigma_rule(model)
    xs = points(*BENCHMARK_RANGES[name], n)
    batch = rate_variational(model, xs, sigma)
    assert batch.shape == xs.shape
    assert batch.tobytes() == one_at_a_time(model, xs, sigma).tobytes()


@pytest.mark.parametrize("n", [1, 3, 50])
@pytest.mark.parametrize("name", WIGNER)
def test_the_batch_gives_the_one_point_rates_on_the_grid_sigma(name, n, monkeypatch):
    """From 0.02 max(1, |r|) past the edge on, the grid sigma is read on its
    nodes near the edge and through its Gauss rule farther out: the batch
    takes one J per reading."""
    model = MODELS[name][0]()
    edge = model.edge
    sigma = sigma_measure(model, 2000)
    r = edge.r_sigma
    xs = points(r + 0.02 * max(1.0, abs(r)), BENCHMARK_RANGES[name][1], n)
    readings = {sigma.read_from(x) is sigma for x in xs.tolist()}
    if n == 50:
        assert readings == {True, False}
    shifts = []
    shift = rate_module._shift
    monkeypatch.setattr(rate_module, "_shift", lambda *args: shifts.append(1) or shift(*args))
    batch = rate_variational(model, xs, sigma)
    # one shift solve per reading of sigma, and one for J(mu_d, theta, r(mu_d))
    assert len(shifts) == len(readings) + 1
    monkeypatch.undo()
    assert batch.tobytes() == one_at_a_time(model, xs, sigma).tobytes()


def test_a_reading_past_the_reach_is_built_once():
    """Every lambda past the Gauss rule's reach of the grid sigma reads it
    as the same measure, built on the first call and kept, and J from it has
    the bits of J on a measure of the same components built afresh."""
    model = MODELS["dw-point"][0]()
    edge = model.edge
    sigma = sigma_measure(model, 2000)
    read = sigma.read_from(3.2)
    assert read is not sigma
    assert sigma.read_from(3.2) is read and sigma.read_from(5.0) is read
    fresh = SpectralMeasure(sigma.atom_locations, sigma.atom_weights,
                            [c.read_from(3.2) for c in sigma.components])
    theta = np.linspace(0.05, 2.0, 7)
    want = rate_module.j_fn(fresh, theta, 3.2)
    for _ in range(2):
        assert rate_module.j_fn(sigma, theta, 3.2).tobytes() == want.tobytes()
    assert sigma.read_from(edge.r_sigma) is sigma


def test_the_scan_names_the_point_where_a_theta_beats_its_optimizer(monkeypatch):
    """The optimizer misplaced to 0.3 Gbar(x) at the middle one of three
    points: SolverError names that x and the theta, as plain floats."""
    model = CovarianceModel(MODELS["wishart1"][0]().rho, 1.0)
    sigma = sigma_measure(model, 2000)
    xs = np.array([4.5, 6.0, 8.5])
    real = CovarianceModel.variational

    def misplaced(self, x, sigma):
        theta_x, end, objective = real(self, x, sigma)
        return theta_x * np.where(x == 6.0, 0.3, 1.0), end, objective

    assert (rate_variational(model, xs, sigma) > 0.0).all()
    monkeypatch.setattr(CovarianceModel, "variational", misplaced)
    with pytest.raises(SolverError, match=r"at x=6\.0 found theta=\d[^ ]* exceeding") as info:
        rate_variational(model, xs, sigma)
    assert "np.float64" not in str(info.value)


def test_x_at_and_just_below_the_edge_in_a_batch():
    """r(sigma) and a point of the snap window below it give 0 in a batch as
    alone; a point below the window raises ValueError."""
    model = MODELS["wishart1"][0]()
    edge = model.edge
    sigma = sigma_rule(model)
    r = edge.r_sigma
    xs = np.array([r - 1e-13 * max(1.0, abs(r)), r, 6.0])
    batch = rate_variational(model, xs, sigma)
    assert batch.tobytes() == one_at_a_time(model, xs, sigma).tobytes()
    assert batch[0] == batch[1] == 0.0 and batch[2] > 0.0
    with pytest.raises(ValueError, match="below r"):
        rate_variational(model, np.array([6.0, r - 1e-9]), sigma)


# -- the floor at theta = 0 ---------------------------------------------------------

FLOORED = ("wishart1", "neg-wishart", "two-atom", "semicircle-rho", "dw-point", "dw-uniform")


@pytest.mark.parametrize("name", FLOORED)
def test_the_variational_rate_is_0_at_the_edge_and_not_negative_past_it(name):
    """theta = 0 is admissible with objective 0: at r(sigma), where the
    optimizer's objective on the rule sigma is a rounding-sized negative
    (-2.6e-5 to -4.9e-7), the rate is 0, as the primal rate is; just past r
    it is not negative."""
    model = load(name)
    edge = model.edge
    sigma = sigma_rule(model)
    r = edge.r_sigma
    assert rate(model, r) == 0.0
    assert rate_variational(model, r, sigma) == 0.0
    assert rate_variational(model, r + 1e-9 * max(1.0, abs(r)), sigma) >= 0.0


@pytest.mark.parametrize("name", FLOORED)
def test_the_variational_rate_is_0_at_the_edge_on_the_grid_sigma(name):
    """On the 2000-point grid sigma the optimizer's objective at r(sigma) is
    -1.6e-6 to -1.7e-8 on wishart1, two-atom and semicircle-rho, and +2.4e-8
    to +2.8e-7 on neg-wishart, dw-point and dw-uniform, the grid's own
    error. The rate is 0 at r(sigma) and in its snap window on either side
    all the same, by rate's rule, in rate_variational and in the command's
    solve; past the window each point keeps the bits of the floored
    supremum, alone and in a batch with the edge."""
    model = load(name)
    edge = model.edge
    sigma = sigma_measure(model, 2000)
    r = edge.r_sigma
    scale = max(1.0, abs(r))
    assert rate_variational(model, r, sigma) == 0.0
    past = np.array([r + 1e-9 * scale, r + 0.05 * scale])
    xs = np.concatenate(([r - 1e-13 * scale, r, r + 5e-14 * scale], past))
    want = rate_module._supremum(model, past, *model.variational(past, sigma))
    assert 0.0 <= want[0] <= 1e-6
    batch = rate_variational(model, xs, sigma)
    assert batch[:3].tolist() == [0.0] * 3
    assert batch[3:].tobytes() == want.tobytes() == one_at_a_time(model, past, sigma).tobytes()
    primal, varia = rate_module._rates_both_ways(model, xs, sigma)
    assert varia.tobytes() == batch.tobytes()
    assert primal[:3].tolist() == [0.0] * 3


def test_the_floor_replaces_a_negative_optimizer_value():
    """The optimizer's own objective at r(sigma) of wishart1 is below 0."""
    model = load("wishart1")
    edge = model.edge
    theta_x, _, objective = model.variational(np.array([edge.r_sigma]),
                                              sigma_rule(model))
    assert objective(theta_x[:, None])[0, 0] < 0.0


# -- the variational command -------------------------------------------------------------


def model_file(name):
    return str(MODEL_FILES / f"{name}.json")


@pytest.mark.parametrize("name", ["wishart1", "dw-point"])
def test_the_command_solves_the_branches_once_and_reads_sigma_once(name, tmp_path,
                                                                   monkeypatch):
    """Three points: one branch solve for both columns, one J on sigma (and,
    on a deformed-Wigner model, one on mu_d), one F, one shift solve per
    reading; the columns equal rate and rate_variational at each point."""
    calls = {"branches": 0, "j": 0, "f": 0, "shift": 0}

    def counted(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (dyson, wigner):
        counted(module, "_branches", "branches")
    counted(rate_module, "j_fn", "j")
    counted(rate_module, "f_fn", "f")
    counted(rate_module, "_shift", "shift")
    counted(wigner, "j_fn", "j")
    out = tmp_path / "v.csv"
    xs = MODELS[name][1]
    assert run(["variational", "--model", model_file(name),
                "--x=" + ",".join(map(repr, xs)), "--out", str(out)]) == 0
    wigner_model = name.startswith("dw")
    assert calls == {"branches": 1, "j": 2 if wigner_model else 1,
                     "f": 0 if wigner_model else 1, "shift": 2 if wigner_model else 1}
    monkeypatch.undo()
    model = load(name)
    sigma = sigma_rule(model)
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().strip().splitlines()[1:]]
    for x, (xv, primal, varia, _) in zip(xs, rows):
        assert xv == x
        assert primal == rate(model, x)
        assert varia == rate_variational(model, x, sigma)


def test_the_command_at_and_below_the_edge(tmp_path, capsys):
    """r(sigma) and a point of the snap window below it give 0 in both
    columns; a point below the window is a numeric failure naming it."""
    path = model_file("wishart1")
    out = tmp_path / "v.csv"
    r = load("wishart1").edge.r_sigma
    snapped = r - 1e-13 * max(1.0, abs(r))
    assert run(["variational", "--model", path, f"--x={snapped!r},{r!r},6",
                "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [row[1:] for row in rows[:2]] == [["0", "0", "0"]] * 2
    capsys.readouterr()
    below = r - 1e-9
    assert run(["variational", "--model", path, f"--x=6,{below!r}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ValueError" in err and f"x={below!r} below r(sigma)" in err


# -- density with both bounds ------------------------------------------------------------


@pytest.mark.parametrize("name, bounds", [("wishart1", ("0.2", "3.8")),
                                          ("dw-point", ("-1.8", "1.8"))])
def test_density_with_both_bounds_seeds_from_the_window(name, bounds, tmp_path, monkeypatch):
    """With both bounds given the command still solves the window, whose
    seed starts every point: it prints sigma_density, which solves the
    window too. Where the window does not solve (the edge solves patched to
    raise SolverError) the points descend, in the command and in
    sigma_density on a model whose window is not yet solved alike."""
    argv = ["density", "--model", model_file(name), "--xmin", bounds[0], "--xmax", bounds[1],
            "--points", "40"]
    seeded, descended = tmp_path / "seeded.csv", tmp_path / "descended.csv"
    assert run(argv + ["--out", str(seeded)]) == 0
    xs = np.linspace(float(bounds[0]), float(bounds[1]), 40)
    assert seeded.read_text() == csv_text("x,density", (xs, sigma_density(load(name), xs, 1e-4)))

    def refuse(*args, **kwargs):
        raise SolverError("edge refused")

    monkeypatch.setattr(dyson, "edge_solve", refuse)
    monkeypatch.setattr(wigner, "dw_edge", refuse)
    assert run(argv + ["--out", str(descended)]) == 0
    model = load(name)
    assert descended.read_text() == csv_text("x,density", (xs, sigma_density(model, xs, 1e-4)))


def test_degenerate_density_with_both_bounds_fails(tmp_path, capsys):
    assert run(["density", "--model", model_file("degenerate"), "--xmin", "0",
                "--xmax", "1"]) == 1
    assert "degenerate model has no continuous density" in capsys.readouterr().err
