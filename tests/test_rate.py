import math

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from rmtldp.dyson import (
    CovarianceModel,
    DegenerateModelError,
    SolverError,
    edge_solve,
)
from rmtldp.measures import SpectralMeasure
from rmtldp.rate import (
    approx_sweep,
    epsilon_truncate,
    f_fn,
    j_fn,
    rate,
    rate_degenerate,
    rate_table,
    rate_variational,
)
from rmtldp.wigner import DeformedWignerModel

from test_branch_solver import solvable_edge
from test_density_oracle import BENCHMARK_MODELS, SOLVED_MODELS, atomic_measures
from theta_space import j_shift


def wishart(alpha, sign=1.0, beta=1):
    return CovarianceModel(SpectralMeasure.point_mass(sign), alpha, beta)


def mp1_rate_oracle(x):
    # antiderivative of sqrt(1 - 4/u) between 4 and x, halved by beta/2 = 1/2
    t = math.sqrt(1.0 - 4.0 / x)
    return 2.0 * t / (1.0 - t * t) - 2.0 * math.atanh(t)


class TestRatePrimal:
    def test_vanishes_at_edge(self):
        assert rate(wishart(1.0), 4.0) == 0.0

    @pytest.mark.parametrize("x", [4.5, 5.0, 6.0, 10.0])
    def test_closed_form(self, x):
        assert rate(wishart(1.0), x) == pytest.approx(mp1_rate_oracle(x), abs=1e-9)

    def test_reference_value(self):
        assert rate(wishart(1.0), 5.0) == pytest.approx(0.1556103, abs=1e-6)

    def test_beta_two_doubles(self):
        m2 = CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0, 2, "complex_gaussian")
        assert rate(m2, 5.0) == pytest.approx(2.0 * rate(wishart(1.0), 5.0), rel=1e-10)

    def test_infinite_below_edge(self):
        assert rate(wishart(1.0), 3.0) == math.inf

    def test_negative_support_infinite_at_zero(self):
        model = wishart(2.0, sign=-1.0)
        assert rate(model, 0.0) == math.inf
        assert rate(model, 0.5) == math.inf
        assert math.isfinite(rate(model, -0.05))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateModelError):
            rate(wishart(0.5, sign=-1.0), 0.1)

    def test_derivative_matches_branch_gap(self):
        model = wishart(1.0)
        from rmtldp.dyson import g_bar_sigma, g_sigma
        for x in (4.6, 5.5, 8.0):
            h = 1e-4
            fd = (rate(model, x + h) - rate(model, x - h)) / (2.0 * h)
            gap = 0.5 * (g_bar_sigma(model, x) - g_sigma(model, x))
            assert fd == pytest.approx(gap, rel=1e-5)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_asymptotic_slope(self, alpha):
        model = wishart(alpha)
        edge = edge_solve(model)
        x = 200.0 * max(1.0, edge.r_sigma)
        assert rate(model, x) / x == pytest.approx(edge.theta_max / 2.0, rel=0.05)


class TestRateDegenerate:
    def test_values(self):
        assert rate_degenerate(0.0) == 0.0
        assert rate_degenerate(0.3) == math.inf
        assert rate_degenerate(-0.3) == math.inf


class TestJFunctional:
    def test_zero_theta(self):
        mu = SpectralMeasure.point_mass(0.0)
        assert j_fn(mu, 0.0, 2.0) == 0.0

    def test_point_mass_value(self):
        mu = SpectralMeasure.point_mass(0.0)
        # G(2) = 0.5 <= 2 so v = 1.5 and J = 1.5 - log(4)/2
        assert j_fn(mu, 1.0, 2.0) == pytest.approx(1.5 - 0.5 * math.log(4.0), abs=1e-12)

    def test_shift_inverse_branch(self):
        mu = SpectralMeasure.point_mass(0.0)
        # G(2) = 0.5 >= 2*0.2, inverse of 1/lambda at 0.4 is 2.5
        assert j_shift(mu, 0.2, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_oracle(self):
        from scipy import integrate
        mu = SpectralMeasure.semicircle(0.0, 2.0)
        theta, lam = 0.8, 2.5
        v = j_shift(mu, theta, lam)
        dens = lambda y: math.sqrt(max(4.0 - y * y, 0.0)) / (2.0 * math.pi)
        log_int, _ = integrate.quad(
            lambda y: math.log(1.0 + 2.0 * theta * v - 2.0 * theta * y) * dens(y), -2.0, 2.0,
            limit=200)
        assert j_fn(mu, theta, lam) == pytest.approx(theta * v - 0.5 * log_int, abs=1e-8)

    def test_atom_at_edge_takes_inverse_branch(self):
        mu = SpectralMeasure.point_mass(1.0)
        # G(1) = inf forces the inverse branch: K = 1 + 1/(2 theta) = 1.1,
        # v = 1, and the log moment cancels the log(2 theta) term exactly
        assert j_fn(mu, 5.0, 1.0) == pytest.approx(5.0, abs=1e-10)

    def test_lambda_below_edge_rejected(self):
        mu = SpectralMeasure.point_mass(1.0)
        with pytest.raises(ValueError):
            j_fn(mu, 1.0, 0.5)


class TestFFunctional:
    def test_wishart_value(self):
        assert f_fn(wishart(1.0), 0.5) == pytest.approx(-0.5 * math.log(0.5), abs=1e-14)
        assert f_fn(wishart(1.0), 0.5) == pytest.approx(0.3465736, abs=1e-7)

    def test_zero(self):
        assert f_fn(wishart(3.0), 0.0) == 0.0

    def test_negative_atom(self):
        assert f_fn(wishart(2.0, sign=-1.0), 1.0) == pytest.approx(-math.log(1.5), abs=1e-14)

    def test_beyond_theta_max_rejected(self):
        with pytest.raises(ValueError):
            f_fn(wishart(1.0), 1.0)


class TestRateVariational:
    def test_zero_at_edge(self):
        model = wishart(1.0)
        assert abs(rate_variational(model, 4.0)) <= 2e-3

    def test_matches_primal(self):
        model = wishart(1.0)
        from rmtldp.dyson import sigma_measure
        sigma = sigma_measure(model, 2000)
        for x in (4.5, 5.0, 7.0):
            assert rate_variational(model, x, sigma) == pytest.approx(
                rate(model, x), abs=2e-3)

    def test_negative_model_matches_primal(self):
        model = wishart(2.0, sign=-1.0)
        from rmtldp.dyson import sigma_measure
        sigma = sigma_measure(model, 2000)
        for x in (-0.07, -0.04, -0.01):
            assert rate_variational(model, x, sigma) == pytest.approx(
                rate(model, x), abs=2e-3)

    def test_empirical_spectrum_matches_primal(self):
        # the paper's Gamma given as data: the 400 eigenvalues of a seeded
        # Wishart sample (p = 400, n = 1600) as equal atoms, summed by the
        # table kernel; the two forms agree to about 2e-8
        from rmtldp.dyson import sigma_measure
        rng = np.random.default_rng(2025)
        x = rng.standard_normal((400, 1600))
        spectrum = np.linalg.eigvalsh(x @ x.T / 1600)
        rho = SpectralMeasure.from_atoms(spectrum, np.full(400, 1.0 / 400))
        assert rho.atom_locations.size == 400
        model = CovarianceModel(rho, 2.0)
        edge = edge_solve(model)
        sigma = sigma_measure(model, 2000)
        for x in edge.r_sigma + np.array([0.05, 0.3, 1.0, 3.0, 8.0]):
            assert rate_variational(model, x, sigma) == pytest.approx(
                rate(model, x), abs=2e-3)

    def test_beta_two_doubles(self):
        from rmtldp.dyson import sigma_measure
        m1 = wishart(1.0)
        m2 = CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0, 2, "complex_gaussian")
        sigma = sigma_measure(m1, 2000)
        v1 = rate_variational(m1, 5.0, sigma)
        v2 = rate_variational(m2, 5.0, sigma)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


class TestEpsilonTruncate:
    def test_no_mass_in_window_is_identity(self):
        rho = SpectralMeasure.from_atoms([1.0, 3.0], [0.5, 0.5])
        assert epsilon_truncate(rho, 0.5) is rho

    def test_uniform_truncation(self):
        rho = SpectralMeasure.uniform(0.0, 1.0)
        out = epsilon_truncate(rho, 0.25)
        assert out.atom_mass(1.0) == pytest.approx(0.25, abs=1e-12)
        assert len(out.components) == 1
        comp = out.components[0]
        assert comp.kind == "uniform" and comp.b == pytest.approx(0.75)
        assert abs(out.total_mass() - 1.0) < 1e-12

    def test_truncated_measure_has_infinite_x_c(self):
        rho = epsilon_truncate(SpectralMeasure.semicircle(2.0, 1.0), 0.2)
        assert CovarianceModel(rho, 1.0).edge.x_c == math.inf

    def test_atom_collision_nudges(self):
        rho = SpectralMeasure.from_atoms([0.0, 0.5, 1.0], [0.25, 0.25, 0.5])
        # the cut lands exactly on the atom at 0.5; nudging eps upward moves
        # the cut just below it, so that atom is absorbed into the edge
        out = epsilon_truncate(rho, 0.5)
        assert out.atom_mass(1.0) == pytest.approx(0.75)
        assert out.atom_mass(0.5) == 0.0
        assert out.atom_mass(0.0) == pytest.approx(0.25)

    def test_eps_out_of_range(self):
        rho = SpectralMeasure.uniform(0.0, 1.0)
        with pytest.raises(Exception):
            epsilon_truncate(rho, 1.5)

    @pytest.mark.parametrize("eps", [0.013, 0.1, 0.37])
    def test_table_truncation_selects_nodes_and_conserves_mass(self, eps):
        # a nodes-only table, as a model file holds it: the kept component is
        # exactly the nodes up to the cut, and the rest of the weight moves to
        # the edge atom
        rho = SpectralMeasure.from_json(SpectralMeasure.from_density(
            lambda u: 1.5 * np.sqrt(np.asarray(u)), (0.0, 1.0), 64).to_json())
        out = epsilon_truncate(rho, eps)
        assert abs(out.total_mass() - 1.0) <= 1e-12
        comp, base = out.components[0], rho.components[0]
        sel = base.nodes <= 1.0 - eps
        assert np.array_equal(comp.nodes, base.nodes[sel])
        assert np.array_equal(comp.weights, base.weights[sel])
        assert out.atom_mass(1.0) == base.mass - comp.mass

    def test_truncated_semicircle_transform_accuracy(self):
        from scipy import integrate
        from rmtldp.measures import Semicircle
        rho = epsilon_truncate(SpectralMeasure.semicircle(2.0, 1.0), 0.1)
        law = Semicircle(2.0, 1.0)
        for z in (3.05, 3.5, 6.0):
            tail_atom = rho.atom_mass(3.0) / (z - 3.0)
            body, _ = integrate.quad(lambda u: law(u) / (z - u), 1.0, 2.9, limit=400)
            assert rho.stieltjes(z) == pytest.approx(tail_atom + body, abs=1e-9)


class TestRateTable:
    def test_invariants(self):
        table = rate_table(wishart(1.0), 8.0, 100)
        assert table.i_values[0] == 0.0
        assert np.all(np.diff(table.i_values) >= 0.0)
        d2 = np.diff(table.i_values, 2)
        assert np.min(d2) >= -1e-9
        assert np.all(np.diff(table.g_values) < 0)
        assert np.all(np.diff(table.gbar_values) > 0)

    def test_matches_rate(self):
        model = wishart(1.0)
        table = rate_table(model, 6.0, 21)
        for x, i_val in zip(table.x_grid[1:], table.i_values[1:]):
            assert i_val == pytest.approx(mp1_rate_oracle(x), abs=1e-8)

    def test_csv_shape(self, tmp_path):
        table = rate_table(wishart(1.0), 6.0, 10)
        path = tmp_path / "t.csv"
        with open(path, "w") as fh:
            table.write_csv(fh)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,G,Gbar,I"
        assert len(lines) == 11


class TestApproxSweep:
    def test_noop_truncation_is_exact(self):
        model = wishart(1.0)
        sweep = approx_sweep(model, [0.3], np.linspace(4.5, 8.0, 8))
        assert sweep.sup_error[0] == 0.0
        assert sweep.r_sigma_eps[0] == pytest.approx(4.0, abs=1e-10)

    def test_semicircle_sweep_small(self):
        model = CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), 1.0)
        edge = edge_solve(model)
        xs = np.linspace(edge.r_sigma + 0.5, 20.0, 12)
        sweep = approx_sweep(model, [0.4, 0.1], xs)
        assert sweep.sup_error[1] > sweep.sup_error[0] > 0.0  # sorted ascending in eps
        assert sweep.r_sigma_eps[0] <= sweep.r_sigma_eps[1]
        assert sweep.r_sigma_eps[0] >= edge.r_sigma - 1e-10


# -- invariants over random atomic models ----------------------------------------------


def solvable_grid(model, edge):
    """61 points from r(sigma) over a reach of 3 model scales, short of
    x_end, and the reach. The scale is the largest |atom|, at least 1 for
    deformed Wigner, whose semicircle has radius 2. The grid ends before
    the first point where the branch solve raises SolverError: there the
    left root lies closer to a top atom tiny against the others than the
    snap window of the edge transforms, beyond every probe
    (test_branch_solver.test_a_left_root_next_to_a_tiny_top_atom_raises_naming_x)."""
    mu = model.diagonal_law
    scale = max(abs(mu.left_edge), abs(mu.right_edge))
    if isinstance(model, DeformedWignerModel):
        scale = max(1.0, scale)
    r = edge.r_sigma
    reach = min(3.0 * scale, 0.9 * (edge.x_end - r))
    xs = r + reach * np.linspace(0.0, 1.0, 61)
    for k, x in enumerate(xs):
        try:
            model.branches(x)
        except SolverError:
            return xs[:k], reach
    return xs, reach


# a derandomized test draws from a digest of its own source; this seed is
# that digest from before its calls stopped passing the edge, so it keeps
# the same draws. About one seed in 30 draws a spectrum whose top lies
# within 1e-13 of 0, the family of the strict xfail below, which pins one
@seed(0x2f19061855ee0add5f8b263fc606115bbc8006f10f1b00d3e0b02278495b361ce24e73f38cc58474f802ccd9f6299ee)
@given(mu=atomic_measures, alpha=st.floats(0.3, 3.0), beta=st.sampled_from([1, 2]))
def test_rate_invariants_on_random_atomic_models(mu, alpha, beta):
    """For both kinds, on the solvable grid:
    - I(r(sigma)) = 0 exactly, and I >= 0;
    - I is convex: its second differences are >= -1e-12 max(1, max I), the
      rounding of the O(1) terms the rate's bracket cancels (over 37000
      random models, on this grid or one of reach 3 max(1, |r|), the worst
      was -5.7e-16 max I, apart from the case of the strict xfail below).
    I' = (beta/2)(Gbar - G) on the same draws is
    test_rate_slope_is_the_branch_gap_on_random_atomic_models. A spectrum
    whose top lies within 1e-13 of 0 breaks convexity inside the edge's snap
    window: the strict xfail below."""
    law = "gaussian" if beta == 1 else "complex_gaussian"
    for model in (CovarianceModel(mu, alpha, beta, law), DeformedWignerModel(mu, beta, law)):
        if model.degenerate:
            continue
        edge = solvable_edge(model)
        xs, _ = solvable_grid(model, edge)
        assert rate(model, edge.r_sigma) == 0.0
        i = rate(model, xs)
        assert np.all(i >= 0.0) and i[0] == 0.0
        assert np.all(np.diff(i, 2) >= -1e-12 * max(1.0, np.max(i)))


@pytest.mark.xfail(strict=True, reason=(
    "dyson._edge_side treats x within 1e-13 max(1, |r|) of r(sigma) as the edge, a window of "
    "absolute width 1e-13 when |r| < 1; these spectra's tops lie 1.3e-13 and 1.8e-13 below 0, "
    "and inside that window the rate (0.47 at the first) is returned as 0"))
def test_rate_inside_the_edge_snap_window_of_a_tiny_spectrum():
    """73% of rho's mass at -1e-12, the rest near -2, alpha = 1.93: r(sigma)
    = -1.27e-13, and the rate is +inf from x_end = 0 on. The random-model
    invariants met it (at beta = 2) as a jump of the rate from 0 to 0.98
    between two grid points 2e-15 apart, a negative second difference. At
    r(sigma) + 0.99e-13 the branch roots, solved without the snap, give a
    rate of 0.466. The invariants met the family again at atoms -1 and
    -1e-12 (weights 7:2), alpha = 1.28125, r(sigma) = -1.76e-13: on their
    61 points over 0.9 |r(sigma)| the rate is 0 at the first 38 and then
    jumps, a second difference of -0.047."""
    rho = SpectralMeasure.from_atoms(
        [-2.3193315553330445, -2.037966590425291, -1e-12],
        [0.1343726297997183, 0.1359551481402486, 0.7296722220600331])
    model = CovarianceModel(rho, 1.9279854782149104)
    tiny = CovarianceModel(SpectralMeasure.from_atoms([-1.0, -1e-12], [7 / 9, 2 / 9]), 1.28125)
    r = tiny.edge.r_sigma
    second = np.diff(rate(tiny, r + 0.9 * abs(r) * np.linspace(0.0, 1.0, 61)), 2)
    assert rate(model, model.edge.r_sigma + 0.99e-13) > 0.4 and np.all(second >= -1e-12)


# -- the rate's slope: I'(x) = (beta/2)(Gbar(x) - G(x)) ------------------------------
#
# By central differences of rate at the step h = 1e-4 min(x - r(sigma),
# x_end - x): near the square-root edge I ~ (x - r)^(3/2), so the truncation
# error h^2 I'''/(6 I') is about 1e-8 times a constant of order 1 at any
# distance from the edge, where a step fixed to the scale of x is too coarse
# on a domain as narrow as neg-wishart's (0.08 wide). A step whose interval
# holds the second branch's kinks, level.x_cap and level.x_floor, is
# skipped. The largest error seen was 5.9e-9 |I'| over 200 random atomic
# models of each kind (neg-wishart-like tops next to x_end) and 4.6e-9 on
# the benchmark models.

SLOPE_STEP = 1e-4
SLOPE_TOL = 1e-7


def assert_slope_identity(model, xs):
    """|central difference - (beta/2)(Gbar - G)| <= SLOPE_TOL |(beta/2)(Gbar
    - G)| at the points of xs inside (r(sigma), x_end)."""
    edge, level = model.edge, model.level
    r = edge.r_sigma
    xs = xs[(xs > r) & (xs < edge.x_end)]
    h = SLOPE_STEP * np.minimum(xs - r, edge.x_end - xs)
    for kink in (level.x_cap, level.x_floor):
        keep = (xs + h < kink) | (xs - h > kink)
        xs, h = xs[keep], h[keep]
    assert xs.size
    g, g_bar = model.branches(xs)
    slope = 0.5 * model.beta * (g_bar - g)
    central = (rate(model, xs + h) - rate(model, xs - h)) / (2.0 * h)
    assert np.all(np.abs(central - slope) <= SLOPE_TOL * np.abs(slope))


# the draws of test_rate_invariants_on_random_atomic_models
@seed(0x2f19061855ee0add5f8b263fc606115bbc8006f10f1b00d3e0b02278495b361ce24e73f38cc58474f802ccd9f6299ee)
@given(mu=atomic_measures, alpha=st.floats(0.3, 3.0), beta=st.sampled_from([1, 2]))
def test_rate_slope_is_the_branch_gap_on_random_atomic_models(mu, alpha, beta):
    """On the solvable grid of the invariants test, whose every x + h lies
    below the next grid point, which solved."""
    law = "gaussian" if beta == 1 else "complex_gaussian"
    for model in (CovarianceModel(mu, alpha, beta, law), DeformedWignerModel(mu, beta, law)):
        if model.degenerate:
            continue
        xs, _ = solvable_grid(model, solvable_edge(model))
        assert_slope_identity(model, xs[1:-1])


@pytest.mark.parametrize("name", SOLVED_MODELS)
def test_rate_slope_is_the_branch_gap_on_the_benchmark_models(name):
    """On the solvable grid, and past a finite x_c (semicircle-rho's 18),
    where the second branch is capped, up to 2 x_c - r(sigma)."""
    model = BENCHMARK_MODELS[name]
    xs, _ = solvable_grid(model, model.edge)
    x_c = model.level.x_cap
    if math.isfinite(x_c) and x_c < model.edge.x_end:
        xs = np.append(xs, x_c + (x_c - model.edge.r_sigma) * np.linspace(0.05, 1.0, 20))
    assert_slope_identity(model, xs)
