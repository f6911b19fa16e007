import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from rmtldp import dyson, wigner
from rmtldp._quad import sqrt_adapted_rule
from rmtldp.dyson import (
    CovarianceModel,
    DegenerateModelError,
    SolverError,
    detect_degenerate,
    edge_solve,
    g_bar_sigma,
    g_sigma,
    limit_stieltjes,
    sigma_density,
    sigma_measure,
    sigma_rule,
    support_window,
)
from rmtldp.measures import SpectralMeasure, remove_zero_atom
from rmtldp.rate import rate, rate_table, rate_variational
from rmtldp.wigner import DeformedWignerModel
from test_sigma_rule import MODELS as MODEL_FILES
from test_sigma_rule import load
from theta_space import h_curve, h_direct


def wishart(alpha, sign=1.0, beta=1, law="gaussian"):
    return CovarianceModel(SpectralMeasure.point_mass(sign), alpha, beta, law)


def semicircle_model(alpha=1.0):
    return CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), alpha)


def mp_right_edge(alpha):
    return (1.0 + 1.0 / math.sqrt(alpha)) ** 2


def mp_density(x, alpha=1.0):
    # density of the limit of (1/M) Z^T Z eigenvalues, M/N -> alpha
    lo = (1.0 - 1.0 / math.sqrt(alpha)) ** 2
    hi = mp_right_edge(alpha)
    if not lo < x < hi:
        return 0.0
    return alpha * math.sqrt((x - lo) * (hi - x)) / (2.0 * math.pi * x)


class TestModelValidation:
    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            CovarianceModel(SpectralMeasure.point_mass(1.0), 0.0)

    # bool is an int in Python: True once built alpha = 1
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, True, "0.5", None])
    def test_alpha_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            CovarianceModel(SpectralMeasure.point_mass(1.0), alpha)

    @pytest.mark.parametrize("beta", [True, 1.5, 2.0])
    def test_beta_an_integer(self, beta):
        """bool is an int in Python, and 1.5 once reached the model as int(1.5) = 1."""
        with pytest.raises(ValueError, match="beta must be the integer 1 or 2"):
            CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0, beta)
        with pytest.raises(ValueError, match="beta must be the integer 1 or 2"):
            DeformedWignerModel(SpectralMeasure.point_mass(1.0), beta)

    def test_non_gaussian_needs_nonnegative_support(self):
        with pytest.raises(ValueError):
            CovarianceModel(SpectralMeasure.point_mass(-1.0), 1.0, 1, "rademacher")

    def test_beta_law_consistency(self):
        with pytest.raises(ValueError):
            CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0, 2, "gaussian")
        with pytest.raises(ValueError):
            CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0, 1, "complex_gaussian")
        CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0, 2, "complex_rademacher")


class TestHRho:
    """H(theta) = x(alpha/theta), read off the level curve."""

    def test_wishart_value(self):
        assert h_curve(wishart(1.0), 0.5) == pytest.approx(4.0, rel=1e-14)

    def test_negative_atom_value(self):
        assert h_curve(wishart(2.0, sign=-1.0), 1.0) == pytest.approx(1.0 - 2.0 / 3.0, rel=1e-14)

    def test_semicircle_at_theta_max(self):
        model = semicircle_model()
        assert h_curve(model, 1.0 / 3.0) == pytest.approx(18.0, abs=1e-4)

    def test_matches_direct_quadrature(self):
        model = semicircle_model()
        for theta in (0.05, 0.2, 0.3):
            assert h_curve(model, theta) == pytest.approx(h_direct(model, theta), rel=1e-10)


class TestThresholds:
    def test_atom_at_positive_edge(self):
        edge = wishart(2.0).edge
        assert edge.theta_max == 2.0
        assert edge.x_c == math.inf

    def test_negative_support(self):
        edge = wishart(1.0, sign=-1.0).edge  # degenerate
        assert edge.theta_max == math.inf and edge.x_c == math.inf
        edge = wishart(2.0, sign=-1.0).edge
        assert edge.theta_max == math.inf and edge.x_c == math.inf

    def test_semicircle(self):
        edge = semicircle_model().edge
        assert edge.theta_max == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert edge.x_c == pytest.approx(18.0, abs=1e-4)


@st.composite
def finite_edge_models(draw):
    """Covariance models whose G_rho is finite at r(rho) > 0: a top piece on
    [c - R, c + R], a 256-node semicircle or a 256-node table of density
    (b - u)^p (u - a)^q, p >= 1/2, declared finite at its end, with up to
    three atoms below its right end, and alpha in [0.1, 5]."""
    c, radius = draw(st.floats(-1.0, 3.0)), draw(st.floats(0.025, 1.5))
    a, b = c - radius, c + radius
    if b <= 0.0:
        a, b, c = a - b + 0.1, 0.1, c - b + 0.1
    shares = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4)))
    w = shares / shares.sum()
    atoms = [[b - draw(st.floats(1e-3, 4.0)), float(p)] for p in w[1:]]
    mass = float(1.0 - w[1:].sum())
    if draw(st.booleans()):
        piece = {"kind": "semicircle", "support": [a, b], "nodes": 256,
                 "params": {"center": c, "radius": radius, "mass": mass}}
    else:
        p, q = draw(st.floats(0.5, 3.0)), draw(st.floats(0.0, 3.0))
        nodes, qw = sqrt_adapted_rule(a, b, 256)
        dens = qw * (b - nodes) ** p * (nodes - a) ** q
        piece = {"kind": "table", "support": [a, b],
                 "params": {"x": nodes.tolist(), "w": (dens * (mass / dens.sum())).tolist(),
                            "edge_finite_g": True}}
    rho = SpectralMeasure.from_json({"atoms": atoms, "density": piece})
    return CovarianceModel(rho, draw(st.floats(0.1, 5.0)))


# bounds on |x_c - direct sum|/max(1, |x_c|), about 2.6 times the largest
# gaps on the 100 draws of the test below: 2.2e-10 on the 44 with a
# semicircle piece, 2.4e-10 on the 56 with a table. A table gives
# G_rho(r(rho)) by the same node sum as the direct sum, but alpha - theta_max
# u cancels at nodes next to r(rho) (the largest gap: a table 0.05 wide at
# alpha = 0.1). A semicircle's G is its closed form, so its gap is the
# nodes' error. Its float end r(rho) can miss c + R, where G has a
# square-root edge, and G there takes r(rho) - c as its distance to the
# centre (DensityComponent._semicircle_offsets); with c + R - c, such draws
# read gaps up to 3.7e-8
XC_GAP = {"semicircle": 6e-10, "table": 6e-10}


@settings(max_examples=100)
@given(model=finite_edge_models())
def test_x_c_equals_the_direct_sum_at_theta_max(model):
    """x_c = x(r(rho)) on the level curve, against H(theta_max) = 1/theta_max
    + integral of alpha u/(alpha - theta_max u) d rho(u) summed over the
    atoms and nodes of rho, to the bound of rho's top piece (XC_GAP)."""
    edge = model.edge
    assert edge.theta_max == model.alpha / model.rho.right_edge
    assert edge.case_tag == "pos_edge_finite_xc"
    gap = abs(edge.x_c - h_direct(model, edge.theta_max))
    assert gap <= XC_GAP[model.rho.components[0].kind] * max(1.0, abs(edge.x_c))


@settings(max_examples=200)
@given(a=st.floats(-1.0, 3.0), width=st.floats(0.25, 3.0), alpha=st.floats(0.1, 5.0))
def test_a_semicircle_keeps_its_digits_at_float_ends(a, width, alpha):
    """A semicircle read from a file with center (a + b)/2 and radius (b -
    a)/2 of floats a and b: its ends are often not c +- R exactly, even where
    fl(c + R) = b. G at b is 2/R and G at a is -2/R to 1e-14, and x_c meets
    the bound of test_x_c_equals_the_direct_sum_at_theta_max."""
    b = a + width
    c, radius = 0.5 * (a + b), 0.5 * (b - a)
    rho = SpectralMeasure.from_json({"atoms": [], "density": {
        "kind": "semicircle", "support": [a, b], "nodes": 256,
        "params": {"center": c, "radius": radius, "mass": 1.0}}})
    for end, want in ((b, 2.0 / radius), (a, -2.0 / radius)):
        for got in (rho.stieltjes(end), rho.stieltjes(np.array([end]))[0]):
            assert abs(got - want) <= 1e-14 * abs(want)
    if b > 0.0:
        model = CovarianceModel(rho, alpha)
        edge = model.edge
        assert edge.case_tag == "pos_edge_finite_xc"
        gap = abs(edge.x_c - h_direct(model, edge.theta_max))
        assert gap <= XC_GAP["semicircle"] * max(1.0, abs(edge.x_c))


class TestDegenerate:
    def test_examples(self):
        assert detect_degenerate(wishart(0.5, sign=-1.0)) is True
        assert detect_degenerate(wishart(2.0, sign=-1.0)) is False
        assert detect_degenerate(wishart(0.5)) is False

    @pytest.mark.parametrize("alpha", [0.2, 0.7, 1.0, 1.0001, 3.0])
    def test_matches_alpha_condition_without_zero_atom(self, alpha):
        # with rho({0}) = 0 and r(rho) <= 0, degeneracy is exactly alpha <= 1
        assert detect_degenerate(wishart(alpha, sign=-1.0)) == (alpha <= 1.0)

    def test_zero_atom_correction(self):
        rho = SpectralMeasure.from_atoms([0.0, -1.0], [0.5, 0.5])
        assert detect_degenerate(CovarianceModel(rho, 1.5)) is True
        assert detect_degenerate(CovarianceModel(rho, 2.5)) is False


class TestEdgeSolve:
    def test_wishart_symmetric_case(self):
        edge = edge_solve(wishart(1.0))
        assert edge.theta_c == pytest.approx(0.5, abs=1e-12)
        assert edge.r_sigma == pytest.approx(4.0, abs=1e-12)
        assert edge.case_tag == "pos_edge_infinite_xc"

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_marchenko_pastur_edges(self, alpha):
        edge = edge_solve(wishart(alpha))
        assert edge.r_sigma == pytest.approx(mp_right_edge(alpha), abs=1e-8)

    def test_negative_wishart(self):
        edge = edge_solve(wishart(2.0, sign=-1.0))
        assert edge.theta_c == pytest.approx(2.0 * (1.0 + math.sqrt(2.0)), abs=1e-8)
        assert edge.r_sigma == pytest.approx(-((1.0 - 1.0 / math.sqrt(2.0)) ** 2), abs=1e-8)
        assert edge.case_tag == "nonpos_edge"

    def test_cross_check_by_direct_minimization(self):
        model = semicircle_model()
        res = minimize_scalar(lambda t: h_curve(model, t), bounds=(1e-6, 1.0 / 3.0 - 1e-9),
                              method="bounded", options={"xatol": 1e-12})
        edge = edge_solve(model)
        assert edge.r_sigma == pytest.approx(res.fun, abs=1e-8)
        assert edge.theta_c == pytest.approx(res.x, abs=1e-6)
        assert edge.case_tag == "pos_edge_finite_xc"

    @pytest.mark.parametrize("u", [
        3.3e-17, 3.3e-100, 3.3e-150,
        # G_rho' overflows to -inf below lam - u = 7.5e-155, just short of
        # lam_c - u = 8.1e-155: the edge solve halves its bracket from an
        # end where x' is -inf to finite ends
        5e-155,
        pytest.param(3.3e-167, marks=pytest.mark.xfail(
            strict=True, raises=SolverError,
            reason="G_rho'(lam) = -1/(lam - u)^2 overflows to -inf for lam - u below "
                   "about 7.5e-155, far above lam_c (about 1e-166), and x'(lam) > 0 above "
                   "that: the edge solve halves its bracket down to two adjacent floats "
                   "with x' = -inf and x' > 0, finds no finite x' <= 0, and raises "
                   "rather than return an end")),
    ])
    def test_tiny_top_atom_scales_the_edge(self, u):
        """sigma of delta_u is sigma of delta_1 scaled by u, so r(sigma)
        scales with u. The snap window of stieltjes once had a floor of 1 on
        its scale: it covered every support within 1e-15 of 0, G_rho was +inf
        at every probe, and edge_solve raised "bracketing failed"."""
        alpha = 2.64
        r_one = edge_solve(CovarianceModel(SpectralMeasure.point_mass(1.0), alpha)).r_sigma
        r_u = edge_solve(CovarianceModel(SpectralMeasure.point_mass(u), alpha)).r_sigma
        assert abs(r_u - u * r_one) <= 1e-12 * u * r_one

    @pytest.mark.parametrize("alpha", [2.0 + 1e-15, 2.0 + 3e-15, 2.0 + 1e-14])
    def test_zero_atom_just_above_the_degenerate_threshold(self, alpha):
        """rho = (delta_-1 + delta_0)/2 is degenerate up to alpha = 2; just
        above it r(sigma) is a tiny nonpositive number. The curve of the
        reduced pair has no pole at lam = 0, so lam_c, about (alpha - 2)/4,
        is solved however close to 0 it lies; on rho's own curve it lay in
        the snap window of the atom at 0, and the edge solve raised."""
        rho = SpectralMeasure.from_atoms([-1.0, 0.0], [0.5, 0.5])
        edge = CovarianceModel(rho, alpha).edge
        assert not edge.degenerate
        assert -1e-12 < edge.r_sigma <= 0.0

    @pytest.mark.xfail(
        strict=True, raises=SolverError,
        reason="r(rho) = 1.5e-22 lies inside the 1e-15 snap window of rho's scale 1, "
               "and so does lam_c: x' > 0 down to the floor of the level past the "
               "window, which is no cap (x_c is infinite), so the edge solve raises")
    def test_top_atom_inside_the_snap_window(self):
        """A positive top atom far below the snap window of a measure whose
        other atom sets its scale; found by the random models of
        test_branch_solver.py."""
        rho = SpectralMeasure.from_atoms([1.5067585918145452e-22, -1.0], [0.5, 0.5])
        edge = CovarianceModel(rho, 1.0).edge
        assert edge.r_sigma > 0.0

    def test_degenerate_flagged(self):
        edge = edge_solve(wishart(0.5, sign=-1.0))
        assert edge.degenerate is True
        assert edge.theta_c is None and edge.r_sigma is None


class TestBranches:
    def test_g_sigma_examples(self):
        model = wishart(1.0)
        assert g_sigma(model, 4.0) == pytest.approx(0.5, abs=1e-10)
        assert g_sigma(model, 5.0) == pytest.approx((5.0 - math.sqrt(5.0)) / 10.0, abs=1e-12)
        assert g_sigma(model, 100.0) == pytest.approx(0.01, rel=0.02)

    def test_g_bar_examples(self):
        model = wishart(1.0)
        assert g_bar_sigma(model, 5.0) == pytest.approx((5.0 + math.sqrt(5.0)) / 10.0, abs=1e-12)

    def test_g_bar_capped_beyond_x_c(self):
        model = semicircle_model()
        edge = edge_solve(model)
        assert g_bar_sigma(model, 25.0) == edge.theta_max == pytest.approx(1.0 / 3.0)
        assert g_bar_sigma(model, 18.0) == edge.theta_max

    def test_g_bar_negative_support_divergence(self):
        model = wishart(2.0, sign=-1.0)
        assert g_bar_sigma(model, -0.01) > g_bar_sigma(model, -0.05)
        with pytest.raises(ValueError):
            g_bar_sigma(model, 0.0)

    def test_below_edge_rejected(self):
        model = wishart(1.0)
        with pytest.raises(ValueError):
            g_sigma(model, 3.0)
        with pytest.raises(ValueError):
            g_bar_sigma(model, 3.0)

    def test_degenerate_rejected(self):
        model = wishart(0.5, sign=-1.0)
        with pytest.raises(DegenerateModelError):
            g_sigma(model, 1.0)


class TestBranchInvariants:
    @pytest.mark.parametrize("make_model", [
        lambda: wishart(1.0),
        lambda: wishart(2.0, sign=-1.0),
        lambda: semicircle_model(),
    ])
    def test_both_branches_solve_dyson(self, make_model):
        model = make_model()
        edge = edge_solve(model)
        hi = min(edge.x_c, edge.r_sigma + 10.0)
        if model.rho.right_edge <= 0.0:
            hi = min(hi, -1e-3)
        for x in np.linspace(edge.r_sigma + 1e-4, hi, 12):
            assert h_curve(model, g_sigma(model, x)) == pytest.approx(x, abs=1e-9)
            assert h_curve(model, g_bar_sigma(model, x)) == pytest.approx(x, abs=1e-9)

    def test_branch_ordering_and_monotonicity(self):
        model = wishart(1.0)
        edge = edge_solve(model)
        xs = np.linspace(edge.r_sigma + 1e-6, edge.r_sigma + 8.0, 40)
        g = np.array([g_sigma(model, x) for x in xs])
        gb = np.array([g_bar_sigma(model, x) for x in xs])
        assert np.all(gb > g)
        assert np.all(np.diff(g) < 0)
        assert np.all(np.diff(gb) > 0)
        assert abs(g_sigma(model, edge.r_sigma) - g_bar_sigma(model, edge.r_sigma)) < 1e-8

    @pytest.mark.parametrize("make_model", [
        lambda: wishart(1.0),
        lambda: semicircle_model(),
        lambda: wishart(2.0, sign=-1.0),
    ])
    def test_f_rho_increasing_with_limit_minus_one(self, make_model):
        """f(theta) = theta^2 H'(theta) = -alpha x'(alpha/theta), read off the
        level curve, increases on (0, theta_max) from -1."""
        model = make_model()
        tmax = model.edge.theta_max
        hi = 0.999 * tmax if math.isfinite(tmax) else 50.0
        thetas = np.linspace(1e-6, hi, 100)
        vals = -model.alpha * model.curve()(model.alpha / thetas)[1]
        assert np.all(np.diff(vals) > 0)
        assert vals[0] == pytest.approx(-1.0, abs=1e-4)

    @pytest.mark.parametrize("make_model", [
        lambda: wishart(1.0),
        lambda: semicircle_model(),
        lambda: wishart(2.0, sign=-1.0),
    ])
    def test_curve_has_the_same_bits_on_floats_and_arrays(self, make_model):
        """The curve takes the float transforms on a float and on up to two
        points, and one stieltjes_pair call on more: (x, x') at a point has
        the same bits on every path."""
        curve = make_model().curve()
        lams = curve.floor + np.array([1e-3, 0.5, 2.0, 7.0])
        x, xp = curve(lams)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(xp))
        for i, lam in enumerate(lams.tolist()):
            assert curve(lam) == (x[i], xp[i])
        for few in (lams[:1], lams[1:3]):
            x_few, xp_few = curve(few)
            assert np.array_equal(x_few, x[np.isin(lams, few)])
            assert np.array_equal(xp_few, xp[np.isin(lams, few)])


class TestRemoveZeroAtomIdentity:
    def test_h_invariance(self):
        rho = SpectralMeasure.from_atoms([0.0, -1.0], [0.5, 0.5])
        tau, alpha_prime = remove_zero_atom(rho, 3.0)
        model = CovarianceModel(rho, 3.0)
        model_tau = CovarianceModel(tau, alpha_prime)
        for theta in (0.1, 0.5):
            assert h_curve(model, theta) == pytest.approx(h_curve(model_tau, theta), abs=1e-12)

    def test_h_invariance_on_grid(self):
        rho = SpectralMeasure.from_atoms([0.0, -2.0, -0.5], [0.25, 0.5, 0.25])
        tau, alpha_prime = remove_zero_atom(rho, 4.0)
        model = CovarianceModel(rho, 4.0)
        model_tau = CovarianceModel(tau, alpha_prime)
        for theta in np.linspace(0.05, 3.0, 17):
            assert h_curve(model, theta) == pytest.approx(h_curve(model_tau, theta), abs=1e-10)


class TestSupportWindow:
    def test_mp1_hard_edge(self):
        model = wishart(1.0)
        win = support_window(model)
        assert win.left == 0.0
        assert win.right == pytest.approx(4.0, abs=1e-10)
        assert win.zero_atom == 0.0

    def test_mp2_soft_left_edge(self):
        win = support_window(wishart(2.0))
        assert win.left == pytest.approx((1.0 - 1.0 / math.sqrt(2.0)) ** 2, abs=1e-10)

    def test_negative_model_window(self):
        win = support_window(wishart(2.0, sign=-1.0))
        assert win.left == pytest.approx(-((1.0 + 1.0 / math.sqrt(2.0)) ** 2), abs=1e-10)
        assert win.right == pytest.approx(-((1.0 - 1.0 / math.sqrt(2.0)) ** 2), abs=1e-10)

    def test_zero_atom_for_small_alpha(self):
        win = support_window(wishart(0.5))
        assert win.zero_atom == pytest.approx(0.5, abs=1e-14)
        assert win.left == 0.0

    def test_left_edge_where_g_rho_is_finite_at_l_rho(self):
        """G_rho' is finite at l(rho) = -2, so f stays negative on
        (alpha/l(rho), 0) and the left edge is H(alpha/l(rho)) = -2. A search
        for a zero of f there once returned 0 and cut off part of sigma. The
        left edge is -r(sigma) of the reflected model, so the grid measures of
        rho and of rho reflected lose the same mass."""
        dens = lambda u: 0.0096 * (u + 2.0) ** 2 * (3.0 - u) ** 2
        rho = SpectralMeasure.from_density(dens, (-2.0, 3.0), edge_finite_g=True)
        model = CovarianceModel(rho, 1.0)
        mirror = CovarianceModel(rho.reflected(), 1.0)
        assert support_window(model).left == pytest.approx(-2.0, abs=1e-9)
        assert sigma_density(model, -1.0, 1e-4) > 0.05
        defect = sigma_measure(model, 2000).raw_mass_defect
        assert defect == pytest.approx(sigma_measure(mirror, 2000).raw_mass_defect, abs=1e-12)

    def test_table_left_edge_needs_the_declaration(self):
        """The left edge of a table rho below 0 needs the finiteness of G_rho
        at l(rho), as its right edge does at r(rho)."""
        dens = lambda u: np.sqrt((u + 3.0) * (-1.0 - u)) * 2.0 / math.pi
        undeclared = SpectralMeasure.from_density(dens, (-3.0, -1.0))
        with pytest.raises(SolverError,
                           match=r"^left edge of sigma, at l\(rho\) = -3\.0: .*edge_finite_g"):
            support_window(CovarianceModel(undeclared, 2.0))
        declared = SpectralMeasure.from_density(dens, (-3.0, -1.0), edge_finite_g=True)
        left = support_window(CovarianceModel(declared, 2.0)).left
        assert left == pytest.approx(-6.066601576895905, abs=1e-12)

    def test_left_edge_within_rounding_of_a_degenerate_mirror(self):
        """For l(rho) >= 0 the reflected model is degenerate when alpha' =
        alpha (1 - rho({0})) <= 1. Just above it the reflected model's edge
        solves on the curve of its reduced pair, and the left edge is the
        Marchenko-Pastur one of tau = delta_1/2 at alpha', (1 -
        alpha'^(-1/2))^2 / 2, about 2.5e-32."""
        rho = SpectralMeasure.from_atoms([0.0, 1.0], [0.5, 0.5])
        model = CovarianceModel(rho, 2.0 + 1e-15)
        alpha_prime = model.reduced[1]
        assert alpha_prime == 0.5 * (2.0 + 1e-15)
        # 1 - alpha'^(-1/2) without cancellation
        exact = 0.5 * math.expm1(-0.5 * math.log1p(alpha_prime - 1.0)) ** 2
        assert support_window(model).left == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestMixedSignSpectrum:
    # two-atom population spectra (-2K and 2, equal weight) at alpha = 4:
    # the top edge of the limit decreases in K and turns negative around
    # K ~ 15 even though the population edge stays at +2

    def make(self, k):
        rho = SpectralMeasure.from_atoms([-2.0 * k, 2.0], [0.5, 0.5])
        return CovarianceModel(rho, 4.0)

    def test_edge_decreases_and_changes_sign(self):
        edges = [edge_solve(self.make(k)).r_sigma for k in (1.0, 3.0, 10.0, 20.0)]
        assert all(a > b for a, b in zip(edges, edges[1:]))
        assert edges[0] > 0.0 > edges[-1]

    def test_negative_edge_branches_still_solve(self):
        model = self.make(20.0)
        edge = edge_solve(model)
        assert edge.r_sigma < 0.0
        assert edge.case_tag == "pos_edge_infinite_xc"
        for x in (edge.r_sigma + 0.3, 0.0, 1.5):
            assert h_curve(model, g_sigma(model, x)) == pytest.approx(x, abs=1e-9)
            assert h_curve(model, g_bar_sigma(model, x)) == pytest.approx(x, abs=1e-9)

    def test_wide_atoms_merge_into_one_band(self):
        # for alpha = 4 the free components overlap: the density bridges the
        # region between the population atoms instead of leaving a gap
        model = self.make(3.0)
        assert sigma_density(model, -3.0, 1e-5) > 0.01
        sm = sigma_measure(model, 1200)
        assert abs(sm.total_mass() - 1.0) < 1e-12
        assert sm.raw_mass_defect < 1e-3


class TestDisconnectedSupport:
    # two separated positive population atoms at small alpha give a large
    # zero atom plus two separated spectral bands of equal mass; the split
    # is pinned by a Monte Carlo oracle (exactly half the nonzero
    # eigenvalues sit in each band: cdf(18) = 0.95)

    def make(self):
        rho = SpectralMeasure.from_atoms([1.0, 4.0], [0.5, 0.5])
        return CovarianceModel(rho, 0.1)

    def test_gap_density_vanishes(self):
        model = self.make()
        assert sigma_density(model, 18.0, 1e-6) <= 1e-6
        assert sigma_density(model, 10.0, 1e-6) > 1e-3
        assert sigma_density(model, 40.0, 1e-6) > 1e-3

    def test_band_masses_match_sampling_oracle(self):
        sm = sigma_measure(self.make(), 2000)
        assert sm.atom_mass(0.0) == pytest.approx(0.9, abs=1e-12)
        assert sm.raw_mass_defect < 1e-4
        assert sm.cdf(18.0) == pytest.approx(0.95, abs=1e-3)


class TestRandomizedAtomicModels:
    # seeded random population spectra: the solved branch structure must
    # satisfy its defining identities regardless of the atom layout

    @pytest.mark.parametrize("trial", range(12))
    def test_branch_identities(self, trial):
        rng = np.random.default_rng(trial)
        k = int(rng.integers(1, 5))
        locs = rng.uniform(-3.0, 3.0, k)
        w = rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k
        rho = SpectralMeasure.from_atoms(locs, w / w.sum())
        alpha = float(rng.uniform(0.2, 4.0))
        model = CovarianceModel(rho, alpha)
        if detect_degenerate(model):
            assert rho.right_edge <= 0.0
            assert alpha * (1.0 - rho.atom_mass(0.0)) <= 1.0
            return
        edge = edge_solve(model)
        assert edge.theta_c > 0.0
        hi = edge.r_sigma + 1.5
        if rho.right_edge <= 0.0:
            hi = min(hi, 0.5 * edge.r_sigma) if edge.r_sigma < 0 else -1e-6
        for x in np.linspace(edge.r_sigma + 1e-5, hi, 4):
            g = g_sigma(model, x)
            gb = g_bar_sigma(model, x)
            assert gb >= g
            assert h_curve(model, g) == pytest.approx(x, abs=1e-8)
            assert h_curve(model, gb) == pytest.approx(x, abs=1e-8)


class TestMixedAtomAndDensity:
    def make_model(self):
        # population law: half an atom at 0.5, half a semicircle around 2
        obj = {
            "atoms": [[0.5, 0.5]],
            "density": {"kind": "semicircle",
                        "params": {"center": 2.0, "radius": 0.8, "mass": 0.5},
                        "support": [1.2, 2.8], "nodes": 128},
        }
        return CovarianceModel(SpectralMeasure.from_json(obj), 1.5)

    def test_solves_and_normalizes(self):
        model = self.make_model()
        assert abs(model.rho.total_mass() - 1.0) < 1e-12
        edge = edge_solve(model)
        assert edge.r_sigma > 2.8  # top edge beyond the population support
        for x in (edge.r_sigma + 0.2, edge.r_sigma + 1.0):
            assert h_curve(model, g_sigma(model, x)) == pytest.approx(x, abs=1e-9)
            assert h_curve(model, g_bar_sigma(model, x)) == pytest.approx(x, abs=1e-9)

    def test_grid_measure_quality(self):
        sm = sigma_measure(self.make_model(), 1200)
        assert abs(sm.total_mass() - 1.0) < 1e-12
        assert sm.raw_mass_defect < 1e-3


class TestSigmaDensity:
    def test_mp1_bulk_value(self):
        model = wishart(1.0)
        val = sigma_density(model, 2.0, 1e-4)
        assert val == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-3)

    def test_mp1_outside_support(self):
        assert sigma_density(wishart(1.0), 5.0, 1e-4) <= 1e-3

    def test_mp1_curve(self):
        model = wishart(1.0)
        xs = np.linspace(0.2, 3.8, 25)
        vals = sigma_density(model, xs, 1e-4)
        oracle = np.array([mp_density(x) for x in xs])
        assert np.max(np.abs(vals - oracle)) < 1e-3

    def test_eta_rejected(self):
        with pytest.raises(ValueError):
            sigma_density(wishart(1.0), 2.0, 0.0)


class TestSigmaMeasure:
    def test_mass_normalized(self):
        sm = sigma_measure(wishart(1.0), 800)
        assert abs(sm.total_mass() - 1.0) < 1e-12
        assert sm.raw_mass_defect < 1e-3

    def test_cdf_matches_mp1(self):
        sm = sigma_measure(wishart(1.0), 1500)
        from scipy import integrate
        for x in (0.5, 1.0, 2.0, 3.5):
            oracle, _ = integrate.quad(mp_density, 0.0, x, limit=200)
            assert sm.cdf(x) == pytest.approx(oracle, abs=2e-3)

    def test_zero_atom_included(self):
        sm = sigma_measure(wishart(0.5), 600)
        assert sm.atom_mass(0.0) == pytest.approx(0.5, abs=1e-12)
        assert abs(sm.total_mass() - 1.0) < 1e-12

    @pytest.mark.parametrize("u", [8.9e-16, 1e-14])
    def test_a_tiny_scalar_gamma_keeps_its_marchenko_pastur_law(self, u):
        """sigma of Gamma = u I is sigma of Gamma = I scaled by u: a zero atom
        of 1 - alpha and one band up to u r(sigma(delta_1))."""
        ref = CovarianceModel(SpectralMeasure.point_mass(1.0), 0.3).sigma
        sigma = CovarianceModel(SpectralMeasure.point_mass(u), 0.3).sigma
        assert sigma.atom_mass(0.0) == pytest.approx(0.7, abs=1e-12)
        assert sigma.right_edge == pytest.approx(u * ref.right_edge, rel=1e-9)

    @pytest.mark.parametrize("u", [1.5e-14, 1e-13, 1e-12, 1e-10, 1.0])
    def test_a_small_scalar_gamma_keeps_the_mass_of_its_limit_law(self, u):
        """sigma of Gamma = u I is sigma of Gamma = I scaled by u, whose rule
        loses 5.6e-15 of its mass: the limit law's Newton test and descent
        read the model's unit, u, where a floor of 1 lost 4.3e-3 at 1e-13."""
        sigma = CovarianceModel(SpectralMeasure.point_mass(u), 0.3).sigma
        assert sigma.raw_mass_defect <= 1e-12

    def test_negative_model_support(self):
        sm = sigma_measure(wishart(2.0, sign=-1.0), 600)
        lo, hi = sm.edges()
        assert lo == pytest.approx(-((1.0 + 1.0 / math.sqrt(2.0)) ** 2), abs=1e-8)
        assert hi == pytest.approx(-((1.0 - 1.0 / math.sqrt(2.0)) ** 2), abs=1e-8)

    @pytest.mark.parametrize("grid_points", [0, -5, 1, 2, 2.5])
    def test_a_grid_of_fewer_than_3_points_is_refused(self, grid_points):
        with pytest.raises(ValueError, match="grid_points"):
            sigma_measure(wishart(1.0), grid_points)

    def test_a_grid_of_3_points_gives_a_measure(self):
        sm = sigma_measure(wishart(1.0), 3)
        assert abs(sm.total_mass() - 1.0) < 1e-12


# -- the solved state kept on the model ---------------------------------------------

def sigma_bytes(sigma):
    """Every number of a measure, as bytes."""
    parts = [sigma.atom_locations, sigma.atom_weights]
    for c in sigma.components:
        parts += [np.array([c.a, c.b, c.mass]), c.nodes, c.weights]
    return b"".join(np.asarray(p, dtype=float).tobytes() for p in parts)


@pytest.mark.parametrize("name", sorted(p.stem for p in MODEL_FILES.glob("*.json")))
def test_the_kept_state_equals_its_solves_bit_for_bit(name):
    """model.edge, model.window and model.sigma are edge_solve (dw_edge),
    support_window (the window of both edge solves) and sigma_rule of the
    same model, and a second read returns the same objects."""
    model = load(name)
    edge = model.edge
    if isinstance(model, DeformedWignerModel):
        assert repr(edge) == repr(wigner.dw_edge(model))
        mirror = wigner.dw_edge(model.reflected())
        want = (-mirror.r_edge, edge.r_edge, 0.0, mirror.y_c - mirror.r_edge,
                edge.r_edge - edge.y_c)
        assert repr(astuple(model.window)) == repr(want)
    else:
        assert repr(edge) == repr(edge_solve(model))
        if edge.degenerate:
            return
        assert repr(model.window) == repr(support_window(model))
    assert sigma_bytes(model.sigma) == sigma_bytes(sigma_rule(model))
    assert model.edge is edge and model.window is model.window and model.sigma is model.sigma


@pytest.mark.parametrize("make_model", [
    lambda: CovarianceModel(SpectralMeasure.from_atoms([-1.0, 2.0], [0.5, 0.5]), 0.3),
    lambda: DeformedWignerModel(SpectralMeasure.from_atoms([-1.0, 1.0], [0.5, 0.5])),
], ids=["covariance", "deformed-wigner"])
def test_each_model_solves_its_edge_window_and_sigma_once(make_model, monkeypatch):
    """Repeated rate, rate_table, rate_variational, sigma_density and
    limit_stieltjes calls solve the model's edge once, the edge of its
    reflected model once (for the window) and sigma_rule once."""
    model = make_model()
    solved, rules = [], []
    for module, name in ((dyson, "edge_solve"), (wigner, "dw_edge")):
        monkeypatch.setattr(module, name, lambda m, solve=getattr(module, name):
                            solved.append(m) or solve(m))
    rule = dyson.sigma_rule
    for module in (dyson, wigner):
        monkeypatch.setattr(module, "sigma_rule", lambda m: rules.append(m) or rule(m))
    for _ in range(3):
        r = model.edge.r_sigma
        xs = r + np.array([0.5, 1.0, 2.0])
        rate(model, xs[0])
        rate(model, xs)
        rate_table(model, r + 3.0, 7)
        rate_variational(model, xs[1])
        rate_variational(model, xs)
        sigma_density(model, r - 0.5, 1e-4)
        sigma_density(model, xs, 1e-4)
        limit_stieltjes(model, xs + 1e-3j)
    assert len(solved) == 2
    assert solved[0] is model and solved[1] == model.reflected()
    assert len(rules) == 1 and rules[0] is model


def test_a_window_that_raises_is_not_kept(monkeypatch):
    """The model of tests/test_cli.py whose left edge does not solve: each
    read of model.window solves the reflected model again and raises, while
    the model's own edge is kept."""
    rho = SpectralMeasure.from_atoms([-1.5067585918145452e-22, 1.0], [0.5, 0.5])
    model = CovarianceModel(rho, 1.0)
    solved = []
    monkeypatch.setattr(dyson, "edge_solve", lambda m, solve=dyson.edge_solve:
                        solved.append(m) or solve(m))
    for _ in range(2):
        with pytest.raises(SolverError, match="left edge of sigma"):
            model.window
    assert solved == [model, model.reflected(), model.reflected()]
    assert "window" not in vars(model)
