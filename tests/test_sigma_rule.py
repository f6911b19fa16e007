"""sigma as a Gauss-Jacobi rule per band: the rule itself against Beta
moments and the Chebyshev nodes, the band finder against the edge solves and
against polynomial roots of x', the cusp fallback, the variational rate on
the rule against the primal rate, the grid sigma's convergence under
refinement, and integer evaluation points."""

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from rmtldp import dyson
from rmtldp.cli import model_from_json
from rmtldp.dyson import CovarianceModel, sigma_measure, sigma_rule
from rmtldp.measures import SpectralMeasure
from rmtldp.rate import _inverse_stieltjes, j_fn, rate, rate_variational
from rmtldp.wigner import DeformedWignerModel

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"
K = dyson._BAND_NODES


def load(name):
    return model_from_json(json.loads((MODELS / f"{name}.json").read_text()))


# -- the rule -----------------------------------------------------------------------

EXPONENTS = [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5), (1.5, 0.25)]


def jacobi_moment(p, q, j):
    """integral of u^j (1 - u)^p (1 + u)^q over [-1, 1], by u = 2s - 1 and
    Beta integrals, in 160-digit arithmetic (the binomial sum cancels)."""
    with mpmath.workdps(160):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        total = mpmath.fsum(mpmath.binomial(j, i) * 2**i * (-1) ** (j - i)
                            * mpmath.beta(i + q + 1, p + 1) for i in range(j + 1))
        return float(2 ** (p + q + 1) * total)


@pytest.mark.parametrize("p,q", EXPONENTS)
def test_the_rule_integrates_every_degree_below_2k_exactly(p, q):
    nodes, weights = dyson._jacobi_rule(p, q)
    assert nodes.size == K and np.all(np.diff(nodes) > 0.0)
    assert nodes[0] > -1.0 and nodes[-1] < 1.0 and np.all(weights > 0.0)
    for j in range(2 * K):
        assert abs(weights @ nodes**j - jacobi_moment(p, q, j)) <= 4e-15 * K, j


def test_the_rule_is_chebyshev_at_plus_and_minus_one_half():
    k = np.arange(1, K + 1)
    nodes, weights = dyson._jacobi_rule(-0.5, -0.5)
    np.testing.assert_allclose(nodes, np.sort(np.cos((2 * k - 1) * math.pi / (2 * K))),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, math.pi / K, rtol=1e-13, atol=0)
    nodes, weights = dyson._jacobi_rule(0.5, 0.5)
    theta = np.sort(k * math.pi / (K + 1))[::-1]
    np.testing.assert_allclose(nodes, np.cos(theta), rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, math.pi / (K + 1) * np.sin(theta) ** 2,
                               rtol=1e-12, atol=0)


def test_the_rule_is_built_once_per_exponent_pair():
    assert dyson._jacobi_rule(0.5, -0.5) is dyson._jacobi_rule(0.5, -0.5)
    with pytest.raises(ValueError):
        dyson._jacobi_rule(0.5, 0.5)[0][0] = 0.0


# -- the band finder --------------------------------------------------------------------

# the single-band benchmark models, and whether sigma has the hard edge at 0
SINGLE_BAND = {"wishart1": True, "semicircle-rho": True, "neg-wishart": False,
               "two-atom": False, "uniform-rho": True, "table-rho": True,
               "dw-point": False, "dw-uniform": False}


@pytest.mark.parametrize("name", sorted(SINGLE_BAND))
def test_one_band_on_the_window_of_the_edge_solves(name):
    model = load(name)
    window = model.window
    q = -0.5 if SINGLE_BAND[name] else 0.5
    assert dyson._sigma_bands(model) == [(window.left, model.edge.r_sigma, q, 0.5)]


def exact_slope_roots(numerator):
    """The real roots of a polynomial in lam (coefficients from the highest
    degree), in 50-digit arithmetic, ascending."""
    with mpmath.workdps(50):
        roots = mpmath.polyroots(numerator, maxsteps=200, extraprec=200)
        return sorted(float(mpmath.re(r)) for r in roots if abs(mpmath.im(r)) < 1e-30)


def test_interior_gap_of_a_covariance_model_with_a_zero_atom():
    """rho = (delta_1 + delta_4)/2 at alpha = 0.1 (demo 07): a zero atom of
    0.9 and two bands. x' = 1/alpha - sum w t^2/(lam - t)^2, so the edges
    are x at the four real roots of 10 (lam-1)^2 (lam-4)^2 - (lam-4)^2/2 -
    8 (lam-1)^2."""
    model = CovarianceModel(SpectralMeasure.from_atoms([1.0, 4.0], [0.5, 0.5]), 0.1)
    window = model.window
    p1, p4 = np.poly1d([1.0, -1.0]), np.poly1d([1.0, -4.0])
    numerator = 10.0 * p1**2 * p4**2 - 0.5 * p4**2 - 8.0 * p1**2
    lams = exact_slope_roots(numerator.coeffs.tolist())
    assert len(lams) == 4
    x = lambda lam: lam / 0.1 + 2.5 + 0.5 / (lam - 1.0) + 8.0 / (lam - 4.0)
    want = [x(lam) for lam in lams]
    bands = dyson._sigma_bands(model)
    got = [v for a, b, _, _ in bands for v in (a, b)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    assert [(q, p) for _, _, q, p in bands] == [(0.5, 0.5)] * 2
    assert window.zero_atom == pytest.approx(0.9, abs=1e-15)
    sigma = sigma_rule(model)
    assert sigma.atom_mass(0.0) == window.zero_atom
    assert [c.mass for c in sigma.components] == pytest.approx([0.05, 0.05], abs=1e-14)


def test_soft_left_edge_of_marchenko_pastur_below_alpha_one():
    """rho = delta_1 at alpha = 0.5: zero atom 1/2 and the band
    [(1 - sqrt(alpha))^2, (1 + sqrt(alpha))^2] / alpha."""
    model = CovarianceModel(SpectralMeasure.point_mass(1.0), 0.5)
    (a, b, q, p), = dyson._sigma_bands(model)
    s = math.sqrt(0.5)
    assert a == pytest.approx((1.0 - s) ** 2 / 0.5, rel=1e-14)
    assert b == pytest.approx((1.0 + s) ** 2 / 0.5, rel=1e-14)
    assert (q, p) == (0.5, 0.5)


def test_interior_gaps_of_a_deformed_wigner_model():
    """mu_d = 0.3 delta_-4 + 0.3 delta_0 + 0.4 delta_4: three bands; x' = 1 -
    sum w/(lam - u)^2 vanishes at the six real roots of a polynomial."""
    atoms, weights = [-4.0, 0.0, 4.0], [0.3, 0.3, 0.4]
    model = DeformedWignerModel(SpectralMeasure.from_atoms(atoms, weights))
    window = model.window
    factors = [np.poly1d([1.0, -u]) ** 2 for u in atoms]
    numerator = factors[0] * factors[1] * factors[2]
    for i, w in enumerate(weights):
        rest = [f for j, f in enumerate(factors) if j != i]
        numerator = numerator - w * rest[0] * rest[1]
    lams = exact_slope_roots(numerator.coeffs.tolist())
    assert len(lams) == 6
    want = [lam + sum(w / (lam - u) for u, w in zip(atoms, weights)) for lam in lams]
    got = [v for a, b, _, _ in dyson._sigma_bands(model) for v in (a, b)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)
    assert (got[0], got[-1]) == (window.left, window.right)


def test_a_cusp_takes_the_grid():
    """dw-two-atom: x' = 1 - (1/2)/(lam+1)^2 - (1/2)/(lam-1)^2 has its
    maximum 0 at lam = 0 (x' = x'' = 0), where two bands meet in a cusp."""
    model = load("dw-two-atom")
    assert dyson._sigma_bands(model) is None
    rule, grid = sigma_rule(model), sigma_measure(model, 2000)
    assert np.array_equal(rule.components[0].weights, grid.components[0].weights)


def test_a_finite_edge_at_the_cap_takes_the_grid():
    """A table rho whose G' is small at its edge: x' > 0 at the floor, so
    the minimum of x lies at the cap and r(sigma) = x_c is no square-root
    edge."""
    b = 1.0
    thin = SpectralMeasure.from_density(lambda u: 5.0 / b * (1.0 - u / b) ** 4, (0.0, b), 64,
                                        edge_finite_g=True)
    model = CovarianceModel(thin, 0.5)
    edge = model.edge
    assert edge.r_sigma == edge.x_c
    assert dyson._sigma_bands(model) is None


def test_a_rule_with_a_large_mass_defect_takes_the_grid(monkeypatch):
    model = load("wishart1")
    assert len(sigma_rule(model).components[0].nodes) == K
    monkeypatch.setattr(dyson, "_RULE_DEFECT", 0.0)
    grid = sigma_rule(model)
    assert np.array_equal(grid.components[0].weights,
                          sigma_measure(model, 2000).components[0].weights)


# -- the variational rate on the rule ----------------------------------------------------

# the single-band benchmark models of both kinds, at x = r + c max(1, |r|);
# neg-wishart's rate is finite only below 0, so it takes c up to 0.077
GUARD_OFFSETS = {name: (0.05, 0.5, 2.0) for name in SINGLE_BAND}
GUARD_OFFSETS["neg-wishart"] = (0.05, 0.065, 0.077)


@pytest.mark.parametrize("name", sorted(GUARD_OFFSETS))
def test_variational_rate_on_the_rule_matches_the_primal_to_1e_10(name):
    """The guard beside the 2e-3 acceptance tolerance: the largest gap
    measured over these points was 1.9e-14 relative to max(1, I), on
    neg-wishart; the 2000-point grid gave up to 1.4e-6."""
    model = load(name)
    edge = model.edge
    sigma = sigma_rule(model)
    assert sigma.components[0].nodes.size == K
    r = edge.r_sigma
    for c in GUARD_OFFSETS[name]:
        x = r + c * max(1.0, abs(r))
        primal = rate(model, x)
        assert abs(rate_variational(model, x, sigma) - primal) <= 1e-10 * max(1.0, primal)


# |primal - variational| / max(1, I) measured at r + offset max(1, |r|) over
# the models above: at most 6.5e-10 at 1e-2 and 2.9e-6 at 1e-3, both on
# neg-wishart. The 2000-point grid gave at most 1.5e-6 and 1.6e-6 (the hard
# edge models), but at 1e-3 it beat the rule on the soft-edged ones:
# 2.1e-7 against 2.9e-6 on neg-wishart, 1.7e-8 against 1.3e-7 on dw-point.
# Nearer the edge the rule needs more than 64 nodes (J's pole lies at 1e-3 h)
NEAR_EDGE_BOUND = {1e-2: 2e-9, 1e-3: 1e-5}


@pytest.mark.parametrize("name", sorted(SINGLE_BAND))
@pytest.mark.parametrize("offset", sorted(NEAR_EDGE_BOUND))
def test_variational_rate_on_the_rule_near_the_edge(name, offset):
    model = load(name)
    edge = model.edge
    x = edge.r_sigma + offset * max(1.0, abs(edge.r_sigma))
    primal = rate(model, x)
    gap = abs(rate_variational(model, x) - primal)
    assert gap <= NEAR_EDGE_BOUND[offset] * max(1.0, primal)


def test_without_sigma_the_variational_rate_reads_the_rule():
    model = load("semicircle-rho")
    sigma = sigma_rule(model)
    for x in (9.5, 17.0, 18.0, 24.0):
        assert rate_variational(model, x) == rate_variational(model, x, sigma)


def test_the_capped_branch_attains_the_supremum_at_theta_max():
    """semicircle-rho past x_c = 18: the optimizer is theta_max itself, where
    F is finite, so the variational rate keeps the rule's accuracy."""
    model = load("semicircle-rho")
    edge = model.edge
    theta_x, _, _ = model.variational(20.0, sigma_rule(model))
    assert theta_x == edge.theta_max
    for x in (18.5, 20.0, 25.0):
        primal = rate(model, x)
        assert abs(rate_variational(model, x) - primal) <= 1e-10 * primal


# -- the grid sigma under refinement ---------------------------------------------------------


@pytest.mark.parametrize("name", ["wishart1", "uniform-rho"])
def test_the_grid_sigma_converges_under_refinement(name):
    """On models with the hard edge at 0, the raw mass defect and the worst
    |primal - variational| relative to max(1, I) at x = r + {0.05, 0.5, 2}
    fall as the grid goes 500 -> 2000 -> 8000 points (measured 2.6e-5, 7.8e-6,
    6.5e-7 and 5.8e-6, 1.4e-6, 1.2e-7 on wishart1). With the gap mask at
    1e-5 of the largest density sample, the defect rose to 4.4e-4 at 8000."""
    model = load(name)
    edge = model.edge
    r = edge.r_sigma
    defects, gaps = [], []
    for n in (500, 2000, 8000):
        sigma = sigma_measure(model, n)
        defects.append(sigma.raw_mass_defect)
        gaps.append(max(abs(rate_variational(model, x, sigma) - rate(model, x))
                        / max(1.0, rate(model, x)) for x in r + np.array([0.05, 0.5, 2.0])))
    assert defects[0] > defects[1] > defects[2] and defects[2] <= 1e-6
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 2e-7


# -- integer evaluation points ------------------------------------------------------------


@pytest.mark.parametrize("name,points", [("wishart1", (5, 7)), ("semicircle-rho", (9, 10, 16))])
def test_an_integer_x_gives_the_bits_of_its_float(name, points):
    """An int lower end once made every Newton iterate of the inverse
    Stieltjes solve an int, which stalled it (SolverError at wishart1's 5)."""
    model = load(name)
    sigma = sigma_rule(model)
    thetas = np.array([0.05, 0.3, 2.0])
    for x in points:
        assert rate_variational(model, x) == rate_variational(model, float(x))
        assert np.array_equal(j_fn(sigma, thetas, x), j_fn(sigma, thetas, float(x)))
        assert np.array_equal(_inverse_stieltjes(sigma, thetas, x),
                              _inverse_stieltjes(sigma, thetas, float(x)))
