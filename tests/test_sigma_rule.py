"""sigma as a Chebyshev rule per band: the rule itself against Beta
moments, the band finder against the edge solves and against polynomial
roots of x', the cusp fallback and the cusp at the root of x'', x'' at the
edge against closed forms, the variational
rate on the rule and on the grid against the primal rate, the grid sigma
under refinement, and integer evaluation points."""

import json
import math
from fractions import Fraction
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

def chebyshev_moment(j):
    """The integral of u^j / sqrt(1 - u^2) over [-1, 1], exactly: pi
    binom(j, j/2) / 2^j for even j, 0 for odd j (as a Fraction of pi)."""
    return Fraction(0) if j % 2 else Fraction(math.comb(j, j // 2), 2**j)


@pytest.mark.parametrize("n", [3, 8, K])
def test_the_rule_integrates_square_root_edges_exactly(n):
    """sqrt(1 - u^2) u^j is (1 - u^2) u^j / sqrt(1 - u^2) and sqrt((1 - u)
    / (1 + u)) u^j is (1 - u) u^j / sqrt(1 - u^2): the rule is exact for
    the first numerator up to j = 2n - 3 and for the second up to j = 2n -
    2, both of degree 2n - 1."""
    nodes, weights = dyson._chebyshev_rule(-1.0, 1.0, n)
    assert nodes.size == n and np.all(np.diff(nodes) > 0.0)
    assert nodes[0] > -1.0 and nodes[-1] < 1.0 and np.all(weights > 0.0)
    soft = np.sqrt((1.0 - nodes) * (1.0 + nodes))
    hard = np.sqrt((1.0 - nodes) / (1.0 + nodes))
    for j in range(2 * n - 1):
        if j <= 2 * n - 3:
            want = math.pi * float(chebyshev_moment(j) - chebyshev_moment(j + 2))
            assert abs(weights @ (soft * nodes**j) - want) <= 1e-15 * n, j
        want = math.pi * float(chebyshev_moment(j) - chebyshev_moment(j + 1))
        assert abs(weights @ (hard * nodes**j) - want) <= 1e-15 * n, j


# -- the band finder --------------------------------------------------------------------

# the single-band benchmark models
SINGLE_BAND = ["dw-point", "dw-uniform", "neg-wishart", "semicircle-rho", "table-rho",
               "two-atom", "uniform-rho", "wishart1"]


@pytest.mark.parametrize("name", SINGLE_BAND)
def test_one_band_on_the_window_of_the_edge_solves(name):
    model = load(name)
    window = model.window
    assert dyson._sigma_bands(model) == [(window.left, model.edge.r_sigma)]


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
    got = [v for band in bands for v in band]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    assert window.zero_atom == pytest.approx(0.9, abs=1e-15)
    sigma = sigma_rule(model)
    assert sigma.atom_mass(0.0) == window.zero_atom
    assert [c.mass for c in sigma.components] == pytest.approx([0.05, 0.05], abs=1e-14)


def test_soft_left_edge_of_marchenko_pastur_below_alpha_one():
    """rho = delta_1 at alpha = 0.5: zero atom 1/2 and the band
    [(1 - sqrt(alpha))^2, (1 + sqrt(alpha))^2] / alpha."""
    model = CovarianceModel(SpectralMeasure.point_mass(1.0), 0.5)
    (a, b), = dyson._sigma_bands(model)
    s = math.sqrt(0.5)
    assert a == pytest.approx((1.0 - s) ** 2 / 0.5, rel=1e-14)
    assert b == pytest.approx((1.0 + s) ** 2 / 0.5, rel=1e-14)


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
    got = [v for band in dyson._sigma_bands(model) for v in band]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)
    assert (got[0], got[-1]) == (window.left, window.right)


def asymmetric_cusp(w):
    """mu_D = w delta_-s + (1 - w) delta_s, with s chosen in 50-digit
    arithmetic so that the largest x' = 1 - w/(lam + s)^2 - (1 - w)/(lam -
    s)^2 on the gap is 0: a cusp at the root lam_0 of x'', s mu_0 with
    ((1 - mu_0)/(1 + mu_0))^3 = (1 - w)/w, away from the midpoint 0 for w
    != 1/2. The model and lam_0."""
    with mpmath.workdps(50):
        k = mpmath.cbrt((1 - mpmath.mpf(w)) / w)
        mu0 = (1 - k) / (1 + k)
        s = mpmath.sqrt(w / (mu0 + 1) ** 2 + (1 - w) / (mu0 - 1) ** 2)
        mu_d = SpectralMeasure.from_atoms([-float(s), float(s)], [w, 1.0 - w])
        return DeformedWignerModel(mu_d), float(s * mu0)


CUSPS = {"dw-two-atom": lambda: (load("dw-two-atom"), 0.0),
         "asymmetric-0.3": lambda: asymmetric_cusp(0.3),
         "asymmetric-0.2": lambda: asymmetric_cusp(0.2)}


@pytest.mark.parametrize("name", sorted(CUSPS))
def test_a_cusp_takes_the_grid(name):
    """dw-two-atom: x' = 1 - (1/2)/(lam+1)^2 - (1/2)/(lam-1)^2 has its
    maximum 0 at lam = 0 (x' = x'' = 0), where two bands meet in a cusp;
    the asymmetric cusps have theirs 0.14 and 0.23 half-widths from the
    gap's midpoint, and the golden-section search that the root of x''
    replaced found them too."""
    model, _ = CUSPS[name]()
    assert dyson._sigma_bands(model) is None
    rule, grid = sigma_rule(model), sigma_measure(model, 2000)
    assert np.array_equal(rule.components[0].weights, grid.components[0].weights)


def band_search(monkeypatch, model):
    """The bands of the model, and the points of the _gap_curve calls that
    found them."""
    calls = []
    real = dyson._gap_curve
    with monkeypatch.context() as m:
        m.setattr(dyson, "_gap_curve", lambda curve, lam: calls.append(lam) or real(curve, lam))
        bands = dyson._sigma_bands(model)
    return bands, [float(np.asarray(lam).reshape(-1)[0]) for lam in calls]


# _gap_curve calls of the band search on the benchmark models: the cusp of
# dw-two-atom is known after 2 (x''(0) = 0; 25 with the former
# golden-section search), and two-atom's gap, which the tangent at its
# midpoint does not close, takes the root of x'' and x' there (3 before)
GAP_CURVE_CALLS = {**dict.fromkeys(SINGLE_BAND, 0), "two-atom": 12, "dw-two-atom": 2}


@pytest.mark.parametrize("name", sorted(GAP_CURVE_CALLS))
def test_the_gap_search_stops_once_it_knows_a_cusp(monkeypatch, name):
    bands, calls = band_search(monkeypatch, load(name))
    assert len(calls) == GAP_CURVE_CALLS[name]
    assert (bands is None) == (name == "dw-two-atom")


@pytest.mark.parametrize("name", sorted(CUSPS))
def test_the_gap_search_finds_the_cusp_at_the_root_of_x2(monkeypatch, name):
    """The search's last point is the cusp itself, the root of x'' to a
    few ulps, where x' lies within _CUSP_SLOPE of 0."""
    model, lam0 = CUSPS[name]()
    bands, calls = band_search(monkeypatch, model)
    assert bands is None and abs(calls[-1] - lam0) <= 1e-15
    _, slope, bend = dyson._gap_curve(model.curve(), calls[-1])
    assert abs(slope[0]) <= dyson._CUSP_SLOPE and abs(bend[0]) <= 1e-14


def thin_table_beside_an_atom(d):
    """mu_D = 0.02 of the law with density 3465/128 sqrt(u) (1 - u)^4 on
    [0, 1], as a 64-node table, plus 0.98 delta_(1 + d). G'' of the table
    stays finite at 1, and on the gap (1, 1 + d) x'' < 0 up to it: the
    largest x' lies at the table's edge."""
    c = math.gamma(6.5) / (math.gamma(1.5) * math.gamma(5.0))
    table = SpectralMeasure.from_density(lambda u: c * np.sqrt(u) * (1.0 - u) ** 4, (0.0, 1.0),
                                         64, edge_finite_g=True)
    return DeformedWignerModel(SpectralMeasure(
        [1.0 + d], [0.98], [table.components[0].scaled(1.0, 0.02)]))


@pytest.mark.parametrize("d, one_band", [(1.0, True), (1.2, False)])
def test_x2_of_one_sign_up_to_a_table_edge(d, one_band):
    """x' at the last probe decides, as the golden-section search did: at d
    = 1 it is -0.021 there, and the gap holds no band; at d = 1.2 it is
    +0.28, an edge at the table's own edge, which takes the grid."""
    model = thin_table_beside_an_atom(d)
    curve = model.curve()
    _, slope, bend = dyson._gap_curve(curve, np.array([1.0 + 1e-9, 1.0 + 0.5 * d]))
    assert np.all(bend < 0.0) and (slope[0] < 0.0) == one_band
    bands = dyson._sigma_bands(model)
    if one_band:
        assert bands == [(model.window.left, model.window.right)]
    else:
        assert bands is None


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_x2_at_the_edge_of_marchenko_pastur(alpha):
    """rho = delta_1: x = lam/alpha + 1 + 1/(lam - 1), so lam_c = 1 +
    sqrt(alpha) and x''(lam_c) = 2/(lam_c - 1)^3 = 2 alpha^(-3/2)."""
    model = CovarianceModel(SpectralMeasure.point_mass(1.0), alpha)
    lam_c = model.level.lam_c
    assert lam_c == pytest.approx(1.0 + math.sqrt(alpha), rel=1e-15)
    _, slope, bend = dyson._gap_curve(model.curve(), lam_c)
    assert abs(slope[0]) <= 1e-14
    assert bend[0] == pytest.approx(2.0 * alpha**-1.5, rel=1e-14)


@pytest.mark.parametrize("name, lam_c, want", [
    ("point", 1.0, 2.0), ("semicircle", 3.0 / math.sqrt(2.0), 4.0 * math.sqrt(2.0))])
def test_x2_at_the_edge_of_a_deformed_semicircle(name, lam_c, want):
    """mu_D = delta_0: x = lam + 1/lam, lam_c = 1 and x'' = 2/lam^3. mu_D
    the semicircle of radius 2: x = lam + (lam - s)/2, s = sqrt(lam^2 - 4),
    lam_c = 3/sqrt(2) where lam/s = 3, and x'' = G'' = 2/s^3 = 4 sqrt(2)."""
    mu_d = (SpectralMeasure.point_mass(0.0) if name == "point"
            else SpectralMeasure.semicircle(0.0, 2.0))
    model = DeformedWignerModel(mu_d)
    assert model.level.lam_c == pytest.approx(lam_c, rel=1e-15)
    _, slope, bend = dyson._gap_curve(model.curve(), model.level.lam_c)
    assert abs(slope[0]) <= 1e-14
    assert bend[0] == pytest.approx(want, rel=1e-14)


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
    """The grid of the fallback lies on the bands the rule found: one band
    search per build."""
    model = load("wishart1")
    assert len(sigma_rule(model).components[0].nodes) == K
    monkeypatch.setattr(dyson, "_RULE_DEFECT", 0.0)
    searches = []
    real = dyson._sigma_bands
    monkeypatch.setattr(dyson, "_sigma_bands", lambda m: searches.append(m) or real(m))
    grid = sigma_rule(model)
    assert len(searches) == 1
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
    measured over these points was 1.8e-14 relative to max(1, I), on
    neg-wishart; the 2000-point grid gives up to 2.6e-14."""
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
# the models above: at most 8.4e-10 at 1e-2 and 3.2e-6 at 1e-3, both on
# neg-wishart. The 2000-point grid gives at most 2.6e-14 at both. Nearer the
# edge the rule needs more than 64 nodes (J's pole lies at 1e-3 h)
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
    lie at rounding for every grid of 500, 2000 and 8000 points: measured
    2.0e-14, 2.8e-14, 1.7e-13 and 3.8e-15, 5.1e-15, 3.2e-14 on wishart1,
    6.4e-15, 1.6e-13, 5.1e-13 and 1.1e-15, 2.8e-14, 8.8e-14 on uniform-rho.
    At rounding they no longer fall with the grid, as the edge-fitted grid's
    did (2.6e-5, 7.8e-6, 6.5e-7 and 5.8e-6, 1.4e-6, 1.2e-7 on wishart1)."""
    model = load(name)
    r = model.edge.r_sigma
    for n in (500, 2000, 8000):
        sigma = sigma_measure(model, n)
        assert sigma.raw_mass_defect <= 1e-12, n
        for x in r + np.array([0.05, 0.5, 2.0]):
            primal = rate(model, x)
            assert abs(rate_variational(model, x, sigma) - primal) <= 1e-12 * max(1.0, primal), n


def random_banded_models(draws, seed):
    """Of ``draws`` atomic rho or mu_D, alternately covariance (alpha in
    [0.3, 3]) and deformed Wigner, each of one to four atoms in [-3, 3]
    with weights from [0.1, 1] normalized: those that are nondegenerate and
    whose bands the rule resolves, its raw mass defect at most
    _RULE_DEFECT."""
    rng = np.random.default_rng(seed)
    for i in range(draws):
        k = rng.integers(1, 5)
        weights = rng.uniform(0.1, 1.0, k)
        mu = SpectralMeasure.from_atoms(rng.uniform(-3.0, 3.0, k), weights / weights.sum())
        model = CovarianceModel(mu, rng.uniform(0.3, 3.0)) if i % 2 == 0 else DeformedWignerModel(mu)
        if model.degenerate or dyson._sigma_bands(model) is None:
            continue
        if sigma_rule(model).raw_mass_defect <= dyson._RULE_DEFECT:
            yield model


@pytest.mark.slow
def test_the_grid_sigma_on_random_banded_models():
    """The variational rate on the 2000-point grid within 1e-6 max(1, I)
    of the primal one at x = r + 0.3 max(1, |r|), inside the domain. On the
    166 such models of 200 draws the largest gap measured was 5.4e-14; the
    edge-fitted grid refused 5 of them (mass defect above 1e-3) and missed
    1e-6 on 15 more, by up to 4.9e-5.

    The 8 nondegenerate draws with bands whose rule gives way to the grid
    are not held to the bound: their densities hold features narrower than
    64 nodes per band resolve (seen: a near-cusp inside a band, a soft
    edge within 2e-7 of 0), and there the grid converges slowly. Its gap
    reached 1.5e-5 there, against 2.2e-5 on the edge-fitted grid."""
    tested = 0
    for model in random_banded_models(200, 23):
        r = model.edge.r_sigma
        x = r + 0.3 * max(1.0, abs(r))
        if x >= model.edge.x_end:
            continue
        sigma = sigma_measure(model, 2000)
        primal = rate(model, x)
        assert abs(rate_variational(model, x, sigma) - primal) <= 1e-6 * max(1.0, primal)
        tested += 1
    assert tested >= 150


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
