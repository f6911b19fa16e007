"""Densities of atomic models against roots of their polynomial equations.

For rho = sum p_i delta_{u_i} the Dyson equation H(w) = z reads

    1/w + sum_i p_i alpha u_i / (alpha - w u_i) = z,

and for mu_D = sum p_i delta_{u_i} the subordination equation reads
omega + sum_i p_i / (omega - u_i) = z. Cleared of denominators both are
polynomial equations of degree (number of atoms + 1). For Im z > 0 exactly
one root lies in the physical half-plane (Im w < 0 for G_sigma, Im omega > 0),
so the density at x + i eta follows from polynomial roots, with no
continuation: the root is picked from all roots of the polynomial, and three
Newton steps on the equation only refine its digits.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.linalg import eigvals

from rmtldp import dyson
from rmtldp.cli import model_from_json
from rmtldp.dyson import (
    _DECADES,
    _DESCENT,
    _LEVEL_STEPS,
    _LOOSE_TOL,
    _SEEDED_STEPS,
    _TIGHT_TOL,
    _chebyshev_rule,
    CovarianceModel,
    DegenerateModelError,
    SolverError,
    SupportWindow,
    detect_degenerate,
    limit_stieltjes,
    sigma_density,
)
from rmtldp.measures import SpectralMeasure
from rmtldp.wigner import DeformedWignerModel, free_convolution_density


def _physical_root(coeffs, side, by_argument=True):
    """The root in the physical half-plane of the polynomial with the given
    coefficients (constant first). The roots are the finite eigenvalues of
    the companion pencil, which stay accurate when the leading coefficient
    is tiny: an atom u near 0 puts a root near alpha / u. That root carries
    an imaginary part of rounding size relative to itself, of either sign,
    so the physical root is the one deepest in the half-plane by argument.
    Without ``by_argument`` it is the one deepest by imaginary part: for
    the subordination equation Im omega >= Im z, while two atoms closer
    than rounding (0 and 1e-13) put a spurious root of size 1e-13 between
    them, whose rounding-size imaginary part can be the larger argument."""
    c = np.asarray(coeffs, dtype=complex)
    n = len(c) - 1
    a = np.zeros((n, n), dtype=complex)
    a[1:, :-1] = np.eye(n - 1)
    a[:, -1] = -c[:-1]
    b = np.eye(n, dtype=complex)
    b[-1, -1] = c[-1]
    roots = eigvals(a, b)
    roots = roots[np.isfinite(roots)]
    depth = side * roots.imag
    return roots[np.argmax(depth / np.abs(roots) if by_argument else depth)]


def _polish(w, residual, slope):
    """Three Newton steps on the equation itself: the roots of a polynomial
    whose coefficients span many magnitudes (atoms near 0) carry errors of
    1e-9 relative, which the well-conditioned rational form removes."""
    for _ in range(3):
        w = w - residual(w) / slope(w)
    return w


def covariance_oracle(atoms, weights, alpha, z):
    """-Im G_sigma(z) / pi from the polynomial form of H(w) = z."""
    factors = [np.array([alpha, -u]) for u in atoms]  # alpha - w u
    prod = np.array([1.0])
    for f in factors:
        prod = P.polymul(prod, f)
    poly = P.polymul(np.array([-1.0, z]), prod)  # (w z - 1) prod
    for i, (u, p) in enumerate(zip(atoms, weights)):
        rest = np.array([1.0])
        for j, f in enumerate(factors):
            if j != i:
                rest = P.polymul(rest, f)
        poly = P.polysub(poly, P.polymul(np.array([0.0, p * alpha * u]), rest))
    u, p = np.asarray(atoms), np.asarray(weights)
    w = _polish(_physical_root(poly, -1.0),
                lambda w: 1.0 / w + np.sum(p * alpha * u / (alpha - w * u)) - z,
                lambda w: -1.0 / w**2 + np.sum(p * alpha * u**2 / (alpha - w * u) ** 2))
    return -w.imag / np.pi


def wigner_oracle(atoms, weights, z):
    """-Im G(z) / pi with G = z - omega, omega + G_mu(omega) = z."""
    prod = P.polyfromroots(atoms)
    poly = P.polymul(np.array([-z, 1.0]), prod)  # (omega - z) prod
    for i, p in enumerate(weights):
        poly = P.polyadd(poly, p * P.polyfromroots(np.delete(atoms, i)))
    u, p = np.asarray(atoms), np.asarray(weights)
    omega = _polish(_physical_root(poly, 1.0, by_argument=False),
                    lambda om: om + np.sum(p / (om - u)) - z,
                    lambda om: 1.0 - np.sum(p / (om - u) ** 2))
    return -(z - omega).imag / np.pi


def default_grid(model):
    """The density command's default window: the support +- 5%, 400 points."""
    window = model.window
    margin = 0.05 * (window.right - window.left)
    return np.linspace(window.left - margin, window.right + margin, 400)


COVARIANCE = {
    "two-atom": ([1.0, 3.0], [0.5, 0.5], 2.0),
    "neg-wishart": ([-1.0], [1.0], 2.0),
    "wishart1": ([1.0], [1.0], 1.0),
}
WIGNER = {
    "point": ([0.0], [1.0]),
    "two-atom": ([-1.0, 1.0], [0.5, 0.5]),
}


@pytest.mark.parametrize("eta", [1e-4, 1e-6])
@pytest.mark.parametrize("name", sorted(COVARIANCE))
def test_sigma_density_matches_polynomial_roots(name, eta):
    atoms, weights, alpha = COVARIANCE[name]
    model = CovarianceModel(SpectralMeasure.from_atoms(atoms, weights), alpha)
    xs = default_grid(model)
    got = sigma_density(model, xs, eta)
    want = np.array([covariance_oracle(atoms, weights, alpha, x + 1j * eta) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("eta", [1e-4, 1e-6])
@pytest.mark.parametrize("name", sorted(WIGNER))
def test_free_convolution_density_matches_polynomial_roots(name, eta):
    atoms, weights = WIGNER[name]
    model = DeformedWignerModel(SpectralMeasure.from_atoms(atoms, weights))
    xs = default_grid(model)
    got = free_convolution_density(model, xs, eta)
    want = np.array([wigner_oracle(np.array(atoms), weights, x + 1j * eta) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("eta", [1e-4, 1e-7])
def test_sigma_density_relative_error_where_the_density_is_small(eta):
    """Outside the support the density is O(eta), and a residual of 1e-12
    alone would leave a relative error of about 1e-12/eta there; x = -3e-4
    sits beside sigma's atom at 0 (alpha < 1)."""
    atoms, weights, alpha = [0.101], [1.0], 0.3
    model = CovarianceModel(SpectralMeasure.from_atoms(atoms, weights), alpha)
    xs = default_grid(model)
    xs = np.append(xs, -3e-4)
    got = sigma_density(model, xs, eta)
    want = np.array([covariance_oracle(atoms, weights, alpha, x + 1j * eta) for x in xs])
    assert np.max(np.abs(got - want) / want) <= 1e-9


@pytest.mark.parametrize("model", [
    CovarianceModel(SpectralMeasure.from_atoms([1.0, 3.0], [0.5, 0.5]), 2.0),
    DeformedWignerModel(SpectralMeasure.from_atoms([-1.0, 1.0], [0.5, 0.5])),
], ids=["covariance", "deformed-wigner"])
def test_an_empty_grid_gives_empty_arrays(model):
    """As rate and the branches do on no points."""
    g = limit_stieltjes(model, np.array([], dtype=complex))
    assert g.shape == (0,) and g.dtype == complex
    for xs in (np.array([]), []):
        density = sigma_density(model, xs, 1e-4)
        assert density.shape == (0,) and density.dtype == float


def _raises_on_nan_half(monkeypatch, half):
    """sigma_density of a two-atom model with one half of the solver's
    (G, G') evaluation replaced by NaN raises SolverError naming the point,
    the height it stalled at and the residual, on a model whose window was
    solved before as on one whose window is solved under NaN: every seeded
    point fails and descends."""
    rho = SpectralMeasure.from_atoms([1.0, 3.0], [0.5, 0.5])
    solved, fresh = CovarianceModel(rho, 2.0), CovarianceModel(rho, 2.0)
    assert solved.window.right > 0.0
    real_pair = SpectralMeasure.stieltjes_pair

    def nan_half(self, z):
        pair = list(real_pair(self, z))
        pair[half] = np.full(np.shape(z), np.nan, dtype=complex)
        return tuple(pair)

    monkeypatch.setattr(SpectralMeasure, "stieltjes_pair", nan_half)
    for model in (solved, fresh):
        with pytest.raises(SolverError, match=r"z=.*height.*residual"):
            sigma_density(model, np.linspace(0.0, 8.0, 50), 1e-4)


def test_unsolvable_point_raises_instead_of_returning(monkeypatch):
    """A NaN derivative leaves Newton no acceptable step."""
    _raises_on_nan_half(monkeypatch, 1)


def test_nan_transform_raises_instead_of_returning(monkeypatch):
    """A NaN transform fails every stopping test and rejects every trial."""
    _raises_on_nan_half(monkeypatch, 0)


@pytest.mark.parametrize("model, budget, seeded", [
    (CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0), 2.0, True),
    (DeformedWignerModel(SpectralMeasure.uniform(-1.0, 1.0)), 6.25, True),
    (CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0), 14.75, False),
    (DeformedWignerModel(SpectralMeasure.uniform(-1.0, 1.0)), 12.75, False),
], ids=["wishart1", "dw-uniform", "wishart1-descended", "dw-uniform-descended"])
def test_grid_solve_evaluation_budget(monkeypatch, model, budget, seeded):
    """Each Newton trial evaluates G and G' once, through stieltjes_pair, and
    the x' of an accepted trial serves the next step. On a 2000-point
    Chebyshev grid over the window at 1e-9 max(1, span), every point started from the window's seed, that is
    2.0 evaluations per point for covariance (the start and the polish
    step: on a point-mass rho the seed is the root) and 6.19 for deformed
    Wigner, both solved on their level curves. Every point descended, as
    where the window cannot be solved, it is 14.46 and 12.48 (19.2 and 16.2
    when the descent went by half-decades alone), and the former covariance
    solve of H(w) = z in theta took about 23."""
    window = model.window
    xs = _chebyshev_rule(window.left, window.right, 2000)[0][::-1]
    zs = xs + 1j * 1e-9 * max(1.0, window.right - window.left)
    real_pair = SpectralMeasure.stieltjes_pair
    evaluations = []

    def counted(self, z):
        evaluations.append(np.size(z))
        return real_pair(self, z)

    def refused(self, z):
        raise AssertionError("the grid solver evaluates G and G' through stieltjes_pair only")

    monkeypatch.setattr(SpectralMeasure, "stieltjes_pair", counted)
    monkeypatch.setattr(SpectralMeasure, "stieltjes", refused)
    monkeypatch.setattr(SpectralMeasure, "stieltjes_prime", refused)
    g = limit_stieltjes(model, zs) if seeded else descent_stieltjes(model, zs)
    assert np.all(np.isfinite(g))
    assert sum(evaluations) <= budget * zs.size


# -- random atomic models --------------------------------------------------------


def assert_matches_oracle(got, want):
    """Within 1e-10 absolute, plus 4 ulps of the density: rounding alone
    misses a bare 1e-10 where the density is huge (3 ulps at 3.2e5, next to
    the atom of rho = delta at 1e-8)."""
    want = np.asarray(want)
    assert np.all(np.abs(got - want) <= 1e-10 + 4.0 * np.finfo(float).eps * np.abs(want))

# one to four atoms anywhere in [-3, 3], weights normalized from [0.1, 1]
atomic_measures = st.lists(
    st.tuples(st.floats(-3.0, 3.0, allow_subnormal=False), st.floats(0.1, 1.0)),
    min_size=1, max_size=4,
).map(lambda pairs: SpectralMeasure.from_atoms(
    [u for u, _ in pairs], np.array([p for _, p in pairs]) / sum(p for _, p in pairs)))
etas = st.sampled_from([1e-4, 1e-6])


def covering_grid(lo, hi):
    """150 points over [lo, hi] +- 5%: the density command's default window,
    built around a bound on the support instead of the solved edges, at a
    third of its points."""
    margin = 0.05 * (hi - lo)
    return np.linspace(lo - margin, hi + margin, 150)


@given(rho=atomic_measures, alpha=st.floats(0.3, 3.0), eta=etas)
@example(rho=SpectralMeasure.point_mass(1e-8), alpha=1.0, eta=1e-6)
def test_random_atomic_sigma_density_matches_polynomial_roots(rho, alpha, eta):
    """The spectrum of (1/m) Z^T Gamma Z lies within [min(0, l), max(0, r)]
    times the largest Marchenko-Pastur eigenvalue (1 + 1/sqrt(alpha))^2."""
    model = CovarianceModel(rho, alpha)
    if detect_degenerate(model):
        with pytest.raises(DegenerateModelError):
            sigma_density(model, np.linspace(-1.0, 1.0, 5), eta)
        return
    mp_edge = (1.0 + 1.0 / np.sqrt(alpha)) ** 2
    xs = covering_grid(min(0.0, rho.left_edge) * mp_edge, max(0.0, rho.right_edge) * mp_edge)
    got = sigma_density(model, xs, eta)
    want = [covariance_oracle(rho.atom_locations, rho.atom_weights, alpha, x + 1j * eta)
            for x in xs]
    assert_matches_oracle(got, want)


@given(mu=atomic_measures, eta=etas)
@example(mu=SpectralMeasure.from_atoms([0.0, 1e-13, 1.0], [1 / 3, 1 / 3, 1 / 3]), eta=1e-4)
def test_random_atomic_free_convolution_density_matches_polynomial_roots(mu, eta):
    """The free convolution with the semicircle of radius 2 lies within the
    support of mu_D widened by 2 on either side."""
    model = DeformedWignerModel(mu)
    xs = covering_grid(mu.left_edge - 2.0, mu.right_edge + 2.0)
    got = free_convolution_density(model, xs, eta)
    want = [wigner_oracle(mu.atom_locations, mu.atom_weights, x + 1j * eta) for x in xs]
    assert_matches_oracle(got, want)


@pytest.mark.parametrize("alpha, eta", [(0.3, 1e-4), (0.5577143454336282, 1e-6)])
def test_spectrum_on_the_scale_of_1e_3(alpha, eta):
    """Atoms of size 1e-3: a loose level's residual of 1e-3 is the size of
    the whole spectrum. The loose descents, by decades and by half-decades,
    converge on these grids all the same."""
    atoms = [-0.00012475062110026442, 7.391027752904462e-121, 0.001]
    weights = [0.19692530787100634, 0.5510268725317563, 0.25204781959723727]
    rho = SpectralMeasure.from_atoms(atoms, weights)
    model = CovarianceModel(rho, alpha)
    xs = default_grid(model)
    got = sigma_density(model, xs, eta)
    want = [covariance_oracle(rho.atom_locations, rho.atom_weights, alpha, x + 1j * eta)
            for x in xs]
    assert_matches_oracle(got, want)


@pytest.mark.parametrize("atoms, weights, alpha", [
    ([-2.5375, -1.723, -0.0693, 0.0021], [0.2853, 0.1877, 0.4143, 0.1127], 2.3757),
    ([-3.0, 0.0, 5.96e-8], [0.4950, 0.3737, 0.1313], 2.0973),
])
def test_edge_with_the_top_atom_near_zero(atoms, weights, alpha):
    """G_rho diverges at its top atom r(rho), and within the snap window of
    the edge transforms it is +inf: the edge solve evaluates x'(lam) no
    lower than the level's floor, the first point past the window. Here
    r(rho) is so small against |l(rho)| that the window reaches 2^-40 r(rho),
    and the former probes toward theta_max, which stopped 2^-40 short of it,
    gave r(sigma) = +inf. It is negative: an atom of mass alpha * p < 1
    cannot push the top of the spectrum above 0."""
    rho = SpectralMeasure.from_atoms(atoms, weights)
    model = CovarianceModel(rho, alpha)
    edge = model.edge
    assert edge.r_sigma < 0.0
    step = 1e-2 * abs(edge.r_sigma)
    inside, outside = [covariance_oracle(atoms, weights, alpha, x + 1e-12j)
                       for x in (edge.r_sigma - step, edge.r_sigma + step)]
    assert inside > 1e-2 and outside < 1e-5


# -- the former solves of the limit law as the reference ---------------------------


def theta_space_stieltjes(model, zs):
    """G_sigma(z) by the former covariance solve: the root of H(w) = z with
    Im w < 0, descended from far above the axis, seeded there by w ~ 1/z,
    with (H, H') in theta from one evaluation of G_rho and G_rho' at
    alpha/w, in the expressions of that solve."""
    a = model.alpha

    def h_pair(w):
        z = a / w
        g, gp = model.rho.stieltjes_pair(z)
        h = 1.0 / w - a / w + (a * a) / (w * w) * g
        f = -1.0 + a * (z * z * (-gp) - 2.0 * z * g + 1.0)
        return h, f / (w * w)

    return dyson._descend(h_pair, zs, lambda z: 1.0 / z)


def subordination_stieltjes(model, zs, window):
    """G(z) = z - omega by the former deformed-Wigner solve of omega +
    G_mu(omega) = z, seeded by omega ~ z - 1/z far above the axis, and
    started at z from the window's seed; every point descends where the
    window is None."""

    def pair(om):
        g, gp = model.mu_d.stieltjes_pair(om)
        return om + g, 1.0 + gp

    def far(z):
        return z - 1.0 / z

    if window is None:
        return zs - dyson._descend(pair, zs, far)
    return zs - dyson._seeded(pair, zs, far, window.seed)


def solved_window(model):
    """The model's support window, or None where its edges do not solve."""
    try:
        return model.window
    except SolverError:
        return None


MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"
BENCHMARK_MODELS = {p.stem: model_from_json(json.loads(p.read_text()))
                    for p in sorted(MODELS.glob("*.json"))}
# every benchmark model but the degenerate one, which has no limit law to solve
SOLVED_MODELS = sorted(n for n, m in BENCHMARK_MODELS.items()
                       if not (isinstance(m, CovarianceModel) and detect_degenerate(m)))


def measure_grids(model):
    """A 2000-point Chebyshev grid over the support window at the heights
    1e-2, 1e-6 and 1e-9 max(1, span); sigma_measure took the last on the
    whole window before it followed sigma's bands at 1e-14 h."""
    window = model.window
    xs = _chebyshev_rule(window.left, window.right, 2000)[0][::-1]
    span = max(1.0, window.right - window.left)
    return [xs + 1j * eta for eta in (1e-2, 1e-6, 1e-9 * span)]


def assert_near_theta_space_solve(model, zs):
    """G_sigma within 1e-12 max(1, |G|) of the former solve's. The two
    Newton solves, in lam and in theta = alpha/lam, each stop at a residual
    of 1e-12 max(1, |z|) and then take one polish step; on the benchmark
    models and 300 random atomic ones they differed by at most 3.0e-13."""
    got = limit_stieltjes(model, zs)
    want = theta_space_stieltjes(model, zs)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", sorted(n for n, m in BENCHMARK_MODELS.items()
                                        if isinstance(m, CovarianceModel)
                                        and not detect_degenerate(m)))
def test_covariance_limit_law_matches_the_theta_space_solve(name):
    model = BENCHMARK_MODELS[name]
    for zs in measure_grids(model):
        assert_near_theta_space_solve(model, zs)


@given(rho=atomic_measures, alpha=st.floats(0.3, 3.0), eta=etas)
def test_random_atomic_limit_law_matches_the_theta_space_solve(rho, alpha, eta):
    model = CovarianceModel(rho, alpha)
    if detect_degenerate(model):
        return
    mp_edge = (1.0 + 1.0 / np.sqrt(alpha)) ** 2
    xs = covering_grid(min(0.0, rho.left_edge) * mp_edge, max(0.0, rho.right_edge) * mp_edge)
    assert_near_theta_space_solve(model, xs + 1j * eta)


@pytest.mark.parametrize("name", sorted(n for n, m in BENCHMARK_MODELS.items()
                                        if isinstance(m, DeformedWignerModel)))
def test_deformed_wigner_limit_law_equals_the_subordination_solve_bit_for_bit(name):
    """The deformed-Wigner curve lam + G_mu(lam) is the subordination
    equation at lam = omega, with the same seeds and map to G: at z from
    the model's support window, and far above the axis."""
    model = BENCHMARK_MODELS[name]
    for zs in measure_grids(model):
        want = subordination_stieltjes(model, zs, model.window)
        assert np.array_equal(limit_stieltjes(model, zs), want)


@given(mu=atomic_measures, eta=etas)
def test_random_atomic_deformed_wigner_limit_law_equals_the_subordination_solve(mu, eta):
    model = DeformedWignerModel(mu)
    zs = covering_grid(mu.left_edge - 2.0, mu.right_edge + 2.0) + 1j * eta
    assert np.array_equal(limit_stieltjes(model, zs),
                          subordination_stieltjes(model, zs, solved_window(model)))


# -- the limit law against the plain descent -----------------------------------------
#
# limit_stieltjes starts every point from the window's seed, and descends
# only where that fails or the window cannot be solved; its roots must be the
# descent's up to rounding.

CONTINUATION_TOL = 5e-13


def descent_stieltjes(model, zs, descend=None):
    """limit_stieltjes with every point solved by the plain descent, or by
    ``descend``."""
    curve = model.curve()
    mu = curve.measure
    descend = descend or dyson._descend
    lam = descend(lambda v: curve.point(v, *mu.stieltjes_pair(v)), zs, curve.seed)
    return curve.y(lam, zs)


def fallbacks(solve):
    """The result of ``solve()`` and the sizes of the descents it made."""
    descended = []
    plain = dyson._descend

    def counted(h_pair, zs, seed):
        descended.append(np.size(zs))
        return plain(h_pair, zs, seed)

    dyson._descend = counted
    try:
        return solve(), descended
    finally:
        dyson._descend = plain


def oracle_density(model, zs):
    if isinstance(model, DeformedWignerModel):
        mu = model.mu_d
        return [wigner_oracle(mu.atom_locations, mu.atom_weights, z) for z in zs]
    rho = model.rho
    return [covariance_oracle(rho.atom_locations, rho.atom_weights, model.alpha, z) for z in zs]


ZERO_ATOM = CovarianceModel(SpectralMeasure.point_mass(1.0), 0.5)


@pytest.mark.parametrize("model, zs, descents", [
    (BENCHMARK_MODELS["dw-two-atom"], np.linspace(-3.5, 3.5, 2000) + 1e-6j, [2]),
    (ZERO_ATOM, np.linspace(-0.3, 6.1, 112) + 1e-6j, [1]),
], ids=["cusp", "zero-atom"])
def test_a_seed_that_fails_is_solved_by_the_descent(model, zs, descents):
    """On 2000 points over the two bands of dw-two-atom, the points x =
    -0.00175 and 0.00175 next to the cusp at 0 do not converge from the
    window's seed within the steps, and descend together. On 112 points
    over sigma of rho = delta_1, alpha = 1/2, the point x = 0.161, in the
    gap between sigma's atom at 0 and its band from 3 - 2 sqrt(2) = 0.172
    on, does not converge from the window's seed within the steps, and
    descends."""
    got, descended = fallbacks(lambda: limit_stieltjes(model, zs))
    assert descended == descents
    want = descent_stieltjes(model, zs)
    assert np.all(np.abs(got - want) <= CONTINUATION_TOL * np.maximum(1.0, np.abs(want)))
    assert_matches_oracle(-got.imag / np.pi, oracle_density(model, zs))


@pytest.mark.parametrize("name", SOLVED_MODELS)
def test_a_root_does_not_depend_on_the_rest_of_its_grid(name):
    """The 2000-point window grid at 1e-9 max(1, span) solved whole and in
    chunks of 7 points: a point that descends takes the scale of its
    chunk's descent, so the roots agree up to rounding, not bit for bit."""
    model = BENCHMARK_MODELS[name]
    zs = measure_grids(model)[-1]
    whole = limit_stieltjes(model, zs)
    chunks = np.concatenate([limit_stieltjes(model, zs[i:i + 7]) for i in range(0, zs.size, 7)])
    assert np.all(np.abs(chunks - whole) <= CONTINUATION_TOL * np.maximum(1.0, np.abs(whole)))


def test_every_point_descends_where_the_window_cannot_be_solved():
    """The model of tests/test_cli.py whose left edge does not solve (a tiny
    negative atom puts the reflected model's edge inside the snap window):
    every point descends, bit for bit."""
    rho = SpectralMeasure.from_atoms([-1.5067585918145452e-22, 1.0], [0.5, 0.5])
    model = CovarianceModel(rho, 1.0)
    with pytest.raises(SolverError, match="left edge of sigma"):
        model.window
    xs = np.linspace(0.5, 4.0, 50)
    zs = xs + 1e-4j
    want = descent_stieltjes(model, zs)
    got, descended = fallbacks(lambda: limit_stieltjes(model, zs))
    assert got.tobytes() == want.tobytes()
    assert descended == [zs.size]
    density = np.maximum(-want.imag / np.pi, 0.0)
    assert sigma_density(model, xs, 1e-4).tobytes() == density.tobytes()


@pytest.mark.parametrize("model, z", [
    (CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0), 1.0 - 1e-3j),
    (DeformedWignerModel(SpectralMeasure.point_mass(0.0)), 0.5 - 1e-3j),
    (CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0), complex(np.nan, 1e-3)),
    (DeformedWignerModel(SpectralMeasure.point_mass(0.0)), complex(0.5, np.inf)),
    (CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0), complex(-np.inf, 0.0)),
], ids=["covariance-below", "deformed-wigner-below", "nan", "inf", "real-inf"])
def test_a_point_below_the_axis_or_not_finite_is_refused(model, z):
    """Below the real axis the solve would give the wrong branch (on
    wishart1 at 1 - 1e-3i 0.50058 - 0.86603i, where G = conj G(conj z) =
    0.49942 + 0.86603i), and a NaN z would stall with a RuntimeWarning: the
    first such z is named."""
    zs = np.array([2.0 + 1e-3j, z, -1.0 - 1.0j])
    with pytest.raises(ValueError) as refused:
        limit_stieltjes(model, zs)
    assert str(refused.value) == f"z must be finite with Im z >= 0, got {z!r}"


def test_a_point_on_the_axis_is_solved():
    """Im z = 0 is not refused: outside the support G_sigma is real, here
    Marchenko-Pastur's (z - sqrt(z^2 - 4z)) / 2z at z = 5 and -1."""
    model = CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0)
    zs = np.array([5.0, -1.0 + -0.0j])
    want = (zs - np.sign(zs.real) * np.sqrt(zs * zs - 4.0 * zs)) / (2.0 * zs)
    assert np.all(np.abs(limit_stieltjes(model, zs) - want) <= 1e-12)


@pytest.mark.parametrize("eta", [0.0, -1e-4, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("model", [
    CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0),
    DeformedWignerModel(SpectralMeasure.point_mass(0.0)),
], ids=["covariance", "deformed-wigner"])
def test_an_eta_that_is_not_finite_and_positive_is_refused(model, eta):
    with pytest.raises(ValueError, match="eta must be finite and positive, got " + repr(eta)):
        sigma_density(model, np.linspace(-1.0, 3.0, 5), eta)


# -- the window's seed against the descent ------------------------------------------
#
# Every point first takes one Newton level at its own height from the
# window's inverse Joukowski map, in the half-plane of the descent's seed,
# which holds one root; only the points that fail there descend.


def assert_near_the_descent(model, zs):
    """limit_stieltjes within CONTINUATION_TOL of the descent; returns the
    number of points that descended."""
    got, descended = fallbacks(lambda: limit_stieltjes(model, zs))
    want = descent_stieltjes(model, zs)
    assert np.all(np.abs(got - want) <= CONTINUATION_TOL * np.maximum(1.0, np.abs(want)))
    return sum(descended)


@pytest.mark.parametrize("name", SOLVED_MODELS)
def test_seeded_roots_match_the_descent_on_the_benchmark_models(name):
    """The three heights of measure_grids and the density command's grid."""
    for zs in benchmark_grids(BENCHMARK_MODELS[name]):
        assert_near_the_descent(BENCHMARK_MODELS[name], zs)


def descended_on_random_model(model, zs):
    """assert_near_the_descent where the window solves, as a hypothesis
    event: the number of points that descended, or that the window did
    not solve and every point descended."""
    if solved_window(model) is None:
        event("window not solved")
        assert limit_stieltjes(model, zs).tobytes() == descent_stieltjes(model, zs).tobytes()
    else:
        event(f"points that descended: {assert_near_the_descent(model, zs)}")


@settings(max_examples=300)
@given(rho=atomic_measures, alpha=st.floats(0.3, 3.0), eta=etas)
def test_seeded_roots_match_the_descent_on_random_covariance_models(rho, alpha, eta):
    model = CovarianceModel(rho, alpha)
    assume(not detect_degenerate(model))
    mp_edge = (1.0 + 1.0 / np.sqrt(alpha)) ** 2
    xs = covering_grid(min(0.0, rho.left_edge) * mp_edge, max(0.0, rho.right_edge) * mp_edge)
    descended_on_random_model(model, xs + 1j * eta)


@settings(max_examples=300)
@given(mu=atomic_measures, eta=etas)
def test_seeded_roots_match_the_descent_on_random_deformed_wigner_models(mu, eta):
    model = DeformedWignerModel(mu)
    zs = covering_grid(mu.left_edge - 2.0, mu.right_edge + 2.0) + 1j * eta
    descended_on_random_model(model, zs)


SEEDED_CASES = {
    # two bands
    "two-bands": CovarianceModel(SpectralMeasure.from_atoms([1.0, 10.0], [0.5, 0.5]), 0.1),
    # an atom of sigma at 0
    "zero-atom": ZERO_ATOM,
    # rho on both sides of 0
    "mixed-sign": CovarianceModel(SpectralMeasure.from_atoms([-1.0, 2.0], [0.5, 0.5]), 0.3),
    "three-bands": DeformedWignerModel(SpectralMeasure.from_atoms([-5.0, 0.0, 5.0],
                                                                  np.full(3, 1.0 / 3.0))),
    # two bands that meet in a cusp at 0
    "cusp": BENCHMARK_MODELS["dw-two-atom"],
}


@pytest.mark.parametrize("name", sorted(SEEDED_CASES))
def test_seeded_roots_match_the_descent_and_the_polynomial_roots(name):
    """The three heights of measure_grids and the density command's grid,
    every point started from the window's seed; on the density grid the
    density is the polynomial oracle's."""
    model = SEEDED_CASES[name]
    density_grid = default_grid(model) + 1e-4j
    for zs in measure_grids(model) + [density_grid]:
        assert_near_the_descent(model, zs)
    got = sigma_density(model, density_grid.real, 1e-4)
    assert_matches_oracle(got, oracle_density(model, density_grid))


def test_a_start_in_the_wrong_half_plane_descends(monkeypatch):
    """Seeds put in the lower half-plane, at every point or at every other
    one, are not solved from: those points get the descent's roots bit for
    bit, the descent of them alone, and the others the seeded roots."""
    model = BENCHMARK_MODELS["two-atom"]
    zs = default_grid(model) + 1e-4j
    seeded = limit_stieltjes(model, zs)
    real_seed = SupportWindow.seed
    wrong = np.arange(zs.size) % 2 == 0
    for flip in (np.ones(zs.size, dtype=bool), wrong):
        def mirrored(self, z, flip=flip):
            w = real_seed(self, z)
            return np.where(flip, w.conj(), w)

        monkeypatch.setattr(SupportWindow, "seed", mirrored)
        got, fell = fallbacks(lambda: limit_stieltjes(model, zs))
        assert sum(fell) == np.count_nonzero(flip)
        assert got[flip].tobytes() == descent_stieltjes(model, zs[flip]).tobytes()
        assert got[~flip].tobytes() == seeded[~flip].tobytes()


# -- the former grid solver as the reference of the Newton kernel --------------------
#
# The grid solve before dyson._newton, verbatim but for the docstrings and the
# names, which start with former_ in place of _: _newton_on_z, _damped_step,
# _polish, _descend, _move_down and _descend_with. It kept full-size arrays
# and gathered and scattered through index vectors of the live points. Its
# descent takes the ladder of heights as an argument and, as dyson._descend,
# tries the decades with the loose test before the half-decades with the tight
# test; half_decade_descent is the whole descent that came before the decade
# ladder, the loose half-decades before the tight ones. former_seeded is the
# seeded solve of dyson._seeded built from those bodies: one level of Newton
# steps on z from the start, then the descent of the points that fail. The
# kernel must give their roots bit for bit, evaluate (G, G') on the same
# points, which it groups into other calls, and raise the same SolverError. The tests below
# call the new solver as dyson._seeded, dyson._descend and
# dyson._descend_with.


@np.errstate(divide="ignore", invalid="ignore")
def former_seeded(h_pair, zs, seed, start):
    zs = np.asarray(zs, dtype=complex)
    w = np.asarray(start(zs), dtype=complex)
    far = seed(zs + 1j * max(1.0, float(np.max(np.abs(zs)))))
    ok = former_newton_on_z(h_pair, zs, w, np.sign(np.asarray(far, dtype=complex).imag))
    if not ok.all():
        w[~ok] = former_descend(h_pair, zs[~ok], seed)
    return w


def former_newton_on_z(h_pair, z, w, side):
    hw = np.full(w.size, np.nan, dtype=complex)
    hp = hw.copy()
    live = np.flatnonzero(np.sign(w.imag) == side)
    hw[live], hp[live] = h_pair(w[live])
    tol = _TIGHT_TOL * np.maximum(1.0, np.abs(z))
    for _ in range(_SEEDED_STEPS):
        live = live[~(np.abs(hw[live] - z[live]) <= tol[live])]
        if not live.size:
            break
        stuck = former_damped_step(h_pair, w, hw, hp, live, z[live], side)
        live = live[~np.isin(live, stuck)]
    ok = np.abs(hw - z) <= tol
    w[ok] = former_polish(h_pair, w[ok], hw[ok], hp[ok], z[ok], side[ok])
    return ok


def former_damped_step(h_pair, w, hw, hp, live, target, side):
    res = hw[live] - target
    step = res / hp[live]
    # backtrack on the points still without an accepted trial, compacted
    # after every halving
    todo, start, limit = live, w[live], np.abs(res)
    lam = 1.0
    for _ in range(40):
        trial = start - lam * step
        # a trial across the real axis is rejected like one that does not
        # reduce the residual; so are NaNs
        inside = np.sign(trial.imag) == side[todo]
        if inside.all():
            h_trial, hp_trial = h_pair(trial)
        else:
            h_trial = np.full(todo.size, np.nan, dtype=complex)
            hp_trial = h_trial.copy()
            h_trial[inside], hp_trial[inside] = h_pair(trial[inside])
        better = np.abs(h_trial - target) < limit
        accepted = todo[better]
        w[accepted] = trial[better]
        hw[accepted] = h_trial[better]
        hp[accepted] = hp_trial[better]
        if better.all():
            return todo[:0]
        rest = ~better
        todo, start, step = todo[rest], start[rest], step[rest]
        target, limit = target[rest], limit[rest]
        lam *= 0.5
    return todo


def former_polish(h_pair, w, hw, hp, zs, side):
    trial = w - (hw - zs) / hp
    keep = np.sign(trial.imag) == side
    h_trial = h_pair(trial[keep])[0]
    keep[keep] = np.abs(h_trial - zs[keep]) <= np.abs(hw[keep] - zs[keep])
    w[keep] = trial[keep]
    return w


def former_descend(h_pair, zs, seed):
    try:
        return former_descend_with(h_pair, zs, seed, _DECADES, _LOOSE_TOL)
    except SolverError:
        return former_descend_with(h_pair, zs, seed, _DESCENT, _TIGHT_TOL)


def half_decade_descent(h_pair, zs, seed):
    try:
        return former_descend_with(h_pair, zs, seed, _DESCENT, _LOOSE_TOL)
    except SolverError:
        return former_descend_with(h_pair, zs, seed, _DESCENT, _TIGHT_TOL)


def former_move_down(test, zs, heights, level_tol, hw, level, steps, done):
    last = len(heights) - 1
    for _ in range(2):
        target = zs[test] + 1j * heights[level[test]]
        test = test[np.abs(hw[test] - target)
                    <= level_tol[level[test]] * np.maximum(1.0, np.abs(target))]
        at_last = level[test] == last
        done[test[at_last]] = True
        test = test[~at_last]
        level[test] += 1
        steps[test] = 0
        if not test.size:
            return
    ks = np.arange(level[test].min(), last + 1)
    target = zs[test, None] + 1j * heights[ks]
    passes = np.abs(hw[test, None] - target) <= level_tol[ks] * np.maximum(1.0, np.abs(target))
    fails = ~passes & (ks >= level[test, None])
    through = ~fails.any(axis=1)
    done[test[through]] = True
    level[test[through]] = last
    level[test[~through]] = ks[np.argmax(fails[~through], axis=1)]


@np.errstate(divide="ignore", invalid="ignore")
def former_descend_with(h_pair, zs, seed, ladder, tol):
    zs = np.asarray(zs, dtype=complex)
    heights = max(1.0, float(np.max(np.abs(zs)))) * ladder
    level_tol = np.append(np.full(ladder.size - 1, tol), _TIGHT_TOL)
    w = np.asarray(seed(zs + 1j * heights[0]), dtype=complex)
    side = np.sign(w.imag)
    hw, hp = (np.asarray(v, dtype=complex) for v in h_pair(w))
    level = np.zeros(zs.size, dtype=int)
    steps = np.zeros(zs.size, dtype=int)
    done = np.zeros(zs.size, dtype=bool)
    live = np.arange(zs.size)

    def stalled(i, why):
        z, height = complex(zs[i]), float(heights[level[i]])
        return SolverError(f"Newton {why} at z={z!r}, height {height!r} above it; "
                           f"residual {float(abs(hw[i] - z - 1j * height))!r}")

    while True:
        former_move_down(live, zs, heights, level_tol, hw, level, steps, done)
        live = live[~done[live]]
        if not live.size:
            return former_polish(h_pair, w, hw, hp, zs, side)
        if steps[live].max() >= _LEVEL_STEPS:
            raise stalled(live[np.argmax(steps[live])], "did not converge")
        steps[live] += 1
        stuck = former_damped_step(h_pair, w, hw, hp, live, zs[live] + 1j * heights[level[live]], side)
        if stuck.size:
            raise stalled(stuck[0], "stalled")



def counted_pair(model):
    """h_pair of the model's curve, and the list of the points of its calls,
    each call's points copied."""
    curve = model.curve()
    mu = curve.measure
    points = []

    def h_pair(v):
        points.append(np.array(v, dtype=complex).ravel())
        return curve.point(v, *mu.stieltjes_pair(v))

    return h_pair, curve.seed, points


def evaluated(points):
    """The points of a list of (G, G') calls, sorted: the same multiset of
    points whatever calls they were grouped into."""
    return np.sort(np.concatenate(points + [np.empty(0, dtype=complex)]))


def outcome(solve, model, zs, *args):
    """The roots, or the message of the SolverError raised, and the points
    of the (G, G') calls made on the way."""
    h_pair, seed, points = counted_pair(model)
    try:
        got = solve(h_pair, zs, seed, *args)
    except SolverError as exc:
        got = str(exc)
    return got, points


def assert_as_the_former(solve, former, model, zs, *args):
    """The same roots bit for bit, from the same points, so the same total
    number of points; or the same error. The kernel groups the points into
    other (G, G') calls than the former solver, and a descent that fails may
    stop after other work."""
    got, points = outcome(solve, model, zs, *args)
    want, former_points = outcome(former, model, zs, *args)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.tobytes() == want.tobytes()
        assert evaluated(points).tobytes() == evaluated(former_points).tobytes()


def benchmark_grids(model):
    """measure_grids and the density command's default 400-point grid at its
    default eta."""
    return measure_grids(model) + [default_grid(model) + 1e-4j]


# the two descents of _descend, and the loose half-decade descent that
# half_decade_descent, the reference below, tries first
LADDERS = [(_DECADES, _LOOSE_TOL), (_DESCENT, _LOOSE_TOL), (_DESCENT, _TIGHT_TOL)]
LADDER_IDS = ["decades", "loose", "tight"]
# the table's tight descents take about 3 s
DESCENT_MODELS = [pytest.param(n, marks=pytest.mark.slow) if n == "table-rho" else n
                  for n in SOLVED_MODELS]


@pytest.mark.parametrize("name", SOLVED_MODELS)
def test_grid_solve_equals_the_former_solve_bit_for_bit(name):
    """Every non-degenerate benchmark model: every point descended, by the
    loose levels, and every point started from the window's seed."""
    model = BENCHMARK_MODELS[name]
    for zs in benchmark_grids(model):
        assert_solves_as_the_former(model, zs)


@pytest.mark.parametrize("ladder, tol", LADDERS, ids=LADDER_IDS)
@pytest.mark.parametrize("name", DESCENT_MODELS)
def test_descent_equals_the_former_descent_bit_for_bit(name, ladder, tol):
    """Every point of each grid descends, by each ladder of _descend."""
    model = BENCHMARK_MODELS[name]
    for zs in benchmark_grids(model):
        assert_as_the_former(dyson._descend_with, former_descend_with, model, zs, ladder, tol)


@pytest.mark.parametrize("ladder, tol", LADDERS, ids=LADDER_IDS)
@pytest.mark.parametrize("alpha, eta", [(0.3, 1e-4), (0.5577143454336282, 1e-6)])
def test_a_stalled_descent_raises_as_the_former(alpha, eta, ladder, tol):
    """The model of test_spectrum_on_the_scale_of_1e_3, whose spectrum spans
    1e-3, the loose test's residual."""
    rho = SpectralMeasure.from_atoms(
        [-0.00012475062110026442, 7.391027752904462e-121, 0.001],
        [0.19692530787100634, 0.5510268725317563, 0.25204781959723727])
    model = CovarianceModel(rho, alpha)
    zs = default_grid(model) + 1j * eta
    assert_as_the_former(dyson._descend_with, former_descend_with, model, zs, ladder, tol)
    assert_solves_as_the_former(model, zs)


@pytest.mark.parametrize("half", [0, 1], ids=["g", "g-prime"])
def test_a_nan_transform_raises_as_the_former(monkeypatch, half):
    """The grids of the NaN tests above, where every seeded point fails
    and every descent stalls."""
    model = CovarianceModel(SpectralMeasure.from_atoms([1.0, 3.0], [0.5, 0.5]), 2.0)
    assert model.window.right > 0.0
    real_pair = SpectralMeasure.stieltjes_pair

    def nan_half(self, z):
        pair = list(real_pair(self, z))
        pair[half] = np.full(np.shape(z), np.nan, dtype=complex)
        return tuple(pair)

    monkeypatch.setattr(SpectralMeasure, "stieltjes_pair", nan_half)
    for n in (50, 200):
        assert_grid_solves_as_the_former(model, np.linspace(0.0, 8.0, n) + 1e-4j)


def test_a_seeded_level_with_every_start_off_its_half_plane_ends():
    """No start in the half-plane of the descent's seed leaves the kernel no
    point: it ends at once, with no evaluation, and the polish step makes the
    empty evaluation of the former one."""
    model = BENCHMARK_MODELS["dw-two-atom"]
    h_pair, seed, points = counted_pair(model)
    z = np.linspace(-3.5, 3.5, 5) + 1e-6j
    seeds = dyson._descend(h_pair, z, seed)
    off = -np.sign(seeds.imag)
    points.clear()
    assert not former_newton_on_z(h_pair, z, seeds.copy(), off).any()
    former_sizes = [p.size for p in points]
    points.clear()

    def bounded(v):
        assert len(points) < 2, "the kernel kept evaluating with no point in play"
        return h_pair(v)

    inside = np.sign(seeds.imag) == off
    w, hw, hp = dyson._newton(bounded, z[inside], 0.0, _TIGHT_TOL, seeds[inside],
                              *bounded(seeds[inside]), off[inside], _SEEDED_STEPS, strict=False)
    assert len(points) == 1
    got = dyson._polished(bounded, z[inside], w, hw, hp, off[inside])
    assert got.size == 0
    assert [p.size for p in points] == former_sizes == [0, 0]


def assert_solves_as_the_former(model, zs):
    """_descend as former_descend, and the seeded solve from the seed of the
    model's window, where the window solves, as former_seeded."""
    assert_as_the_former(dyson._descend, former_descend, model, zs)
    window = solved_window(model)
    if window is not None:
        assert_as_the_former(dyson._seeded, former_seeded, model, zs, window.seed)


def assert_grid_solves_as_the_former(model, zs):
    assert_solves_as_the_former(model, zs)
    for ladder, tol in LADDERS:
        assert_as_the_former(dyson._descend_with, former_descend_with, model, zs, ladder, tol)


@given(rho=atomic_measures, alpha=st.floats(0.3, 3.0), eta=etas)
def test_random_covariance_grid_solves_equal_the_former_solve(rho, alpha, eta):
    model = CovarianceModel(rho, alpha)
    assume(not detect_degenerate(model))
    mp_edge = (1.0 + 1.0 / np.sqrt(alpha)) ** 2
    xs = covering_grid(min(0.0, rho.left_edge) * mp_edge, max(0.0, rho.right_edge) * mp_edge)
    assert_grid_solves_as_the_former(model, xs + 1j * eta)


@given(mu=atomic_measures, eta=etas)
def test_random_deformed_wigner_grid_solves_equal_the_former_solve(mu, eta):
    model = DeformedWignerModel(mu)
    zs = covering_grid(mu.left_edge - 2.0, mu.right_edge + 2.0) + 1j * eta
    assert_grid_solves_as_the_former(model, zs)


# -- the decade ladder against the half-decade descent -----------------------------
#
# dyson._descend descends by decades first and falls back to the tight
# half-decade descent; the half-decade descent that came before it, which the
# former solver above keeps, is the reference. Both stay in the half-plane of the seed, which holds one root, so
# their roots differ by rounding: within CONTINUATION_TOL max(1, |G|). On the
# grids of the benchmark models they differed by at most 3.9e-13 max(1, |G|)
# (neg-wishart at 1e-9 max(1, span), near the soft edge, where x' is
# small) and on the 600 random models of each kind below by at most 4.7e-14.


def assert_near_the_half_decade_descent(model, zs):
    got = descent_stieltjes(model, zs)
    want = descent_stieltjes(model, zs, half_decade_descent)
    assert np.all(np.abs(got - want) <= CONTINUATION_TOL * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", SOLVED_MODELS)
def test_decade_descent_matches_the_half_decade_descent_on_the_benchmark_models(name):
    model = BENCHMARK_MODELS[name]
    for zs in benchmark_grids(model):
        assert_near_the_half_decade_descent(model, zs)


@pytest.mark.slow
@settings(max_examples=600)
@given(rho=atomic_measures, alpha=st.floats(0.3, 3.0), eta=etas)
def test_decade_descent_matches_the_half_decade_descent_on_random_covariance_models(
        rho, alpha, eta):
    model = CovarianceModel(rho, alpha)
    assume(not detect_degenerate(model))
    mp_edge = (1.0 + 1.0 / np.sqrt(alpha)) ** 2
    xs = covering_grid(min(0.0, rho.left_edge) * mp_edge, max(0.0, rho.right_edge) * mp_edge)
    assert_near_the_half_decade_descent(model, xs + 1j * eta)


@pytest.mark.slow
@settings(max_examples=600)
@given(mu=atomic_measures, eta=etas)
def test_decade_descent_matches_the_half_decade_descent_on_random_deformed_wigner_models(
        mu, eta):
    model = DeformedWignerModel(mu)
    assert_near_the_half_decade_descent(
        model, covering_grid(mu.left_edge - 2.0, mu.right_edge + 2.0) + 1j * eta)


@pytest.mark.parametrize("eta", [1e-4, 1e-6])
def test_a_stalled_ladder_falls_back_to_the_half_decade_descent(monkeypatch, eta):
    """Descending by factors of 100, both the loose and the tight descent
    stall at height 0.042 on this model; the descent then is the tight
    half-decade descent, bit for bit, from the same (G, G') points after the
    calls of the failed attempt, within CONTINUATION_TOL of the former
    descent."""
    rho = SpectralMeasure.from_atoms([0.0, 1.0, 0.5], np.array([1.0, 0.25, 1.0]) / 2.25)
    model = CovarianceModel(rho, 1.0)
    zs = covering_grid(0.0, 4.0) + 1j * eta
    hundreds = np.append(np.geomspace(1.0, 1e-12, 7), 0.0)
    monkeypatch.setattr(dyson, "_DECADES", hundreds)
    stalls = {tol: outcome(dyson._descend_with, model, zs, hundreds, tol)
              for tol in (_LOOSE_TOL, _TIGHT_TOL)}
    for message, _ in stalls.values():
        assert "stalled" in message and "height 0.042" in message
    got, points = outcome(dyson._descend, model, zs)
    want, want_points = outcome(former_descend_with, model, zs, _DESCENT, _TIGHT_TOL)
    assert got.tobytes() == want.tobytes()
    # the failed attempt's calls, as it makes them alone, then the tight
    # descent's points
    failed = stalls[_LOOSE_TOL][1]
    assert [p.tobytes() for p in points[:len(failed)]] == [p.tobytes() for p in failed]
    assert evaluated(points[len(failed):]).tobytes() == evaluated(want_points).tobytes()
    assert_near_the_half_decade_descent(model, zs)
