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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.linalg import eigvals

from rmtldp import dyson
from rmtldp.cli import model_from_json
from rmtldp.dyson import (
    _DESCENT,
    _LOOSE_TOL,
    _TIGHT_TOL,
    CovarianceModel,
    DegenerateModelError,
    SolverError,
    _descend,
    _descend_with,
    _move_down,
    _solve_on_grid,
    boundary_density_grid,
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
    edge = model.edge()
    window = model.window(edge)
    margin = 0.05 * (window.right - window.left)
    return edge, np.linspace(window.left - margin, window.right + margin, 400)


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
    _, xs = default_grid(model)
    got = sigma_density(model, xs, eta)
    want = np.array([covariance_oracle(atoms, weights, alpha, x + 1j * eta) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("eta", [1e-4, 1e-6])
@pytest.mark.parametrize("name", sorted(WIGNER))
def test_free_convolution_density_matches_polynomial_roots(name, eta):
    atoms, weights = WIGNER[name]
    model = DeformedWignerModel(SpectralMeasure.from_atoms(atoms, weights))
    _, xs = default_grid(model)
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
    _, xs = default_grid(model)
    xs = np.append(xs, -3e-4)
    got = sigma_density(model, xs, eta)
    want = np.array([covariance_oracle(atoms, weights, alpha, x + 1j * eta) for x in xs])
    assert np.max(np.abs(got - want) / want) <= 1e-9


def _raises_on_nan_half(monkeypatch, half):
    """sigma_density of a two-atom model with one half of the solver's
    (G, G') evaluation replaced by NaN raises SolverError naming the point,
    the height it stalled at and the residual."""
    model = CovarianceModel(SpectralMeasure.from_atoms([1.0, 3.0], [0.5, 0.5]), 2.0)
    real_pair = SpectralMeasure.stieltjes_pair

    def nan_half(self, z):
        pair = list(real_pair(self, z))
        pair[half] = np.full(np.shape(z), np.nan, dtype=complex)
        return tuple(pair)

    monkeypatch.setattr(SpectralMeasure, "stieltjes_pair", nan_half)
    with pytest.raises(SolverError, match=r"z=.*height.*residual"):
        sigma_density(model, np.linspace(0.0, 8.0, 50), 1e-4)


def test_unsolvable_point_raises_instead_of_returning(monkeypatch):
    """A NaN derivative leaves Newton no acceptable step."""
    _raises_on_nan_half(monkeypatch, 1)


def test_nan_transform_raises_instead_of_returning(monkeypatch):
    """A NaN transform fails every stopping test and rejects every trial."""
    _raises_on_nan_half(monkeypatch, 0)


@pytest.mark.parametrize("model, budget", [
    (CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0), 4.5),
    (DeformedWignerModel(SpectralMeasure.uniform(-1.0, 1.0)), 4.25),
], ids=["wishart1", "dw-uniform"])
def test_grid_solve_evaluation_budget(monkeypatch, model, budget):
    """Each Newton trial evaluates G and G' once, through stieltjes_pair, and
    the x' of an accepted trial serves the next step. On sigma_measure's
    2000-point grid, continued along the grid, that is 4.24 evaluations per
    point for covariance and 4.05 for deformed Wigner, both solved on their
    level curves; the descent alone takes about 19 and 16, and the former
    covariance solve of H(w) = z in theta took about 23."""
    window = model.window(model.edge())
    xs = boundary_density_grid(window.left, window.right, 2000)
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
    g = limit_stieltjes(model, zs)
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
    the whole spectrum, and Newton from its root stalls at height 0 for some
    points; the grid is then solved again with the tight test throughout."""
    atoms = [-0.00012475062110026442, 7.391027752904462e-121, 0.001]
    weights = [0.19692530787100634, 0.5510268725317563, 0.25204781959723727]
    rho = SpectralMeasure.from_atoms(atoms, weights)
    model = CovarianceModel(rho, alpha)
    _, xs = default_grid(model)
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
    edge = model.edge()
    assert edge.r_sigma < 0.0
    step = 1e-2 * abs(edge.r_sigma)
    inside, outside = [covariance_oracle(atoms, weights, alpha, x + 1e-12j)
                       for x in (edge.r_sigma - step, edge.r_sigma + step)]
    assert inside > 1e-2 and outside < 1e-5


# -- the former solves of the limit law as the reference ---------------------------


def theta_space_stieltjes(model, zs):
    """G_sigma(z) by the former covariance solve: the root of H(w) = z with
    Im w < 0, seeded far above the axis by w ~ 1/z, with (H, H') in theta
    from one evaluation of G_rho and G_rho' at alpha/w, in the expressions
    of that solve."""
    a = model.alpha

    def h_pair(w):
        z = a / w
        g, gp = model.rho.stieltjes_pair(z)
        h = 1.0 / w - a / w + (a * a) / (w * w) * g
        f = -1.0 + a * (z * z * (-gp) - 2.0 * z * g + 1.0)
        return h, f / (w * w)

    return _solve_on_grid(h_pair, zs, lambda z: 1.0 / z)


def subordination_stieltjes(model, zs):
    """G(z) = z - omega by the former deformed-Wigner solve of omega +
    G_mu(omega) = z, seeded by omega ~ z - 1/z."""

    def pair(om):
        g, gp = model.mu_d.stieltjes_pair(om)
        return om + g, 1.0 + gp

    return zs - _solve_on_grid(pair, zs, lambda z: z - 1.0 / z)


MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"
BENCHMARK_MODELS = {p.stem: model_from_json(json.loads(p.read_text()))
                    for p in sorted(MODELS.glob("*.json"))}


def measure_grids(model):
    """sigma_measure's 2000-point grid over the support window at the
    heights 1e-2, 1e-6 and 1e-9 max(1, span), the last sigma_measure's."""
    window = model.window(model.edge())
    xs = boundary_density_grid(window.left, window.right, 2000)
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
    equation at lam = omega, with the same seed and map to G."""
    model = BENCHMARK_MODELS[name]
    for zs in measure_grids(model):
        assert np.array_equal(limit_stieltjes(model, zs), subordination_stieltjes(model, zs))


@given(mu=atomic_measures, eta=etas)
def test_random_atomic_deformed_wigner_limit_law_equals_the_subordination_solve(mu, eta):
    model = DeformedWignerModel(mu)
    zs = covering_grid(mu.left_edge - 2.0, mu.right_edge + 2.0) + 1j * eta
    assert np.array_equal(limit_stieltjes(model, zs), subordination_stieltjes(model, zs))


# -- continuation along the grid against the plain descent -------------------------
#
# _solve_on_grid solves every 16th point of a grid at one height by the
# descent and the others by Newton's method from interpolated seeds; its roots
# must be the descent's up to rounding. On the grids below they differed by at
# most 7.0e-14 max(1, |G|).

CONTINUATION_TOL = 5e-13


def descent_stieltjes(model, zs):
    """limit_stieltjes with every point solved by the plain descent."""
    curve = model.curve()
    mu = curve.measure
    lam = _descend(lambda v: curve.point(v, *mu.stieltjes_pair(v)), zs, curve.seed)
    return curve.y(lam, zs)


def assert_near_the_descent(model, zs):
    got = limit_stieltjes(model, zs)
    want = descent_stieltjes(model, zs)
    assert np.all(np.abs(got - want) <= CONTINUATION_TOL * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", sorted(n for n, m in BENCHMARK_MODELS.items()
                                        if not (isinstance(m, CovarianceModel)
                                                and detect_degenerate(m))))
def test_continuation_matches_the_descent_on_the_benchmark_models(name):
    """Every benchmark model but the degenerate one, which has no limit law
    to solve."""
    model = BENCHMARK_MODELS[name]
    for zs in measure_grids(model):
        assert_near_the_descent(model, zs)


@pytest.mark.slow
@settings(max_examples=300)
@given(rho=atomic_measures, alpha=st.floats(0.3, 3.0), eta=etas)
def test_continuation_matches_the_descent_on_random_covariance_models(rho, alpha, eta):
    model = CovarianceModel(rho, alpha)
    assume(not detect_degenerate(model))
    mp_edge = (1.0 + 1.0 / np.sqrt(alpha)) ** 2
    xs = covering_grid(min(0.0, rho.left_edge) * mp_edge, max(0.0, rho.right_edge) * mp_edge)
    assert_near_the_descent(model, xs + 1j * eta)


@pytest.mark.slow
@settings(max_examples=300)
@given(mu=atomic_measures, eta=etas)
def test_continuation_matches_the_descent_on_random_deformed_wigner_models(mu, eta):
    model = DeformedWignerModel(mu)
    assert_near_the_descent(model, covering_grid(mu.left_edge - 2.0, mu.right_edge + 2.0) + 1j * eta)


def test_a_seed_that_fails_is_solved_by_the_descent(monkeypatch):
    """On 64 points over the two bands of dw-two-atom, the solved points are
    5 (every 16th and the last); around the gap at 0 four interpolated seeds
    leave the upper half-plane and one more does not converge, and the
    descent solves those five."""
    atoms, weights = [-1.0, 1.0], [0.5, 0.5]
    model = DeformedWignerModel(SpectralMeasure.from_atoms(atoms, weights))
    zs = np.linspace(-3.5, 3.5, 64) + 1e-6j
    descents = []
    plain = dyson._descend

    def counted(h_pair, zs, seed):
        descents.append(np.size(zs))
        return plain(h_pair, zs, seed)

    monkeypatch.setattr(dyson, "_descend", counted)
    got = limit_stieltjes(model, zs)
    assert descents == [5, 5]
    want = descent_stieltjes(model, zs)
    assert np.all(np.abs(got - want) <= CONTINUATION_TOL * np.maximum(1.0, np.abs(want)))
    assert_matches_oracle(-got.imag / np.pi,
                          [wigner_oracle(np.array(atoms), weights, z) for z in zs])


def test_a_short_or_uneven_grid_is_solved_by_the_descent_alone(monkeypatch):
    """Fewer than 64 points, or points at different heights."""
    model = CovarianceModel(SpectralMeasure.from_atoms([1.0, 3.0], [0.5, 0.5]), 2.0)
    calls = []
    monkeypatch.setattr(dyson, "_continue", lambda *args: calls.append(args))
    xs = np.linspace(0.0, 8.0, 64)
    for zs in (xs[:63] + 1e-6j, xs + 1j * np.where(xs < 4.0, 1e-6, 2e-6)):
        assert np.array_equal(limit_stieltjes(model, zs), descent_stieltjes(model, zs))
    assert not calls


# -- the move-down of the descent against one level per pass -----------------------


def move_down_one_level_per_pass(test, zs, heights, level_tol, hw, level, steps, done):
    """The former move-down: one level per pass, each pass testing only the
    points the one before moved."""
    last = len(heights) - 1
    while test.size:
        target = zs[test] + 1j * heights[level[test]]
        test = test[np.abs(hw[test] - target)
                    <= level_tol[level[test]] * np.maximum(1.0, np.abs(target))]
        at_last = level[test] == last
        done[test[at_last]] = True
        test = test[~at_last]
        level[test] += 1
        steps[test] = 0


@pytest.mark.parametrize("level_tol", [_LOOSE_TOL, _TIGHT_TOL], ids=["loose", "tight"])
def test_move_down_equals_one_level_per_pass_on_random_states(level_tol):
    """Roots placed on a level at or below each point's own, with a residual
    around the tolerance, so that points stop on every level, move through
    the last, or fail at once."""
    rng = np.random.default_rng(17)
    n = 5000
    zs = rng.uniform(-5.0, 5.0, n) + 1j * rng.choice([1e-9, 1e-4, 0.5], n)
    heights = max(1.0, float(np.max(np.abs(zs)))) * _DESCENT
    last = len(heights) - 1
    level = rng.integers(0, last + 1, n)
    on = np.minimum(level + rng.integers(0, last + 1, n), last)
    target = zs + 1j * heights[on]
    noise = level_tol[on] * np.maximum(1.0, np.abs(target)) * rng.uniform(0.0, 2.0, n)
    hw = target + noise * np.exp(2j * np.pi * rng.uniform(size=n))
    test = np.flatnonzero(rng.uniform(size=n) < 0.9)
    steps = rng.integers(0, 5, n)
    states = [(level.copy(), steps.copy(), np.zeros(n, dtype=bool)) for _ in range(2)]
    _move_down(test, zs, heights, level_tol, hw, *states[0])
    move_down_one_level_per_pass(test, zs, heights, level_tol, hw, *states[1])
    for new, old in zip(*states):
        assert np.array_equal(new, old)
    # the loose test lets points move three levels and more, into the
    # (points x levels) test; the tight one only the last step or two
    moved = states[0][0] - level + states[0][2]
    assert np.count_nonzero(moved >= 3) > 100 if level_tol is _LOOSE_TOL else moved.max() >= 1


@pytest.mark.parametrize("level_tol", [_LOOSE_TOL, _TIGHT_TOL], ids=["loose", "tight"])
@pytest.mark.parametrize("name", ["wishart1", "two-atom", "semicircle-rho", "dw-two-atom",
                                  "dw-uniform"])
def test_move_down_keeps_the_descent_bit_for_bit(monkeypatch, name, level_tol):
    model = BENCHMARK_MODELS[name]
    curve = model.curve()
    mu = curve.measure

    def h_pair(v):
        return curve.point(v, *mu.stieltjes_pair(v))

    for zs in measure_grids(model):
        got = _descend_with(h_pair, zs, curve.seed, level_tol)
        with monkeypatch.context() as patch:
            patch.setattr(dyson, "_move_down", move_down_one_level_per_pass)
            want = _descend_with(h_pair, zs, curve.seed, level_tol)
        assert np.array_equal(got, want)
