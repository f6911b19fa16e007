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
    _GRID_MIN,
    _GRID_STEPS,
    _GRID_STRIDE,
    _LEVEL_STEPS,
    _LOOSE_TOL,
    _TIGHT_TOL,
    CovarianceModel,
    DegenerateModelError,
    SolverError,
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

    return dyson._solve_on_grid(h_pair, zs, lambda z: 1.0 / z)


def subordination_stieltjes(model, zs):
    """G(z) = z - omega by the former deformed-Wigner solve of omega +
    G_mu(omega) = z, seeded by omega ~ z - 1/z."""

    def pair(om):
        g, gp = model.mu_d.stieltjes_pair(om)
        return om + g, 1.0 + gp

    return zs - dyson._solve_on_grid(pair, zs, lambda z: z - 1.0 / z)


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
    lam = dyson._descend(lambda v: curve.point(v, *mu.stieltjes_pair(v)), zs, curve.seed)
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
    """On 96 points over the two bands of dw-two-atom, the solved points are
    7 (every 16th and the last); around the gap at 0 four interpolated seeds
    leave the upper half-plane and seven more do not converge, and the
    descent solves those eleven."""
    atoms, weights = [-1.0, 1.0], [0.5, 0.5]
    model = DeformedWignerModel(SpectralMeasure.from_atoms(atoms, weights))
    zs = np.linspace(-3.5, 3.5, 96) + 1e-6j
    descents = []
    plain = dyson._descend

    def counted(h_pair, zs, seed):
        descents.append(np.size(zs))
        return plain(h_pair, zs, seed)

    monkeypatch.setattr(dyson, "_descend", counted)
    got = limit_stieltjes(model, zs)
    assert descents == [7, 11]
    want = descent_stieltjes(model, zs)
    assert np.all(np.abs(got - want) <= CONTINUATION_TOL * np.maximum(1.0, np.abs(want)))
    assert_matches_oracle(-got.imag / np.pi,
                          [wigner_oracle(np.array(atoms), weights, z) for z in zs])


def test_a_short_or_uneven_grid_is_solved_by_the_descent_alone(monkeypatch):
    """Fewer than 80 points, or points at different heights; 80 points at
    one height are continued."""
    model = CovarianceModel(SpectralMeasure.from_atoms([1.0, 3.0], [0.5, 0.5]), 2.0)
    calls = []
    monkeypatch.setattr(dyson, "_continue", lambda *args: calls.append(args))
    xs = np.linspace(0.0, 8.0, 80)
    for zs in (xs[:79] + 1e-6j, xs + 1j * np.where(xs < 4.0, 1e-6, 2e-6)):
        assert np.array_equal(limit_stieltjes(model, zs), descent_stieltjes(model, zs))
    assert not calls
    dyson._solve_on_grid(None, xs + 1e-6j, None)
    assert len(calls) == 1


# -- the former grid solver as the reference of the Newton kernel --------------------
#
# The grid solve before dyson._newton, verbatim but for the docstrings and the
# names, which start with former_ in place of _: the dispatch of
# _solve_on_grid, _continue, _newton_on_z, _damped_step, _polish, _descend,
# _move_down and _descend_with. It kept full-size arrays and gathered and
# scattered through index vectors of the live points. The kernel must give
# its roots bit for bit, evaluate (G, G') on the same points in the same
# calls, and raise the same SolverError. The tests below call the new solver
# as dyson._solve_on_grid and dyson._descend_with.


def former_solve_on_grid(h_pair, zs, seed):
    zs = np.asarray(zs, dtype=complex)
    if zs.size >= _GRID_MIN and np.all(zs.imag == zs.imag[0]):
        return former_continue(h_pair, zs, seed)
    return former_descend(h_pair, zs, seed)


@np.errstate(divide="ignore", invalid="ignore")
def former_continue(h_pair, zs, seed):
    order = np.argsort(zs.real, kind="stable")
    x = zs.real[order]
    n = zs.size
    solved = np.append(np.arange(0, n - 1, _GRID_STRIDE), n - 1)
    w = np.empty(n, dtype=complex)
    w[solved] = former_descend(h_pair, zs[order[solved]], seed)
    slope = 1.0 / np.asarray(h_pair(w[solved])[1], dtype=complex)
    between = np.ones(n, dtype=bool)
    between[solved] = False
    rest = np.flatnonzero(between)
    # the solved points around each other point, by their places in solved
    left = rest // _GRID_STRIDE
    right = left + 1
    w0, w1 = w[solved[left]], w[solved[right]]
    x0 = x[solved[left]]
    dx = x[solved[right]] - x0
    t = (x[rest] - x0) / dx
    u = 1.0 - t
    seeds = (u * u * ((1.0 + 2.0 * t) * w0 + t * dx * slope[left])
             + t * t * ((3.0 - 2.0 * t) * w1 - u * dx * slope[right]))
    z = zs[order[rest]]
    ok = former_newton_on_z(h_pair, z, seeds, np.sign(w0.imag))
    if not ok.all():
        seeds[~ok] = former_descend(h_pair, z[~ok], seed)
    w[rest] = seeds
    out = np.empty(n, dtype=complex)
    out[order] = w
    return out


def former_newton_on_z(h_pair, z, w, side):
    hw = np.full(w.size, np.nan, dtype=complex)
    hp = hw.copy()
    live = np.flatnonzero(np.sign(w.imag) == side)
    hw[live], hp[live] = h_pair(w[live])
    tol = _TIGHT_TOL[-1] * np.maximum(1.0, np.abs(z))
    for _ in range(_GRID_STEPS):
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
        return former_descend_with(h_pair, zs, seed, _LOOSE_TOL)
    except SolverError:
        return former_descend_with(h_pair, zs, seed, _TIGHT_TOL)


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
def former_descend_with(h_pair, zs, seed, level_tol):
    zs = np.asarray(zs, dtype=complex)
    heights = max(1.0, float(np.max(np.abs(zs)))) * _DESCENT
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
    """h_pair of the model's curve, and the list of the sizes of its calls."""
    curve = model.curve()
    mu = curve.measure
    sizes = []

    def h_pair(v):
        sizes.append(np.size(v))
        return curve.point(v, *mu.stieltjes_pair(v))

    return h_pair, curve.seed, sizes


def outcome(solve, model, zs, *args):
    """The roots, or the message of the SolverError raised, and the sizes of
    the (G, G') calls made on the way."""
    h_pair, seed, sizes = counted_pair(model)
    try:
        got = solve(h_pair, zs, seed, *args)
    except SolverError as exc:
        got = str(exc)
    return got, sizes


def assert_as_the_former(solve, former, model, zs, *args):
    """The same roots bit for bit (or the same error), from the same points
    in the same (G, G') calls, so the same total number of points."""
    got, sizes = outcome(solve, model, zs, *args)
    want, former_sizes = outcome(former, model, zs, *args)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.tobytes() == want.tobytes()
    assert sizes == former_sizes
    assert sum(sizes) == sum(former_sizes)


def benchmark_grids(model):
    """measure_grids and the density command's default 400-point grid at its
    default eta."""
    return measure_grids(model) + [default_grid(model)[1] + 1e-4j]


SOLVED_MODELS = sorted(n for n, m in BENCHMARK_MODELS.items()
                       if not (isinstance(m, CovarianceModel) and detect_degenerate(m)))
# the table's tight descents take about 3 s
DESCENT_MODELS = [pytest.param(n, marks=pytest.mark.slow) if n == "table-rho" else n
                  for n in SOLVED_MODELS]


@pytest.mark.parametrize("name", SOLVED_MODELS)
def test_grid_solve_equals_the_former_solve_bit_for_bit(name):
    """Every non-degenerate benchmark model: the continued grids, whose
    descents take the loose levels."""
    model = BENCHMARK_MODELS[name]
    for zs in benchmark_grids(model):
        assert_as_the_former(dyson._solve_on_grid, former_solve_on_grid, model, zs)


@pytest.mark.parametrize("level_tol", [_LOOSE_TOL, _TIGHT_TOL], ids=["loose", "tight"])
@pytest.mark.parametrize("name", DESCENT_MODELS)
def test_descent_equals_the_former_descent_bit_for_bit(name, level_tol):
    """Every point of each grid descends, with either stopping test."""
    model = BENCHMARK_MODELS[name]
    for zs in benchmark_grids(model):
        assert_as_the_former(dyson._descend_with, former_descend_with, model, zs, level_tol)


@pytest.mark.parametrize("level_tol", [_LOOSE_TOL, _TIGHT_TOL], ids=["loose", "tight"])
@pytest.mark.parametrize("alpha, eta", [(0.3, 1e-4), (0.5577143454336282, 1e-6)])
def test_a_stalled_descent_raises_as_the_former(alpha, eta, level_tol):
    """The model of test_spectrum_on_the_scale_of_1e_3, where the loose
    descent stalls at height 0 and the tight one converges."""
    rho = SpectralMeasure.from_atoms(
        [-0.00012475062110026442, 7.391027752904462e-121, 0.001],
        [0.19692530787100634, 0.5510268725317563, 0.25204781959723727])
    model = CovarianceModel(rho, alpha)
    zs = default_grid(model)[1] + 1j * eta
    assert_as_the_former(dyson._descend_with, former_descend_with, model, zs, level_tol)
    assert_as_the_former(dyson._solve_on_grid, former_solve_on_grid, model, zs)


@pytest.mark.parametrize("half", [0, 1], ids=["g", "g-prime"])
def test_a_nan_transform_raises_as_the_former(monkeypatch, half):
    """The grids of the NaN tests above, where every descent stalls."""
    model = CovarianceModel(SpectralMeasure.from_atoms([1.0, 3.0], [0.5, 0.5]), 2.0)
    real_pair = SpectralMeasure.stieltjes_pair

    def nan_half(self, z):
        pair = list(real_pair(self, z))
        pair[half] = np.full(np.shape(z), np.nan, dtype=complex)
        return tuple(pair)

    monkeypatch.setattr(SpectralMeasure, "stieltjes_pair", nan_half)
    for n in (50, 200):
        assert_grid_solves_as_the_former(model, np.linspace(0.0, 8.0, n) + 1e-4j)


def test_a_continuation_with_every_seed_off_its_half_plane_ends():
    """No seed in the half-plane of its neighbours' roots leaves the kernel no
    point: it ends at once, with the empty evaluations of the former Newton
    steps on z."""
    model = BENCHMARK_MODELS["dw-two-atom"]
    h_pair, seed, sizes = counted_pair(model)
    z = np.linspace(-3.5, 3.5, 5) + 1e-6j
    seeds = dyson._descend(h_pair, z, seed)
    off = -np.sign(seeds.imag)
    sizes.clear()
    assert not former_newton_on_z(h_pair, z, seeds.copy(), off).any()
    former_sizes = sizes[:]
    sizes.clear()

    def bounded(v):
        assert len(sizes) < 2, "the kernel kept evaluating with no point in play"
        return h_pair(v)

    inside = np.sign(seeds.imag) == off
    got = dyson._newton(bounded, z[inside], np.zeros(1), _TIGHT_TOL[-1:], seeds[inside],
                        *bounded(seeds[inside]), off[inside], _GRID_STEPS, strict=False)
    assert got.size == 0
    assert sizes == former_sizes == [0, 0]


def assert_grid_solves_as_the_former(model, zs):
    assert_as_the_former(dyson._solve_on_grid, former_solve_on_grid, model, zs)
    for level_tol in (_LOOSE_TOL, _TIGHT_TOL):
        assert_as_the_former(dyson._descend_with, former_descend_with, model, zs, level_tol)


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
    assert_grid_solves_as_the_former(
        model, covering_grid(mu.left_edge - 2.0, mu.right_edge + 2.0) + 1j * eta)
