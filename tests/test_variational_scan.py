"""The batched variational objective against a per-theta scalar oracle, the
scan's failure path, array/scalar parity of J, F and the logarithmic moment,
J at the edge's snap window, and the inverse Stieltjes solve: its
divergent-edge rule, the vectorized solve against a scalar brentq oracle with
a cap on its steps, and the shared Newton kernel against the solve's former
loop."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from rmtldp import measures
from rmtldp.dyson import (
    _NEWTON_RTOL,
    _NEWTON_STEPS,
    _NEWTON_XTOL,
    CovarianceModel,
    SolverError,
    _evaluable_floor,
    sigma_measure,
)
from rmtldp.measures import SpectralMeasure
from rmtldp.rate import _inverse_stieltjes, f_fn, j_fn, rate, rate_variational
from rmtldp.wigner import DeformedWignerModel
from test_density_oracle import atomic_measures  # the random models of the density tests

# -- the per-theta scalar oracle ------------------------------------------------
#
# J and F one theta at a time, with the inverse Stieltjes transform found by a
# bracket search from the edge and brentq: the evaluation the batched
# objective replaced.


def scalar_inverse_stieltjes(mu, target):
    r = mu.right_edge
    delta = 1e-3 * max(1.0, abs(r))
    for _ in range(300):
        lo = r + delta
        if mu.stieltjes(lo) > target:
            break
        delta *= 0.5
    hi = lo
    while mu.stieltjes(hi) >= target:
        hi = r + 2.0 * (hi - r)
    return brentq(lambda lam: mu.stieltjes(lam) - target, lo, hi,
                  xtol=1e-14, rtol=8.9e-16, maxiter=300)


def scalar_j(mu, theta, lam):
    if mu.stieltjes(lam) <= 2.0 * theta:
        k = lam
    else:
        k = scalar_inverse_stieltjes(mu, 2.0 * theta)
    v = k - 0.5 / theta
    return theta * v - 0.5 * (math.log(2.0 * theta) + mu.log_moment(v + 0.5 / theta))


def scalar_objective(model, sigma, x, theta):
    if isinstance(model, CovarianceModel):
        a = model.alpha
        f = -0.5 * a * (model.rho.log_moment(a / theta) + math.log(theta / a))
        return scalar_j(sigma, 0.5 * theta, x) - f
    mu = model.mu_d
    return scalar_j(sigma, theta, x) - theta * theta - scalar_j(mu, theta, mu.right_edge)


# the limit-law models of the benchmark, three points each across the ranges
# their variational acceptance tests cover
MODELS = {
    "wishart1": (lambda: CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0),
                 (4.5, 6.0, 8.5)),
    "neg-wishart": (lambda: CovarianceModel(SpectralMeasure.point_mass(-1.0), 2.0),
                    (-0.07, -0.04, -0.01)),
    "two-atom": (lambda: CovarianceModel(SpectralMeasure.from_atoms([1.0, 3.0], [0.5, 0.5]), 2.0),
                 (7.1, 7.5, 8.0)),
    "semicircle-rho": (lambda: CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), 1.0),
                       (9.5, 15.0, 24.0)),
    "dw-point": (lambda: DeformedWignerModel(SpectralMeasure.point_mass(0.0)),
                 (2.6, 3.2, 3.9)),
    "dw-two-atom": (lambda: DeformedWignerModel(
        SpectralMeasure.from_atoms([-1.0, 1.0], [0.5, 0.5])), (3.1, 3.5, 4.0)),
    "dw-uniform": (lambda: DeformedWignerModel(SpectralMeasure.uniform(-1.0, 1.0)),
                   (2.8, 3.5, 4.2)),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_array_objective_matches_per_theta_scalar_loop(name):
    build, xs = MODELS[name]
    model = build()
    sigma = sigma_measure(model, 2000)
    for x in xs:
        theta_x, end, objective = model.variational(x, sigma)
        thetas = np.append(theta_x, np.geomspace(max(theta_x * 1e-3, 1e-12), end, 50))
        got = objective(thetas)
        want = np.array([scalar_objective(model, sigma, x, t) for t in thetas])
        assert got.shape == thetas.shape
        assert np.max(np.abs(got - want)) <= 1e-12


# the variational ranges of the benchmark's limit-law jobs (perfbench/workloads.py)
BENCHMARK_RANGES = {
    "wishart1": (4.2, 9.0), "neg-wishart": (-0.08, -0.008), "two-atom": (7.0, 8.1),
    "semicircle-rho": (8.95, 25.0), "dw-point": (2.5, 4.0), "dw-two-atom": (3.0, 4.1),
    "dw-uniform": (2.7, 4.3),
}


def test_the_rule_keeps_variational_rates_within_1e_13_of_the_node_sums(monkeypatch):
    """Read through its Gauss rule, sigma gives every rate on the benchmark's
    limit-law models within 1e-13 relative of the rate from its nodes."""
    served = 0
    for name, (lo, hi) in BENCHMARK_RANGES.items():
        model = MODELS[name][0]()
        sigma = sigma_measure(model, 2000)
        xs = np.linspace(lo, hi, 6)
        ruled = [rate_variational(model, x, sigma) for x in xs]
        served += sum(sigma.read_from(x) is not sigma for x in xs)
        with monkeypatch.context() as patch:
            patch.setattr(measures, "_RULE_REACH", math.inf)
            summed = [rate_variational(model, x, sigma) for x in xs]
        np.testing.assert_allclose(ruled, summed, rtol=1e-13, atol=0.0)
    # of 42: neg-wishart's range and wishart1's 4.2 lie within the reach
    assert served == 35


def test_scan_raises_when_a_theta_beats_the_optimizer(monkeypatch):
    """An optimizer at 0.3 Gbar(x) leaves the supremum to the scan, which
    must refuse the value and name the theta as a plain float."""
    model = CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0)
    sigma = sigma_measure(model, 2000)
    real = CovarianceModel.variational

    def misplaced(self, x, sigma):
        theta_x, end, objective = real(self, x, sigma)
        return 0.3 * theta_x, end, objective

    assert rate_variational(model, 6.0, sigma) > 0.0
    monkeypatch.setattr(CovarianceModel, "variational", misplaced)
    with pytest.raises(SolverError, match=r"theta=\d[^ ]* exceeding") as info:
        rate_variational(model, 6.0, sigma)
    assert "np.float64" not in str(info.value)


# -- array/scalar parity -----------------------------------------------------------

MEASURES = {
    "atoms": SpectralMeasure.from_atoms([-0.5, 1.0, 2.0], [0.2, 0.3, 0.5]),
    "semicircle": SpectralMeasure.semicircle(1.0, 2.0),
    "uniform": SpectralMeasure.uniform(-1.0, 2.0),
    "table": SpectralMeasure.from_density(lambda u: 1.5 * np.sqrt(u), (0.0, 1.0),
                                          edge_finite_g=True),
    "atom-and-semicircle": SpectralMeasure(
        [3.0], [0.25], [SpectralMeasure.semicircle(0.0, 1.0).components[0].scaled(1.0, 0.75)]),
}


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_log_moment_array_equals_scalar_calls(name):
    mu = MEASURES[name]
    r = mu.right_edge
    zs = r + np.array([[0.0, 1e-9, 0.3], [1.0, 7.5, 250.0]])
    if mu.atom_mass(r) > 0.0:
        zs = zs[:, 1:]  # the log moment diverges at an atom
    got = mu.log_moment(zs)
    assert got.shape == zs.shape
    want = np.array([[mu.log_moment(float(z)) for z in row] for row in zs])
    assert np.array_equal(got, want)
    assert type(mu.log_moment(float(zs[0, 0]))) is float
    assert type(mu.log_moment(int(r) + 3)) is float


def _sigma_with_lambdas():
    """The 2000-node sigma grid of wishart1, with one lambda past the reach
    of its Gauss rule and one inside it."""
    sigma = sigma_measure(CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0), 2000)
    table = sigma.components[0]
    reach = table.b + measures._RULE_REACH * 0.5 * (table.b - table.a)
    return {"sigma-past-the-rule-reach": (sigma, reach + 0.3),
            "sigma-inside-the-rule-reach": (sigma, 0.5 * (table.b + reach))}


# each measure at 0.5 past its right edge, and the sigma grid on both sides
# of its rule's reach
J_CASES = {**{name: (mu, mu.right_edge + 0.5) for name, mu in MEASURES.items()},
           **_sigma_with_lambdas()}


@pytest.mark.parametrize("name", sorted(J_CASES))
def test_j_fn_array_equals_scalar_calls(name):
    """Array and scalar calls give the same bits, on the rule past its reach
    and on the nodes elsewhere (a table of fewer than 8K nodes has no rule)."""
    mu, lam = J_CASES[name]
    assert (mu.read_from(lam) is mu) == (name != "sigma-past-the-rule-reach")
    thetas = np.array([0.0, 1e-3, 0.2, 1.0, 4.0, 40.0])
    got = j_fn(mu, thetas, lam)
    assert got.shape == thetas.shape
    assert np.array_equal(got, [j_fn(mu, float(t), lam) for t in thetas])
    assert got[0] == 0.0 and j_fn(mu, 0.0, lam) == 0.0
    assert type(j_fn(mu, 0.2, lam)) is float
    assert type(j_fn(mu, 0.0, lam)) is float
    with pytest.raises(ValueError):
        j_fn(mu, -0.1, lam)
    with pytest.raises(ValueError):
        j_fn(mu, np.array([0.1, -0.1]), lam)


@pytest.mark.parametrize("k", [-20, -45, -60])
@pytest.mark.parametrize("name", sorted(J_CASES))
def test_j_is_invariant_under_scaling(name, k):
    """J(c mu, theta/c, c lambda) = J(mu, theta, lambda), c = 2^k: the
    inverse Stieltjes solve stops at 1e-14 of mu's scale, and the log moment
    and log(2 theta) carry log c once each. An absolute 1e-14 stopped the
    solve far from the root of a small mu: 1.5e-2 off at c = 2^-60."""
    mu, lam = J_CASES[name]
    c = 2.0**k
    thetas = np.array([1e-3, 0.2, 1.0, 4.0, 40.0])
    want = j_fn(mu, thetas, lam)
    got = j_fn(mu.scaled(c), thetas / c, c * lam)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("atoms", [([1.0], [1.0]), ([-1.0, 2.0], [0.4, 0.6])])
def test_f_fn_array_equals_scalar_calls(atoms):
    model = CovarianceModel(SpectralMeasure.from_atoms(*atoms), 2.0)
    thetas = np.array([0.0, 1e-6, 0.3, 0.9])
    got = f_fn(model, thetas)
    assert got.shape == thetas.shape
    assert np.array_equal(got, [f_fn(model, float(t)) for t in thetas])
    assert got[0] == 0.0 and f_fn(model, 0.0) == 0.0
    assert type(f_fn(model, 0.3)) is float
    assert type(f_fn(model, 0.0)) is float
    with pytest.raises(ValueError):
        f_fn(model, -0.1)
    with pytest.raises(ValueError):
        f_fn(model, np.array([0.3, -0.1]))
    with pytest.raises(ValueError):
        f_fn(model, np.array([0.3, model.edge.theta_max]))


# -- the inverse Stieltjes solve -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_inverse_stieltjes_array_solves_every_target(name):
    mu = MEASURES[name]
    finite = mu.edge_stieltjes_finite()
    g_top = mu.stieltjes(mu.right_edge if finite else mu.past_right_snap())
    targets = np.geomspace(1e-3, 0.99 * min(g_top, 1e3), 9)
    roots = _inverse_stieltjes(mu, targets)
    assert roots.shape == targets.shape
    assert np.all(roots >= mu.right_edge)
    want = np.array([scalar_inverse_stieltjes(mu, t) for t in targets])
    assert np.all(np.abs(roots - want) <= 2e-14 + 8.0 * np.finfo(float).eps * np.abs(want))
    assert np.array_equal(roots, [_inverse_stieltjes(mu, float(t)) for t in targets])
    assert type(_inverse_stieltjes(mu, 0.5)) is float


@pytest.mark.parametrize("mu", [SpectralMeasure.uniform(-1.0, 1.0),
                                SpectralMeasure.from_atoms([0.0, 1.0], [0.5, 0.5]),
                                SpectralMeasure.uniform(3.0, 5.0)])
def test_divergent_edge_rule(mu):
    """Where G diverges at the edge, the solve starts at the first point past
    the snap window of stieltjes, and a target G cannot reach before that
    point gets the point itself as its root."""
    r, past = mu.right_edge, mu.past_right_snap()
    assert past > r
    assert mu.stieltjes(math.nextafter(past, -math.inf)) == math.inf
    g_past = mu.stieltjes(past)
    assert math.isfinite(g_past)
    unreachable = np.array([g_past * 1.5, g_past + 10.0])
    assert np.array_equal(_inverse_stieltjes(mu, unreachable), [past, past])
    assert _inverse_stieltjes(mu, float(unreachable[1])) == past
    # a target G reaches lies beyond the point, where the bracket search of
    # the scalar oracle finds it too
    reachable = min(0.9 * g_past, 1e3)
    root = _inverse_stieltjes(mu, reachable)
    assert root > past
    assert abs(root - scalar_inverse_stieltjes(mu, reachable)) <= 2e-14 + 8e-16 * abs(root)
    # the rule feeds J: for a large theta the shift sits at the point
    theta = float(unreachable[1])
    assert j_fn(mu, theta, r) == pytest.approx(
        theta * (past - 0.5 / theta) - 0.5 * (math.log(2.0 * theta) + mu.log_moment(past)),
        abs=1e-12 * theta)


# -- the vectorized solve against a scalar brentq oracle -----------------------------
#
# Every root is checked against brentq on the solve's own bracket, to 1e-12
# relative to max(1, |root|), and the solve must take at most _STEP_CAP array
# evaluations of (G, G') (the most seen on these measures is 14, on the
# uniform edge).

_STEP_CAP = 16


def solve_counting_steps(mu, targets, lower=-math.inf):
    """_inverse_stieltjes on mu, with the number of its array evaluations of
    (G, G'): each trial evaluates both through stieltjes_pair, and an array
    evaluation of either transform alone counts as one as well."""
    steps = 0

    def counting(name):
        plain = getattr(mu, name)

        def counted(z):
            nonlocal steps
            steps += np.ndim(z) > 0
            return plain(z)

        return counted

    names = ("stieltjes", "stieltjes_prime", "stieltjes_pair")
    for name in names:
        setattr(mu, name, counting(name))
    try:
        return _inverse_stieltjes(mu, targets, lower), steps
    finally:
        for name in names:
            delattr(mu, name)


def lower_end(mu, lower=-math.inf):
    """The lower end of the solve's bracket, as its docstring gives it."""
    lo = max(lower, mu.right_edge)
    if mu.edge_stieltjes_finite() is not True:
        lo = max(lo, mu.past_right_snap())
    return lo


def brentq_oracle(mu, targets, lower=-math.inf):
    lo = lower_end(mu, lower)
    g_lo = mu.stieltjes(lo)
    return np.array([lo if g_lo <= t else
                     brentq(lambda lam: mu.stieltjes(lam) - t, lo, mu.right_edge + 2.0 / t,
                            xtol=1e-14, rtol=8.9e-16, maxiter=300)
                     for t in targets])


def check_against_oracle(mu, targets, lower=-math.inf):
    roots, steps = solve_counting_steps(mu, targets, lower)
    want = brentq_oracle(mu, targets, lower)
    assert np.all(np.abs(roots - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    # every call solves some target, so a count of 0 would count nothing
    assert 1 <= steps <= _STEP_CAP
    return roots


def targets_below(mu, lo, count=25):
    """Targets from 1e-3 to just below G at the lower end lo."""
    return np.geomspace(1e-3, (1.0 - 1e-6) * min(mu.stieltjes(lo), 1e3), count)


@given(mu=atomic_measures, shift=st.sampled_from([0.0, 1e-6, 0.3]))
def test_inverse_stieltjes_on_random_atomic_measures(mu, shift):
    lower = mu.right_edge + shift
    lo = lower_end(mu, lower)
    check_against_oracle(mu, np.append(targets_below(mu, lo), 2.0 * mu.stieltjes(lo)), lower)


@pytest.mark.parametrize("name", ["wishart1", "dw-uniform"])
def test_inverse_stieltjes_on_a_2000_node_grid_sigma(name):
    """The grid measures J is evaluated on, from the edge and from the
    evaluation points of the variational scan."""
    build, xs = MODELS[name]
    model = build()
    sigma = sigma_measure(model, 2000)
    for lower in (-math.inf, *xs):
        check_against_oracle(sigma, targets_below(sigma, lower_end(sigma, lower)), lower)


def test_inverse_stieltjes_on_the_uniform_edge():
    """The log-divergent edge of dw-uniform's deformation: targets up to G at
    the first point past the snap window, and the scan's targets 20.6 and
    24.9, which G does not reach there."""
    mu = SpectralMeasure.uniform(-1.0, 1.0)
    past = mu.past_right_snap()
    targets = np.append(targets_below(mu, past, 40), [20.6, 24.9])
    roots = check_against_oracle(mu, targets)
    assert np.array_equal(roots[-2:], [past, past])


@pytest.mark.parametrize("broken", ["array", "scalar", "prime"])
def test_a_nan_transform_raises_instead_of_returning(broken):
    """G NaN at the lower end (``scalar``), or G or G' NaN at every trial
    point, which the solve evaluates as one (G, G') pair."""
    mu = SpectralMeasure.from_atoms([-0.5, 1.0, 2.0], [0.2, 0.3, 0.5])
    if broken == "scalar":
        mu.stieltjes = lambda z: math.nan
    else:
        plain = mu.stieltjes_pair
        half = 1 if broken == "prime" else 0

        def nan_half(z):
            pair = list(plain(z))
            pair[half] = np.full(np.shape(z), np.nan)
            return tuple(pair)

        mu.stieltjes_pair = nan_half
    with pytest.raises(SolverError, match="NaN"):
        _inverse_stieltjes(mu, np.array([0.1, 1.0, 10.0]))


# -- J at the edge's snap window ------------------------------------------------------


def test_j_reads_a_lambda_in_the_snap_window_below_the_edge_as_the_edge():
    """j_fn admits lambda down to r - 1e-12 of mu's scale and reads it as r;
    below that it refuses lambda."""
    mu = SpectralMeasure.uniform(0.0, 1.0)
    assert j_fn(mu, 0.5, 1.0 - 1e-13) == j_fn(mu, 0.5, 1.0)
    with pytest.raises(ValueError, match="below the right edge"):
        j_fn(mu, 0.5, 1.0 - 2e-12)


@pytest.mark.parametrize("name", ["wishart1", "dw-point"])
def test_the_variational_rate_reads_x_in_the_snap_window_below_r_as_r(name):
    """Where rate snaps x just below r(sigma) to r and gives 0, the
    variational form gives its value at r."""
    model = MODELS[name][0]()
    edge = model.edge
    r = edge.r_sigma
    x = r - 1e-13 * max(1.0, abs(r))
    assert rate(model, x) == 0.0
    assert rate_variational(model, x) == rate_variational(model, r)


# -- the shared Newton kernel against the former loop ----------------------------------
#
# The inverse Stieltjes solve's own Newton loop on 1/G - 1/t, which the
# shared kernel on x = -1/G replaced: the reference for the kernel's roots.


def former_inverse_stieltjes(mu, target, lower=-math.inf):
    t = np.asarray(target, dtype=float)
    r = mu.right_edge
    # an int lower end would make the iterates below ints
    lo = _evaluable_floor(mu, max(float(lower), r))
    g_lo = mu.stieltjes(lo)
    if math.isnan(g_lo):
        raise SolverError(f"inverse Stieltjes transform: G is NaN at the lower end {lo!r}")
    roots = np.full(t.shape, lo)
    solve = g_lo > t
    if solve.any():
        ts = t[solve]
        hi = r + 2.0 / ts
        lam = np.full(ts.shape, lo)  # left of every root: G(lam) > t
        g = np.full(ts.shape, g_lo)
        # a finite edge of infinite slope (a square-root edge) has G' = -inf
        # there; the first step is then 0 and the tolerance step moves on
        gp = np.full(ts.shape, mu.stieltjes_prime(lo))
        found = np.empty(ts.shape)
        live = np.arange(ts.size)
        for _ in range(_NEWTON_STEPS):
            x, tl, gl = lam[live], ts[live], g[live]
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = np.minimum(x + gl / gp[live] * (1.0 - gl / tl), hi[live])
            trial = np.maximum(newton, x + _NEWTON_XTOL * mu._scale + _NEWTON_RTOL * np.abs(x))
            g_trial, gp_trial = mu.stieltjes_pair(trial)
            if np.isnan(g_trial).any():
                i = int(np.argmax(np.isnan(g_trial)))
                raise SolverError(f"inverse Stieltjes transform: G is NaN at {float(trial[i])!r} "
                                  f"for target {float(tl[i])!r}")
            bracketed = g_trial <= tl
            found[live[bracketed]] = newton[bracketed]
            left = ~bracketed
            live = live[left]
            if not live.size:
                break
            lam[live], g[live], gp[live] = trial[left], g_trial[left], gp_trial[left]
        else:
            i = live[0]
            raise SolverError(f"inverse Stieltjes transform did not converge in {_NEWTON_STEPS} "
                              f"steps for target {float(ts[i])!r} in [{lo!r}, {float(hi[i])!r}]; "
                              f"last iterate {float(lam[i])!r}")
        roots[solve] = found
    return float(roots) if roots.ndim == 0 else roots


def check_against_former(mu, lower=-math.inf):
    """At 1, 2, 20 and 2000 targets below G at the lower end, every root
    lies within the solve's tolerance, 1e-14 of mu's scale + 4 eps |lam|,
    of the former loop's root; both take the tolerance in mu's scale."""
    lo = lower_end(mu, lower)
    for count in (1, 2, 20, 2000):
        targets = targets_below(mu, lo, count)
        got = _inverse_stieltjes(mu, targets, lower)
        want = former_inverse_stieltjes(mu, targets, lower)
        xtol = _NEWTON_XTOL * mu._scale
        assert np.all(np.abs(got - want) <= xtol + _NEWTON_RTOL * np.abs(want)), count


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_the_kernel_matches_the_former_loop_on_closed_forms_atoms_and_tables(name):
    check_against_former(MEASURES[name])


@given(mu=atomic_measures, shift=st.sampled_from([0.0, 1e-6, 0.3]))
def test_the_kernel_matches_the_former_loop_on_random_atomic_measures(mu, shift):
    check_against_former(mu, mu.right_edge + shift)


@pytest.mark.parametrize("name", ["wishart1", "dw-uniform"])
def test_the_kernel_matches_the_former_loop_on_a_2000_node_grid_sigma(name):
    build, xs = MODELS[name]
    model = build()
    sigma = sigma_measure(model, 2000)
    for lower in (-math.inf, *xs):
        check_against_former(sigma, lower)
