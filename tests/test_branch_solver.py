"""The edge and the batched branch solve of both model kinds.

Each kind poses its two branches as the two roots of a convex curve x(lam)
= x in the spectral variable lam (``model.level``): lam = alpha/y for
covariance models, lam = K(y) for deformed Wigner ones; its edge r(sigma) is
the curve's minimum. The roots and the minimiser are checked against
50-digit ones of the rational x(lam) of atomic models, the edges, branch
values and rates against the former scalar brentq solves kept here as the
reference, and one-point calls against the rows of a rate table, bit for
bit.
"""

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from rmtldp.cli import model_from_json
from rmtldp.dyson import (
    CovarianceModel,
    SolverError,
    _level_roots,
    detect_degenerate,
    g_bar_sigma,
    g_sigma,
)
from rmtldp.measures import SpectralMeasure
from rmtldp.rate import rate, rate_table
from rmtldp.wigner import DeformedWignerModel, dw_branches

from test_density_oracle import atomic_measures  # the random models of the density tests

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"
EPS = np.finfo(float).eps

# the x ranges of the benchmark's rate tables, which start at r(sigma)
XMAX = {
    "wishart1": 8.0, "wishart1-complex": 8.0, "wishart1-rademacher": 8.0,
    "wishart1-uniform": 8.0, "semicircle-rho": 25.0, "two-atom": 12.0,
    "neg-wishart": -0.005, "uniform-rho": 6.0, "table-rho": 12.0,
    "dw-point": 5.0, "dw-two-atom": 5.0, "dw-uniform": 5.0,
}


def load(name):
    return model_from_json(json.loads((MODELS / f"{name}.json").read_text()))


def test_every_benchmark_model_has_a_rate_table_range():
    names = {p.stem for p in MODELS.glob("*.json")}
    assert names == set(XMAX) | {"degenerate"}
    assert load("degenerate").edge.degenerate


# -- roots against 50-digit roots -------------------------------------------------


def exact_curve(model, slope=False):
    """x(lam) of an atomic model in mpmath arithmetic, a rational function,
    or x'(lam) with ``slope``: the curve the model solves on, of the reduced
    pair (tau, alpha') for a covariance model."""
    if isinstance(model, CovarianceModel):
        return covariance_curve(*model.reduced, slope)
    g, gp = exact_transforms(model.mu_d)
    return (lambda lam: 1 + gp(lam)) if slope else (lambda lam: lam + g(lam))


def exact_transforms(mu):
    """G_mu and G_mu' of an atomic mu in mpmath arithmetic."""
    atoms = [(mpmath.mpf(p), mpmath.mpf(u)) for u, p in zip(mu.atom_locations, mu.atom_weights)]
    return (lambda lam: mpmath.fsum(p / (lam - u) for p, u in atoms),
            lambda lam: -mpmath.fsum(p / (lam - u) ** 2 for p, u in atoms))


def covariance_curve(mu, alpha, slope=False):
    """x(lam) = (1 - alpha) lam/alpha + lam^2 G_mu(lam) of an atomic mu in
    mpmath arithmetic, or x'(lam) with ``slope``: the curve of (mu, alpha),
    rho and alpha of a covariance model or its reduced pair."""
    g, gp = exact_transforms(mu)
    a = mpmath.mpf(alpha)
    if slope:
        return lambda lam: (1 - a) / a + lam * (2 * g(lam) + lam * gp(lam))
    return lambda lam: (1 - a) * lam / a + lam * lam * g(lam)


# below this distance from an atom, G' = -sum p/(lam - u)^2 overflows
G_PRIME_OVERFLOW = sys.float_info.max ** -0.5


def in_snap_family(model):
    """Whether the model is of the one family the edge solve fails on (the
    strict xfails of test_dyson.py): lam_c lies within the 1e-15 snap window
    of the measure's scale above r(mu), mu the curve's measure, as it does
    for a top atom inside that window, or where G' of an atom at r(mu)
    leaves the double range. Decided on the 50-digit slope of the curve
    alone, which increases on the curve's domain (max(r, 0), inf) for
    covariance models, (r, inf) for deformed Wigner: lam_c lies below a
    point t of it where x'(t) >= 0."""
    mu = model.curve().measure
    r = mu.right_edge
    reach = max(1e-15 * max(abs(mu.left_edge), abs(r)), G_PRIME_OVERFLOW)
    low = max(r, 0.0) if isinstance(model, CovarianceModel) else r
    with mpmath.workdps(50):
        t = mpmath.mpf(r) + mpmath.mpf(reach)
        return low < t and exact_curve(model, slope=True)(t) >= 0


def solvable_edge(model):
    """The model's edge, where the model is not of the edge solve's failure
    family; such an example is dropped by a test of the model alone, so the
    examples drawn do not move with the edge code."""
    assume(not in_snap_family(model))
    return model.edge


@pytest.mark.parametrize("atoms,alpha,family", [
    ([3.3e-167], 2.64, True),
    ([5e-155], 2.64, False),
    ([-1.0, 0.0], 2.0 + 1e-15, False),
    ([-1.0, 0.0], 2.0 + 3e-15, False),
    ([-1.0, 0.0], 2.0 + 1e-14, False),
    ([1.5067585918145452e-22, -1.0], 1.0, True),
    ([1e-14, -1.0], 1.0, False),
])
def test_the_snap_family_is_where_the_edge_solve_raises(atoms, alpha, family):
    """The strict xfails of test_dyson.py that raise SolverError are in the
    family, and their neighbours that solve are not. The zero atom at
    r(rho) = 0 is folded out of the curve (the model's reduced pair), so
    alpha just above the degenerate threshold solves."""
    weights = np.full(len(atoms), 1.0 / len(atoms))
    model = CovarianceModel(SpectralMeasure.from_atoms(atoms, weights), alpha)
    assert in_snap_family(model) == family
    if family:
        with pytest.raises(SolverError):
            model.edge
    else:
        model.edge


def check_roots_against_mpmath(model):
    """Both roots at 1%, 30% and 400% of max(1, |r(sigma)|) past the edge lie
    within the solve's tolerance 1e-14 + 4 eps |lam| of the 50-digit root
    next to them (the secant method from two points 1e-20 |lam| apart). A left
    root below the floor, where the exact x still lies below the target,
    is out of reach inside the snap window of the edge transforms, and
    raises instead."""
    edge = solvable_edge(model)
    level = model.level
    xs = edge.r_sigma + max(1.0, abs(edge.r_sigma)) * np.array([0.01, 0.3, 4.0])
    left = xs[xs < min(edge.x_end, level.x_cap)]
    curve = exact_curve(model)
    with mpmath.workdps(50):
        reachable = np.array([curve(mpmath.mpf(level.curve.floor)) > x for x in left], dtype=bool)
        for x in left[~reachable]:
            with pytest.raises(SolverError, match=re.escape(f"x={float(x)!r}")):
                _level_roots(level, xs[:0], np.array([x]))
        left = left[reachable]
        roots = _level_roots(level, xs, left)
        for x, lam in zip(np.concatenate((xs, left)), roots):
            exact = secant_root(lambda v: curve(v) - mpmath.mpf(x), lam)
            assert abs(float(exact - mpmath.mpf(lam))) <= 1e-14 + 4.0 * EPS * abs(lam), (x, lam)


@pytest.mark.slow
@settings(max_examples=300)
@given(mu=atomic_measures, alpha=st.floats(0.3, 3.0))
# in these two the rounding of the float curve alone puts the right root 1%
# past the edge, where x' is 0.12, 2.1e-14 and 1.9e-14 off, against
# tolerances of 1.8e-14 and 1.7e-14; the level's double-double residual
# brings it within
@example(mu=SpectralMeasure.point_mass(3.0), alpha=2.7740356765882197)
@example(mu=SpectralMeasure.from_atoms([-0.5732896913859555, 2.949077904886293],
                                       [0.22951676425214596 / 0.7412647878191481,
                                        0.5117480235670021 / 0.7412647878191481]),
         alpha=2.7740356765882197)
def test_roots_match_50_digit_roots_on_random_atomic_models(mu, alpha):
    """Atoms of both signs, r(rho) <= 0, an atom at r(rho) and at 0; both
    model kinds on every measure."""
    model = CovarianceModel(mu, alpha)
    if not detect_degenerate(model):
        check_roots_against_mpmath(model)
    check_roots_against_mpmath(DeformedWignerModel(mu))


# -- the former scalar solves as the reference --------------------------------------

KW = dict(xtol=1e-14, rtol=8.9e-16, maxiter=300)


def _h_at(model, theta):
    """The former H(theta) = 1/theta - alpha/theta + (alpha/theta)^2
    G_rho(alpha/theta), in the same expression, so the same bits."""
    a = model.alpha
    g = model.rho.stieltjes(a / theta)
    return 1.0 / theta - a / theta + (a * a) / (theta * theta) * g


def _f_at(model, theta):
    """The former f(theta) = theta^2 H'(theta) = -1 + alpha (z^2 (-G_rho'(z))
    - 2 z G_rho(z) + 1) at z = alpha/theta, in the same expression."""
    a = model.alpha
    z = a / theta
    g, gp = model.rho.stieltjes(z), model.rho.stieltjes_prime(z)
    return -1.0 + a * (z * z * (-gp) - 2.0 * z * g + 1.0)


def _probes_toward(end):
    """end * (1 - 2^-k) for k = 2, ..., 40: the former probes approaching
    theta_max, which stop 2^-40 short of it."""
    return [end * (1.0 - 2.0**-k) for k in range(2, 41)]


def _bracket_increasing_root(fn, lo, flo, probes):
    """The former bracket of the root of an increasing fn, given fn(lo) =
    flo < 0, from the first probe where fn > 0, halved toward lo until fn
    is finite there."""
    for hi in probes:
        fhi = fn(hi)
        if fhi > 0.0:
            for _ in range(200):
                if math.isfinite(fhi):
                    return lo, hi
                hi = 0.5 * (lo + hi)
                fhi = fn(hi)
                if fhi <= 0.0:
                    lo, fhi = hi, math.inf
            raise RuntimeError("no finite positive bracket end")
        lo = hi
    raise RuntimeError("bracketing failed")


def reference_edge(model):
    """r(sigma) by the former edge solves: brentq on f(theta) = theta^2
    H'(theta) in theta (covariance), from a shrinking lower end and the
    probes toward theta_max or theta = 2^k, or on -G'(lam) - 1 in lam
    (deformed Wigner), bracketed by halving and doubling from r(mu_d). An
    overflow in them (G_rho of rho = delta(1e-300) at alpha/theta) is their
    failure, a RuntimeError."""
    try:
        with np.errstate(over="raise"):
            return _former_edge_solves(model)
    except FloatingPointError as exc:
        raise RuntimeError(f"the former edge solves overflowed: {exc}") from exc


def _former_edge_solves(model):
    if isinstance(model, DeformedWignerModel):
        mu = model.mu_d
        r = mu.right_edge
        g_edge = mu.stieltjes(r)
        phi = lambda lam: -mu.stieltjes_prime(lam) - 1.0
        delta = max(1.0, abs(r), r - mu.left_edge)
        for _ in range(200):
            if phi(r + delta) > 0.0:
                break
            delta *= 0.5
        else:
            if math.isinf(g_edge):
                raise RuntimeError("no interior minimum, yet G diverges at the edge")
            return g_edge + r
        lo = hi = r + delta
        for _ in range(200):
            hi = r + (hi - r) * 2.0
            if phi(hi) < 0.0:
                break
        else:
            raise RuntimeError("bracketing failed on the flat side")
        lam_c = optimize.brentq(phi, lo, hi, **KW)
        return mu.stieltjes(lam_c) + lam_c
    rho = model.rho
    r = rho.right_edge
    tmax = model.alpha / r if r > 0.0 else math.inf
    f = lambda t: _f_at(model, t)
    lo = min(1.0, tmax) * 1e-9
    flo = f(lo)
    while flo >= 0.0:
        lo *= 1e-3
        if lo < 1e-280:
            raise RuntimeError("f has no negative values near zero")
        flo = f(lo)
    if math.isfinite(tmax):
        probes = _probes_toward(tmax)
        if math.isfinite(rho.stieltjes(r)):
            if f(probes[-1]) <= 0.0:
                return model.curve()(r)[0]  # x_c
        else:
            z_min = model.rho.past_right_snap()
            probes = [t for t in probes if model.alpha / t >= z_min]
    else:
        probes = [2.0**k for k in range(0, 60)]
    lo, hi = _bracket_increasing_root(f, lo, flo, probes)
    return _h_at(model, optimize.brentq(f, lo, hi, **KW))


@pytest.mark.parametrize("name", sorted(XMAX))
def test_benchmark_edges_equal_the_former_solves_bit_for_bit(name):
    model = load(name)
    assert model.edge.r_sigma == reference_edge(model)


def _thin_tail(support_end):
    """A table on [0, b] whose density 5 (1 - u/b)^4 / b holds its mass near
    0: G and G' are finite at b, and |G'(b)| is small."""
    b = support_end
    return SpectralMeasure.from_density(lambda u: 5.0 / b * (1.0 - u / b) ** 4, (0.0, b), 64,
                                        edge_finite_g=True)


@pytest.mark.parametrize("model", [
    CovarianceModel(_thin_tail(1.0), 0.5), CovarianceModel(_thin_tail(1.0), 2.0),
    CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), 1e-10),
    DeformedWignerModel(_thin_tail(3.0)),
], ids=["covariance-0.5", "covariance-2", "covariance-semicircle-1e-10", "deformed-wigner"])
def test_an_edge_at_the_cap(model):
    """x' > 0 down to the floor lam = r(rho) with x_c finite: the minimum of
    H is at the cap, theta_c = theta_max and r(sigma) = x_c (covariance),
    y_c = G(r(mu_d)) and r_edge = x_c (deformed Wigner), as the former
    solves found; past the edge the second branch is capped. The semicircle's
    G' is -inf at r(rho), so x' is too, and with alpha = 1e-10 lam_c lies
    about 2e-18 above it, within one float: the bracket halves down to the
    floor and the next float, and the floor is the edge."""
    edge = model.edge
    assert edge.r_sigma == reference_edge(model)
    if isinstance(model, CovarianceModel):
        assert (edge.theta_c, edge.r_sigma) == (edge.theta_max, edge.x_c)
    else:
        assert (edge.y_c, edge.r_edge) == (edge.g_edge_mu_d, edge.x_c_dw)
    level = model.level
    xs = edge.r_sigma + np.array([0.5, 2.0])
    assert np.all(xs >= level.x_cap)
    assert np.array_equal(model.branches(xs)[1], level.cap(xs))


@settings(max_examples=300)
@given(mu=atomic_measures, alpha=st.floats(0.3, 3.0))
# the covariance edge raises SolverError here, and the former solves overflow
@example(mu=SpectralMeasure.point_mass(1e-300), alpha=1.0)
def test_random_atomic_edges_match_the_former_solves(mu, alpha):
    """r(sigma) within 1e-14 max(1, |r|) of the former solves. Where the
    edge solve raises, the former solves failed too; where they failed (a
    top atom near the snap window, a G' that overflows at their probes),
    the 50-digit minimiser checks the edge."""
    for model in (CovarianceModel(mu, alpha), DeformedWignerModel(mu)):
        if isinstance(model, CovarianceModel) and detect_degenerate(model):
            continue
        try:
            r = model.edge.r_sigma
        except SolverError:
            with pytest.raises((RuntimeError, ValueError)):
                reference_edge(model)
            continue
        try:
            ref = reference_edge(model)
        except (RuntimeError, ValueError):
            continue
        assert abs(r - ref) <= 1e-14 * max(1.0, abs(ref)), (r, ref)


@settings(max_examples=300)
@given(mu=atomic_measures, alpha=st.floats(0.3, 3.0))
def test_edge_minimiser_matches_the_50_digit_minimiser(mu, alpha):
    """The level's lam_c lies within 1e-13 max(|lam_c|, lam_c - floor) of
    the 50-digit root of x' next to it (the secant method from two points
    1e-20 |lam| apart), and r(sigma) within 1e-15 max(1, |r|) of the exact
    minimum there. Over 5530 models the largest gaps were 2.9e-14 and
    6.7e-16."""
    for model in (CovarianceModel(mu, alpha), DeformedWignerModel(mu)):
        if isinstance(model, CovarianceModel) and detect_degenerate(model):
            continue
        check_edge_minimiser(model, solvable_edge(model))


def test_edge_minimiser_next_to_a_zero_atom():
    """rho = 0.555 delta_0 + 0.445 delta_-1 at alpha = 2.25, as the
    strategy draws it: the example Hypothesis falls on once the literals of
    the package include 1e-10. On rho's own curve, whose pole at 0 is
    removable, lam_c = 4.3e-4 lay 1.3e-16 off the 50-digit root, 3 times
    the tolerance; the curve of the reduced pair has no pole there."""
    pairs = [(0.0, 0.75), (0.0, 0.498046875), (-1.0, 0.890625), (-1.0, 0.109375)]
    total = sum(p for _, p in pairs)
    mu = SpectralMeasure.from_atoms([u for u, _ in pairs], np.array([p for _, p in pairs]) / total)
    model = CovarianceModel(mu, 2.25)
    if in_snap_family(model):
        pytest.fail("the model lies in the edge solve's failure family")
    check_edge_minimiser(model, model.edge)


def secant_root(f, start):
    """The root of f next to the float ``start`` in mpmath arithmetic: the
    secant method from two points 1e-20 |start| apart, stopped at 1e-40.
    Past that, from a start within 1e-35 of the root, the secant divides
    rounding by rounding; at alpha = 1 it can land on the root x'(0) = 0 of
    a covariance curve and pass findroot's check there."""
    start = mpmath.mpf(start)
    return mpmath.findroot(f, (start, start * (1 + mpmath.mpf(10) ** -20)),
                           tol=mpmath.mpf(10) ** -40)


def check_edge_minimiser(model, edge):
    level = model.level
    lam = level.lam_c
    with mpmath.workdps(50):
        exact = secant_root(exact_curve(model, slope=True), lam)
        r_exact = float(exact_curve(model)(exact))
    gap = float(abs(exact - mpmath.mpf(lam)))
    assert gap <= 1e-13 * max(abs(lam), lam - level.curve.floor), lam
    assert abs(edge.r_sigma - r_exact) <= 1e-15 * max(1.0, abs(r_exact)), edge.r_sigma


@given(others=st.lists(st.tuples(st.floats(0.05, 3.0), st.booleans(), st.floats(0.1, 1.0)),
                       min_size=1, max_size=3),
       w0=st.floats(0.1, 0.9), side=st.floats(0.5, 2.0))
# degenerate, and just above the threshold (tests/test_dyson.py)
@example(others=[(1.0, True, 1.0)], w0=0.5, side=0.8)
@example(others=[(1.0, True, 1.0)], w0=0.5, side=1.0 + 1e-15)
def test_the_zero_atom_reduction_on_random_atomic_models(others, w0, side):
    """rho = w0 delta_0 plus one to three atoms of both signs, |u| in [0.05,
    3] (an atom within the snap window of 0 is the tiny-atom family of
    ROADMAP item 1), at alpha = side/(1 - w0), side in [0.5, 2], on both
    sides of the degenerate threshold alpha (1 - w0) = 1.

    The model of rho and the model of its reduced pair (tau, alpha') give
    the same degeneracy, edge, branches and rate, bit for bit, and the zero
    atom of the window is max(0, 1 - alpha (1 - w0)) exactly. Against the
    50-digit curve of rho itself, x(lam) = (1 - alpha) lam/alpha + lam^2
    G_rho(lam) in lam = alpha/y, with its removable pole at 0: theta_c within
    1e-13 relative, r(sigma) within 2e-15 max(1, |r|), both branches at 1%,
    30% and 400% of max(1, |r(sigma)|) past the edge within 1e-14 relative,
    and the rate there, (beta/2) [x (Gbar - G) - (Phi(Gbar) - Phi(G))] with
    Phi(t) = (1 - alpha) log t - alpha L_rho(alpha/t), within 1e-14 max(1,
    I). Over 4000 draws of a scratch probe the largest gaps were 2.9e-14,
    5.3e-16, 1.3e-15 and 8.6e-16."""
    weights = np.array([p for *_, p in others])
    rho = SpectralMeasure.from_atoms([0.0] + [-u if neg else u for u, neg, _ in others],
                                     np.append(w0, (1.0 - w0) * weights / weights.sum()))
    w0 = float(rho.atom_weights[rho.atom_locations == 0.0].sum())
    alpha = side / (1.0 - w0)
    model = CovarianceModel(rho, alpha)
    reduced = CovarianceModel(*model.reduced)
    degenerate = rho.right_edge <= 0.0 and alpha * (1.0 - w0) <= 1.0
    assert model.edge.degenerate == reduced.edge.degenerate == degenerate
    if degenerate:
        return
    assert model.window.zero_atom == max(0.0, 1.0 - alpha * (1.0 - w0))
    edge = model.edge
    assert edge == reduced.edge
    r = edge.r_sigma
    xs = r + max(1.0, abs(r)) * np.array([0.01, 0.3, 4.0])
    xs = xs[xs < edge.x_end]
    g, g_bar = model.branches(xs)
    rates = rate(model, xs)
    assert (g.tobytes(), g_bar.tobytes()) == tuple(b.tobytes() for b in reduced.branches(xs))
    assert rates.tobytes() == rate(reduced, xs).tobytes()
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        curve = covariance_curve(rho, alpha)
        lam_c = secant_root(covariance_curve(rho, alpha, slope=True), alpha / edge.theta_c)
        assert abs(float(a / lam_c) - edge.theta_c) <= 1e-13 * edge.theta_c
        assert abs(float(curve(lam_c)) - r) <= 2e-15 * max(1.0, abs(r))
        log_moment = lambda s: mpmath.fsum(mpmath.mpf(p) * mpmath.log(abs(s - mpmath.mpf(u)))
                                           for u, p in zip(rho.atom_locations, rho.atom_weights))
        phi = lambda t: (1 - a) * mpmath.log(t) - a * log_moment(a / t)
        for x, y, y_bar, i in zip(xs.tolist(), g.tolist(), g_bar.tolist(), rates.tolist()):
            exact_g, exact_g_bar = (a / secant_root(lambda v: curve(v) - mpmath.mpf(x), alpha / t)
                                    for t in (y, y_bar))
            assert abs(float(exact_g) - y) <= 1e-14 * y, (x, y)
            assert abs(float(exact_g_bar) - y_bar) <= 1e-14 * y_bar, (x, y_bar)
            exact_i = float(0.5 * (x * (exact_g_bar - exact_g)
                                   - (phi(exact_g_bar) - phi(exact_g))))
            assert abs(exact_i - i) <= 1e-14 * max(1.0, exact_i), (x, i)


def reference_branches(model, edge, x):
    """(G, Gbar) at x > r(sigma) by the former scalar solves: brentq on
    H(theta) - x (covariance) or lam + G(lam) - x (deformed Wigner), each
    root bracketed by its own probe loop."""
    if isinstance(model, DeformedWignerModel):
        mu = model.mu_d
        r = mu.right_edge
        psi = lambda lam: lam + mu.stieltjes(lam) - x
        lam_c = edge.r_edge - edge.y_c
        hi = max(2.0 * abs(x) + 2.0, lam_c + 1.0)
        while psi(hi) <= 0.0:
            hi *= 2.0
        g = mu.stieltjes(optimize.brentq(psi, lam_c, hi, **KW))
        if x >= edge.x_c_dw:
            return g, x - r
        delta = 0.5 * (lam_c - r)
        while psi(r + delta) <= 0.0:
            delta *= 0.5
        return g, mu.stieltjes(optimize.brentq(psi, r + delta, lam_c, **KW))
    h = lambda t: _h_at(model, t) - x
    lo = 0.5 * edge.theta_c
    while h(lo) <= 0.0:
        lo *= 0.5
    g = optimize.brentq(h, lo, edge.theta_c, **KW)
    if math.isfinite(edge.x_c) and x >= edge.x_c - 1e-12 * max(1.0, abs(edge.x_c)):
        return g, edge.theta_max
    if math.isfinite(edge.x_c):
        hi = edge.theta_max
    elif math.isfinite(edge.theta_max):
        hi = next(t for t in _probes_toward(edge.theta_max)
                  if t > edge.theta_c and math.isfinite(_h_at(model, t)) and h(t) > 0.0)
    else:
        hi = max(2.0 * edge.theta_c, (1.0 - model.alpha) / x if x < 0.0 else 1.0, 1.0)
        while h(hi) <= 0.0:
            hi *= 2.0
    return g, optimize.brentq(h, edge.theta_c, hi, **KW)


def reference_slack(model, x, y):
    """How far the reference may leave a branch value y from the exact one:
    brentq's tolerance 1e-14 + 8.9e-16 |root|, taken in theta = y for
    covariance models, and in lam = x - y, then magnified by |G_mu'(lam)|,
    for deformed Wigner ones."""
    if isinstance(model, CovarianceModel):
        return 1e-14 + 8.9e-16 * abs(y)
    lam = x - y
    return abs(model.mu_d.stieltjes_prime(lam)) * (1e-14 + 8.9e-16 * abs(lam))


def check_against_reference(model, edge, x, g, g_bar, i):
    """The stated tolerance against the former solves at one point x. At
    least 1e-2 of max(1, |r(sigma)|) past the edge, each branch value lies
    within 1e-13 relative of the reference's, beyond the reference's own
    root tolerance (closer to the edge the roots are a near-double pair,
    fixed only to about eps/|x'|); a capped value is exact. The rate agrees
    within 1e-12 max(1, I) at every point. From x(floor) on the left root
    lies inside the snap window, where the former solves cannot bracket it,
    and the second branch is taken at the floor
    (test_a_left_root_inside_the_snap_window_is_the_floor)."""
    level = model.level
    if level.x_floor <= x < level.x_cap:
        assert g_bar == level.curve.y(level.curve.floor, x), x
        with pytest.raises((RuntimeError, StopIteration)):
            reference_branches(model, edge, float(x))
        return
    ref = reference_branches(model, edge, float(x))
    ref_i = model.rate_from_branches(x, *ref)
    assert abs(i - ref_i) <= 1e-12 * max(1.0, abs(ref_i)), x
    if x - edge.r_sigma < 1e-2 * max(1.0, abs(edge.r_sigma)):
        return
    assert abs(g - ref[0]) <= 1e-13 * abs(ref[0]) + reference_slack(model, x, ref[0]), x
    capped = x >= (edge.x_c_dw if isinstance(model, DeformedWignerModel)
                   else edge.x_c - 1e-12 * max(1.0, abs(edge.x_c)))
    if capped:
        assert g_bar == ref[1], x
    else:
        assert abs(g_bar - ref[1]) <= 1e-13 * abs(ref[1]) + reference_slack(model, x, ref[1]), x


@pytest.mark.parametrize("name", sorted(XMAX))
def test_benchmark_tables_match_the_former_solves(name):
    model = load(name)
    edge = model.edge
    table = rate_table(model, XMAX[name], 20)
    for row in zip(table.x_grid[1:], table.g_values[1:], table.gbar_values[1:],
                   table.i_values[1:]):
        check_against_reference(model, edge, *row)


@pytest.mark.slow
@settings(max_examples=300)
@given(mu=atomic_measures, alpha=st.floats(0.3, 3.0))
def test_random_atomic_models_match_the_former_solves(mu, alpha):
    """Where the branch solve cannot reach a root (inside the snap window),
    the former solves could not bracket it either; the converse does not
    hold."""
    for model in (CovarianceModel(mu, alpha), DeformedWignerModel(mu)):
        if isinstance(model, CovarianceModel) and detect_degenerate(model):
            continue
        edge = solvable_edge(model)
        xs = edge.r_sigma + max(1.0, abs(edge.r_sigma)) * np.array([1e-6, 1e-2, 0.3, 4.0])
        for x in xs[xs < edge.x_end]:
            try:
                g, g_bar = model.branches(x)
            except SolverError:
                # brentq's non-convergence, or no probe that brackets
                with pytest.raises((RuntimeError, StopIteration)):
                    reference_branches(model, edge, float(x))
                continue
            try:
                check_against_reference(model, edge, x, g, g_bar, rate(model, x))
            except StopIteration:
                # the former probes stop 2^-40 short of theta_max, and so
                # miss a left root closer to r(rho); the 50-digit roots
                # check the solve there
                continue


# -- one-point calls, caps and failures ----------------------------------------------


@pytest.mark.parametrize("name", sorted(XMAX))
def test_one_point_calls_equal_the_table_rows_bit_for_bit(name):
    """A one-point call evaluates the transforms on floats, a table on
    arrays; the two paths give the same bits, and so do the solves."""
    model = load(name)
    table = rate_table(model, XMAX[name], 20)
    for x, g, g_bar, i in zip(table.x_grid, table.g_values, table.gbar_values, table.i_values):
        assert rate(model, x) == i
        assert model.branches(x) == (g, g_bar)
        if isinstance(model, CovarianceModel):
            assert (g_sigma(model, x), g_bar_sigma(model, x)) == (g, g_bar)
        else:
            assert dw_branches(model, x) == (g, g_bar)
    assert np.array_equal(rate(model, table.x_grid), table.i_values)


@given(mu=atomic_measures, alpha=st.floats(0.3, 3.0))
def test_one_point_solves_equal_the_array_solve_on_random_atomic_models(mu, alpha):
    """One or two roots are solved on floats, more on arrays; the two
    solves take the same steps and give the same bits."""
    for model in (CovarianceModel(mu, alpha), DeformedWignerModel(mu)):
        if isinstance(model, CovarianceModel) and detect_degenerate(model):
            continue
        edge = solvable_edge(model)
        xs = edge.r_sigma + max(1.0, abs(edge.r_sigma)) * np.array([1e-6, 1e-2, 0.3, 4.0])
        xs = xs[xs < edge.x_end]
        solved = []
        for x in xs:
            try:
                solved.append((x, model.branches(x)))
            except SolverError:
                continue
        if len(solved) < 3:
            continue
        g, g_bar = model.branches(np.array([x for x, _ in solved]))
        assert [pair for _, pair in solved] == list(zip(g, g_bar))


def _table_rho_model():
    # square-root edge, so the transform is finite there and x_c is finite
    dens = lambda u: 1.5 * np.sqrt(np.maximum(1.0 - np.asarray(u), 0.0))
    return CovarianceModel(SpectralMeasure.from_density(dens, (0.0, 1.0), 128,
                                                        edge_finite_g=True), 1.0)


@pytest.mark.parametrize("make", [lambda: load("semicircle-rho"), _table_rho_model],
                         ids=["semicircle-rho", "table"])
def test_second_branch_capped_from_x_c_on(make):
    """From x_c - 1e-12 max(1, x_c) on, Gbar is exactly theta_max. Below, the
    left root lies between the probes and the floor lam = r(rho), where x
    is x_c: it solves x(lam) = x, and Gbar rises to theta_max as x nears x_c
    (by 1e-9 of x_c, lam is within an ulp of r(rho))."""
    model = make()
    edge = model.edge
    level = model.level
    x_c, tmax = edge.x_c, edge.theta_max
    assert math.isfinite(x_c)
    capped = np.array([x_c - 1e-13 * max(1.0, x_c), x_c, x_c + 1.0, 2.0 * x_c])
    g, g_bar = model.branches(capped)
    assert np.all(g_bar == tmax) and np.all(g < tmax)
    assert all(g_bar_sigma(model, x) == tmax for x in capped)
    below = x_c - np.array([1e-1, 1e-2, 1e-3]) * max(1.0, x_c)
    _, g_bar = model.branches(below)
    assert np.all(g_bar < tmax) and np.all(np.diff(g_bar) > 0.0)
    x_at, _ = level.curve(model.alpha / g_bar)
    assert np.all(np.abs(x_at - below) <= 1e-12 * below)
    assert tmax - g_bar_sigma(model, x_c - 1e-9 * max(1.0, x_c)) <= 1e-9 * tmax


def exact_uniform_dw(x):
    """(G, Gbar, rate) of mu_d uniform on [-1, 1] at x to 50 digits: x(lam)
    = lam + arccoth(lam), L(lam) = ((lam + 1) log(lam + 1) - (lam - 1)
    log(lam - 1))/2 - 1. The left root 1 + e^-s is solved in s."""
    x = mpmath.mpf(x)
    right = mpmath.findroot(lambda lam: lam + mpmath.acoth(lam) - x, x)
    s = mpmath.findroot(lambda s: 1 + mpmath.exp(-s) + mpmath.log(2 + mpmath.exp(-s)) / 2
                        + s / 2 - x, 2 * (x - 1) - mpmath.log(2))
    d = mpmath.exp(-s)
    g, g_bar = x - right, x - 1 - d
    log_moment = lambda lam: ((lam + 1) * mpmath.log(lam + 1)
                              - (lam - 1) * mpmath.log(lam - 1)) / 2 - 1
    left_moment = ((2 + d) * mpmath.log(2 + d) + d * s) / 2 - 1
    return g, g_bar, ((g_bar**2 - g**2) / 2 + left_moment - log_moment(right)) / 2


def exact_uniform_rho(x):
    """(G, Gbar, rate) of rho uniform on [1/2, 3/2], alpha = 1, at x to 50
    digits: x(lam) = lam^2 log((lam - 1/2)/(lam - 3/2)), y = 1/lam, L(lam) =
    (lam - 1/2) log(lam - 1/2) - (lam - 3/2) log(lam - 3/2) - 1. The left
    root 3/2 + e^-s is solved in s."""
    x, half = mpmath.mpf(x), mpmath.mpf(0.5)
    right = mpmath.findroot(lambda lam: lam**2 * mpmath.log((lam - half) / (lam - 3 * half)) - x, x)
    s = mpmath.findroot(lambda s: (3 * half + mpmath.exp(-s))**2
                        * (mpmath.log(1 + mpmath.exp(-s)) + s) - x, x / 2.25)
    d = mpmath.exp(-s)
    g, g_bar = 1 / right, 1 / (3 * half + d)
    log_moment = lambda lam: ((lam - half) * mpmath.log(lam - half)
                              - (lam - 3 * half) * mpmath.log(lam - 3 * half) - 1)
    left_moment = (1 + d) * mpmath.log(1 + d) + d * s - 1
    return g, g_bar, (x * (g_bar - g) + left_moment - log_moment(right)) / 2


@pytest.mark.parametrize("name, x, exact", [
    ("dw-uniform", 19.0, exact_uniform_dw),
    ("dw-uniform", 30.0, exact_uniform_dw),
    ("dw-uniform", 100.0, exact_uniform_dw),
    ("uniform-rho", 80.0, exact_uniform_rho),
    ("uniform-rho", 200.0, exact_uniform_rho),
])
def test_a_left_root_inside_the_snap_window_is_the_floor(name, x, exact):
    """G diverges only logarithmically at a uniform edge: past x(floor)
    (18.56 and 76.72) the left root lies between the edge and the floor,
    inside the snap window, where no probe goes. The floor stands for it,
    on floats and arrays alike: Gbar is within floor - r(mu) of the
    50-digit value (x - lam) or (floor - r)/r relative (alpha/lam), and
    the rate within beta/2 (x - x(floor)) times that, besides the
    rounding of G and of the rate's bracket."""
    model = load(name)
    level = model.level
    assert x > level.x_floor
    r = model.diagonal_law.right_edge
    with mpmath.workdps(50):
        g, g_bar, rate_x = (float(v) for v in exact(x))
    bound = level.curve.floor - r
    if isinstance(model, CovarianceModel):
        bound *= g_bar / r
    got = model.branches(x)
    g_array, g_bar_array = model.branches(np.array([x, x + 1.0]))
    assert (g_array[0], g_bar_array[0]) == got
    assert abs(got[0] - g) <= 4.0 * EPS * g
    assert abs(got[1] - g_bar) <= bound + EPS * g_bar
    assert abs(rate(model, x) - rate_x) <= (0.5 * (x - level.x_floor) * bound + 8.0 * EPS * rate_x)


def test_a_left_root_next_to_a_tiny_top_atom_raises_naming_x():
    """Next to a top atom u = 8.5e-10 of mass p, tiny against the atom at
    -2, the left root of x = 0.1 lies about p u^2 / x = 2e-18 above u,
    inside the snap window 2e-15 of the measure's scale 2, where no probe
    can go; the rate invariants of test_rate.py met such models. Closer to
    the edge, at x = 1e-8, the root lies 2e-11 above u and solves."""
    rho = SpectralMeasure.from_atoms([-2.00001, 8.517098578306765e-10],
                                     [0.6909838401195151, 0.3090161598804849])
    model = CovarianceModel(rho, 0.3)
    message = re.escape("no probe brackets the left root of x(lam) = x at x=0.1")
    with pytest.raises(SolverError, match=message):
        rate(model, 0.1)
    assert rate(model, 1e-8) > 0.0


def test_a_nan_x_raises():
    """A NaN lies on no side of the edge; it must not fall through every
    comparison into a rate of 0."""
    model = load("wishart1")
    with pytest.raises(ValueError, match="NaN"):
        rate(model, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        model.branches(np.array([5.0, math.nan]))


def test_a_start_left_of_the_right_root_falls_back_to_doubling_probes():
    model = load("two-atom")
    edge = model.edge
    level = model.level
    xs = edge.r_sigma + np.array([0.5, 3.0, 40.0])
    want = _level_roots(level, xs, xs[:2])
    bad_start = dataclasses.replace(level, start=lambda t: np.full(t.shape, level.lam_c))
    got = _level_roots(bad_start, xs, xs[:2])
    assert np.all(np.abs(got - want) <= 2e-14 + 8.0 * EPS * np.abs(want))


def test_a_nan_curve_raises_naming_x():
    model = load("wishart1")
    level = model.level
    nan_point = lambda lam, g, gp: (np.full(lam.shape, np.nan), np.full(lam.shape, np.nan))
    nan_curve = dataclasses.replace(level.curve, point=nan_point)
    with pytest.raises(SolverError, match=r"x=5\.0"):
        _level_roots(dataclasses.replace(level, curve=nan_curve), np.array([5.0]), np.array([]))


@pytest.mark.parametrize("name", sorted(XMAX))
def test_a_benchmark_table_takes_few_curve_evaluations(name):
    """The right start, one evaluation of the probes and 5 to 7 Newton
    steps on the benchmark tables; a solve that needs twice as many has
    lost its starts."""
    model = load(name)
    edge = model.edge
    level = model.level
    calls = []

    def counted(lam, g, gp):
        calls.append(lam.size)
        return level.curve.point(lam, g, gp)

    xs = np.linspace(edge.r_sigma, XMAX[name], 20)[1:]
    left = xs[xs < level.x_cap]
    curve = dataclasses.replace(level.curve, point=counted)
    _level_roots(dataclasses.replace(level, curve=curve), xs, left)
    assert len(calls) <= 10
