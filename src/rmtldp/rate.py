"""Rate function for the largest eigenvalue of either model kind: the primal
branch-gap integral in closed form, the variational form through the
auxiliary functionals J and F, the degenerate rate, and the right-edge
truncation scheme with its approximation sweep."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._quad import sqrt_adapted_rule
from .dyson import (
    _NEWTON_XTOL,
    CovarianceModel,
    DegenerateModelError,
    SolverError,
    _edge_side,
    _evaluable_floor,
    _monotone_newton,
    brentq,  # noqa: F401  unused here; perfbench/tracing.py patches rate.brentq
)
from .measures import MeasureError, Semicircle, SpectralMeasure, _make_component

__all__ = [
    "rate",
    "rate_degenerate",
    "j_fn",
    "f_fn",
    "rate_variational",
    "epsilon_truncate",
    "RateTable",
    "rate_table",
    "ApproxSweep",
    "approx_sweep",
]

logger = logging.getLogger(__name__)

# primal against variational acceptance tolerance: no scanned theta may beat
# the optimizer's objective by more
_SCAN_TOL = 2e-3
# the scan's 50 theta, as fractions of the way from its start to its end on a
# log scale: theta_start (theta_end / theta_start)^f
_SCAN_FRACTIONS = np.linspace(0.0, 1.0, 50)


def rate(model, x):
    """Large-deviation rate of the largest eigenvalue at x, for either model
    kind, elementwise over an array x; a float for a scalar x.

    Equals (beta/2) times the integral of the branch gap Gbar - G from
    r(sigma) to x, in closed form from the two branch values at x alone (see
    the models' ``rate_from_branches``). The value is +inf below r(sigma) and
    from ``model.edge.x_end`` on: for covariance models with nonpositive
    support, on [0, inf). Adaptive quadrature of the gap survives only as
    the test oracle.
    """
    if model.edge.degenerate:
        raise DegenerateModelError("degenerate model: use rate_degenerate")
    xs = np.asarray(x, dtype=float)
    out, inner = _off_branches(model.edge, xs)
    if inner.any():
        xi = xs[inner]
        out[inner] = model.rate_from_branches(xi, *model.branches(xi))
    return float(out) if out.ndim == 0 else out


def _off_branches(edge, xs):
    """The rate's rule at the edges of its domain, for the points of the
    array xs: the rate where the branches do not give it, +inf below
    r(sigma) and from ``edge.x_end`` on and 0 at r(sigma) and in its snap
    window (0 elsewhere), and the points where they do."""
    side = _edge_side(edge.r_sigma, xs)
    return (np.where((side < 0) | (xs >= edge.x_end), math.inf, 0.0),
            (side > 0) & (xs < edge.x_end))


def rate_degenerate(x: float) -> float:
    """Rate function of the degenerate phase: 0 at x = 0, +inf elsewhere."""
    return 0.0 if x == 0.0 else math.inf


def _inverse_stieltjes(mu: SpectralMeasure, target, lower=-math.inf, at=0):
    """Solve G_mu(lam) = target for lam > r(mu), elementwise over an array of
    positive targets; a float for a scalar target. ``lower`` is a lower end
    or a 1-d array of them, and ``at`` holds each target's index in it, an
    int or an array that broadcasts to the targets' shape.

    The roots are the left roots of x(lam) = -1/t on the curve x = -1/G_mu,
    x' = G'/G^2, all solved by one call of
    :func:`rmtldp.dyson._monotone_newton` to 1e-14 + 4 eps |lam|. Past r,
    1/G(z) = z - m - v G_nu(z), with m, v the mean and variance of mu and nu
    a probability measure on the hull of its support, so x is decreasing
    and convex. G_mu(lam) <= 1/(lam - r) bounds each root by r + 2/t, and
    the solve of a target starts at its lower end max(lower, r), where the
    caller knows G to lie above the target (``lower`` defaults to r). Where
    G diverges at r, a lower end inside the snap window of
    :meth:`SpectralMeasure.stieltjes`, where G is +inf, is instead the first
    point past it. A target that G does not reach by its lower end gets the
    lower end as its root: there G(lam) = t would put lam within a few ulps
    of a divergent edge. G and (x, x') at each lower end are taken on
    floats, so a target's iteration, and its root, do not depend on the
    other targets.

    Each step evaluates (G, G') at the trial points of all unsolved targets
    in one :meth:`SpectralMeasure.stieltjes_pair` call: 4 to 8 such calls on
    2000-node sigma grids and on random atomic measures, 14 on the
    log-divergent uniform edge. A NaN G or G' raises SolverError at once.
    """
    t = np.asarray(target, dtype=float)
    r = mu.right_edge
    index = np.empty(t.shape, dtype=np.intp)
    index[...] = at
    at = index.reshape(-1)
    # an int lower end would make the iterates below ints
    ends = np.atleast_1d(np.asarray(lower, dtype=float)).tolist()
    lows = [_evaluable_floor(mu, max(v, r)) for v in ends]
    g_lows = [mu.stieltjes(lo) for lo in lows]
    for lo, g_lo in zip(lows, g_lows):
        if math.isnan(g_lo):
            raise SolverError(f"inverse Stieltjes transform: G is NaN at the lower end {lo!r}")
    roots = np.array(lows)[at]
    solve = np.array(g_lows)[at] > t.reshape(-1)
    if solve.any():
        ts, at = t.reshape(-1)[solve], at[solve]

        def curve(lam):
            g, gp = mu.stieltjes_pair(lam)
            nan = np.isnan(g) | np.isnan(gp)
            if nan.any():
                raise SolverError(f"inverse Stieltjes transform: G or G' is NaN at "
                                  f"{float(lam[np.argmax(nan)])!r}")
            return -1.0 / g, gp / (g * g)

        # (x, x') at the lower ends that start a solve; a finite edge of
        # infinite slope (a square-root edge) has G' = -inf there, the first
        # step is then 0 and the tolerance step moves on
        x_lo, xp_lo = [math.nan] * len(lows), [math.nan] * len(lows)
        for i in set(at.tolist()):
            g_lo = g_lows[i]
            x_lo[i], xp_lo[i] = -1.0 / g_lo, mu.stieltjes_prime(lows[i]) / (g_lo * g_lo)
        roots[solve] = _monotone_newton(
            curve, -1.0 / ts, np.ones(ts.shape), r + 2.0 / ts, _NEWTON_XTOL, roots[solve],
            np.array(x_lo)[at], np.array(xp_lo)[at],
            lambda i: f"inverse Stieltjes transform at the G target {float(ts[i])!r}")
    return float(roots[0]) if t.ndim == 0 else roots.reshape(t.shape)


def _lambdas(mu: SpectralMeasure, lam, shape):
    """The entries of lam as floats, and each theta's index among them, an
    array of ``shape``, theta's shape, that lam broadcasts to. A lam below
    r - 1e-12 max(1, |r|), with r the right edge of mu, raises ValueError,
    and a lam the guard admits below r is read as r, where rate snaps
    too."""
    r = mu.right_edge
    lam = np.asarray(lam, dtype=float)
    if (lam < r - 1e-12 * max(1.0, abs(r))).any():
        raise ValueError(f"lambda={float(lam.min())!r} below the right edge {r!r}")
    lam = np.maximum(lam, r)
    at = np.empty(shape, dtype=np.intp)
    at[...] = np.arange(lam.size).reshape(lam.shape)
    return lam.reshape(-1).tolist(), at


def _readings(mu: SpectralMeasure, lams, at):
    """Split the points by how mu reads from their lambda
    (:meth:`SpectralMeasure.read_from`): a table component reads through
    its Gauss rule at a point far enough past it. ``lams`` are the lambda
    and ``at`` each point's index among them, a 1-d array. One
    (reading, its lambda, selection, each selected point's index among
    them) per reading that a point takes."""
    groups = {}
    for i, v in enumerate(lams):
        groups.setdefault(tuple(c.read_from(v) is c for c in mu.components), []).append(i)
    group, index = np.empty(len(lams), dtype=np.intp), np.empty(len(lams), dtype=np.intp)
    for g, ids in enumerate(groups.values()):
        group[ids], index[ids] = g, np.arange(len(ids))
    group, index = group[at], index[at]
    out = []
    for g, ids in enumerate(groups.values()):
        sel = group == g
        if sel.any():
            out.append((mu.read_from(lams[ids[0]]), [lams[i] for i in ids], sel, index[sel]))
    return out


def j_fn(mu: SpectralMeasure, theta, lam):
    """Spherical-integral limit J(mu, theta, lambda) for theta >= 0,
    lambda >= r(mu), elementwise over an array theta, with lambda a scalar
    or an array that broadcasts to theta's shape (one lambda per point of a
    variational batch); a float for scalar theta.

    J is theta*v minus half the logarithmic moment of 1 + 2 theta v
    - 2 theta y, with v the optimal shift: lambda - 1/(2 theta) when
    G_mu(lambda) <= 2 theta, else G_mu^{-1}(2 theta) - 1/(2 theta), both
    from one :func:`_inverse_stieltjes` solve from the lower ends lambda. J
    visits no point below lambda, so a table component of mu that lambda
    lies far enough past is read through its Gauss rule
    (:meth:`SpectralMeasure.read_from`), which gives its G, G' and log
    moment to rounding; nearer the support J sums over the table's nodes.
    The points are grouped by that reading,
    and each group takes one shift solve and one log moment: a sigma whose
    tables are too small to carry a rule (the 64-node bands of
    :func:`rmtldp.dyson.sigma_rule`) is read as itself at every lambda, in
    one group. Each entry of lambda is read once, on floats, so an array
    lambda should have one entry per point (shape (n, 1) for theta of
    shape (n, k)), not be broadcast out to theta's shape.
    """
    th = np.asarray(theta, dtype=float)
    if (th < 0.0).any():
        raise ValueError(f"theta must be nonnegative, got {theta!r}")
    lams, at = _lambdas(mu, lam, th.shape)
    out = np.zeros(th.shape)
    pos = th > 0.0
    if pos.any():
        t = th[pos]
        vals = np.empty(t.shape)
        for reading, ends, sel, index in _readings(mu, lams, at[pos]):
            ts = t[sel]
            v = _inverse_stieltjes(reading, 2.0 * ts, ends, index) - 0.5 / ts
            k = v + 0.5 / ts
            # log(1 + 2 theta v - 2 theta y) = log(2 theta) + log(k - y)
            try:
                log_part = np.log(2.0 * ts) + reading.log_moment(k)
            except MeasureError as exc:
                raise MeasureError(f"J: logarithmic moment diverges at k={k!r}: {exc}") from exc
            vals[sel] = ts * v - 0.5 * log_part
        out[pos] = vals
    return float(out) if out.ndim == 0 else out


def f_fn(model: CovarianceModel, theta):
    """Annealed tilt limit F(rho, theta) = -(alpha/2) * integral of
    log(1 - theta*t/alpha) d rho(t), defined for 0 <= theta < theta_max and
    at theta_max where the logarithmic moment of rho at r(rho) is finite
    (no atom there; it is when x_c is finite); elementwise over an array
    theta, a float for scalar theta."""
    th = np.asarray(theta, dtype=float)
    if (th < 0.0).any():
        raise ValueError(f"theta must be nonnegative, got {theta!r}")
    tmax = model.edge.theta_max
    if (th > tmax).any():
        raise ValueError(f"theta={theta!r} exceeds theta_max={tmax!r}")
    out = np.zeros(th.shape)
    pos = th > 0.0
    if pos.any():
        a, t = model.alpha, th[pos]
        out[pos] = -0.5 * a * (model.rho.log_moment(a / t) + np.log(t / a))
    return float(out) if out.ndim == 0 else out


def rate_variational(model, x, sigma: SpectralMeasure | None = None):
    """Rate at x through the variational form, for either model kind,
    elementwise over an array x; a float for a scalar x. It is the supremum
    over theta of the model's objective (see its ``variational``),
    J(sigma, theta/2, x) - F(rho, theta) for covariance models.

    Without ``sigma``, sigma is ``model.sigma``, the rule of
    :func:`rmtldp.dyson.sigma_rule` (or its grid fallback), which gives the
    rate to about 1e-14 max(1, I) from 0.05 max(1, |r(sigma)|) past the edge
    on. A ``sigma`` passed in is used as it is; the grid of
    :func:`rmtldp.dyson.sigma_measure` gives it to about 1e-14 max(1, I)
    from 1e-3 max(1, |r(sigma)|) on, on the benchmark models whose bands
    are found.

    The supremum is attained at the model's optimizer. The optimizers of all
    points come from one solve of the second branch, and the objective is
    evaluated once, on every point's optimizer and 50 log-spaced theta up to
    its scan end; no scanned theta may exceed its point's optimizer value by
    more than the primal-against-variational tolerance, or SolverError names
    the point and the theta. theta = 0 is admissible, with objective exactly
    0, so the value is the larger of the optimizer's and 0. At r(sigma) and
    in its snap window the rate is 0 by :func:`rate`'s rule
    (:func:`_off_branches`) for any sigma: the objective there is sigma's
    own error, on the benchmark models up to 2.0e-5 on the rule and 6.6e-10
    on the grid of :func:`rmtldp.dyson.sigma_measure` (2.4e-6 on both at a
    cusp).
    A point below the window, or from ``model.edge.x_end`` on, raises ValueError.
    The result carries the beta factor.
    """
    sigma = _variational_setup(model, sigma)
    xs = np.asarray(x, dtype=float)
    out, inner = _off_branches(model.edge, xs)
    # every point but those at r(sigma) goes to the branch solve, which
    # refuses the points outside the domain
    solve = inner | (out != 0.0)
    xi = xs[solve]
    out[solve] = _supremum(model, xi, *model.variational(xi, sigma))
    return float(out) if out.ndim == 0 else out


def _variational_setup(model, sigma):
    """``sigma``, or ``model.sigma`` where it is None; a degenerate model and
    a grid sigma of mass defect above 1e-3 are refused."""
    if model.edge.degenerate:
        raise DegenerateModelError("degenerate model: use rate_degenerate")
    if sigma is None:
        sigma = model.sigma
    if sigma.raw_mass_defect is not None and sigma.raw_mass_defect > 1e-3:
        raise SolverError(
            f"sigma grid mass defect {sigma.raw_mass_defect!r} exceeds 1e-3; refine the grid"
        )
    return sigma


def _supremum(model, xs, theta_x, end, objective):
    """beta times the variational rate at the points of the array xs from
    the model's (optimizer, scan end, objective) there; see
    :func:`rate_variational`."""
    start = np.maximum(theta_x * 1e-3, 1e-12)[..., None]
    scan = start * (np.asarray(end)[..., None] / start) ** _SCAN_FRACTIONS
    # each point's optimizer and its scan in one call of the objective
    values = objective(np.concatenate((theta_x[..., None], scan), axis=-1))
    value = values[..., 0]
    above = values[..., 1:] > value[..., None] + _SCAN_TOL
    if above.any():
        i = np.unravel_index(np.argmax(above), above.shape)
        raise SolverError(
            f"variational scan at x={float(xs[i[:-1]])!r} found "
            f"theta={float(scan[i])!r} exceeding the optimizer value by more than "
            f"{_SCAN_TOL!r}"
        )
    return model.beta * np.maximum(value, 0.0)


def _rates_both_ways(model, xs, sigma):
    """(primal, variational) rates at the points of the array xs, as
    :func:`rate` and :func:`rate_variational` give them, bit for bit, from
    one solve of both branches: the variational command's two columns. A
    point below r(sigma) or from ``edge.x_end`` on raises ValueError, as
    rate_variational does there."""
    sigma = _variational_setup(model, sigma)
    g, g_bar = model.branches(xs)
    primal, inner = _off_branches(model.edge, xs)
    variational = primal.copy()
    xi, g_bar = xs[inner], g_bar[inner]
    primal[inner] = model.rate_from_branches(xi, g[inner], g_bar)
    variational[inner] = _supremum(model, xi, *model._variational_from(xi, g_bar, sigma))
    return primal, variational


def epsilon_truncate(rho: SpectralMeasure, eps: float) -> SpectralMeasure:
    """Collapse all mass within eps of the right edge onto an atom there.

    If the cut position r - eps lands on an atom (within 1e-12 relative),
    eps is nudged up by 1e-9 times the support width so the cut avoids it.
    A no-op truncation returns the input measure unchanged.
    """
    lo, hi = rho.edges()
    if eps <= 0.0:
        raise MeasureError(f"eps={eps!r} must be positive")
    if hi == lo:
        return rho  # single support point: nothing below the edge to move
    if eps >= hi - lo:
        raise MeasureError(f"eps={eps!r} outside (0, {hi - lo!r})")
    cutoff = hi - eps
    scale = max(1.0, abs(hi), abs(lo))
    if rho.atom_locations.size and np.min(np.abs(rho.atom_locations - cutoff)) <= 1e-12 * scale:
        eps += 1e-9 * (hi - lo)
        cutoff = hi - eps
        logger.info("truncation cut nudged to %r to avoid an atom", cutoff)

    # an atom already sitting at the right edge is a fixed point of the map
    at_edge = np.abs(rho.atom_locations - hi) <= 1e-14 * scale
    keep = (rho.atom_locations <= cutoff) | at_edge
    moved = float(rho.atom_weights[~keep].sum())
    locs = list(rho.atom_locations[keep])
    wts = list(rho.atom_weights[keep])
    comps = []
    for c in rho.components:
        if c.b <= cutoff:
            comps.append(c)
        elif c.a >= cutoff:
            moved += c.mass
        else:
            sel = c.nodes <= cutoff
            # a table keeps exactly its selected weights; a closed form keeps
            # its exact mass below the cut
            kept_mass = float(c.weights[sel].sum()) if c.kind == "table" else c.cdf(cutoff)
            moved += c.mass - kept_mass
            if kept_mass <= 0.0:
                continue
            if c.kind == "uniform":
                nodes, qw = sqrt_adapted_rule(c.a, cutoff, max(len(c.nodes), 64))
                comps.append(_make_component(
                    "uniform", c.a, cutoff, kept_mass, nodes, qw * kept_mass / (cutoff - c.a),
                ))
            elif c.kind == "table":
                comps.append(_make_component(
                    "table", c.a, cutoff, None, c.nodes[sel], c.weights[sel],
                    edge_finite_g=c.edge_finite_g,
                ))
            else:
                # a semicircle, re-discretized on [a, cutoff] from its center
                # and radius
                law = Semicircle(c.params["center"], c.params["radius"])
                nodes, qw = sqrt_adapted_rule(c.a, cutoff, max(len(c.nodes), 256))
                weights = qw * (c.mass * law(nodes))
                weights *= kept_mass / weights.sum()
                comps.append(_make_component(
                    "table", c.a, cutoff, None, nodes, weights, edge_finite_g=False,
                ))
    if moved <= 0.0:
        return rho
    locs.append(hi)
    wts.append(moved)
    return SpectralMeasure(locs, wts, comps)


# rows formatted by one % in csv_text: bounds the tuple of values, and its
# floats, that a long table holds beside its text
_CSV_BLOCK_ROWS = 4096


def csv_text(header: str, columns) -> str:
    """The CSV table of equal-length float columns under ``header``: one line
    per row, every value as %.17g (which writes inf, -inf and nan as such),
    each line ending in a newline. Each block of rows is formatted by one
    ``%`` on the format of its lines."""
    table = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    parts = [header + "\n"]
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS]
        parts.append(line * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


@dataclass(frozen=True)
class RateTable:
    """Tabulated branches and cumulative rate on an x grid."""

    x_grid: np.ndarray
    g_values: np.ndarray
    gbar_values: np.ndarray
    i_values: np.ndarray
    beta: int

    def write_csv(self, stream) -> None:
        stream.write(csv_text("x,G,Gbar,I",
                              (self.x_grid, self.g_values, self.gbar_values, self.i_values)))


def _table_on_grid(model, xs: np.ndarray) -> RateTable:
    """Branch values at grid points plus the rate at each of them, by the
    model's closed-form rate: the branches of all points come from one
    batched Newton solve, and the rate from one array evaluation."""
    xs = np.asarray(xs, dtype=float)
    g, gb = model.branches(xs)
    return RateTable(xs, g, gb, model.rate_from_branches(xs, g, gb), model.beta)


def rate_table(model, x_max: float, points: int) -> RateTable:
    """RateTable on a uniform grid from r(sigma) to x_max, for a covariance
    or a deformed-Wigner model (sigma is then its free convolution). Both
    branches of every grid point come from one batched Newton solve (see
    :func:`rmtldp.dyson._level_roots`), and row i equals ``rate`` at x_i bit
    for bit."""
    edge = model.edge
    if edge.degenerate:
        raise DegenerateModelError("degenerate model: use rate_degenerate")
    if x_max <= edge.r_sigma:
        raise ValueError(f"x_max={x_max!r} must exceed r(sigma)={edge.r_sigma!r}")
    xs = np.linspace(edge.r_sigma, x_max, int(points))
    return _table_on_grid(model, xs)


@dataclass(frozen=True)
class ApproxSweep:
    """Edge positions and uniform errors of the truncated-model rates."""

    eps: np.ndarray
    r_sigma_eps: np.ndarray
    sup_error: np.ndarray
    base_table: RateTable
    tables: tuple[RateTable, ...]

    def write_csv(self, stream) -> None:
        stream.write(csv_text("eps,r_sigma_eps,sup_error",
                              (self.eps, self.r_sigma_eps, self.sup_error)))


def approx_sweep(model: CovarianceModel, eps_list, x_grid,
                 domination_tol: float = 1e-9) -> ApproxSweep:
    """Rates of the right-edge-truncated models against the base model.

    For each eps the truncated model is solved on ``x_grid`` and the sup of
    |I_eps - I| recorded. Raises when the truncated rate exceeds the base
    rate by more than ``domination_tol`` anywhere, or when eps -> r(sigma_eps)
    fails to be nondecreasing.
    """
    if model.edge.degenerate:
        raise DegenerateModelError("degenerate model has no approximation sweep")
    xs = np.asarray(sorted(x_grid), dtype=float)
    base = _table_on_grid(model, xs)
    eps_arr = np.asarray(sorted(eps_list), dtype=float)
    r_eps = np.empty_like(eps_arr)
    sup_err = np.empty_like(eps_arr)
    tables = []
    for i, eps in enumerate(eps_arr):
        rho_eps = epsilon_truncate(model.rho, float(eps))
        model_eps = CovarianceModel(rho_eps, model.alpha, model.beta, model.entry_law)
        table = _table_on_grid(model_eps, xs)
        excess = np.max(table.i_values - base.i_values)
        if excess > domination_tol:
            raise SolverError(
                f"truncated rate at eps={eps!r} exceeds the base rate by {excess!r}"
            )
        r_eps[i] = model_eps.edge.r_sigma
        sup_err[i] = float(np.max(np.abs(table.i_values - base.i_values)))
        tables.append(table)
    if np.any(np.diff(r_eps) < -1e-12):
        raise SolverError(f"r(sigma_eps) fails to be nondecreasing in eps: {r_eps!r}")
    return ApproxSweep(eps_arr, r_eps, sup_err, base, tuple(tables))
