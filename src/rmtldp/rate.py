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
    EdgeData,
    SolverError,
    _edge_side,
    _evaluable_floor,
    _monotone_newton,
    brentq,  # noqa: F401  unused here; perfbench/tracing.py patches rate.brentq
    edge_solve,
    sigma_rule,
    theta_max,
)
from .measures import MeasureError, Semicircle, SpectralMeasure, _make_component

__all__ = [
    "rate",
    "rate_degenerate",
    "j_shift",
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


def rate(model, x, edge=None):
    """Large-deviation rate of the largest eigenvalue at x, for either model
    kind, elementwise over an array x; a float for a scalar x.

    Equals (beta/2) times the integral of the branch gap Gbar - G from
    r(sigma) to x, in closed form from the two branch values at x alone (see
    the models' ``rate_from_branches``). The value is +inf below r(sigma) and
    from ``edge.x_end`` on: for covariance models with nonpositive support,
    on [0, inf). Adaptive quadrature of the gap survives only as the test
    oracle.
    """
    edge = edge or model.edge()
    if edge.degenerate:
        raise DegenerateModelError("degenerate model: use rate_degenerate")
    xs = np.asarray(x, dtype=float)
    side = _edge_side(edge.r_sigma, xs)
    out = np.where((side < 0) | (xs >= edge.x_end), math.inf, 0.0)
    inner = (side > 0) & (xs < edge.x_end)
    if inner.any():
        xi = xs[inner]
        out[inner] = model.rate_from_branches(xi, *model.branches(xi, edge))
    return float(out) if out.ndim == 0 else out


def rate_degenerate(x: float) -> float:
    """Rate function of the degenerate phase: 0 at x = 0, +inf elsewhere."""
    return 0.0 if x == 0.0 else math.inf


def _inverse_stieltjes(mu: SpectralMeasure, target, lower: float = -math.inf):
    """Solve G_mu(lam) = target for lam > r(mu), elementwise over an array of
    positive targets; a float for a scalar target.

    The roots are the left roots of x(lam) = -1/t on the curve x = -1/G_mu,
    x' = G'/G^2, solved at once by :func:`rmtldp.dyson._monotone_newton` to
    1e-14 + 4 eps |lam|. Past r, 1/G(z) = z - m - v G_nu(z), with m, v the
    mean and variance of mu and nu a probability measure on the hull of its
    support, so x is decreasing and convex. G_mu(lam) <= 1/(lam - r) bounds
    each root by r + 2/t, and the solve starts at the lower end max(lower,
    r), where the caller knows G to lie above every target (``lower``
    defaults to r). Where G diverges at r, the lower end is instead the
    first point past the snap window of :meth:`SpectralMeasure.stieltjes`,
    inside which G is +inf. A target that G does not reach by the lower end
    gets the lower end as its root: there G(lam) = t would put lam within a
    few ulps of a divergent edge.

    Each step evaluates (G, G') at the trial points of all unsolved targets
    in one :meth:`SpectralMeasure.stieltjes_pair` call: 4 to 8 such calls on
    2000-node sigma grids and on random atomic measures, 14 on the
    log-divergent uniform edge. A NaN G or G' raises SolverError at once.
    """
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

        def curve(lam):
            g, gp = mu.stieltjes_pair(lam)
            nan = np.isnan(g) | np.isnan(gp)
            if nan.any():
                raise SolverError(f"inverse Stieltjes transform: G or G' is NaN at "
                                  f"{float(lam[np.argmax(nan)])!r}")
            return -1.0 / g, gp / (g * g)

        # a finite edge of infinite slope (a square-root edge) has G' = -inf
        # there; the first step is then 0 and the tolerance step moves on
        x_lo, xp_lo = -1.0 / g_lo, mu.stieltjes_prime(lo) / (g_lo * g_lo)
        lam, xv, xp = (np.full(ts.shape, v) for v in (lo, x_lo, xp_lo))
        roots[solve] = _monotone_newton(
            curve, -1.0 / ts, np.ones(ts.shape), r + 2.0 / ts, _NEWTON_XTOL, lam, xv, xp,
            lambda i: f"inverse Stieltjes transform at the G target {float(ts[i])!r}")
    return float(roots) if roots.ndim == 0 else roots


def j_shift(mu: SpectralMeasure, theta, lam: float):
    """Optimal shift v in the J functional: lambda - 1/(2 theta) when
    G_mu(lambda) <= 2 theta, else G_mu^{-1}(2 theta) - 1/(2 theta).
    Elementwise over an array theta; a float for scalar theta.

    Every point the solve visits lies at or beyond lam, so mu is read there
    as :meth:`SpectralMeasure.read_from` reads it from lam on."""
    th = np.asarray(theta, dtype=float)
    if (th <= 0.0).any():
        raise ValueError(f"theta must be positive, got {theta!r}")
    lam = float(lam)
    r = mu.right_edge
    if lam < r - 1e-12 * max(1.0, abs(r)):
        raise ValueError(f"lambda={lam!r} below the right edge {r!r}")
    # a lambda the guard admits below r is read as r, where rate snaps too
    lam = max(lam, r)
    mu = mu.read_from(lam)
    k = np.full(th.shape, float(lam))
    solve = mu.stieltjes(lam) > 2.0 * th
    if solve.any():
        # G(lam) > 2 theta there: lam is a lower end of every root
        k[solve] = _inverse_stieltjes(mu, 2.0 * th[solve], lam)
    v = k - 0.5 / th
    return float(v) if v.ndim == 0 else v


def j_fn(mu: SpectralMeasure, theta, lam: float):
    """Spherical-integral limit J(mu, theta, lambda) for theta >= 0,
    lambda >= r(mu), elementwise over an array theta; a float for scalar
    theta.

    J is theta*v minus half the logarithmic moment of 1 + 2 theta v
    - 2 theta y, with v the shift from :func:`j_shift`. J visits no point
    below lam, so a table component of mu that lam lies far enough past is
    read through its Gauss rule (:meth:`SpectralMeasure.read_from`), which
    gives its G, G' and log moment to rounding; nearer the support J sums
    over the table's nodes.
    """
    th = np.asarray(theta, dtype=float)
    if (th < 0.0).any():
        raise ValueError(f"theta must be nonnegative, got {theta!r}")
    mu = mu.read_from(lam)
    out = np.zeros(th.shape)
    pos = th > 0.0
    if pos.any():
        t = th[pos]
        v = j_shift(mu, t, lam)
        k = v + 0.5 / t
        # log(1 + 2 theta v - 2 theta y) = log(2 theta) + log(k - y)
        try:
            log_part = np.log(2.0 * t) + mu.log_moment(k)
        except MeasureError as exc:
            raise MeasureError(f"J: logarithmic moment diverges at k={k!r}: {exc}") from exc
        out[pos] = t * v - 0.5 * log_part
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
    tmax = theta_max(model)
    if (th > tmax).any():
        raise ValueError(f"theta={theta!r} exceeds theta_max={tmax!r}")
    out = np.zeros(th.shape)
    pos = th > 0.0
    if pos.any():
        a, t = model.alpha, th[pos]
        out[pos] = -0.5 * a * (model.rho.log_moment(a / t) + np.log(t / a))
    return float(out) if out.ndim == 0 else out


def rate_variational(model, x: float, edge=None, sigma: SpectralMeasure | None = None) -> float:
    """Rate at x through the variational form, for either model kind: the
    supremum over theta of the model's objective (see its ``variational``),
    J(sigma, theta/2, x) - F(rho, theta) for covariance models.

    Without ``sigma``, sigma is :func:`rmtldp.dyson.sigma_rule`: a 64-node
    Gauss-Jacobi rule on each band of sigma, which gives the rate to about
    1e-14 max(1, I) from 0.05 max(1, |r(sigma)|) past the edge on. It falls
    back to the 2000-point grid of ``sigma_measure`` where an edge of sigma
    cannot be classified (a cusp, as where two bands meet) or the rule's
    mass defect exceeds 1e-12. A ``sigma`` passed in is used as it is.

    The supremum is attained at the model's optimizer; the value is checked
    against 50 log-spaced theta samples up to the model's scan end, none of
    which may exceed it by more than the primal-against-variational
    tolerance. The result carries the beta factor.
    """
    edge = edge or model.edge()
    if edge.degenerate:
        raise DegenerateModelError("degenerate model: use rate_degenerate")
    if sigma is None:
        sigma = sigma_rule(model, edge)
    if sigma.raw_mass_defect is not None and sigma.raw_mass_defect > 1e-3:
        raise SolverError(
            f"sigma grid mass defect {sigma.raw_mass_defect!r} exceeds 1e-3; refine the grid"
        )
    theta_x, end, objective = model.variational(x, edge, sigma)
    thetas = np.append(theta_x, np.geomspace(max(theta_x * 1e-3, 1e-12), end, 50))
    # the optimizer and the scan in one call of the objective
    values = objective(thetas)
    value = float(values[0])
    above = np.flatnonzero(values[1:] > value + _SCAN_TOL)
    if above.size:
        raise SolverError(
            f"variational scan found theta={float(thetas[1 + above[0]])!r} exceeding "
            f"the optimizer value by more than {_SCAN_TOL!r}"
        )
    return model.beta * value


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
    edge: EdgeData

    def write_csv(self, stream) -> None:
        stream.write(csv_text("x,G,Gbar,I",
                              (self.x_grid, self.g_values, self.gbar_values, self.i_values)))


def _table_on_grid(model, edge, xs: np.ndarray) -> RateTable:
    """Branch values at grid points plus the rate at each of them, by the
    model's closed-form rate: the branches of all points come from one
    batched Newton solve, and the rate from one array evaluation."""
    xs = np.asarray(xs, dtype=float)
    g, gb = model.branches(xs, edge)
    return RateTable(xs, g, gb, model.rate_from_branches(xs, g, gb), model.beta, edge)


def rate_table(model, x_max: float, points: int, edge=None) -> RateTable:
    """RateTable on a uniform grid from r(sigma) to x_max, for a covariance
    or a deformed-Wigner model (sigma is then its free convolution). Both
    branches of every grid point come from one batched Newton solve (see
    :func:`rmtldp.dyson._level_roots`), and row i equals ``rate`` at x_i bit
    for bit."""
    edge = edge or model.edge()
    if edge.degenerate:
        raise DegenerateModelError("degenerate model: use rate_degenerate")
    if x_max <= edge.r_sigma:
        raise ValueError(f"x_max={x_max!r} must exceed r(sigma)={edge.r_sigma!r}")
    xs = np.linspace(edge.r_sigma, x_max, int(points))
    return _table_on_grid(model, edge, xs)


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
                 edge: EdgeData | None = None, domination_tol: float = 1e-9) -> ApproxSweep:
    """Rates of the right-edge-truncated models against the base model.

    For each eps the truncated model is solved on ``x_grid`` and the sup of
    |I_eps - I| recorded. Raises when the truncated rate exceeds the base
    rate by more than ``domination_tol`` anywhere, or when eps -> r(sigma_eps)
    fails to be nondecreasing.
    """
    edge = edge or edge_solve(model)
    if edge.degenerate:
        raise DegenerateModelError("degenerate model has no approximation sweep")
    xs = np.asarray(sorted(x_grid), dtype=float)
    base = _table_on_grid(model, edge, xs)
    eps_arr = np.asarray(sorted(eps_list), dtype=float)
    r_eps = np.empty_like(eps_arr)
    sup_err = np.empty_like(eps_arr)
    tables = []
    for i, eps in enumerate(eps_arr):
        rho_eps = epsilon_truncate(model.rho, float(eps))
        model_eps = CovarianceModel(rho_eps, model.alpha, model.beta, model.entry_law)
        edge_eps = edge_solve(model_eps)
        table = _table_on_grid(model_eps, edge_eps, xs)
        excess = np.max(table.i_values - base.i_values)
        if excess > domination_tol:
            raise SolverError(
                f"truncated rate at eps={eps!r} exceeds the base rate by {excess!r}"
            )
        r_eps[i] = edge_eps.r_sigma
        sup_err[i] = float(np.max(np.abs(table.i_values - base.i_values)))
        tables.append(table)
    if np.any(np.diff(r_eps) < -1e-12):
        raise SolverError(f"r(sigma_eps) fails to be nondecreasing in eps: {r_eps!r}")
    return ApproxSweep(eps_arr, r_eps, sup_err, base, tuple(tables))
