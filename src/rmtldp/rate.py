"""Rate function for the largest eigenvalue: the primal branch-gap integral
in closed form, the variational form through the auxiliary functionals J and
F, the degenerate rate, and the right-edge truncation scheme with its
approximation sweep."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from ._quad import sqrt_adapted_rule
from .dyson import (
    _BRENTQ_KW,
    CovarianceModel,
    DegenerateModelError,
    EdgeData,
    SolverError,
    edge_solve,
    g_bar_sigma,
    g_sigma,
    sigma_measure,
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


def _rate_from_branches(model: CovarianceModel, x: float, g: float, g_bar: float) -> float:
    """Rate at x from the two branch values G = G_sigma(x), Gbar = Gbar_sigma(x).

    Integrating Gbar - G by parts with H(G) = H(Gbar) = x gives
    I(x) = (beta/2) [x (Gbar - G) - (Phi(Gbar) - Phi(G))] for any primitive Phi
    of H; Phi(t) = log t + 2 F(rho, t) = (1 - alpha) log t - alpha L(alpha/t)
    up to a constant, L the logarithmic moment of rho. On the capped branch
    Gbar = theta_max and alpha/Gbar = r(rho); the clamp below only absorbs
    rounding there.
    """
    a = model.alpha
    r = model.rho.right_edge
    lm = lambda t: model.rho.log_moment(max(a / t, r))
    bracket = x * (g_bar - g) - (1.0 - a) * math.log(g_bar / g) + a * (lm(g_bar) - lm(g))
    # I >= 0 is a theorem; the bracket cancels O(1) terms, so just above the
    # edge rounding can leave it a few ulps below zero
    return 0.5 * model.beta * max(0.0, bracket)


def rate(model: CovarianceModel, x: float, edge: EdgeData | None = None) -> float:
    """Large-deviation rate of the largest eigenvalue at x.

    Equals (beta/2) times the integral of the branch gap Gbar - G from
    r(sigma) to x, in closed form from the branch values at x alone:

        (beta/2) [x (Gbar - G) - (1 - alpha) log(Gbar/G)
                  + alpha (L(alpha/Gbar) - L(alpha/G))],

    L the logarithmic moment of rho (see :func:`_rate_from_branches`). The
    value is +inf below r(sigma) and, for models with nonpositive support, on
    [0, inf) as well. Adaptive quadrature of the gap survives only as the
    test oracle.
    """
    edge = edge or edge_solve(model)
    if edge.degenerate:
        raise DegenerateModelError("degenerate model: use rate_degenerate")
    if model.rho.right_edge <= 0.0 and x >= 0.0:
        return math.inf
    scale = max(1.0, abs(edge.r_sigma))
    if x < edge.r_sigma - 1e-12 * scale:
        return math.inf
    if x <= edge.r_sigma + 1e-13 * scale:
        return 0.0
    return _rate_from_branches(model, x, g_sigma(edge, model, x), g_bar_sigma(edge, model, x))


def rate_degenerate(x: float) -> float:
    """Rate function of the degenerate phase: 0 at x = 0, +inf elsewhere."""
    return 0.0 if x == 0.0 else math.inf


def _inverse_stieltjes(mu: SpectralMeasure, target: float) -> float:
    """Solve G_mu(lam) = target for lam > r(mu) by bracketed bisection."""
    r = mu.right_edge
    scale = max(1.0, abs(r))
    lo = None
    delta = 1e-3 * scale
    for _ in range(300):
        cand = r + delta
        g = mu.stieltjes(cand)
        if g > target:
            lo = cand
            break
        delta *= 0.5
    if lo is None:
        raise SolverError(f"inverse Stieltjes transform: no bracket above edge for {target!r}")
    hi = lo
    for _ in range(300):
        hi = r + (hi - r) * 2.0
        if mu.stieltjes(hi) < target:
            break
    else:
        raise SolverError(f"inverse Stieltjes transform: no upper bracket for {target!r}")
    return brentq(lambda lam: mu.stieltjes(lam) - target, lo, hi, **_BRENTQ_KW)


def j_shift(mu: SpectralMeasure, theta: float, lam: float) -> float:
    """Optimal shift v in the J functional: lambda - 1/(2 theta) when
    G_mu(lambda) <= 2 theta, else G_mu^{-1}(2 theta) - 1/(2 theta)."""
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    r = mu.right_edge
    if lam < r - 1e-12 * max(1.0, abs(r)):
        raise ValueError(f"lambda={lam!r} below the right edge {r!r}")
    g_lam = mu.stieltjes(lam)
    if g_lam <= 2.0 * theta:
        return float(lam) - 0.5 / theta
    return _inverse_stieltjes(mu, 2.0 * theta) - 0.5 / theta


def j_fn(mu: SpectralMeasure, theta: float, lam: float) -> float:
    """Spherical-integral limit J(mu, theta, lambda) for theta >= 0,
    lambda >= r(mu).

    J is theta*v minus half the logarithmic moment of 1 + 2 theta v
    - 2 theta y, with v the shift from :func:`j_shift`.
    """
    if theta < 0.0:
        raise ValueError(f"theta must be nonnegative, got {theta!r}")
    if theta == 0.0:
        return 0.0
    v = j_shift(mu, theta, lam)
    k = v + 0.5 / theta
    # log(1 + 2 theta v - 2 theta y) = log(2 theta) + log(k - y)
    try:
        log_part = math.log(2.0 * theta) + mu.log_moment(k)
    except MeasureError as exc:
        raise MeasureError(f"J: logarithmic moment diverges at k={k!r}: {exc}") from exc
    return theta * v - 0.5 * log_part


def f_fn(model: CovarianceModel, theta: float) -> float:
    """Annealed tilt limit F(rho, theta) = -(alpha/2) * integral of
    log(1 - theta*t/alpha) d rho(t), defined for 0 <= theta < theta_max."""
    if theta < 0.0:
        raise ValueError(f"theta must be nonnegative, got {theta!r}")
    if theta == 0.0:
        return 0.0
    tmax = theta_max(model)
    if theta >= tmax:
        raise ValueError(f"theta={theta!r} is not below theta_max={tmax!r}")
    a = model.alpha
    return -0.5 * a * (model.rho.log_moment(a / theta) + math.log(theta / a))


def rate_variational(model: CovarianceModel, x: float, edge: EdgeData | None = None,
                     sigma: SpectralMeasure | None = None, verify: bool = True,
                     scan_tol: float = 2e-3) -> float:
    """Rate at x through the variational form sup over theta of
    J(sigma, theta/2, x) - F(rho, theta).

    The supremum is attained at theta = Gbar_sigma(x); with ``verify`` the
    value is checked against 50 log-spaced theta samples, none of which may
    exceed it by more than ``scan_tol``. The result carries the beta factor.
    """
    edge = edge or edge_solve(model)
    if edge.degenerate:
        raise DegenerateModelError("degenerate model: use rate_degenerate")
    if sigma is None:
        sigma = sigma_measure(model, 2000, edge)
    if sigma.raw_mass_defect is not None and sigma.raw_mass_defect > 1e-3:
        raise SolverError(
            f"sigma grid mass defect {sigma.raw_mass_defect!r} exceeds 1e-3; refine the grid"
        )
    theta_x = g_bar_sigma(edge, model, x)
    tmax = edge.theta_max
    if math.isfinite(tmax) and theta_x >= tmax * (1.0 - 1e-12):
        theta_x = tmax * (1.0 - 1e-8)  # capped branch: approach the open end

    def objective(theta: float) -> float:
        return j_fn(sigma, 0.5 * theta, x) - f_fn(model, theta)

    value = objective(theta_x)
    if verify:
        hi = tmax * (1.0 - 1e-6) if math.isfinite(tmax) else 30.0 * theta_x
        for theta in np.geomspace(max(theta_x * 1e-3, 1e-12), hi, 50):
            if objective(theta) > value + scan_tol:
                raise SolverError(
                    f"variational scan found theta={theta!r} exceeding the "
                    f"optimizer value by more than {scan_tol!r}"
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
            kept_mass = c.cdf(cutoff)
            moved += c.mass - kept_mass
            if kept_mass <= 0.0:
                continue
            if c.kind == "uniform":
                nodes, qw = sqrt_adapted_rule(c.a, cutoff, max(len(c.nodes), 64))
                comps.append(_make_component(
                    "uniform", c.a, cutoff, kept_mass, nodes,
                    qw * kept_mass / (cutoff - c.a), evaluator=None, edge_finite_g=False,
                ))
            elif c.kind == "table" and c.evaluator is None:
                sel = c.nodes <= cutoff
                comps.append(_make_component(
                    "table", c.a, cutoff, float(c.weights[sel].sum()),
                    c.nodes[sel], c.weights[sel], edge_finite_g=c.edge_finite_g,
                ))
            else:
                if c.kind == "semicircle":
                    base = Semicircle(c.params["center"], c.params["radius"])
                    dens = lambda u, _b=base, _m=c.mass: _m * np.asarray(_b(u))
                else:
                    norm = c.params.get("norm", 1.0)
                    dens = lambda u, _e=c.evaluator, _n=norm: _n * np.asarray(_e(u))
                nodes, qw = sqrt_adapted_rule(c.a, cutoff, max(len(c.nodes), 256))
                weights = qw * dens(nodes)
                weights *= kept_mass / weights.sum()
                comps.append(_make_component(
                    "table", c.a, cutoff, kept_mass, nodes, weights,
                    params={"norm": kept_mass / weights.sum()}, evaluator=dens,
                    edge_finite_g=False,
                ))
    if moved <= 0.0:
        return rho
    locs.append(hi)
    wts.append(moved)
    return SpectralMeasure(locs, wts, comps)


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
        stream.write("x,G,Gbar,I\n")
        for row in zip(self.x_grid, self.g_values, self.gbar_values, self.i_values):
            stream.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _table_on_grid(model, edge, xs: np.ndarray) -> RateTable:
    """Branch values at grid points plus the rate at each of them, each point
    evaluated on its own by the model's closed-form rate."""
    xs = np.asarray(xs, dtype=float)
    g, gb = np.array([model.branches(x, edge) for x in xs]).reshape(-1, 2).T
    i_vals = np.array([model.rate_from_branches(*row) for row in zip(xs, g, gb)])
    return RateTable(xs, g, gb, i_vals, model.beta, edge)


def rate_table(model, x_max: float, points: int, edge=None) -> RateTable:
    """RateTable on a uniform grid from r(sigma) to x_max, for a covariance
    or a deformed-Wigner model (sigma is then its free convolution)."""
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
        stream.write("eps,r_sigma_eps,sup_error\n")
        for row in zip(self.eps, self.r_sigma_eps, self.sup_error):
            stream.write(",".join(f"{v:.17g}" for v in row) + "\n")


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
