"""Additively deformed Wigner ensembles: the convex function H built from the
inverse Stieltjes transform of the deformation, its two inverse branches, the
model's side of the shared rate, variational and limit-law functions (with
entry points into them under their deformed-Wigner names), and the right-edge
capping approximation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .dyson import (
    _BRENTQ_KW,
    SolverError,
    SupportWindow,
    _check_entry_law,
    _edge_side,
    _solve_on_grid,
    sigma_density,
    sigma_measure,
)
from .measures import MeasureError, SpectralMeasure
from .rate import _inverse_stieltjes, epsilon_truncate, j_fn, rate, rate_variational

__all__ = [
    "DeformedWignerModel",
    "DWEdgeData",
    "k_transform",
    "dw_h",
    "dw_edge",
    "dw_branches",
    "dw_rate",
    "dw_rate_variational",
    "free_convolution_density",
    "free_convolution_measure",
    "dw_epsilon_cap",
]

@dataclass(frozen=True)
class DeformedWignerModel:
    """Wigner matrix plus a deterministic diagonal with limiting law mu_d."""

    mu_d: SpectralMeasure
    beta: int = 1
    entry_law: str = "gaussian"

    def __post_init__(self):
        _check_entry_law(self.beta, self.entry_law)

    # The primitives of the shared rate, variational and limit-law functions,
    # as CovarianceModel has them.

    def edge(self) -> DWEdgeData:
        return dw_edge(self)

    def branches(self, x: float, edge: DWEdgeData) -> tuple[float, float]:
        return dw_branches(self, x, edge)

    def rate_from_branches(self, x: float, g: float, g_bar: float) -> float:
        """Rate at x from the two branch values G <= Gbar of H(y) = x.

        Integrating Gbar - G by parts gives (beta/2) [x (Gbar - G) - (Phi(Gbar)
        - Phi(G))] for any primitive Phi of H. Take Phi(y) = y^2/2 + lam y - L(lam)
        with lam = K(y) (lam = r(mu_d) on the capped piece) and L the logarithmic
        moment of mu_d; since lam = x - y on both branches, the x terms cancel:

            (beta/2) [(Gbar^2 - G^2)/2 + L(x - Gbar) - L(x - G)].

        On the capped piece x - Gbar = r(mu_d); the clamp below only absorbs
        rounding there.
        """
        mu = self.mu_d
        lm = lambda y: mu.log_moment(max(x - y, mu.right_edge))
        bracket = 0.5 * (g_bar - g) * (g_bar + g) + lm(g_bar) - lm(g)
        # I >= 0 is a theorem; the bracket cancels O(1) terms, so just above the
        # edge rounding can leave it a few ulps below zero
        return 0.5 * self.beta * max(0.0, bracket)

    def window(self, edge: DWEdgeData) -> SupportWindow:
        """Support of the free convolution: its right edge, and the left edge
        as minus the right edge for the reflected deformation."""
        mirrored = dw_edge(DeformedWignerModel(self.mu_d.reflected(), self.beta, self.entry_law))
        return SupportWindow(-mirrored.r_edge, edge.r_edge, 0.0)

    def limit_stieltjes(self, zs: np.ndarray) -> np.ndarray:
        """G(z) = z - omega at every z of the upper half-plane, omega the root
        of the subordination equation omega + G_mu(omega) = z with
        Im omega > 0, seeded far above the axis by omega ~ z - 1/z."""
        mu = self.mu_d
        omegas = _solve_on_grid(lambda om: om + mu.stieltjes(om),
                                lambda om: 1.0 + mu.stieltjes_prime(om),
                                zs, lambda z: z - 1.0 / z)
        return zs - omegas

    def variational(self, x: float, edge: DWEdgeData, sigma: SpectralMeasure):
        """(optimizer, scan end, objective) of sup over theta of
        J(sc boxplus mu_d, theta, x) - theta^2 - J(mu_d, theta, r(mu_d));
        the optimizer is Gbar(x)/2."""
        _, g_bar = dw_branches(self, x, edge)
        theta_x = 0.5 * g_bar
        r_d = self.mu_d.right_edge
        return theta_x, max(10.0 * theta_x, 5.0), (
            lambda theta: j_fn(sigma, theta, x) - theta * theta - j_fn(self.mu_d, theta, r_d))

    @property
    def diagonal_law(self) -> SpectralMeasure:
        """Limiting law of the deterministic diagonal D."""
        return self.mu_d

    def rows(self, n: int) -> int:
        return n

    def draw(self, rng, n: int, d: np.ndarray) -> np.ndarray:
        """One n x n sample W / sqrt(n) + diag(d)."""
        from .montecarlo import _wigner_matrix
        return _wigner_matrix(self, n, rng, d)


@dataclass(frozen=True)
class DWEdgeData:
    """Edge quantities of the semicircle free convolution with mu_d."""

    y_c: float
    r_edge: float
    x_c_dw: float
    g_edge_mu_d: float

    # the deformed Wigner model has no degenerate phase, and its rate stays
    # finite beyond the edge
    degenerate = False
    x_end = math.inf

    @property
    def r_sigma(self) -> float:
        """The spectral edge r_edge, under the name EdgeData gives it."""
        return self.r_edge


def _g_edge(mu: SpectralMeasure) -> float:
    try:
        return mu.stieltjes(mu.right_edge)
    except MeasureError as exc:
        raise SolverError(
            f"cannot decide the Stieltjes transform at the deformation edge: {exc}"
        ) from exc


def k_transform(mu: SpectralMeasure, y: float) -> float:
    """Inverse K of the Stieltjes transform of mu on (0, G_mu(r(mu)))."""
    g_edge = _g_edge(mu)
    if not 0.0 < y < g_edge:
        raise ValueError(f"y={y!r} outside the range (0, {g_edge!r}) of the transform")
    return _inverse_stieltjes(mu, y)


def dw_h(model: DeformedWignerModel, y: float) -> float:
    """Convex two-piece function y + K(y), continued as y + r(mu_d) once y
    passes the value of the Stieltjes transform at the deformation edge."""
    if y <= 0.0:
        raise ValueError(f"y must be positive, got {y!r}")
    g_edge = _g_edge(model.mu_d)
    if y >= g_edge:
        return y + model.mu_d.right_edge
    return y + _inverse_stieltjes(model.mu_d, y)


def dw_edge(model: DeformedWignerModel) -> DWEdgeData:
    """Minimize the convex H: the minimizer y_c, the spectral edge
    r_edge = H(y_c), and the analyticity threshold r(mu_d) + G(r(mu_d))."""
    mu = model.mu_d
    r = mu.right_edge
    g_edge = _g_edge(mu)
    scale = max(1.0, abs(r), mu.right_edge - mu.left_edge)
    # On the uncapped piece H'(y) = 1 + 1/G'(K(y)); its sign matches
    # phi(lam) = -G'(lam) - 1 at lam = K(y), decreasing in lam.
    phi = lambda lam: -mu.stieltjes_prime(lam) - 1.0
    lo_lam = None
    delta = scale
    for _ in range(200):
        if phi(r + delta) > 0.0:
            lo_lam = r + delta
            break
        delta *= 0.5
    if lo_lam is None:
        # derivative of H stays negative up to the cap: minimum at the kink
        if math.isinf(g_edge):
            raise SolverError("H has no interior minimum yet G diverges at the edge")
        y_c = g_edge
        r_edge = y_c + r
    else:
        hi_lam = lo_lam
        for _ in range(200):
            hi_lam = r + (hi_lam - r) * 2.0
            if phi(hi_lam) < 0.0:
                break
        else:
            raise SolverError("dw_edge bracketing failed on the flat side")
        lam_c = brentq(phi, lo_lam, hi_lam, **_BRENTQ_KW)
        y_c = mu.stieltjes(lam_c)
        r_edge = y_c + lam_c
    x_c = r + g_edge if math.isfinite(g_edge) else math.inf
    return DWEdgeData(y_c=float(y_c), r_edge=float(r_edge), x_c_dw=x_c, g_edge_mu_d=g_edge)


def dw_branches(model: DeformedWignerModel, x: float,
                edge: DWEdgeData | None = None) -> tuple[float, float]:
    """Both solutions of H(w) = x for x >= r_edge: the Stieltjes transform of
    the free convolution (smaller) and the increasing second branch (larger).
    On the capped piece the second branch is exactly x - r(mu_d).

    On the uncapped piece H(y) = x is solved in the variable lam = K(y):
    there it reads lam + G(lam) = x, avoiding nested transform inversions.
    """
    edge = edge or dw_edge(model)
    mu = model.mu_d
    r = mu.right_edge
    side = _edge_side(edge.r_edge, x)
    if side < 0:
        raise ValueError(f"x={x!r} below the spectral edge {edge.r_edge!r}")
    if side == 0:
        return edge.y_c, edge.y_c
    psi = lambda lam: lam + mu.stieltjes(lam) - x
    lam_c = edge.r_edge - edge.y_c  # K(y_c), the minimizer of lam + G(lam)
    # first branch: the larger root of psi, beyond lam_c
    hi = max(2.0 * abs(x) + 2.0, lam_c + 1.0)
    for _ in range(200):
        if psi(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise SolverError(f"dw_branches: no upper bracket at x={x!r}")
    g_small = mu.stieltjes(brentq(psi, lam_c, hi, **_BRENTQ_KW))
    if math.isfinite(edge.x_c_dw) and x >= edge.x_c_dw:
        g_bar = x - r
    else:
        # second branch: the smaller root of psi, between r(mu_d) and lam_c
        lo = None
        delta = 0.5 * (lam_c - r)
        for _ in range(300):
            if psi(r + delta) > 0.0:
                lo = r + delta
                break
            delta *= 0.5
        if lo is None:
            raise SolverError(f"dw_branches: no lower bracket at x={x!r}")
        g_bar = mu.stieltjes(brentq(psi, lo, lam_c, **_BRENTQ_KW))
    return g_small, g_bar


def dw_rate(model: DeformedWignerModel, x: float, edge: DWEdgeData | None = None) -> float:
    """Rate of the largest eigenvalue, +inf below the spectral edge: the
    shared :func:`rmtldp.rate.rate` on a deformed-Wigner model."""
    return rate(model, x, edge)


def free_convolution_density(model: DeformedWignerModel, x, eta: float):
    """Density of the semicircle free convolution with mu_d at x + i eta: the
    shared :func:`rmtldp.dyson.sigma_density` on a deformed-Wigner model."""
    return sigma_density(model, x, eta)


def free_convolution_measure(model: DeformedWignerModel, grid_points: int = 2000,
                             edge: DWEdgeData | None = None) -> SpectralMeasure:
    """Grid measure of the semicircle free convolution with mu_d, over the
    support from minimizing H on both sides: the shared
    :func:`rmtldp.dyson.sigma_measure` on a deformed-Wigner model."""
    return sigma_measure(model, grid_points, edge)


def dw_rate_variational(model: DeformedWignerModel, x: float,
                        edge: DWEdgeData | None = None,
                        sigma: SpectralMeasure | None = None,
                        verify: bool = True) -> float:
    """Rate at x through sup over theta of
    J(sc boxplus mu_d, theta, x) - theta^2 - J(mu_d, theta, r(mu_d)): the
    shared :func:`rmtldp.rate.rate_variational` on a deformed-Wigner model."""
    return rate_variational(model, x, edge, sigma, verify)


def dw_epsilon_cap(model: DeformedWignerModel, eps: float) -> DeformedWignerModel:
    """Cap the deformation: all mu_d mass within eps of its right edge is
    collapsed onto an atom at the edge, making the capped threshold infinite."""
    return DeformedWignerModel(epsilon_truncate(model.mu_d, eps), model.beta, model.entry_law)
