"""Additively deformed Wigner ensembles: the convex function H built from the
inverse Stieltjes transform of the deformation, its two inverse branches, the
rate function, the variational cross-check, the free-convolution density, and
the right-edge capping approximation."""

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
    _solve_on_grid,
    boundary_density_grid,
    grid_measure_from_density,
)
from .measures import MeasureError, SpectralMeasure
from .rate import _inverse_stieltjes, epsilon_truncate, j_fn

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

    # The same operations as CovarianceModel's, for callers of either kind.

    def edge(self) -> DWEdgeData:
        return dw_edge(self)

    def branches(self, x: float, edge: DWEdgeData) -> tuple[float, float]:
        return dw_branches(self, x, edge)

    def rate_from_branches(self, x: float, g: float, g_bar: float) -> float:
        return _dw_rate_from_branches(self, x, g, g_bar)

    def window(self, edge: DWEdgeData) -> SupportWindow:
        """Support of the free convolution: its right edge, and the left edge
        as minus the right edge for the reflected deformation."""
        mirrored = dw_edge(DeformedWignerModel(self.mu_d.reflected(), self.beta, self.entry_law))
        return SupportWindow(-mirrored.r_edge, edge.r_edge, 0.0)

    def density(self, x, eta: float, edge: DWEdgeData | None = None):
        return free_convolution_density(self, x, eta)

    def limit_measure(self, grid_points: int = 2000,
                      edge: DWEdgeData | None = None) -> SpectralMeasure:
        return free_convolution_measure(self, grid_points, edge)

    def rate(self, x: float, edge: DWEdgeData | None = None) -> float:
        return dw_rate(self, x, edge)

    def rate_variational(self, x: float, edge: DWEdgeData | None = None,
                         sigma: SpectralMeasure | None = None) -> float:
        return dw_rate_variational(self, x, edge, sigma)

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

    # the deformed Wigner model has no degenerate phase
    degenerate = False

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
    scale = max(1.0, abs(edge.r_edge))
    if x < edge.r_edge - 1e-12 * scale:
        raise ValueError(f"x={x!r} below the spectral edge {edge.r_edge!r}")
    if x <= edge.r_edge + 1e-13 * scale:
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


def _dw_rate_from_branches(model: DeformedWignerModel, x: float, g: float,
                          g_bar: float) -> float:
    """Rate at x from the two branch values G <= Gbar of H(y) = x.

    Integrating Gbar - G by parts gives (beta/2) [x (Gbar - G) - (Phi(Gbar)
    - Phi(G))] for any primitive Phi of H. Take Phi(y) = y^2/2 + lam y - L(lam)
    with lam = K(y) (lam = r(mu_d) on the capped piece) and L the logarithmic
    moment of mu_d; since lam = x - y on both branches, the x terms cancel.
    On the capped piece x - Gbar = r(mu_d); the clamp below only absorbs
    rounding there.
    """
    mu = model.mu_d
    lm = lambda y: mu.log_moment(max(x - y, mu.right_edge))
    bracket = 0.5 * (g_bar - g) * (g_bar + g) + lm(g_bar) - lm(g)
    # I >= 0 is a theorem; the bracket cancels O(1) terms, so just above the
    # edge rounding can leave it a few ulps below zero
    return 0.5 * model.beta * max(0.0, bracket)


def dw_rate(model: DeformedWignerModel, x: float, edge: DWEdgeData | None = None) -> float:
    """Rate of the largest eigenvalue: beta/2 times the integral of the
    branch gap from the spectral edge to x, in closed form from the branch
    values at x alone:

        (beta/2) [(Gbar^2 - G^2)/2 + L(x - Gbar) - L(x - G)],

    L the logarithmic moment of mu_d (see :func:`_dw_rate_from_branches`);
    +inf below the edge. Adaptive quadrature of the gap survives only as the
    test oracle.
    """
    edge = edge or dw_edge(model)
    scale = max(1.0, abs(edge.r_edge))
    if x < edge.r_edge - 1e-12 * scale:
        return math.inf
    if x <= edge.r_edge + 1e-13 * scale:
        return 0.0
    return _dw_rate_from_branches(model, x, *dw_branches(model, x, edge))


def _free_convolution_stieltjes(model: DeformedWignerModel, zs):
    """G(z) = z - omega at every z of the upper half-plane, omega the root
    of the subordination equation omega + G_mu(omega) = z with Im omega > 0."""
    mu = model.mu_d
    omegas = _solve_on_grid(lambda om: om + mu.stieltjes(om),
                            lambda om: 1.0 + mu.stieltjes_prime(om),
                            zs, lambda z: z - 1.0 / z)
    return zs - omegas


def free_convolution_density(model: DeformedWignerModel, x, eta: float):
    """Density of the semicircle free convolution with mu_d at x + i eta,
    from the subordination equation solved at every point at once."""
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    g = _free_convolution_stieltjes(model, xs + 1j * eta)
    out = np.maximum(-g.imag / math.pi, 0.0)
    return out[0] if np.asarray(x).ndim == 0 else out


def free_convolution_measure(model: DeformedWignerModel, grid_points: int = 2000,
                             edge: DWEdgeData | None = None) -> SpectralMeasure:
    """Grid measure of the semicircle free convolution with mu_d.

    Support edges come from minimizing H on both sides (the left edge via the
    reflected deformation); the boundary density is recovered from the
    subordination equation omega + G_mu(omega) = z on the whole grid at once.
    """
    edge = edge or dw_edge(model)
    window = model.window(edge)
    lo, hi = window.left, window.right
    span = hi - lo
    if span <= 0.0:
        raise SolverError(f"empty support window [{lo!r}, {hi!r}]")
    xs = boundary_density_grid(lo, hi, grid_points)
    eta_floor = 1e-9 * max(1.0, span)
    g_vals = _free_convolution_stieltjes(model, xs + 1j * eta_floor)
    dens = np.maximum(-g_vals.imag / math.pi, 0.0)
    return grid_measure_from_density(xs, dens, lo, hi, 0.0)


def dw_rate_variational(model: DeformedWignerModel, x: float,
                        edge: DWEdgeData | None = None,
                        sigma: SpectralMeasure | None = None,
                        verify: bool = True, scan_tol: float = 2e-3) -> float:
    """Rate at x through sup over theta of
    J(sc boxplus mu_d, theta, x) - theta^2 - J(mu_d, theta, r(mu_d)),
    evaluated at the optimizer theta = Gbar(x)/2 and scan-verified."""
    edge = edge or dw_edge(model)
    if sigma is None:
        sigma = free_convolution_measure(model, 2000, edge)
    if sigma.raw_mass_defect is not None and sigma.raw_mass_defect > 1e-3:
        raise SolverError(
            f"free convolution grid mass defect {sigma.raw_mass_defect!r} exceeds 1e-3"
        )
    r_d = model.mu_d.right_edge

    def objective(theta: float) -> float:
        return j_fn(sigma, theta, x) - theta * theta - j_fn(model.mu_d, theta, r_d)

    _, g_bar = dw_branches(model, x, edge)
    theta_x = 0.5 * g_bar
    value = objective(theta_x)
    if verify:
        for theta in np.geomspace(max(theta_x * 1e-3, 1e-12), max(10.0 * theta_x, 5.0), 50):
            if objective(theta) > value + scan_tol:
                raise SolverError(
                    f"variational scan found theta={theta!r} exceeding the "
                    f"optimizer value by more than {scan_tol!r}"
                )
    return model.beta * value


def dw_epsilon_cap(model: DeformedWignerModel, eps: float) -> DeformedWignerModel:
    """Cap the deformation: all mu_d mass within eps of its right edge is
    collapsed onto an atom at the edge, making the capped threshold infinite."""
    return DeformedWignerModel(epsilon_truncate(model.mu_d, eps), model.beta, model.entry_law)
