"""Additively deformed Wigner ensembles: the convex function H built from the
inverse Stieltjes transform of the deformation, its two inverse branches, the
model's side of the shared rate, variational and limit-law functions (with
entry points into them under their deformed-Wigner names), and the right-edge
capping approximation."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dyson import (
    Curve,
    Level,
    SupportWindow,
    _branches,
    _check_entry_law,
    _evaluable_floor,
    _g_at_right_edge,
    _level_edge,
    _on_points,
    brentq,  # noqa: F401  unused here; perfbench/tracing.py patches wigner.brentq
    sigma_density,
    sigma_measure,
    sigma_rule,
)
from .measures import SpectralMeasure
from .rate import epsilon_truncate, j_fn, rate, rate_variational

__all__ = [
    "DeformedWignerModel",
    "DWEdgeData",
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

    # no degenerate phase: the limit law is solved for every deformation
    degenerate = False

    def __post_init__(self):
        _check_entry_law(self.beta, self.entry_law)

    # The primitives of the shared rate, variational and limit-law functions,
    # and the solved state kept on the model, as CovarianceModel has them.

    @functools.cached_property
    def edge(self) -> DWEdgeData:
        return dw_edge(self)

    @functools.cached_property
    def window(self) -> SupportWindow:
        """Support of the free convolution: r_edge, and minus r_edge of -D, at
        lam_c = r_edge - y_c and at minus the lam_c of -D."""
        edge, reflected = self.edge, dw_edge(self.reflected())
        return SupportWindow(-reflected.r_edge, edge.r_edge, 0.0,
                             reflected.y_c - reflected.r_edge, edge.r_edge - edge.y_c)

    @functools.cached_property
    def sigma(self) -> SpectralMeasure:
        return sigma_rule(self)

    def branches(self, x):
        return _branches(self, x)

    def curve(self) -> Curve:
        """H(y) = x in the variable lam = K(y), which avoids nested transform
        inversions: x(lam) = lam + G_mu(lam) on lam > r(mu_d), and y =
        G_mu(lam) = x - lam. Off the real axis x(lam) = z is the
        subordination equation omega + G_mu(omega) = z, whose root is about
        z - 1/z far above the axis."""
        mu = self.mu_d
        return Curve(mu, lambda lam, g, gp: (lam + g, 1.0 + gp),
                     _evaluable_floor(mu, mu.right_edge), lambda z: z - 1.0 / z,
                     lambda lam, x: x - lam)

    @functools.cached_property
    def level(self) -> Level:
        """The curve with its edge. x'' = 2 integral of (lam - t)^-3 > 0, and
        x(lam) > lam puts lam = x right of the right root.

        The first branch takes G_mu(lam), where |G_mu'| < 1; the second takes
        x - lam, since there |G_mu'| > 1 (it reaches 1e11 near a
        log-divergent edge), and G_mu(lam) would magnify the error of the
        root by as much."""
        mu, edge = self.mu_d, self.edge
        curve = self.curve()
        r = mu.right_edge
        # lam_c = K(y_c), the minimizer of lam + G(lam)
        return Level(curve, max(edge.r_edge - edge.y_c, curve.floor), lambda x: x,
                     lambda lam, x: _on_points(mu.stieltjes, lam), edge.y_c, edge.x_c_dw,
                     lambda x: x - r)

    def rate_from_branches(self, x, g, g_bar):
        """Rate at x from the two branch values G <= Gbar of H(y) = x,
        elementwise over arrays; floats for scalars.

        Integrating Gbar - G by parts gives (beta/2) [x (Gbar - G) - (Phi(Gbar)
        - Phi(G))] for any primitive Phi of H. Take Phi(y) = y^2/2 + lam y - L(lam)
        with lam = K(y) (lam = r(mu_d) on the capped piece) and L the logarithmic
        moment of mu_d; since lam = x - y on both branches, the x terms cancel:

            (beta/2) [(Gbar^2 - G^2)/2 + L(x - Gbar) - L(x - G)].

        On the capped piece x - Gbar = r(mu_d); the clamp below only absorbs
        rounding there.
        """
        mu = self.mu_d
        lm = lambda y: mu.log_moment(np.maximum(x - y, mu.right_edge))
        bracket = 0.5 * (g_bar - g) * (g_bar + g) + lm(g_bar) - lm(g)
        # I >= 0 is a theorem; the bracket cancels O(1) terms, so just above the
        # edge rounding can leave it a few ulps below zero
        return 0.5 * self.beta * np.maximum(0.0, bracket)

    def reflected(self) -> DeformedWignerModel:
        """The model of the deformation -D, whose sigma is sigma reflected."""
        return DeformedWignerModel(self.mu_d.reflected(), self.beta, self.entry_law)

    def variational(self, x, sigma: SpectralMeasure):
        """(optimizer, scan end, objective) of sup over theta of
        J(sc boxplus mu_d, theta, x) - theta^2 - J(mu_d, theta, r(mu_d)),
        elementwise over an array x; the optimizer is Gbar(x)/2, of all
        points from one branch solve (:meth:`_variational_from`)."""
        return self._variational_from(x, _branches(self, x, first=False)[1], sigma)

    def _variational_from(self, x, g_bar, sigma: SpectralMeasure):
        """:meth:`variational` from the second branch g_bar = Gbar(x),
        solved by the caller: optimizers and scan ends of x's shape, and the
        objective on an array of theta of shape x.shape + (k,), row i at
        x_i."""
        xs, theta_x = np.asarray(x, dtype=float), 0.5 * np.asarray(g_bar, dtype=float)
        r_d = self.mu_d.right_edge
        return theta_x, np.maximum(10.0 * theta_x, 5.0), (
            lambda theta: j_fn(sigma, theta, xs[..., None]) - theta * theta
            - j_fn(self.mu_d, theta, r_d))

    @property
    def diagonal_law(self) -> SpectralMeasure:
        """Limiting law of the deterministic diagonal D."""
        return self.mu_d

    def rows(self, n: int) -> int:
        return n


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


def dw_edge(model: DeformedWignerModel) -> DWEdgeData:
    """Minimize the convex H: the minimizer y_c, the spectral edge
    r_edge = H(y_c), and the analyticity threshold r(mu_d) + G(r(mu_d)):
    y_c = G(lam_c) and r_edge = lam_c + y_c at the minimiser lam_c of the
    level's curve lam + G(lam) (:func:`rmtldp.dyson._level_edge`), which is
    r(mu_d) where H has its minimum at the kink. The ladder's unit is at
    least 1, since x' = 1 + G' > 0 past r(mu_d) + 1."""
    mu = model.mu_d
    r = mu.right_edge
    g_edge = _g_at_right_edge(mu)
    scale = max(1.0, abs(mu.left_edge), abs(r))
    curve = model.curve()
    lam_c = _level_edge(lambda lam: curve(lam)[1], curve.floor, scale, math.isfinite(g_edge))
    y_c = mu.stieltjes(lam_c)
    return DWEdgeData(y_c=float(y_c), r_edge=float(curve(lam_c)[0]), x_c_dw=r + g_edge,
                      g_edge_mu_d=g_edge)


def dw_branches(model: DeformedWignerModel, x: float) -> tuple[float, float]:
    """Both solutions of H(w) = x for x >= r_edge: the Stieltjes transform of
    the free convolution (smaller) and the increasing second branch (larger).
    On the capped piece the second branch is exactly x - r(mu_d)."""
    return _branches(model, x)


def _checked(model: DeformedWignerModel, edge) -> DeformedWignerModel:
    """The model, where ``edge`` is None or ``model.edge``; else ValueError."""
    if edge is not None and edge != model.edge:
        raise ValueError(f"edge {edge!r} is not the model's edge {model.edge!r}")
    return model


def dw_rate(model: DeformedWignerModel, x: float, edge=None) -> float:
    """Rate of the largest eigenvalue, +inf below the spectral edge: the
    shared :func:`rmtldp.rate.rate` on a deformed-Wigner model. ``edge`` is
    kept only for perfbench/jobs.py, which passes the edge it solved."""
    return rate(_checked(model, edge), x)


def free_convolution_density(model: DeformedWignerModel, x, eta: float):
    """Density of the semicircle free convolution with mu_d at x + i eta
    (finite eta > 0): the shared :func:`rmtldp.dyson.sigma_density` on a
    deformed-Wigner model, every point started from the seed of the
    model's support window ``model.window``."""
    return sigma_density(model, x, eta)


def free_convolution_measure(model: DeformedWignerModel, grid_points: int = 2000,
                             edge=None) -> SpectralMeasure:
    """Grid measure of the semicircle free convolution with mu_d: the
    shared :func:`rmtldp.dyson.sigma_measure` on a deformed-Wigner model,
    ``grid_points`` Chebyshev nodes over the bands of its support (the
    window from minimizing H on both sides, where a cusp leaves them
    unclassified); ``edge`` as in :func:`dw_rate`."""
    return sigma_measure(_checked(model, edge), grid_points)


def dw_rate_variational(model: DeformedWignerModel, x: float, edge=None, sigma=None) -> float:
    """Rate at x through sup over theta of
    J(sc boxplus mu_d, theta, x) - theta^2 - J(mu_d, theta, r(mu_d)): the
    shared :func:`rmtldp.rate.rate_variational` on a deformed-Wigner model;
    ``edge`` as in :func:`dw_rate`."""
    return rate_variational(_checked(model, edge), x, sigma)


def dw_epsilon_cap(model: DeformedWignerModel, eps: float) -> DeformedWignerModel:
    """Cap the deformation: all mu_d mass within eps of its right edge is
    collapsed onto an atom at the edge, making the capped threshold infinite."""
    return DeformedWignerModel(epsilon_truncate(model.mu_d, eps), model.beta, model.entry_law)
