"""Dyson-equation machinery for generalized sample covariance ensembles.

The limiting spectral measure sigma of H = (1/M) Z^T Gamma Z is characterized
by inverting y -> H(y) = 1/y + integral of alpha*u/(alpha - y*u) d rho(u).
In the spectral variable lam = alpha/y, H(y) = x(lam) on the level curve

    x(lam)  = lam (c + lam G_rho(lam)),                  c = (1 - alpha)/alpha,
    x'(lam) = c + lam (2 G_rho(lam) + lam G_rho'(lam)),

so y^2 H'(y) = -alpha x'(alpha/y). The edge, the two branches and the limit
law are all solved on this curve, of the reduced pair remove_zero_atom(rho,
alpha) (the same H, without the pole of rho's atom at 0), from its Stieltjes
transforms, so closed-form measures give machine-precision edge quantities.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, takewhile

import numpy as np

from .measures import MeasureError, SpectralMeasure, _make_component, remove_zero_atom

__all__ = [
    "REAL_ENTRY_LAWS",
    "COMPLEX_ENTRY_LAWS",
    "CovarianceModel",
    "EdgeData",
    "SolverError",
    "DegenerateModelError",
    "detect_degenerate",
    "edge_solve",
    "limit_stieltjes",
    "g_sigma",
    "g_bar_sigma",
    "support_window",
    "sigma_density",
    "sigma_measure",
    "sigma_rule",
]

REAL_ENTRY_LAWS = ("gaussian", "rademacher", "uniform_sqrt3")
COMPLEX_ENTRY_LAWS = ("complex_gaussian", "complex_rademacher")
_GAUSSIAN_LAWS = ("gaussian", "complex_gaussian")

_BRENTQ_KW = dict(rtol=8.9e-16, maxiter=300)


class SolverError(RuntimeError):
    """A root finder or continuation failed; message carries the context."""


# brentq is a line-for-line port of brentq.c in the root finders of SciPy's
# optimize package (written by Charles Harris), so it returns the same roots
# bit for bit after the same function evaluations. It is used under SciPy's
# license:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are met:
#
# 1. Redistributions of source code must retain the above copyright notice,
#    this list of conditions and the following disclaimer.
# 2. Redistributions in binary form must reproduce the above copyright
#    notice, this list of conditions and the following disclaimer in the
#    documentation and/or other materials provided with the distribution.
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived from
#    this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS"
# AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE
# IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE
# ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT HOLDER OR CONTRIBUTORS BE
# LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR
# CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
# SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS
# INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN
# CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE)
# ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF THE
# POSSIBILITY OF SUCH DAMAGE.


def brentq(f, a, b, xtol, rtol, maxiter):
    """Root of f between a and b, where f changes sign, by Brent's method.

    Stops once the bracket is narrower than xtol + rtol |x|, x the current
    estimate. A bracket without a sign change, a NaN value of f and a solve
    that does not converge in ``maxiter`` steps raise SolverError naming the
    bracket and the last iterate.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise SolverError(f"brentq: f({x!r}) is NaN in the bracket [{a!r}, {b!r}]")
        return fx

    # After the first two statements of the loop the root lies between xcur,
    # the latest estimate, and xblk, with |fcur| <= |fblk|; xpre is the
    # previous estimate.
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise SolverError(f"brentq: f({xpre!r}) = {fpre!r} and f({xcur!r}) = {fcur!r} "
                          f"have the same sign")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise SolverError(f"brentq: no convergence in {maxiter} steps in the bracket "
                      f"[{a!r}, {b!r}]; last iterate {xcur!r}, f = {fcur!r}")


class DegenerateModelError(ValueError):
    """Operation requires a nondegenerate (rho, alpha) pair."""


@dataclass(frozen=True)
class CovarianceModel:
    """Covariance ensemble parameters: rho, alpha, Dyson index, entry law."""

    rho: SpectralMeasure
    alpha: float
    beta: int = 1
    entry_law: str = "gaussian"

    def __post_init__(self):
        a = self.alpha
        if isinstance(a, bool) or not isinstance(a, numbers.Real) or not 0.0 < a < math.inf:
            raise ValueError(f"alpha must be positive and finite (a number, not a bool), got {a!r}")
        object.__setattr__(self, "alpha", float(a))
        _check_entry_law(self.beta, self.entry_law)
        if self.entry_law not in _GAUSSIAN_LAWS and self.rho.left_edge < 0.0:
            raise ValueError(
                f"entry law {self.entry_law!r} requires rho supported in [0, inf); "
                f"left edge is {self.rho.left_edge!r}"
            )

    # The primitives below are what the two model kinds do differently; rate,
    # rate_variational, sigma_density and sigma_measure are written once over
    # them, for either kind (DeformedWignerModel has the same). edge, window,
    # sigma and level are kept once solved; a solve that raises is not.

    @functools.cached_property
    def reduced(self) -> tuple[SpectralMeasure, float]:
        """(tau, alpha') = remove_zero_atom(rho, alpha), which every solve
        reads; of rho = delta_0 nothing is left: (rho, 0.0), degenerate."""
        if self.rho.edges() == (0.0, 0.0):
            return self.rho, 0.0
        return remove_zero_atom(self.rho, self.alpha)

    @functools.cached_property
    def edge(self) -> EdgeData:
        return edge_solve(self)

    @functools.cached_property
    def window(self) -> SupportWindow:
        return support_window(self)

    @functools.cached_property
    def sigma(self) -> SpectralMeasure:
        return sigma_rule(self)

    def branches(self, x):
        """(G, Gbar): the two solutions of H(y) = x, elementwise over an array
        x; floats for a scalar x."""
        return _branches(self, x)

    @property
    def degenerate(self) -> bool:
        """:func:`detect_degenerate`; the limit law of such a model is not solved."""
        return detect_degenerate(self)

    def curve(self) -> Curve:
        """H(y) = x in the variable lam = alpha'/y of the reduced pair (tau,
        alpha'): x(lam) = (1 - alpha') lam/alpha' + lam^2 G_tau(lam) on lam >
        max(r(tau), 0), and y = alpha'/lam. Far from the real axis x(lam) ~
        lam/alpha', so the root of x(lam) = z is about alpha' z there."""
        tau, a = self.reduced
        return Curve(tau, self._point, _evaluable_floor(tau, max(tau.right_edge, 0.0)),
                     lambda z: a * z, lambda lam, x: a / lam)

    def _point(self, lam, g, gp, gpp=None):
        """(x, x') at lam from G = G_tau(lam) and G' = G_tau'(lam), and x''
        = 2G + 4 lam G' + lam^2 G'' after them from a G'' = G_tau''(lam)."""
        a = self.reduced[1]
        c = (1.0 - a) / a
        pair = lam * (c + lam * g), c + lam * (2.0 * g + lam * gp)
        return pair if gpp is None else (*pair, 2.0 * g + lam * (4.0 * gp + lam * gpp))

    @functools.cached_property
    def level(self) -> Level:
        """The curve with its edge. Since lam^2/(lam - t) = lam + t + t^2/(lam
        - t), x(lam) = lam/alpha' + mean(tau) + integral of t^2/(lam - t), so
        x'' = 2 integral of t^2/(lam - t)^3 > 0, and lam = alpha' (x -
        mean(tau)) lies right of the right root."""
        (tau, a), edge = self.reduced, self.edge
        curve = self.curve()
        mean = tau.integrate(lambda u: u)
        x_c = edge.x_c
        x_cap = x_c - 1e-12 * max(1.0, abs(x_c)) if math.isfinite(x_c) else math.inf
        tmax = edge.theta_max
        return Level(curve, max(a / edge.theta_c, curve.floor), lambda x: a * (x - mean),
                     curve.y, edge.theta_c, x_cap, lambda x: np.full(x.shape, tmax),
                     None if tau.components else self._residual)

    def _residual(self, lam, x):
        """(x(lam) - x, x'(lam)) of an atomic tau, the first as lam/alpha' -
        lam + lam^2 G_tau(lam) - x in double-double arithmetic, on a float
        or elementwise on an array. The curve rounds x to a few ulps, and
        where x' is small (next to the edge) that moves its roots by more
        than their tolerance."""
        tau, a = self.reduced
        gh = gl = gp = 0.0
        for u, p in zip(tau.atom_locations.tolist(), tau.atom_weights.tolist()):
            dh, dl = _two_sum(lam, -u)
            q = p / dh
            m, ml = _two_prod(q, dh)
            gh, e = _two_sum(gh, q)
            gl = gl + (e + (((p - m) - ml) - q * dl) / dh)
            gp = gp - q / dh
        q = lam / a
        m, ml = _two_prod(q, a)
        sh, sl = _two_prod(lam, lam)
        ph, pl = _two_prod(sh, gh)
        s, e1 = _two_sum(q, -lam)
        s, e2 = _two_sum(s, ph)
        s, e3 = _two_sum(s, -x)
        return (s + (e1 + e2 + e3 + ((lam - m) - ml) / a + pl + sh * gl + sl * gh),
                self._point(lam, gh, gp)[1])

    def rate_from_branches(self, x, g, g_bar):
        """Rate at x from the two branch values G = G_sigma(x), Gbar = Gbar_sigma(x),
        elementwise over arrays; floats for scalars.

        Integrating Gbar - G by parts with H(G) = H(Gbar) = x gives
        I(x) = (beta/2) [x (Gbar - G) - (Phi(Gbar) - Phi(G))] for any primitive Phi
        of H; Phi(t) = (1 - alpha') log t - alpha' L(alpha'/t) up to a
        constant, L the logarithmic moment of tau, of the reduced pair (tau,
        alpha'). On the capped branch Gbar = theta_max and alpha'/Gbar =
        r(tau); the clamp below only absorbs rounding there.
        """
        tau, a = self.reduced
        r = tau.right_edge
        lm = lambda t: tau.log_moment(np.maximum(a / t, r))
        bracket = x * (g_bar - g) - (1.0 - a) * np.log(g_bar / g) + a * (lm(g_bar) - lm(g))
        # I >= 0 is a theorem; the bracket cancels O(1) terms, so just above the
        # edge rounding can leave it a few ulps below zero
        return 0.5 * self.beta * np.maximum(0.0, bracket)

    def reflected(self) -> CovarianceModel:
        """The model of -Gamma, whose sigma is sigma reflected, with the
        Gaussian law: sigma does not depend on the entry law."""
        return CovarianceModel(self.rho.reflected(), self.alpha)

    def variational(self, x, sigma: SpectralMeasure):
        """(optimizer, scan end, objective) of sup over theta of
        J(sigma, theta/2, x) - F(rho, theta), elementwise over an array x;
        the optimizer is Gbar_sigma(x), of all points from one branch solve
        (:meth:`_variational_from`)."""
        return self._variational_from(x, g_bar_sigma(self, x), sigma)

    def _variational_from(self, x, g_bar, sigma: SpectralMeasure):
        """:meth:`variational` from the second branch g_bar = Gbar_sigma(x),
        solved by the caller: optimizers of x's shape, scan ends that
        broadcast to it, and the objective on an array of theta of shape
        x.shape + (k,), row i at x_i. On the capped branch, with x_c
        finite, F is finite at theta_max itself, where the supremum is
        attained; with x_c infinite the optimizer approaches the open end."""
        from .rate import f_fn, j_fn
        xs, theta_x = np.asarray(x, dtype=float), np.asarray(g_bar, dtype=float)
        tmax = self.edge.theta_max
        if math.isfinite(tmax):
            cap = tmax if math.isfinite(self.edge.x_c) else tmax * (1.0 - 1e-8)
            theta_x = np.where(theta_x >= tmax * (1.0 - 1e-12), cap, theta_x)
            end = tmax * (1.0 - 1e-6)
        else:
            end = 30.0 * theta_x
        return theta_x, end, lambda theta: (j_fn(sigma, 0.5 * theta, xs[..., None])
                                            - f_fn(self, theta))

    @property
    def diagonal_law(self) -> SpectralMeasure:
        """Limiting law of the deterministic diagonal Gamma."""
        return self.rho

    def rows(self, n: int) -> int:
        """Row count m of Z in an n x n sample."""
        return int(round(self.alpha * n))


def _check_entry_law(beta: int, entry_law: str) -> None:
    """Dyson index and entry law checks shared by both model kinds."""
    if isinstance(beta, bool) or not isinstance(beta, numbers.Integral) or beta not in (1, 2):
        raise ValueError(f"beta must be the integer 1 or 2, got {beta!r}")
    if entry_law not in REAL_ENTRY_LAWS + COMPLEX_ENTRY_LAWS:
        raise ValueError(f"unknown entry law {entry_law!r}")
    if (entry_law in COMPLEX_ENTRY_LAWS) != (beta == 2):
        raise ValueError(
            f"beta={beta} requires a "
            f"{'complex' if beta == 2 else 'real'} entry law, got {entry_law!r}"
        )


@dataclass(frozen=True)
class EdgeData:
    """Solved edge quantities of the limiting measure sigma."""

    theta_max: float
    x_c: float
    theta_c: float | None
    r_sigma: float | None
    degenerate: bool
    case_tag: str | None

    @property
    def x_end(self) -> float:
        """Where the rate turns infinite again: 0 for nonpositive support,
        where the largest eigenvalue cannot reach [0, inf), else +inf."""
        return 0.0 if self.case_tag == "nonpos_edge" else math.inf


def _g_at_right_edge(mu: SpectralMeasure) -> float:
    """G_mu at the right edge r(mu), +inf where it diverges; SolverError where
    its finiteness cannot be decided (an undeclared table at the edge)."""
    r = mu.right_edge
    try:
        return mu.stieltjes(r)
    except MeasureError as exc:
        raise SolverError(f"cannot decide finiteness of G at the right edge {r!r}: {exc}") from exc


def detect_degenerate(model: CovarianceModel) -> bool:
    """True iff r(tau) <= 0 and alpha' <= 1, (tau, alpha') the reduced pair:
    r(rho) <= 0 and alpha (1 - rho({0})) <= 1, rho({0}) the atom at exactly 0."""
    tau, a = model.reduced
    return tau.right_edge <= 0.0 and a <= 1.0


def edge_solve(model: CovarianceModel) -> EdgeData:
    """Locate theta_c and the right edge r(sigma) = H(theta_c): in lam =
    alpha'/theta, (tau, alpha') the reduced pair, theta_c = alpha'/lam_c and
    r(sigma) = x(lam_c) at the minimiser lam_c of the level's curve
    (:func:`_level_edge`), with theta_max = alpha'/r(tau) (inf for r(tau) <=
    0) and x_c = x(r(tau)) where G_tau is finite at r(tau) (else inf). In the
    finite-x_c boundary case, lam_c = r(tau): theta_c = theta_max, r(sigma) = x_c."""
    tau, a = model.reduced
    r = tau.right_edge
    tmax = a / r if r > 0.0 else math.inf
    if detect_degenerate(model):
        return EdgeData(theta_max=tmax, x_c=math.inf, theta_c=None, r_sigma=None,
                        degenerate=True, case_tag=None)
    curve = model.curve()
    if r <= 0.0:
        x_c, case = math.inf, "nonpos_edge"
    elif math.isinf(_g_at_right_edge(tau)):
        x_c, case = math.inf, "pos_edge_infinite_xc"
    else:
        x_c, case = curve(r)[0], "pos_edge_finite_xc"
    capped = math.isfinite(x_c)
    lam_c = _level_edge(lambda lam: curve(lam)[1], curve.floor,
                        max(abs(tau.left_edge), abs(tau.right_edge)), capped)
    r_sigma = x_c if capped and lam_c == curve.floor else curve(lam_c)[0]
    return EdgeData(tmax, x_c, a / lam_c, r_sigma, False, case)


def _require_nondegenerate(edge: EdgeData):
    if edge.degenerate:
        raise DegenerateModelError("model is degenerate; use the degenerate rate function")


def _edge_side(r: float, x):
    """-1 below the spectral edge r, 0 at it, 1 beyond: the snap rule of the
    branches and the rate, which treat x within rounding of r as r itself.
    Elementwise over an array x; a NaN, on no side, raises ValueError."""
    if np.isnan(x).any():
        raise ValueError(f"x={x!r} holds a NaN")
    scale = max(1.0, abs(r))
    return np.where(x < r - 1e-12 * scale, -1, np.where(x <= r + 1e-13 * scale, 0, 1))


def g_sigma(model: CovarianceModel, x: float) -> float:
    """Stieltjes transform of sigma at real x >= r(sigma) (first branch).

    Unique root of H(y) = x in (0, theta_c]; strictly decreasing in x.
    """
    return _branches(model, x, second=False)[0]


def g_bar_sigma(model: CovarianceModel, x: float) -> float:
    """Second branch of the Stieltjes transform at real x.

    For x <= x_c this is the root of H(y) = x in [theta_c, theta_max); for
    x >= x_c (finite case) it is capped at theta_max. Nondecreasing in x,
    equal to theta_c at x = r(sigma).
    """
    return _branches(model, x, first=False)[1]


# -- the branch solve, shared by both model kinds -------------------------------


def _two_sum(a, b):
    """(s, e) with s = a + b rounded and a + b = s + e exactly (Knuth), on
    floats or elementwise on arrays."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """(p, e) with p = a b rounded and a b = p + e exactly (Dekker, on
    Veltkamp's halves), on floats or elementwise on arrays."""
    p = a * b
    c, d = 134217729.0 * a, 134217729.0 * b
    ah, bh = c - (c - a), d - (d - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _refined(level: Level, lam, t, d):
    """The roots lam of x = t after one Newton step on ``level.residual``,
    kept on their side (d = -1 right, +1 left) of lam_c and above the floor;
    lam where the level has no residual or the step is not finite."""
    if level.residual is None:
        return lam
    r, slope = level.residual(lam, t)
    step = r / slope
    new = d * np.minimum(d * (lam - step), d * level.lam_c)
    return np.where(np.isfinite(step), np.maximum(new, level.curve.floor), lam)


# Newton solves in the spectral variable stop once they have bracketed a root
# within 4 eps |lam|, plus 1e-14 for the inverse Stieltjes solve (the
# tolerances of the brentq solves), or raise after _NEWTON_STEPS steps
_NEWTON_XTOL = 1e-14
_NEWTON_RTOL = 4.0 * np.finfo(float).eps
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class Curve:
    """The level curve x(lam) of a model kind, on which H(y) = x reads x(lam)
    = x; it needs no edge. ``point(lam, g, gp)`` is the kind's one formula
    for (x(lam), x'(lam)) from G = G_mu(lam) and G' = G_mu'(lam), mu the
    ``measure``, on floats, real arrays and complex arrays; ``point(lam, g,
    gp, gpp)`` appends x''(lam) from G'' = G_mu''(lam). ``floor`` is the
    lowest real point where x is evaluated. ``y(lam, x)`` maps a root of
    x(lam) = x to its y; off the real axis that is G_sigma(z) for the root
    of x(lam) = z in the upper half-plane, which ``seed(z)`` approximates
    far above the axis. Called on a real float or array lam, the curve
    returns (x, x') from the measure's ``stieltjes_pair`` at lam by
    :func:`_on_points`: on its float path at a float and at up to
    ``_FLOAT_POINTS`` points, in one array call on more."""

    measure: SpectralMeasure
    point: Callable
    floor: float
    seed: Callable
    y: Callable

    def __call__(self, lam):
        return self.point(lam, *_on_points(self.measure.stieltjes_pair, lam))


@dataclass(frozen=True)
class Level:
    """A model's :class:`Curve` with its edge: the level-set equation x(lam)
    = x, whose two roots give the two branches. ``curve(lam)`` returns
    (x(lam), x'(lam)) at a float or on an array; x is convex on (floor, inf),
    the curve's floor, with its minimum r(sigma) at ``lam_c``. ``start(x)``
    is a point right of each right root. ``first(lam, x)`` is the first
    branch at a right root, and the curve's ``y(lam, x)`` the second branch
    at a left root; from ``x_cap`` on, the second branch is ``cap(x)``
    instead, and from ``x_floor`` on it is taken at the floor
    (:func:`_x_floor`). At r(sigma) both branches are ``at_edge``.
    ``residual(lam, x)``, where given, is (x(lam) - x to about eps^2 of its
    terms, x'(lam)), and each root takes one Newton step on it after
    :func:`_monotone_newton`, the kernel that also inverts G_mu for J."""

    curve: Curve
    lam_c: float
    start: Callable
    first: Callable
    at_edge: float
    x_cap: float
    cap: Callable
    residual: Callable | None = None

    @functools.cached_property
    def x_floor(self) -> float:
        return _x_floor(self.curve)


def _x_floor(curve: Curve) -> float:
    """x at the floor, or inf where the floor lies more than 1e-14 |floor|
    past the measure's right edge r (beside a tiny top atom). A left root of
    x(lam) = x at or above it lies in (r, floor], inside the snap window of
    the edge transforms, and the floor stands for it: off by less than floor
    - r in lam, so in Gbar by less than floor - r (deformed Wigner, x - lam)
    or (floor - r)/r relative (covariance, alpha/lam), and in the rate by
    beta/2 (x - x(floor)) times that."""
    if not curve.floor - curve.measure.right_edge <= 1e-14 * abs(curve.floor):
        return math.inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return curve(curve.floor)[0]


# up to this many points, transforms are evaluated and roots solved one by
# one on floats
_FLOAT_POINTS = 2


def _on_points(transform, lam):
    """A transform of a measure (``stieltjes``, ``stieltjes_prime`` or
    ``stieltjes_pair``) at a float lam, or at the points of an array lam,
    off the support. A float and up to ``_FLOAT_POINTS`` points take the
    float path of the transform, one call per point, which returns the
    array path's bits at a twentieth of its cost on atoms and closed forms
    (about 1 against 20 us per call); more points take one array call. On
    points, a pair comes back as a pair of arrays."""
    if isinstance(lam, float):
        return transform(lam)
    if lam.size <= _FLOAT_POINTS:
        return np.array([transform(v) for v in lam.tolist()]).T
    return transform(lam)


def _evaluable_floor(mu: SpectralMeasure, lo: float) -> float:
    """lo, or the first point past the snap window of mu's right edge when
    lo lies inside it and G_mu diverges at the edge: inside the window
    :meth:`SpectralMeasure.stieltjes` is +inf at any distance from the edge."""
    past = mu.past_right_snap()
    return past if lo < past and mu.edge_stieltjes_finite() is not True else lo


def _level_edge(slope, floor: float, scale: float, capped: bool) -> float:
    """lam_c, the minimiser of a level's convex x(lam) on [floor, inf): the
    one root of the increasing slope x', or the floor where x' >= 0 there
    and x is finite (``capped``, a finite x_c). The edge solve of both model
    kinds.

    The root is bracketed on the ladder floor + scale 2^k, on floats: down
    from k = 0 while x' > 0 (to k = -64, then the floor) or up while x' <= 0
    (to k = 64). Where x' is not finite at an end of the bracket (it is -inf
    where G' overflows next to a pole, or diverges at a capped floor), the
    bracket is halved until it is finite at both; a capped floor with no
    float between it and the upper end is the edge. brentq solves the root
    to 1e-16 (hi - floor) + 8.9e-16 |lam|, a relative tolerance: lam_c can
    be 1e-15 at scale 1, or 1e-100 at scale 1e-100. x' > 0 down to a floor
    that is no cap (the minimum lies inside the snap window of the edge
    transforms) and a bracket that cannot be halved to finite ends raise
    SolverError.
    """
    lo = hi = floor + scale
    d_lo = d_hi = slope(lo)
    if d_lo > 0.0:
        probes = (floor + scale * 2.0**-k for k in range(1, 65))
        for lo in chain(takewhile(lambda p: p > floor, probes), [floor]):
            d_lo = slope(lo)
            if not d_lo > 0.0:
                break
            hi, d_hi = lo, d_lo
        else:
            if capped:
                return floor
            raise SolverError(f"edge: x' > 0 down to the floor {floor!r}; the minimum of x(lam) "
                              f"lies inside the snap window of the edge transforms")
    else:
        for k in range(1, 65):
            hi = floor + scale * 2.0**k
            d_hi = slope(hi)
            if d_hi > 0.0:
                break
            lo, d_lo = hi, d_hi
        else:
            raise SolverError(f"edge: x' <= 0 on every probe up to {hi!r}")
    while not (math.isfinite(d_lo) and math.isfinite(d_hi)):
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            if capped and lo == floor:
                return floor
            raise SolverError(f"edge: x' is {d_lo!r} and {d_hi!r} at the ends of the bracket "
                              f"[{lo!r}, {hi!r}] of its root, with no float between them")
        d_mid = slope(mid)
        if d_mid > 0.0:
            hi, d_hi = mid, d_mid
        else:
            lo, d_lo = mid, d_mid
    return brentq(slope, lo, hi, xtol=1e-16 * (hi - floor), **_BRENTQ_KW)


def _branches(model, x, first: bool = True, second: bool = True):
    """(G, Gbar) of either model kind at x, elementwise over an array x;
    floats for a scalar x. A branch not asked for is NaN.

    The roots of all points come from one Newton solve on the model's
    :class:`Level`: the right root gives the first branch, the left root the
    second, unless the second is capped there or its root lies inside the
    snap window of the edge transforms, where the floor stands for it
    (:func:`_x_floor`).
    """
    edge = model.edge
    _require_nondegenerate(edge)
    xs = np.asarray(x, dtype=float)
    side = _edge_side(edge.r_sigma, xs)
    if (side < 0).any():
        below = float(np.min(xs[side < 0]))
        raise ValueError(f"x={below!r} below r(sigma)={edge.r_sigma!r}: H(y) = x has no solution")
    if second and (xs >= edge.x_end).any():
        outside = float(np.max(xs))
        raise ValueError(f"x={outside!r} outside the domain [r(sigma), {edge.x_end!r}) "
                         f"of the second branch")
    level = model.level
    g = np.full(xs.shape, level.at_edge if first else math.nan)
    g_bar = np.full(xs.shape, level.at_edge if second else math.nan)
    beyond = side > 0
    capped = beyond & (xs >= level.x_cap) & second
    g_bar[capped] = level.cap(xs[capped])
    floored = beyond & ~capped & (xs >= level.x_floor) & second
    if floored.any():
        g_bar[floored] = level.curve.y(level.curve.floor, xs[floored])
    right = beyond & first
    left = beyond & ~capped & ~floored & second
    t_right, t_left = xs[right], xs[left]
    if t_right.size or t_left.size:
        lam = _level_roots(level, t_right, t_left)
        if t_right.size:
            g[right] = level.first(lam[:t_right.size], t_right)
        if t_left.size:
            g_bar[left] = level.curve.y(lam[t_right.size:], t_left)
    if xs.ndim == 0:
        return float(g), float(g_bar)
    return g, g_bar


def _probe_starts(curve, t, probes, root: str):
    """For each target t, the first of ``probes`` at which x > t, with
    (x, x') there, from one evaluation of the curve."""
    px, pxp = curve(probes)
    above = px > t[:, None]
    hit = above.any(axis=1)
    if not hit.all():
        i = int(np.argmin(hit))
        raise SolverError(f"no probe brackets the {root} root of x(lam) = x at x={float(t[i])!r}")
    j = above.argmax(axis=1)
    return probes[j], px[j], pxp[j]


def _first_probe_above(curve, t: float, probes, root: str):
    """The first of ``probes`` at which x > t, with (x, x') there, from one
    evaluation of the curve per probe tried: :func:`_probe_starts` on one
    target, on floats."""
    for probe in probes:
        px, pxp = curve(probe)
        if px > t:
            return probe, px, pxp
    raise SolverError(f"no probe brackets the {root} root of x(lam) = x at x={float(t)!r}")


# a probe or trial next to a pole of G_mu may overflow it to +inf; an
# infinite x gives a NaN Newton point, and the step is then the tolerance
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _level_root(level: Level, t: float, d: float) -> np.float64:
    """The right root (d = -1) or the left root (d = +1) of x(lam) = t by the
    steps of :func:`_level_roots` and :func:`_monotone_newton` on numpy
    floats: the same starts, probes, Newton points and stopping test, so the
    same bits. On one or two roots
    the numpy calls of the array solve cost several times the solve."""
    curve, lam_c, floor = level.curve, level.lam_c, level.curve.floor
    t = np.float64(t)
    if d < 0:
        lam = np.float64(max(level.start(t), lam_c))
        xv, xp = curve(lam)
        if not (lam > lam_c and xv >= t):
            w = max(abs(lam_c), 1.0)
            lam, xv, xp = _first_probe_above(
                curve, t, (np.float64(lam_c + w * 2.0**k) for k in range(64)), "right")
    else:
        probes = (np.float64(floor + (lam_c - floor) * 2.0**-k) for k in range(1, 65))
        lam, xv, xp = _first_probe_above(
            curve, t, chain(takewhile(lambda p: p > floor, probes), [np.float64(floor)]), "left")
    xtol = _NEWTON_RTOL * 2.0**-64 * (lam_c - floor)
    bound = d * lam_c
    for _ in range(_NEWTON_STEPS):
        q = (xv - t) / xp
        newton = lam - q
        # np.fmax and np.minimum of the array solve: a NaN step gives way to
        # the tolerance, and a NaN point stays NaN
        step, tol = -d * q, xtol + _NEWTON_RTOL * abs(lam)
        u = d * lam + (step if step >= tol else tol)
        lam = d * (bound if u > bound else u)
        xv, xp = curve(lam)
        if xv <= t:
            if math.isnan(newton):
                raise SolverError(f"branch solve at x={float(t)!r}: the Newton point is NaN")
            return np.float64(_refined(level, newton, t, d))
    raise SolverError(f"branch solve at x={float(t)!r}: no convergence in {_NEWTON_STEPS} "
                      f"Newton steps; last iterate {float(lam)!r}")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _level_roots(level: Level, t_right: np.ndarray, t_left: np.ndarray) -> np.ndarray:
    """The right roots of x(lam) = t for the targets ``t_right`` followed by
    the left roots for ``t_left``, every target above r(sigma).

    Right roots start at ``level.start(t)``, or, where that point does not
    lie right of the root, at the first doubling probe lam_c + w 2^k that
    does. Left roots start at the nearest probe floor + (lam_c - floor) 2^-k,
    k <= 64, or at the floor itself, at which x > t. The floor brackets every
    left root the level can reach: there x is x_c, 0 (nonpositive support) or
    its value just past the snap window. One array evaluation of the probes
    serves every target.

    All roots are then solved at once by :func:`_monotone_newton`, no step
    past lam_c, to the tolerance 4 eps |lam|. The tolerance
    has no absolute part of the scale of the model (the 1e-14 of the brentq
    solves): a left root can lie 1e-12 from a pole at 1e-6 next to an atom
    at -1, and such a part stops Newton before it has the root to 1e-16.
    Only 4 eps 2^-64 (lam_c - floor), below the finest probe spacing, is
    added, so that a start at a floor lam = 0, where x' is -inf, moves.
    Where the level has a residual, each root then takes one Newton step on
    it (:func:`_refined`): the curve's rounding no longer limits the root.

    Up to ``_FLOAT_POINTS`` roots are solved one by one on floats by
    :func:`_level_root`, with the same bits.
    """
    if t_right.size + t_left.size <= _FLOAT_POINTS:
        return np.array([_level_root(level, t, -1.0) for t in t_right.tolist()]
                        + [_level_root(level, t, 1.0) for t in t_left.tolist()])
    curve, lam_c, floor = level.curve, level.lam_c, level.curve.floor
    n_right = t_right.size
    if n_right:
        lam = np.maximum(level.start(t_right), lam_c)
        xv, xp = curve(lam)
        bad = ~((lam > lam_c) & (xv >= t_right))
        if bad.any():
            doubling = lam_c + max(abs(lam_c), 1.0) * np.exp2(np.arange(64.0))
            lam[bad], xv[bad], xp[bad] = _probe_starts(curve, t_right[bad], doubling, "right")
    if t_left.size:
        probes = floor + (lam_c - floor) * np.exp2(-np.arange(1.0, 65.0))
        probes = np.append(probes[probes > floor], floor)
        starts = _probe_starts(curve, t_left, probes, "left")
        if n_right:
            lam, xv, xp = (np.concatenate(pair) for pair in zip((lam, xv, xp), starts))
        else:
            lam, xv, xp = starts
    t = np.concatenate((t_right, t_left))
    d = np.repeat([-1.0, 1.0], [n_right, t_left.size])
    xtol = _NEWTON_RTOL * 2.0**-64 * (lam_c - floor)
    roots = _monotone_newton(curve, t, d, d * lam_c, xtol, lam, xv, xp,
                             lambda i: f"branch solve at x={float(t[i])!r}")
    return _refined(level, roots, t, d)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _monotone_newton(curve, t, d, bound, xtol: float, lam, xv, xp, name) -> np.ndarray:
    """The roots of x(lam) = t on a convex curve, elementwise over the
    targets t, by Newton's method from one side: each start lam, where x =
    xv > t and x' = xp, lies right of its root (d = -1) or left of it (d =
    +1). In u = d lam the iterates rise monotonically to the root, each
    step is at least xtol + 4 eps |lam|, and none passes ``bound`` in u. The
    Newton point before the first trial at which x <= t, which brackets the
    root within the tolerance, is returned; a NaN step gives way to the
    tolerance. SolverError names target i by ``name(i)`` after
    ``_NEWTON_STEPS`` steps, or where its root is NaN."""
    roots = np.empty(t.size)
    live = np.arange(t.size)
    for _ in range(_NEWTON_STEPS):
        q = (xv - t) / xp
        newton = lam - q
        u = np.minimum(d * lam + np.fmax(-d * q, xtol + _NEWTON_RTOL * np.abs(lam)), bound)
        lam = d * u
        xv, xp = curve(lam)
        crossed = xv <= t
        if crossed.any():
            roots[live[crossed]] = newton[crossed]
            keep = ~crossed
            live = live[keep]
            if not live.size:
                break
            lam, xv, xp, t, d, bound = (v[keep] for v in (lam, xv, xp, t, d, bound))
    else:
        raise SolverError(f"{name(live[0])}: no convergence in {_NEWTON_STEPS} Newton steps; "
                          f"last iterate {float(lam[0])!r}")
    bad = np.isnan(roots)
    if bad.any():
        raise SolverError(f"{name(int(np.argmax(bad)))}: the Newton point is NaN")
    return roots


# -- support window and density recovery ---------------------------------------


@dataclass(frozen=True)
class SupportWindow:
    """The window [left, right] of the support of sigma's continuous part,
    the mass of sigma's atom at 0, and the points lam_left < lam_right of
    the level curve at the window's ends: lam_right is the level's lam_c,
    where x(lam) = right, and lam_left is minus the reflected model's lam_c
    (0 where that model is degenerate), in the curve's variable (alpha'/y of
    the reduced pair for covariance), from the edge solves that give the
    window. Its :meth:`seed` starts every limit-law point (:func:`limit_stieltjes`)."""

    left: float
    right: float
    zero_atom: float
    lam_left: float
    lam_right: float

    def seed(self, z):
        """A start for the root lam of x(lam) = z at every z of an array
        above the real axis: the inverse Joukowski map of the window,

            lam_0 = (lam_l + lam_r)/2 + (lam_r - lam_l)/2 (u + sqrt(u - 1) sqrt(u + 1)),

        u = (z - (l + r)/2) / ((r - l)/2), which takes the upper half-plane
        onto the outside of the disc on [lam_l, lam_r], and z over the
        window onto its upper half-circle. For a point mass rho or mu_D the
        roots over the band lie on that circle (Marchenko-Pastur; the
        semicircle's omega), and lam_0 is the root itself or near it."""
        mid, half = 0.5 * (self.left + self.right), 0.5 * (self.right - self.left)
        u = (z - mid) / half
        w = u + np.sqrt(u - 1.0) * np.sqrt(u + 1.0)
        return 0.5 * (self.lam_left + self.lam_right) + 0.5 * (self.lam_right - self.lam_left) * w


def support_window(model: CovarianceModel) -> SupportWindow:
    """Support window [l(sigma'), r(sigma)] of the continuous part of sigma,
    plus the exact zero-atom mass max(0, 1 - alpha'), and the points lam =
    alpha'/theta_c of the level curves at the window's ends, alpha' of the
    reduced pair.

    Replacing Gamma by -Gamma turns H into -H, so sigma of the reflected rho
    is sigma reflected, and the left edge is minus r(sigma) of the reflected
    model (the rule of the deformed-Wigner window), at minus that model's
    lam_c. When it is degenerate (l(tau) >= 0, alpha' <= 1), the continuous
    part is bounded below by 0 (a hard edge, or an atom at 0), at lam = 0.
    """
    edge = model.edge
    _require_nondegenerate(edge)
    a = model.reduced[1]
    zero_atom = max(0.0, 1.0 - a)
    mirror = model.reflected()
    if mirror.degenerate:
        left = lam_left = 0.0
    else:
        try:
            reflected = edge_solve(mirror)
        except SolverError as exc:
            # the reflected model's message speaks of its own right edge
            raise SolverError(
                f"left edge of sigma, at l(rho) = {model.rho.left_edge!r}: solving the reflected "
                f"model, whose right edge is -l(rho), failed: {exc}"
            ) from exc
        left, lam_left = -reflected.r_sigma, -a / reflected.theta_c
    if zero_atom > 0.0:
        left = min(left, 0.0)
    return SupportWindow(left, edge.r_sigma, zero_atom, lam_left, a / edge.theta_c)


# the heights of a descent, in units of max(1, largest |z|), by decades; the
# Newton steps a point may take on one height; and the stopping tests
# relative to max(1, |target|): loose above height 0, where a root only has
# to seed the next height inside its basin, and tight at height 0.
_DECADES = np.append(np.geomspace(1.0, 1e-12, 13), 0.0)
_LEVEL_STEPS = 120
_LOOSE_TOL = 1e-3
_TIGHT_TOL = 1e-12

# the Newton steps a point may take at its own height from the window's seed
_SEEDED_STEPS = 8


# here and in the descent a NaN or infinite value of h or h' only yields a
# trial that is rejected, or a step to one
@np.errstate(divide="ignore", invalid="ignore")
def _seeded(h_pair, zs, start):
    """Solve h(w) = z at every point of the 1-D array ``zs`` (Im z >= 0) at
    once from ``start(z)``, which approximates the root at z itself: the
    first solve of every limit-law point. ``h_pair(w)`` returns (h(w),
    h'(w)) on an array w.

    Each point whose start lies in the upper half-plane walks the one
    height 0 (:func:`_walk`), non-strict, with at most ``_SEEDED_STEPS``
    steps. The upper half-plane holds exactly one root, so a converged
    point has the descent's root up to rounding. A point whose start lies
    outside it, or that does not converge, is NaN; :func:`limit_stieltjes`
    descends it.
    """
    if not zs.size:
        return zs.copy()
    w = np.asarray(start(zs), dtype=complex)
    inside = w.imag > 0.0
    roots = np.full(zs.size, np.nan, dtype=complex)
    roots[inside] = _walk(h_pair, zs[inside], (0.0,), w[inside], _SEEDED_STEPS, strict=False)
    return roots


def _descend(h_pair, zs, seed):
    """Solve h(w) = z at every point of ``zs`` by descending from high above
    the real axis: the solve of the points that :func:`_seeded` leaves
    unsolved, and of every point where the model's support window cannot be
    solved (:func:`limit_stieltjes`).

    Each point starts from ``seed(z + i scale)``, scale = max(1, max |z|),
    where the seed lies on the physical branch, and walks the heights
    ``scale * _DECADES`` (1, 1e-1, ..., 1e-12, 0) over z, strict, each
    height started from the root of the one above (:func:`_walk`).
    Iterates never leave the upper half-plane in lam, where the seed lies
    and which holds exactly one root, so the ladder cannot reach a wrong
    root; it can only stall, and then raises SolverError naming z, the
    height and the residual. That is about 14.5 ``h_pair`` evaluations per
    point for a covariance model and 12.5 for a deformed-Wigner one on the
    benchmark models.
    """
    heights = max(1.0, float(np.max(np.abs(zs)))) * _DECADES
    return _walk(h_pair, zs, heights, seed(zs + 1j * heights[0]), _LEVEL_STEPS)


def _walk(h_pair, zs, heights, w, max_steps, strict=True):
    """The roots w of h(w) = z from the starts w, walked down ``heights``
    over z: one call of :func:`_newton` per height, every point started
    from its root on the height above, with the stopping test ``_LOOSE_TOL
    * max(1, |target|)`` above height 0 and ``_TIGHT_TOL`` at 0; the roots
    then take :func:`_polished`."""
    solved = w, *h_pair(w)
    for height in heights:
        tol = _LOOSE_TOL if height > 0.0 else _TIGHT_TOL
        solved = _newton(h_pair, zs, height, tol, *solved, max_steps, strict)
    return _polished(h_pair, zs, *solved)


@np.errstate(divide="ignore", invalid="ignore")
def _newton(h_pair, zs, height, tol, w, hw, hp, max_steps, strict=True):
    """Damped Newton on h(w) = z + i height at every point of ``zs`` from w,
    where (h(w), h'(w)) = (hw, hp): one level of the descent, or the seeded
    solve at height 0, in place on w, hw and hp, which it returns.

    Each round the points that fail the stopping test ``|h(w) - target| <=
    tol max(1, |target|)``, held by their index, take the Newton step,
    halved at most 40 times until the trial stays in the upper half-plane
    and lowers the residual. A point out of steps (``max_steps``) or of
    halvings has failed: with ``strict`` the first one raises SolverError
    naming z, the height and the residual, else it is set to NaN."""
    target = zs + 1j * height
    tols = tol * np.maximum(1.0, np.abs(target))

    def fail(at, why):
        if strict:
            z = complex(zs[at[0]])
            raise SolverError(f"Newton {why} at z={z!r}, height {float(height)!r} above it; "
                              f"residual {float(abs(hw[at[0]] - z - 1j * float(height)))!r}")
        w[at] = hw[at] = hp[at] = np.nan

    live = np.flatnonzero(~(np.abs(hw - target) <= tols))
    for _ in range(max_steps):
        if not live.size:
            break
        res = hw[live] - target[live]
        todo, step, limit, lam = live, res / hp[live], np.abs(res), 1.0
        for _ in range(40):
            trial = w[todo] - lam * step
            # a trial on or below the real axis is rejected like one that
            # does not reduce the residual; so are NaNs
            inside = trial.imag > 0.0
            h_trial, hp_trial = np.full((2, todo.size), np.nan, dtype=complex)
            h_trial[inside], hp_trial[inside] = h_pair(trial[inside])
            better = np.abs(h_trial - target[todo]) < limit
            took = todo[better]
            w[took], hw[took], hp[took] = trial[better], h_trial[better], hp_trial[better]
            rest = ~better
            todo, step, limit = todo[rest], step[rest], limit[rest]
            if not todo.size:
                break
            lam *= 0.5
        else:
            fail(todo, "stalled")
            live = np.setdiff1d(live, todo, assume_unique=True)
        # each point left took a trial this round, so its residual is no NaN
        live = live[np.abs(hw[live] - target[live]) > tols[live]]
    if live.size:
        fail(live, "did not converge")
    return w, hw, hp


@np.errstate(divide="ignore", invalid="ignore")
def _polished(h_pair, zs, w, hw, hp):
    """The roots w of h(w) = z, where (h(w), h'(w)) = (hw, hp), each after
    one more full Newton step on z where that stays in the upper half-plane
    and does not raise the residual: the stopping test bounds the
    residual, not the error in w. The last step of every solve; a NaN root
    stays NaN."""
    trial = w - (hw - zs) / hp
    keep = trial.imag > 0.0
    h_trial = h_pair(trial[keep])[0]
    keep[keep] = np.abs(h_trial - zs[keep]) <= np.abs(hw[keep] - zs[keep])
    return np.where(keep, trial, w)


def limit_stieltjes(model, zs: np.ndarray) -> np.ndarray:
    """G_sigma(z) at every z of an array on or above the real axis, for
    either model kind: the root lam of x(lam) = z in the upper half-plane in
    lam on the model's curve, solved by :func:`_seeded` on the curve's
    formula (damped Newton in :func:`_newton`, one ``stieltjes_pair`` per
    trial) and mapped to G_sigma by the curve's y.

    Every point starts at its own height from the seed of ``model.window``
    (:meth:`SupportWindow.seed`), and only the points that fail to converge
    from it descend together from the curve's seed far above the axis, by
    the one ladder of decades (:func:`_descend`), which raises SolverError
    where a point stalls; only through the scale of that descent does a
    root depend on the other points of ``zs``. Where the window raises SolverError
    every point descends; such a window is not kept, so each call tries it again. A
    degenerate covariance model is refused, and so is a z that is not finite
    or lies below the real axis (ValueError)."""
    if model.degenerate:
        raise DegenerateModelError("model is degenerate; use the degenerate rate function")
    zs = np.asarray(zs, dtype=complex)
    bad = ~np.isfinite(zs) | (zs.imag < 0.0)
    if bad.any():
        raise ValueError(f"z must be finite with Im z >= 0, got {complex(zs[bad][0])!r}")
    curve = model.curve()
    mu = curve.measure

    def h_pair(v):
        return curve.point(v, *mu.stieltjes_pair(v))

    try:
        start = model.window.seed
    except SolverError:
        lam = np.full(zs.shape, np.nan, dtype=complex)
    else:
        lam = _seeded(h_pair, zs, start)
    failed = np.isnan(lam)
    if failed.any():
        lam[failed] = _descend(h_pair, zs[failed], curve.seed)
    return curve.y(lam, zs)


def sigma_density(model, x, eta: float):
    """Density approximation -Im G_sigma(x + i eta) / pi at real x, for a
    finite eta > 0 and either model kind (sigma is then the model's limiting
    measure), by :func:`limit_stieltjes` at every z = x + i eta at once.
    """
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValueError(f"eta must be finite and positive, got {eta!r}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    g = limit_stieltjes(model, xs + 1j * eta)
    out = np.maximum(-g.imag / math.pi, 0.0)
    return out[0] if np.asarray(x).ndim == 0 else out


def _chebyshev_rule(a: float, b: float, n: int):
    """The n nodes t_k = c + h cos(theta_k), theta_k = pi (k + 1/2)/n, of
    [a, b] (centre c, half-width h) in ascending order, and their weights h
    (pi/n) sin(theta_k): the midpoint rule in theta of the integral of f
    over [a, b], h times that of f(c + h cos(theta)) sin(theta) over [0,
    pi]. It is Gauss-Chebyshev (Abramowitz & Stegun 25.4.38), exact where
    f(t) sqrt(1 - u^2), u = (t - c)/h, is a polynomial in u of degree at
    most 2n - 1."""
    theta = math.pi * (np.arange(n)[::-1] + 0.5) / n
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    return c + h * np.cos(theta), h * (math.pi / n) * np.sin(theta)


def _sigma_on(model, edges, counts) -> SpectralMeasure:
    """sigma of either model kind on the intervals ``edges``, the Chebyshev
    rule of ``counts[i]`` nodes on interval i (:func:`_chebyshev_rule`),
    plus the exact zero atom when present.

    A node's mass is its weight times the density f from one limit-law
    solve of all nodes, at height ``_RULE_ETA`` h on an interval of
    half-width h, the zero atom's Cauchy term removed. At sigma's
    square-root and hard edges f(t) sin(theta) is smooth in theta, so the
    rule needs no edge fits. The masses are renormalized to 1 minus the
    zero atom and the raw mass defect is recorded; nodes of zero mass are
    dropped, and each interval that keeps a node is one table component. An
    empty interval, and a density that vanishes on every node, raise SolverError."""
    for a, b in edges:
        if not a < b:
            raise SolverError(f"empty support window [{a!r}, {b!r}]")
    rules = [_chebyshev_rule(a, b, n) for (a, b), n in zip(edges, counts)]
    ts = np.concatenate([t for t, _ in rules])
    zs = ts + 1j * np.repeat([_RULE_ETA * 0.5 * (b - a) for a, b in edges], counts)
    g = limit_stieltjes(model, zs)
    zero_atom = model.window.zero_atom
    if zero_atom > 0.0:
        g = g - zero_atom / zs
    masses = np.concatenate([w for _, w in rules]) * np.maximum(-g.imag / math.pi, 0.0)
    total = float(masses.sum())
    if not total > 0.0:
        raise SolverError("recovered density vanishes on every node")
    masses *= (1.0 - zero_atom) / total
    at = np.cumsum(counts)[:-1]
    comps = [_make_component("table", a, b, None, t[m > 0.0], m[m > 0.0], edge_finite_g=True)
             for (a, b), t, m in zip(edges, np.split(ts, at), np.split(masses, at)) if m.any()]
    atoms = ([0.0], [zero_atom]) if zero_atom > 0.0 else ((), ())
    return SpectralMeasure(atoms[0], atoms[1], comps,
                           raw_mass_defect=abs(1.0 - (zero_atom + total)))


def sigma_measure(model, grid_points: int = 2000) -> SpectralMeasure:
    """Grid discretization of the limiting measure sigma of either model
    kind: the Chebyshev rule of :func:`_sigma_on` on the bands of sigma's
    continuous part (:func:`_sigma_bands`), or on ``model.window`` where
    those cannot be found, plus the exact zero atom when present.

    ``grid_points`` must be an integer of at least 3; it is split evenly
    over the bands, at least 3 per band. The masses are renormalized to
    total mass 1; the raw mass defect is recorded on the returned measure
    as a quality metric.
    """
    if not isinstance(grid_points, numbers.Integral) or grid_points < 3:
        raise ValueError(f"grid_points must be an integer of at least 3, got {grid_points!r}")
    return _sigma_grid(model, _sigma_bands(model), grid_points)


def _sigma_grid(model, bands, grid_points: int) -> SpectralMeasure:
    """:func:`sigma_measure` on the bands found already, the window where
    they are None."""
    edges = bands or [(model.window.left, model.window.right)]
    k = len(edges)
    counts = [max(3, grid_points // k + (i < grid_points % k)) for i in range(k)]
    return _sigma_on(model, edges, counts)


# -- the bands of sigma ------------------------------------------------------------
#
# sigma_rule takes _BAND_NODES Chebyshev nodes on each band, f from the
# limit-law solve at height _RULE_ETA h. On wishart1, semicircle-rho,
# neg-wishart, two-atom, uniform-rho, table-rho, dw-point and dw-uniform at
# K = 64 the raw mass defect was at most 3.3e-14 and the rule took 0.3-0.8
# ms to build (2.0 on the 400-node table-rho), against 0.8-4.8 ms (42) for
# the 2000-point grid (2-core host, one BLAS thread). At K = 128 and 256 it
# took 0.4-1.3 ms (3.5 and 6.8 on table-rho), but J sums K nodes at each of
# its 51 theta. A rule whose raw mass defect exceeds _RULE_DEFECT, 30 times
# the largest seen, gives way to the grid of _GRID_FALLBACK points on the
# same bands.
_BAND_NODES = 64
_RULE_ETA = 1e-14
_RULE_DEFECT = 1e-12
# the largest x' on a gap of the curve's measure within this of 0 is a cusp
# (x' = x'' = 0), whose density goes like |t - t0|^(1/3): no band edge
_CUSP_SLOPE = 1e-9
_GRID_FALLBACK = 2000


def _gap_curve(curve: Curve, lam):
    """(x, x', x'') of the curve at real points lam in a gap of its
    measure's support, which the measure's own transforms refuse between
    its hull's ends: its array body, on at least one point."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return curve.point(lam, *curve.measure._transforms(lam, 2))


def _gap_slope(curve: Curve):
    """x' of :func:`_gap_curve` at a float, as a float."""
    return lambda lam: float(_gap_curve(curve, lam)[1][0])


def _slope_root(slope, inner: float, end: float):
    """The root of ``slope``, x' or +-x'' on a gap, between ``inner``, where
    it is > 0, and ``end``, a pole or an edge of the curve's measure, on
    whose side it falls: brentq from the first probe end + (inner - end)
    2^-k, k <= 52, at which it is < 0. None where it stays nonnegative up to
    the end (for x', an edge at the measure's own edge, not a square-root
    edge)."""
    prev = inner
    for k in range(1, 53):
        probe = end + (inner - end) * 2.0**-k
        if slope(probe) < 0.0:
            return brentq(slope, prev, probe, xtol=1e-16 * abs(inner - end), **_BRENTQ_KW)
        prev = probe
    return None


def _interior_gaps(curve: Curve, pieces):
    """The gaps (x(lam1), x(lam2)) of sigma that lie over the gaps between
    ``pieces``, the sorted disjoint intervals of the curve's measure. On
    such a gap x' is concave (x' = 1/alpha or 1 minus a convex integral), so
    x' > 0 on one interval (lam1, lam2) or nowhere, and x rises from x(lam1)
    to x(lam2) (Silverstein & Choi, J. Multivariate Anal. 54, 1995).

    Each gap is searched on floats from its midpoint m, of half-width h.
    The tangent at m bounds x' by x'(m) + |x''(m)| h; below
    -``_CUSP_SLOPE`` the gap holds no band. Else the largest x' lies at the
    root of the falling x'': m where x''(m) = 0, else :func:`_slope_root`
    from m toward the end x''(m) points to, on -x'' toward the left end.
    There x' within ``_CUSP_SLOPE`` of 0 is a cusp, and x' above it gives
    the gap's two edges, the roots of x' on either side. Where x'' keeps
    its sign up to the end, x' at the last probe decides: below
    -``_CUSP_SLOPE`` no band. None where a gap holds a cusp or an edge that
    is no root of x'."""
    gaps, slope = [], _gap_slope(curve)
    for (_, g0), (g1, _) in zip(pieces, pieces[1:]):
        m, h = 0.5 * (g0 + g1), 0.5 * (g1 - g0)
        _, mid_slope, bend = (float(v[0]) for v in _gap_curve(curve, m))
        if mid_slope + abs(bend) * h < -_CUSP_SLOPE:
            continue
        top = m
        if bend != 0.0:
            end, sign = (g1, 1.0) if bend > 0.0 else (g0, -1.0)
            top = _slope_root(lambda lam: sign * _gap_curve(curve, lam)[2][0], m, end)
        top_slope = slope(end + (m - end) * 2.0**-52 if top is None else top)
        if top_slope < -_CUSP_SLOPE:
            continue
        if top is None or not top_slope > _CUSP_SLOPE:
            return None  # a cusp, or x'' of one sign up to the end
        roots = _slope_root(slope, top, g0), _slope_root(slope, top, g1)
        if None in roots:
            return None
        gaps.append(tuple(_gap_curve(curve, np.array(roots))[0].tolist()))
    return gaps


def _measure_pieces(mu: SpectralMeasure):
    """The sorted disjoint intervals covering mu's support: atoms as points,
    components as their intervals, overlapping ones merged."""
    pieces = sorted([(u, u) for u in mu.atom_locations.tolist()]
                    + [(c.a, c.b) for c in mu.components])
    merged = [list(pieces[0])] if pieces else []
    for a, b in pieces[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [tuple(p) for p in merged]


def _sigma_bands(model):
    """The bands [(a, b), ...] of sigma's continuous part, or None where an
    edge cannot be classified.

    The right edge r(sigma) is a square-root edge unless the level's minimum
    lies at the curve's floor (x' > 0 there: a finite x_c at its cap). The
    left edge is the window's, minus the right edge of the reflected model,
    classified on that model's curve the same way. Where the reflected
    model is degenerate (a covariance model whose reduced pair has tau >= 0
    and alpha' <= 1), the left edge is the hard edge at 0 when sigma has no
    zero atom, and else the one root of x' between 0 and the least point of
    tau, the curve's measure, left of which x' is nonincreasing. Interior
    gaps come from :func:`_interior_gaps`, one root of x'' per gap of the
    curve's measure that the tangent at its midpoint does not close."""
    curve = model.curve()
    if curve(curve.floor)[1] > 0.0:
        return None
    reflected = model.reflected()
    pieces = _measure_pieces(curve.measure)
    if reflected.degenerate:
        if model.window.zero_atom == 0.0:
            left = 0.0
        else:
            least = pieces[0][0]
            lam = _slope_root(_gap_slope(curve), least * 2.0**-60, least) if least > 0.0 else None
            if lam is None:
                return None
            left = float(_gap_curve(curve, lam)[0][0])
    else:
        mirror = reflected.curve()
        if mirror(mirror.floor)[1] > 0.0:
            return None
        left = model.window.left
    gaps = _interior_gaps(curve, pieces)
    if gaps is None:
        return None
    edges = [left, *chain.from_iterable(sorted(gaps)), model.window.right]
    if not all(a < b for a, b in zip(edges, edges[1:])):
        return None
    return list(zip(edges[::2], edges[1::2]))


def sigma_rule(model) -> SpectralMeasure:
    """The limiting measure sigma of either model kind as the Chebyshev rule
    of ``_BAND_NODES`` nodes on each band of its continuous part
    (:func:`_sigma_on` on :func:`_sigma_bands`), plus the exact zero atom
    when present: ``model.sigma``, the variational form's.

    Where an edge cannot be classified (a cusp, an edge at the measure's own
    edge) or the rule's raw mass defect exceeds ``_RULE_DEFECT``, this is
    the grid of :func:`sigma_measure` of ``_GRID_FALLBACK`` points instead,
    on the same bands.
    """
    bands = _sigma_bands(model)
    if bands is not None:
        rule = _sigma_on(model, bands, [_BAND_NODES] * len(bands))
        if rule.raw_mass_defect <= _RULE_DEFECT:
            return rule
    return _sigma_grid(model, bands, _GRID_FALLBACK)
