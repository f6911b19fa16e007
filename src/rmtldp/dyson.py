"""Dyson-equation machinery for generalized sample covariance ensembles.

The limiting spectral measure sigma of H = (1/M) Z^T Gamma Z is characterized
by inverting y -> H(y) = 1/y + integral of alpha*u/(alpha - y*u) d rho(u).
In the spectral variable lam = alpha/y, H(y) = x(lam) on the level curve

    x(lam)  = lam (c + lam G_rho(lam)),                  c = (1 - alpha)/alpha,
    x'(lam) = c + lam (2 G_rho(lam) + lam G_rho'(lam)),

so y^2 H'(y) = -alpha x'(alpha/y). The edge, the two branches and the limit
law are all solved on this curve, from Stieltjes-transform evaluations of rho,
so tagged measures with closed-form transforms give machine-precision edge
quantities.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, takewhile

import numpy as np

from .measures import MeasureError, SpectralMeasure, _make_component

__all__ = [
    "REAL_ENTRY_LAWS",
    "COMPLEX_ENTRY_LAWS",
    "CovarianceModel",
    "EdgeData",
    "SolverError",
    "DegenerateModelError",
    "theta_max",
    "h_rho",
    "thresholds",
    "detect_degenerate",
    "edge_solve",
    "limit_stieltjes",
    "g_sigma",
    "g_bar_sigma",
    "support_window",
    "sigma_density",
    "sigma_measure",
    "grid_measure_from_density",
    "boundary_density_grid",
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
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        _check_entry_law(self.beta, self.entry_law)
        if self.entry_law not in _GAUSSIAN_LAWS and self.rho.left_edge < 0.0:
            raise ValueError(
                f"entry law {self.entry_law!r} requires rho supported in [0, inf); "
                f"left edge is {self.rho.left_edge!r}"
            )

    # The primitives below are what the two model kinds do differently;
    # rate, rate_variational, sigma_density and sigma_measure are written
    # once over them, for either kind (DeformedWignerModel has the same).

    def edge(self) -> EdgeData:
        return edge_solve(self)

    def branches(self, x, edge: EdgeData):
        """(G, Gbar): the two solutions of H(y) = x, elementwise over an array
        x; floats for a scalar x."""
        return _branches(self, x, edge)

    @property
    def degenerate(self) -> bool:
        """:func:`detect_degenerate`; the limit law of such a model is not solved."""
        return detect_degenerate(self)

    def curve(self) -> Curve:
        """H(y) = x in the variable lam = alpha/y: x(lam) = (1 - alpha) lam/alpha
        + lam^2 G_rho(lam) on lam > max(r(rho), 0), and y = alpha/lam. Far
        from the real axis x(lam) ~ lam/alpha, so the root of x(lam) = z is
        about alpha z there."""
        rho, a = self.rho, self.alpha
        return Curve(rho, self._point, _evaluable_floor(rho, max(rho.right_edge, 0.0)),
                     lambda z: a * z, lambda lam, x: a / lam)

    def _point(self, lam, g, gp):
        """(x, x') at lam from G = G_rho(lam) and G' = G_rho'(lam)."""
        c = (1.0 - self.alpha) / self.alpha
        return lam * (c + lam * g), c + lam * (2.0 * g + lam * gp)

    def level(self, edge: EdgeData) -> Level:
        """The curve with its edge. Since lam^2/(lam - t) = lam + t + t^2/(lam
        - t), x(lam) = lam/alpha + mean(rho) + integral of t^2/(lam - t), so
        x'' = 2 integral of t^2/(lam - t)^3 > 0, and lam = alpha (x -
        mean(rho)) lies right of the right root."""
        a = self.alpha
        curve = self.curve()
        mean = self.rho.integrate(lambda u: u)
        x_c = edge.x_c
        x_cap = x_c - 1e-12 * max(1.0, abs(x_c)) if math.isfinite(x_c) else math.inf
        tmax = edge.theta_max
        return Level(curve, max(a / edge.theta_c, curve.floor), curve.floor,
                     lambda x: a * (x - mean), curve.y, curve.y, edge.theta_c, x_cap,
                     lambda x: np.full(x.shape, tmax),
                     None if self.rho.components else self._residual)

    def _residual(self, lam, x):
        """(x(lam) - x, x'(lam)) of an atomic rho, the first as lam/alpha -
        lam + lam^2 G_rho(lam) - x in double-double arithmetic, on a float
        or elementwise on an array. The curve rounds x to a few ulps, and
        where x' is small (next to the edge) that moves its roots by more
        than their tolerance."""
        a = self.alpha
        gh = gl = gp = 0.0
        for u, p in zip(self.rho.atom_locations.tolist(), self.rho.atom_weights.tolist()):
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
        of H; Phi(t) = log t + 2 F(rho, t) = (1 - alpha) log t - alpha L(alpha/t)
        up to a constant, L the logarithmic moment of rho. On the capped branch
        Gbar = theta_max and alpha/Gbar = r(rho); the clamp below only absorbs
        rounding there.
        """
        a = self.alpha
        r = self.rho.right_edge
        lm = lambda t: self.rho.log_moment(np.maximum(a / t, r))
        bracket = x * (g_bar - g) - (1.0 - a) * np.log(g_bar / g) + a * (lm(g_bar) - lm(g))
        # I >= 0 is a theorem; the bracket cancels O(1) terms, so just above the
        # edge rounding can leave it a few ulps below zero
        return 0.5 * self.beta * np.maximum(0.0, bracket)

    def window(self, edge: EdgeData) -> SupportWindow:
        return support_window(self, edge)

    def variational(self, x: float, edge: EdgeData, sigma: SpectralMeasure):
        """(optimizer, scan end, objective) of sup over theta of
        J(sigma, theta/2, x) - F(rho, theta); the optimizer is Gbar_sigma(x).
        The objective works elementwise on an array of theta."""
        from .rate import f_fn, j_fn
        theta_x = g_bar_sigma(edge, self, x)
        tmax = edge.theta_max
        if math.isfinite(tmax) and theta_x >= tmax * (1.0 - 1e-12):
            theta_x = tmax * (1.0 - 1e-8)  # capped branch: approach the open end
        end = tmax * (1.0 - 1e-6) if math.isfinite(tmax) else 30.0 * theta_x
        return theta_x, end, lambda theta: j_fn(sigma, 0.5 * theta, x) - f_fn(self, theta)

    @property
    def diagonal_law(self) -> SpectralMeasure:
        """Limiting law of the deterministic diagonal Gamma."""
        return self.rho

    def rows(self, n: int) -> int:
        """Row count m of Z in an n x n sample."""
        return int(round(self.alpha * n))

    def draw(self, rng, n: int, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One n x n sample (1/m) Z* diag(d) Z, d of length rows(n), written
        into ``out`` when given."""
        from .montecarlo import _covariance_matrix
        return _covariance_matrix(self, n, rng, d, out)


def _check_entry_law(beta: int, entry_law: str) -> None:
    """Dyson index and entry law checks shared by both model kinds."""
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 or 2, got {beta!r}")
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


def theta_max(model: CovarianceModel) -> float:
    r = model.rho.right_edge
    return model.alpha / r if r > 0.0 else math.inf


def h_rho(model: CovarianceModel, theta: float) -> float:
    """H(theta) = x(alpha/theta) on (0, theta_max]; theta_max itself only
    when x_c is finite."""
    tmax = theta_max(model)
    if not 0.0 < theta <= tmax:
        raise ValueError(f"theta={theta!r} outside (0, {tmax!r}]")
    h = model.curve()(model.alpha / theta)[0]
    if math.isinf(h):
        raise ValueError(f"H diverges at theta={theta!r} (theta_max with infinite edge transform)")
    return h


def _h_direct(model: CovarianceModel, theta: float) -> float:
    """H(theta) summed directly over atoms and quadrature nodes (cross-check path)."""
    a = model.alpha
    return 1.0 / theta + model.rho.integrate(lambda u: a * u / (a - theta * np.asarray(u)))


def _g_at_right_edge(mu: SpectralMeasure) -> float:
    """G_mu at the right edge r(mu), +inf where it diverges; SolverError where
    its finiteness cannot be decided (an undeclared table at the edge)."""
    r = mu.right_edge
    try:
        return mu.stieltjes(r)
    except MeasureError as exc:
        raise SolverError(f"cannot decide finiteness of G at the right edge {r!r}: {exc}") from exc


def thresholds(model: CovarianceModel) -> tuple[float, float]:
    """(theta_max, x_c): x_c = x(r(rho)) on the level curve, cross-checked
    against H(theta_max) summed directly over atoms and nodes."""
    tmax = theta_max(model)
    r = model.rho.right_edge
    if r <= 0.0:
        return tmax, math.inf
    g_edge = _g_at_right_edge(model.rho)
    if math.isinf(g_edge):
        return tmax, math.inf
    x_c = model.curve()(r)[0]
    x_c_direct = _h_direct(model, tmax)
    if abs(x_c_direct - x_c) > 1e-4 * max(1.0, abs(x_c)):
        raise SolverError(
            f"threshold cross-check failed: formula {x_c!r} vs H(theta_max) {x_c_direct!r}"
        )
    return tmax, x_c


def detect_degenerate(model: CovarianceModel) -> bool:
    """True iff r(rho) <= 0 and alpha * (1 - rho({0})) <= 1."""
    if model.rho.right_edge > 0.0:
        return False
    return model.alpha * (1.0 - model.rho.atom_mass(0.0)) <= 1.0


def edge_solve(model: CovarianceModel) -> EdgeData:
    """Locate theta_c and the right edge r(sigma) = H(theta_c): in lam =
    alpha/theta, theta_c = alpha/lam_c and r(sigma) = x(lam_c) at the
    minimiser lam_c of the level's curve (:func:`_level_edge`). In the
    finite-x_c boundary case, lam_c = r(rho): theta_c = theta_max and
    r(sigma) = x_c."""
    if detect_degenerate(model):
        return EdgeData(theta_max=theta_max(model), x_c=math.inf, theta_c=None, r_sigma=None,
                        degenerate=True, case_tag=None)
    tmax, x_c = thresholds(model)
    rho = model.rho
    if rho.right_edge > 0.0:
        case = "pos_edge_finite_xc" if math.isfinite(x_c) else "pos_edge_infinite_xc"
    else:
        case = "nonpos_edge"
    curve = model.curve()
    capped = math.isfinite(x_c)
    lam_c = _level_edge(lambda lam: curve(lam)[1], curve.floor,
                        max(abs(rho.left_edge), abs(rho.right_edge)), capped)
    r_sigma = x_c if capped and lam_c == curve.floor else curve(lam_c)[0]
    return EdgeData(tmax, x_c, model.alpha / lam_c, r_sigma, False, case)


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


def g_sigma(edge: EdgeData, model: CovarianceModel, x: float) -> float:
    """Stieltjes transform of sigma at real x >= r(sigma) (first branch).

    Unique root of H(y) = x in (0, theta_c]; strictly decreasing in x.
    """
    return _branches(model, x, edge, second=False)[0]


def g_bar_sigma(edge: EdgeData, model: CovarianceModel, x: float) -> float:
    """Second branch of the Stieltjes transform at real x.

    For x <= x_c this is the root of H(y) = x in [theta_c, theta_max); for
    x >= x_c (finite case) it is capped at theta_max. Nondecreasing in x,
    equal to theta_c at x = r(sigma).
    """
    return _branches(model, x, edge, first=False)[1]


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
    return np.where(np.isfinite(step), np.maximum(new, level.floor), lam)


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
    ``measure``, on floats, real arrays and complex arrays. ``floor`` is the
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
    (x(lam), x'(lam)) at a float or on an array; x is convex on (floor, inf)
    with its minimum r(sigma) at ``lam_c``.
    ``floor`` is the curve's floor, ``start(x)`` a point right of each right
    root. ``first(lam, x)`` is the first branch at a right root,
    ``second(lam, x)`` the second branch at a left root; from ``x_cap`` on,
    the second branch is ``cap(x)`` instead. At r(sigma) both branches are
    ``at_edge``. ``residual(lam, x)``, where given, is (x(lam) - x to about
    eps^2 of its terms, x'(lam)), and each root takes one Newton step on it."""

    curve: Callable
    lam_c: float
    floor: float
    start: Callable
    first: Callable
    second: Callable
    at_edge: float
    x_cap: float
    cap: Callable
    residual: Callable | None = None


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


def _branches(model, x, edge, first: bool = True, second: bool = True):
    """(G, Gbar) of either model kind at x, elementwise over an array x;
    floats for a scalar x. A branch not asked for is NaN.

    The roots of all points come from one Newton solve on the model's
    :class:`Level`: the right root gives the first branch, the left root the
    second, unless the second is capped there.
    """
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
    level = model.level(edge)
    g = np.full(xs.shape, level.at_edge if first else math.nan)
    g_bar = np.full(xs.shape, level.at_edge if second else math.nan)
    beyond = side > 0
    capped = beyond & (xs >= level.x_cap) & second
    g_bar[capped] = level.cap(xs[capped])
    right = beyond & first
    left = beyond & ~capped & second
    t_right, t_left = xs[right], xs[left]
    if t_right.size or t_left.size:
        lam = _level_roots(level, t_right, t_left)
        if t_right.size:
            g[right] = level.first(lam[:t_right.size], t_right)
        if t_left.size:
            g_bar[left] = level.second(lam[t_right.size:], t_left)
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
    steps of :func:`_level_roots` on numpy floats: the same starts, probes,
    Newton points and stopping test, so the same bits. On one or two roots
    the numpy calls of the array solve cost several times the solve."""
    curve, lam_c, floor = level.curve, level.lam_c, level.floor
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
                raise SolverError(f"branch Newton solve gave no root at x={float(t)!r}")
            return np.float64(_refined(level, newton, t, d))
    raise SolverError(f"branch Newton solve did not converge in {_NEWTON_STEPS} steps "
                      f"at x={float(t)!r}; last iterate {float(lam)!r}")


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

    All roots are then solved at once by Newton's method. x is convex, so
    from a start right of a right root, or left of a left root, the
    iterates move monotonically toward the root and never cross it. Each
    step is at least the tolerance 4 eps |lam|, and no step passes lam_c:
    the first trial point at which x <= t brackets the root within the
    tolerance, and the Newton point before it is returned. The tolerance
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
    curve, lam_c, floor = level.curve, level.lam_c, level.floor
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
    # in u = d lam, d = -1 for a right root and +1 for a left one, every
    # root is approached from below, up to the bound d lam_c
    d = sides = np.repeat([-1.0, 1.0], [n_right, t_left.size])
    bound = d * lam_c
    xtol = _NEWTON_RTOL * 2.0**-64 * (lam_c - floor)
    roots = np.empty(t.size)
    live = np.arange(t.size)
    tl = t
    for _ in range(_NEWTON_STEPS):
        q = (xv - tl) / xp
        newton = lam - q
        u = np.minimum(d * lam + np.fmax(-d * q, xtol + _NEWTON_RTOL * np.abs(lam)), bound)
        lam = d * u
        xv, xp = curve(lam)
        crossed = xv <= tl
        if crossed.any():
            roots[live[crossed]] = newton[crossed]
            keep = ~crossed
            live = live[keep]
            if not live.size:
                break
            lam, xv, xp, tl, d, bound = (v[keep] for v in (lam, xv, xp, tl, d, bound))
    else:
        raise SolverError(f"branch Newton solve did not converge in {_NEWTON_STEPS} steps "
                          f"at x={float(tl[0])!r}; last iterate {float(lam[0])!r}")
    bad = np.isnan(roots)
    if bad.any():
        raise SolverError(f"branch Newton solve gave no root at x={float(t[bad][0])!r}")
    return _refined(level, roots, t, sides)


# -- support window and density recovery ---------------------------------------


@dataclass(frozen=True)
class SupportWindow:
    left: float
    right: float
    zero_atom: float


def support_window(model: CovarianceModel, edge: EdgeData | None = None) -> SupportWindow:
    """Support window [l(sigma'), r(sigma)] of the continuous part of sigma,
    plus the exact zero-atom mass max(0, 1 - alpha(1 - rho({0}))).

    Replacing Gamma by -Gamma turns H into -H, so sigma of the reflected rho
    is sigma reflected, and the left edge is minus r(sigma) of the reflected
    model (the rule of the deformed-Wigner window). The reflected model is
    solved with the Gaussian law: sigma does not depend on the entry law.
    When it is degenerate, or within rounding of it, the continuous part is
    bounded below by 0 (hard edge or zero atom).
    """
    edge = edge or edge_solve(model)
    _require_nondegenerate(edge)
    rho = model.rho
    nonzero = model.alpha * (1.0 - rho.atom_mass(0.0))
    zero_atom = max(0.0, 1.0 - nonzero)
    if rho.left_edge >= 0.0 and nonzero <= 1.0 + 1e-13:
        left = 0.0
    else:
        try:
            left = -edge_solve(CovarianceModel(rho.reflected(), model.alpha)).r_sigma
        except SolverError as exc:
            # the reflected model's message speaks of its own right edge
            raise SolverError(
                f"left edge of sigma, at l(rho) = {rho.left_edge!r}: solving the reflected "
                f"model, whose right edge is -l(rho), failed: {exc}"
            ) from exc
    if zero_atom > 0.0:
        left = min(left, 0.0)
    return SupportWindow(left, edge.r_sigma, zero_atom)


# heights of the descent in units of max(1, largest |z|), the Newton steps a
# point may take on one level, and the stopping tests relative to
# max(1, |target|) on each level: loose above height 0, where a root only has
# to seed the next level inside its basin, or tight throughout; both are
# tight at height 0
_DESCENT = np.append(np.geomspace(1.0, 1e-12, 25), 0.0)
_LEVEL_STEPS = 120
_LOOSE_TOL = np.append(np.full(len(_DESCENT) - 1, 1e-3), 1e-12)
_TIGHT_TOL = np.full(len(_DESCENT), 1e-12)

# continuation along a grid of at least _GRID_MIN points at one height: every
# _GRID_STRIDE-th point by Re z, and the last, is solved by the descent, and
# every other point by at most _GRID_STEPS Newton steps on z from a seed
# interpolated between the two solved points around it. _GRID_MIN is where the
# two break even in sum over the 12 non-degenerate benchmark models, on the
# one-height grids of sigma_measure (boundary grid, eta 1e-9 span) and of the
# density command (linspace, 5% margins, eta 1e-4): continuation took 1.06-1.34
# times the descent's time on 4-48 measure points and 1.07-3.8 on 4-48 density
# points (an interval of 16 leaves poor seeds), 1.11-1.16 at 64, 0.88-1.02 at 80
# and 96, 0.80-0.90 at 112 and 128 and 0.51-0.53 at 400 (2-core host, median of
# 9, two runs). The table measure gains from 32 points on; dw-two-atom loses 2-3
# times at 64, 96 and 128 points, where seeds around its gap take a descent
_GRID_MIN = 80
_GRID_STRIDE = 16
_GRID_STEPS = 8


def _solve_on_grid(h_pair, zs, seed):
    """Solve h(w) = z at every point of the 1-D array ``zs`` (Im z > 0) at
    once; ``h_pair(w)`` returns (h(w), h'(w)) on an array w, and
    ``seed(z)`` approximates the root far above the real axis.

    A grid of at least ``_GRID_MIN`` points that all have the same
    imaginary part (the grids of :func:`sigma_density` and
    :func:`sigma_measure`) is solved along its real parts: every
    ``_GRID_STRIDE``-th point in the order of Re z, and the last, by
    :func:`_descend`. Every other point is seeded by the cubic Hermite
    interpolant of the roots of the two solved points around it, with the
    slopes dw/dz = 1/h'(w) there, and takes at most ``_GRID_STEPS`` damped
    Newton steps on z itself in the descent's kernel :func:`_newton`, on
    one level at height 0: the same half-plane rule, the stopping test
    ``|h(w) - z| <= 1e-12 max(1, |z|)`` and the polish step. A point whose
    seed leaves the half-plane of its neighbours' roots, or that has not
    converged within those steps, is solved by :func:`_descend` instead. A
    root differs from the descent's by the rounding the stopping test and
    the polish step leave, not by the seed. A shorter grid, or one at
    several heights, is solved by :func:`_descend` alone: below
    ``_GRID_MIN`` points the continuation's own descent and Newton rounds
    cost more than they save (measured in the comment above).

    On sigma_measure's 2000-point grids that is 4.2 ``h_pair`` evaluations
    per point for a covariance model and 4.1 for a deformed-Wigner one (the
    slopes cost one per solved point), against 19 and 16 by the descent.
    """
    zs = np.asarray(zs, dtype=complex)
    if zs.size >= _GRID_MIN and np.all(zs.imag == zs.imag[0]):
        return _continue(h_pair, zs, seed)
    return _descend(h_pair, zs, seed)


# here and in the descent a NaN or infinite value of h or h' only yields a
# trial that is rejected, or a step to one
@np.errstate(divide="ignore", invalid="ignore")
def _continue(h_pair, zs, seed):
    """The continuation of :func:`_solve_on_grid` along the real parts of
    ``zs``."""
    order = np.argsort(zs.real, kind="stable")
    x = zs.real[order]
    n = zs.size
    solved = np.append(np.arange(0, n - 1, _GRID_STRIDE), n - 1)
    w = np.empty(n, dtype=complex)
    w[solved] = _descend(h_pair, zs[order[solved]], seed)
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
    side = np.sign(w0.imag)
    # one level at height 0, from the seeds on the side of their neighbours
    inside = np.sign(seeds.imag) == side
    roots = np.full(rest.size, np.nan, dtype=complex)
    roots[inside] = _newton(h_pair, z[inside], np.zeros(1), _TIGHT_TOL[-1:], seeds[inside],
                            *h_pair(seeds[inside]), side[inside], _GRID_STEPS, strict=False)
    failed = np.isnan(roots)
    if failed.any():
        roots[failed] = _descend(h_pair, z[failed], seed)
    w[rest] = roots
    out = np.empty(n, dtype=complex)
    out[order] = w
    return out


def _descend(h_pair, zs, seed):
    """Solve h(w) = z at every point of ``zs`` by descending from high above
    the real axis.

    Each point starts from ``seed(z + i scale)``, scale = max(1, max |z|),
    where the seed lies on the physical branch, and descends: the height
    over z shrinks through ``scale * _DESCENT``, each level seeded by the
    root of the level above. The points descend together in :func:`_newton`,
    each on its own level with its own stopping test ``|h(w) - target| <=
    tol max(1, |target|)``: tol is 1e-3 above height 0, where a root only
    seeds the next level, and 1e-12 at height 0. Iterates never leave the
    open half-plane of their seed, which holds exactly one root. That is about
    19 ``h_pair`` evaluations per point for a covariance model and 16 for a
    deformed-Wigner one, in 14-29 Newton rounds on the benchmark models
    whatever the number of points.

    The loose levels assume structure of h on the scale of 1: for a model
    whose spectrum spans 1e-3, a residual of 1e-3 can leave a seed from which
    Newton stalls at height 0. A grid on which some point fails is therefore
    solved again with the tight test on every level, which only then raises.
    """
    try:
        return _descend_with(h_pair, zs, seed, _LOOSE_TOL)
    except SolverError:
        return _descend_with(h_pair, zs, seed, _TIGHT_TOL)


def _descend_with(h_pair, zs, seed, level_tol):
    """One descent of :func:`_descend`, with the stopping test
    ``level_tol[k] * max(1, |target|)`` on level k."""
    zs = np.asarray(zs, dtype=complex)
    heights = max(1.0, float(np.max(np.abs(zs)))) * _DESCENT
    w = np.asarray(seed(zs + 1j * heights[0]), dtype=complex)
    return _newton(h_pair, zs, heights, level_tol, w, *h_pair(w), np.sign(w.imag), _LEVEL_STEPS)


@np.errstate(divide="ignore", invalid="ignore")
def _newton(h_pair, zs, heights, level_tol, w, hw, hp, side, max_steps, strict=True):
    """Damped Newton on h(w) = z + i heights[k] at every point of ``zs``, down
    the levels k from w, where (h(w), h'(w)) = (hw, hp): the kernel of the
    descent and of the continuation (one level, at height 0). It may
    overwrite w, hw and hp, and returns the roots, NaN where failed.

    Each round, a point that passes its level's stopping test ``|h(w) -
    target| <= level_tol[k] max(1, |target|)`` moves to the first lower level
    whose test it fails, with its step count reset, and past the last one it
    has converged. Every other point takes the Newton step, halved at most 40
    times until the trial stays in the half-plane ``side`` of its point and
    lowers the residual. A point out of steps (``max_steps`` on one level) or
    of halvings has failed: with ``strict`` the first one raises SolverError
    naming z, the height and the residual, else it is dropped. The stopping
    test bounds the residual, not the error in w, so a converged point takes
    one more full step on z, kept where it stays in the half-plane and does
    not raise the residual.

    The points in play live in compact arrays, beside their targets and
    tolerances on every level, built once. A round tests every level in one
    (points x levels) array, shrinks the arrays only where points converge
    or fail, and takes the trials as the state when all are accepted: about
    25 numpy calls besides ``h_pair``, which sees the same points, in the
    same order, as a solve on full-size arrays."""
    targets = zs[:, None] + 1j * heights
    tols = level_tol * np.maximum(1.0, np.abs(targets))
    roots, conv_hw, conv_hp = np.full((3, zs.size), np.nan, dtype=complex)
    sides, ks = side, np.arange(heights.size)
    ahead = ks >= ks[:, None]  # row l: the levels at or below level l
    at = np.arange(zs.size)
    base = at * ks.size  # each point's first place in a (points x levels) array
    # each point's level, and the steps taken in all when it got there
    level, entered = np.zeros((2, zs.size), dtype=np.intp)
    taken, failed = 0, None

    def stalled(i, why):
        z, height = complex(zs[at[i]]), float(heights[level[i]])
        return SolverError(f"Newton {why} at z={z!r}, height {height!r} above it; "
                           f"residual {float(abs(hw[i] - z - 1j * height))!r}")

    while at.size:
        passes = np.abs(hw[:, None] - targets) <= tols
        if ks.size > 1:
            # to the first level at or below its own whose test it fails
            fails = np.less(passes, ahead.take(level, axis=0))
            new = fails.argmax(axis=1)
            np.putmask(entered, new != level, taken)
            level = new
            here = base + level
            stays = fails.take(here)
        else:  # one level, so no point moves: argmax over rows of one is slow
            here, stays = base, ~passes.ravel()
        dropped = np.count_nonzero(stays) < at.size
        if dropped:
            gone = (~stays).nonzero()[0]
            done = at.take(gone)
            roots[done], conv_hw[done], conv_hp[done] = w.take(gone), hw.take(gone), hp.take(gone)
        if taken >= max_steps:
            over = (taken - entered >= max_steps) & stays
            if over.any():
                if strict:
                    raise stalled(over.argmax(), "did not converge")
                stays, dropped = stays & ~over, True
        if failed is not None:
            stays[failed] = False
            dropped, failed = True, None
        if dropped:
            keep = stays.nonzero()[0]
            if not keep.size:
                break
            at, w, hw, hp, side, level, entered, targets, tols = (
                a.take(keep, axis=0) for a in (at, w, hw, hp, side, level, entered, targets, tols))
            base = np.arange(keep.size) * ks.size
            here = base + level
        taken += 1
        target = targets.take(here)
        res = hw - target
        step, limit = res / hp, np.abs(res)
        # backtrack on the points without an accepted trial, by their places
        todo, start, todo_side, lam = None, w, side, 1.0
        for _ in range(40):
            trial = start - lam * step
            # a trial across the real axis is rejected like one that does not
            # reduce the residual; so are NaNs
            inside = np.sign(trial.imag) == todo_side
            if np.count_nonzero(inside) == inside.size:
                h_trial, hp_trial = h_pair(trial)
            else:
                h_trial = np.full(trial.size, np.nan, dtype=complex)
                hp_trial = h_trial.copy()
                h_trial[inside], hp_trial[inside] = h_pair(trial[inside])
            better = np.abs(h_trial - target) < limit
            accepted = np.count_nonzero(better) == better.size
            if todo is None:
                if accepted:
                    w, hw, hp = trial, h_trial, hp_trial
                    break
                todo = np.arange(at.size)
            took = todo[better]
            w[took], hw[took], hp[took] = trial[better], h_trial[better], hp_trial[better]
            if accepted:
                break
            rest = ~better
            todo, start, step = todo[rest], start[rest], step[rest]
            target, limit, todo_side = target[rest], limit[rest], todo_side[rest]
            lam *= 0.5
        else:
            if strict:
                raise stalled(todo[0], "stalled")
            # dropped in the next round, whose test they fail
            failed = todo
    # a converged root is finite, since h(w) is
    ok = ~np.isnan(roots)
    trial = roots[ok] - (conv_hw[ok] - zs[ok]) / conv_hp[ok]
    z = zs[ok]
    keep = np.sign(trial.imag) == sides[ok]
    h_trial = h_pair(trial[keep])[0]
    keep[keep] = np.abs(h_trial - z[keep]) <= np.abs(conv_hw[ok][keep] - z[keep])
    roots[np.flatnonzero(ok)[keep]] = trial[keep]
    return roots


def limit_stieltjes(model, zs: np.ndarray) -> np.ndarray:
    """G_sigma(z) at every z of the upper half-plane, for either model kind:
    the root lam of x(lam) = z on the model's curve, seeded far above the
    axis by the curve's seed and solved by :func:`_solve_on_grid` on the
    curve's formula (damped Newton in :func:`_newton`, one ``stieltjes_pair``
    per trial), mapped to G_sigma by the curve's y. A degenerate covariance
    model is refused."""
    if model.degenerate:
        raise DegenerateModelError("model is degenerate; use the degenerate rate function")
    curve = model.curve()
    mu = curve.measure
    lam = _solve_on_grid(lambda v: curve.point(v, *mu.stieltjes_pair(v)), zs, curve.seed)
    return curve.y(lam, zs)


def sigma_density(model, x, eta: float):
    """Density approximation -Im G_sigma(x + i eta) / pi at real x, eta > 0,
    for either model kind (sigma is then the model's limiting measure).

    The model's equation for G_sigma(z) is solved at every z = x + i eta at
    once, each point by damped Newton descending from high above the real
    axis.
    """
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    g = limit_stieltjes(model, xs + 1j * eta)
    out = np.maximum(-g.imag / math.pi, 0.0)
    return out[0] if np.asarray(x).ndim == 0 else out


def _edge_cell_mass(s1, s2, rho1, rho2):
    """Mass of the cell between a support edge and its nearest grid node,
    from a local power-law fit rho(s) ~ C s^p of the two innermost samples."""
    if rho1 <= 0.0:
        return 0.0
    if rho2 <= 0.0 or s2 <= s1:
        p = 0.0
    else:
        p = math.log(rho1 / rho2) / math.log(s1 / s2)
        p = min(max(p, -0.9), 4.0)
    return rho1 * s1 / (p + 1.0)


def _power_pair_mass(s_in, s_out, rho_in, rho_out):
    """Mass between two nodes at edge distances s_in < s_out assuming a local
    power law rho(s) = C s^p through both samples; exact for soft (sqrt) and
    hard (inverse-sqrt) spectral edges, reduces to trapezoid when degenerate."""
    if rho_in <= 0.0 or rho_out <= 0.0 or s_out <= s_in or s_in <= 0.0:
        return 0.5 * (rho_in + rho_out) * (s_out - s_in)
    p = math.log(rho_out / rho_in) / math.log(s_out / s_in)
    if not -0.95 < p < 6.0 or abs(p + 1.0) < 1e-9:
        return 0.5 * (rho_in + rho_out) * (s_out - s_in)
    return (rho_out * s_out - rho_in * s_in) / (p + 1.0)


def _positive_runs(mask):
    """Maximal index ranges [i0, i1] where the mask is True."""
    # a run starts and ends where the mask, padded with False, changes value
    changes = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return list(zip(changes[::2].tolist(), (changes[1::2] - 1).tolist()))


def _soft_edge_estimate(x1, x2, rho1, rho2, bound):
    """Edge position from two samples assuming rho ~ C sqrt(|x - e|), with
    x1 the sample nearer the edge; clamped between ``bound`` and x1."""
    if rho2 > rho1 > 0.0:
        e = x1 - rho1 * rho1 * (x2 - x1) / (rho2 * rho2 - rho1 * rho1)
    else:
        e = 0.5 * (bound + x1)
    if bound < x1:
        return min(max(e, bound), x1)
    return max(min(e, bound), x1)


def grid_measure_from_density(xs_desc, dens_desc, lo, hi, zero_atom=0.0) -> SpectralMeasure:
    """Assemble a grid measure from boundary density samples on a descending
    Chebyshev-type grid.

    The grid is segmented into maximal runs of positive density (spectral
    bands, possibly several). Each band gets trapezoid cells in its interior
    and local power-law fits near its edges; outer band edges coincide with
    the solved window boundaries, interior ones are estimated by a
    square-root fit. The known atom at zero is attached, the density part is
    renormalized, and the raw mass defect recorded."""
    n = len(xs_desc)
    xs_asc = np.asarray(xs_desc)[::-1].copy()
    dens_asc = np.asarray(dens_desc)[::-1].copy()
    weights = np.zeros(n)
    dmax = float(dens_asc.max(initial=0.0))
    if dmax <= 0.0:
        raise SolverError("recovered density vanishes on the whole grid")
    # the evaluation height leaks a tiny spurious density into spectral gaps;
    # threshold it away and ignore zero runs too short to be a real gap
    mask = dens_asc > 1e-5 * dmax
    for g0, g1 in _positive_runs(~mask):
        if g1 - g0 + 1 < 5 and g0 > 0 and g1 < n - 1:
            mask[g0:g1 + 1] = True
    for i0, i1 in _positive_runs(mask):
        if i1 - i0 < 2:
            continue  # an isolated positive node carries no resolvable mass
        xs_run = xs_asc[i0:i1 + 1]
        dens_run = dens_asc[i0:i1 + 1]
        gaps = np.diff(xs_run)
        w_run = np.zeros(len(xs_run))
        w_run[:-1] += 0.5 * gaps * dens_run[:-1]
        w_run[1:] += 0.5 * gaps * dens_run[1:]
        if i0 == 0:
            e_left = lo
        else:
            e_left = _soft_edge_estimate(xs_run[0], xs_run[1], dens_run[0], dens_run[1],
                                         xs_asc[i0 - 1])
        if i1 == n - 1:
            e_right = hi
        else:
            e_right = _soft_edge_estimate(xs_run[-1], xs_run[-2], dens_run[-1], dens_run[-2],
                                          xs_asc[i1 + 1])
        # near the band edges the density behaves like a power of the edge
        # distance; replace the trapezoid cell masses by local power-law fits
        n_edge = min(30, len(xs_run) // 4)
        for j in range(n_edge):
            trap = 0.5 * (dens_run[j] + dens_run[j + 1]) * gaps[j]
            fit = _power_pair_mass(xs_run[j] - e_left, xs_run[j + 1] - e_left,
                                   dens_run[j], dens_run[j + 1])
            half = 0.5 * (fit - trap)
            w_run[j] += half
            w_run[j + 1] += fit - trap - half
            k = len(xs_run) - 2 - j
            trap = 0.5 * (dens_run[k] + dens_run[k + 1]) * gaps[k]
            fit = _power_pair_mass(e_right - xs_run[k + 1], e_right - xs_run[k],
                                   dens_run[k + 1], dens_run[k])
            half = 0.5 * (fit - trap)
            w_run[k] += half
            w_run[k + 1] += fit - trap - half
        w_run[0] += _edge_cell_mass(xs_run[0] - e_left, xs_run[1] - e_left,
                                    dens_run[0], dens_run[1])
        w_run[-1] += _edge_cell_mass(e_right - xs_run[-1], e_right - xs_run[-2],
                                     dens_run[-1], dens_run[-2])
        weights[i0:i1 + 1] += w_run

    raw = zero_atom + float(weights.sum())
    defect = abs(1.0 - raw)
    target = 1.0 - zero_atom
    if weights.sum() > 0.0:
        weights *= target / weights.sum()
    keep = weights > 0.0
    comp = _make_component("table", lo, hi, None, xs_asc[keep], weights[keep], edge_finite_g=True)
    atoms = ([0.0], [zero_atom]) if zero_atom > 0.0 else ((), ())
    return SpectralMeasure(atoms[0], atoms[1], [comp], raw_mass_defect=defect)


def boundary_density_grid(lo: float, hi: float, n: int):
    """Descending Chebyshev-clustered grid strictly inside (lo, hi)."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * np.cos(math.pi * (np.arange(int(n)) + 0.5) / int(n))


def sigma_measure(model, grid_points: int = 2000, edge=None) -> SpectralMeasure:
    """Grid discretization of the limiting measure sigma of either model
    kind: boundary density on a Chebyshev-clustered grid over the model's
    support window plus the exact zero atom when present.

    The grid density is renormalized to total mass 1; the raw mass defect is
    recorded on the returned measure as a quality metric.
    """
    window = model.window(edge or model.edge())
    lo, hi = window.left, window.right
    span = hi - lo
    if span <= 0.0:
        raise SolverError(f"empty support window [{lo!r}, {hi!r}]")
    xs = boundary_density_grid(lo, hi, grid_points)
    eta_floor = 1e-9 * max(1.0, span)
    g = limit_stieltjes(model, xs + 1j * eta_floor)
    if window.zero_atom > 0.0:
        # the zero atom is attached exactly below; strip its Cauchy bump from
        # the recovered transform so only the continuous part is gridded
        g = g - window.zero_atom / (xs + 1j * eta_floor)
    dens = np.maximum(-g.imag / math.pi, 0.0)
    return grid_measure_from_density(xs, dens, lo, hi, window.zero_atom)
