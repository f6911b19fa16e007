"""Dyson-equation machinery for generalized sample covariance ensembles.

The limiting spectral measure sigma of H = (1/M) Z^T Gamma Z is characterized
by inverting y -> H(y) = 1/y + integral of alpha*u/(alpha - y*u) d rho(u).
Everything here reduces to Stieltjes-transform evaluations of rho through

    H(y)   = 1/y - alpha/y + (alpha^2/y^2) * G_rho(alpha/y),
    f(y)   = y^2 H'(y) = -1 + alpha*(z^2*(-G_rho'(z)) - 2*z*G_rho(z) + 1),

with z = alpha/y, so tagged measures with closed-form transforms give
machine-precision edge quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .measures import MeasureError, SpectralMeasure

__all__ = [
    "REAL_ENTRY_LAWS",
    "COMPLEX_ENTRY_LAWS",
    "CovarianceModel",
    "EdgeData",
    "SolverError",
    "DegenerateModelError",
    "theta_max",
    "h_rho",
    "f_rho",
    "thresholds",
    "detect_degenerate",
    "edge_solve",
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

_BRENTQ_KW = dict(xtol=1e-14, rtol=8.9e-16, maxiter=300)


class SolverError(RuntimeError):
    """A root finder or continuation failed; message carries the context."""


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

    def branches(self, x: float, edge: EdgeData) -> tuple[float, float]:
        """(G, Gbar): the two solutions of H(y) = x."""
        return g_sigma(edge, self, x), g_bar_sigma(edge, self, x)

    def rate_from_branches(self, x: float, g: float, g_bar: float) -> float:
        """Rate at x from the two branch values G = G_sigma(x), Gbar = Gbar_sigma(x).

        Integrating Gbar - G by parts with H(G) = H(Gbar) = x gives
        I(x) = (beta/2) [x (Gbar - G) - (Phi(Gbar) - Phi(G))] for any primitive Phi
        of H; Phi(t) = log t + 2 F(rho, t) = (1 - alpha) log t - alpha L(alpha/t)
        up to a constant, L the logarithmic moment of rho. On the capped branch
        Gbar = theta_max and alpha/Gbar = r(rho); the clamp below only absorbs
        rounding there.
        """
        a = self.alpha
        r = self.rho.right_edge
        lm = lambda t: self.rho.log_moment(max(a / t, r))
        bracket = x * (g_bar - g) - (1.0 - a) * math.log(g_bar / g) + a * (lm(g_bar) - lm(g))
        # I >= 0 is a theorem; the bracket cancels O(1) terms, so just above the
        # edge rounding can leave it a few ulps below zero
        return 0.5 * self.beta * max(0.0, bracket)

    def window(self, edge: EdgeData) -> SupportWindow:
        return support_window(self, edge)

    def limit_stieltjes(self, zs: np.ndarray) -> np.ndarray:
        """G_sigma(z) at every z of the upper half-plane: the root of H(w) = z
        with Im w < 0, seeded far above the axis by w ~ 1/z."""
        if detect_degenerate(self):
            raise DegenerateModelError("model is degenerate; use the degenerate rate function")
        return _solve_on_grid(lambda w: _h_at(self, w),
                              lambda w: _f_at(self, w) / (w * w), zs, lambda z: 1.0 / z)

    def variational(self, x: float, edge: EdgeData, sigma: SpectralMeasure):
        """(optimizer, scan end, objective) of sup over theta of
        J(sigma, theta/2, x) - F(rho, theta); the optimizer is Gbar_sigma(x)."""
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

    def draw(self, rng, n: int, d: np.ndarray) -> np.ndarray:
        """One n x n sample (1/m) Z* diag(d) Z, d of length rows(n)."""
        from .montecarlo import _covariance_matrix
        return _covariance_matrix(self, n, rng, d)[0]


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
    """H(theta) on (0, theta_max]; theta_max itself only when x_c is finite."""
    tmax = theta_max(model)
    if not 0.0 < theta <= tmax:
        raise ValueError(f"theta={theta!r} outside (0, {tmax!r}]")
    h = _h_at(model, theta)
    if math.isinf(h):
        raise ValueError(f"H diverges at theta={theta!r} (theta_max with infinite edge transform)")
    return h


def f_rho(model: CovarianceModel, theta: float) -> float:
    """f(theta) = theta^2 H'(theta), strictly increasing on (0, theta_max)."""
    tmax = theta_max(model)
    if not 0.0 < theta < tmax:
        raise ValueError(f"theta={theta!r} outside (0, {tmax!r})")
    return _f_at(model, theta)


def _f_at(model: CovarianceModel, theta):
    # valid for any real or complex theta with alpha/theta off the support of rho
    a = model.alpha
    z = a / theta
    g = model.rho.stieltjes(z)
    gp = model.rho.stieltjes_prime(z)
    return -1.0 + a * (z * z * (-gp) - 2.0 * z * g + 1.0)


def _h_at(model: CovarianceModel, theta):
    # same domain as _f_at; H' = _f_at / theta^2
    a = model.alpha
    return 1.0 / theta - a / theta + (a * a) / (theta * theta) * model.rho.stieltjes(a / theta)


def _h_direct(model: CovarianceModel, theta: float) -> float:
    """H(theta) summed directly over atoms and quadrature nodes (cross-check path)."""
    a = model.alpha
    return 1.0 / theta + model.rho.integrate(lambda u: a * u / (a - theta * np.asarray(u)))


def thresholds(model: CovarianceModel) -> tuple[float, float]:
    """(theta_max, x_c); x_c is cross-checked against the limit of H at theta_max."""
    tmax = theta_max(model)
    r = model.rho.right_edge
    if r <= 0.0:
        return tmax, math.inf
    try:
        g_edge = model.rho.stieltjes(r)
    except MeasureError as exc:
        raise SolverError(
            f"cannot decide finiteness of G_rho at the right edge {r!r}: {exc}"
        ) from exc
    if math.isinf(g_edge):
        return tmax, math.inf
    x_c = r * r * g_edge + (1.0 / model.alpha - 1.0) * r
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


def _bracket_increasing_root(fn, lo, hi_candidates, what):
    """Bracket the root of an increasing function given probe points above lo."""
    flo = fn(lo)
    tried = [(lo, flo)]
    if flo >= 0.0:
        raise SolverError(f"{what}: no sign change, f({lo!r}) = {flo!r} >= 0")
    for hi in hi_candidates:
        fhi = fn(hi)
        tried.append((hi, fhi))
        if fhi > 0.0:
            # brentq needs finite endpoint values
            for _ in range(200):
                if math.isfinite(fhi):
                    return lo, hi
                hi = 0.5 * (lo + hi)
                fhi = fn(hi)
                if fhi <= 0.0:
                    lo, fhi = hi, math.inf
            raise SolverError(f"{what}: could not find a finite positive bracket end")
        lo = hi
    raise SolverError(f"{what}: bracketing failed; sampled f values {tried[-6:]!r}")


def edge_solve(model: CovarianceModel) -> EdgeData:
    """Locate theta_c and the right edge r(sigma) = H(theta_c).

    theta_c is the unique zero of the strictly increasing f(theta) in
    (0, theta_max); in the finite-x_c boundary case where f stays negative,
    theta_c = theta_max and r(sigma) = x_c.
    """
    tmax = theta_max(model)
    if detect_degenerate(model):
        return EdgeData(theta_max=tmax, x_c=math.inf, theta_c=None, r_sigma=None,
                        degenerate=True, case_tag=None)
    tmax, x_c = thresholds(model)
    r = model.rho.right_edge
    if r > 0.0:
        case = "pos_edge_finite_xc" if math.isfinite(x_c) else "pos_edge_infinite_xc"
    else:
        case = "nonpos_edge"

    lo = min(1.0, tmax) * 1e-9
    while _f_at(model, lo) >= 0.0:
        lo *= 1e-3
        if lo < 1e-280:
            raise SolverError("f has no negative values near zero; invalid model data")
    if math.isfinite(tmax):
        # stop 2^-40 short of theta_max: deeper probes land inside the ulp
        # snap window of the edge transforms
        probes = [tmax * (1.0 - 2.0**-k) for k in range(2, 41)]
        flast = _f_at(model, probes[-1])
        if flast <= 0.0:
            # boundary case: H is decreasing up to theta_max, so r(sigma) = x_c
            return EdgeData(tmax, x_c, tmax, x_c, False, case)
        lo2, hi = _bracket_increasing_root(lambda t: _f_at(model, t), lo, probes, "edge_solve")
    else:
        probes = [2.0**k for k in range(0, 60)]
        lo2, hi = _bracket_increasing_root(lambda t: _f_at(model, t), lo, probes, "edge_solve")
    theta_c = brentq(lambda t: _f_at(model, t), lo2, hi, **_BRENTQ_KW)
    r_sigma = _h_at(model, theta_c)
    return EdgeData(tmax, x_c, theta_c, r_sigma, False, case)


def _require_nondegenerate(edge: EdgeData):
    if edge.degenerate:
        raise DegenerateModelError("model is degenerate; use the degenerate rate function")


def _edge_side(r: float, x: float) -> int:
    """-1 below the spectral edge r, 0 at it, 1 beyond: the snap rule of the
    branches and the rate, which treat x within rounding of r as r itself."""
    scale = max(1.0, abs(r))
    if x < r - 1e-12 * scale:
        return -1
    return 0 if x <= r + 1e-13 * scale else 1


def g_sigma(edge: EdgeData, model: CovarianceModel, x: float) -> float:
    """Stieltjes transform of sigma at real x >= r(sigma) (first branch).

    Unique root of H(y) = x in (0, theta_c]; strictly decreasing in x.
    """
    _require_nondegenerate(edge)
    side = _edge_side(edge.r_sigma, x)
    if side < 0:
        raise ValueError(f"x={x!r} below r(sigma)={edge.r_sigma!r}: H(y) = x has no solution")
    if side == 0:
        return edge.theta_c
    lo = 0.5 * edge.theta_c
    for _ in range(2000):
        if _h_at(model, lo) > x:
            break
        lo *= 0.5
    else:
        raise SolverError(f"g_sigma bracketing failed at x={x!r}")
    return brentq(lambda t: _h_at(model, t) - x, lo, edge.theta_c, **_BRENTQ_KW)


def g_bar_sigma(edge: EdgeData, model: CovarianceModel, x: float) -> float:
    """Second branch of the Stieltjes transform at real x.

    For x <= x_c this is the root of H(y) = x in [theta_c, theta_max); for
    x >= x_c (finite case) it is capped at theta_max. Nondecreasing in x,
    equal to theta_c at x = r(sigma).
    """
    _require_nondegenerate(edge)
    side = _edge_side(edge.r_sigma, x)
    if side < 0:
        raise ValueError(f"x={x!r} below r(sigma)={edge.r_sigma!r}")
    if x >= edge.x_end:
        raise ValueError(f"x={x!r} outside the domain [r(sigma), 0) of the second branch")
    if side == 0:
        return edge.theta_c
    if math.isfinite(edge.x_c) and x >= edge.x_c - 1e-12 * max(1.0, abs(edge.x_c)):
        return edge.theta_max
    if math.isfinite(edge.theta_max):
        if math.isfinite(edge.x_c):
            hi = edge.theta_max
        else:
            hi = None
            for k in range(2, 41):
                cand = edge.theta_max * (1.0 - 2.0**-k)
                if cand <= edge.theta_c:
                    continue
                hv = _h_at(model, cand)
                if math.isfinite(hv) and hv > x:
                    hi = cand
                    break
            if hi is None:
                raise SolverError(f"g_bar_sigma bracketing failed at x={x!r}")
    else:
        # r(rho) <= 0: H tends to zero from below like (1 - alpha)/theta
        hi = max(2.0 * edge.theta_c, (1.0 - model.alpha) / x if x < 0.0 else 1.0, 1.0)
        for _ in range(2000):
            if _h_at(model, hi) > x:
                break
            hi *= 2.0
        else:
            raise SolverError(f"g_bar_sigma bracketing failed at x={x!r}")
    return brentq(lambda t: _h_at(model, t) - x, edge.theta_c, hi, **_BRENTQ_KW)


# -- support window and density recovery ---------------------------------------


@dataclass(frozen=True)
class SupportWindow:
    left: float
    right: float
    zero_atom: float


def support_window(model: CovarianceModel, edge: EdgeData | None = None) -> SupportWindow:
    """Support window [l(sigma'), r(sigma)] of the continuous part of sigma,
    plus the exact zero-atom mass max(0, 1 - alpha(1 - rho({0}))).

    The left edge is the maximum of H over negative arguments when the
    (decreasing) f has a zero crossing there; otherwise the continuous part
    is bounded below by 0 (hard edge or zero atom).
    """
    edge = edge or edge_solve(model)
    _require_nondegenerate(edge)
    zero_atom = max(0.0, 1.0 - model.alpha * (1.0 - model.rho.atom_mass(0.0)))
    l_rho = model.rho.left_edge
    f = lambda t: _f_at(model, t)
    if l_rho < 0.0:
        bound = model.alpha / l_rho
        probes = [bound * (1.0 - 2.0**-k) for k in range(2, 41)]
        lo = None
        for cand in probes:
            if f(cand) > 0.0:
                lo = cand
                break
        if lo is None:
            return SupportWindow(0.0, edge.r_sigma, zero_atom)
        hi = -min(1.0, -bound) * 1e-9
        while f(hi) >= 0.0:
            hi *= 1e-3
        theta_star = brentq(f, lo, hi, **_BRENTQ_KW)
    else:
        # domain (-inf, 0): f decreases from alpha(1 - rho({0})) - 1 to -1
        if model.alpha * (1.0 - model.rho.atom_mass(0.0)) <= 1.0 + 1e-13:
            return SupportWindow(0.0, edge.r_sigma, zero_atom)
        lo = None
        for k in range(0, 80):
            cand = -(2.0**k)
            if f(cand) > 0.0:
                lo = cand
                break
        if lo is None:
            return SupportWindow(0.0, edge.r_sigma, zero_atom)
        hi = -1e-9
        while f(hi) >= 0.0:
            hi *= 1e-3
        theta_star = brentq(f, lo, hi, **_BRENTQ_KW)
    left = _h_at(model, theta_star)
    if zero_atom > 0.0:
        left = min(left, 0.0)
    return SupportWindow(left, edge.r_sigma, zero_atom)


# heights of the descent in units of max(1, largest |z|), and the Newton
# steps a point may take on one level
_DESCENT = np.append(np.geomspace(1.0, 1e-12, 25), 0.0)
_LEVEL_STEPS = 120


def _solve_on_grid(h, h_prime, zs, seed):
    """Solve h(w) = z at every point of ``zs`` (Im z > 0) at once.

    Each point starts from ``seed(z + i scale)`` high above the real axis,
    where the seed lies on the physical branch, and descends: the height
    over z shrinks through ``scale * _DESCENT``, each level seeded by the
    root of the level above. Damped Newton runs on the whole array, each
    point with its own backtracking step and its own stopping test
    ``|h(w) - z| <= 1e-12 max(1, |z|)``. Iterates never leave the open
    half-plane of their seed, which holds exactly one root. Once every point
    has converged, one more Newton step on z itself polishes the roots.
    """
    zs = np.asarray(zs, dtype=complex)
    heights = max(1.0, float(np.max(np.abs(zs)))) * _DESCENT
    w = np.asarray(seed(zs + 1j * heights[0]), dtype=complex)
    side = np.sign(w.imag)
    hw = np.asarray(h(w), dtype=complex)
    level = np.zeros(zs.size, dtype=int)
    steps = np.zeros(zs.size, dtype=int)
    live = np.arange(zs.size)

    def stalled(i, why):
        z, height = complex(zs[i]), float(heights[level[i]])
        return SolverError(f"Newton {why} at z={z!r}, height {height!r} above it; "
                           f"residual {float(abs(hw[i] - z - 1j * height))!r}")

    while True:
        # a root that already solves the next level moves down at once
        while True:
            target = zs[live] + 1j * heights[level[live]]
            res = hw[live] - target
            solved = np.abs(res) <= 1e-12 * np.maximum(1.0, np.abs(target))
            down = solved & (level[live] < len(heights) - 1)
            if not down.any():
                break
            level[live[down]] += 1
            steps[live[down]] = 0
        live, target, res = live[~solved], target[~solved], res[~solved]
        if not live.size:
            # the stopping test bounds the residual, not the error in w, and may
            # accept the root of the level above z untouched; one full Newton
            # step on z itself, kept where it stays in the seed's half-plane
            # and does not raise the residual, removes that error
            with np.errstate(invalid="ignore", divide="ignore"):
                trial = w - (hw - zs) / h_prime(w)
            keep = np.sign(trial.imag) == side
            h_trial = h(trial[keep])
            keep[keep] = np.abs(h_trial - zs[keep]) <= np.abs(hw[keep] - zs[keep])
            w[keep] = trial[keep]
            return w
        if steps[live].max() >= _LEVEL_STEPS:
            raise stalled(live[np.argmax(steps[live])], "did not converge")
        steps[live] += 1
        # a NaN or infinite step only yields trials that are rejected below
        with np.errstate(invalid="ignore", divide="ignore"):
            step = res / h_prime(w[live])
        lam = np.ones(live.size)
        todo = np.arange(live.size)
        for _ in range(40):
            trial = w[live[todo]] - lam[todo] * step[todo]
            # a trial across the real axis is rejected like one that does not
            # reduce the residual; so are NaNs
            inside = np.sign(trial.imag) == side[live[todo]]
            h_trial = np.full(todo.size, np.nan, dtype=complex)
            if inside.any():
                h_trial[inside] = h(trial[inside])
            better = np.abs(h_trial - target[todo]) < np.abs(res[todo])
            w[live[todo[better]]] = trial[better]
            hw[live[todo[better]]] = h_trial[better]
            todo = todo[~better]
            if not todo.size:
                break
            lam[todo] *= 0.5
        else:
            raise stalled(live[todo[0]], "stalled")


def sigma_density(model, x, eta: float, edge=None):
    """Density approximation -Im G_sigma(x + i eta) / pi at real x, eta > 0,
    for either model kind (sigma is then the model's limiting measure).

    The model's equation for G_sigma(z) is solved at every z = x + i eta at
    once, each point by damped Newton descending from high above the real
    axis. ``edge`` is accepted for callers that hold one; the density does
    not need it.
    """
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    g = model.limit_stieltjes(xs + 1j * eta)
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
    runs = []
    i = 0
    n = len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1
    return runs


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
    from .measures import DensityComponent

    comp = DensityComponent(
        kind="table", a=float(lo), b=float(hi), mass=float(weights[keep].sum()),
        nodes=xs_asc[keep], weights=weights[keep], params={},
        evaluator=None, edge_finite_g=True,
    )
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
    g = model.limit_stieltjes(xs + 1j * eta_floor)
    if window.zero_atom > 0.0:
        # the zero atom is attached exactly below; strip its Cauchy bump from
        # the recovered transform so only the continuous part is gridded
        g = g - window.zero_atom / (xs + 1j * eta_floor)
    dens = np.maximum(-g.imag / math.pi, 0.0)
    return grid_measure_from_density(xs, dens, lo, hi, window.zero_atom)
