"""Compactly supported probability measures on the real line.

A measure is a finite list of atoms plus an optional absolutely continuous
part held as one or more density components. Components are tagged by kind:
``semicircle`` and ``uniform`` evaluate their Stieltjes transform, its
derivative, the logarithmic moment and the cdf in closed form, which keeps
edge evaluations exact; a ``table`` component is exactly its quadrature nodes
and weights, and every quantity of it, the cdf included, is computed from
them alone. All measures are immutable after construction.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._quad import sqrt_adapted_rule

__all__ = [
    "MeasureError",
    "Semicircle",
    "Uniform",
    "SpectralMeasure",
    "remove_zero_atom",
]

_MASS_TOL = 1e-12
_MERGE_REL = 1e-14
# entries of a (points, nodes) array per pass of the table kernel: 256 KB of
# doubles on a real z, 512 KB of complex128 on a complex one. It bounds the
# memory of a transform; for its time the size hardly matters (see _by_rows)
_TABLE_ENTRIES = 32768
# The Gauss rule of a table (DensityComponent.gauss_rule): its node count K,
# and the least number of distinct nodes of positive weight that builds one.
# On the 2000-node sigma grids of the benchmark models (2-core host, one BLAS
# thread), J at the 51 theta of one variational point took 1.3-1.6 ms on the
# nodes and 0.3-0.4 ms on a rule of 32 to 64 nodes, and a rule took 0.7, 1.1
# and 1.5 ms to build at K = 32, 48 and 64: it repays its build by the second
# point. K sets where the rule serves, its reach (below): 0.243, 0.113 and
# 0.066 half-widths past the support. At K = 32 the nodes would keep the first
# 35% of two-atom's variational range and 21% of dw-two-atom's; K = 64 would
# add only wishart1's first 0.03 for 0.4 ms more per grid.
_RULE_NODES = 48
_RULE_MIN_TABLE = 8 * _RULE_NODES
# The rule's reach: it replaces the nodes at real points lam with
# lam - b >= _RULE_REACH h, for a table on [a, b] of centre c, half-width h and
# mass m. With u = (lam - c) / h and rho = u + sqrt(u^2 - 1), the K-point rule
# errs against the nodes by at most
#   1/(lam - t):    4 m rho^(1-2K) / (h sqrt(u^2 - 1) (rho - 1)),
#   1/(lam - t)^2:  4 m rho^(1-2K) (2K + 1/(rho - 1) + u/sqrt(u^2 - 1))
#                   / (h^2 (u^2 - 1) (rho - 1)),
#   log(lam - t):   2 m rho^(1-2K) / (K (rho - 1)):
# both integrate the kernel's Chebyshev expansion on [a, b] exactly up to
# degree 2K - 1, and each errs on the rest by at most m times the sum of its
# coefficients. Each bound falls with u; at K = 48 the largest of them, in
# units of m/h, m/h^2 and m, is 1e-16 at lam - b = 0.11312 h (the first alone
# at 0.0887 h, the third at 0.0666 h). Rounding adds O(K eps) of each sum.
_RULE_REACH = 0.1132


class MeasureError(ValueError):
    """Invalid measure data or an evaluation outside a transform's domain."""


@dataclass(frozen=True)
class Semicircle:
    """Semicircle density of given center and radius, normalized to mass 1."""

    center: float
    radius: float

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        t = self.radius**2 - (u - self.center) ** 2
        return 2.0 / (math.pi * self.radius**2) * np.sqrt(np.maximum(t, 0.0))


@dataclass(frozen=True)
class Uniform:
    """Uniform density on [a, b], normalized to mass 1."""

    a: float
    b: float

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        inside = (u >= self.a) & (u <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)


def _json_number(value, field: str) -> float:
    """A number read from a model file as a float; a bool, a string or any
    other value raises MeasureError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise MeasureError(f"{field} must be a number, got {value!r}")
    return float(value)


def _json_column(values, field: str) -> np.ndarray:
    """A table's nodes ``x`` or weights ``w`` read from a model file: a list
    of JSON numbers, else MeasureError naming the field."""
    if not isinstance(values, list):
        raise MeasureError(f"{field} must be a list of numbers, got {values!r}")
    return np.array([_json_number(v, field) for v in values], dtype=float)


def _item(values):
    """A Python scalar for a 0-d array, else the array."""
    return values.item() if values.ndim == 0 else values


def _table_pair(z, nodes, weights, prime=True):
    """(G, G') of the discrete measure of ``weights`` at ``nodes`` (a table,
    or 8 or more atoms) at the points of z; (G,) where ``prime`` is false
    (0) and (G, G', G'') where it is 2: its one kernel. The (points, nodes)
    array q = z - nodes is reused in place, 1/q, then 1/q^2 and, from a
    copy of 1/q, 1/q^3, and each point's sum is one dot of its row with the
    weights, so a point gets the same bits alone, in any chunk and on the
    float path (``np.vecdot`` dots row by row; a matrix-vector product
    would not). A node hit exactly gives an infinite term."""
    q = z[..., None] - nodes
    np.reciprocal(q, out=q)
    g = np.vecdot(weights, q)
    if not prime:
        return (g,)
    inverse = q.copy() if prime > 1 else None
    # numpy squares a lone complex entry in place with other bits than
    # it squares it in a longer array; out of place the two agree
    q = np.square(q, out=q if q.size > 1 else None)
    gp = -np.vecdot(weights, q)
    if inverse is None:
        return g, gp
    np.multiply(q, inverse, out=q)
    return g, gp, 2.0 * np.vecdot(weights, q)


def _table_log_moment(z, nodes, weights):
    d = z[..., None] - nodes
    np.log(d, out=d)
    np.multiply(weights, d, out=d)
    return (d.sum(axis=-1),)


def _by_rows(z, nodes, weights, sums, *args):
    """``sums(z, nodes, weights, *args)``, a tuple of arrays of z's shape
    from (points, nodes) arrays, on at most ``_TABLE_ENTRIES`` entries at a
    time, with each point's sums those of the whole array bit for bit: on 51
    real points of a 1968-node table, 426 us for the pair in chunks of 16
    points against 398 us at once (caches flushed, 2-core host)."""
    flat = z.reshape(-1)
    rows = max(1, _TABLE_ENTRIES // nodes.size)
    if flat.size <= rows:
        return sums(z, nodes, weights, *args)
    parts = [sums(flat[i:i + rows], nodes, weights, *args) for i in range(0, flat.size, rows)]
    return tuple(np.concatenate(p).reshape(z.shape) for p in zip(*parts))


def _real_pair_sum(x, nodes, weights, prime):
    """G (``prime`` false) or G' at the float x as a Python float: the last
    of the kernel's sums on the one point, so the array path's bits."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(_table_pair(np.array([x]), nodes, weights, prime)[-1][0])


def _log_moment_sc2(zeta):
    # integral of log(zeta - t) against the radius-2 centered semicircle,
    # valid for real zeta >= 2 (a float or an array); written cancellation-free
    # for large zeta. (d + |d|) / 2 is max(d, 0) exactly, for floats and arrays.
    d = zeta * zeta - 4.0
    s = np.sqrt(0.5 * (d + abs(d)))
    return zeta / (zeta + s) + np.log((zeta + s) / 2.0) - 0.5


# the values edge_finite_g may take: a closed form's kind sets it
_EDGE_FINITE_G = {"semicircle": (True,), "uniform": (False,), "table": (True, False, None)}
# a semicircle's support is [c - R, c + R] within 1e-9 R plus 8 eps of the
# largest of |a|, |b| and |c|: a scaled one's rounding, > 1e-9 R at |c| > 1e7 R
_SEMICIRCLE_END_REL, _SEMICIRCLE_END_EPS = 1e-9, 8.0 * np.finfo(float).eps


def _semicircle_fits(a, b, center, radius) -> bool:
    tol = _SEMICIRCLE_END_REL * radius + _SEMICIRCLE_END_EPS * max(abs(a), abs(b), abs(center))
    return abs(a - (center - radius)) <= tol and abs(b - (center + radius)) <= tol


def _check_support(a, b) -> None:
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise MeasureError(f"support must be finite with a < b, got [{a!r}, {b!r}]")


def _check_form(kind, a, b, params) -> None:
    """:class:`DensityComponent`'s rules of kind, support and params."""
    if kind not in _EDGE_FINITE_G:
        raise MeasureError(f"unknown density kind {kind!r}")
    _check_support(a, b)
    if kind == "semicircle":
        c, r = params.get("center"), params.get("radius")
        if c is None or not math.isfinite(c):
            raise MeasureError(f"center must be finite, got {c!r}")
        if r is None or not 0.0 < r < math.inf:
            raise MeasureError(f"radius must be positive and finite, got {r!r}")
        if not _semicircle_fits(a, b, c, r):
            raise MeasureError(f"support [{a!r}, {b!r}] must be [center - radius, center + radius] "
                               f"= [{c - r!r}, {c + r!r}] within {_SEMICIRCLE_END_REL} radius")


@dataclass(frozen=True)
class DensityComponent:
    """One absolutely continuous piece of a measure.

    ``nodes``/``weights`` integrate smooth functions against the component;
    closed-form kinds additionally bypass them for singular transforms.
    ``edge_finite_g`` declares whether G is finite at both ends: the kind's
    for a closed form (True for a semicircle, False for a uniform), True,
    False or None (undeclared) for a table. Construction refuses, with
    MeasureError naming the field (``x`` and ``w`` for nodes and weights):
    a ``kind`` other than ``semicircle``, ``uniform`` and ``table``; a
    support [a, b] not finite with a < b, or for a semicircle not [c - R,
    c + R] within 1e-9 R and rounding, with c = ``center`` given and finite
    and R = ``radius`` given, finite and > 0; a closed form's ``mass`` not
    finite and > 0; nodes and weights not finite and of one length, nodes
    not ascending inside [a, b], and weights negative or of total 0 (a
    table's mass is the total).
    """

    kind: str
    a: float
    b: float
    mass: float
    nodes: np.ndarray
    weights: np.ndarray
    params: dict = field(default_factory=dict)
    edge_finite_g: bool | None = None

    def __post_init__(self):
        _check_form(self.kind, self.a, self.b, self.params)
        allowed = _EDGE_FINITE_G[self.kind]
        if not any(self.edge_finite_g is v for v in allowed):
            raise MeasureError(f"edge_finite_g of a {self.kind} must be "
                               f"{' or '.join(map(repr, allowed))}, got {self.edge_finite_g!r}")
        if self.kind != "table" and not 0.0 < self.mass < math.inf:
            raise MeasureError(f"mass must be positive and finite, got {self.mass!r}")
        x, w = self.nodes, self.weights
        if x.shape != w.shape:
            raise MeasureError(f"x and w differ in length: {x.size} and {w.size}")
        for values, name in ((x, "x"), (w, "w")):
            if not np.isfinite(values).all():
                raise MeasureError(f"{name} must be finite")
        if not (w >= 0.0).all():
            raise MeasureError("w must be nonnegative")
        if not w.sum() > 0.0:
            raise MeasureError("w must have a positive total")
        if not (x[1:] >= x[:-1]).all():
            raise MeasureError("x must ascend")
        if not self.a <= x[0] <= x[-1] <= self.b:
            raise MeasureError(f"x must lie in the support [{self.a!r}, {self.b!r}]")

    # -- transforms ---------------------------------------------------------

    def stieltjes_pair(self, z, prime=True):
        """(G, G') of the component at z, a real or complex scalar or array;
        (G,) where ``prime`` is false (0) and (G, G', G'') where it is 2: its
        one body of the transforms, from one z - t array (a semicircle's w
        and s, a uniform's z - a and z - b, a table's z - nodes). G'' is
        2m/s^3 on a semicircle of mass m and m (za + zb)/(za zb)^2 on a
        uniform. A real z gives real values: a uniform's G is then its real
        ``log1p`` form, and G' and G'' of a closed form are their complex
        formulas' real parts, G' at either end the one-sided limit -inf, where
        the formulas divide by 0 (a semicircle end within rounding counts as
        its end). Divisions by 0 are left to the caller's ``np.errstate``."""
        z = np.asarray(z)
        real = z.dtype.kind != "c"
        if self.kind == "table":
            return _by_rows(z, self.nodes, self.weights, _table_pair, prime)
        gp = gpp = None
        if self.kind == "semicircle":
            # G = (2m/R^2)(w - s) = 2m/(w + s): stable at large |w|; s =
            # sqrt(w^2 - R^2) as sqrt(w - R) sqrt(w + R), with principal square
            # roots, keeps z -> G(z) Herglotz
            zc = np.asarray(z, dtype=complex)
            w, right, left = self._semicircle_offsets(zc)
            s = np.sqrt(right) * np.sqrt(left)
            d = w + s
            g = 2.0 * self.mass / d
            if prime:
                gp = -2.0 * self.mass * (1.0 + w / s) / d ** 2
                ends = real and (right.real <= 0.0) & (left.real >= 0.0)
            if prime > 1:
                gpp = 2.0 * self.mass / s ** 3
        else:
            if prime or not real:
                zc = np.asarray(z, dtype=complex)
                za, zb = zc - self.a, zc - self.b
            if real:
                g = self.mass * np.log1p((self.b - self.a) / (z - self.b)) / (self.b - self.a)
            else:
                g = self.mass * (np.log(za) - np.log(zb)) / (self.b - self.a)
            if prime:
                gp = -self.mass / (za * zb)
                ends = real and (z == self.a) | (z == self.b)
            if prime > 1:
                gpp = self.mass * (za + zb) / (za * zb) ** 2
        if real:
            g = g.real
            if prime:
                gp = np.where(ends, -np.inf, gp.real)
            if prime > 1:
                gpp = gpp.real
        return (g, gp, gpp)[:1 + prime]

    @cached_property
    def gauss_rule(self) -> "DensityComponent | None":
        """The table read through its ``_RULE_NODES``-point Gauss rule: a
        table of the same support, mass to rounding and ``edge_finite_g``,
        built on first use and kept. None for a closed form, and for a table
        with fewer than ``_RULE_MIN_TABLE`` distinct nodes of positive
        weight."""
        if self.kind != "table" or self.nodes.size < _RULE_MIN_TABLE:
            return None
        # the nodes ascend, so np.diff counts the distinct ones (np.unique
        # imports numpy.ma)
        if 1 + np.count_nonzero(np.diff(self.nodes[self.weights > 0.0])) < _RULE_MIN_TABLE:
            return None
        nodes, weights = _gauss_rule(self.nodes, self.weights, self.a, self.b, _RULE_NODES)
        return _make_component("table", self.a, self.b, None, nodes, weights,
                               edge_finite_g=self.edge_finite_g)

    def read_from(self, lam: float) -> "DensityComponent":
        """The component as read at real points from ``lam`` on: its Gauss
        rule where that reproduces the node sums of G, G' and the log moment
        to rounding (``lam`` at least ``_RULE_REACH`` half-widths past b),
        else the component itself."""
        if self.kind == "table" and lam - self.b >= _RULE_REACH * 0.5 * (self.b - self.a):
            rule = self.gauss_rule
            return self if rule is None else rule
        return self

    def real_transform(self, x: float, prime: bool):
        """G (``prime`` false) or G' at a finite real float x off the open
        support: a Python float equal bit for bit to the array body's G or G'
        at x (:meth:`SpectralMeasure.stieltjes`), or None where only that
        body gives it. A table takes its kernel on the one point.

        With every imaginary part 0, numpy's complex division a / b reduces to
        a * (1 / b), so the closed forms below repeat the complex formulas'
        rounding step by step. Points where that reduction does not hold are
        left to the complex formulas: a semicircle end, or an x past it whose
        offset from it (:meth:`_semicircle_offsets`) rounds to 0; w + s beyond
        the double range, where the complex product gives a NaN imaginary part.
        A division by zero (a uniform end, (w + s)^2 underflowing) raises
        ZeroDivisionError, which the caller handles the same way.
        """
        if self.kind == "semicircle":
            w, right, left = self._semicircle_offsets(x)
            if not (right > 0.0 or left < 0.0):
                return None
            if right > 0.0:
                s = math.sqrt(right) * math.sqrt(left)
            else:
                s = -(math.sqrt(-right) * math.sqrt(-left))
            d = w + s
            if math.isinf(d):
                return None
            if prime:
                return -2.0 * self.mass * (1.0 + w * (1.0 / s)) * (1.0 / (d * d))
            return 2.0 * self.mass * (1.0 / d)
        if self.kind == "uniform":
            if prime:
                return -self.mass * (1.0 / ((x - self.a) * (x - self.b)))
            # np.log1p, not math.log1p: the two differ in the last bit on some
            # hosts (numpy may use its own SIMD log1p)
            return self.mass * float(np.log1p((self.b - self.a) / (x - self.b))) / (self.b - self.a)
        return _real_pair_sum(x, self.nodes, self.weights, prime)

    @cached_property
    def _semicircle(self) -> tuple[float, float, bool, bool]:
        """A semicircle's c and R, and whether its stored ends b and a are c +
        R and c - R exactly (fl(c + R) = b is not enough)."""
        c, r = self.params["center"], self.params["radius"]
        return c, r, math.fsum((self.b, -c, -r)) == 0.0, math.fsum((self.a, -c, r)) == 0.0

    def _semicircle_offsets(self, z):
        """(w, z - b, z - a) of a semicircle at z, a float or an array, w = z -
        c: the offsets from the ends as w - R and w + R where the ends are
        exact. Where a stored end misses c +- R, w - R (or w + R) is not 0 at
        z = b (a), and sqrt(w - R) of about sqrt(R ulp) would cost G at its
        end half its digits; that offset is then z - b (z - a) itself."""
        c, r, right_exact, left_exact = self._semicircle
        w = z - c
        return w, w - r if right_exact else z - self.b, w + r if left_exact else z - self.a

    def log_moment(self, z):
        """integral of log(z - t) against the component, real z >= b: a float
        or an array, elementwise."""
        if self.kind == "semicircle":
            c, r = self.params["center"], self.params["radius"]
            zeta = 2.0 * (z - c) / r
            return self.mass * (np.log(r / 2.0) + _log_moment_sc2(zeta))
        if self.kind == "uniform":
            za, zb = z - self.a, z - self.b
            # zb log zb, which is 0 at the edge zb = 0
            term_b = zb * np.log(zb + (zb == 0.0))
            return self.mass * ((za * np.log(za) - term_b) / (self.b - self.a) - 1.0)
        return _by_rows(np.asarray(z), self.nodes, self.weights, _table_log_moment)[0]

    def cdf(self, x):
        """Mass of the component in (-inf, x], elementwise over an array x."""
        x = np.asarray(x, dtype=float)
        if self.kind == "semicircle":
            c, r = self.params["center"], self.params["radius"]
            w = np.clip(x - c, -r, r)
            val = self.mass * (
                0.5 + (w * np.sqrt(np.maximum(r * r - w * w, 0.0)) + r * r * np.arcsin(w / r))
                / (math.pi * r * r)
            )
        elif self.kind == "uniform":
            val = self.mass * (x - self.a) / (self.b - self.a)
        else:
            # piecewise-linear in the cell [nodes[i], nodes[i + 1]] containing x,
            # the last cell ending at b; zero below the first node
            i = np.searchsorted(self.nodes, x, side="right") - 1
            j = np.maximum(i, 0)
            nodes = np.append(self.nodes, self.b)
            weights = np.append(self.weights, 0.0)
            left = np.cumsum(self.weights)[j] - 0.5 * weights[j]
            gap_mass = 0.5 * weights[j] + 0.5 * weights[j + 1]
            frac = (x - nodes[j]) / np.maximum(nodes[j + 1] - nodes[j], 1e-300)
            val = np.where(i >= 0, np.minimum(left + frac * gap_mass, self.mass), 0.0)
        return np.where(x <= self.a, 0.0, np.where(x >= self.b, self.mass, val))[()]

    def scaled(self, factor: float, mass_factor: float) -> "DensityComponent":
        """Pushforward by multiplication with ``factor`` (> 0), mass rescaled."""
        lo, hi = sorted((self.a * factor, self.b * factor))
        params = dict(self.params)
        if self.kind == "semicircle":
            params["center"] *= factor
            params["radius"] *= factor
        return _make_component(self.kind, lo, hi, self.mass * mass_factor, self.nodes * factor,
                               self.weights * mass_factor, params, self.edge_finite_g)


def _golub_welsch(diag, off, mass):
    """Nodes and weights of the Gauss rule of a measure of total ``mass``
    whose Jacobi matrix has diagonal ``diag`` and off-diagonal ``off`` (Golub
    & Welsch, Math. Comp. 23, 1969): the matrix's eigenvalues (ascending),
    and the mass times the squares of the first components of its
    eigenvectors."""
    values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return values, mass * vectors[0] ** 2


def _gauss_rule(nodes, weights, a, b, k):
    """Nodes and weights of the k-point Gauss rule of the discrete measure
    of ``weights`` at ``nodes`` in [a, b] (:func:`_golub_welsch`). The
    normalised discretized Stieltjes (Lanczos) recurrence, on the nodes
    mapped to [-1, 1], gives the Jacobi matrix of the measure."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    s = (nodes - c) / h
    mass = float(weights.sum())
    # q holds the weighted values sqrt(w) p_j of the j-th orthonormal polynomial
    q, q_prev = np.sqrt(weights / mass), np.zeros(nodes.size)
    diag, off = np.empty(k), np.zeros(k)
    for j in range(k):
        sq = s * q
        diag[j] = q @ sq
        if j + 1 < k:
            r = sq - diag[j] * q - off[j] * q_prev
            off[j + 1] = math.sqrt(r @ r)
            q_prev, q = q, r / off[j + 1]
    values, weights = _golub_welsch(diag, off[1:], mass)
    # an eigenvalue at +-1 can round to a node an ulp past a or b
    return np.clip(c + h * values, a, b), weights


def _make_component(kind, a, b, mass, nodes, weights, params=None, edge_finite_g=None):
    """A component. ``mass`` is read for a closed form only: a table is its
    nodes and weights, so its mass is the sum of its weights. Likewise
    ``edge_finite_g`` is read for a table only: a closed form's kind sets it.
    Nodes and weights are stored contiguous: a table's dot products take
    other bits on a strided or reversed view."""
    weights = np.ascontiguousarray(weights, dtype=float)
    return DensityComponent(
        kind=kind, a=float(a), b=float(b),
        mass=float(weights.sum()) if kind == "table" else float(mass),
        nodes=np.ascontiguousarray(nodes, dtype=float), weights=weights,
        params=params or {},
        edge_finite_g=edge_finite_g if kind == "table" else _EDGE_FINITE_G[kind][0],
    )


class SpectralMeasure:
    """Immutable probability measure with atoms and density components."""

    def __init__(self, atom_locations=(), atom_weights=(), components=(), *,
                 raw_mass_defect: float | None = None):
        locs = np.asarray(atom_locations, dtype=float).ravel()
        wts = np.asarray(atom_weights, dtype=float).ravel()
        if locs.size != wts.size:
            raise MeasureError("atom locations and weights differ in length")
        if not np.isfinite(locs).all():
            raise MeasureError("atom locations must be finite")
        if locs.size and not wts.min() > 0.0:
            raise MeasureError("atom weights must be strictly positive")
        components = tuple(components)
        # the magnitude of the support's coordinates (1 for a point mass at 0), the unit
        # of the atom merge and the snap window: a floor of 1 would swallow a tiny support
        ends = [abs(e) for c in components for e in (c.a, c.b)]
        self._scale = max(float(np.abs(locs).max(initial=0.0)), *ends, 0.0) or 1.0
        locs, wts = self._merge_atoms(locs, wts, _MERGE_REL * self._scale)
        total = wts.sum() + sum(c.mass for c in components)
        if not abs(total - 1.0) <= _MASS_TOL:
            raise MeasureError(f"total mass {total!r} is not 1 within {_MASS_TOL}")
        self.atom_locations = locs
        self.atom_weights = wts
        self.components = components
        self.raw_mass_defect = raw_mass_defect
        edges = list(locs) + [e for c in components for e in (c.a, c.b)]
        self._left = float(min(edges))
        self._right = float(max(edges))
        # snap window of a few ulps around each edge for the edge values of
        # stieltjes: exact edge queries hit it, approach sequences from root
        # finders must stay evaluable
        self._snap = 1e-15 * self._scale
        # the one atom-count rule: fewer than 8 atoms are summed one after
        # another from 0.0 over these pairs, on floats and arrays alike; 8 or
        # more (None) by the table kernel, by rows on arrays
        self._atom_pairs = tuple(zip(wts.tolist(), locs.tolist())) if locs.size < 8 else None
        # the measures read_from has built, by which components read
        # through their rule
        self._readings = {}
        self.atom_locations.setflags(write=False)
        self.atom_weights.setflags(write=False)

    @staticmethod
    def _merge_atoms(locs, wts, tol):
        if locs.size == 0:
            return locs, wts
        order = np.argsort(locs)
        locs, wts = locs[order], wts[order]
        out_l, out_w = [locs[0]], [wts[0]]
        for loc, w in zip(locs[1:], wts[1:]):
            if loc - out_l[-1] <= tol:
                out_w[-1] += w
            else:
                out_l.append(loc)
                out_w.append(w)
        return np.asarray(out_l), np.asarray(out_w)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_atoms(cls, locations, weights) -> "SpectralMeasure":
        return cls(locations, weights)

    @classmethod
    def point_mass(cls, location: float) -> "SpectralMeasure":
        return cls.from_atoms([location], [1.0])

    @classmethod
    def from_density(cls, density, support, nodes_per_interval: int = 256,
                     edge_finite_g: bool | None = None) -> "SpectralMeasure":
        """Discretize a density on one support interval into a measure.

        ``density`` may be a :class:`Semicircle` or :class:`Uniform` instance
        (recognized kinds keep closed-form transforms) or any callable. A
        callable is sampled once, at fixed quadrature nodes, and not kept: the
        result is a ``table`` component of those nodes and weights, equal to
        what its JSON form loads back as. The result is renormalized to mass 1;
        a renormalization warning is issued when the raw quadrature mass
        deviates from 1 by more than 1e-6.
        """
        a, b = float(support[0]), float(support[1])
        _check_support(a, b)
        n = int(nodes_per_interval)
        nodes, qw = sqrt_adapted_rule(a, b, n)
        vals = np.asarray(density(nodes), dtype=float)
        if vals.min() < -1e-12 * max(1.0, abs(vals.max())):
            raise MeasureError(f"negative density sample {vals.min()!r} on support")
        vals = np.maximum(vals, 0.0)
        weights = qw * vals
        raw_mass = float(weights.sum())
        if raw_mass <= 0.0:
            raise MeasureError("density has zero total mass on the support")
        if abs(raw_mass - 1.0) > 1e-6:
            warnings.warn(
                f"density mass {raw_mass:.9g} renormalized by factor {1.0 / raw_mass:.9g}",
                stacklevel=2,
            )
        if isinstance(density, Semicircle) and _semicircle_fits(a, b, density.center, density.radius):
            comp = _make_component(
                "semicircle", a, b, 1.0, nodes, weights / raw_mass,
                params={"center": density.center, "radius": density.radius},
            )
        elif isinstance(density, Uniform) and a >= density.a - 1e-12 and b <= density.b + 1e-12:
            comp = _make_component("uniform", a, b, 1.0, nodes, weights / raw_mass)
        else:
            comp = _make_component("table", a, b, None, nodes, weights / raw_mass,
                                   edge_finite_g=edge_finite_g)
        return cls(components=[comp], raw_mass_defect=abs(raw_mass - 1.0))

    @classmethod
    def semicircle(cls, center: float, radius: float, nodes: int = 256) -> "SpectralMeasure":
        law = Semicircle(center, radius)
        return cls.from_density(law, (center - radius, center + radius), nodes)

    @classmethod
    def uniform(cls, a: float, b: float, nodes: int = 256) -> "SpectralMeasure":
        return cls.from_density(Uniform(a, b), (a, b), nodes)

    # -- basic queries --------------------------------------------------------

    def edges(self) -> tuple[float, float]:
        return self._left, self._right

    @property
    def left_edge(self) -> float:
        return self._left

    @property
    def right_edge(self) -> float:
        return self._right

    def atom_mass(self, x: float) -> float:
        """The weight of the atoms within 1e-14 of the measure's scale of x."""
        hit = np.abs(self.atom_locations - x) <= _MERGE_REL * self._scale
        return float(self.atom_weights[hit].sum())

    def total_mass(self) -> float:
        return float(self.atom_weights.sum() + sum(c.mass for c in self.components))

    def edge_stieltjes_finite(self) -> bool | None:
        """Whether the Stieltjes transform stays finite at the right edge.

        None means it cannot be decided (undeclared table component at the
        edge); callers that need the answer must treat None as an error.
        """
        if self.atom_mass(self._right) > 0.0:
            return False
        for c in self.components:
            if c.b >= self._right - 1e-12 * max(1.0, abs(self._right)):
                return c.edge_finite_g
        return False  # isolated atom handled above; unreachable in practice

    # -- transforms ------------------------------------------------------------

    def _inside_error(self, shown) -> MeasureError:
        return MeasureError(
            f"real argument {shown!r} lies inside the support "
            f"[{self._left}, {self._right}]; use a complex argument"
        )

    def _check_real_argument(self, z) -> None:
        # the points of a complex z with Im z = 0 are checked as real ones;
        # a real z wholly on one side of the support needs no elementwise test
        zr = np.asarray(z)
        if zr.dtype.kind == "c":
            if np.count_nonzero(zr.imag) < zr.size:
                self._check_real_argument(zr.real[np.asarray(zr.imag == 0.0)])
            return
        if not zr.size or zr.min() >= self._right or zr.max() <= self._left:
            return
        inside = (zr > self._left) & (zr < self._right)
        if np.any(inside):
            raise self._inside_error(zr[inside] if zr.ndim else z)

    def _real_transform(self, z, prime: bool):
        """G or G' at a float z (``np.float64`` included) as a Python float,
        bit for bit the array path's value; None for any other z, and where
        only the array path gives the value (non-finite z, a pole of fewer
        than 8 atoms hit exactly, a component end hit within rounding)."""
        if not isinstance(z, float):
            return None
        x = float(z)
        if self._left < x < self._right:
            raise self._inside_error(z)
        if not math.isfinite(x):
            return None
        if not prime:
            edge_val = self._edge_value(x)
            if edge_val is not None:
                return edge_val
        total = 0.0
        try:
            if self._atom_pairs is None:
                total = _real_pair_sum(x, self.atom_locations, self.atom_weights, prime)
            elif self._atom_pairs:
                if prime:
                    for w, loc in self._atom_pairs:
                        d = x - loc
                        total += w / (d * d)
                    total = -total
                else:
                    for w, loc in self._atom_pairs:
                        total += w / (x - loc)
            for c in self.components:
                val = c.real_transform(x, prime)
                if val is None:
                    return None
                total = total + val
        except ZeroDivisionError:
            return None
        return float(total)

    def stieltjes(self, z):
        """G(z) = integral of 1/(z - t); real z must lie outside the open support.

        At the exact support edges the one-sided limit is returned, which is
        +inf (resp. -inf at the left edge) when the measure has an atom there
        or the edge density makes the integral diverge.

        A float z (``np.float64`` included) is evaluated on Python floats,
        returning the same bits as the array path. The edge snap holds at a
        float or 0-d z, not at the points of an array: for atoms at 0 and 1,
        1 + 2.3e-16 gives inf as a float and 2.25e15 in a 1-element array.
        """
        val = self._real_transform(z, prime=False)
        if val is not None:
            return val
        self._check_real_argument(z)
        zr = np.asarray(z)
        if not np.iscomplexobj(zr) and zr.ndim == 0:
            edge_val = self._edge_value(float(zr))
            if edge_val is not None:
                return edge_val
        return _item(self._transforms(zr, prime=False)[0])

    def past_right_snap(self) -> float:
        """The first float above the right edge outside the snap window of
        :meth:`stieltjes`: the point nearest the edge where G is evaluated by
        its formulas, not returned as its one-sided edge limit."""
        z = self._right + self._snap
        while abs(z - self._right) <= self._snap:
            z = math.nextafter(z, math.inf)
        return z

    def _edge_value(self, z: float):
        """Divergent one-sided edge values of G, or None when regular."""
        scale = self._scale
        at_right = abs(z - self._right) <= self._snap
        at_left = abs(z - self._left) <= self._snap
        if not (at_right or at_left):
            return None
        edge = self._right if at_right else self._left
        sign = 1.0 if at_right else -1.0
        if self.atom_mass(edge) > 0.0:
            return sign * math.inf
        for c in self.components:
            touches = (abs(c.b - edge) <= 1e-13 * scale) if at_right else (abs(c.a - edge) <= 1e-13 * scale)
            if touches:
                finite = c.edge_finite_g
                if finite is None:
                    raise MeasureError(
                        "cannot decide finiteness of the Stieltjes transform at the "
                        "support edge: declare edge_finite_g on the table density"
                    )
                if not finite:
                    return sign * math.inf
        return None  # finite edge value; fall through to the regular formulas

    def read_from(self, lam: float) -> "SpectralMeasure":
        """The measure as read at real points from ``lam`` on, where each
        table component reads through its Gauss rule if ``lam`` lies far
        enough past it (:meth:`DensityComponent.read_from`); the measure
        itself where no component changes. Atoms and closed forms are kept.
        The measure of each reading is built once and kept, so every lam
        that reads the components alike gets the same object."""
        comps = tuple(c.read_from(lam) for c in self.components)
        key = tuple(r is not c for r, c in zip(comps, self.components))
        if not any(key):
            return self
        read = self._readings.get(key)
        if read is None:
            read = self._readings[key] = SpectralMeasure(
                self.atom_locations, self.atom_weights, comps, raw_mass_defect=self.raw_mass_defect)
        return read

    def stieltjes_prime(self, z):
        """d/dz of the Stieltjes transform; real scalars as in :meth:`stieltjes`."""
        val = self._real_transform(z, prime=True)
        if val is not None:
            return val
        self._check_real_argument(z)
        return _item(self._transforms(z)[1])

    def stieltjes_pair(self, z):
        """(G(z), G'(z)), equal bit for bit to ``(stieltjes(z),
        stieltjes_prime(z))``: the evaluation of the grid solver, the inverse
        Stieltjes solve and the level curves. A float z (``np.float64``
        included) or a real 0-d array takes the two transforms, the edge snap
        of ``stieltjes`` included; at a complex z or a real array of points
        both come from one z - t array per atom list and component. A real
        point of z must lie outside the open support."""
        if isinstance(z, float) or np.ndim(z) == 0 and not np.iscomplexobj(z):
            return self.stieltjes(z), self.stieltjes_prime(z)
        self._check_real_argument(z)
        return self._transforms(z)

    # the errstate as a decorator costs about half of a with-block
    @np.errstate(divide="ignore", invalid="ignore")
    def _transforms(self, z, prime=True):
        """(G, G') at the points of a real or complex z; (G,) where ``prime``
        is false (0) and (G, G', G'') where it is 2: arrays of z's shape, the
        one array body of the transforms, under one ``np.errstate`` (a pole
        hit exactly gives an infinite term). Fewer than 8 atoms are summed
        one after another from 0.0, as the float path sums them; 8 or more by
        the table kernel, by rows. The sums run on at least one dimension: on
        a 0-d z the terms would be numpy scalars, whose square takes other
        bits than an array's."""
        z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
        zs = z if z.ndim else z.reshape(1)
        sums = (0.0,) * (1 + prime)
        if self._atom_pairs is None:
            sums = _by_rows(zs, self.atom_locations, self.atom_weights, _table_pair, prime)
        elif self._atom_pairs:
            g = gp = gpp = 0.0
            for w, loc in self._atom_pairs:
                d = zs - loc
                g = g + w / d
                if prime:
                    gp = gp + w / d ** 2
                if prime > 1:
                    gpp = gpp + w / d ** 3
            sums = (g, -gp, 2.0 * gpp)[:1 + prime]
        for c in self.components:
            sums = tuple(map(operator.add, sums, c.stieltjes_pair(zs, prime)))
        return sums if z.ndim else tuple(v.reshape(()) for v in sums)

    def log_moment(self, z):
        """integral of log(z - t) for real z at or beyond the right edge,
        elementwise over an array z; a float for scalar z.

        A scalar z stays a Python float through the closed forms, which keeps
        a scalar call about as cheap as its few ufunc calls.
        """
        if isinstance(z, numbers.Real):
            zs = low = float(z)
        else:
            zs = np.asarray(z, dtype=float)
            low = zs.min(initial=math.inf)
        if low < self._right - 1e-12 * max(1.0, abs(self._right)):
            raise MeasureError(f"log moment needs z >= right edge, got {z!r}")
        total = 0.0
        if self.atom_locations.size:
            # the locations are sorted
            if low <= self.atom_locations[-1]:
                raise MeasureError("log moment diverges: atom at or beyond z")
            # fewer than 8 atoms skip _by_rows, which costs a scalar call ~2 us
            args = np.asarray(zs), self.atom_locations, self.atom_weights
            total = (_by_rows(*args, _table_log_moment) if self._atom_pairs is None
                     else _table_log_moment(*args))[0]
        for c in self.components:
            total = total + c.log_moment(zs)
        return float(total) if isinstance(zs, float) else total

    def integrate(self, f) -> float:
        """integral of f against the measure via atoms plus quadrature nodes."""
        total = 0.0
        if self.atom_locations.size:
            total += float(np.sum(self.atom_weights * np.asarray(f(self.atom_locations))))
        for c in self.components:
            total += float(np.sum(c.weights * np.asarray(f(c.nodes))))
        return total

    # -- cdf / quantiles --------------------------------------------------------

    def cdf(self, x) -> float | np.ndarray:
        xs = np.asarray(x, dtype=float)
        v = np.zeros(xs.shape)
        if self.atom_locations.size:
            csum = np.append(0.0, np.cumsum(self.atom_weights))
            v = csum[np.searchsorted(self.atom_locations, xs, side="right")]
        for c in self.components:
            v = v + c.cdf(xs)
        return np.minimum(v, 1.0)[()]

    def quantile(self, q) -> float | np.ndarray:
        """Smallest x with cdf(x) >= q, for every level of q at once."""
        qs = np.asarray(q, dtype=float)
        if np.any((qs < 0.0) | (qs > 1.0)):
            raise MeasureError("quantile levels must lie in [0, 1]")
        if not self.components:
            csum = np.cumsum(self.atom_weights)
            idx = np.searchsorted(csum, qs * (1.0 - 1e-15), side="left")
            return self.atom_locations[np.minimum(idx, len(csum) - 1)][()]
        # bisection, each level stopping on its own once its bracket is tight
        flat_q = qs.ravel()
        lo = np.full(flat_q.size, self._left)
        hi = np.full(flat_q.size, self._right)
        live = np.arange(flat_q.size)
        for _ in range(200):
            mid = 0.5 * (lo[live] + hi[live])
            up = self.cdf(mid) >= flat_q[live]
            hi[live[up]] = mid[up]
            lo[live[~up]] = mid[~up]
            live = live[hi[live] - lo[live] > 1e-15 * np.maximum(1.0, np.abs(hi[live]))]
            if not live.size:
                break
        x = hi
        if self.atom_locations.size:
            near = self.atom_locations[np.argmin(np.abs(self.atom_locations - x[:, None]), axis=1)]
            x = np.where(np.abs(near - x) <= 1e-9 * np.maximum(1.0, np.abs(x)), near, x)
        return x.reshape(qs.shape)[()]

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        dens = [self._component_json(c) for c in self.components]
        density = None if not dens else (dens[0] if len(dens) == 1 else dens)
        return {
            "atoms": [[float(l), float(w)] for l, w in zip(self.atom_locations, self.atom_weights)],
            "density": density,
        }

    @staticmethod
    def _component_json(c: DensityComponent) -> dict:
        if c.kind == "semicircle":
            params = {"center": c.params["center"], "radius": c.params["radius"], "mass": c.mass}
        elif c.kind == "uniform":
            params = {"mass": c.mass}
        else:
            params = {
                "x": [float(v) for v in c.nodes],
                "w": [float(v) for v in c.weights],
                "edge_finite_g": c.edge_finite_g,
            }
        return {"kind": c.kind, "params": params, "support": [c.a, c.b], "nodes": int(len(c.nodes))}

    @classmethod
    def from_json(cls, obj: dict) -> "SpectralMeasure":
        """The measure of a :meth:`to_json` object, which only parses: an atom
        that is no pair, a number that is no JSON number, a column that is no
        list and a node count that is no positive integer raise MeasureError
        naming the field. Every other rule is the constructors'."""
        atoms = obj.get("atoms") or []
        for a in atoms:
            if not (isinstance(a, (list, tuple)) and len(a) == 2):
                raise MeasureError(f"atoms must be [location, weight] pairs, got {a!r}")
        locs = [_json_number(a[0], "atom locations") for a in atoms]
        wts = [_json_number(a[1], "atom weights") for a in atoms]
        dens = obj.get("density")
        if dens is None:
            dens_list = []
        elif isinstance(dens, dict):
            dens_list = [dens]
        else:
            dens_list = list(dens)
        comps = []
        for d in dens_list:
            kind = d["kind"]
            a, b = (_json_number(v, "support") for v in d["support"])
            n = d.get("nodes", 256)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
                raise MeasureError(f"nodes must be a positive integer, got {n!r}")
            params = d.get("params") or {}
            mass = _json_number(params.get("mass", 1.0), "mass")
            circle = ({k: _json_number(params[k], k) for k in ("center", "radius") if k in params}
                      if kind == "semicircle" else {})
            # the rules that must hold before the nodes are computed
            _check_form(kind, a, b, circle)
            if kind == "table":
                nodes, weights = _json_column(params["x"], "x"), _json_column(params["w"], "w")
            else:
                nodes, qw = sqrt_adapted_rule(a, b, n)
                if kind == "semicircle":
                    weights = qw * Semicircle(**circle)(nodes)
                    weights *= mass / weights.sum()
                else:
                    weights = qw * mass / (b - a)
            comps.append(_make_component(kind, a, b, mass, nodes, weights, circle,
                                         params.get("edge_finite_g")))
        return cls(locs, wts, comps)

    # -- misc ---------------------------------------------------------------------

    def scaled(self, factor: float, mass_factor: float = 1.0) -> "SpectralMeasure":
        """Pushforward by multiplication with ``factor`` plus mass rescaling."""
        if factor <= 0.0:
            raise MeasureError("scaling factor must be positive")
        comps = [c.scaled(factor, mass_factor) for c in self.components]
        return SpectralMeasure(self.atom_locations * factor, self.atom_weights * mass_factor, comps)

    def reflected(self) -> "SpectralMeasure":
        """Pushforward by t -> -t."""
        locs = -self.atom_locations[::-1]
        wts = self.atom_weights[::-1]
        comps = []
        for c in self.components:
            params = dict(c.params)
            if c.kind == "semicircle":
                params["center"] = -params["center"]
            comps.append(_make_component(c.kind, -c.b, -c.a, c.mass,
                                         c.nodes[::-1] * -1.0, c.weights[::-1],
                                         params=params, edge_finite_g=c.edge_finite_g))
        return SpectralMeasure(locs, wts, comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralMeasure):
            return NotImplemented
        if not (
            np.array_equal(self.atom_locations, other.atom_locations)
            and np.allclose(self.atom_weights, other.atom_weights, rtol=0, atol=1e-15)
            and len(self.components) == len(other.components)
        ):
            return False
        for c, d in zip(self.components, other.components):
            if c.kind != d.kind or abs(c.a - d.a) > 1e-12 or abs(c.b - d.b) > 1e-12:
                return False
            if abs(c.mass - d.mass) > 1e-12:
                return False
        return True

    def __repr__(self) -> str:
        parts = []
        if self.atom_locations.size:
            parts.append(f"{self.atom_locations.size} atoms")
        for c in self.components:
            parts.append(f"{c.kind}[{c.a:.4g},{c.b:.4g}]")
        return f"SpectralMeasure({', '.join(parts)})"


def remove_zero_atom(rho: SpectralMeasure, alpha: float) -> tuple[SpectralMeasure, float]:
    """Delete the atom at zero, rescale locations and the aspect ratio.

    Returns (tau, alpha') with tau the zero-atom-free measure whose locations
    are the original ones multiplied by (1 - w0), w0 the mass of rho's atom at
    exactly 0.0, and alpha' = alpha * (1 - w0); (rho, alpha) where w0 = 0. H
    built from (tau, alpha') coincides with the one built from (rho, alpha).
    """
    if alpha <= 0.0:
        raise MeasureError("alpha must be positive")
    rest = rho.atom_locations != 0.0
    w0 = float(rho.atom_weights[~rest].sum())
    if w0 == 0.0:
        return rho, alpha
    if w0 >= 1.0 - 1e-15:
        raise MeasureError("measure is the point mass at zero; model is fully degenerate")
    keep = 1.0 - w0
    comps = [c.scaled(keep, 1.0 / keep) for c in rho.components]
    tau = SpectralMeasure(rho.atom_locations[rest] * keep, rho.atom_weights[rest] / keep, comps)
    return tau, alpha * keep
