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
import warnings
from dataclasses import dataclass, field

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
# entries of a table's (points, nodes) arrays per pass: 256 KB of doubles on
# a real z, 512 KB of complex128 on a complex one, whatever the number of
# points. It bounds the memory of a transform; for its time the size hardly
# matters (see DensityComponent._by_rows)
_TABLE_ENTRIES = 32768


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


def _branch_sqrt(w, radius):
    """sqrt(w^2 - R^2) on the branch that keeps z -> G(z) Herglotz.

    Computed as sqrt(w - R) * sqrt(w + R) with principal square roots; for
    real w > R this is the positive root, for real w < -R the negative one.
    """
    w = np.asarray(w, dtype=complex)
    return np.sqrt(w - radius) * np.sqrt(w + radius)


def _item(values):
    """A Python scalar for a 0-d array, else the array."""
    return values.item() if values.ndim == 0 else values


def _pair_diffs(z, t):
    """z - t for every pair of a float or array z and the 1-D array t."""
    return z - t if isinstance(z, float) else z[..., None] - t


def _log_moment_sc2(zeta):
    # integral of log(zeta - t) against the radius-2 centered semicircle,
    # valid for real zeta >= 2 (a float or an array); written cancellation-free
    # for large zeta. (d + |d|) / 2 is max(d, 0) exactly, for floats and arrays.
    d = zeta * zeta - 4.0
    s = np.sqrt(0.5 * (d + abs(d)))
    return zeta / (zeta + s) + np.log((zeta + s) / 2.0) - 0.5


@dataclass(frozen=True)
class DensityComponent:
    """One absolutely continuous piece of a measure.

    ``nodes``/``weights`` integrate smooth functions against the component;
    closed-form kinds additionally bypass them for singular transforms.
    ``edge_finite_g`` declares whether the Stieltjes transform is finite at
    both endpoints of the component. The kind sets it for a closed form
    (finite for a semicircle, infinite for a uniform); for a table it is
    declared, and None means undeclared.
    """

    kind: str
    a: float
    b: float
    mass: float
    nodes: np.ndarray
    weights: np.ndarray
    params: dict = field(default_factory=dict)
    edge_finite_g: bool | None = None

    # -- transforms ---------------------------------------------------------

    def stieltjes_pair(self, z, prime=True):
        """(G, G') of the component at z, a real or complex scalar or array,
        or (G,) when ``prime`` is false: its one body of both transforms, from
        one z - t array (a semicircle's w and s, a uniform's z - a and z - b,
        a table's z - nodes). A real z gives real values: a uniform's G is
        then its real ``log1p`` form, and G' of a closed form is its complex
        formula's real part, at either end the one-sided limit -inf, where
        the formulas divide by 0 (a semicircle end within rounding counts as
        its end). Divisions by 0 are left to the caller's ``np.errstate``."""
        z = np.asarray(z)
        real = z.dtype.kind != "c"
        if self.kind == "table":
            return self._by_rows(z, self._table_pair, prime)
        if self.kind == "semicircle":
            # G = (2m/R^2)(w - s) = 2m/(w + s): stable at large |w|
            c, r = self.params["center"], self.params["radius"]
            w = np.asarray(z, dtype=complex) - c
            s = _branch_sqrt(w, r)
            d = w + s
            g = 2.0 * self.mass / d
            if prime:
                gp = -2.0 * self.mass * (1.0 + w / s) / d ** 2
                ends = real and np.abs(w.real) <= r
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
        if real:
            g = g.real
            if prime:
                gp = np.where(ends, -np.inf, gp.real)
        return (g, gp) if prime else (g,)

    def _table_pair(self, z, prime=True):
        """(G, G') of a table at the points of z, or (G,) when ``prime`` is
        false: its one kernel. The (points, nodes) array q = z - nodes is
        reused in place, 1/q and then 1/q^2, and each point's sum is one dot
        of its row with the weights, so a point gets the same bits alone, in
        any chunk and on the float path (``np.vecdot`` dots row by row; a
        matrix-vector product would not). A node hit exactly gives an
        infinite term, as an atom does."""
        q = z[..., None] - self.nodes
        np.reciprocal(q, out=q)
        g = np.vecdot(self.weights, q)
        if not prime:
            return (g,)
        # numpy squares a lone complex entry in place with other bits than
        # it squares it in a longer array; out of place the two agree
        q = np.square(q, out=q if q.size > 1 else None)
        return g, -np.vecdot(self.weights, q)

    def _by_rows(self, z, sums, *args):
        """``sums(z, *args)``, a tuple of arrays of z's shape from (points,
        nodes) arrays of a table, on at most ``_TABLE_ENTRIES`` entries at a
        time, with each point's sums those of the whole array bit for bit.
        With the reciprocal-and-dot kernel, the pair on 51 real points of a
        1968-node table took 426 us in chunks of 16 points against 398 us at
        once, with the caches flushed between calls (2-core host); the former
        divide-and-sum took 1.05 ms at once against 0.48 ms in chunks."""
        flat = z.reshape(-1)
        rows = max(1, _TABLE_ENTRIES // self.nodes.size)
        if flat.size <= rows:
            return sums(z, *args)
        parts = [sums(flat[i:i + rows], *args) for i in range(0, flat.size, rows)]
        return tuple(np.concatenate(p).reshape(z.shape) for p in zip(*parts))

    def real_transform(self, x: float, prime: bool):
        """G (``prime`` false) or G' at a finite real float x off the open
        support: a Python float equal bit for bit to the array body's G or G'
        at x (:meth:`SpectralMeasure.stieltjes`), or None where only that
        body gives it. A table takes its kernel on the one point.

        With every imaginary part 0, numpy's complex division a / b reduces to
        a * (1 / b), so the closed forms below repeat the complex formulas'
        rounding step by step. Points where that reduction does not hold are
        left to the complex formulas: a semicircle end, or |x - center| just
        below the radius when the end is hit within rounding; w + s beyond the
        double range, where the complex product gives a NaN imaginary part.
        A division by zero (a uniform end, (w + s)^2 underflowing) raises
        ZeroDivisionError, which the caller handles the same way.
        """
        if self.kind == "semicircle":
            c, r = self.params["center"], self.params["radius"]
            w = x - c
            if not abs(w) > r:
                return None
            if w > 0.0:
                s = math.sqrt(w - r) * math.sqrt(w + r)
            else:
                s = -(math.sqrt(r - w) * math.sqrt(-w - r))
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
        with np.errstate(divide="ignore", invalid="ignore"):
            # the last of (G,) or (G, G')
            return float(self._table_pair(np.array([x]), prime)[-1][0])

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
        return self._by_rows(np.asarray(z), self._table_log_moment)[0]

    def _table_log_moment(self, z):
        d = z[..., None] - self.nodes
        np.log(d, out=d)
        np.multiply(self.weights, d, out=d)
        return (d.sum(axis=-1),)

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


_CLOSED_FORM_EDGE_FINITE_G = {"semicircle": True, "uniform": False}


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
        edge_finite_g=_CLOSED_FORM_EDGE_FINITE_G.get(kind, edge_finite_g),
    )


class SpectralMeasure:
    """Immutable probability measure with atoms and density components."""

    def __init__(self, atom_locations=(), atom_weights=(), components=(), *,
                 raw_mass_defect: float | None = None):
        locs = np.asarray(atom_locations, dtype=float).ravel()
        wts = np.asarray(atom_weights, dtype=float).ravel()
        if locs.size != wts.size:
            raise MeasureError("atom locations and weights differ in length")
        if locs.size and wts.min() <= 0.0:
            raise MeasureError("atom weights must be strictly positive")
        locs, wts = self._merge_atoms(locs, wts)
        components = tuple(components)
        total = wts.sum() + sum(c.mass for c in components)
        if total <= 0.0:
            raise MeasureError("measure has zero total mass")
        if abs(total - 1.0) > _MASS_TOL:
            raise MeasureError(f"total mass {total!r} is not 1 within {_MASS_TOL}")
        self.atom_locations = locs
        self.atom_weights = wts
        self.components = components
        self.raw_mass_defect = raw_mass_defect
        edges = list(locs) + [e for c in components for e in (c.a, c.b)]
        self._left = float(min(edges))
        self._right = float(max(edges))
        # the magnitude of the support's coordinates, the unit for a point
        # mass at 0: a floor of 1 would let the snap window below swallow a
        # support lying within 1e-15 of 0
        self._scale = max(abs(self._left), abs(self._right)) or 1.0
        # snap window of a few ulps around each edge for the edge values of
        # stieltjes: exact edge queries hit it, approach sequences from root
        # finders must stay evaluable
        self._snap = 1e-15 * self._scale
        # (weight, location) pairs for the real-scalar path: numpy sums fewer
        # than 8 terms one after another from 0.0, which a Python loop repeats
        # bit for bit; from 8 terms on it sums pairwise, so larger atom lists
        # take the array path
        self._atom_pairs = tuple(zip(wts.tolist(), locs.tolist())) if locs.size < 8 else None
        self.atom_locations.setflags(write=False)
        self.atom_weights.setflags(write=False)

    @staticmethod
    def _merge_atoms(locs, wts):
        if locs.size == 0:
            return locs, wts
        order = np.argsort(locs)
        locs, wts = locs[order], wts[order]
        tol = _MERGE_REL * max(1.0, float(np.abs(locs).max()))
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
        locations = np.asarray(locations, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if locations.size == 0:
            raise MeasureError("empty atom list")
        if abs(weights.sum() - 1.0) > _MASS_TOL:
            raise MeasureError(f"atom weights sum to {weights.sum()!r}, not 1")
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
        if not b > a:
            raise MeasureError(f"empty support interval {support!r}")
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
        if isinstance(density, Semicircle) and (
            abs(a - (density.center - density.radius)) <= 1e-9 * density.radius
            and abs(b - (density.center + density.radius)) <= 1e-9 * density.radius
        ):
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
        if self.atom_locations.size == 0:
            return 0.0
        tol = _MERGE_REL * max(1.0, float(np.abs(self.atom_locations).max()), abs(x))
        hit = np.abs(self.atom_locations - x) <= tol
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
        bit for bit the array path's value; None for any other z, for 8 or
        more atoms, and where only the array path gives the value (non-finite
        z, a pole hit exactly, a component end hit within rounding)."""
        if not isinstance(z, float) or self._atom_pairs is None:
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
            if self._atom_pairs:
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
        returning the same bits as the array path; other scalars, and
        measures with 8 or more atoms, take the array path.
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
        included) takes the two transforms' float path; at a complex or real
        array z both come from one z - t array per atom and component. A
        real point of z must lie outside the open support."""
        if isinstance(z, float):
            return self.stieltjes(z), self.stieltjes_prime(z)
        self._check_real_argument(z)
        return self._transforms(z)

    # the errstate as a decorator costs about half of a with-block
    @np.errstate(divide="ignore", invalid="ignore")
    def _transforms(self, z, prime=True):
        """(G, G') at the points of a real or complex z, or (G,) when
        ``prime`` is false: arrays of z's shape, the one array body of the
        three transforms, under one ``np.errstate`` (a pole hit exactly
        gives an infinite term).

        Fewer than 4 atoms are summed one after another from 0.0, as numpy
        sums fewer than 4 complex terms (it sums 4 or more pairwise) and
        fewer than 8 real ones. The sums run on at least one dimension: on a
        0-d z the terms would be numpy scalars, whose square takes other
        bits than an array's.
        """
        z = np.asarray(z)
        z = np.asarray(z, dtype=complex if z.dtype.kind == "c" else float)
        zs = z if z.ndim else z.reshape(1)
        g = gp = 0.0
        if self.atom_locations.size >= 4:
            d = zs[..., None] - self.atom_locations
            g = np.sum(self.atom_weights / d, axis=-1)
            if prime:
                gp = -np.sum(self.atom_weights / d ** 2, axis=-1)
        elif self.atom_locations.size:
            for w, loc in self._atom_pairs:
                d = zs - loc
                g = g + w / d
                if prime:
                    gp = gp + w / d ** 2
            gp = -gp
        for c in self.components:
            parts = c.stieltjes_pair(zs, prime)
            g = g + parts[0]
            if prime:
                gp = gp + parts[1]
        out = (g, gp) if prime else (g,)
        return out if z.ndim else tuple(v.reshape(()) for v in out)

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
            total = (self.atom_weights * np.log(_pair_diffs(zs, self.atom_locations))).sum(axis=-1)
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
        atoms = obj.get("atoms") or []
        locs = [a[0] for a in atoms]
        wts = [a[1] for a in atoms]
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
            a, b = d["support"]
            n = int(d.get("nodes", 256))
            params = d.get("params") or {}
            mass = float(params.get("mass", 1.0))
            if kind == "semicircle":
                law = Semicircle(float(params["center"]), float(params["radius"]))
                nodes, qw = sqrt_adapted_rule(a, b, n)
                weights = qw * law(nodes)
                weights *= mass / weights.sum()
                comps.append(_make_component("semicircle", a, b, mass, nodes, weights,
                                             params={"center": law.center, "radius": law.radius}))
            elif kind == "uniform":
                nodes, qw = sqrt_adapted_rule(a, b, n)
                comps.append(_make_component("uniform", a, b, mass, nodes, qw * mass / (b - a)))
            elif kind == "table":
                nodes = np.asarray(params["x"], dtype=float)
                weights = np.asarray(params["w"], dtype=float)
                comps.append(_make_component("table", a, b, None, nodes, weights,
                                             edge_finite_g=params.get("edge_finite_g")))
            else:
                raise MeasureError(f"unknown density kind {kind!r}")
        return cls(locs, wts, comps)

    # -- misc ---------------------------------------------------------------------

    def scaled(self, factor: float, mass_factor: float = 1.0,
               drop_zero_atom: bool = False) -> "SpectralMeasure":
        """Pushforward by multiplication with ``factor`` plus mass rescaling."""
        if factor <= 0.0:
            raise MeasureError("scaling factor must be positive")
        locs = self.atom_locations * factor
        wts = self.atom_weights * mass_factor
        if drop_zero_atom and self.atom_locations.size:
            keep = np.abs(self.atom_locations) > _MERGE_REL * max(1.0, float(np.abs(self.atom_locations).max()))
            locs, wts = locs[keep], wts[keep]
        comps = [c.scaled(factor, mass_factor) for c in self.components]
        return SpectralMeasure(locs, wts, comps)

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
    are the original ones multiplied by (1 - w0), w0 the zero-atom mass, and
    alpha' = alpha * (1 - w0). The covariance-model transform built from
    (tau, alpha') coincides with the one built from (rho, alpha).
    """
    if alpha <= 0.0:
        raise MeasureError("alpha must be positive")
    w0 = rho.atom_mass(0.0)
    if w0 == 0.0:
        return rho, alpha
    if w0 >= 1.0 - 1e-15:
        raise MeasureError("measure is the point mass at zero; model is fully degenerate")
    keep = 1.0 - w0
    tau = rho.scaled(keep, mass_factor=1.0 / keep, drop_zero_atom=True)
    return tau, alpha * keep
