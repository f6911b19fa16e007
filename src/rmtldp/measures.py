"""Compactly supported probability measures on the real line.

A measure is a finite list of atoms plus an optional absolutely continuous
part held as one or more density components. Components are tagged by kind:
``semicircle`` and ``uniform`` evaluate their Stieltjes transform, its
derivative, and the logarithmic moment in closed form, which keeps edge
evaluations exact; ``table`` components fall back to fixed quadrature nodes.
All measures are immutable after construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

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


def _maybe_real(values, z):
    values = np.asarray(values)
    if not np.iscomplexobj(np.asarray(z)) and np.iscomplexobj(values):
        values = values.real
    if values.ndim == 0:
        return values.item()
    return values


def _log_moment_sc2(zeta):
    # integral of log(zeta - t) against the radius-2 centered semicircle,
    # valid for real zeta >= 2; written cancellation-free for large zeta
    s = math.sqrt(max(zeta * zeta - 4.0, 0.0))
    return zeta / (zeta + s) + math.log((zeta + s) / 2.0) - 0.5


@dataclass(frozen=True)
class DensityComponent:
    """One absolutely continuous piece of a measure.

    ``nodes``/``weights`` integrate smooth functions against the component;
    closed-form kinds additionally bypass them for singular transforms.
    ``edge_finite_g`` declares whether the Stieltjes transform is finite at
    the component's right endpoint (None means undeclared, table kind only).
    """

    kind: str
    a: float
    b: float
    mass: float
    nodes: np.ndarray
    weights: np.ndarray
    params: dict = field(default_factory=dict)
    evaluator: object = None
    edge_finite_g: bool | None = None

    # -- transforms ---------------------------------------------------------

    def stieltjes(self, z):
        if self.kind == "semicircle":
            # G = (2m/R^2)(w - s) = 2m/(w + s): stable at large |w|
            c, r = self.params["center"], self.params["radius"]
            w = np.asarray(z, dtype=complex) - c
            val = 2.0 * self.mass / (w + _branch_sqrt(w, r))
            return _maybe_real(val, z)
        if self.kind == "uniform":
            zr = np.asarray(z)
            if not np.iscomplexobj(zr):
                val = self.mass * np.log1p((self.b - self.a) / (zr - self.b)) / (self.b - self.a)
            else:
                zc = np.asarray(z, dtype=complex)
                val = self.mass * (np.log(zc - self.a) - np.log(zc - self.b)) / (self.b - self.a)
            return _maybe_real(val, z)
        zc = np.asarray(z)[..., None]
        return np.sum(self.weights / (zc - self.nodes), axis=-1)

    def stieltjes_prime(self, z):
        if self.kind == "semicircle":
            c, r = self.params["center"], self.params["radius"]
            w = np.asarray(z, dtype=complex) - c
            s = _branch_sqrt(w, r)
            with np.errstate(divide="ignore", invalid="ignore"):
                val = -2.0 * self.mass * (1.0 + w / s) / (w + s) ** 2
            return _maybe_real(val, z)
        if self.kind == "uniform":
            zc = np.asarray(z, dtype=complex)
            val = -self.mass / ((zc - self.a) * (zc - self.b))
            return _maybe_real(val, z)
        zc = np.asarray(z)[..., None]
        return -np.sum(self.weights / (zc - self.nodes) ** 2, axis=-1)

    def log_moment(self, z):
        """integral of log(z - t) against the component, real z >= b."""
        if self.kind == "semicircle":
            c, r = self.params["center"], self.params["radius"]
            zeta = 2.0 * (z - c) / r
            return self.mass * (math.log(r / 2.0) + _log_moment_sc2(zeta))
        if self.kind == "uniform":
            za, zb = z - self.a, z - self.b
            term_b = 0.0 if zb == 0.0 else zb * math.log(zb)
            return self.mass * ((za * math.log(za) - term_b) / (self.b - self.a) - 1.0)
        return float(np.sum(self.weights * np.log(z - self.nodes)))

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
        elif self.evaluator is not None:
            flat = x.ravel()
            val = np.zeros(flat.size)
            for k in np.flatnonzero((flat > self.a) & (flat < self.b)):
                val[k] = integrate.quad(self.evaluator, self.a, flat[k], limit=200)[0]
            val = np.minimum(val.reshape(x.shape) * self.params.get("norm", 1.0), self.mass)
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
        evaluator = None
        if self.evaluator is not None:
            inner = self.evaluator
            evaluator = lambda u, _f=factor, _e=inner: np.asarray(_e(np.asarray(u) / _f)) / _f
        return DensityComponent(
            kind=self.kind,
            a=lo,
            b=hi,
            mass=self.mass * mass_factor,
            nodes=self.nodes * factor,
            weights=self.weights * mass_factor,
            params=params,
            evaluator=evaluator,
            edge_finite_g=self.edge_finite_g,
        )

    def edge_g_is_finite(self) -> bool | None:
        if self.kind == "semicircle":
            return True
        if self.kind == "uniform":
            return False
        return self.edge_finite_g


def _make_component(kind, a, b, mass, nodes, weights, params=None, evaluator=None,
                    edge_finite_g=None):
    return DensityComponent(
        kind=kind, a=float(a), b=float(b), mass=float(mass),
        nodes=np.asarray(nodes, dtype=float), weights=np.asarray(weights, dtype=float),
        params=params or {}, evaluator=evaluator, edge_finite_g=edge_finite_g,
    )


class SpectralMeasure:
    """Immutable probability measure with atoms and density components."""

    def __init__(self, atom_locations=(), atom_weights=(), components=(), *,
                 raw_mass_defect: float | None = None, _renormalize: bool = False):
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
        if _renormalize:
            wts = wts / total
            components = tuple(
                _make_component(c.kind, c.a, c.b, c.mass / total, c.nodes, c.weights / total,
                                c.params, c.evaluator, c.edge_finite_g)
                for c in components
            )
        elif abs(total - 1.0) > _MASS_TOL:
            raise MeasureError(f"total mass {total!r} is not 1 within {_MASS_TOL}")
        self.atom_locations = locs
        self.atom_weights = wts
        self.components = components
        self.raw_mass_defect = raw_mass_defect
        edges = list(locs) + [e for c in components for e in (c.a, c.b)]
        self._left = float(min(edges))
        self._right = float(max(edges))
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
        (recognized kinds keep closed-form transforms) or any callable, which
        is stored as a ``table`` component over fixed quadrature nodes. The
        result is renormalized to mass 1; a renormalization warning is issued
        when the raw quadrature mass deviates from 1 by more than 1e-6.
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
                evaluator=density, edge_finite_g=True,
            )
        elif isinstance(density, Uniform) and a >= density.a - 1e-12 and b <= density.b + 1e-12:
            comp = _make_component(
                "uniform", a, b, 1.0, nodes, weights / raw_mass,
                evaluator=Uniform(a, b), edge_finite_g=False,
            )
        else:
            comp = _make_component(
                "table", a, b, 1.0, nodes, weights / raw_mass,
                params={"norm": 1.0 / raw_mass}, evaluator=density,
                edge_finite_g=edge_finite_g,
            )
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

    def is_point_mass_at(self, x: float) -> bool:
        return (
            not self.components
            and self.atom_locations.size == 1
            and abs(self.atom_locations[0] - x) <= _MERGE_REL * max(1.0, abs(x))
        )

    def edge_stieltjes_finite(self) -> bool | None:
        """Whether the Stieltjes transform stays finite at the right edge.

        None means it cannot be decided (undeclared table component at the
        edge); callers that need the answer must treat None as an error.
        """
        if self.atom_mass(self._right) > 0.0:
            return False
        for c in self.components:
            if c.b >= self._right - 1e-12 * max(1.0, abs(self._right)):
                return c.edge_g_is_finite()
        return False  # isolated atom handled above; unreachable in practice

    # -- transforms ------------------------------------------------------------

    def _check_real_argument(self, z) -> None:
        zr = np.asarray(z)
        if np.iscomplexobj(zr):
            if np.any(zr.imag == 0.0):
                self._check_real_argument(zr.real[np.asarray(zr.imag == 0.0)])
            return
        inside = (zr > self._left) & (zr < self._right)
        if np.any(inside):
            raise MeasureError(
                f"real argument {zr[inside] if zr.ndim else z!r} lies inside the support "
                f"[{self._left}, {self._right}]; use a complex argument"
            )

    def stieltjes(self, z):
        """G(z) = integral of 1/(z - t); real z must lie outside the open support.

        At the exact support edges the one-sided limit is returned, which is
        +inf (resp. -inf at the left edge) when the measure has an atom there
        or the edge density makes the integral diverge.
        """
        self._check_real_argument(z)
        zr = np.asarray(z)
        if not np.iscomplexobj(zr) and zr.ndim == 0:
            edge_val = self._edge_value(float(zr))
            if edge_val is not None:
                return edge_val
        za = np.asarray(z)[..., None] if self.atom_locations.size else None
        total = 0.0
        if za is not None:
            with np.errstate(divide="ignore"):
                total = np.sum(self.atom_weights / (za - self.atom_locations), axis=-1)
        for c in self.components:
            total = total + c.stieltjes(z)
        total = np.asarray(total)
        return total.item() if total.ndim == 0 else total

    def _edge_value(self, z: float):
        """Divergent one-sided edge values of G, or None when regular."""
        # snap window of a few ulps: exact edge queries hit it, approach
        # sequences from root finders must stay evaluable
        scale = max(1.0, abs(self._left), abs(self._right))
        at_right = abs(z - self._right) <= 1e-15 * scale
        at_left = abs(z - self._left) <= 1e-15 * scale
        if not (at_right or at_left):
            return None
        edge = self._right if at_right else self._left
        sign = 1.0 if at_right else -1.0
        if self.atom_mass(edge) > 0.0:
            return sign * math.inf
        for c in self.components:
            touches = (abs(c.b - edge) <= 1e-13 * scale) if at_right else (abs(c.a - edge) <= 1e-13 * scale)
            if touches:
                finite = c.edge_g_is_finite()
                if finite is None:
                    raise MeasureError(
                        "cannot decide finiteness of the Stieltjes transform at the "
                        "support edge: declare edge_finite_g on the table density"
                    )
                if not finite:
                    return sign * math.inf
        return None  # finite edge value; fall through to the regular formulas

    def stieltjes_prime(self, z):
        """d/dz of the Stieltjes transform."""
        self._check_real_argument(z)
        total = 0.0
        if self.atom_locations.size:
            za = np.asarray(z)[..., None]
            with np.errstate(divide="ignore"):
                total = -np.sum(self.atom_weights / (za - self.atom_locations) ** 2, axis=-1)
        for c in self.components:
            total = total + c.stieltjes_prime(z)
        total = np.asarray(total)
        return total.item() if total.ndim == 0 else total

    def log_moment(self, z: float) -> float:
        """integral of log(z - t) for real z at or beyond the right edge."""
        z = float(z)
        if z < self._right - 1e-12 * max(1.0, abs(self._right)):
            raise MeasureError(f"log moment needs z >= right edge, got {z!r}")
        total = 0.0
        if self.atom_locations.size:
            diffs = z - self.atom_locations
            if np.any(diffs <= 0.0):
                raise MeasureError("log moment diverges: atom at or beyond z")
            total += float(np.sum(self.atom_weights * np.log(diffs)))
        for c in self.components:
            total += c.log_moment(z)
        return total

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
                                             params={"center": law.center, "radius": law.radius},
                                             evaluator=law, edge_finite_g=True))
            elif kind == "uniform":
                law = Uniform(float(a), float(b))
                nodes, qw = sqrt_adapted_rule(a, b, n)
                comps.append(_make_component("uniform", a, b, mass, nodes, qw * mass / (b - a),
                                             evaluator=law, edge_finite_g=False))
            elif kind == "table":
                nodes = np.asarray(params["x"], dtype=float)
                weights = np.asarray(params["w"], dtype=float)
                comps.append(_make_component("table", a, b, float(weights.sum()), nodes, weights,
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
            evaluator = None
            if c.kind == "semicircle":
                params["center"] = -params["center"]
                evaluator = Semicircle(params["center"], params["radius"])
            elif c.kind == "uniform":
                evaluator = Uniform(-c.b, -c.a)
            elif c.evaluator is not None:
                inner = c.evaluator
                evaluator = lambda u, _e=inner: np.asarray(_e(-np.asarray(u)))
            comps.append(_make_component(c.kind, -c.b, -c.a, c.mass,
                                         c.nodes[::-1] * -1.0, c.weights[::-1],
                                         params=params, evaluator=evaluator,
                                         edge_finite_g=c.edge_finite_g))
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
