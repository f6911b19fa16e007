import json
import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from rmtldp import measures
from rmtldp.measures import (
    DensityComponent,
    MeasureError,
    Semicircle,
    SpectralMeasure,
    remove_zero_atom,
)
from rmtldp.rate import epsilon_truncate


def semicircle_stieltjes_oracle(z, center=2.0, radius=1.0):
    # closed form for the unit-radius semicircle, independent of the package
    # path; the branch keeps G(z) ~ 1/z at infinity on both sides
    w = z - center
    return 2.0 / radius**2 * (w - math.copysign(math.sqrt(w * w - radius * radius), w))


def quad_stieltjes_oracle(measure_density, support, z):
    val, _ = integrate.quad(lambda u: measure_density(u) / (z - u), *support, limit=400)
    return val


class TestFromAtoms:
    def test_single_atom(self):
        m = SpectralMeasure.from_atoms([1.0], [1.0])
        assert m.edges() == (1.0, 1.0)
        assert m.atom_mass(1.0) == 1.0

    def test_two_atom_remark_measure(self):
        # rho = (delta_{-2K} + delta_2)/2 with K = 3
        m = SpectralMeasure.from_atoms([-6.0, 2.0], [0.5, 0.5])
        assert m.edges() == (-6.0, 2.0)

    def test_sorting(self):
        m = SpectralMeasure.from_atoms([2.0, 1.0], [0.5, 0.5])
        assert m.atom_locations.tolist() == [1.0, 2.0]
        assert m.atom_weights.tolist() == [0.5, 0.5]

    def test_duplicate_locations_merge(self):
        m = SpectralMeasure.from_atoms([1.0, 1.0 + 1e-16, 2.0], [0.25, 0.25, 0.5])
        assert m.atom_locations.size == 2
        assert m.atom_mass(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(MeasureError):
            SpectralMeasure.from_atoms([], [])

    def test_bad_weights_rejected(self):
        with pytest.raises(MeasureError):
            SpectralMeasure.from_atoms([0.0, 1.0], [-0.5, 1.5])
        with pytest.raises(MeasureError):
            SpectralMeasure.from_atoms([0.0, 1.0], [0.3, 0.3])

    @pytest.mark.parametrize("locations, weights", [
        ([0.0, 1.0], [0.5, math.nan]),
        ([0.0, math.nan], [0.5, 0.5]),
        ([0.0, math.inf], [0.5, 0.5]),
        ([-math.inf, 1.0], [0.5, 0.5]),
    ], ids=["nan-weight", "nan-location", "inf-location", "minus-inf-location"])
    def test_non_finite_atoms_rejected(self, locations, weights):
        with pytest.raises(MeasureError, match="atom (weights|locations)"):
            SpectralMeasure(locations, weights)


class TestFromDensity:
    def test_semicircle_mass(self):
        m = SpectralMeasure.semicircle(2.0, 1.0, nodes=64)
        assert abs(m.total_mass() - 1.0) < 1e-12

    def test_uniform_quantiles_vs_closed_form(self):
        m = SpectralMeasure.uniform(-1.0, 1.0, nodes=32)
        qs = np.linspace(0.005, 0.995, 199)
        w1 = np.mean(np.abs(m.quantile(qs) - (2.0 * qs - 1.0)))
        assert w1 <= 1e-3

    def test_semicircle_stieltjes_at_edge(self):
        m = SpectralMeasure.semicircle(2.0, 1.0)
        assert m.stieltjes(3.0) == pytest.approx(2.0, abs=1e-6)

    def test_table_matches_quad_oracle(self):
        dens = lambda u: np.where((u >= 0) & (u <= 1), 1.5 * np.asarray(u) ** 0.5, 0.0)
        m = SpectralMeasure.from_density(dens, (0.0, 1.0), 128)
        for z in (1.5, 3.0, -0.7):
            oracle = quad_stieltjes_oracle(dens, (0.0, 1.0), z)
            assert m.stieltjes(z) == pytest.approx(oracle, abs=1e-9)

    def test_negative_density_rejected(self):
        with pytest.raises(MeasureError):
            SpectralMeasure.from_density(lambda u: np.asarray(u) - 0.5, (0.0, 1.0), 32)

    def test_zero_mass_rejected(self):
        with pytest.raises(MeasureError):
            SpectralMeasure.from_density(lambda u: np.zeros_like(np.asarray(u, float)),
                                         (0.0, 1.0), 32)

    def test_renormalization_warning(self):
        with pytest.warns(UserWarning):
            SpectralMeasure.from_density(lambda u: np.full_like(np.asarray(u, float), 2.0), (0.0, 1.0), 32)


class TestStieltjes:
    def test_point_mass(self):
        m = SpectralMeasure.point_mass(1.0)
        assert m.stieltjes(3.0) == pytest.approx(0.5, rel=1e-15)

    def test_large_z_asymptotics(self):
        m = SpectralMeasure.point_mass(1.0)
        z = 1e8
        assert m.stieltjes(z) * z == pytest.approx(1.0, abs=1e-7)

    def test_semicircle_oracle_values(self):
        m = SpectralMeasure.semicircle(2.0, 1.0)
        for z in (3.0, 3.5, 5.0, -1.0):
            assert m.stieltjes(z) == pytest.approx(semicircle_stieltjes_oracle(z), rel=1e-12)

    def test_monotone_decreasing_right_of_support(self):
        m = SpectralMeasure.semicircle(2.0, 1.0)
        zs = np.linspace(3.0 + 1e-9, 12.0, 50)
        vals = [m.stieltjes(z) for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_interior_real_argument_rejected(self):
        m = SpectralMeasure.semicircle(2.0, 1.0)
        with pytest.raises(MeasureError):
            m.stieltjes(2.0)

    def test_complex_argument_upper_half_plane(self):
        m = SpectralMeasure.semicircle(2.0, 1.0)
        g = m.stieltjes(2.0 + 1e-3j)
        assert g.imag < 0.0
        # Plemelj: -Im G / pi approximates the density
        assert -g.imag / math.pi == pytest.approx(Semicircle(2.0, 1.0)(2.0), abs=2e-3)

    def test_atom_at_edge_diverges(self):
        m = SpectralMeasure.point_mass(1.0)
        assert m.stieltjes(1.0) == math.inf

    def test_uniform_edge_diverges(self):
        m = SpectralMeasure.uniform(0.0, 1.0)
        assert m.stieltjes(1.0) == math.inf

    def test_derivative_matches_finite_difference(self):
        m = SpectralMeasure.semicircle(2.0, 1.0)
        z, h = 3.7, 1e-6
        fd = (m.stieltjes(z + h) - m.stieltjes(z - h)) / (2 * h)
        assert m.stieltjes_prime(z) == pytest.approx(fd, rel=1e-7)


class TestEdgesAndAtoms:
    def test_point_mass(self):
        m = SpectralMeasure.point_mass(1.0)
        assert m.edges() == (1.0, 1.0)
        assert m.atom_mass(1.0) == 1.0

    def test_two_atoms(self):
        m = SpectralMeasure.from_atoms([0.0, -1.0], [0.5, 0.5])
        assert m.edges() == (-1.0, 0.0)
        assert m.atom_mass(0.0) == 0.5

    def test_continuous_part_has_no_atoms(self):
        m = SpectralMeasure.semicircle(2.0, 1.0)
        assert m.edges() == (1.0, 3.0)
        assert m.atom_mass(2.0) == 0.0


class TestLogMoment:
    def test_point_mass(self):
        m = SpectralMeasure.point_mass(1.0)
        assert m.log_moment(3.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_uniform_closed_form_vs_quad(self):
        m = SpectralMeasure.uniform(0.0, 1.0)
        for z in (1.0, 1.5, 4.0):
            oracle, _ = integrate.quad(lambda u: math.log(z - u), 0.0, 1.0)
            assert m.log_moment(z) == pytest.approx(oracle, abs=1e-10)

    def test_semicircle_closed_form_vs_quad(self):
        m = SpectralMeasure.semicircle(2.0, 1.0)
        law = Semicircle(2.0, 1.0)
        for z in (3.0, 3.2, 6.0):
            oracle, _ = integrate.quad(lambda u: math.log(z - u) * law(u), 1.0, 3.0, limit=200)
            assert m.log_moment(z) == pytest.approx(oracle, abs=1e-8)

    def test_atom_at_z_rejected(self):
        m = SpectralMeasure.point_mass(1.0)
        with pytest.raises(MeasureError):
            m.log_moment(1.0)


class TestQuantiles:
    def test_atomic_measure(self):
        m = SpectralMeasure.from_atoms([-1.0, 1.0], [0.5, 0.5])
        assert m.quantile(0.25) == -1.0
        assert m.quantile(0.75) == 1.0

    def test_uniform_midpoints(self):
        m = SpectralMeasure.uniform(0.0, 1.0)
        np.testing.assert_allclose(m.quantile([0.125, 0.375, 0.625, 0.875]),
                                   [0.125, 0.375, 0.625, 0.875], atol=1e-9)

    def test_semicircle_median(self):
        m = SpectralMeasure.semicircle(2.0, 1.0)
        assert m.quantile(0.5) == pytest.approx(2.0, abs=1e-9)


def scalar_component_cdf(c, x):
    """Point-by-point component cdf, the reference for the array version."""
    if x <= c.a:
        return 0.0
    if x >= c.b:
        return c.mass
    if c.kind == "semicircle":
        center, r = c.params["center"], c.params["radius"]
        w = min(max(x - center, -r), r)
        return c.mass * (
            0.5 + (w * math.sqrt(max(r * r - w * w, 0.0)) + r * r * math.asin(w / r)) / (math.pi * r * r)
        )
    if c.kind == "uniform":
        return c.mass * (x - c.a) / (c.b - c.a)
    if not (c.nodes <= x).any():
        return 0.0
    csum = np.cumsum(c.weights)
    i = int(np.searchsorted(c.nodes, x, side="right")) - 1
    left = csum[i] - 0.5 * c.weights[i]
    nxt = c.nodes[i + 1] if i + 1 < len(c.nodes) else c.b
    gap_mass = 0.5 * c.weights[i] + (0.5 * c.weights[i + 1] if i + 1 < len(c.weights) else 0.0)
    frac = (x - c.nodes[i]) / max(nxt - c.nodes[i], 1e-300)
    return float(min(left + frac * gap_mass, c.mass))


def scalar_cdf(m, x):
    v = float(m.atom_weights[m.atom_locations <= x].sum()) if m.atom_locations.size else 0.0
    for c in m.components:
        v += scalar_component_cdf(c, x)
    return min(v, 1.0)


def scalar_quantile(m, q):
    """Bisection on the reference cdf, one level at a time."""
    lo, hi = m.left_edge, m.right_edge
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if scalar_cdf(m, mid) >= q:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    if m.atom_locations.size:
        j = int(np.argmin(np.abs(m.atom_locations - hi)))
        if abs(m.atom_locations[j] - hi) <= 1e-9 * max(1.0, abs(hi)):
            return float(m.atom_locations[j])
    return hi


def _mixture():
    sc = SpectralMeasure.semicircle(2.0, 1.0).components[0]
    half = type(sc)(kind=sc.kind, a=sc.a, b=sc.b, mass=0.5, nodes=sc.nodes,
                    weights=0.5 * sc.weights, params=sc.params, edge_finite_g=sc.edge_finite_g)
    return SpectralMeasure([-1.0, 2.0, 4.0], [0.2, 0.1, 0.2], [half])


def _sqrt_law_table(nodes=64):
    return SpectralMeasure.from_density(lambda u: 1.5 * np.sqrt(np.asarray(u)), (0.0, 1.0), nodes,
                                        edge_finite_g=True)


VECTOR_CDF_MEASURES = {
    "atoms-and-semicircle": _mixture,
    "uniform": lambda: SpectralMeasure.uniform(-1.0, 3.0),
    "grid-table": lambda: SpectralMeasure.from_json(_sqrt_law_table().to_json()),
    "callable-table": _sqrt_law_table,
}


class TestArrayCdf:
    @pytest.mark.parametrize("name", sorted(VECTOR_CDF_MEASURES))
    def test_matches_scalar_formula(self, name):
        m = VECTOR_CDF_MEASURES[name]()
        rng = np.random.default_rng(7)
        xs = rng.uniform(m.left_edge - 0.5, m.right_edge + 0.5, 400)
        xs = np.concatenate([xs, m.atom_locations, [m.left_edge, m.right_edge]])
        want = np.array([scalar_cdf(m, x) for x in xs])
        np.testing.assert_allclose(m.cdf(xs), want, rtol=0.0, atol=1e-15)
        assert np.ndim(m.cdf(float(xs[0]))) == 0
        assert m.cdf(float(xs[0])) == pytest.approx(want[0], abs=1e-15)

    @pytest.mark.parametrize("name", sorted(VECTOR_CDF_MEASURES))
    def test_quantile_matches_scalar_bisection(self, name):
        m = VECTOR_CDF_MEASURES[name]()
        qs = (np.arange(50) + 0.5) / 50
        want = np.array([scalar_quantile(m, q) for q in qs])
        np.testing.assert_allclose(m.quantile(qs), want, rtol=0.0, atol=1e-14)
        assert np.ndim(m.quantile(0.3)) == 0


class TestRemoveZeroAtom:
    def test_half_zero_half_minus_one(self):
        rho = SpectralMeasure.from_atoms([0.0, -1.0], [0.5, 0.5])
        tau, alpha_prime = remove_zero_atom(rho, 3.0)
        assert alpha_prime == pytest.approx(1.5)
        assert tau.atom_locations.tolist() == [-0.5]
        assert tau.atom_weights.tolist() == [1.0]

    def test_no_zero_atom_is_identity(self):
        rho = SpectralMeasure.point_mass(1.0)
        tau, alpha_prime = remove_zero_atom(rho, 2.0)
        assert tau is rho
        assert alpha_prime == 2.0

    def test_pure_zero_atom_rejected(self):
        with pytest.raises(MeasureError):
            remove_zero_atom(SpectralMeasure.point_mass(0.0), 1.0)


class TestMassConservation:
    @pytest.mark.parametrize("make", [
        lambda: SpectralMeasure.from_atoms([0.0, 2.0, -3.0], [0.2, 0.5, 0.3]),
        lambda: SpectralMeasure.semicircle(0.0, 2.0),
        lambda: SpectralMeasure.uniform(-1.0, 1.0, nodes=32),
        lambda: SpectralMeasure.from_density(lambda u: np.cos(np.asarray(u)) * 0.5 / math.sin(1.0), (-1.0, 1.0), 96),
    ])
    def test_total_mass_one(self, make):
        assert abs(make().total_mass() - 1.0) < 1e-12


class TestSerialization:
    def test_atom_round_trip(self):
        m = SpectralMeasure.from_atoms([-6.0, 2.0], [0.5, 0.5])
        assert SpectralMeasure.from_json(m.to_json()) == m

    def test_semicircle_round_trip(self):
        m = SpectralMeasure.semicircle(2.0, 1.0)
        m2 = SpectralMeasure.from_json(m.to_json())
        assert m2 == m
        assert m2.stieltjes(4.0) == pytest.approx(m.stieltjes(4.0), rel=1e-12)

    def test_uniform_round_trip(self):
        m = SpectralMeasure.uniform(0.0, 1.0)
        assert SpectralMeasure.from_json(m.to_json()) == m

    def test_table_round_trip_preserves_transform(self):
        dens = lambda u: np.where((u >= 0) & (u <= 1), 1.5 * np.asarray(u) ** 0.5, 0.0)
        m = SpectralMeasure.from_density(dens, (0.0, 1.0), 64, edge_finite_g=True)
        m2 = SpectralMeasure.from_json(m.to_json())
        assert m2.stieltjes(2.0) == pytest.approx(m.stieltjes(2.0), rel=1e-12)


# -- tables are their nodes and weights ---------------------------------------


CALLABLE_TABLES = {
    "plain": _sqrt_law_table,
    # its weights sum to 0.9999999999999999: a table's mass is that sum, not 1
    "linear-16": lambda: SpectralMeasure.from_density(lambda u: 2.0 * np.asarray(u), (0.0, 1.0), 16),
    "scaled": lambda: _sqrt_law_table().scaled(2.5),
    "reflected": lambda: _sqrt_law_table().reflected(),
    "truncated": lambda: epsilon_truncate(_sqrt_law_table(), 0.1),
    "scaled-reflected-truncated": lambda: epsilon_truncate(
        _sqrt_law_table().scaled(0.3).reflected(), 0.05),
}


@pytest.mark.parametrize("name", sorted(CALLABLE_TABLES))
def test_callable_table_survives_a_json_round_trip_bit_for_bit(name):
    m = CALLABLE_TABLES[name]()
    m2 = SpectralMeasure.from_json(json.loads(json.dumps(m.to_json())))
    left, right = m.edges()
    xs = np.concatenate([np.linspace(left - 0.1, right + 0.1, 501), [left, right]])
    qs = np.linspace(0.0, 1.0, 101)
    outside = np.concatenate([right + np.geomspace(1e-6, 10.0, 40),
                              left - np.geomspace(1e-6, 10.0, 40)])
    plane = np.linspace(left - 1.0, right + 1.0, 40) + 1e-3j
    beyond = right + np.geomspace(1e-6, 10.0, 40)
    for f, args in [("cdf", xs), ("quantile", qs), ("stieltjes", outside),
                    ("stieltjes", plane), ("stieltjes_prime", outside),
                    ("stieltjes_prime", plane), ("log_moment", beyond)]:
        assert np.array_equal(getattr(m, f)(args), getattr(m2, f)(args)), f
        for a in args[::7]:
            assert getattr(m, f)(a) == getattr(m2, f)(a), (f, a)


@pytest.mark.parametrize("nodes, cdf_gap, quantile_gap", [(256, 4e-5, 6e-5), (64, 6e-4, 1e-3)])
def test_node_cdf_is_close_to_the_sampled_law(nodes, cdf_gap, quantile_gap):
    # the cdf of a table is the piecewise-linear cumulative of its weights; for
    # the law 1.5 sqrt(u) on [0, 1] the largest gaps to u^1.5 and q^(2/3) are
    # 2.7e-5 and 4.4e-5 with 256 nodes, 4.2e-4 and 6.9e-4 with 64
    m = _sqrt_law_table(nodes)
    xs = np.linspace(-0.1, 1.1, 2001)
    assert np.max(np.abs(m.cdf(xs) - np.clip(xs, 0.0, 1.0) ** 1.5)) <= cdf_gap
    qs = np.linspace(0.0, 1.0, 2001)
    assert np.max(np.abs(m.quantile(qs) - qs ** (2.0 / 3.0))) <= quantile_gap


def test_truncated_semicircle_cdf_is_close_to_the_closed_form():
    # the kept part is a table: its cdf is within 3.1e-5 of the semicircle's
    # below the cut, and the moved mass sits on the atom at the edge
    m = epsilon_truncate(SpectralMeasure.semicircle(2.0, 1.0), 0.1)
    xs = np.linspace(0.9, 3.1, 2001)
    w = np.clip(np.minimum(xs, 2.9) - 2.0, -1.0, 1.0)
    exact = 0.5 + (w * np.sqrt(1.0 - w * w) + np.arcsin(w)) / math.pi
    exact = np.where(xs >= 3.0, 1.0, exact)
    assert np.max(np.abs(m.cdf(xs) - exact)) <= 5e-5


@pytest.mark.parametrize("make, ends", [
    (lambda: SpectralMeasure.semicircle(0.0, 2.0), (-2.0, 2.0)),
    (lambda: SpectralMeasure.uniform(0.0, 1.0), (0.0, 1.0)),
], ids=["semicircle", "uniform"])
def test_stieltjes_prime_is_minus_infinity_at_a_closed_form_end(make, ends):
    # the suite turns RuntimeWarnings into errors, so a divide-by-zero fails here
    m = make()
    for end in ends:
        for z in (end, np.float64(end)):
            assert m.stieltjes_prime(z) == -math.inf
    got = m.stieltjes_prime(np.array([ends[0], ends[1], ends[1] + 1.0]))
    assert got[0] == got[1] == -math.inf and math.isfinite(got[2])


class TestReflection:
    def test_reflected_atoms(self):
        m = SpectralMeasure.from_atoms([-6.0, 2.0], [0.25, 0.75])
        r = m.reflected()
        assert r.edges() == (-2.0, 6.0)
        assert r.atom_mass(-2.0) == 0.75

    def test_reflected_semicircle_stieltjes(self):
        m = SpectralMeasure.semicircle(2.0, 1.0)
        r = m.reflected()
        assert r.stieltjes(-0.5) == pytest.approx(-m.stieltjes(0.5), rel=1e-12)


# -- the real-scalar transform path ---------------------------------------------
#
# A real scalar argument is evaluated on Python floats. Its reference is the
# array path at the 0-d array of the same value, which applies the same edge
# snap, and away from the edges the one element of a 1-element array.

_INSIDE = "real argument {!r} lies inside the support [{}, {}]; use a complex argument"


def _piece(draw, kind):
    lo = draw(st.floats(-5.0, 5.0))
    width = draw(st.floats(0.05, 4.0))
    if kind == "semicircle":
        return SpectralMeasure.semicircle(lo + 0.5 * width, 0.5 * width, nodes=32).components[0]
    if kind == "uniform":
        return SpectralMeasure.uniform(lo, lo + width, nodes=32).components[0]
    n = draw(st.integers(1, 12))
    nodes = np.sort(lo + width * np.asarray(
        draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n))))
    weights = np.asarray(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    return DensityComponent(kind="table", a=lo, b=lo + width, mass=float(weights.sum()),
                            nodes=nodes, weights=weights,
                            edge_finite_g=draw(st.booleans()))


@st.composite
def real_axis_measures(draw, max_atoms=12, min_atoms=0):
    """``min_atoms`` (at least 1) to ``max_atoms`` atoms plus up to two
    semicircle, uniform or table pieces, or pieces alone when ``min_atoms``
    is 0; then possibly scaled, reflected or both. Atoms closer than the
    merge tolerance become one."""
    kinds = draw(st.lists(st.sampled_from(["semicircle", "uniform", "table"]), max_size=2))
    atoms = draw(st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(0.05, 1.0)),
                          min_size=min_atoms or (0 if kinds else 1), max_size=max_atoms))
    pieces = [_piece(draw, kind) for kind in kinds]
    masses = [draw(st.floats(0.05, 1.0)) for _ in pieces]
    total = sum(w for _, w in atoms) + sum(masses)
    comps = [c.scaled(1.0, m / (total * c.mass)) for c, m in zip(pieces, masses)]
    m = SpectralMeasure([a for a, _ in atoms], [w / total for _, w in atoms], comps)
    if draw(st.booleans()):
        m = m.reflected()
    if draw(st.booleans()):
        m = m.scaled(draw(st.floats(0.1, 10.0)))
    return m


def _real_points(m, offsets):
    """Edges, the floats next to them (inside the snap window and just past
    it, on both sides), component ends as stored and as recomputed from a
    semicircle's center and radius, a point inside, points so far out that
    G' underflows to -0.0 or that w + s overflows, non-finite values, and
    points ``offsets`` away from both edges."""
    left, right = m.edges()
    pts = [left, right, m.past_right_snap(), 0.5 * (left + right), 1e200, -1e300,
           1.5e308, -1.5e308, math.inf, -math.inf, math.nan]
    for edge in (left, right):
        for direction in (math.inf, -math.inf):
            z = edge
            for _ in range(8):
                z = math.nextafter(z, direction)
                pts.append(z)
    for c in m.components:
        pts += [c.a, c.b]
        if c.kind == "semicircle":
            pts += [c.params["center"] - c.params["radius"], c.params["center"] + c.params["radius"]]
    return pts + [right + d for d in offsets] + [left - d for d in offsets]


def _assert_same_float(got, want):
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _check_real_parity(m, x, far):
    left, right = m.edges()
    for transform in (m.stieltjes, m.stieltjes_prime):
        with np.errstate(all="ignore"):
            try:
                want = transform(np.asarray(x))
            except MeasureError:
                want = None
            for z in (x, np.float64(x)):
                if want is None:
                    with pytest.raises(MeasureError) as info:
                        transform(z)
                    assert str(info.value) == _INSIDE.format(z, left, right)
                else:
                    _assert_same_float(transform(z), want)
            if far:
                _assert_same_float(float(transform(np.array([x]))[0]), want)


@pytest.mark.slow
@settings(max_examples=300)
@given(m=real_axis_measures() | real_axis_measures(max_atoms=64, min_atoms=8),
       offsets=st.lists(st.floats(1e-9, 50.0), min_size=1, max_size=4))
def test_real_scalar_path_equals_array_path(m, offsets):
    """Measures of 8 to 64 atoms included, which sum their atoms by the
    table kernel on the one point."""
    far = set(offsets)
    left, right = m.edges()
    for x in _real_points(m, offsets):
        _check_real_parity(m, x, far=x - right in far or left - x in far)


@pytest.mark.parametrize("z", [2.8, math.nextafter(2.8, math.inf), 3.0, 0.5, 0.4])
def test_real_scalar_path_at_a_semicircle_end_hit_within_rounding(z):
    # the population law of tests/test_dyson.py::TestMixedAtomAndDensity: at its
    # right edge 2.8 the distance to the center rounds below the radius,
    # 2.8 - 2.0 = 0.7999999999999998 < 0.8, so there the closed form on reals
    # would take the square root of a negative number
    rho = SpectralMeasure.from_json({
        "atoms": [[0.5, 0.5]],
        "density": {"kind": "semicircle", "params": {"center": 2.0, "radius": 0.8, "mass": 0.5},
                    "support": [1.2, 2.8], "nodes": 128},
    })
    assert 2.8 - 2.0 < 0.8
    _check_real_parity(rho, z, far=False)


def test_scalar_path_sums_atoms_in_numpy_order():
    # seven atoms: added one after another; eight or more by the table kernel
    rng = np.random.default_rng(3)
    for n in (7, 8, 12):
        locs = rng.uniform(-1.0, 1.0, n)
        m = SpectralMeasure(locs, np.full(n, 1.0 / n))
        for x in rng.uniform(1.0, 3.0, 200):
            _check_real_parity(m, float(x), far=True)


@pytest.mark.parametrize("radius", [1e-300, 1e-160])
def test_real_scalar_path_on_a_tiny_semicircle(radius):
    # 1/s and 1/(w + s)^2 leave the double range next to the ends, where
    # (w + s)^2 can underflow to 0
    comp = DensityComponent(kind="semicircle", a=-radius, b=radius, mass=1.0,
                            nodes=np.zeros(1), weights=np.ones(1),
                            params={"center": 0.0, "radius": radius}, edge_finite_g=True)
    m = SpectralMeasure(components=[comp])
    for k in (1, 2, 3, 10, 1000, 10**6, 10**12):
        for x in (radius * (1.0 + k * 2.0**-52), -radius * (1.0 + k * 2.0**-52), radius * k):
            _check_real_parity(m, x, far=False)


# -- the former transform bodies: the reference of the one (G, G') body ---------
#
# Before each layer had one body for G and G', a component and a measure wrote
# them three times each, in ``stieltjes``, ``stieltjes_prime`` and
# ``stieltjes_pair``. Those bodies, copied as they were with ``self`` the
# component or measure and their calls of one another made direct, are the
# bit-for-bit reference of the transforms. Call them under an ``np.errstate``
# that ignores divisions by 0: a table's kernel no longer sets one.


def _end_offsets(comp, z, w):
    """(z - b, z - a) of a semicircle component at z, w = z - c: w - R and w +
    R, as the former bodies took them, where the stored ends are c + R and c
    - R exactly; else z - b (z - a) itself. That rule, which mends G at a
    float end that misses c + R, changed those components' bits on purpose,
    and the former bodies take it too."""
    c, r = comp.params["center"], comp.params["radius"]
    z = np.asarray(z, dtype=complex)
    right = w - r if math.fsum((comp.b, -c, -r)) == 0.0 else z - comp.b
    left = w + r if math.fsum((comp.a, -c, r)) == 0.0 else z - comp.a
    return right, left


def _branch_sqrt(comp, z, w):
    """sqrt(w^2 - R^2) as sqrt(w - R) * sqrt(w + R), principal roots: the
    former semicircle bodies' one square root, on :func:`_end_offsets`."""
    right, left = _end_offsets(comp, z, w)
    return np.sqrt(right) * np.sqrt(left)


def _maybe_real(values, z):
    values = np.asarray(values)
    if not np.iscomplexobj(np.asarray(z)) and np.iscomplexobj(values):
        values = values.real
    if values.ndim == 0:
        return values.item()
    return values


def former_component_stieltjes(self, z):
    if self.kind == "semicircle":
        # G = (2m/R^2)(w - s) = 2m/(w + s): stable at large |w|
        c, r = self.params["center"], self.params["radius"]
        w = np.asarray(z, dtype=complex) - c
        val = 2.0 * self.mass / (w + _branch_sqrt(self, z, w))
        return _maybe_real(val, z)
    if self.kind == "uniform":
        zr = np.asarray(z)
        if not np.iscomplexobj(zr):
            val = self.mass * np.log1p((self.b - self.a) / (zr - self.b)) / (self.b - self.a)
        else:
            zc = np.asarray(z, dtype=complex)
            val = self.mass * (np.log(zc - self.a) - np.log(zc - self.b)) / (self.b - self.a)
        return _maybe_real(val, z)
    return measures._by_rows(np.asarray(z), self.nodes, self.weights, measures._table_pair, False)[0]


def former_component_stieltjes_prime(self, z):
    """G' of the component. At either end of a closed-form component, on a
    real argument, this is the one-sided limit -inf, where the formulas
    divide by 0 (a semicircle end within rounding counts as its end)."""
    if self.kind == "semicircle":
        c, r = self.params["center"], self.params["radius"]
        w = np.asarray(z, dtype=complex) - c
        s = _branch_sqrt(self, z, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = -2.0 * self.mass * (1.0 + w / s) / (w + s) ** 2
        if not np.iscomplexobj(z):
            right, left = _end_offsets(self, z, w)
            val = np.where((right.real <= 0.0) & (left.real >= 0.0), -np.inf, val)
        return _maybe_real(val, z)
    if self.kind == "uniform":
        zc = np.asarray(z, dtype=complex)
        if np.iscomplexobj(z):
            val = -self.mass / ((zc - self.a) * (zc - self.b))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                val = -self.mass / ((zc - self.a) * (zc - self.b))
            val = np.where((zc.real == self.a) | (zc.real == self.b), -np.inf, val)
        return _maybe_real(val, z)
    return measures._by_rows(np.asarray(z), self.nodes, self.weights, measures._table_pair)[1]


def former_component_stieltjes_pair(self, z):
    """(G, G') at a complex or real array z, equal bit for bit to
    :meth:`stieltjes` and :meth:`stieltjes_prime` there, from one z - t
    array: a semicircle's w and s, a uniform's z - a and z - b, a table's
    z - nodes. On a real array a closed form, whose real formulas differ
    from its complex ones, takes the two transforms."""
    if self.kind != "table" and not np.iscomplexobj(z):
        return former_component_stieltjes(self, z), former_component_stieltjes_prime(self, z)
    if self.kind == "semicircle":
        c, r = self.params["center"], self.params["radius"]
        w = z - c
        s = _branch_sqrt(self, z, w)
        d = w + s
        with np.errstate(divide="ignore", invalid="ignore"):
            gp = -2.0 * self.mass * (1.0 + w / s) / d ** 2
        return 2.0 * self.mass / d, gp
    if self.kind == "uniform":
        za, zb = z - self.a, z - self.b
        return (self.mass * (np.log(za) - np.log(zb)) / (self.b - self.a),
                -self.mass / (za * zb))
    return measures._by_rows(z, self.nodes, self.weights, measures._table_pair)


def former_stieltjes(self, z):
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
    za = np.asarray(z)[..., None] if self.atom_locations.size else None
    total = 0.0
    if za is not None:
        with np.errstate(divide="ignore"):
            total = np.sum(self.atom_weights / (za - self.atom_locations), axis=-1)
    for c in self.components:
        total = total + former_component_stieltjes(c, z)
    total = np.asarray(total)
    return total.item() if total.ndim == 0 else total


def former_stieltjes_prime(self, z):
    """d/dz of the Stieltjes transform; real scalars as in :meth:`stieltjes`."""
    val = self._real_transform(z, prime=True)
    if val is not None:
        return val
    self._check_real_argument(z)
    total = 0.0
    if self.atom_locations.size:
        za = np.asarray(z)[..., None]
        with np.errstate(divide="ignore"):
            total = -np.sum(self.atom_weights / (za - self.atom_locations) ** 2, axis=-1)
    for c in self.components:
        total = total + former_component_stieltjes_prime(c, z)
    total = np.asarray(total)
    return total.item() if total.ndim == 0 else total


def former_stieltjes_pair(self, z):
    """(G(z), G'(z)) at a complex or real array z, equal bit for bit to
    ``(stieltjes(z), stieltjes_prime(z))`` but from one z - t array per
    atom and component: the evaluation of the grid solver, the inverse
    Stieltjes solve and the level curves. A real point of z must lie
    outside the open support.

    Fewer than 4 atoms are summed one after another from 0.0, as numpy
    sums fewer than 4 complex terms (it sums 4 or more pairwise) and
    fewer than 8 real ones.
    """
    self._check_real_argument(z)
    z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
    g = gp = 0.0
    with np.errstate(divide="ignore"):
        if self.atom_locations.size >= 4:
            d = z[..., None] - self.atom_locations
            g = np.sum(self.atom_weights / d, axis=-1)
            gp = -np.sum(self.atom_weights / d ** 2, axis=-1)
        elif self.atom_locations.size:
            for w, loc in self._atom_pairs:
                d = z - loc
                g = g + w / d
                gp = gp + w / d ** 2
            gp = -gp
    for c in self.components:
        cg, cgp = former_component_stieltjes_pair(c, z)
        g = g + cg
        gp = gp + cgp
    return g, gp


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _atom_sum_changed(m, z):
    """Whether the measure's atom sum at z has other bits than its former
    body on purpose: 4 to 7 atoms at complex points, now summed one after
    another where numpy summed them pairwise, and 8 or more atoms at any
    point, now summed by the table kernel."""
    n = m.atom_locations.size
    return n >= 8 or n >= 4 and np.iscomplexobj(z)


def _check_against_the_former_bodies(m, z):
    """At the points of an array z off the open support, each transform of
    the measure and the (G, G') and (G,) of each component equal their
    former bodies bit for bit; where the atom sum changed on purpose
    (``_atom_sum_changed``), the measure's transforms are instead within the
    kernel's (4 + sqrt(n)/2) eps sum |term|, n the number of atoms, over the
    atoms' terms and the components' values, and equal where not finite."""
    with np.errstate(all="ignore"):
        measure_pairs = [(m.stieltjes(z), former_stieltjes(m, z)),
                         (m.stieltjes_prime(z), former_stieltjes_prime(m, z))]
        measure_pairs += zip(m.stieltjes_pair(z), former_stieltjes_pair(m, z))
        pairs, sizes = [], [0.0, 0.0]
        for c in m.components:
            want = former_component_stieltjes(c, z), former_component_stieltjes_prime(c, z)
            pairs += zip(c.stieltjes_pair(z), want)
            pairs += zip(c.stieltjes_pair(z, prime=False), want[:1])
            pairs += zip(c.stieltjes_pair(z), former_component_stieltjes_pair(c, z))
            sizes = [s + np.abs(v) for s, v in zip(sizes, want)]
        d = z[..., None] - m.atom_locations
        sizes[0] = sizes[0] + np.abs(m.atom_weights / d).sum(axis=-1)
        sizes[1] = sizes[1] + np.abs(m.atom_weights / d ** 2).sum(axis=-1)
    if _atom_sum_changed(m, z):
        bound = _kernel_bound(m.atom_locations.size)
        for (got, want), size in zip(measure_pairs, sizes * 2):
            got, want = np.asarray(got), np.asarray(want)
            finite = np.isfinite(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert _same_bits(got[~finite], want[~finite])
            assert np.all(np.abs(got[finite] - want[finite]) <= bound * size[finite])
    else:
        pairs += measure_pairs
    for got, want in pairs:
        assert _same_bits(got, want)


# -- the (G, G') pair of the grid solver ----------------------------------------


@settings(max_examples=300)
@given(m=real_axis_measures(max_atoms=7) | real_axis_measures(max_atoms=64, min_atoms=8),
       fractions=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=6),
       heights=st.lists(st.sampled_from([1e-12, 1e-9, 1e-6]) | st.floats(1e-12, 30.0),
                        min_size=1, max_size=4),
       offsets=st.lists(st.floats(1e-9, 50.0), min_size=1, max_size=4))
def test_stieltjes_pair_equals_the_two_transforms(m, fractions, heights, offsets):
    """Bit for bit, off the axis on both sides (heights down to 1e-12) and at
    Im z = 0 off the support; fewer than 8 atoms take the per-atom loop, 8
    to 64 the table kernel. All three transforms equal their former bodies,
    within the kernel bound where the atom sum changed on purpose."""
    left, right = m.edges()
    xs = [left + f * (right - left) for f in fractions]
    z = np.array([x + 1j * s * h for x in xs for h in heights for s in (1.0, -1.0)]
                 + [right + d for d in offsets] + [left - d for d in offsets], dtype=complex)
    with np.errstate(all="ignore"):
        g, gp = m.stieltjes_pair(z)
        assert _same_bits(g, m.stieltjes(z))
        assert _same_bits(gp, m.stieltjes_prime(z))
    _check_against_the_former_bodies(m, z)


@settings(max_examples=100)
@given(m=real_axis_measures(max_atoms=7) | real_axis_measures(max_atoms=64, min_atoms=8),
       fractions=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=6),
       heights=st.lists(st.sampled_from([1e-12, 1e-9, 1e-6]) | st.floats(1e-12, 30.0),
                        min_size=1, max_size=4))
def test_a_complex_scalar_gets_the_bits_of_its_point_in_an_array(m, fractions, heights):
    """The transforms sum on at least one dimension, so a complex scalar or
    0-d array gets the bits of its point in an array. The former bodies
    evaluated a closed form at a scalar on numpy scalars, whose complex
    arithmetic can round otherwise in the last bit."""
    left, right = m.edges()
    z = np.array([left + f * (right - left) + 1j * s * h
                  for f in fractions for h in heights for s in (1.0, -1.0)])
    with np.errstate(all="ignore"):
        g, gp = m.stieltjes_pair(z)
        for i, v in enumerate(z.tolist()):
            assert _same_bits(m.stieltjes(v), g[i])
            assert _same_bits(m.stieltjes_prime(v), gp[i])
            assert all(_same_bits(got, want[i])
                       for got, want in zip(m.stieltjes_pair(np.asarray(v)), (g, gp)))


def test_stieltjes_pair_rejects_a_real_point_inside_the_support():
    m = SpectralMeasure.from_atoms([-1.0, 2.0], [0.5, 0.5])
    with pytest.raises(MeasureError, match="inside the support"):
        m.stieltjes_pair(np.array([3.0 + 1j, 0.5 + 0j]))


# -- the real-array pair of the inverse Stieltjes solve and the level curves ------


def _check_real_pair(m, points):
    """On the points off the open support as one real array, and at each as
    a 0-d array (whose G takes the edge snap), stieltjes_pair equals the two
    transforms bit for bit; a point inside the support raises, as in the
    transforms."""
    left, right = m.edges()
    outside = np.array([x for x in points if not left < x < right])
    with np.errstate(all="ignore"):
        g, gp = m.stieltjes_pair(outside)
        assert _same_bits(g, m.stieltjes(outside))
        assert _same_bits(gp, m.stieltjes_prime(outside))
        for x in outside:
            z = np.array(x)
            assert all(_same_bits(got, want) for got, want in
                       zip(m.stieltjes_pair(z), (m.stieltjes(z), m.stieltjes_prime(z))))
    _check_against_the_former_bodies(m, outside)
    for x in points:
        if left < x < right:
            with pytest.raises(MeasureError) as info:
                m.stieltjes_pair(np.array([right + 1.0, x]))
            assert str(info.value) == _INSIDE.format(np.array([x]), left, right)
            with pytest.raises(MeasureError) as info:
                m.stieltjes_pair(np.array(x))
            assert str(info.value) == _INSIDE.format(np.array(x), left, right)


def _atoms(locations):
    return SpectralMeasure.from_atoms(locations, np.full(len(locations), 1.0 / len(locations)))


REAL_PAIR_MEASURES = {
    # fewer than 4 atoms and 4 to 7 (both summed one after another; real
    # points keep the former bits) and 8 or more (the table kernel)
    "3-atoms": _atoms([-0.5, 1.0, 2.0]),
    "5-atoms-with-zero": _atoms([0.0, 0.3, 1.0, 1.7, 2.5]),
    "9-atoms": _atoms(np.linspace(-1.3, 2.9, 9)),
    "zero-atom-at-the-edge": SpectralMeasure.from_atoms([-2.0, 0.0], [0.6, 0.4]),
    "semicircle": SpectralMeasure.semicircle(1.0, 2.0),
    "uniform": SpectralMeasure.uniform(-1.0, 2.0),
    "table": SpectralMeasure.from_density(lambda u: 1.5 * np.sqrt(u), (0.0, 1.0),
                                          edge_finite_g=True),
    "atoms-and-semicircle": SpectralMeasure(
        [-2.0, 0.0, 3.0], [0.1, 0.15, 0.25],
        [SpectralMeasure.semicircle(0.0, 1.0).components[0].scaled(1.0, 0.5)]),
    "atom-and-uniform": SpectralMeasure(
        [4.0], [0.3], [SpectralMeasure.uniform(-1.0, 1.0).components[0].scaled(1.0, 0.7)]),
}


@pytest.mark.parametrize("name", sorted(REAL_PAIR_MEASURES))
def test_real_array_pair_equals_the_two_transforms(name):
    """At the exact edges (an atom's +-inf), inside the snap window and just
    past it, at component ends, far out, and inside the support."""
    m = REAL_PAIR_MEASURES[name]
    _check_real_pair(m, _real_points(m, [1e-9, 0.3, 7.5, 250.0]))


@settings(max_examples=100)
@given(m=real_axis_measures(),
       offsets=st.lists(st.floats(1e-9, 50.0), min_size=1, max_size=4))
def test_real_array_pair_equals_the_two_transforms_on_random_measures(m, offsets):
    _check_real_pair(m, _real_points(m, offsets))


@pytest.mark.parametrize("name", sorted(REAL_PAIR_MEASURES))
def test_stieltjes_pair_at_a_float_is_the_two_float_transforms(name):
    """At a float and an ``np.float64``, (G, G') are the two transforms'
    Python floats, edge limits included; a point inside the support raises
    as they do."""
    m = REAL_PAIR_MEASURES[name]
    left, right = m.edges()
    for x in _real_points(m, [1e-9, 0.3, 7.5, 250.0]):
        for v in (x, np.float64(x)):
            if left < x < right:
                with pytest.raises(MeasureError) as info:
                    m.stieltjes_pair(v)
                assert str(info.value) == _INSIDE.format(v, left, right)
                continue
            with np.errstate(all="ignore"):
                g, gp = m.stieltjes_pair(v)
                _assert_same_float(g, m.stieltjes(v))
                _assert_same_float(gp, m.stieltjes_prime(v))


@pytest.mark.parametrize("atoms", [False, True], ids=["table", "atoms"])
@pytest.mark.parametrize("shape", [(51,), (3, 17), ()])
def test_table_sums_in_row_chunks_equal_one_array(monkeypatch, shape, atoms):
    """A table of 4000 nodes, or 4000 atoms, is summed 8 points at a time:
    the pair on real and complex arrays and the logarithmic moment equal
    those of one (points, nodes) array bit for bit."""
    if atoms:
        m = SpectralMeasure.from_atoms(np.linspace(0.0, 1.0, 4000), np.full(4000, 1.0 / 4000))
        nodes = m.atom_locations
    else:
        m = SpectralMeasure.from_density(lambda u: 1.5 * np.sqrt(u), (0.0, 1.0),
                                         nodes_per_interval=4000, edge_finite_g=True)
        nodes = m.components[0].nodes
    assert measures._TABLE_ENTRIES // nodes.size == 8
    n = math.prod(shape)
    x = (1.0 + np.geomspace(1e-9, 100.0, n)).reshape(shape)
    z = (np.linspace(-1.0, 2.0, n) + 1j * np.geomspace(1e-12, 10.0, n)).reshape(shape)

    def evaluations():
        return (*m.stieltjes_pair(x), *m.stieltjes_pair(z), m.log_moment(x))

    chunked = evaluations()
    monkeypatch.setattr(measures, "_TABLE_ENTRIES", 10**9)
    for got, want in zip(chunked, evaluations()):
        assert _same_bits(got, want)


# -- the table kernel: one reciprocal-and-dot per row ----------------------------


@st.composite
def table_layouts(draw):
    """A random table of 1 to 3000 nodes (often 1968 or 2000, as on sigma
    grids) built three ways from the same values: from contiguous arrays,
    from reversed views and from strided views; and 1 to 40 points off the
    support on each side and off the axis on both sides of it."""
    n = draw(st.integers(1, 40) | st.integers(1, 3000) | st.sampled_from([1968, 2000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-3.0, 1.0)
    b = a + rng.uniform(1e-3, 5.0)
    nodes = np.sort(rng.uniform(a, b, n))
    weights = rng.uniform(0.0, 1.0, n) ** rng.uniform(0.2, 4.0) + 1e-12
    weights /= weights.sum()
    views = {"contiguous": (nodes, weights),
             "reversed": (nodes[::-1].copy()[::-1], weights[::-1].copy()[::-1]),
             "strided": (np.repeat(nodes, 2)[::2], np.repeat(weights, 2)[::2])}
    assert n == 1 or not (views["reversed"][0].flags.c_contiguous
                          or views["strided"][1].flags.c_contiguous)
    tables = {k: SpectralMeasure(components=[measures._make_component(
        "table", a, b, None, t, w, edge_finite_g=True)]) for k, (t, w) in views.items()}
    k = draw(st.integers(1, 40))
    x = np.where(rng.random(k) < 0.5, b + np.geomspace(1e-9, 50.0, k), a - np.geomspace(1e-9, 50.0, k))
    z = (rng.uniform(a - 1.0, b + 1.0, k)
         + 1j * rng.choice([1e-12, 1e-9, 1e-6, 1e-3, 1.0, 30.0], k) * rng.choice([-1.0, 1.0], k))
    return tables, x, z


_TRANSFORMS = (SpectralMeasure.stieltjes, SpectralMeasure.stieltjes_prime,
               SpectralMeasure.stieltjes_pair)
_FORMER_TRANSFORMS = (former_stieltjes, former_stieltjes_prime, former_stieltjes_pair)


def _kernel_evaluations(m, x, z, rows, transforms=_TRANSFORMS):
    """Every table transform on the points x and z, summed ``rows`` points
    at a time."""
    n = m.components[0].nodes.size
    g, gp, pair = transforms
    with mock.patch.object(measures, "_TABLE_ENTRIES", rows * n):
        return (g(m, x), gp(m, x), *pair(m, x), g(m, z), gp(m, z), *pair(m, z))


@settings(max_examples=40)
@given(case=table_layouts())
def test_table_kernel_gives_one_set_of_bits(case):
    """The three layouts, the three transforms and their former bodies,
    chunks of 1, 3 and 8 points against the whole array, a real point on the
    float path and a complex point alone: all the same bits."""
    tables, x, z = case
    want = _kernel_evaluations(tables["contiguous"], x, z, 10**6)
    assert all(_same_bits(got, w) for got, w in zip(want[2:4] + want[6:8], want[:2] + want[4:6]))
    with np.errstate(all="ignore"):
        former = _kernel_evaluations(tables["contiguous"], x, z, 10**6, _FORMER_TRANSFORMS)
    assert all(_same_bits(got, w) for got, w in zip(want, former))
    for name, m in tables.items():
        for rows in (1, 3, 8):
            assert all(_same_bits(got, w) for got, w in zip(_kernel_evaluations(m, x, z, rows), want))
        for i in range(x.size):
            assert m.stieltjes(float(x[i])) == want[0][i]
            assert m.stieltjes_prime(float(x[i])) == want[1][i]
            assert m.stieltjes(complex(z[i])) == want[4][i]
            assert m.stieltjes_prime(complex(z[i])) == want[5][i]


def _kernel_bound(n):
    # per-term rounding plus the summation: the dot sums each row in a few
    # running accumulators, where numpy's former sum was pairwise, so the
    # difference grows about like sqrt(n); over random tables of 1 to 32768
    # nodes the largest measured ratio was about 2.4 at n = 1 and 65 (about
    # 0.36 sqrt(n)) at n = 32768, on G' of complex points
    return (4.0 + 0.5 * math.sqrt(n)) * np.finfo(float).eps


@settings(max_examples=40)
@given(case=table_layouts())
def test_table_kernel_is_the_former_formula_within_its_bound(case):
    """|G - former G| <= (4 + sqrt(n)/2) eps sum |w/(z - t)|, and the same
    for G' with sum |w/(z - t)^2|, n the number of nodes."""
    tables, x, z = case
    m = tables["contiguous"]
    c = m.components[0]
    for points in (x, z):
        g, gp = m.stieltjes_pair(points)
        d = points[:, None] - c.nodes
        terms, terms_prime = c.weights / d, c.weights / d ** 2
        bound = _kernel_bound(c.nodes.size)
        assert np.all(np.abs(g - terms.sum(axis=-1))
                      <= bound * np.abs(terms).sum(axis=-1))
        assert np.all(np.abs(gp + terms_prime.sum(axis=-1))
                      <= bound * np.abs(terms_prime).sum(axis=-1))


def test_a_pair_of_4000_atoms_is_summed_in_row_chunks():
    """Atoms are summed by the table kernel a chunk of rows at a time: the
    pair of 4000 atoms on 2000 complex points peaks below 4 MiB of traced
    allocations (about 0.7 MiB), where the former broadcast of every
    (point, atom) pair peaked at 366 MiB."""
    rng = np.random.default_rng(11)
    m = SpectralMeasure.from_atoms(rng.uniform(0.0, 4.0, 4000), np.full(4000, 1.0 / 4000))
    assert m.atom_locations.size == 4000
    z = rng.uniform(-1.0, 5.0, 2000) + 1j * rng.uniform(1e-6, 1.0, 2000)
    tracemalloc.start()
    try:
        m.stieltjes_pair(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_one_node_table_gives_a_complex_point_alone_its_bits():
    """numpy squares a lone complex entry in place with other bits than in a
    longer array (about one entry in nine of these); the kernel must not."""
    m = SpectralMeasure(components=[measures._make_component(
        "table", -0.5, 0.5, None, [0.1], [1.0], edge_finite_g=True)])
    rng = np.random.default_rng(3)
    z = rng.uniform(-2.0, 2.0, 200) + 1j * np.exp(rng.uniform(-20.0, 3.0, 200))
    gp = m.stieltjes_pair(z)[1]
    for i in range(z.size):
        assert m.stieltjes_prime(complex(z[i])) == gp[i]
        assert m.stieltjes_pair(z[i:i + 1])[1][0] == gp[i]


# -- G'' in the array body ----------------------------------------------------------


def _g2_oracle(locations, weights, x):
    """2 sum w/(x - t)^3 over the discrete measure in 50-digit arithmetic,
    and the sum of its terms' magnitudes, at each float of x."""
    with mpmath.workdps(50):
        out = []
        for v in x.tolist():
            terms = [2 * mpmath.mpf(w) / (mpmath.mpf(v) - mpmath.mpf(t)) ** 3
                     for t, w in zip(locations.tolist(), weights.tolist())]
            out.append((float(mpmath.fsum(terms)), float(mpmath.fsum(abs(u) for u in terms))))
    return np.array(out).T


def _random_discrete(seed, n, table):
    """n atoms, or a table of n nodes, at random in [-2, 2] with random
    weights, and real points off its support: outside its hull and, for
    atoms, between them, at offsets from 1e-6 to 3."""
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.uniform(-2.0, 2.0, n))
    weights = rng.uniform(0.1, 1.0, n)
    weights /= weights.sum()
    if table:
        m = SpectralMeasure(components=[measures._make_component(
            "table", nodes[0], nodes[-1], None, nodes, weights, edge_finite_g=True)])
    else:
        m = SpectralMeasure(nodes, weights)
    offsets = np.geomspace(1e-6, 3.0, 8)
    x = [nodes[-1] + offsets, nodes[0] - offsets]
    if not table:
        x.append(nodes[:-1] + 0.5 * np.diff(nodes))
        x.append(nodes[:-1] + 1e-3 * np.diff(nodes))
    return m, nodes, weights, np.concatenate(x)


@pytest.mark.parametrize("n, table", [(3, False), (7, False), (9, False), (40, False),
                                      (12, True), (400, True)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_g2_of_atoms_and_tables_against_50_digit_sums(seed, n, table):
    """Fewer than 8 atoms are summed one after another, 8 or more and
    tables by the table kernel: within 24 eps of the sum of the terms'
    magnitudes at real points off the support, in gaps between atoms too."""
    m, nodes, weights, x = _random_discrete(seed, n, table)
    want, size = _g2_oracle(nodes, weights, x)
    got = m._transforms(x, 2)[2]
    assert np.all(np.abs(got - want) <= 24 * np.finfo(float).eps * size)


def _closed_form_g(kind, a, b):
    """G of the semicircle or uniform law on [a, b] at an mpmath point."""
    c, r = (a + b) / 2, (b - a) / 2
    if kind == "semicircle":
        return lambda z: 2 * (z - c - mpmath.sqrt(z - c - r) * mpmath.sqrt(z - c + r)) / r**2
    return lambda z: (mpmath.log(z - a) - mpmath.log(z - b)) / (b - a)


@pytest.mark.parametrize("kind, a, b", [("semicircle", -2.0, 2.0), ("semicircle", -0.5, 0.5),
                                        ("uniform", -1.0, 2.0), ("uniform", 0.5, 1.5)])
def test_g2_of_the_closed_forms(kind, a, b):
    """G'' against the second derivative of the closed form of G, at 50
    digits, at real points from 1e-9 to 50 off either end, where the
    offsets from the ends are exact, and at complex points."""
    m = (SpectralMeasure.semicircle((a + b) / 2, (b - a) / 2) if kind == "semicircle"
         else SpectralMeasure.uniform(a, b))
    (c,) = m.components
    offsets = np.geomspace(1e-9, 50.0, 12)
    x = np.concatenate([b + offsets, a - offsets])
    z = np.concatenate([x, np.linspace(a - 1.0, b + 1.0, 7) + 1j * np.geomspace(1e-6, 1.0, 7)])
    g = _closed_form_g(kind, a, b)
    with mpmath.workdps(50):
        want = [complex(mpmath.diff(g, mpmath.mpc(v), 2)) for v in z.tolist()]
    got = c.stieltjes_pair(z, 2)[2]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    real = c.stieltjes_pair(x, 2)[2]
    assert real.dtype == float
    np.testing.assert_allclose(real, np.real(want[:x.size]), rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", sorted(REAL_PAIR_MEASURES) + ["4000-atoms"])
def test_asking_for_g2_keeps_the_bits_of_g_and_g1(name):
    """(G, G') and (G,) of the measure and of each component have the same
    bits whether or not G'' is asked for, at real points off the support
    and at complex points, in row chunks on 4000 atoms."""
    if name == "4000-atoms":
        rng = np.random.default_rng(5)
        m = SpectralMeasure.from_atoms(rng.uniform(0.0, 4.0, 4000), np.full(4000, 1.0 / 4000))
    else:
        m = REAL_PAIR_MEASURES[name]
    left, right = m.edges()
    x = np.concatenate([right + np.geomspace(1e-9, 50.0, 20), left - np.geomspace(1e-9, 50.0, 20)])
    z = np.linspace(left - 1.0, right + 1.0, 31) + 1j * np.geomspace(1e-12, 30.0, 31)
    for v in (x, z, x[:1], z[:1], x[0], z[0]):
        with np.errstate(all="ignore"):
            three = m._transforms(v, 2)
            assert len(three) == 3 and all(_same_bits(got, want)
                                           for got, want in zip(three, m._transforms(v)))
            assert _same_bits(three[0], m._transforms(v, False)[0])
            for c in m.components:
                three = c.stieltjes_pair(np.asarray(v), 2)
                assert all(_same_bits(np.asarray(got), np.asarray(want))
                           for got, want in zip(three, c.stieltjes_pair(np.asarray(v))))


# -- the Gauss rule of a table ---------------------------------------------------

K = measures._RULE_NODES
EPS = np.finfo(float).eps


def rule_bounds(u):
    """The a-priori bounds on the K-point rule's error for 1/(lam - t),
    1/(lam - t)^2 and log(lam - t) at u = (lam - c)/h, per unit mass and in
    units of 1/h, 1/h^2 and 1 (see ``measures._RULE_REACH``): twice the tail
    past degree 2K - 1 of each kernel's Chebyshev expansion on [-1, 1],
    2/sqrt(u^2 - 1) rho^-j, its u-derivative and 2 rho^-j / j."""
    root = math.sqrt(u * u - 1.0)
    rho = u + root
    tail = 4.0 * rho ** (1 - 2 * K) / (rho - 1.0)
    return (tail / root, tail * (2 * K + 1.0 / (rho - 1.0) + u / root) / (root * root),
            tail / (2 * K))


def test_the_rule_reach_is_where_every_bound_falls_to_1e_16():
    assert max(rule_bounds(1.0 + measures._RULE_REACH)) <= 1e-16
    assert max(rule_bounds(1.0 + 0.99 * measures._RULE_REACH)) > 1e-16


@st.composite
def random_tables(draw):
    """(measure, table, band hulls): a positive table of 8K to 4000 nodes in
    one to three bands with gaps between them, on positive support of width
    1e-2 to 10, alone or beside a zero atom. Each band's nodes are jittered
    uniform or Chebyshev-clustered, and its density a power 1/2, -1/2 or 3/2
    of the distance to either end times a random factor in [0.5, 1.5]."""
    n = draw(st.integers(8 * K, 4000))
    bands = draw(st.integers(1, 3))
    zero_atom = draw(st.sampled_from([0.0, 0.2, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, width = rng.uniform(0.05, 3.0), 10.0 ** rng.uniform(-2.0, 1.0)
    pieces = rng.uniform(0.2, 1.0, 2 * bands - 1)
    ends = a + width * np.concatenate(([0.0], np.cumsum(pieces))) / pieces.sum()
    lengths = pieces[::2]
    counts = np.diff(np.round(n * np.concatenate(([0.0], np.cumsum(lengths))) / lengths.sum()))
    nodes, weights, hulls = [], [], []
    for i, count in enumerate(counts.astype(int)):
        lo, hi = ends[2 * i], ends[2 * i + 1]
        j = np.arange(count)
        if rng.integers(2):
            t = (j + rng.uniform(0.1, 0.9, count)) / count
        else:
            t = 0.5 - 0.5 * np.cos(math.pi * (j + 0.5) / count)
        x = lo + (hi - lo) * t
        e_lo, e_hi = rng.choice([-0.5, 0.5, 1.5], 2)
        weights.append(t ** e_lo * (1.0 - t) ** e_hi * rng.uniform(0.5, 1.5, count)
                       * np.gradient(x))
        nodes.append(x)
        hulls.append((x[0], x[-1]))
    weights = np.concatenate(weights)
    weights *= (1.0 - zero_atom) / weights.sum()
    table = measures._make_component("table", ends[0], ends[-1], None, np.concatenate(nodes),
                                     weights, edge_finite_g=True)
    atoms = ([0.0], [zero_atom]) if zero_atom else ((), ())
    return SpectralMeasure(*atoms, [table]), table, hulls


def chebyshev_sums(table, c, h):
    """sum_i w_i T_j((t_i - c)/h) for j < 2K, and what rounding each t_i to
    a double can move it by: sum_i w_i |T_j'(s_i)| ulp(t_i)/h, up to
    (2K - 1)^2 ulp/h at the ends, which exceeds 1e-13 on a table far from 0
    for its width."""
    s = (table.nodes - c) / h
    t, u = np.empty((2 * K, s.size)), np.empty((2 * K, s.size))
    t[0], t[1], u[0], u[1] = 1.0, s, 1.0, 2.0 * s
    for j in range(2, 2 * K):
        t[j] = 2.0 * s * t[j - 1] - t[j - 2]
        u[j] = 2.0 * s * u[j - 1] - u[j - 2]
    slopes = np.arange(1, 2 * K)[:, None] * np.abs(u[:-1])
    moved = np.concatenate(([0.0], slopes @ (table.weights * np.spacing(table.nodes)) / h))
    return t @ table.weights, moved


@settings(max_examples=60)
@given(case=random_tables())
def test_a_table_gets_the_k_point_gauss_rule_of_its_nodes(case):
    """The rule has K nodes strictly inside [a, b]; its weights are positive
    but where a node lies in a gap between bands (its weight can then fall
    below the rounding of the eigenvectors, and at most one node lies in each
    gap); they sum to the mass within K eps; and the rule integrates T_0 ...
    T_{2K-1} on [a, b] as the nodes do within 1e-13 times the mass, plus what
    rounding the nodes of both to doubles moves the sums by."""
    mu, table, hulls = case
    rule = table.gauss_rule
    assert rule is table.gauss_rule and rule.kind == "table" and rule.nodes.size == K
    assert np.all((rule.nodes > table.a) & (rule.nodes < table.b))
    assert rule.weights.min() >= 0.0
    in_gap = [not any(lo <= x <= hi for lo, hi in hulls) for x in rule.nodes[rule.weights == 0.0]]
    assert all(in_gap) and len(in_gap) < len(hulls)
    assert abs(rule.weights.sum() - table.mass) <= K * EPS * table.mass
    c, h = 0.5 * (table.a + table.b), 0.5 * (table.b - table.a)
    (want, moved), (got, moved_rule) = chebyshev_sums(table, c, h), chebyshev_sums(rule, c, h)
    assert np.all(np.abs(got - want) <= 1e-13 * table.mass + moved + moved_rule)


@settings(max_examples=60)
@given(case=random_tables())
def test_the_rule_gives_g_g_prime_and_the_log_moment_within_their_bounds(case):
    """From the reach out to u = 100 the measure read through the rule gives
    G, G' and the log moment of the node sums within the a-priori bound
    (``rule_bounds``), plus 2K eps times the sum of |terms| (the rule comes
    from an eigensolve of a K x K matrix) and what rounding its nodes to
    doubles moves the sum by. Nearer than the reach the measure reads its
    nodes."""
    mu, table, _ = case
    rule = table.gauss_rule
    m, h = table.mass, 0.5 * (table.b - table.a)
    assert mu.read_from(table.b + 0.999 * measures._RULE_REACH * h) is mu
    for d in np.geomspace(measures._RULE_REACH * (1.0 + 1e-12), 99.0, 8):
        lam = table.b + d * h
        ruled = mu.read_from(lam)
        assert ruled.components == (rule,)
        np.testing.assert_array_equal(ruled.atom_weights, mu.atom_weights)
        g_bound, gp_bound, log_bound = rule_bounds(1.0 + d)
        for read, term, slope, bound in (
            (SpectralMeasure.stieltjes, lambda t: 1.0 / (lam - t),
             lambda t: 1.0 / (lam - t) ** 2, g_bound * m / h),
            (SpectralMeasure.stieltjes_prime, lambda t: 1.0 / (lam - t) ** 2,
             lambda t: 2.0 / (lam - t) ** 3, gp_bound * m / h ** 2),
            (SpectralMeasure.log_moment, lambda t: np.abs(np.log(lam - t)),
             lambda t: 1.0 / (lam - t), log_bound * m),
        ):
            size = table.weights @ term(table.nodes)
            moved = rule.weights @ (slope(rule.nodes) * np.spacing(rule.nodes))
            assert abs(read(ruled, lam) - read(mu, lam)) <= bound + 2 * K * EPS * size + moved
