import math

import numpy as np
import pytest
from scipy import integrate

from rmtldp.measures import (
    MeasureError,
    Semicircle,
    SpectralMeasure,
    remove_zero_atom,
)


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
