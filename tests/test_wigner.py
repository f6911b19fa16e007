import math

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import minimize_scalar

from rmtldp.measures import Semicircle, SpectralMeasure
from rmtldp.rate import _inverse_stieltjes
from rmtldp.wigner import (
    DeformedWignerModel,
    dw_branches,
    dw_edge,
    dw_epsilon_cap,
    dw_rate,
    dw_rate_variational,
    free_convolution_density,
    free_convolution_measure,
)
from theta_space import dw_h


def point_deformation():
    return DeformedWignerModel(SpectralMeasure.point_mass(0.0))


def semicircle_deformation():
    return DeformedWignerModel(SpectralMeasure.semicircle(0.0, 1.0))


def two_atom_deformation():
    return DeformedWignerModel(SpectralMeasure.from_atoms([-1.0, 1.0], [0.5, 0.5]))


def wigner_rate_oracle(x):
    # half the integral of sqrt(y^2 - 4) from 2 to x
    s = math.sqrt(x * x - 4.0)
    return 0.5 * (0.5 * x * s - 2.0 * math.log(0.5 * (x + s)))


class TestKTransform:
    """K, the inverse of G_mu on (0, G_mu(r(mu))), by the inverse Stieltjes
    solve."""

    def test_point_mass_inverse(self):
        mu = SpectralMeasure.point_mass(0.0)
        assert _inverse_stieltjes(mu, 0.5) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("y", [0.1, 0.7, 3.0])
    def test_r_transform_of_point_mass_vanishes(self, y):
        mu = SpectralMeasure.point_mass(0.0)
        assert _inverse_stieltjes(mu, y) - 1.0 / y == pytest.approx(0.0, abs=1e-10)

    def test_identity_with_stieltjes(self):
        mu = SpectralMeasure.semicircle(0.0, 1.0)
        for y in (0.3, 1.0, 1.9):
            lam = _inverse_stieltjes(mu, y)
            assert mu.stieltjes(lam) == pytest.approx(y, abs=1e-10)

    def test_semicircle_r_transform(self):
        # variance 1/4 semicircle: K(y) = y/4 + 1/y
        mu = SpectralMeasure.semicircle(0.0, 1.0)
        assert _inverse_stieltjes(mu, 1.0) == pytest.approx(0.25 + 1.0, abs=1e-8)


class TestDwH:
    """H(y) = y + K(y), capped at y + r(mu_d): the oracle of the tests."""

    def test_point_mass_values(self):
        model = point_deformation()
        assert dw_h(model, 1.0) == pytest.approx(2.0, abs=1e-12)
        assert dw_h(model, 3.0) == pytest.approx(3.0 + 1.0 / 3.0, abs=1e-10)

    def test_capped_piece(self):
        """Past x_c = r(mu_d) + G_mu(r(mu_d)) = 3 the second branch is the
        affine piece x - r(mu_d), on which H(Gbar) = x."""
        model = semicircle_deformation()
        assert model.edge.x_c_dw == 3.0
        xs = np.array([3.0, 4.0, 7.5])
        g_bar = model.branches(xs)[1]
        assert np.array_equal(g_bar, xs - 1.0)
        assert [dw_h(model, y) for y in g_bar] == xs.tolist()

    def test_convexity(self):
        for model in (point_deformation(), semicircle_deformation(), two_atom_deformation()):
            y_c = dw_edge(model).y_c
            ys = np.linspace(0.05 * y_c, 3.0 * y_c, 200)
            vals = np.array([dw_h(model, y) for y in ys])
            assert np.min(np.diff(vals, 2)) >= -1e-9


class TestDwEdge:
    def test_point_mass(self):
        edge = dw_edge(point_deformation())
        assert edge.y_c == pytest.approx(1.0, abs=1e-10)
        assert edge.r_edge == pytest.approx(2.0, abs=1e-10)
        assert edge.x_c_dw == math.inf

    def test_semicircle_deformation(self):
        edge = dw_edge(semicircle_deformation())
        assert edge.x_c_dw == pytest.approx(3.0, abs=1e-10)
        # free sum of semicircles: radius sqrt(2^2 + 1^2) around 0
        assert edge.r_edge == pytest.approx(math.sqrt(5.0), abs=1e-10)
        assert edge.y_c == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-9)

    def test_two_atom_matches_direct_minimization(self):
        model = two_atom_deformation()
        edge = dw_edge(model)
        res = minimize_scalar(lambda y: dw_h(model, y), bounds=(1e-6, 10.0),
                              method="bounded", options={"xatol": 1e-12})
        assert edge.r_edge == pytest.approx(res.fun, abs=1e-6)
        assert edge.y_c == pytest.approx(res.x, abs=1e-5)


class TestDwBranches:
    def test_point_mass_roots(self):
        model = point_deformation()
        g, gb = dw_branches(model, 3.0)
        assert g == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
        assert gb == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)

    def test_edge_coincidence(self):
        g, gb = dw_branches(point_deformation(), 2.0)
        assert g == gb == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("make", [point_deformation, semicircle_deformation,
                                      two_atom_deformation])
    def test_ordering_and_residuals(self, make):
        model = make()
        edge = dw_edge(model)
        for x in (edge.r_edge + 0.1, edge.r_edge + 1.0, edge.r_edge + 4.0):
            g, gb = dw_branches(model, x)
            assert gb > g
            assert dw_h(model, g) == pytest.approx(x, abs=1e-9)
            if not (math.isfinite(edge.x_c_dw) and x >= edge.x_c_dw):
                assert dw_h(model, gb) == pytest.approx(x, abs=1e-9)

    def test_capped_branch_is_affine(self):
        model = semicircle_deformation()
        _, gb = dw_branches(model, 5.0)  # beyond x_c = 3
        assert gb == pytest.approx(5.0 - 1.0, abs=1e-12)

    def test_below_edge_rejected(self):
        with pytest.raises(ValueError):
            dw_branches(point_deformation(), 1.5)


class TestDwRate:
    def test_vanishes_at_edge(self):
        assert dw_rate(point_deformation(), 2.0) == 0.0

    def test_reference_value(self):
        assert dw_rate(point_deformation(), 3.0) == pytest.approx(0.7146273, abs=1e-6)

    @pytest.mark.parametrize("x", [2.2, 3.0, 4.5, 6.0])
    def test_closed_form_on_range(self, x):
        assert dw_rate(point_deformation(), x) == pytest.approx(wigner_rate_oracle(x), abs=1e-6)

    def test_quadratic_asymptotics(self):
        x = 50.0
        assert dw_rate(point_deformation(), x) / (x * x / 4.0) == pytest.approx(1.0, rel=0.05)

    def test_beta_two_doubles(self):
        m1 = point_deformation()
        m2 = DeformedWignerModel(SpectralMeasure.point_mass(0.0), 2, "complex_gaussian")
        assert dw_rate(m2, 3.0) == pytest.approx(2.0 * dw_rate(m1, 3.0), rel=1e-9)

    def test_infinite_below_edge(self):
        assert dw_rate(point_deformation(), 1.0) == math.inf


class TestFreeConvolutionDensity:
    def test_semicircle_center(self):
        val = free_convolution_density(point_deformation(), 0.0, 1e-4)
        assert val == pytest.approx(1.0 / math.pi, abs=1e-3)

    def test_outside_support(self):
        assert free_convolution_density(point_deformation(), 3.0, 1e-4) <= 1e-3

    def test_symmetry(self):
        model = two_atom_deformation()
        xs = np.array([0.4, 1.1, 2.0])
        left = free_convolution_density(model, -xs, 1e-5)
        right = free_convolution_density(model, xs, 1e-5)
        np.testing.assert_allclose(left, right, atol=1e-6)

    def test_eta_rejected(self):
        with pytest.raises(ValueError):
            free_convolution_density(point_deformation(), 0.0, -1.0)


class TestFreeConvolutionMeasure:
    def test_mass_and_defect(self):
        sigma = free_convolution_measure(point_deformation(), 800)
        assert abs(sigma.total_mass() - 1.0) < 1e-12
        assert sigma.raw_mass_defect < 1e-3

    @pytest.mark.parametrize("grid_points", [0, 2, 2.5])
    def test_a_grid_of_fewer_than_3_points_is_refused(self, grid_points):
        with pytest.raises(ValueError, match="grid_points"):
            free_convolution_measure(point_deformation(), grid_points)

    def test_semicircle_cdf(self):
        sigma = free_convolution_measure(point_deformation(), 1200)
        sc = Semicircle(0.0, 2.0)
        for x in (-1.0, 0.0, 0.7, 1.8):
            oracle, _ = integrate.quad(sc, -2.0, x)
            assert sigma.cdf(x) == pytest.approx(oracle, abs=2e-3)

    @pytest.mark.parametrize("model", [
        point_deformation(),
        two_atom_deformation(),
        DeformedWignerModel(SpectralMeasure.uniform(-1.0, 1.0)),
    ])
    def test_support_window_is_the_grid_measure_support(self, model):
        window = model.window
        assert (window.left, window.right) == free_convolution_measure(model, 400).edges()


class TestDisconnectedFreeConvolution:
    def test_two_separated_bands(self):
        # deformation atoms at -5 and 5 leave a real spectral gap around 0
        model = DeformedWignerModel(SpectralMeasure.from_atoms([-5.0, 5.0], [0.5, 0.5]))
        sigma = free_convolution_measure(model, 1600)
        assert sigma.raw_mass_defect < 1e-4
        assert sigma.cdf(0.0) == pytest.approx(0.5, abs=1e-6)
        assert free_convolution_density(model, 0.0, 1e-6) <= 1e-6
        assert free_convolution_density(model, 5.0, 1e-6) > 1e-2


class TestDwVariational:
    @pytest.mark.parametrize("x_off", [0.5, 1.0, 2.0])
    def test_point_mass_matches_primal(self, x_off):
        model = point_deformation()
        edge = dw_edge(model)
        sigma = free_convolution_measure(model, 2000)
        x = edge.r_edge + x_off
        assert dw_rate_variational(model, x, sigma=sigma) == pytest.approx(
            dw_rate(model, x), abs=2e-3)

    def test_two_atom_matches_primal(self):
        model = two_atom_deformation()
        edge = dw_edge(model)
        sigma = free_convolution_measure(model, 2000)
        for x in (edge.r_edge + 0.4, edge.r_edge + 1.5):
            assert dw_rate_variational(model, x, sigma=sigma) == pytest.approx(
                dw_rate(model, x), abs=2e-3)


class TestSharedPath:
    def test_deformed_wigner_names_are_the_shared_functions(self):
        """rate, rate_variational, sigma_density and sigma_measure take a
        deformed-Wigner model and give what the dw_*/free_convolution_*
        names give, bit for bit."""
        from rmtldp.dyson import sigma_density, sigma_measure
        from rmtldp.rate import rate, rate_variational

        model = two_atom_deformation()
        edge = dw_edge(model)
        sigma = sigma_measure(model, 400)
        assert np.array_equal(sigma.components[0].weights,
                              free_convolution_measure(model, 400).components[0].weights)
        xs = np.linspace(-3.0, 3.0, 31)
        assert np.array_equal(sigma_density(model, xs, 1e-4),
                              free_convolution_density(model, xs, 1e-4))
        for x in (edge.r_edge - 0.1, edge.r_edge, edge.r_edge + 0.7):
            assert rate(model, x) == dw_rate(model, x)
        x = edge.r_edge + 0.7
        assert rate_variational(model, x, sigma) == dw_rate_variational(
            model, x, sigma=sigma)


class TestDwEpsilonCap:
    def test_cap_moves_tail_to_atom(self):
        model = semicircle_deformation()
        capped = dw_epsilon_cap(model, 0.25)
        tail, _ = integrate.quad(Semicircle(0.0, 1.0), 0.75, 1.0)
        assert capped.mu_d.atom_mass(1.0) == pytest.approx(tail, abs=1e-9)
        assert dw_edge(capped).x_c_dw == math.inf

    def test_capping_lowers_rate(self):
        model = semicircle_deformation()
        edge = dw_edge(model)
        capped = dw_epsilon_cap(model, 0.25)
        for x in np.linspace(edge.r_edge + 0.3, edge.r_edge + 3.0, 6):
            assert dw_rate(capped, x) <= dw_rate(model, x) + 1e-9

    def test_cap_of_a_table_deformation(self):
        # a nodes-only table: the cap keeps mass 1, every capped rate is
        # dominated by the base rate and the capped edge rises with eps, at
        # the tolerances of approx_sweep
        mu_d = SpectralMeasure.from_json(SpectralMeasure.from_density(
            lambda u: 2.0 / math.pi * np.sqrt(np.maximum(1.0 - np.asarray(u) ** 2, 0.0)),
            (-1.0, 1.0), 128, edge_finite_g=True).to_json())
        model = DeformedWignerModel(mu_d)
        edge = dw_edge(model)
        xs = np.linspace(edge.r_edge + 0.3, edge.r_edge + 3.0, 6)
        r_values = []
        for eps in (0.05, 0.1, 0.2, 0.4):
            capped = dw_epsilon_cap(model, eps)
            assert abs(capped.mu_d.total_mass() - 1.0) <= 1e-12
            cap_edge = dw_edge(capped)
            for x in xs:
                assert dw_rate(capped, x) <= dw_rate(model, x) + 1e-9
            r_values.append(cap_edge.r_edge)
        assert np.all(np.diff(r_values) >= -1e-12)

    def test_capped_edge_monotone_in_eps(self):
        model = semicircle_deformation()
        base = dw_edge(model).r_edge
        r_values = [dw_edge(dw_epsilon_cap(model, eps)).r_edge
                    for eps in (0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b for a, b in zip(r_values, r_values[1:]))
        assert all(r >= base - 1e-10 for r in r_values)
        assert r_values[0] == pytest.approx(base, abs=5e-3)


class TestTheBenchmarksEdgeSlot:
    """dw_rate, dw_rate_variational and free_convolution_measure keep a
    positional edge for the benchmark's jobs: the model's own edge, or one
    solved again, is taken, and another model's edge is refused."""

    def calls(self, model, edge):
        return (lambda: dw_rate(model, 3.0, edge),
                lambda: dw_rate_variational(model, 3.0, edge),
                lambda: free_convolution_measure(model, 400, edge))

    def test_the_model_s_own_edge_is_taken(self):
        model = two_atom_deformation()
        want = [call() for call in self.calls(model, None)]
        for edge in (model.edge, dw_edge(two_atom_deformation())):
            got = [call() for call in self.calls(model, edge)]
            assert got[:2] == want[:2]
            assert got[2].components[0].weights.tobytes() == want[2].components[0].weights.tobytes()

    def test_another_model_s_edge_is_refused(self):
        model, other = two_atom_deformation(), point_deformation()
        for call in self.calls(model, other.edge):
            with pytest.raises(ValueError, match="is not the model's edge"):
                call()
