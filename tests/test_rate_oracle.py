"""The closed-form rate against adaptive quadrature of the branch gap.

The library evaluates I(x) = (beta/2) * integral of (Gbar - G) from the edge
to x in closed form from the two branch values; here the integral is taken
numerically instead, as an independent oracle, on every kind of model the
closed form distinguishes: atoms, closed-form densities, table densities,
negative support, and the capped second branch of both model kinds.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from rmtldp.dyson import CovarianceModel, edge_solve, g_bar_sigma, g_sigma
from rmtldp.measures import SpectralMeasure
from rmtldp.rate import rate
from rmtldp.wigner import DeformedWignerModel, dw_branches, dw_edge, dw_epsilon_cap, dw_rate


def _table_rho():
    # square-root edge, so the transform is finite there and x_c is finite
    dens = lambda u: 1.5 * np.sqrt(np.maximum(1.0 - np.asarray(u), 0.0))
    return SpectralMeasure.from_density(dens, (0.0, 1.0), 128, edge_finite_g=True)


COVARIANCE = {
    "wishart-0.5": lambda: CovarianceModel(SpectralMeasure.point_mass(1.0), 0.5),
    "wishart-1": lambda: CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0),
    "wishart-2": lambda: CovarianceModel(SpectralMeasure.point_mass(1.0), 2.0),
    "neg-wishart": lambda: CovarianceModel(SpectralMeasure.point_mass(-1.0), 2.0),
    "two-atom": lambda: CovarianceModel(SpectralMeasure.from_atoms([1.0, 3.0], [0.5, 0.5]), 2.0),
    "uniform-rho": lambda: CovarianceModel(SpectralMeasure.uniform(0.5, 1.5), 1.0),
    "semicircle-0.5": lambda: CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), 0.5),
    "semicircle-1": lambda: CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), 1.0),
    "semicircle-2": lambda: CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), 2.0),
    "semicircle-3": lambda: CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), 3.0),
    "table-rho": lambda: CovarianceModel(_table_rho(), 1.0),
}

WIGNER = {
    "dw-point": lambda: DeformedWignerModel(SpectralMeasure.point_mass(0.0)),
    "dw-two-atom": lambda: DeformedWignerModel(
        SpectralMeasure.from_atoms([-1.0, 1.0], [0.5, 0.5])),
    "dw-uniform": lambda: DeformedWignerModel(SpectralMeasure.uniform(-1.0, 1.0)),
    "dw-semicircle": lambda: DeformedWignerModel(SpectralMeasure.semicircle(0.0, 1.0)),
    "dw-capped": lambda: dw_epsilon_cap(
        DeformedWignerModel(SpectralMeasure.semicircle(0.0, 1.0)), 0.2),
}


def _points(r, x_c):
    """Evaluation points above the edge r, one of them past a finite x_c."""
    if r < 0.0:
        return [0.5 * r, 0.1 * r]  # negative support: the rate is finite on [r, 0)
    xs = [r + 0.5, r + 3.0]
    return xs + [x_c + 2.0] if math.isfinite(x_c) else xs


def _gap_integral(gap, lo, x, x_c):
    breaks = [x_c] if lo < x_c < x else None
    val, _ = integrate.quad(gap, lo, x, points=breaks, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val


@pytest.mark.parametrize("name", sorted(COVARIANCE))
def test_covariance_rate_matches_quadrature(name):
    model = COVARIANCE[name]()
    edge = edge_solve(model)
    gap = lambda u: g_bar_sigma(model, u) - g_sigma(model, u)
    for x in _points(edge.r_sigma, edge.x_c):
        oracle = 0.5 * model.beta * _gap_integral(gap, edge.r_sigma, x, edge.x_c)
        assert rate(model, x) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("name", sorted(WIGNER))
def test_wigner_rate_matches_quadrature(name):
    model = WIGNER[name]()
    edge = dw_edge(model)

    def gap(u):
        g, g_bar = dw_branches(model, u)
        return g_bar - g

    for x in _points(edge.r_edge, edge.x_c_dw):
        oracle = 0.5 * model.beta * _gap_integral(gap, edge.r_edge, x, edge.x_c_dw)
        assert dw_rate(model, x) == pytest.approx(oracle, abs=1e-9)


def test_capped_branches_are_reached():
    model = COVARIANCE["semicircle-1"]()
    edge = edge_solve(model)
    assert g_bar_sigma(model, edge.x_c + 2.0) == edge.theta_max
    model = WIGNER["dw-semicircle"]()
    edge = dw_edge(model)
    assert edge.x_c_dw == pytest.approx(3.0, abs=1e-10)
    x = edge.x_c_dw + 2.0
    assert dw_branches(model, x)[1] == x - model.mu_d.right_edge


@pytest.mark.parametrize("delta", [1e-12, 1e-10, 1e-8])
@pytest.mark.parametrize("name", sorted(COVARIANCE))
def test_covariance_rate_nonnegative_near_edge(name, delta):
    model = COVARIANCE[name]()
    edge = edge_solve(model)
    assert 0.0 <= rate(model, edge.r_sigma + delta) < 1e-9


@pytest.mark.parametrize("delta", [1e-12, 1e-10, 1e-8])
@pytest.mark.parametrize("name", sorted(WIGNER))
def test_wigner_rate_nonnegative_near_edge(name, delta):
    model = WIGNER[name]()
    edge = dw_edge(model)
    assert 0.0 <= dw_rate(model, edge.r_edge + delta) < 1e-9
