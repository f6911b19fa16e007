"""Densities of atomic models against roots of their polynomial equations.

For rho = sum p_i delta_{u_i} the Dyson equation H(w) = z reads

    1/w + sum_i p_i alpha u_i / (alpha - w u_i) = z,

and for mu_D = sum p_i delta_{u_i} the subordination equation reads
omega + sum_i p_i / (omega - u_i) = z. Cleared of denominators both are
polynomial equations of degree (number of atoms + 1). For Im z > 0 exactly
one root lies in the physical half-plane (Im w < 0 for G_sigma, Im omega > 0),
so the density at x + i eta follows from polynomial roots alone, with no
Newton iteration and no continuation.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from rmtldp.dyson import CovarianceModel, SolverError, sigma_density
from rmtldp.measures import SpectralMeasure
from rmtldp.wigner import DeformedWignerModel, free_convolution_density


def _physical_root(coeffs, side):
    roots = P.polyroots(coeffs)
    return roots[np.argmax(side * roots.imag)]


def covariance_oracle(atoms, weights, alpha, z):
    """-Im G_sigma(z) / pi from the polynomial form of H(w) = z."""
    factors = [np.array([alpha, -u]) for u in atoms]  # alpha - w u
    prod = np.array([1.0])
    for f in factors:
        prod = P.polymul(prod, f)
    poly = P.polymul(np.array([-1.0, z]), prod)  # (w z - 1) prod
    for i, (u, p) in enumerate(zip(atoms, weights)):
        rest = np.array([1.0])
        for j, f in enumerate(factors):
            if j != i:
                rest = P.polymul(rest, f)
        poly = P.polysub(poly, P.polymul(np.array([0.0, p * alpha * u]), rest))
    return -_physical_root(poly, -1.0).imag / np.pi


def wigner_oracle(atoms, weights, z):
    """-Im G(z) / pi with G = z - omega, omega + G_mu(omega) = z."""
    prod = P.polyfromroots(atoms)
    poly = P.polymul(np.array([-z, 1.0]), prod)  # (omega - z) prod
    for i, p in enumerate(weights):
        poly = P.polyadd(poly, p * P.polyfromroots(np.delete(atoms, i)))
    return -(z - _physical_root(poly, 1.0)).imag / np.pi


def default_grid(model):
    """The density command's default window: the support +- 5%, 400 points."""
    edge = model.edge()
    window = model.window(edge)
    margin = 0.05 * (window.right - window.left)
    return edge, np.linspace(window.left - margin, window.right + margin, 400)


COVARIANCE = {
    "two-atom": ([1.0, 3.0], [0.5, 0.5], 2.0),
    "neg-wishart": ([-1.0], [1.0], 2.0),
    "wishart1": ([1.0], [1.0], 1.0),
}
WIGNER = {
    "point": ([0.0], [1.0]),
    "two-atom": ([-1.0, 1.0], [0.5, 0.5]),
}


@pytest.mark.parametrize("eta", [1e-4, 1e-6])
@pytest.mark.parametrize("name", sorted(COVARIANCE))
def test_sigma_density_matches_polynomial_roots(name, eta):
    atoms, weights, alpha = COVARIANCE[name]
    model = CovarianceModel(SpectralMeasure.from_atoms(atoms, weights), alpha)
    edge, xs = default_grid(model)
    got = sigma_density(model, xs, eta, edge)
    want = np.array([covariance_oracle(atoms, weights, alpha, x + 1j * eta) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("eta", [1e-4, 1e-6])
@pytest.mark.parametrize("name", sorted(WIGNER))
def test_free_convolution_density_matches_polynomial_roots(name, eta):
    atoms, weights = WIGNER[name]
    model = DeformedWignerModel(SpectralMeasure.from_atoms(atoms, weights))
    _, xs = default_grid(model)
    got = free_convolution_density(model, xs, eta)
    want = np.array([wigner_oracle(np.array(atoms), weights, x + 1j * eta) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("eta", [1e-4, 1e-7])
def test_sigma_density_relative_error_where_the_density_is_small(eta):
    """Outside the support the density is O(eta), and a residual of 1e-12
    alone would leave a relative error of about 1e-12/eta there; x = -3e-4
    sits beside sigma's atom at 0 (alpha < 1)."""
    atoms, weights, alpha = [0.101], [1.0], 0.3
    model = CovarianceModel(SpectralMeasure.from_atoms(atoms, weights), alpha)
    edge, xs = default_grid(model)
    xs = np.append(xs, -3e-4)
    got = sigma_density(model, xs, eta, edge)
    want = np.array([covariance_oracle(atoms, weights, alpha, x + 1j * eta) for x in xs])
    assert np.max(np.abs(got - want) / want) <= 1e-9


def test_unsolvable_point_raises_instead_of_returning(monkeypatch):
    """A NaN derivative leaves Newton no acceptable step: SolverError names
    the point, the height it stalled at and the residual."""
    model = CovarianceModel(SpectralMeasure.from_atoms([1.0, 3.0], [0.5, 0.5]), 2.0)
    edge = model.edge()
    real_prime = SpectralMeasure.stieltjes_prime

    def nan_off_axis(self, z):
        if np.iscomplexobj(z):
            return np.full(np.shape(z), np.nan, dtype=complex)
        return real_prime(self, z)

    monkeypatch.setattr(SpectralMeasure, "stieltjes_prime", nan_off_axis)
    with pytest.raises(SolverError, match=r"z=.*height.*residual"):
        sigma_density(model, np.linspace(0.0, 8.0, 50), 1e-4, edge)
