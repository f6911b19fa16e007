"""The models' functions of theta (covariance) and y (deformed Wigner), as
the tests evaluate them: H(theta) on the level curve and summed directly
over rho, the deformed-Wigner H(y) = y + K(y) with its cap, and the optimal
shift of the J functional. The library solves all of them on the level
curve x(lam) (``model.curve()``) and keeps theta_max and x_c on
``model.edge``."""

import numpy as np

from rmtldp.dyson import _g_at_right_edge
from rmtldp.rate import _inverse_stieltjes


def h_curve(model, theta):
    """H(theta) = x(alpha'/theta) on the level curve of a covariance model,
    alpha' of its reduced pair."""
    return model.curve()(model.reduced[1] / theta)[0]


def h_direct(model, theta):
    """H(theta) = 1/theta + integral of alpha u/(alpha - theta u) d rho(u),
    summed over the atoms and quadrature nodes of rho."""
    a = model.alpha
    return 1.0 / theta + model.rho.integrate(lambda u: a * u / (a - theta * np.asarray(u)))


def dw_h(model, y):
    """H(y) = y + K(y) of a deformed-Wigner model, K the inverse of G_mu on
    (0, G_mu(r(mu))), continued as y + r(mu) from G_mu(r(mu)) on."""
    mu = model.mu_d
    if y >= _g_at_right_edge(mu):
        return y + mu.right_edge
    return y + _inverse_stieltjes(mu, y)


def j_shift(mu, theta, lam):
    """The optimal shift v of J(mu, theta, lam) at a scalar theta > 0:
    lam - 1/(2 theta) where G_mu(lam) <= 2 theta, else K(2 theta) -
    1/(2 theta)."""
    k = lam if mu.stieltjes(lam) <= 2.0 * theta else _inverse_stieltjes(mu, 2.0 * theta, lam)
    return k - 0.5 / theta
