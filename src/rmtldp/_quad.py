"""Fixed quadrature rules shared by the measure transforms."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre_on(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to [a, b]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def sqrt_adapted_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on [a, b] accurate for integrands with square-root-type
    endpoint behavior (vanishing or inverse-square-root blowup).

    The interval is split at its midpoint and each half is mapped through
    u = a + s*s (resp. u = b - s*s), which removes half-integer endpoint
    singularities; an n//2-point Gauss-Legendre rule is applied per half.
    Returns sorted nodes strictly inside (a, b) and positive weights whose
    sums reproduce plain integrals of smooth and sqrt-singular densities.
    The ends must be finite with a < b, which the measures check first.
    """
    nh = max(n // 2, 4)
    mid = 0.5 * (a + b)
    smax = np.sqrt(mid - a)
    s, w = gauss_legendre_on(0.0, smax, nh)
    left_x = a + s * s
    left_w = 2.0 * s * w
    s, w = gauss_legendre_on(0.0, np.sqrt(b - mid), nh)
    right_x = b - s * s
    right_w = 2.0 * s * w
    x = np.concatenate([left_x, right_x[::-1]])
    wts = np.concatenate([left_w, right_w[::-1]])
    order = np.argsort(x)
    return x[order], wts[order]
