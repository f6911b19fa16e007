"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with pytest -s) and enforcing its runtime budget."""

import functools
import math
import time

import numpy as np
import pytest

from rmtldp.dyson import (
    CovarianceModel,
    detect_degenerate,
    edge_solve,
    g_bar_sigma,
    sigma_density,
    sigma_measure,
)
from rmtldp.measures import SpectralMeasure
from rmtldp.montecarlo import distance_stats, edge_stats, sample_spectrum
from rmtldp.rate import approx_sweep, rate, rate_table, rate_variational
from rmtldp.wigner import DeformedWignerModel, dw_rate, free_convolution_density


def criterion(number, description, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({description}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number:2d} ({description}): PASS [{elapsed:.2f}s]")
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
            )
        return wrapper
    return decorate


def wishart(alpha, sign=1.0, beta=1, law="gaussian"):
    return CovarianceModel(SpectralMeasure.point_mass(sign), alpha, beta, law)


def semicircle_model():
    return CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), 1.0)


def mp1_rate_oracle(x):
    t = math.sqrt(1.0 - 4.0 / x)
    return 2.0 * t / (1.0 - t * t) - 2.0 * math.atanh(t)


def mp1_density_oracle(x):
    return math.sqrt(max((4.0 - x) * x, 0.0)) / (2.0 * math.pi * x)


def wigner_rate_oracle(x):
    s = math.sqrt(x * x - 4.0)
    return 0.5 * (0.5 * x * s - 2.0 * math.log(0.5 * (x + s)))


@criterion(1, "Wishart edge", 1.0)
def test_criterion_01_wishart_edges():
    for alpha in (0.5, 1.0, 2.0):
        edge = edge_solve(wishart(alpha))
        oracle = (1.0 + 1.0 / math.sqrt(alpha)) ** 2
        assert edge.r_sigma == pytest.approx(oracle, abs=1e-8)
    assert edge_solve(wishart(1.0)).theta_c == pytest.approx(0.5, abs=1e-8)


@criterion(2, "negative Wishart edge", 1.0)
def test_criterion_02_negative_wishart_edge():
    edge = edge_solve(wishart(2.0, sign=-1.0))
    assert edge.r_sigma == pytest.approx(-((1.0 - 1.0 / math.sqrt(2.0)) ** 2), abs=1e-8)
    assert edge.theta_c == pytest.approx(2.0 * (1.0 + math.sqrt(2.0)), abs=1e-8)


@criterion(3, "rate closed form and beta scaling", 5.0)
def test_criterion_03_rate_closed_form():
    model = wishart(1.0)
    model2 = wishart(1.0, beta=2, law="complex_gaussian")
    for x in (4.5, 5.0, 6.0, 10.0):
        value = rate(model, x)
        assert value == pytest.approx(mp1_rate_oracle(x), abs=1e-6)
        assert rate(model2, x) == pytest.approx(2.0 * value, rel=1e-12)


@criterion(4, "variational identity", 30.0)
def test_criterion_04_variational_identity():
    for model, x_points in (
        (wishart(1.0), np.linspace(4.2, 9.0, 10)),
        (wishart(2.0, sign=-1.0), np.linspace(-0.08, -0.008, 10)),
    ):
        sigma = sigma_measure(model, 2000)
        for x in x_points:
            primal = rate(model, x)
            varia = rate_variational(model, x, sigma)
            assert abs(primal - varia) <= 2e-3, (model, x, primal, varia)


@criterion(5, "finite threshold model", 30.0)
def test_criterion_05_finite_threshold():
    model = semicircle_model()
    tmax, x_c = model.edge.theta_max, model.edge.x_c
    assert tmax == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert x_c == pytest.approx(18.0, abs=1e-4)
    for x in (18.0, 20.0, 25.0, 100.0):
        assert g_bar_sigma(model, x) == tmax  # exact cap
    table = rate_table(model, 25.0, 400)
    assert table.x_grid[0] < 18.0 < table.x_grid[-1]
    assert np.min(np.diff(table.i_values, 2)) >= -1e-9
    # continuity of the branch gap across the threshold
    from rmtldp.dyson import g_sigma
    below = g_bar_sigma(model, 18.0 - 1e-7) - g_sigma(model, 18.0 - 1e-7)
    above = g_bar_sigma(model, 18.0 + 1e-7) - g_sigma(model, 18.0 + 1e-7)
    assert abs(below - above) < 1e-5


@criterion(6, "edge truncation approximation", 120.0)
def test_criterion_06_truncation_sweep():
    model = semicircle_model()
    edge = edge_solve(model)
    xs = np.linspace(edge.r_sigma + 0.5, 25.0, 43)
    sweep = approx_sweep(model, [0.4, 0.2, 0.1, 0.05], xs)
    # approx_sweep already asserts pointwise domination and monotone edges;
    # eps values are reported ascending
    assert np.all(np.diff(sweep.r_sigma_eps) >= 0.0)
    assert np.all(np.diff(sweep.sup_error) > 0.0)  # strictly decreasing along descending eps
    # convergence of the truncated edge at the smallest eps, relative scale
    gap = sweep.r_sigma_eps[0] - edge.r_sigma
    assert 0.0 <= gap <= 1e-3 * max(1.0, abs(edge.r_sigma))


@criterion(7, "asymptotic slope", 10.0)
def test_criterion_07_asymptotic_slope():
    for alpha in (1.0, 2.0):
        model = wishart(alpha)
        edge = edge_solve(model)
        x = 200.0 * max(1.0, edge.r_sigma)
        assert rate(model, x) / x == pytest.approx(edge.theta_max / 2.0, rel=0.05)


@criterion(8, "degenerate trapping", 60.0)
def test_criterion_08_degenerate_trapping():
    model = wishart(0.5, sign=-1.0)
    assert detect_degenerate(model) is True
    for rep in range(100):
        sample = sample_spectrum(model, 200, seed=81, replica_index=rep)
        assert abs(sample.lambda_max) <= 1e-10


@criterion(9, "deformed Wigner reduction", 10.0)
def test_criterion_09_wigner_reduction():
    model = DeformedWignerModel(SpectralMeasure.point_mass(0.0))
    assert dw_rate(model, 3.0) == pytest.approx(0.7146273, abs=1e-6)
    for x in np.linspace(2.0, 6.0, 9):
        oracle = 0.0 if x <= 2.0 else wigner_rate_oracle(x)
        assert dw_rate(model, x) == pytest.approx(oracle, abs=1e-6)
    x = 50.0
    assert dw_rate(model, x) / (x * x / 4.0) == pytest.approx(1.0, rel=0.05)


@criterion(10, "spectral densities", 30.0)
def test_criterion_10_spectral_densities():
    model = wishart(1.0)
    xs = np.linspace(0.2, 3.8, 73)
    vals = sigma_density(model, xs, 1e-4)
    oracle = np.array([mp1_density_oracle(x) for x in xs])
    assert np.max(np.abs(vals - oracle)) <= 1e-3
    dw = DeformedWignerModel(SpectralMeasure.point_mass(0.0))
    ys = np.linspace(-1.8, 1.8, 73)
    dens = free_convolution_density(dw, ys, 1e-4)
    sc = np.sqrt(4.0 - ys * ys) / (2.0 * math.pi)
    assert np.max(np.abs(dens - sc)) <= 1e-3


@criterion(11, "Monte Carlo edge and universality", 300.0)
def test_criterion_11_mc_edge_universality():
    gaussian = edge_stats(wishart(1.0), 200, 100, seed=11)
    assert gaussian.mean_lambda_max == pytest.approx(4.0, rel=0.08)
    for law in ("rademacher", "uniform_sqrt3"):
        stats = edge_stats(wishart(1.0, law=law), 200, 100, seed=11)
        assert stats.mean_lambda_max == pytest.approx(gaussian.mean_lambda_max, rel=0.02)


@pytest.mark.slow
@criterion(12, "Monte Carlo distribution distance", 600.0)
def test_criterion_12_mc_distribution():
    model = wishart(1.0)
    sigma = sigma_measure(model, 2000)
    ks_500 = np.median([distance_stats(model, 500, seed=5, replica_index=r, sigma=sigma).d_ks
                        for r in range(20)])
    assert ks_500 <= 0.06
    ks_2000 = np.median([distance_stats(model, 2000, seed=5, replica_index=r, sigma=sigma).d_ks
                         for r in range(20)])
    assert ks_2000 <= ks_500
