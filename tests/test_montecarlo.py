import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from rmtldp import montecarlo
from rmtldp.dyson import CovarianceModel
from rmtldp.measures import SpectralMeasure
from rmtldp.montecarlo import (
    build_gamma,
    distance_stats,
    edge_stats,
    sample_spectrum,
    tail_curve,
    write_samples_csv,
    write_spectra_sidecar,
)
from rmtldp.wigner import DeformedWignerModel


def wishart(alpha, sign=1.0, beta=1, law="gaussian"):
    return CovarianceModel(SpectralMeasure.point_mass(sign), alpha, beta, law)


def _former_draw_complex(rng, law, shape):
    """The former complex draw: two real arrays combined, then scaled."""
    if law == "complex_gaussian":
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
    else:
        re = rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
        im = rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    return (re + 1j * im) / math.sqrt(2.0)


class TestBuildGamma:
    def test_point_mass(self):
        np.testing.assert_array_equal(build_gamma(SpectralMeasure.point_mass(1.0), 5),
                                      np.ones(5))

    def test_uniform_midpoint_quantiles(self):
        d = build_gamma(SpectralMeasure.uniform(0.0, 1.0), 4)
        np.testing.assert_allclose(d, [0.125, 0.375, 0.625, 0.875], atol=1e-9)

    def test_two_atom_law(self):
        rho = SpectralMeasure.from_atoms([-1.0, 1.0], [0.5, 0.5])
        np.testing.assert_array_equal(build_gamma(rho, 4), [-1.0, -1.0, 1.0, 1.0])

    @pytest.mark.parametrize("make", [
        lambda: SpectralMeasure.uniform(0.0, 1.0),
        lambda: SpectralMeasure.semicircle(2.0, 1.0),
        lambda: SpectralMeasure.from_atoms([-2.0, 0.5], [0.25, 0.75]),
    ])
    def test_no_outliers(self, make):
        rho = make()
        d = build_gamma(rho, 37)
        lo, hi = rho.edges()
        assert d.min() >= lo - 1e-12 and d.max() <= hi + 1e-12


class TestSampleSpectrum:
    def test_zero_gamma_gives_zero_spectrum(self):
        model = CovarianceModel(SpectralMeasure.point_mass(0.0), 1.0)
        s = sample_spectrum(model, 20, seed=3)
        np.testing.assert_allclose(s.eigenvalues, 0.0, atol=1e-14)

    def test_rank_deficient_negative_model(self):
        s = sample_spectrum(wishart(0.5, sign=-1.0), 40, seed=1)
        assert abs(s.lambda_max) <= 1e-10
        assert s.m == 20

    def test_reproducible_bitwise(self):
        a = sample_spectrum(wishart(1.0), 30, seed=7, replica_index=4)
        b = sample_spectrum(wishart(1.0), 30, seed=7, replica_index=4)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)

    def test_replicas_differ(self):
        a = sample_spectrum(wishart(1.0), 30, seed=7, replica_index=0)
        b = sample_spectrum(wishart(1.0), 30, seed=7, replica_index=1)
        assert not np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_sorted_with_lambda_max_last(self):
        s = sample_spectrum(wishart(1.0), 25, seed=2)
        assert np.all(np.diff(s.eigenvalues) >= 0)
        assert s.lambda_max == s.eigenvalues[-1]

    def test_sign_flip_symmetry(self):
        plus = sample_spectrum(wishart(1.0), 30, seed=11)
        minus = sample_spectrum(CovarianceModel(SpectralMeasure.point_mass(-1.0), 1.0),
                                30, seed=11)
        np.testing.assert_allclose(minus.eigenvalues, -plus.eigenvalues[::-1], atol=1e-12)

    def test_complex_hermitian_case(self):
        model = wishart(1.0, beta=2, law="complex_gaussian")
        s = sample_spectrum(model, 30, seed=5)
        assert s.eigenvalues.dtype.kind == "f"
        assert np.all(np.diff(s.eigenvalues) >= 0)

    def test_hermitian_residual_small(self):
        from rmtldp.montecarlo import _covariance_matrix, _rng_for
        for law in ("complex_gaussian", "complex_rademacher"):
            model = wishart(1.0, beta=2, law=law)
            d = build_gamma(model.rho, model.rows(40))
            h = _covariance_matrix(model, 40, _rng_for(5, 0), d)
            assert np.array_equal(h, h.conj().T)

    @pytest.mark.parametrize("law,part", [("complex_gaussian", "gaussian"),
                                          ("complex_rademacher", "rademacher")])
    def test_complex_entries_are_uncorrelated_parts_in_stream_order(self, law, part):
        # a complex Wigner matrix with D = 0 keeps its entries' parts: the
        # stream holds the diagonal, then every real part of the upper
        # triangle, then every imaginary part, each part of variance 1/2
        n = 633
        model = DeformedWignerModel(SpectralMeasure.point_mass(0.0), 2, law)
        w = montecarlo._wigner_matrix(model, n, montecarlo._rng_for(0, 0), np.zeros(n))
        iu = np.triu_indices(n, 1)
        re, im = math.sqrt(n) * w.real[iu], math.sqrt(n) * w.imag[iu]
        assert re.size > 200000
        assert np.var(re) == pytest.approx(0.5, abs=5e-3)
        assert np.var(im) == pytest.approx(0.5, abs=5e-3)
        assert np.mean(re * im) == pytest.approx(0.0, abs=5e-3)
        stream = montecarlo._draw_real(montecarlo._rng_for(0, 0), part, n + 2 * re.size)
        np.testing.assert_allclose(math.sqrt(n) * w.real.diagonal(), stream[:n], rtol=1e-15)
        np.testing.assert_allclose(math.sqrt(2.0) * re, stream[n:n + re.size], rtol=1e-15)
        np.testing.assert_allclose(math.sqrt(2.0) * im, stream[n + re.size:], rtol=1e-15)
        np.testing.assert_array_equal(w, w.conj().T)

    def test_entry_cap_refused(self):
        with pytest.raises(ValueError):
            sample_spectrum(wishart(1.0), 7000, seed=0)

    def test_deformed_wigner_sample(self):
        model = DeformedWignerModel(SpectralMeasure.point_mass(0.0))
        s = sample_spectrum(model, 200, seed=9)
        # pure Wigner spectrum concentrates on [-2, 2]
        assert -2.5 < s.eigenvalues[0] and s.lambda_max < 2.5
        again = sample_spectrum(model, 200, seed=9)
        np.testing.assert_array_equal(s.eigenvalues, again.eigenvalues)

    def test_deformed_wigner_shift(self):
        model = DeformedWignerModel(SpectralMeasure.point_mass(5.0))
        s = sample_spectrum(model, 150, seed=9)
        assert abs(np.mean(s.eigenvalues) - 5.0) < 0.2

    @staticmethod
    def _former_wigner_matrix(model, n, rng, d):
        """The former build: a zero-filled upper triangle summed with its
        conjugate transpose, scaled, plus a dense diag(d)."""
        iu = np.triu_indices(n, 1)
        if model.beta == 1:
            diag_law, draw_off = model.entry_law, montecarlo._draw_real
        else:
            diag_law = "gaussian" if model.entry_law == "complex_gaussian" else "rademacher"
            draw_off = _former_draw_complex
        diag = montecarlo._draw_real(rng, diag_law, n)
        off = draw_off(rng, model.entry_law, len(iu[0]))
        w = np.zeros((n, n), dtype=off.dtype)
        w[iu] = off
        w = w + w.conj().T
        w[np.diag_indices(n)] = diag
        return w / np.sqrt(n) + np.diag(d)

    @pytest.mark.parametrize("beta,law", [
        (1, "gaussian"), (1, "rademacher"), (1, "uniform_sqrt3"),
        (2, "complex_gaussian"), (2, "complex_rademacher"),
    ])
    def test_wigner_matrix_equals_the_former_build_bit_for_bit(self, beta, law):
        model = DeformedWignerModel(SpectralMeasure.from_atoms([-1.0, 2.0], [0.5, 0.5]),
                                    beta, law)
        for n in (2, 3, 17):
            d = build_gamma(model.diagonal_law, n)
            for rep in range(10):
                got = montecarlo._wigner_matrix(model, n, montecarlo._rng_for(5, rep), d)
                want = self._former_wigner_matrix(model, n, montecarlo._rng_for(5, rep), d)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestCovarianceBuild:
    @staticmethod
    def _former_covariance_matrix(model, n, rng, d):
        """The former build: one general product z* (d z) / m, symmetrised."""
        m = model.rows(n)
        draw = montecarlo._draw_real if model.beta == 1 else _former_draw_complex
        z = draw(rng, model.entry_law, (m, n))
        h = z.conj().T @ (d[:, None] * z) / m
        return 0.5 * (h + h.conj().T)

    @pytest.mark.parametrize("atoms,weights,alpha,law", [
        ([-1.0, 2.0], [0.5, 0.5], 1.0, "gaussian"),           # both signs
        ([-1.0, 2.0], [0.5, 0.5], 2.5, "gaussian"),
        ([-1.0, 0.0, 1.0], [0.3, 0.2, 0.5], 2.0, "gaussian"),  # rows of d = 0
        ([0.0, 1.0], [0.5, 0.5], 0.5, "rademacher"),
        ([-1.0], [1.0], 0.5, "gaussian"),                      # all negative, m < n
        ([-2.0, -0.5], [0.5, 0.5], 0.7, "gaussian"),
        ([1.0], [1.0], 0.5, "rademacher"),
        ([1.0], [1.0], 2.0, "gaussian"),
        ([0.5, 3.0], [0.7, 0.3], 1.0, "uniform_sqrt3"),
        ([1.0], [1.0], 1.0, "complex_gaussian"),
        ([-1.0, 2.0], [0.5, 0.5], 0.5, "complex_gaussian"),
        ([-1.0, 0.0, 1.0], [0.3, 0.2, 0.5], 2.0, "complex_gaussian"),
        ([0.0, 1.0], [0.5, 0.5], 1.5, "complex_rademacher"),
        ([-1.0], [1.0], 0.5, "complex_gaussian"),
    ])
    def test_rank_k_build_matches_the_former_build(self, atoms, weights, alpha, law):
        # the rank-k products round differently from the general product; the
        # spectra agree within the stated 1e-14 max|lambda|
        beta = 2 if law.startswith("complex") else 1
        model = CovarianceModel(SpectralMeasure.from_atoms(atoms, weights), alpha, beta, law)
        for n in (2, 17, 200):
            d = build_gamma(model.rho, model.rows(n))
            for rep in range(3):
                h = montecarlo._covariance_matrix(model, n, montecarlo._rng_for(5, rep), d)
                assert np.array_equal(h, h.conj().T)
                got = np.linalg.eigvalsh(h)
                want = np.linalg.eigvalsh(
                    self._former_covariance_matrix(model, n, montecarlo._rng_for(5, rep), d))
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("beta,law", [(1, "gaussian"), (2, "complex_gaussian")])
    def test_zero_diagonal_gives_the_zero_matrix(self, beta, law):
        model = CovarianceModel(SpectralMeasure.point_mass(0.0), 1.0, beta, law)
        out = np.full((6, 6), np.nan, dtype=montecarlo._dtype(model))
        assert montecarlo._covariance_matrix(model, 6, montecarlo._rng_for(0, 0), np.zeros(6),
                                             out=out) is out
        np.testing.assert_array_equal(out, 0.0)


_BATCH_MODELS = {
    "real": CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0),
    "complex": CovarianceModel(SpectralMeasure.point_mass(1.0), 1.0, 2, "complex_gaussian"),
    "mixed-sign": CovarianceModel(SpectralMeasure.from_atoms([-1.0, 2.0], [0.5, 0.5]), 1.0),
    "deformed-wigner": DeformedWignerModel(SpectralMeasure.from_atoms([-1.0, 1.0], [0.5, 0.5])),
}

_TRACED_SIZES = [("real", 300), ("complex", 200), ("mixed-sign", 200), ("deformed-wigner", 200)]


class TestBatches:
    @pytest.mark.parametrize("threads", [None, 4])
    @pytest.mark.parametrize("name", list(_BATCH_MODELS))
    def test_one_matrix_budget_gives_the_same_bits(self, monkeypatch, name, threads):
        model, n = _BATCH_MODELS[name], 40
        default = edge_stats(model, n, 30, seed=6, threads=threads)
        itemsize = montecarlo._dtype(model).itemsize
        monkeypatch.setattr(montecarlo, "_BATCH_BYTES", n * n * itemsize)
        single = edge_stats(model, n, 30, seed=6, threads=threads)
        assert single.values.tobytes() == default.values.tobytes()

    @pytest.mark.parametrize("name,n,threads", [
        *(pytest.param(name, n, None, id=f"{name}-{n}") for name, n in _TRACED_SIZES),
        *(pytest.param(name, n, 2, id=f"{name}-{n}-threads2") for name, n in _TRACED_SIZES),
    ])
    def test_traced_peak_stays_within_the_byte_budget(self, name, n, threads):
        # per worker, one batch buffer of at most _BATCH_BYTES, plus the draw
        # and product temporaries of one replica: at most 3 n x n matrices
        # beyond the budget (peaks measured 0.70 to 0.95 of this bound; the
        # former build held 19 to 38 matrices beyond it)
        model = _BATCH_MODELS[name]
        itemsize = montecarlo._dtype(model).itemsize
        workers = threads or 1
        tracemalloc.start()
        try:
            edge_stats(model, n, 40, seed=1, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= workers * (montecarlo._BATCH_BYTES + 3 * n * n * itemsize)

    @pytest.mark.parametrize("threads", [None, 4])
    def test_batches_reuse_the_callers_buffers(self, monkeypatch, threads):
        model, n, replicas, per_batch = wishart(1.0), 40, 30, 3
        serial = edge_stats(model, n, replicas, seed=6)
        monkeypatch.setattr(montecarlo, "_BATCH_BYTES", per_batch * n * n * 8)
        received = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            # every batch is held, so a batch allocated afresh gets a new address
            received.append(a)
            time.sleep(0.005)  # keep the batch busy while the others are handed out
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        got = edge_stats(model, n, replicas, seed=6, threads=threads)
        batches = -(-replicas // per_batch)
        assert len(received) == batches
        buffers = {a.ctypes.data for a in received}
        assert len(buffers) <= (1 if threads is None else min(threads, batches))
        assert got.values.tobytes() == serial.values.tobytes()


class TestEdgeStats:
    def test_mp_edge_location(self):
        stats = edge_stats(wishart(1.0), 120, 50, seed=0)
        assert stats.mean_lambda_max == pytest.approx(4.0, rel=0.10)
        assert stats.sd > 0.0
        assert set(stats.quantiles) == {0.05, 0.25, 0.5, 0.75, 0.95}

    def test_threaded_matches_serial(self):
        a = edge_stats(wishart(1.0), 60, 16, seed=3)
        b = edge_stats(wishart(1.0), 60, 16, seed=3, threads=4)
        np.testing.assert_array_equal(a.values, b.values)

    def test_threads_share_the_eigensolves(self, monkeypatch):
        workers = set()
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            workers.add(threading.get_ident())
            time.sleep(0.01)  # keep the batch busy while the others are handed out
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        threaded = edge_stats(wishart(1.0), 60, 16, seed=3, threads=4)
        assert len(workers) >= 2
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        serial = edge_stats(wishart(1.0), 60, 16, seed=3)
        np.testing.assert_array_equal(threaded.values, serial.values)

    def test_wigner_matches_sample_spectrum(self):
        model = DeformedWignerModel(SpectralMeasure.from_atoms([-1.0, 1.0], [0.5, 0.5]))
        stats = edge_stats(model, 30, 5, seed=4, threads=2)
        singles = [sample_spectrum(model, 30, 4, rep).lambda_max for rep in range(5)]
        np.testing.assert_array_equal(stats.values, singles)

    def test_degenerate_model_trapped_at_zero(self):
        stats = edge_stats(wishart(0.5, sign=-1.0), 60, 20, seed=1)
        assert abs(stats.mean_lambda_max) <= 1e-10


class TestGammaBuiltOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        build = montecarlo.build_gamma
        monkeypatch.setattr(montecarlo, "build_gamma",
                            lambda rho, m: calls.append(m) or build(rho, m))
        return calls

    def test_edge_stats(self, calls):
        edge_stats(CovarianceModel(SpectralMeasure.uniform(0.0, 1.0), 0.5), 20, 30, seed=1)
        assert calls == [10]

    def test_tail_curve_once_per_size(self, calls):
        tail_curve(wishart(1.0), 4.3, [10, 16], 40, seed=2, threads=2)
        assert calls == [10, 16]


class TestDistanceStats:
    def test_ks_in_unit_interval(self):
        d = distance_stats(wishart(1.0), 150, seed=4)
        assert 0.0 <= d.d_ks <= 1.0
        assert d.w1 >= 0.0

    def test_mp1_moderate_size(self):
        d = distance_stats(wishart(1.0), 300, seed=4)
        assert d.d_ks <= 0.08

    def test_continuous_population_law_end_to_end(self):
        # semicircle population spectrum: the sampled eigenvalue distribution
        # must match the solved limit, tying together quantile diagonals,
        # the edge solver, and the limit-law solve
        from rmtldp.dyson import sigma_measure
        model = CovarianceModel(SpectralMeasure.semicircle(2.0, 1.0), 1.0)
        sigma = sigma_measure(model, 1500)
        d = distance_stats(model, 600, seed=8, sigma=sigma)
        assert d.d_ks <= 0.05
        assert d.w1 <= 0.05

    def test_larger_n_is_closer_in_median(self):
        from rmtldp.dyson import sigma_measure
        sigma = sigma_measure(wishart(1.0), 1200)
        small = np.median([distance_stats(wishart(1.0), 100, seed=0, replica_index=r,
                                          sigma=sigma).d_ks for r in range(9)])
        large = np.median([distance_stats(wishart(1.0), 400, seed=0, replica_index=r,
                                          sigma=sigma).d_ks for r in range(9)])
        assert large <= small


@pytest.mark.parametrize("replicas", [0, -1])
@pytest.mark.parametrize("entry", ["tail_curve", "edge_stats"])
def test_empty_replica_range_rejected(entry, replicas):
    with pytest.raises(ValueError, match=f"replicas must be at least 1, got {replicas}"):
        if entry == "tail_curve":
            tail_curve(wishart(1.0), 4.3, [20], replicas)
        else:
            edge_stats(wishart(1.0), 20, replicas)


class TestTailCurve:
    def test_bulk_event_rate_near_zero(self):
        pts = tail_curve(wishart(1.0), 3.5, [30], 200, seed=2)
        assert pts[0].estimate == pytest.approx(0.0, abs=0.02)

    @pytest.mark.slow
    def test_estimates_decrease_toward_rate(self):
        # frozen MC oracle values at seed 3, 20000 replicas; the asymptotic
        # rate at 4.3 is 0.026794 and the finite-size estimates approach it
        # from above (factor 2.5 at n = 80)
        from rmtldp.rate import rate
        target = rate(wishart(1.0), 4.3)
        pts = tail_curve(wishart(1.0), 4.3, [20, 40, 80], 20000, seed=3)
        ests = [p.estimate for p in pts]
        assert all(a > b for a, b in zip(ests, ests[1:]))
        assert all(e > target for e in ests)
        assert ests[-1] == pytest.approx(0.0662, rel=0.15)

    @pytest.mark.slow
    def test_complex_case_doubles_the_real_estimate(self):
        real_pts = tail_curve(wishart(1.0), 4.3, [40], 40000, seed=3)
        complex_model = wishart(1.0, beta=2, law="complex_gaussian")
        cplx_pts = tail_curve(complex_model, 4.3, [40], 40000, seed=3)
        ratio = cplx_pts[0].estimate / real_pts[0].estimate
        assert ratio == pytest.approx(2.0, rel=0.30)

    def test_estimates_have_intervals(self):
        pts = tail_curve(wishart(1.0), 4.3, [20, 40], 400, seed=2)
        for p in pts:
            if not p.is_lower_bound:
                assert p.lower <= p.estimate <= p.upper

    def test_zero_hits_reports_lower_bound(self):
        pts = tail_curve(wishart(1.0), 12.0, [40], 50, seed=2)
        assert pts[0].is_lower_bound
        assert pts[0].hits == 0


class TestWriters:
    def test_csv_layout(self, tmp_path):
        samples = [sample_spectrum(wishart(1.0), 10, seed=0, replica_index=r) for r in range(3)]
        path = tmp_path / "mc.csv"
        with open(path, "w") as fh:
            write_samples_csv(samples, fh)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "replica,n,m,lambda_max"
        assert len(lines) == 4
        assert lines[1].startswith("0,10,10,")

    def test_sidecar_is_little_endian_rows(self, tmp_path):
        samples = [sample_spectrum(wishart(1.0), 8, seed=0, replica_index=r) for r in range(2)]
        path = tmp_path / "spectra.bin"
        with open(path, "wb") as fh:
            write_spectra_sidecar(samples, fh)
        raw = np.frombuffer(path.read_bytes(), dtype="<f8").reshape(2, 8)
        np.testing.assert_array_equal(raw[1], samples[1].eigenvalues)
