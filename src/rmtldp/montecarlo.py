"""Finite-size sampling of the covariance and deformed-Wigner ensembles with
reproducible counter-based randomness, plus edge statistics, distribution
distances against the limiting measure, and tail-probability curves."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dyson import sigma_measure
from .measures import SpectralMeasure

__all__ = [
    "SpectrumSample",
    "EdgeStats",
    "DistanceStats",
    "TailPoint",
    "build_gamma",
    "sample_spectrum",
    "edge_stats",
    "distance_stats",
    "tail_curve",
    "write_samples_csv",
    "write_spectra_sidecar",
]

_MAX_ENTRIES = 4 * 10**7
_BATCH_ENTRIES = 2 * 10**6  # matrix entries diagonalized per stacked batch
_SQRT3 = math.sqrt(3.0)
_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class SpectrumSample:
    """One draw: the full sorted spectrum and its provenance."""

    n: int
    m: int
    eigenvalues: np.ndarray
    lambda_max: float
    seed: int
    replica_index: int


@dataclass(frozen=True)
class EdgeStats:
    mean_lambda_max: float
    sd: float
    quantiles: dict
    values: np.ndarray


@dataclass(frozen=True)
class DistanceStats:
    d_ks: float
    w1: float


@dataclass(frozen=True)
class TailPoint:
    n: int
    replicas: int
    hits: int
    estimate: float
    lower: float
    upper: float
    is_lower_bound: bool


def build_gamma(rho: SpectralMeasure, m: int) -> np.ndarray:
    """Deterministic diagonal of size m: quantiles of rho at (i - 1/2)/m.

    By construction the entries lie inside [l(rho), r(rho)], so the matrix
    sequence carries no outliers at any finite size.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m!r}")
    qs = (np.arange(m) + 0.5) / m
    d = np.asarray(rho.quantile(qs), dtype=float).reshape(m)
    return np.sort(d)


def _rng_for(seed: int, replica_index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, replica_index & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_real(rng: np.random.Generator, law: str, shape) -> np.ndarray:
    if law == "gaussian":
        return rng.standard_normal(shape)
    if law == "rademacher":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    if law == "uniform_sqrt3":
        return rng.uniform(-_SQRT3, _SQRT3, size=shape)
    raise ValueError(f"not a real entry law: {law!r}")


def _draw_complex(rng: np.random.Generator, law: str, shape) -> np.ndarray:
    # real and imaginary parts each of variance 1/2, uncorrelated
    if law == "complex_gaussian":
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        return (re + 1j * im) / math.sqrt(2.0)
    if law == "complex_rademacher":
        re = rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
        im = rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
        return (re + 1j * im) / math.sqrt(2.0)
    raise ValueError(f"not a complex entry law: {law!r}")


def _covariance_matrix(model, n: int, rng, d: np.ndarray | None = None
                       ) -> tuple[np.ndarray, int]:
    m = model.rows(n)
    if d is None:
        d = build_gamma(model.rho, m)
    draw = _draw_real if model.beta == 1 else _draw_complex
    z = draw(rng, model.entry_law, (m, n))
    # conj() returns a real array itself, so one expression serves both classes
    h = z.conj().T @ (d[:, None] * z) / m
    return 0.5 * (h + h.conj().T), m


def _wigner_matrix(model, n: int, rng, d: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(n, 1)
    if model.beta == 1:
        diag_law, draw_off = model.entry_law, _draw_real
    else:
        diag_law = "gaussian" if model.entry_law == "complex_gaussian" else "rademacher"
        draw_off = _draw_complex
    diag = _draw_real(rng, diag_law, n)
    off = draw_off(rng, model.entry_law, len(iu[0]))
    w = np.zeros((n, n), dtype=off.dtype)
    w[iu] = off
    w = w + w.conj().T
    w[np.diag_indices(n)] = diag
    return w / math.sqrt(n) + np.diag(d)


def _sample(model, n: int, seed: int, reps: range,
            threads: int | None = None) -> list[SpectrumSample]:
    """Full spectra of the replicas in ``reps``, in order: the one sampling
    path of every Monte Carlo function, for either model kind.

    The diagonal is built once per call. Each replica draws from its own
    counter-based stream, so results do not depend on how the replicas are
    split into batches or on ``threads``; batches are sized so that each of
    up to ``threads`` workers diagonalizes at least one stacked batch.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    m = model.rows(n)
    if m < 1:
        raise ValueError(f"alpha * n rounds to {m!r}; need at least one row")
    if n * m > _MAX_ENTRIES:
        raise ValueError(f"sample of {n * m} entries exceeds the {_MAX_ENTRIES} cap")
    d = build_gamma(model.diagonal_law, m)
    workers = threads if threads and threads > 1 else 1
    batch = max(1, min(_BATCH_ENTRIES // (n * n), -(-len(reps) // workers)))
    spectra = np.empty((len(reps), n))

    def run_batch(start: int) -> None:
        stop = min(start + batch, len(reps))
        mats = np.empty((stop - start, n, n), dtype=complex if model.beta == 2 else float)
        for i, rep in enumerate(reps[start:stop]):
            mats[i] = model.draw(_rng_for(seed, rep), n, d)
        spectra[start:stop] = np.linalg.eigvalsh(mats)

    starts = range(0, len(reps), batch)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_batch, starts))
    else:
        for start in starts:
            run_batch(start)
    return [SpectrumSample(n=n, m=m, eigenvalues=eigs, lambda_max=float(eigs[-1]),
                           seed=seed, replica_index=rep)
            for rep, eigs in zip(reps, spectra)]


def sample_spectrum(model, n: int, seed: int = 0, replica_index: int = 0) -> SpectrumSample:
    """Eigenvalues of one finite-size draw, a deterministic function of
    (seed, replica_index) through a counter-based generator."""
    return _sample(model, n, seed, range(replica_index, replica_index + 1))[0]


def edge_stats(model, n: int, replicas: int, seed: int = 0,
               threads: int | None = None) -> EdgeStats:
    """Summary statistics of the largest eigenvalue over independent replicas."""
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas!r}")
    samples = _sample(model, n, seed, range(replicas), threads)
    values = np.array([s.lambda_max for s in samples])
    quantiles = {q: float(np.quantile(values, q)) for q in _QUANTILE_LEVELS}
    return EdgeStats(mean_lambda_max=float(values.mean()),
                     sd=float(values.std(ddof=1)) if replicas > 1 else 0.0,
                     quantiles=quantiles, values=values)


def distance_stats(model, n: int, seed: int = 0, replica_index: int = 0,
                   sigma: SpectralMeasure | None = None) -> DistanceStats:
    """Kolmogorov-Smirnov and Wasserstein-1 distances between one sampled
    empirical spectral measure and the limiting measure's grid CDF."""
    if sigma is None:
        sigma = sigma_measure(model)
    sample = sample_spectrum(model, n, seed, replica_index)
    eigs = sample.eigenvalues
    f_sigma = np.asarray(sigma.cdf(eigs))
    steps = np.arange(1, n + 1) / n
    d_ks = float(np.max(np.maximum(np.abs(steps - f_sigma), np.abs(steps - 1.0 / n - f_sigma))))

    lo = min(eigs[0], sigma.left_edge)
    hi = max(eigs[-1], sigma.right_edge)
    grid = np.union1d(eigs, np.linspace(lo, hi, 4 * n))
    mids = 0.5 * (grid[1:] + grid[:-1])
    f_emp = np.searchsorted(eigs, mids, side="right") / n
    f_sig = np.asarray(sigma.cdf(mids))
    w1 = float(np.sum(np.abs(f_emp - f_sig) * np.diff(grid)))
    return DistanceStats(d_ks=d_ks, w1=w1)


def _wilson_interval(hits: int, total: int, z: float = 1.959963984540054):
    phat = hits / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / total + z * z / (4 * total * total)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def tail_curve(model, x: float, n_list, replicas: int, seed: int = 0,
               threads: int | None = None) -> list[TailPoint]:
    """Per-size estimates of -(1/n) log P(lambda_max >= x) with binomial
    confidence intervals; sizes with zero hits report a lower bound."""
    points = []
    for n in n_list:
        values = np.array([s.lambda_max
                           for s in _sample(model, int(n), seed, range(replicas), threads)])
        hits = int(np.sum(values >= x))
        p_lo, p_hi = _wilson_interval(hits, replicas)
        if hits == 0:
            bound = -math.log(1.0 / (replicas + 1.0)) / n
            points.append(TailPoint(int(n), replicas, 0, bound, bound, math.inf, True))
            continue
        est = -math.log(hits / replicas) / n
        lower = -math.log(p_hi) / n
        upper = -math.log(p_lo) / n if p_lo > 0.0 else math.inf
        points.append(TailPoint(int(n), replicas, hits, est, lower, upper, False))
    return points


def write_samples_csv(samples, stream) -> None:
    stream.write("replica,n,m,lambda_max\n")
    for s in samples:
        stream.write(f"{s.replica_index},{s.n},{s.m},{s.lambda_max:.17g}\n")


def write_spectra_sidecar(samples, stream) -> None:
    """Full spectra as little-endian 64-bit floats, one row per replica."""
    for s in samples:
        stream.write(np.asarray(s.eigenvalues, dtype="<f8").tobytes())
