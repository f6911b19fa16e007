"""Finite-size sampling of the covariance and deformed-Wigner ensembles with
reproducible counter-based randomness, plus edge statistics, distribution
distances against the limiting measure, and tail-probability curves."""

from __future__ import annotations

import functools
import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dyson import _GAUSSIAN_LAWS, CovarianceModel, sigma_measure
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
# bytes of matrices one worker holds for a stacked eigvalsh call: 4 MiB is
# 13 real or 6 complex matrices at n = 200, and one real matrix from n = 513.
# Batches stay for threads > 1: per-replica eigvalsh calls give the same bits,
# but with 2 workers they were 48% (complex) and 71% (Rademacher) slower at
# n = 200, and a budget of one matrix per batch made 2 workers no faster than
# 1 (2-core host, one BLAS thread); serially the batch size moves the time by
# -1% to +10%
_BATCH_BYTES = 4 * 2**20
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
        signs = np.multiply(rng.integers(0, 2, size=shape), 2.0)
        signs -= 1.0
        return signs
    if law == "uniform_sqrt3":
        return rng.uniform(-_SQRT3, _SQRT3, size=shape)
    raise ValueError(f"not a real entry law: {law!r}")


# the real law of each part of a complex entry law; a real law is its own part
_COMPLEX_PARTS = {"complex_gaussian": "gaussian", "complex_rademacher": "rademacher"}


def _part_law(model) -> str:
    """The real law of each part of the model's entries: a complex entry is
    (re + i im)/sqrt(2) with re and im drawn from it."""
    return _COMPLEX_PARTS.get(model.entry_law, model.entry_law)


def _dtype(model) -> np.dtype:
    return np.dtype(complex if model.beta == 2 else float)


def _covariance_matrix(model, n: int, rng, d: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """(1/m) Z* diag(d) Z, written into ``out`` (a new array if None).

    One rank-k build for both beta. With Z = (X + iY)/sqrt(2) (Z = X for
    real entries) and the rows of the parts scaled by sqrt(|d|/(beta m)),
    the real part is one symmetric rank-k product (BLAS syrk) per sign block
    of the sorted d on the stacked parts [X; Y], and the imaginary part is
    C - C^T with C = X+^T Y+ - X-^T Y- over the sign blocks. So every sample
    is exactly symmetric or Hermitian. Its spectrum agrees with that of the
    symmetrised general product within 1e-14 max|lambda| in the tests (the
    complex cases differed by up to 8.2e-15 max|lambda|).
    """
    m = model.rows(n)
    out = np.empty((n, n), _dtype(model)) if out is None else out
    # [X] or [X; Y]: every real part, then every imaginary part
    parts = _draw_real(rng, _part_law(model), (model.beta, m, n))
    parts *= np.sqrt(np.abs(d) / (model.beta * m))[:, None]
    neg, pos = parts[:, :np.searchsorted(d, 0.0)], parts[:, np.searchsorted(d, 0.0, "right"):]
    re = out if model.beta == 1 else np.empty((n, n))
    # stacking copies the parts of a block only when d has both signs or zeros
    stacked_neg, stacked_pos = neg.reshape(-1, n), pos.reshape(-1, n)
    if len(stacked_pos):
        np.matmul(stacked_pos.T, stacked_pos, out=re)
        if len(stacked_neg):
            re -= stacked_neg.T @ stacked_neg
    elif len(stacked_neg):
        np.negative(np.matmul(stacked_neg.T, stacked_neg, out=re), out=re)
    else:
        re.fill(0.0)
    if model.beta == 2:
        out.real = re
        np.matmul(pos[0].T, pos[1], out=re)  # re holds C
        if neg.shape[1]:
            re -= neg[0].T @ neg[1]
        np.subtract(re, re.T, out=out.imag)
    return out


@functools.lru_cache(maxsize=1)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (row, column) indices of the strict upper triangle of an n x n
    matrix, read-only. Only the last size is kept: the replicas of one
    ``_sample`` call share n, so the call builds them once."""
    iu = np.triu_indices(n, 1)
    for index in iu:
        index.setflags(write=False)
    return iu


def _wigner_matrix(model, n: int, rng, d: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """W / sqrt(n) + diag(d), written into ``out`` (a new array if None).

    W's diagonal is one real draw of the part law, followed by every real
    part of its upper triangle, then every imaginary part. Real parts are
    divided by sqrt(n); complex ones are multiplied by 1/sqrt(2), then by
    1/sqrt(n), which is how numpy divides a complex array by a real
    scalar."""
    iu = _upper_triangle(n)
    law = _part_law(model)
    diag = _draw_real(rng, law, n)
    off = _draw_real(rng, law, (model.beta, len(iu[0])))
    w = np.empty((n, n), _dtype(model)) if out is None else out
    if model.beta == 1:
        diag /= math.sqrt(n)
        off /= math.sqrt(n)
    else:
        diag *= 1.0 / math.sqrt(n)
        off *= 1.0 / math.sqrt(2.0)
        off *= 1.0 / math.sqrt(n)
    parts = (w,) if model.beta == 1 else (w.real, w.imag)
    for part, x in zip(parts, off):
        part[iu] = x
    np.negative(off[1:], out=off[1:])  # the lower triangle is the conjugate
    for part, x in zip(parts, off):
        part[iu[1], iu[0]] = x
    w[np.diag_indices(n)] = diag + d
    return w


def _laguerre_matrix(model, n: int, rng, d: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """c/(beta m) B^T B for d = c (1, ..., 1), written into ``out`` (a new
    array if None): a real tridiagonal matrix with the law of
    (c/m) Z* Z for Gaussian Z of either beta (Dumitriu and Edelman 2002).

    With k = min(n, m) and K = max(n, m), the upper bidiagonal B has
    B_ii^2 ~ chi^2 with beta (K - i + 1) degrees of freedom, i = 1..k, then
    B_{i,i+1}^2 ~ chi^2 with beta (k - i), i = 1..k-1, drawn in that order.
    B^T B has diagonal B_ii^2 + B_{i-1,i}^2 and off-diagonal B_ii B_{i,i+1},
    written to both sides, so the sample is exactly symmetric. The last
    n - k rows and columns are zero: the n - m zero eigenvalues of m < n.
    """
    m = model.rows(n)
    k, big = min(n, m), max(n, m)
    squares = rng.chisquare(model.beta * np.concatenate(
        [np.arange(big, big - k, -1.0), np.arange(k - 1, 0, -1.0)]))
    diag, sup = squares[:k], squares[k:]
    scale = d[0] / (model.beta * m)
    off = np.sqrt(diag[:-1] * sup) * scale
    diag[1:] += sup
    diag *= scale
    if out is None:
        out = np.zeros((n, n))
    else:
        out.fill(0.0)
    i = np.arange(k)
    out[i, i] = diag
    out[i[:-1], i[1:]] = off
    out[i[1:], i[:-1]] = off
    return out


def _builder(model, d: np.ndarray):
    """The per-replica build of ``model`` on the diagonal ``d``, and the
    dtype of its matrices. A covariance model with Gaussian entries and
    Gamma = c I takes the tridiagonal build; every other model the dense
    one of its kind."""
    if not isinstance(model, CovarianceModel):
        return _wigner_matrix, _dtype(model)
    if model.entry_law in _GAUSSIAN_LAWS and d[0] == d[-1]:
        return _laguerre_matrix, np.dtype(float)
    return _covariance_matrix, _dtype(model)


def _sample(model, n: int, seed: int, reps: range,
            threads: int | None = None) -> list[SpectrumSample]:
    """Full spectra of the replicas in ``reps``, in order: the one sampling
    path of every Monte Carlo function, for either model kind.

    A covariance model with Gaussian entries and a constant diagonal
    (Gamma = c I, for either beta) is sampled from its real tridiagonal
    Laguerre model (``_laguerre_matrix``): its spectra equal the dense
    build's in law, not bit for bit. Every other model keeps its dense
    build. Non-Gaussian entries are the universality case, whose law the
    tridiagonal model does not have at finite size; ``_wigner_matrix``
    draws its diagonal with variance 1, not the 2/beta of the Hermite
    model, so no tridiagonal model has a deformed-Wigner sample's law.

    The diagonal is built once per call. Each replica draws from its own
    counter-based stream and is written straight into its slot of a stacked
    batch, so results do not depend on how the replicas are split into
    batches or on ``threads``. A batch holds at most ``_BATCH_BYTES`` of
    matrices (at least one matrix), and up to ``threads`` workers each
    diagonalize at least one batch.

    The calling thread allocates the batch buffers once per call, one per
    worker (no more than there are batches), before any worker starts; a
    batch takes a free buffer from a queue and puts it back when its
    spectra are stored. No worker thread allocates a batch, so no freed
    batch stays resident in a worker's malloc arena after the call.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    if not reps:
        raise ValueError(f"replicas must be at least 1, got {reps.stop - reps.start!r}")
    m = model.rows(n)
    if m < 1:
        raise ValueError(f"alpha * n rounds to {m!r}; need at least one row")
    if n * m > _MAX_ENTRIES:
        raise ValueError(f"sample of {n * m} entries exceeds the {_MAX_ENTRIES} cap")
    d = build_gamma(model.diagonal_law, m)
    build, dtype = _builder(model, d)
    workers = threads if threads and threads > 1 else 1
    batch = max(1, min(_BATCH_BYTES // (n * n * dtype.itemsize), -(-len(reps) // workers)))
    starts = range(0, len(reps), batch)
    spectra = np.empty((len(reps), n))
    buffers = queue.SimpleQueue()
    for _ in range(min(workers, len(starts))):
        buffers.put(np.empty((batch, n, n), dtype=dtype))

    def run_batch(start: int) -> None:
        stop = min(start + batch, len(reps))
        mats = buffers.get()
        try:
            for slot, rep in zip(mats, reps[start:stop]):
                build(model, n, _rng_for(seed, rep), d, slot)
            spectra[start:stop] = np.linalg.eigvalsh(mats[:stop - start])
        finally:
            buffers.put(mats)

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
    (seed, replica_index) through a counter-based generator.

    A covariance model with Gaussian entries and Gamma = c I is drawn from
    its real tridiagonal Laguerre model, equal to the dense build in law,
    not bit for bit; non-Gaussian entries (the universality case) and
    deformed-Wigner models, whose diagonal has variance 1 rather than the
    Hermite model's 2/beta, keep the dense build (see ``_sample``)."""
    return _sample(model, n, seed, range(replica_index, replica_index + 1))[0]


def edge_stats(model, n: int, replicas: int, seed: int = 0,
               threads: int | None = None) -> EdgeStats:
    """Summary statistics of the largest eigenvalue over independent replicas."""
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
