"""Job execution through the library's public entry points, and the
per-job correctness checks.

Every job returns the bytes it emitted: the file a CLI command wrote, or a
fixed-format rendering of an in-process result. The checks read those bytes
back, so a check sees exactly what a user of the command would see. The
tolerances are the acceptance tolerances of the test suite; where a job has
no acceptance oracle, the check enforces the invariants the unit tests assert.
"""

from __future__ import annotations

import math
import os
import statistics

import numpy as np

from workloads import Job

# the deformed-Wigner sampling sanity check and the Wishart edge criterion
# share the acceptance suite's 8% tolerance on the mean largest eigenvalue
_EDGE_REL = 0.08


class CheckFailed(Exception):
    """A job's output violates an oracle or invariant."""


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _rows(data: bytes) -> tuple[list[str], np.ndarray]:
    lines = data.decode().strip().splitlines()
    header = lines[0].split(",")
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float)
    return header, values.reshape(len(lines) - 1, len(header))


class Runner:
    """Runs jobs against one imported copy of the library.

    ``cli`` and ``api`` are the imported ``rmtldp.cli`` module and the
    ``rmtldp`` package; both are looked up at call time, so functions a
    tracer rebinds on them are the ones called.
    """

    def __init__(self, cli, api, models: dict, model_dir: str, out_dir: str):
        self.cli = cli
        self.api = api
        self.models = models
        self.model_dir = model_dir
        self.out_dir = out_dir

    def model_path(self, name: str) -> str:
        return os.path.join(self.model_dir, f"{name}.json")

    def run(self, job: Job) -> bytes:
        if job.kind == "cli":
            return self.run_cli(job, job.argv)
        return getattr(self, f"_run_{job.kind}")(job, self.models[job.model], **job.params)

    def run_cli(self, job: Job, argv) -> bytes:
        path = os.path.join(self.out_dir, job.id.replace(":", "_") + ".out")
        argv = [a.replace("{model}", self.model_path(job.model)) for a in argv]
        code = self.cli.run(argv + ["--out", path])
        if code != 0:
            raise CheckFailed(f"rmtldp {' '.join(argv)} exited with code {code}")
        with open(path, "rb") as fh:
            return fh.read()

    def _run_dw_variational(self, job, model, xs, grid_points) -> bytes:
        api = self.api
        edge = api.dw_edge(model)
        sigma = api.free_convolution_measure(model, grid_points, edge)
        lines = [f"raw_mass_defect,{_fmt(sigma.raw_mass_defect)}",
                 "x,rate_primal,rate_variational,abs_diff"]
        for x in xs:
            primal = api.dw_rate(model, x, edge)
            varia = api.dw_rate_variational(model, x, edge, sigma)
            lines.append(",".join(_fmt(v) for v in (x, primal, varia, abs(primal - varia))))
        return ("\n".join(lines) + "\n").encode()

    def _run_edge_stats(self, job, model, n, replicas, seed, threads) -> bytes:
        stats = self.api.edge_stats(model, n, replicas, seed=seed, threads=threads)
        return np.asarray(stats.values, dtype="<f8").tobytes()

    def _run_sample_spectrum(self, job, model, n, replicas, seed) -> bytes:
        values = [self.api.sample_spectrum(model, n, seed, rep).lambda_max
                  for rep in range(replicas)]
        return np.asarray(values, dtype="<f8").tobytes()

    def _run_distance_stats(self, job, model, n, replicas, seed, grid_points) -> bytes:
        sigma = self.api.sigma_measure(model, grid_points)
        lines = [f"raw_mass_defect,{_fmt(sigma.raw_mass_defect)}", "replica,d_ks,w1"]
        for rep in range(replicas):
            d = self.api.distance_stats(model, n, seed, rep, sigma)
            lines.append(f"{rep},{_fmt(d.d_ks)},{_fmt(d.w1)}")
        return ("\n".join(lines) + "\n").encode()


# -- oracles from the acceptance suite ------------------------------------------


def mp1_rate_oracle(x: float) -> float:
    if x <= 4.0:
        return 0.0
    t = math.sqrt(1.0 - 4.0 / x)
    return 2.0 * t / (1.0 - t * t) - 2.0 * math.atanh(t)


def mp1_density_oracle(x: float) -> float:
    return math.sqrt(max((4.0 - x) * x, 0.0)) / (2.0 * math.pi * x)


def wigner_rate_oracle(x: float) -> float:
    if x <= 2.0:
        return 0.0
    s = math.sqrt(x * x - 4.0)
    return 0.5 * (0.5 * x * s - 2.0 * math.log(0.5 * (x + s)))


def semicircle_density_oracle(x: float) -> float:
    return math.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * math.pi)


# -- checks -----------------------------------------------------------------------


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_rate_table(values: np.ndarray, points: int) -> None:
    """Invariants of every rate table (unit tests of rate_table)."""
    _require(values.shape == (points, 4), f"rate table has shape {values.shape}")
    _require(np.all(np.isfinite(values)), "rate table holds non-finite values")
    x, g, gbar, rate = values.T
    _require(rate[0] == 0.0, f"rate at the edge is {rate[0]!r}, not 0")
    _require(np.all(np.diff(rate) >= 0.0), "rate decreases along the grid")
    _require(np.min(np.diff(rate, 2)) >= -1e-9, "rate fails convexity to -1e-9")
    _require(np.all(np.diff(g) <= 0.0), "first branch increases")
    _require(np.all(np.diff(gbar) >= 0.0), "second branch decreases")
    _require(np.all(gbar >= g), "second branch below the first")


def check_job(job: Job, data: bytes, outputs: dict, runner: Runner) -> None:
    """Raise CheckFailed when ``data`` (the job's emitted bytes) is wrong.

    ``outputs`` maps the ids of jobs already run in this pass to their bytes,
    for checks that compare two jobs.
    """
    command, _, model = job.id.partition(":")
    if command in ("rate", "wigner-rate"):
        header, values = _rows(data)
        _require(header == ["x", "G", "Gbar", "I"], f"unexpected header {header}")
        _check_rate_table(values, job.items)
        x, g, gbar, rate = values.T
        if job.id == "rate:wishart1":
            err = max(abs(r - mp1_rate_oracle(xv)) for xv, r in zip(x, rate))
            _require(err <= 1e-6, f"MP rate oracle missed by {err!r}")
        elif job.id == "rate:wishart1-complex":
            _, base = _rows(outputs["rate:wishart1"])
            _require(np.array_equal(values[:, :3], base[:, :3]), "beta=2 branches differ from beta=1")
            _require(np.allclose(rate, 2.0 * base[:, 3], rtol=1e-12, atol=0.0),
                     "beta=2 rate is not twice the beta=1 rate to rel 1e-12")
        elif job.id == "rate:semicircle-rho":
            past = x >= 18.0
            _require(past.any() and np.all(gbar[past] == 1.0 / 3.0),
                     "second branch is not capped at theta_max past x_c = 18")
        elif job.id == "wigner-rate:dw-point":
            err = max(abs(r - wigner_rate_oracle(xv)) for xv, r in zip(x, rate))
            _require(err <= 1e-6, f"semicircle rate oracle missed by {err!r}")
    elif command == "approx":
        header, values = _rows(data)
        _require(header == ["eps", "r_sigma_eps", "sup_error"], f"unexpected header {header}")
        eps = job.argv[job.argv.index("--eps") + 1].split(",")
        _require(len(values) == len(eps), "one row per eps expected")
        # approx_sweep itself enforces domination to 1e-9; rows come in ascending eps
        _require(np.all(np.diff(values[:, 1]) >= 0.0), "truncated edges not monotone in eps")
        _require(np.all(values[:, 2] >= 0.0), "negative sup error")
    elif command == "variational":
        header, values = _rows(data)
        _require(header == ["x", "rate_primal", "rate_variational", "abs_diff"],
                 f"unexpected header {header}")
        _require(len(values) == job.items, "one row per evaluation point expected")
        diff = np.max(np.abs(values[:, 1] - values[:, 2]))
        _require(diff <= 2e-3, f"|primal - variational| = {diff!r} exceeds 2e-3")
        if model == "wishart1":
            err = max(abs(p - mp1_rate_oracle(xv)) for xv, p in values[:, :2])
            _require(err <= 1e-6, f"MP rate oracle missed by {err!r}")
    elif command == "dw-variational":
        lines = data.decode().splitlines()
        defect = float(lines[0].split(",")[1])
        _require(defect <= 1e-3, f"sigma raw mass defect {defect!r} exceeds 1e-3")
        _, values = _rows("\n".join(lines[1:]).encode())
        diff = np.max(values[:, 3])
        _require(diff <= 2e-3, f"|primal - variational| = {diff!r} exceeds 2e-3")
        if model == "dw-point":
            err = max(abs(p - wigner_rate_oracle(xv)) for xv, p in values[:, :2])
            _require(err <= 1e-6, f"semicircle rate oracle missed by {err!r}")
    elif command in ("density", "wigner-density"):
        header, values = _rows(data)
        _require(header == ["x", "density"], f"unexpected header {header}")
        _require(values.shape == (job.items, 2), f"density has shape {values.shape}")
        _require(np.all(np.isfinite(values)) and np.all(values[:, 1] >= 0.0),
                 "density is negative or non-finite")
        oracle = {"density:wishart1": mp1_density_oracle,
                  "wigner-density:dw-point": semicircle_density_oracle}.get(job.id)
        if oracle is not None:
            err = max(abs(d - oracle(xv)) for xv, d in values)
            _require(err <= 1e-3, f"density oracle missed by {err!r}")
    elif command == "mc":
        header, values = _rows(data)
        _require(header == ["replica", "n", "m", "lambda_max"], f"unexpected header {header}")
        _require(len(values) == job.items and np.all(np.isfinite(values)),
                 "expected one finite row per replica")
        mean = float(np.mean(values[:, 3]))
        if model.startswith("wishart1"):
            _require(abs(mean - 4.0) <= _EDGE_REL * 4.0,
                     f"mean lambda_max {mean!r} not within 8% of 4")
        if "--threads" in job.argv:
            at = job.argv.index("--threads")
            serial = runner.run_cli(job, job.argv[:at] + job.argv[at + 2:])
            _require(serial == data, "threaded mc output differs from the serial run")
    elif command == "edge-stats":
        values = np.frombuffer(data, dtype="<f8")
        _require(values.size == job.items and np.all(np.isfinite(values)),
                 "edge_stats returned the wrong number of finite values")
        mean = float(values.mean())
        if model.startswith("wishart1"):
            _, gauss = _rows(outputs["mc:wishart1"])
            ref = float(np.mean(gauss[:, 3]))
            _require(abs(mean - ref) <= 0.02 * ref,
                     f"mean lambda_max {mean!r} not within 2% of the Gaussian {ref!r}")
        else:
            ref = runner.api.dw_edge(runner.models[model]).r_edge
            _require(abs(mean - ref) <= _EDGE_REL * ref,
                     f"mean lambda_max {mean!r} not within 8% of the edge {ref!r}")
    elif command == "sample-spectrum":
        values = np.frombuffer(data, dtype="<f8")
        _require(values.size == job.items, "one value per replica expected")
        worst = float(np.max(np.abs(values)))
        _require(worst <= 1e-10, f"degenerate |lambda_max| = {worst!r} exceeds 1e-10")
    elif command == "distance-stats":
        lines = data.decode().splitlines()
        defect = float(lines[0].split(",")[1])
        _require(defect <= 1e-3, f"sigma raw mass defect {defect!r} exceeds 1e-3")
        _, values = _rows("\n".join(lines[1:]).encode())
        ks = statistics.median(values[:, 1])
        _require(ks <= 0.06, f"median Kolmogorov-Smirnov distance {ks!r} exceeds 0.06")
    else:
        raise CheckFailed(f"no check defined for job {job.id!r}")
