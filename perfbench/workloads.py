"""Workload definitions and the seeded job generator.

A workload is a fixed list of jobs over the model files in ``models/``. The
workload seed only sets the Monte Carlo seeds and draws the ``variational``
evaluation points; model files and grid sizes never change with it, so the
program receives the same kind of input on every seed.

Each job carries the number of result items it produces and the end-to-end
throughput it counts towards (``group``), so the benchmark can report items
per second without knowing what a job computes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("rate-curves", "limit-law", "monte-carlo")

# BLAS threads times any --threads / threads= value stays within the two
# cores the reference numbers were taken on.
BLAS_THREADS = 1
MC_THREADS = 2

# Reduced point counts keep one pass of every workload to a few seconds, so a
# run measures several passes; every model of the workload is kept.
RATE_POINTS = 20
WIGNER_RATE_POINTS = 20
APPROX_POINTS = 10
APPROX_EPS = (0.4, 0.2)
DENSITY_POINTS = 400
VARIATIONAL_POINTS = 3
SIGMA_GRID = 2000

# Length of one pass of each workload on the reference machine at the commit
# that defined the benchmark, probe samples included. A run makes
# --seconds / PASS_SECONDS passes: the count depends on the arguments alone,
# never on the speed of the code under test.
PASS_SECONDS = {"rate-curves": 7.0, "limit-law": 10.0, "monte-carlo": 8.0}
MIN_PASSES = 2

# Evaluation ranges validated by the test suite: wishart1 and neg-wishart from
# the variational acceptance criterion; semicircle-rho from r(sigma) + 0.5 to
# 25 as in the truncation-sweep criterion; the two-atom models from r + 0.4 to
# r + 1.5 and the deformed-Wigner point and uniform models from r + 0.4 to
# r + 2.0, as in the deformed-Wigner variational unit tests.
VARIATIONAL_RANGES = {
    "wishart1": (4.2, 9.0),
    "neg-wishart": (-0.08, -0.008),
    "two-atom": (7.0, 8.1),
    "semicircle-rho": (8.95, 25.0),
}
DW_VARIATIONAL_RANGES = {
    "dw-point": (2.5, 4.0),
    "dw-two-atom": (3.0, 4.1),
    "dw-uniform": (2.7, 4.3),
}


@dataclass(frozen=True)
class Job:
    """One unit of work: a CLI invocation or a call of a public function.

    ``argv`` holds CLI arguments with ``{model}`` standing for the model file;
    ``params`` holds keyword arguments of an in-process job. ``group`` names
    the throughput the job's ``items`` count towards ("a", "b" or None), and
    ``rate_points`` counts the points at which it integrates a primal rate.
    """

    id: str
    kind: str
    model: str
    argv: tuple = ()
    params: dict = field(default_factory=dict)
    group: str | None = None
    items: int = 0
    rate_points: int = 0


def _cli(job_id, command, model, *args, group=None, items=0, rate_points=0):
    argv = (command, "--model", "{model}") + tuple(str(a) for a in args)
    return Job(job_id, "cli", model, argv=argv, group=group, items=items,
               rate_points=rate_points)


def _rate_curves() -> list[Job]:
    rate_xmax = {
        "wishart1": 8.0,
        "wishart1-complex": 8.0,
        "semicircle-rho": 25.0,  # crosses the finite threshold x_c = 18
        "two-atom": 12.0,
        "neg-wishart": -0.005,  # the second branch lives on [r(sigma), 0)
        "uniform-rho": 6.0,
        "table-rho": 12.0,
    }
    jobs = [_cli(f"rate:{m}", "rate", m, f"--xmax={x!r}", "--points", RATE_POINTS,
                 group="a", items=RATE_POINTS, rate_points=RATE_POINTS)
            for m, x in rate_xmax.items()]
    jobs += [_cli(f"wigner-rate:{m}", "wigner-rate", m, "--xmax", 5.0,
                  "--points", WIGNER_RATE_POINTS, group="b", items=WIGNER_RATE_POINTS,
                  rate_points=WIGNER_RATE_POINTS)
             for m in ("dw-point", "dw-two-atom", "dw-uniform")]
    # the sweep tabulates the base model and one truncated model per eps
    approx_items = APPROX_POINTS * (1 + len(APPROX_EPS))
    jobs.append(_cli("approx:semicircle-rho", "approx", "semicircle-rho",
                     "--eps", ",".join(str(e) for e in APPROX_EPS), "--xmax", 25.0,
                     "--points", APPROX_POINTS, group="a", items=approx_items,
                     rate_points=approx_items))
    return jobs


def _draw_points(rng: random.Random, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of VARIATIONAL_POINTS equal slices of [lo, hi].

    The primal rate's quadrature cost grows with the distance from the edge;
    stratified points keep a pass's cost nearly the same on every seed.
    """
    width = (hi - lo) / VARIATIONAL_POINTS
    return [round(lo + width * (k + rng.random()), 6) for k in range(VARIATIONAL_POINTS)]


def _limit_law(seed: int) -> list[Job]:
    rng = random.Random(f"limit-law:{seed}")
    jobs = []
    for m, (lo, hi) in VARIATIONAL_RANGES.items():
        xs = _draw_points(rng, lo, hi)
        jobs.append(_cli(f"variational:{m}", "variational", m,
                         "--x=" + ",".join(repr(x) for x in xs), group="a",
                         items=len(xs), rate_points=len(xs)))
    # wishart1 is sampled where its Marchenko-Pastur density oracle applies
    density_window = {"wishart1": ("--xmin", 0.2, "--xmax", 3.8)}
    for m in VARIATIONAL_RANGES:
        jobs.append(_cli(f"density:{m}", "density", m, *density_window.get(m, ()),
                         "--points", DENSITY_POINTS, group="b", items=DENSITY_POINTS))
    # dw-point is sampled where its semicircle density oracle applies
    wigner_window = {"dw-point": ("--xmin", -1.8, "--xmax", 1.8)}
    for m in DW_VARIATIONAL_RANGES:
        jobs.append(_cli(f"wigner-density:{m}", "wigner-density", m,
                         *wigner_window.get(m, ()), "--points", DENSITY_POINTS,
                         group="b", items=DENSITY_POINTS))
    for m, (lo, hi) in DW_VARIATIONAL_RANGES.items():
        xs = _draw_points(rng, lo, hi)
        jobs.append(Job(f"dw-variational:{m}", "dw_variational", m,
                        params={"xs": xs, "grid_points": SIGMA_GRID}, group="a",
                        items=len(xs), rate_points=len(xs)))
    return jobs


def _monte_carlo(seed: int) -> list[Job]:
    rng = random.Random(f"monte-carlo:{seed}")
    draw = lambda: rng.randrange(2**31)
    jobs = []
    for m, n, reps, threads, group in (
        ("wishart1", 200, 100, None, "a"),
        ("wishart1-complex", 200, 50, MC_THREADS, "a"),
        ("semicircle-rho", 100, 30, None, "b"),
        ("uniform-rho", 100, 20, None, "b"),
    ):
        args = ["--n", n, "--replicas", reps, "--seed", draw()]
        if threads:
            args += ["--threads", threads]
        jobs.append(_cli(f"mc:{m}", "mc", m, *args, group=group, items=reps))
    for m, threads in (("wishart1-rademacher", MC_THREADS),
                       ("wishart1-uniform", MC_THREADS),
                       ("dw-two-atom", None)):
        jobs.append(Job(f"edge-stats:{m}", "edge_stats", m,
                        params={"n": 200, "replicas": 100, "seed": draw(), "threads": threads},
                        group="a", items=100))
    jobs.append(Job("sample-spectrum:degenerate", "sample_spectrum", "degenerate",
                    params={"n": 200, "replicas": 20, "seed": draw()}, group="a", items=20))
    jobs.append(Job("distance-stats:wishart1", "distance_stats", "wishart1",
                    params={"n": 1000, "replicas": 5, "seed": draw(),
                            "grid_points": SIGMA_GRID}))
    return jobs


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The job list of one workload pass, a function of the seed alone."""
    if workload == "rate-curves":
        return _rate_curves()
    if workload == "limit-law":
        return _limit_law(seed)
    if workload == "monte-carlo":
        return _monte_carlo(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def models_for(jobs: list[Job]) -> list[str]:
    return sorted({job.model for job in jobs})
