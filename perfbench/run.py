"""rmtldp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload rate-curves --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The command is itself a fresh interpreter:
BLAS is pinned to one thread and ``src`` of the checkout goes first on the
import path before numpy or rmtldp load. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one traced pass.
Human-readable lines before it give the environment, the failure ratio and
the SHA-256 of every job's output; the full report is written to
perfbench/out/. See README.md for the workloads and metrics.

With ``--setup-only`` the command stops once the package is imported and every
model file of the workload is parsed; a run times such fresh interpreters of
itself as its set-up samples.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import (BLAS_THREADS, MC_THREADS, WORKLOADS, jobs_for,  # noqa: E402
                       models_for, pass_count)

# before numpy loads, here and in the set-up runs, which inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("RMTLDP_THREADS", None)
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 20
# job time between two samples of the host speed
PROBE_EVERY_S = 0.125

# what each workload's two throughput metrics count
ITEM_NAMES = {
    "rate-curves": ("rate_points_per_s", "wigner_rate_points_per_s"),
    "limit-law": ("variational_points_per_s", "density_points_per_s"),
    "monte-carlo": ("mc_replicas_per_s", "mc_quantile_replicas_per_s"),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def import_library():
    """Import rmtldp from this checkout's src/, never from anywhere else."""
    import rmtldp

    if not os.path.abspath(rmtldp.__file__).startswith(SRC + os.sep):
        raise ImportError(f"rmtldp imported from {rmtldp.__file__}, not from {SRC}")
    import rmtldp.cli

    return rmtldp


def load_models(rmtldp, names) -> dict:
    models = {}
    for name in names:
        with open(os.path.join(HERE, "models", f"{name}.json")) as fh:
            models[name] = rmtldp.cli.model_from_json(json.load(fh))
    return models


def declared_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "mc_threads": MC_THREADS,
    }


class Pass:
    """Outputs and timings of one pass over the job list."""

    def __init__(self):
        self.outputs: dict[str, bytes] = {}
        self.errors: dict[str, str] = {}
        self.seconds: dict[str, float] = {}
        self.wall = 0.0


def run_pass(jobs, runner, probe=None, tracer=None) -> Pass:
    """One pass over the jobs. After each job ``probe`` samples the host's
    speed, once per PROBE_EVERY_S of job time and at least once, so its samples spread
    evenly over the pass."""
    done = Pass()
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                done.outputs[job.id] = runner.run(job)
            else:
                tracer.job = job.id
                done.outputs[job.id] = tracer.call("job", runner.run, job)
        except Exception as exc:  # a failing job is reported, the pass goes on
            traceback.print_exc()
            done.errors[job.id] = f"{type(exc).__name__}: {exc}"
        done.seconds[job.id] = time.perf_counter() - t0
        if probe is not None:
            for _ in range(1 + int(done.seconds[job.id] / PROBE_EVERY_S)):
                probe.probe()
    done.wall = time.perf_counter() - start
    return done


def check_pass(jobs, runner, done: Pass, reference: dict | None) -> dict[str, str]:
    """Failure message per failed job. Without ``reference`` every job is
    checked against its oracle; with it (job id -> (sha256, failure)) a job
    must reproduce the reference bytes and inherits that verdict."""
    from jobs import check_job

    failures = dict(done.errors)
    for job in jobs:
        if job.id in failures:
            continue
        data = done.outputs[job.id]
        if reference is not None:
            sha, failure = reference[job.id]
            if hashlib.sha256(data).hexdigest() != sha:
                failures[job.id] = "output differs from the first pass"
            elif failure:
                failures[job.id] = failure
            continue
        try:
            check_job(job, data, done.outputs, runner)
        except Exception as exc:  # any failure of the check is a failed job
            traceback.print_exc()
            failures[job.id] = f"{type(exc).__name__}: {exc}"
    return failures


def summarize(jobs, passes: list[Pass], factor: float) -> dict[str, float]:
    """Pass time and the items per second of each throughput group, at the
    reference machine's speed: from each job's mean time over the passes,
    divided by the probe's slow-down ``factor`` over the same passes. Both
    are means, as contention adds to a job's time and to the probe's alike;
    a median or minimum of the job times would not cancel against it."""
    cost = {j.id: statistics.fmean(p.seconds[j.id] for p in passes) / factor for j in jobs}
    out = {"wall": sum(cost.values())}
    for group in ("a", "b"):
        members = [j for j in jobs if j.group == group]
        out[group] = sum(j.items for j in members) / sum(cost[j.id] for j in members)
    return out


def time_setup(args) -> float:
    """Wall time of a fresh interpreter that imports the package and parses
    the workload's model files, then exits."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    # a blocking wait; Popen.wait(timeout) polls in steps of up to 50 ms
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up run exited with code {code}")
    return elapsed


def measure(args, jobs, runner, rmtldp, out_dir) -> dict:
    """A fixed number of untraced passes, each followed by one set-up sample,
    so both spread over the whole run; with tracing, half as many untraced
    passes and then one traced pass."""
    from speed import Probe

    count = pass_count(args.workload, args.seconds)
    if args.trace:
        count = max(1, count // 2)
    probe = Probe()
    passes: list[Pass] = []
    failures: list[dict] = []
    setup: list[float] = []
    reference = None
    for _ in range(count):
        done = run_pass(jobs, runner, probe)
        failed = check_pass(jobs, runner, done, reference)
        if reference is None:
            reference = {j.id: (hashlib.sha256(done.outputs.get(j.id, b"")).hexdigest(),
                                failed.get(j.id)) for j in jobs}
        failures.append(failed)
        passes.append(done)
        if not args.trace:
            setup.append(time_setup(args))
            probe.probe()
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(time_setup(args))
        probe.probe()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    factor = probe.factor()
    summary = summarize(jobs, passes, factor)

    layer, spans = None, 0
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        traced_probe = Probe()
        tracer.install(rmtldp)
        try:
            traced = run_pass(jobs, runner, traced_probe, tracer)
        finally:
            tracer.uninstall()
        failures.append(check_pass(jobs, runner, traced, reference))
        # both passes at the reference speed; the per-layer times themselves
        # are plain seconds
        traced_s = sum(traced.seconds.values()) / traced_probe.factor()
        overhead = traced_s - summary["wall"]
        cli_bytes = sum(len(traced.outputs.get(j.id, b"")) for j in jobs if j.kind == "cli")
        layer = layer_metrics(tracer, sum(j.rate_points for j in jobs), cli_bytes, overhead)
        spans = len(tracer.spans)
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}.csv"))

    return {
        "attempted": len(jobs) * len(failures),
        "failed": sum(len(f) for f in failures),
        "failures": [{"pass": i, "job": job, "reason": why}
                     for i, f in enumerate(failures) for job, why in sorted(f.items())],
        "speed_factor": factor,
        "probe_samples": len(probe.samples),
        "pass_walls": [p.wall for p in passes],
        "pass_job_seconds": [p.seconds for p in passes],
        "summary": summary,
        "setup_s": [s / factor for s in setup],
        "setup_raw_s": setup,
        "peak_rss_kb": peak_rss_kb,
        "jobs": [{"id": j.id, "sha256": reference[j.id][0],
                  "mean_s": statistics.fmean(p.seconds[j.id] for p in passes),
                  "median_s": statistics.median(p.seconds[j.id] for p in passes),
                  "items": j.items} for j in jobs],
        "layer": layer,
        "spans": spans,
    }


def report(args, result: dict) -> None:
    """Human-readable lines: environment, failures and per-job figures."""
    env = result["env"]
    walls = result["pass_walls"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
          f"mc threads {env['mc_threads']}, seed {args.seed}")
    print(f"{args.workload}: {len(walls)} untraced passes (median pass {statistics.median(walls):.4g} s), "
          f"fail_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.3g}")
    print(f"  host speed: {result['probe_samples']} probe samples, {result['speed_factor']:.4g}x "
          f"the reference probe time; plain job times:")
    for job in result["jobs"]:
        print(f"  job {job['id']:<34} mean {job['mean_s']:.4f} s  median {job['median_s']:.4f} s  "
              f"sha256 {job['sha256']}")
    for failure in result["failures"]:
        print(f"  FAILED pass {failure['pass']} {failure['job']}: {failure['reason']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rmtldp", "__init__.py")):
        return fail(f"no rmtldp package under {SRC}")
    jobs = jobs_for(args.workload, args.seed)
    rmtldp = import_library()
    models = load_models(rmtldp, models_for(jobs))
    if args.setup_only:
        return 0

    from jobs import Runner

    units = declared_units()
    out_dir = os.path.join(HERE, "out")
    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        runner = Runner(rmtldp.cli, rmtldp, models, os.path.join(HERE, "models"), work_dir)
        result = measure(args, jobs, runner, rmtldp, out_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["env"] = environment()
    result["workload"] = args.workload
    result["seed"] = args.seed
    with open(os.path.join(out_dir, f"report-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    report(args, result)

    if args.trace:
        layer = result["layer"]
        print(f"  traced pass: {result['spans']} spans, "
              f"overhead {layer['trace.overhead_s']:.4g} s")
        values = layer
    else:
        summary = result["summary"]
        values = {
            "setup_s": statistics.median(result["setup_s"]),
            "wall_s": summary["wall"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "items_a_per_s": summary["a"],
            "items_b_per_s": summary["b"],
        }
        names = dict(zip(("items_a_per_s", "items_b_per_s"), ITEM_NAMES[args.workload]))
        print(f"  set-up: median of {len(result['setup_s'])} samples; times: at the reference "
              f"speed, from job means over {len(result['pass_walls'])} passes")
        for name, value in values.items():
            print(f"  {name:<16} {names.get(name, name):<28} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
