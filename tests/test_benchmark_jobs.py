"""Every benchmark job, run on the package through its own check.

perfbench/jobs.py runs each job of perfbench/workloads.py through the
library's public entry points and checks the bytes it emits. A changed
signature or a failed check would otherwise show only in a full benchmark
run. Here every job of each workload's seed-1 pass runs through the
benchmark's Runner on the package and its output passes its check_job.
The jobs of a workload run in the workload's order and share one outputs
dict, since some checks compare two jobs (``rate:wishart1-complex`` with
``rate:wishart1``, ``edge-stats:wishart1-*`` with ``mc:wishart1``); a job
run alone first runs the jobs before it. Both perfbench files are loaded as
they are, and nothing in them is changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import rmtldp
import rmtldp.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, patch):
    """perfbench/<name>.py as the module ``name``, kept in sys.modules while
    ``patch`` lasts: its dataclasses, and the imports of jobs.py, look
    their modules up there."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    patch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _job_ids():
    """(workload, job id) of every job of every workload's seed-1 pass, in
    workload order."""
    with pytest.MonkeyPatch.context() as patch:
        workloads = load("workloads", patch)
        return [(w, job.id) for w in workloads.WORKLOADS for job in workloads.jobs_for(w, 1)]


# the monte-carlo jobs sample 200 x 200 to 1000 x 1000 matrices: about 2 s a pass
JOBS = [pytest.param(w, job_id, id=job_id, marks=[pytest.mark.slow] if w == "monte-carlo" else [])
        for w, job_id in _job_ids()]


@pytest.fixture(scope="module")
def bench():
    """(workloads, jobs), with sys.modules as it was once they are loaded."""
    with pytest.MonkeyPatch.context() as patch:
        return load("workloads", patch), load("jobs", patch)


@pytest.fixture(scope="module")
def outputs():
    """The bytes of the jobs run so far, one dict per workload."""
    return {}


@pytest.mark.parametrize("workload, job_id", JOBS)
def test_a_benchmark_job_runs_and_passes_its_check(bench, outputs, tmp_path, workload, job_id):
    workloads, jobs = bench
    order = workloads.jobs_for(workload, 1)
    models = {name: rmtldp.cli.model_from_json(json.loads((PERFBENCH / "models" / f"{name}.json")
                                                          .read_text()))
              for name in workloads.models_for(order)}
    runner = jobs.Runner(rmtldp.cli, rmtldp, models, str(PERFBENCH / "models"), str(tmp_path))
    done = outputs.setdefault(workload, {})
    for job in order:
        if job.id not in done:
            done[job.id] = runner.run(job)
        if job.id == job_id:
            jobs.check_job(job, done[job.id], done, runner)
            return
