"""The benchmark's jobs that build sigma on a grid, run on the package.

perfbench/jobs.py runs each job of perfbench/workloads.py through the
library's public entry points and checks the bytes it emits. The limit-law
``dw-variational:*`` jobs read ``free_convolution_measure`` and the Monte
Carlo ``distance-stats:wishart1`` job reads ``sigma_measure``; a changed
signature or a failed check there would otherwise show only in a full
benchmark run. Here those jobs run through the benchmark's Runner on the
package and their outputs pass its check_job. Both files are loaded as
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


@pytest.fixture(scope="module")
def bench():
    """(workloads, jobs), with sys.modules as it was once they are loaded."""
    with pytest.MonkeyPatch.context() as patch:
        return load("workloads", patch), load("jobs", patch)


def benchmark_job(workloads, job_id):
    workload = "limit-law" if job_id.startswith("dw-variational:") else "monte-carlo"
    return next(job for job in workloads.jobs_for(workload, 1) if job.id == job_id)


@pytest.mark.parametrize("job_id", [
    "dw-variational:dw-point", "dw-variational:dw-two-atom", "dw-variational:dw-uniform",
    # five 1000 x 1000 eigensolves
    pytest.param("distance-stats:wishart1", marks=pytest.mark.slow),
])
def test_a_sigma_job_runs_and_passes_its_check(bench, tmp_path, job_id):
    workloads, jobs = bench
    job = benchmark_job(workloads, job_id)
    path = PERFBENCH / "models" / f"{job.model}.json"
    models = {job.model: rmtldp.cli.model_from_json(json.loads(path.read_text()))}
    runner = jobs.Runner(rmtldp.cli, rmtldp, models, str(PERFBENCH / "models"), str(tmp_path))
    data = runner.run(job)
    jobs.check_job(job, data, {}, runner)
