"""Every benchmark workload job keeps its report, at seeds 1 and 2.

`tests/golden/workloads.json` holds, per workload, seed and job, the exit
code, the stderr and the sha256 of the stdout of each job of
`perfbench/workloads.py`, recorded with OpenBLAS on x86-64 pinned to one
thread.  The jobs of one workload and seed run in one child process with
BLAS pinned the same way, each through `poslp.cli.main` as the benchmark
calls it.  To record the file again:

    PYTHONPATH=src python tests/test_workload_reports.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "workloads.json"
SEEDS = (1, 2)

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# reads a JSON list of argvs on stdin, writes one [exit code, stderr,
# sha256 of stdout] per argv
CHILD = """
import contextlib, hashlib, io, json, sys
from poslp import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, err.getvalue(),
                    hashlib.sha256(out.getvalue().encode()).hexdigest()])
json.dump(results, sys.stdout)
"""


def run_workload(name, seed, directory):
    """[{job, exit, stderr, stdout_sha256}] of one pass over the workload."""
    jobs = workloads.generate(name, seed, str(directory))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         input=json.dumps([job.resolve(str(directory)) for job in jobs]),
                         capture_output=True, text=True)
    return [{"job": job.label, "exit": code, "stderr": err, "stdout_sha256": digest}
            for job, (code, err, digest) in zip(jobs, json.loads(run.stdout))]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_reports_match_golden(name, seed, tmp_path):
    want = json.loads(GOLDEN.read_text())[name][str(seed)]
    got = run_workload(name, seed, tmp_path)
    assert [g["job"] for g in got] == [w["job"] for w in want]
    for g, w in zip(got, want):
        assert g == w, g["job"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: {str(seed): run_workload(name, seed, Path(tmp) / f"{name}-{seed}")
                      for seed in SEEDS} for name in workloads.WORKLOADS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
