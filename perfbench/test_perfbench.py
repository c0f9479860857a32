"""Self-tests of the benchmark: seeded inputs and a smoke-size run of every
workload.  Run from the repository root with `python3 -m pytest perfbench`."""

import filecmp
import json
import os
import sys
from pathlib import Path

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))     # the generators read poslp.cases
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _inputs(workload, seed, outdir):
    jobs = workloads.generate(workload, seed, str(outdir))
    return [job.argv for job in jobs], sorted(os.listdir(outdir))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    jobs_a, files_a = _inputs(workload, 11, tmp_path / "a")
    jobs_b, files_b = _inputs(workload, 11, tmp_path / "b")
    assert jobs_a == jobs_b and files_a == files_b
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                               files_a, shallow=False)
    assert match == files_a and not mismatch and not errors


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_changes_inputs(workload, tmp_path):
    jobs_a, files_a = _inputs(workload, 11, tmp_path / "a")
    jobs_b, files_b = _inputs(workload, 12, tmp_path / "b")
    assert files_a == files_b
    _match, mismatch, _errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                                 files_a, shallow=False)
    assert mismatch or jobs_a != jobs_b


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
