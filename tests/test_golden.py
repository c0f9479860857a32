"""Structured reports of the frozen-parameter sweeps stay byte-identical.

The files under tests/golden/ hold the reports of the point-by-point sweep
(two stability LPs per grid point) that the batched M-matrix oracle
replaced; the oracle must reproduce them byte for byte.  They were recorded
with OpenBLAS on x86-64 pinned to one thread, so each case runs in a child
process with BLAS pinned the same way: the thread count alone moves the
last bits of the LP certificates.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import poslp
from poslp.cases import gene_expression_system, poly3_system
from poslp.poly import write_polynomial_system

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "reproduce_table4": ["reproduce", "table4"],
    "reproduce_table5": ["reproduce", "table5"],
    "robust_gain_poly3_l1": ["robust-gain", "--norm", "l1", "@poly3.json",
                             "--grid", "1001"],
    "robust_gain_gene_linf_vertices": ["robust-gain", "--norm", "linf", "--vertices",
                                       "@gene.json", "--grid", "1001"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_structured_report_matches_golden(name, tmp_path):
    write_polynomial_system(poly3_system(), tmp_path / "poly3.json")
    write_polynomial_system(gene_expression_system(0.3), tmp_path / "gene.json")
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in CASES[name]]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(Path(poslp.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "poslp.cli", *argv, "--format", "structured"],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout == (GOLDEN / f"{name}.json").read_text()
