"""Structured reports, text reports and dumped LPs stay byte-identical.

The files under tests/golden/ hold the structured reports (`<case>.json`),
the `--format text` reports (`<case>.txt`) and, for cases run with
--dump-lp, the LP text (`<case>.lp`) written by earlier versions of the
program: the text reports from before each command formatted its text from
its structured report, the point-by-point frozen-parameter sweep
that the batched M-matrix oracle replaced, and the per-row LP assembly that
the block-row builder replaced.  They were recorded with OpenBLAS on x86-64
pinned to one thread, so each case runs in a child process with BLAS pinned
the same way: the thread count alone moves the last bits of the LP
certificates.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poslp
from poslp.cases import gene_expression_system, poly3_system
from poslp.poly import BoxDomain, polynomial_system, write_polynomial_system
from poslp.sysmodel import random_positive_system, write_system

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "reproduce_table2": ["reproduce", "table2"],
    "reproduce_table3": ["reproduce", "table3"],
    "reproduce_table4": ["reproduce", "table4"],
    "reproduce_table5": ["reproduce", "table5"],
    "reproduce_delay": ["reproduce", "delay"],
    "robust_gain_poly3_l1": ["robust-gain", "--norm", "l1", "@poly3.json",
                             "--grid", "1001"],
    "robust_gain_gene_linf_vertices": ["robust-gain", "--norm", "linf", "--vertices",
                                       "@gene.json", "--grid", "1001"],
    "robust_gain_poly3_reduced_lp": ["robust-gain", "--norm", "l1", "@poly3.json",
                                     "--degree", "2",
                                     "--dump-lp", "@robust_gain_poly3_reduced_lp.lp"],
    "robust_gain_poly3_full_lp": ["robust-gain", "--norm", "linf", "@poly3.json",
                                  "--form", "full", "--degree", "2",
                                  "--dump-lp", "@robust_gain_poly3_full_lp.lp"],
    "robust_gain_poly3_const_full_lp": ["robust-gain", "--norm", "l1", "@poly3.json",
                                        "--scaling", "const", "--form", "full",
                                        "--degree", "1",
                                        "--dump-lp", "@robust_gain_poly3_const_full_lp.lp"],
    "gain_l1": ["gain", "--norm", "l1", "@gain.json", "--dump-lp", "@gain_l1.lp"],
    "gain_linf": ["gain", "--norm", "linf", "@gain.json", "--dump-lp", "@gain_linf.lp"],
    "synth": ["synth", "@synth.json", "--dump-lp", "@synth.lp"],
    "synth_zeros": ["synth", "@synth.json", "--zeros", "@zeros.json",
                    "--dump-lp", "@synth_zeros.lp"],
    "synth_bounds": ["synth", "@synth.json", "--bounds", "@bounds.json",
                     "--dump-lp", "@synth_bounds.lp"],
    "robust_synth_plant": ["robust-synth", "@plant.json",
                           "--dump-lp", "@robust_synth_plant.lp"],
    "robust_synth_plant_full_spec": ["robust-synth", "@plant.json", "--scaling", "const",
                                     "--form", "full", "--zeros", "@plant_zeros.json",
                                     "--bounds", "@plant_bounds.json",
                                     "--dump-lp", "@robust_synth_plant_full_spec.lp"],
    "robust_synth_uncertain_input": ["robust-synth", "@plant_b.json",
                                     "--dump-lp", "@robust_synth_uncertain_input.lp"],
}


def small_plant():
    """Two-state plant whose open loop is neither positive nor stable."""
    return polynomial_system(
        a_terms={0: [[-1.0, -0.5], [0.5, -1.0]], 1: [[0.5, 0.3], [0.2, 0.8]]},
        b_terms={0: np.eye(2)}, c_terms={0: np.eye(2)},
        d_terms={0: np.zeros((2, 2))}, e_terms={0: np.eye(2)},
        f_terms={0: np.zeros((2, 2))}, domain=BoxDomain.unit(1))


def uncertain_input_plant():
    """One-parameter plant whose B and D have higher degree than A, C, E
    and F, so robust synthesis's channel chains are longer than A's."""
    return polynomial_system(
        a_terms={0: [[-1.0, 0.3], [0.2, 0.5]], 1: [[0.1, 0.0], [0.1, 0.1]]},
        b_terms={0: [[0.0], [1.0]], 2: [[0.0], [0.3]]}, c_terms={0: [[1.0, 0.5]]},
        d_terms={0: [[0.2]], 3: [[0.1]]}, e_terms={0: [[1.0], [0.5]], 1: [[0.1], [0.0]]},
        f_terms={0: [[0.1]]}, domain=BoxDomain.unit(1))


def write_inputs(directory):
    """Write every input file the cases name with '@'."""
    def write_json(name, doc):
        (directory / name).write_text(json.dumps(doc))
    write_polynomial_system(poly3_system(), directory / "poly3.json")
    write_polynomial_system(gene_expression_system(0.3), directory / "gene.json")
    write_polynomial_system(small_plant(), directory / "plant.json")
    write_polynomial_system(uncertain_input_plant(), directory / "plant_b.json")
    write_system(random_positive_system(6, 0, 3, 2, seed=301), directory / "gain.json")
    write_system(random_positive_system(5, 2, 2, 3, seed=302), directory / "synth.json")
    write_json("zeros.json", {"zero_pattern": [[0, 1], [1, 3]]})
    write_json("bounds.json", {"K_lower": (-np.ones((2, 5))).tolist(),
                               "K_upper": np.ones((2, 5)).tolist()})
    write_json("plant_zeros.json", {"zero_pattern": [[1, 0]]})
    write_json("plant_bounds.json", {"K_lower": (-3 * np.ones((2, 2))).tolist(),
                                     "K_upper": (3 * np.ones((2, 2))).tolist()})


def run_case(name, directory, fmt="structured"):
    """Stdout of one case in the given --format and the LP text it dumped (or None)."""
    argv = [str(directory / a[1:]) if a.startswith("@") else a for a in CASES[name]]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(Path(poslp.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "poslp.cli", *argv, "--format", fmt],
                         env=env, capture_output=True, text=True, check=True)
    dumped = directory / f"{name}.lp"
    return run.stdout, dumped.read_text() if "--dump-lp" in argv else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_structured_report_matches_golden(name, tmp_path):
    write_inputs(tmp_path)
    report, lp_text = run_case(name, tmp_path)
    assert report == (GOLDEN / f"{name}.json").read_text()
    if lp_text is not None:
        assert lp_text == (GOLDEN / f"{name}.lp").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_report_matches_golden(name, tmp_path):
    write_inputs(tmp_path)
    report, lp_text = run_case(name, tmp_path, "text")
    assert report == (GOLDEN / f"{name}.txt").read_text()
    if lp_text is not None:
        assert lp_text == (GOLDEN / f"{name}.lp").read_text()
