"""Mutation gate: breaking a check of the program must fail the test named for it.

Run from anywhere (standard library only; pytest does not collect this file):

    python tests/mutants.py

Each entry of `MUTANTS` is (file under src/, old text, new text, test id).  The
runner copies src/ to a temporary directory, checks that every named test passes
on the unchanged copy, then for each entry replaces the one occurrence of the old
text in a fresh copy and runs only the named test against it.  It exits 1 unless
every named test fails under its mutation.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = (
    # the only post-solve check of an optimal vertex
    ("poslp/lpcore.py",
     "def _verify_optimal(lp, std, x, x_std, y, obj):\n",
     "def _verify_optimal(lp, std, x, x_std, y, obj):\n    return\n",
     "tests/test_lpcore.py::test_perturbed_vertex_fails_primal_verification"),
    ("poslp/lpcore.py",
     "    if gap > 1e-6 * (1.0 + abs(obj)):\n",
     "    if False:\n",
     "tests/test_lpcore.py::test_perturbed_dual_fails_the_duality_gap"),
    # the grid check's refutation by gain
    ("poslp/robust.py",
     "    return oracle <= gamma * (1 + 1e-6) + 1e-6\n",
     "    return True\n",
     "tests/test_robust.py::test_grid_refutes_a_bound_below_the_oracle"),
    ("poslp/robust.py",
     "    return oracle <= gamma * (1 + 1e-6) + 1e-6\n",
     "    return True\n",
     "tests/test_cli.py::test_robust_gain_below_the_oracle_prints_refuted"),
    # positivity of a robust gain's system, sampled on its box
    ("poslp/robust.py",
     "refused = ~sysmodel.positive_stack(a, c, e, f, tol=1e-9)",
     "refused = np.zeros(len(points), dtype=bool)",
     "tests/test_cli.py::test_closed_loop_refusal_names_delta_on_the_systems_box"),
    # the boundary of the one positivity mask: an entry at exactly -tol passes
    ("poslp/sysmodel.py",
     "    mask = ~(np.asarray(m, dtype=float) >= -tol)\n",
     "    mask = ~(np.asarray(m, dtype=float) > -tol)\n",
     "tests/test_sysmodel.py::test_classify_agrees_with_positive_stack_on_a_seeded_battery"),
    # the Metzler test's exemption of the diagonal
    ("poslp/sysmodel.py",
     "        mask &= ~np.eye(*mask.shape[-2:], dtype=bool)\n",
     "        pass\n",
     "tests/test_numlin.py::test_metzler_diagonal"),
    # the documented sign of an infeasibility certificate
    ("poslp/lpcore.py",
     "cert = y[:lp.num_rows] * std.row_sign[:lp.num_rows]",
     "cert = -y[:lp.num_rows] * std.row_sign[:lp.num_rows]",
     "tests/test_lpcore.py::test_infeasibility_certificate_has_the_dual_sign"),
    # the rounding tolerance of the M-matrix Hurwitz test
    ("poslp/sysmodel.py",
     "MMATRIX_TOL = 1e-12\n",
     "MMATRIX_TOL = 1e-6\n",
     "tests/test_oracle.py::test_badly_scaled_blocks"),
    # phase 1's feasibility tolerance
    ("poslp/lpcore.py",
     "_FEAS_TOL = 1e-8\n",
     "_FEAS_TOL = 1e-4\n",
     "tests/test_acceptance.py::test_c06_time_delay_exactness"),
    # the rounding margin of the certified pricing read
    ("poslp/lpcore.py",
     "margin = (3.0 * nu / (1.0 - nu)) * (np.abs(c) @ np.abs(rows))   # 3 gamma_n\n"
     "                margin += 3.0 * u * np.abs(red) + 1e-300\n",
     "margin = np.zeros_like(red)\n",
     "tests/test_lpcore.py::test_certified_pricing_leaves_rounding_order_to_the_gemv"),
    # the well-posedness check of the loop closed with a constant Delta0, and the test
    # that skips it only where Delta0 F00 = 0
    ("poslp/robust.py",
     '        _close_stack(lft, template.delta0[None], lambda g: "I - Delta0 F00 is singular")\n',
     "        pass\n",
     "tests/test_lft.py::test_singular_constant_delta_keeps_its_message"),
    ("poslp/robust.py",
     "    if (template.delta0 @ lft.F00).any():",
     "    if False:",
     "tests/test_lft.py::test_singular_constant_delta_keeps_its_message"),
    # the vertex program's one block of rows: every vertex given vertex 0's C, E and F
    ("poslp/robust.py",
     "plain_lft(a, c, e, f, norm)",
     "plain_lft(a, *(np.broadcast_to(m[:1], m.shape) for m in (c, e, f)), norm)",
     "tests/test_robust.py::test_vertex_program_matches_the_per_vertex_loop_on_a_seeded_battery"),
    # a grid refutation by structure has no oracle: null in the report, not NaN
    ("poslp/cli.py",
     "        doc.update(grid_max_oracle=None, grid_failure=verdict.failure)\n",
     "        doc.update(grid_failure=verdict.failure)\n",
     "tests/test_cli.py::test_grid_refutation_by_structure_is_named_in_strict_json[l1]"),
    # Linf as the L1 program of the transposed system, decided in `lft` alone
    ("poslp/lft.py",
     "        a, c, e, f = (np.swapaxes(m, -1, -2) for m in (a, e, c, f))\n",
     "        pass\n",
     "tests/test_lft.py::test_linf_entry_is_the_l1_entry_on_the_transpose[gain]"),
    ("poslp/lft.py",
     '    if _transposes(norm):\n        psys = PolynomialLtiSystem(\n',
     '    if False:\n        psys = PolynomialLtiSystem(\n',
     "tests/test_lft.py::test_linf_entry_is_the_l1_entry_on_the_transpose[robust_gain-const]"),
    # the grid sweep of a synthesis closes the loop with its K
    ("poslp/robust.py",
     '        a, c, loop = a + b @ k, c + d @ k, "closed loop "\n',
     '        a, c, loop = a, c, "closed loop "\n',
     "tests/test_oracle.py::test_grid_synthesis_verdict_matches_reference_loop"),
    # the one check that synthesis input has control matrices, nominal or robust
    ("poslp/robust.py",
     "    if psys.m == 0:\n",
     "    if False:\n",
     "tests/test_synthesis.py::test_missing_bd_rejected"),
)


def environment(src):
    """The environment of a run against the copy `src`: poslp imported from it, one BLAS
    thread as the golden files assume."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_tests(src, tests):
    """pytest's exit code on `tests` against the copy `src`, and its output."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=environment(src), capture_output=True,
                          text=True)
    return done.returncode, done.stdout + done.stderr


def copy_src(tmp, name):
    dest = Path(tmp) / name
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def main():
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = copy_src(tmp, "clean")
        where = subprocess.run([sys.executable, "-c", "import poslp; print(poslp.__file__)"],
                               cwd=ROOT, env=environment(clean), capture_output=True,
                               text=True).stdout.strip()
        if not where.startswith(str(clean)):
            sys.exit(f"poslp is imported from {where!r}, not from the copy {clean}")
        code, out = run_tests(clean, sorted({test for *_, test in MUTANTS}))
        if code != 0:
            sys.exit(f"the named tests fail on the unchanged source:\n{out}")
        for number, (file, old, new, test) in enumerate(MUTANTS):
            mutant = copy_src(tmp, f"mutant{number}")
            path = mutant / file
            text = path.read_text()
            if text.count(old) != 1:
                failures.append(f"{file}: the old text occurs {text.count(old)} times: {old!r}")
                continue
            path.write_text(text.replace(old, new))
            code, out = run_tests(mutant, [test])
            caught = code == 1          # 1: tests ran and failed; other codes are errors
            print(f"{'caught  ' if caught else 'MISSED  '} {file}: {old.strip()[:60]!r} -> {test}")
            if not caught:
                failures.append(f"{test} exits {code} under the mutation of {file}:\n{out[-2000:]}")
            shutil.rmtree(mutant)
    if failures:
        print("\n\n".join(failures), file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
