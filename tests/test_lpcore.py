import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from poslp import gains, handelman, ilc, lpcore, robust, synthesis, sysmodel
from poslp.cases import gene_expression_system, poly3_system
from poslp.errors import (CombinatorialCapError, InfeasibleError, NonConvergenceError,
                          ValidationError)
from poslp.lpcore import LinearProgram, LpBuilder, StrictnessPolicy, lp_to_text, solve_lp
from poslp.synthesis import ControllerSpec


def simple_lp(objective_on_x=1.0):
    b = LpBuilder()
    x = b.add_var("x", objective=objective_on_x)
    return b, x


def test_min_x_above_one():
    b, x = simple_lp()
    b.add_row({x: 1.0}, ">=", 1.0)
    sol = solve_lp(b.build())
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_min_gamma_two_lower_bounds():
    b = LpBuilder()
    g = b.add_var("gamma", lower=0.0, objective=1.0)
    b.add_row({g: 1.0}, ">=", 2.0)
    b.add_row({g: 1.0}, ">=", 5.0)
    sol = solve_lp(b.build())
    assert sol.objective_value == pytest.approx(5.0, abs=1e-8)


def test_gene_expression_nominal_linf_lp():
    sys0 = gene_expression_system(0.0).frozen_at([0.0, 0.0, 0.0])
    sol = solve_lp(gains.gain_lp(sys0, "linf"))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(2.0, rel=1e-5)


def test_equalities_with_free_variables():
    b = LpBuilder()
    x = b.add_var("x", objective=1.0)
    y = b.add_var("y", objective=1.0)
    b.add_row({x: 1.0, y: 1.0}, "==", 3.0)
    b.add_row({x: 1.0, y: -1.0}, "==", 1.0)
    sol = solve_lp(b.build())
    assert np.allclose(sol.x, [2.0, 1.0], atol=1e-9)


def test_infeasible_with_certificate():
    b, x = simple_lp()
    b.add_row({x: 1.0}, "<=", -1.0)
    b.add_row({x: 1.0}, ">=", 1.0)
    sol = solve_lp(b.build())
    assert sol.status == "infeasible"
    assert sol.certificate is not None


def test_unbounded_with_ray():
    b = LpBuilder()
    x = b.add_var("x", lower=0.0, objective=-1.0)
    b.add_row({x: -1.0}, "<=", 0.0)
    sol = solve_lp(b.build())
    assert sol.status == "unbounded"
    assert sol.certificate is not None


def test_two_sided_bounds():
    b = LpBuilder()
    b.add_var("x", lower=1.0, upper=2.0, objective=-1.0)
    sol = solve_lp(b.build())
    assert sol.x[0] == pytest.approx(2.0)


def test_classic_cycling_instance_terminates():
    # Beale's degenerate instance; the Bland fallback guarantees termination
    b = LpBuilder()
    x = [b.add_var(f"x{j}", lower=0.0, objective=c)
         for j, c in enumerate((-0.75, 150.0, -0.02, 6.0))]
    b.add_row({x[0]: 0.25, x[1]: -60.0, x[2]: -1.0 / 25, x[3]: 9.0}, "<=", 0.0)
    b.add_row({x[0]: 0.5, x[1]: -90.0, x[2]: -0.02, x[3]: 3.0}, "<=", 0.0)
    b.add_row({x[2]: 1.0}, "<=", 1.0)
    sol = solve_lp(b.build())
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)


def test_degenerate_problem_still_solves():
    # many redundant rows through the same vertex
    b = LpBuilder()
    x = b.add_var("x", lower=0.0, objective=1.0)
    y = b.add_var("y", lower=0.0, objective=1.0)
    for k in range(30):
        b.add_row({x: 1.0, y: 1.0 + 1e-12 * k}, ">=", 1.0)
    sol = solve_lp(b.build())
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-7)


def test_iteration_cap():
    b = LpBuilder()
    xs = b.add_vars("x", 6, lower=0.0, objective=-1.0)
    for i, x in enumerate(xs):
        b.add_row({x: 1.0}, "<=", 1.0 + i)
    with pytest.raises(NonConvergenceError):
        solve_lp(b.build(), max_iterations=1)


def test_ratio_test_refuses_a_negative_rhs_that_empties_the_ties():
    # x0 enters over the slack rows s1 = -1 (drifted below 0) and s2 = 1: the
    # ratios are -1 and 1, and the tie filter's bound rmin (1 + 1e-9) + 1e-12
    # lies below rmin = -1, so no ratio passes it
    t = np.array([[1.0, 1.0, 0.0, -1.0],
                  [1.0, 0.0, 1.0, 1.0]])
    with pytest.raises(NonConvergenceError, match=r"primal feasibility: tableau row 0 has rhs -1\.000e\+00"):
        lpcore._simplex_loop(t, np.array([1, 2]), np.array([-1.0, 0.0, 0.0]), 1, 100, 0)


def test_optimal_solutions_satisfy_rows():
    rng = np.random.Generator(np.random.PCG64(12))
    for trial in range(25):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, 9))
        b = LpBuilder()
        xs = b.add_vars("x", n, lower=0.0, objective=1.0)
        for _ in range(r):
            coeffs = {xs[j]: rng.uniform(0.1, 1.0) for j in range(n)}
            b.add_row(coeffs, ">=", rng.uniform(0.5, 2.0))
        lp = b.build()
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        resid = lp.row_coeffs @ sol.x - lp.row_rhs
        assert np.all(resid <= 1e-8 * (1 + np.abs(lp.row_rhs)))
        assert sol.dual is not None


def test_complementary_slackness_of_duals():
    rng = np.random.Generator(np.random.PCG64(55))
    for trial in range(15):
        n = int(rng.integers(2, 6))
        b = LpBuilder()
        xs = b.add_vars("x", n, lower=0.0, objective=1.0)
        lp_rows = int(rng.integers(2, 6))
        for _ in range(lp_rows):
            coeffs = {xs[j]: rng.uniform(0.1, 1.0) for j in range(n)}
            b.add_row(coeffs, ">=", rng.uniform(0.5, 2.0))
        lp = b.build()
        sol = solve_lp(lp)
        assert sol.status == "optimal" and sol.dual is not None
        slack = lp.row_rhs - lp.row_coeffs @ sol.x
        assert np.all(np.abs(sol.dual * slack) <= 1e-6 * (1 + np.abs(lp.row_rhs)))


def test_validation_rejects_bad_relation():
    b, x = simple_lp()
    with pytest.raises(ValidationError):
        b.add_row({x: 1.0}, "<", 0.0)


def test_policy_must_be_positive():
    with pytest.raises(ValidationError):
        StrictnessPolicy(epsilon=0.0)
    with pytest.raises(ValidationError):
        StrictnessPolicy(lambda_floor=-1.0)


def test_gain_bias_shrinks_with_epsilon():
    # the closed LP optimum decreases toward the oracle value as eps -> 0
    sys5 = sysmodel.random_positive_system(5, 0, 2, 3, seed=99)
    oracle = sysmodel.oracle_gains(sys5)[0]
    values = []
    for eps in (1e-5, 1e-6, 1e-7):
        res = gains.gain(sys5, "l1", StrictnessPolicy(epsilon=eps))
        values.append(res.gamma)
    assert values[0] >= values[1] >= values[2] >= oracle - 1e-12
    assert (values[2] - oracle) / oracle <= 1e-4


def test_dump_is_deterministic_and_line_oriented():
    b = LpBuilder()
    x = b.add_var("x", lower=0.0, objective=1.0)
    b.add_row({x: 1.0}, ">=", 1.0, "r0")
    lp = b.build()
    text = lp_to_text(lp)
    assert text == lp_to_text(lp)
    lines = text.strip().splitlines()
    assert lines[0] == "vars 1"
    assert lines[-1].startswith("row r0 <= ")
    assert "minimize" in lines[2]


def loop_standard_form(lp):
    """Reference standard form, one variable and one row at a time: shift
    finite lower bounds, negate upper-only variables, split free ones, add
    an upper row per two-sided bound and a slack per inequality, negate
    rows with a negative rhs.  Returns (a, b, cost, offset, row_sign,
    slack_of_row, back-substitution of x_std)."""
    parts, cols, offset, extra = [], [], np.zeros(lp.num_vars), []
    for j in range(lp.num_vars):
        lo, up = lp.var_lower[j], lp.var_upper[j]
        signs = [1.0, -1.0] if not (np.isfinite(lo) or np.isfinite(up)) \
            else [1.0 if np.isfinite(lo) else -1.0]
        offset[j] = lo if np.isfinite(lo) else up if np.isfinite(up) else 0.0
        parts.append([(len(cols) + k, s) for k, s in enumerate(signs)])
        if np.isfinite(lo) and np.isfinite(up):
            extra.append((len(cols), up - lo))
        cols += [(j, s) for s in signs]
    sub = np.zeros((lp.num_vars, len(cols)))
    for k, (j, s) in enumerate(cols):
        sub[j, k] = s
    rows = [row for row in lp.row_coeffs @ sub]
    rhs = list(lp.row_rhs - lp.row_coeffs @ offset)
    ineq = [rel == "<=" for rel in lp.row_relations]
    for col, bound in extra:
        rows.append(np.eye(len(cols))[col])
        rhs.append(bound)
        ineq.append(True)
    a = np.zeros((len(rows), len(cols) + sum(ineq)))
    slack_of_row = np.full(len(rows), -1)
    row_sign = np.ones(len(rows))
    for i in range(len(rows)):
        a[i, :len(cols)] = rows[i]
        if ineq[i]:
            slack_of_row[i] = len(cols) + int(np.sum(ineq[:i]))
            a[i, slack_of_row[i]] = 1.0
        if rhs[i] < 0:
            a[i] *= -1.0
            rhs[i], row_sign[i] = -rhs[i], -1.0
    cost = np.zeros(a.shape[1])
    for k, (j, s) in enumerate(cols):
        cost[k] = lp.objective[j] * s

    def back(x_std):
        x = offset.copy()
        for j, pieces in enumerate(parts):
            for col, s in pieces:
                x[j] += s * x_std[col]
        return x
    return a, np.array(rhs, dtype=float), cost, offset, row_sign, slack_of_row, back


def random_standard_lps(seed, count):
    """LPs with lower-only, upper-only, free and two-sided variables, "<=" or
    "==" rows of either sign of rhs, and zero costs of both signs."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n, m = int(rng.integers(1, 8)), int(rng.integers(0, 7))
        kind = rng.integers(0, 4, n)
        lo = np.where(kind % 3 == 0, rng.uniform(-2, 1, n), -np.inf)
        up = np.where(kind == 1, rng.uniform(-1, 2, n),
                      np.where(kind == 3, lo + rng.uniform(0, 3, n), np.inf))
        obj = rng.uniform(-1, 1, n) * (rng.uniform(0, 1, n) > 0.3)
        lp = LpBuilder([f"x{j}" for j in range(n)], lo, up, obj)
        lp.add_rows(slice(0, n), rng.uniform(-1, 1, (m, n)),
                    "==" if trial % 4 == 0 else "<=", rng.uniform(-2, 2, m),
                    [f"r{i}" for i in range(m)])
        yield rng, lp.build()


def test_standard_form_matches_loop_reference_bit_for_bit():
    # compare values and sign bits
    from poslp.lpcore import _Standardizer
    for trial, (rng, lp) in enumerate(random_standard_lps(11, 150)):
        std = _Standardizer(lp)
        a, b, cost, offset, row_sign, slack_of_row, back = loop_standard_form(lp)
        x_std = rng.uniform(-1, 1, a.shape[1])
        for got, want in ((std.a, a), (std.b, b), (std.cost, cost), (std.offset, offset),
                          (std.row_sign, row_sign), (std.slack_of_row, slack_of_row),
                          (std.back_substitute(x_std), back(x_std))):
            assert got.shape == want.shape
            assert got.tobytes() == np.asarray(want, dtype=got.dtype).tobytes(), trial


def reference_basis(std, basis, art_rows):
    """B gathered from the whole standard form, artificial column ncols + k
    the unit vector of row art_rows[k]."""
    a = std.a
    art = basis >= a.shape[1]
    bmat = np.zeros((a.shape[0], basis.size))
    bmat[:, ~art] = a[:, basis[~art]]
    bmat[art_rows[basis[art] - a.shape[1]], np.flatnonzero(art)] = 1.0
    return bmat


def test_basis_matrix_matches_standard_form_columns_bit_for_bit(monkeypatch):
    # random column subsets of the random standard forms, zero signs included
    from poslp.lpcore import _Standardizer
    for trial, (rng, lp) in enumerate(random_standard_lps(12, 150)):
        std = _Standardizer(lp)
        a = loop_standard_form(lp)[0]
        cols = rng.permutation(a.shape[1])[:int(rng.integers(0, a.shape[1] + 1))]
        got = std.columns(cols)
        assert got.tobytes() == a[:, cols].tobytes() == std.a[:, cols].tobytes(), trial
    # the final basis of every tall solve, passed to the primal and the dual
    # LU solve, and phase 1's basis with artificial columns on infeasible LPs,
    # passed to the dual LU solve alone
    columns, basis_solve, seen = _Standardizer.columns, lpcore._basis_solve, set()
    matrices, calls = [], []

    def recording_columns(std, cols):
        calls.append((std, cols.copy()))
        return columns(std, cols)

    def recording_solve(m, rhs):
        matrices.append(m)
        return basis_solve(m, rhs)
    monkeypatch.setattr(_Standardizer, "columns", recording_columns)
    monkeypatch.setattr(lpcore, "_basis_solve", recording_solve)
    rng = np.random.default_rng(2029)
    infeasible = [(f"infeasible {trial}", random_lp(rng, "infeasible")) for trial in range(30)]
    for name, lp in list(tall_lps()) + infeasible:
        matrices.clear()
        calls.clear()
        status = solve_lp(lp).status
        (std, basis), = calls
        want = reference_basis(std, basis, std.art_rows)
        primal = [want.tobytes()] if status == "optimal" else []
        assert [m.tobytes() for m in matrices] == primal + [want.T.tobytes()], name
        seen.add((name.split()[0], status, bool((basis >= std.shape[1]).any())))
    assert {("synth", "optimal", False), ("poly3", "optimal", False),
            ("infeasible", "infeasible", True)} <= seen, seen


def test_solve_lp_peaks_below_one_and_a_half_standard_forms():
    # the n = 24 and n = 40 synthesis LPs: the phase-1 tableau is the standard
    # form 27 or 43 columns wider, and the basis matrix is built only once it
    # is released; a standard form kept beside the tableau peaks near 2.9
    for n in (24, 40):
        lp = synthesis.synthesis_lp(sysmodel.random_positive_system(n, 2, 2, 2, seed=n))
        size = lpcore._Standardizer(lp).a.nbytes
        tracemalloc.start()
        try:
            solve_lp(lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size, (n, peak / size)


def test_validation_rejects_lower_bound_at_plus_infinity():
    with pytest.raises(ValidationError, match="empty variable domain"):
        LinearProgram(np.ones(2), np.ones((1, 2)), ("<=",), np.array([4.0]),
                      np.array([0.0, np.inf]), np.array([np.inf, np.inf])).validate()


def test_validation_rejects_upper_bound_at_minus_infinity():
    # was reported "unbounded" although the second variable has no value
    with pytest.raises(ValidationError, match="empty variable domain"):
        solve_lp(LinearProgram(np.ones(2), np.ones((1, 2)), ("<=",), np.array([4.0]),
                               np.array([0.0, -np.inf]), np.array([np.inf, -np.inf])))


def dense_eliminate(t, leave, enter):
    """Reference pivot: rank-1 update of every row but the pivot row."""
    t[leave] /= t[leave, enter]
    other = np.arange(t.shape[0]) != leave
    t[other] -= np.outer(t[other, enter], t[leave])


def lstsq_duals(status):
    """A `_basis_solve` whose dual solve is least squares on B^T y = c_B: an optimal
    solve makes it second, after the LU solve of B, an infeasible one alone."""
    basis_solve, calls = lpcore._basis_solve, []

    def solve(m, rhs):
        calls.append(m)
        if len(calls) == 1 + (status == "optimal"):
            return np.linalg.lstsq(m, rhs, rcond=None)[0]
        return basis_solve(m, rhs)
    return solve


def random_lp(rng, kind):
    """Small LP of one of six kinds: degenerate, infeasible, unbounded, free
    variables, two-sided bounds, redundant equalities.  The rows hold at a
    point x0 inside the bounds, and all kinds but "unbounded" carry the
    box rows -5 <= x <= 5."""
    n, m = int(rng.integers(2, 9)), int(rng.integers(1, 9))
    lo, up = np.zeros(n), np.full(n, np.inf)
    if kind == "free":
        lo[rng.uniform(0, 1, n) < 0.5] = -np.inf
        up[rng.uniform(0, 1, n) < 0.3] = 2.0
    elif kind == "two-sided":
        lo = rng.uniform(-1, 0.5, n)
        up = lo + rng.uniform(0, 2, n) * (rng.uniform(0, 1, n) < 0.8)
    x0 = np.clip(rng.uniform(-1, 2, n), lo, up)
    a = rng.uniform(-1, 1, (m, n)) * (rng.uniform(0, 1, (m, n)) > 0.4)
    rels = np.where(rng.uniform(0, 1, m) < 0.25, "==", "<=")
    slack = rng.uniform(0, 1, m) * (rng.uniform(0, 1, m) < (0.3 if kind == "degenerate" else 0.9))
    if kind == "degenerate":
        x0[rng.uniform(0, 1, n) < 0.5] = 0.0
        a, rels, slack = np.vstack([a, 2.0 * a[:1]]), np.append(rels, "<="), np.append(slack, 0.0)
    if kind == "redundant":
        a = np.vstack([a, a[:2].sum(axis=0), a[:1]])
        rels, slack = np.append(rels, ["==", "=="]), np.append(slack, [0.0, 0.0])
        rels[:2] = "=="
    if kind == "unbounded":
        a[:, 0] = -np.abs(a[:, 0])
    rhs = a @ x0 + np.where(rels == "==", 0.0, slack)
    obj = rng.uniform(-1, 1, n)
    if kind == "unbounded":
        obj[0] = -1.0
    else:
        a = np.vstack([a, np.eye(n), -np.eye(n)])
        rhs = np.concatenate([rhs, np.full(2 * n, 5.0)])
        rels = np.append(rels, ["<="] * (2 * n))
    if kind == "infeasible":
        a = np.vstack([a, a[:1], -a[:1]])
        rhs = np.concatenate([rhs, [-1.0, -1.0]])
        rels = np.append(rels, ["<=", "<="])
    return LinearProgram(obj, a, tuple(rels), rhs, lo, up)


def test_sparse_elimination_matches_dense_update_bit_for_bit(monkeypatch):
    # the row-sparse pivot and the LU basis solves keep every pivot choice and
    # vertex of the dense rank-1 update with lstsq duals
    kinds = ("degenerate", "infeasible", "unbounded", "free", "two-sided", "redundant")
    rng = np.random.default_rng(2026)
    seen = {}
    for trial in range(360):
        kind = kinds[trial % len(kinds)]
        lp = random_lp(rng, kind)
        got = solve_lp(lp)
        with monkeypatch.context() as patch:
            patch.setattr(lpcore, "_eliminate", dense_eliminate)
            patch.setattr(lpcore, "_basis_solve", lstsq_duals(got.status))
            want = solve_lp(lp)
        seen[kind, got.status] = seen.get((kind, got.status), 0) + 1
        assert (got.status, got.iterations) == (want.status, want.iterations), trial
        assert np.float64(got.objective_value).tobytes() == \
            np.float64(want.objective_value).tobytes(), trial
        if got.status == "optimal":
            assert got.x.tobytes() == want.x.tobytes(), trial
            scale = 1.0 + np.abs(want.dual).max(initial=0.0)
            assert np.abs(got.dual - want.dual).max(initial=0.0) <= 1e-9 * scale, trial
            slack = lp.row_rhs - lp.row_coeffs @ got.x
            ineq = np.array(lp.row_relations) == "<="
            assert np.all(np.abs(got.dual * slack) <= 1e-7 * scale * (1 + np.abs(lp.row_rhs)))
            assert np.all(got.dual[ineq] <= 1e-9 * scale), trial
        elif got.status == "unbounded":
            assert got.certificate.tobytes() == want.certificate.tobytes(), trial
        else:
            assert np.allclose(got.certificate, want.certificate, rtol=1e-9, atol=1e-9), trial
    for kind, status in (("degenerate", "optimal"), ("infeasible", "infeasible"),
                         ("unbounded", "unbounded"), ("free", "optimal"),
                         ("two-sided", "optimal"), ("redundant", "optimal")):
        assert seen.get((kind, status), 0) >= 10, seen


def tall_lps():
    """Synthesis LPs (n^2-ish rows) with and without K bounds, and poly3's
    reduced and full robust L1 LPs: pivots that touch more than 16 rows."""
    for n in (8, 12, 16, 20, 24):
        s = sysmodel.random_positive_system(n, 2, 2, 2, seed=n)
        yield f"synth n={n}", synthesis.synthesis_lp(s)
        spec = ControllerSpec(k_lower=-np.ones((2, n)), k_upper=np.ones((2, n)))
        yield f"bounded synth n={n}", synthesis.synthesis_lp(s, spec)
    rlp = robust.robust_gain(poly3_system(), "l1", ilc.FreePolynomial(2))
    plan = handelman.plan_relaxation(rlp, 2)
    yield "poly3 reduced", handelman.relax_reduced(rlp, 2, plan=plan)
    yield "poly3 full", handelman.relax_full(rlp, 2, plan=plan)


def test_solve_lp_agrees_with_highs():
    # status and objective of 100 seeded LPs of each kind, and of the tall
    # synthesis and robust LPs, against HiGHS' dual simplex as the
    # benchmark's answer checks call it
    pytest.importorskip("scipy.optimize")
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", Path(__file__).resolve().parents[1] / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    kinds = ("degenerate", "infeasible", "unbounded", "free", "two-sided", "redundant")
    rng = np.random.default_rng(2024)
    lps = [(kinds[trial % len(kinds)], random_lp(rng, kinds[trial % len(kinds)]))
           for trial in range(100 * len(kinds))]
    seen = set()
    for kind, lp in lps + list(tall_lps()):
        got = solve_lp(lp)
        status, objective, _ = checks.highs_solve(lp)
        seen.add((kind, got.status))
        assert got.status == status, kind
        if status == "optimal":
            assert abs(got.objective_value - objective) <= 1e-9 * max(1.0, abs(objective)), kind
    assert seen >= {("degenerate", "optimal"), ("infeasible", "infeasible"),
                    ("unbounded", "optimal"), ("unbounded", "unbounded"), ("free", "optimal"),
                    ("two-sided", "optimal"), ("redundant", "optimal")}, seen


class RecordingTableau(np.ndarray):
    """A tableau view that records the index of each item assignment into it
    or into an array computed from it."""

    keys = []

    def __setitem__(self, key, value):
        RecordingTableau.keys.append(key)
        super().__setitem__(key, value)


def update_taken(eliminate, t, leave, enter):
    """Pivot with `eliminate` through a `RecordingTableau` view of t; returns
    "whole" if it assigned whole columns (`t[:, j] -= ...`), "gather" if it
    assigned a block at two index arrays (`t[rows[:, None], cols] -= ...`),
    else None."""
    RecordingTableau.keys.clear()
    eliminate(t.view(RecordingTableau), leave, enter)
    firsts = [type(key[0]) for key in RecordingTableau.keys if isinstance(key, tuple)]
    return "whole" if slice in firsts else "gather" if np.ndarray in firsts else None


def tall_solves_match_dense_update(monkeypatch, branch):
    """Solve each tall LP, counting the pivots that take `branch` ("whole" or
    "gather", as `update_taken` names them) of the column-sparse update, and
    check every pivot choice, vertex, dual and certificate against the dense
    rank-1 update, byte for byte; returns {name: count}."""
    eliminate, counts = lpcore._eliminate, {}

    def recording_eliminate(t, leave, enter):
        counts[name] += update_taken(eliminate, t, leave, enter) == branch
    for name, lp in tall_lps():
        counts[name] = 0
        with monkeypatch.context() as patch:
            patch.setattr(lpcore, "_eliminate", recording_eliminate)
            got = solve_lp(lp)
        with monkeypatch.context() as patch:
            patch.setattr(lpcore, "_eliminate", dense_eliminate)
            want = solve_lp(lp)
        assert (got.status, got.iterations) == (want.status, want.iterations), name
        for field in ("x", "objective_value", "dual", "certificate"):
            g, w = getattr(got, field), getattr(want, field)
            assert (g is None) == (w is None), (name, field)
            assert np.float64(g).tobytes() == np.float64(w).tobytes(), (name, field)
    return counts


def test_column_sparse_pivots_match_dense_update_bit_for_bit(monkeypatch):
    # the update gathered over the touched rows and the pivot row's nonzero
    # columns runs on every tall LP and keeps the dense update's bits
    counts = tall_solves_match_dense_update(monkeypatch, "gather")
    assert all(counts.values()), counts


def test_column_loop_pivots_match_dense_update_bit_for_bit(monkeypatch):
    # the whole-column update runs on the synthesis LPs with n >= 16, whose
    # sparse pivots touch over 200 rows and most of the tableau, and keeps the
    # dense update's bits
    counts = tall_solves_match_dense_update(monkeypatch, "whole")
    assert all(counts[f"{kind}synth n={n}"] for kind in ("", "bounded ") for n in (16, 20, 24)), \
        counts


def test_column_sparse_elimination_differs_only_in_signs_of_zeros():
    # 30 rows touched, 4 nonzero pivot-row entries of 40: the column branch;
    # -0.0 sits in skipped columns, where t - m * 0 may flip it to +0.0
    rng = np.random.default_rng(7)
    t = np.zeros((31, 40))
    t[:, [3, 17, 29]] = rng.uniform(-1, 1, (31, 3))
    t[:, 5] = -0.0
    t[::2, 9] = rng.uniform(-1, 1, 16)
    t[1::2, 9] = -0.0
    t[0, 11] = -0.0
    got, want = t.copy(), t.copy()
    lpcore._eliminate(got, 0, 17)
    dense_eliminate(want, 0, 17)
    assert np.array_equal(got, want)
    differ = got.view(np.int64) != want.view(np.int64)
    assert differ.any() and np.all(got[differ] == 0.0)


def whole_column_tableau():
    """A 400 x 60 tableau whose pivot t[0, 30] touches 300 rows with 7 of 60
    pivot-row entries nonzero: the whole-column update; -0.0 sits in a skipped
    column of the touched rows, in the pivot row and in untouched rows."""
    rng = np.random.default_rng(13)
    t = np.zeros((400, 60))
    t[:, [2, 9, 23, 41, 57]] = rng.uniform(-1, 1, (400, 5))
    t[::3, 11] = rng.uniform(-1, 1, 134)
    t[:301, 30] = rng.uniform(0.5, 1, 301)
    t[301::2, 30] = -0.0
    t[1:301:2, 5] = -0.0
    t[301:, 47] = -0.0
    t[0, [5, 13]] = -0.0
    return t


def test_column_loop_elimination_differs_only_in_signs_of_zeros():
    t = whole_column_tableau()
    got, want = t.copy(), t.copy()
    assert update_taken(lpcore._eliminate, got, 0, 30) == "whole"
    dense_eliminate(want, 0, 30)
    assert np.array_equal(got, want)
    differ = got.view(np.int64) != want.view(np.int64)
    assert differ.any() and np.all(got[differ] == 0.0)
    assert got[0].tobytes() == (t[0] / t[0, 30]).tobytes()


def test_column_loop_elimination_makes_no_tableau_sized_temporary():
    # the gather over 300 rows and 7 columns would hold two 16.8 KB blocks
    t = whole_column_tableau()
    tracemalloc.start()
    try:
        lpcore._eliminate(t, 0, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * t.nbytes


def counting_einsum(patch):
    """Spy on np.einsum, which only the in-place dense branch of `_eliminate`
    calls; returns the list of its calls' row counts."""
    einsum, calls = np.einsum, []

    def spy(subscripts, a, b):
        calls.append(a.size)
        return einsum(subscripts, a, b)
    patch.setattr(np, "einsum", spy)
    return calls


def test_dense_pivots_match_dense_update_bit_for_bit(monkeypatch):
    # square gain LPs: phase-1 pivots touch nearly every row with a pivot row
    # about half full, so they take the in-place dense branch, and still keep
    # every pivot choice, vertex, dual and certificate byte for byte
    for n in (24, 72, 120):
        s = sysmodel.random_positive_system(n, 0, 3, 3, seed=n)
        for name, lp in ((f"{norm} n={n}", gains.gain_lp(s, norm)) for norm in ("l1", "linf")):
            with monkeypatch.context() as patch:
                dense_pivots = counting_einsum(patch)
                got = solve_lp(lp)
            assert dense_pivots, name
            with monkeypatch.context() as patch:
                patch.setattr(lpcore, "_eliminate", dense_eliminate)
                want = solve_lp(lp)
            assert (got.status, got.iterations) == (want.status, want.iterations), name
            for field in ("x", "objective_value", "dual", "certificate"):
                g, w = getattr(got, field), getattr(want, field)
                assert (g is None) == (w is None), (name, field)
                assert np.float64(g).tobytes() == np.float64(w).tobytes(), (name, field)


def test_dense_elimination_differs_only_in_signs_of_zeros(monkeypatch):
    # 14 of 21 rows touched and a half-full pivot row: the in-place branch;
    # -0.0 sits in the untouched rows, where t - 0*p may flip it, and in the
    # pivot row, which gets x - (+0.0) and so keeps every bit
    rng = np.random.default_rng(11)
    t = rng.uniform(-1, 1, (21, 12)) * (rng.uniform(0, 1, (21, 12)) < 0.7)
    t[15:] = -0.0
    t[15:, ::3] = rng.uniform(-1, 1, (6, 4))
    t[15:, 3] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
    t[:15, 3] = rng.uniform(0.5, 1, 15)
    t[0, [1, 5, 7, 11]] = -0.0
    t[0, [2, 6]] = 0.0
    got, want = t.copy(), t.copy()
    with monkeypatch.context() as patch:
        dense_pivots = counting_einsum(patch)
        lpcore._eliminate(got, 0, 3)
    assert dense_pivots == [21]
    dense_eliminate(want, 0, 3)
    assert np.array_equal(got, want)
    differ = got.view(np.int64) != want.view(np.int64)
    assert np.all(got[differ] == 0.0)
    assert got[0].tobytes() == (t[0] / t[0, 3]).tobytes()


def test_dense_elimination_makes_one_tableau_sized_temporary():
    # a 123 x 368 tableau (the n = 120 gain LP's size) whose pivot touches
    # every row, with a half-full pivot row; a row gather and its product
    # would peak above twice the tableau
    rng = np.random.default_rng(5)
    t = rng.uniform(-1, 1, (123, 368)) * (rng.uniform(0, 1, (123, 368)) < 0.5)
    t[:, 40] = rng.uniform(0.5, 1, 123)
    assert 0.4 < np.count_nonzero(t[7]) / t.shape[1] < 0.6
    tracemalloc.start()
    try:
        lpcore._eliminate(t, 7, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t.nbytes


def test_einsum_products_match_multiply_outer():
    # the dense branch's products: einsum forms np.multiply.outer's IEEE
    # products, overflow, underflow and subnormals included, without its
    # overflow warning; only the signs of zero products may differ
    v = np.array([0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                  1e-300, -3e-301, 3e300, -7e299, -1.7976931348623157e308])
    a, b = np.concatenate([v, 0.75 * v[::-1]]), np.concatenate([-0.5 * v, v])
    with np.errstate(over="raise"):
        got = np.einsum("i,j->ij", a, b)
    with np.errstate(over="ignore"):
        want = np.multiply.outer(a, b)
    assert np.isinf(want).any() and (np.abs(want[want != 0]) < 2.3e-308).any()
    assert np.array_equal(got, want)
    differ = got.view(np.int64) != want.view(np.int64)
    assert np.all(want[differ] == 0.0)


def assert_farkas_certificate(lp, y):
    """The documented sign of `LpSolution.certificate`: y <= 0 on "<=" rows,
    free on "==" rows, and sup over the bound box of y^T G x < y^T h; the
    entries of y and y^T G within rounding of zero count as zero."""
    assert np.all(y[np.array(lp.row_relations) == "<="] <= 1e-12 * np.abs(y).max())
    c = y @ lp.row_coeffs
    c[np.abs(c) <= 1e-12 * (np.abs(y) @ np.abs(lp.row_coeffs))] = 0.0
    corner = np.where(c > 0, lp.var_upper, np.where(c < 0, lp.var_lower, 0.0))
    assert np.sum(c * corner) < y @ lp.row_rhs


def test_infeasibility_certificate_has_the_dual_sign(monkeypatch):
    # unstable Metzler A (A 1 > 0): the stability LP is infeasible
    solved = []

    def recording_solve(lp):
        solved.append((lp, solve_lp(lp)))
        return solved[-1][1]

    monkeypatch.setattr(sysmodel, "solve_lp", recording_solve)
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(24):
        a = rng.uniform(0.0, 1.0, (4, 4))
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, rng.uniform(0.05, 1.0, 4) - a.sum(axis=1))
        assert not sysmodel.metzler_stable(a)
        lp, sol = solved[-1]
        assert sol.status == "infeasible"
        assert_farkas_certificate(lp, sol.certificate)
    # no bounded controller makes this loop positive and stable
    s = sysmodel.PositiveLtiSystem(
        A=[[-1.0, -0.5], [-0.4, -1.0]], B=[[1.0], [0.0]], C=[[1.0, 0.0]],
        D=[[0.0]], E=np.eye(2), F=np.zeros((1, 2)))
    spec = ControllerSpec(k_lower=np.zeros((1, 2)), k_upper=np.zeros((1, 2)))
    with pytest.raises(InfeasibleError) as err:
        synthesis.stabilize_linf(s, spec)
    assert_farkas_certificate(err.value.lp, err.value.certificate)


def test_policy_margins_must_be_finite():
    for margins in ({"epsilon": np.inf}, {"lambda_floor": np.inf}, {"epsilon": np.nan}):
        with pytest.raises(ValidationError, match="must be finite and strictly positive"):
            StrictnessPolicy(**margins)


def test_linear_program_validates_on_construction():
    # no call to validate or solve_lp: the constructor refuses bad data
    good = dict(objective=np.ones(2), row_coeffs=np.ones((1, 2)), row_relations=("<=",),
                row_rhs=np.ones(1), var_lower=np.zeros(2), var_upper=np.full(2, np.inf))
    for field, bad, message in (("row_coeffs", np.ones((1, 3)), "shape"),
                                ("row_relations", ("<",), "relations"),
                                ("objective", np.array([1.0, np.nan]), "non-finite"),
                                ("var_lower", np.array([0.0, np.inf]), "empty variable domain"),
                                ("var_names", ("x",), "var_names")):
        with pytest.raises(ValidationError, match=message):
            LinearProgram(**{**good, field: bad})


def test_built_and_solved_lp_is_validated_once(monkeypatch):
    calls = []
    validate = LinearProgram.validate
    monkeypatch.setattr(LinearProgram, "validate",
                        lambda self: calls.append(1) or validate(self))
    b, x = simple_lp()
    b.add_row({x: 1.0}, ">=", 1.0, "floor")
    sol = solve_lp(b.build())
    assert sol.status == "optimal" and sol.x.tolist() == [1.0]
    assert calls == [1]


def test_lps_without_rows_put_each_variable_at_its_cost_bound():
    # lower-only, upper-only, free, two-sided and fixed variables, costs of
    # both signs and zero; the bounds are multiples of 1/8, so a two-sided
    # variable shifted by its lower bound, lo + (up - lo), lands on up exactly
    rng = np.random.default_rng(12)
    seen = set()
    for trial in range(300):
        n = int(rng.integers(1, 7))
        kind = rng.integers(0, 5, n)
        lo = rng.integers(-16, 16, n) / 8
        up = np.where(kind == 4, lo, lo + rng.integers(1, 16, n) / 8)
        lo[(kind == 1) | (kind == 2)] = -np.inf
        up[(kind == 0) | (kind == 2)] = np.inf
        obj = rng.integers(-1, 2, n) * rng.uniform(0.5, 2.0, n)
        lp = LinearProgram(obj, np.zeros((0, n)), (), np.zeros(0), lo, up)
        sol = solve_lp(lp)
        to_infinity = ((obj < 0) & (up == np.inf)) | ((obj > 0) & (lo == -np.inf))
        seen.add((sol.status, to_infinity.any()))
        if to_infinity.any():
            assert sol.status == "unbounded", trial
            ray = sol.certificate
            assert obj @ ray < 0, trial
            assert np.all(up[ray > 0] == np.inf) and np.all(lo[ray < 0] == -np.inf), trial
            continue
        # a zero cost keeps the standard form's origin: the finite lower
        # bound, else the upper one, else 0
        origin = np.where(np.isfinite(lo), lo, np.where(np.isfinite(up), up, 0.0))
        want = np.where(obj < 0, up, np.where(obj > 0, lo, origin))
        assert sol.status == "optimal", trial
        assert sol.x.tobytes() == want.tobytes(), trial
        assert sol.objective_value == float(obj @ want) and sol.dual.size == 0, trial
    assert seen == {("optimal", False), ("unbounded", True)}


def reference_simplex_loop(t, basis, cost, num_structural, max_iterations, start_iter,
                           bland_fired=None):
    """The simplex loop as it was before it kept the basic costs alongside
    the basis: a cost[basis] gather per pivot and np.* wrappers.  Appends
    the iteration at which Bland's rule takes over to `bland_fired`."""
    ncols = t.shape[1] - 1
    degenerate = 0
    bland = False
    it = start_iter
    while True:
        if it >= max_iterations:
            raise NonConvergenceError(f"simplex hit the iteration cap ({max_iterations})")
        red = cost - cost[basis] @ t[:, :ncols]
        red[basis] = 0.0
        if bland:
            cand = np.flatnonzero(red < -lpcore._RCOST_TOL)
            if cand.size == 0:
                return "optimal", it, -1
            enter = int(cand[0])
        else:
            enter = int(np.argmin(red))
            if red[enter] >= -lpcore._RCOST_TOL:
                return "optimal", it, -1
        col = t[:, enter]
        pos = np.flatnonzero(col > lpcore._PIVOT_TOL)
        if pos.size == 0:
            return "unbounded", it, enter
        ratios = t[pos, -1] / col[pos]
        rmin = float(ratios.min())
        ties = pos[ratios <= rmin * (1 + 1e-9) + 1e-12]
        if bland:
            leave = int(ties[np.argmin(basis[ties])])
        else:
            leave = int(ties[np.argmax(col[ties])])
        if rmin <= 1e-12:
            degenerate += 1
            if degenerate > 10 * max(1, num_structural):
                if not bland and bland_fired is not None:
                    bland_fired.append(it)
                bland = True
        lpcore._eliminate(t, leave, enter)
        basis[leave] = enter
        it += 1


def loop_reference_lps():
    """Gain, synthesis and poly3 robust LPs, and random LPs of every kind."""
    for n in (8, 24, 48):
        s = sysmodel.random_positive_system(n, 0, 3, 3, seed=n)
        yield f"l1 n={n}", gains.gain_lp(s, "l1")
        yield f"linf n={n}", gains.gain_lp(s, "linf")
    yield from tall_lps()
    kinds = ("degenerate", "infeasible", "unbounded", "free", "two-sided", "redundant")
    rng = np.random.default_rng(2027)
    for trial in range(120):
        yield f"random {trial}", random_lp(rng, kinds[trial % len(kinds)])


def test_simplex_loop_matches_reference_loop_bit_for_bit(monkeypatch):
    seen = set()
    for name, lp in loop_reference_lps():
        got = solve_lp(lp)
        with monkeypatch.context() as patch:
            patch.setattr(lpcore, "_simplex_loop", reference_simplex_loop)
            want = solve_lp(lp)
        seen.add(got.status)
        assert (got.status, got.iterations) == (want.status, want.iterations), name
        for field in ("x", "objective_value", "dual", "certificate"):
            g, w = getattr(got, field), getattr(want, field)
            assert (g is None) == (w is None), (name, field)
            assert np.float64(g).tobytes() == np.float64(w).tobytes(), (name, field)
    assert seen == {"optimal", "infeasible", "unbounded"}


def degenerate_tableau(seed, m=12, n=30):
    """[A | I | 0] with slack basis: every pivot is degenerate."""
    rng = np.random.default_rng(seed)
    t = np.zeros((m, n + m + 1))
    t[:, :n] = rng.uniform(-1, 1, (m, n)) * (rng.uniform(0, 1, (m, n)) < 0.6)
    t[:, n:n + m] = np.eye(m)
    cost = np.zeros(n + m)
    cost[:n] = rng.uniform(-1, 1, n)
    return t, np.arange(n, n + m), cost


def run_loop(loop, seed, num_structural, patch, **kwargs):
    """(result, pivots, tableau, basis) of `loop` on `degenerate_tableau(seed)`."""
    t, basis, cost = degenerate_tableau(seed)
    eliminate, pivots = lpcore._eliminate, []
    with patch.context() as p:
        p.setattr(lpcore, "_eliminate",
                  lambda t, leave, enter: pivots.append((leave, enter)) or eliminate(t, leave, enter))
        result = loop(t, basis, cost, num_structural, 1000, 0, **kwargs)
    return result, pivots, t, basis


def test_simplex_loop_matches_reference_loop_under_blands_rule(monkeypatch):
    # num_structural = 0 spends the degenerate budget after 10 pivots
    for seed, status in ((99, "optimal"), (18, "unbounded")):
        fired = []
        want = run_loop(reference_simplex_loop, seed, 0, monkeypatch, bland_fired=fired)
        got = run_loop(lpcore._simplex_loop, seed, 0, monkeypatch)
        dantzig = run_loop(reference_simplex_loop, seed, 10**6, monkeypatch)
        assert fired == [10] and want[0][0] == status, seed
        # the first 11 pivots are Dantzig's; Bland's rule then picks others
        assert dantzig[1][:11] == want[1][:11] and dantzig[1] != want[1], seed
        assert got[:2] == want[:2], seed
        assert got[2].tobytes() == want[2].tobytes() and np.array_equal(got[3], want[3])


def recording_cost(cost, record):
    """A view of `cost` whose derived arrays record how the simplex loop
    prices: record["gemv"] counts `@` products, record["one_row"] the
    searches for cb's nonzero entries (`nonzero` of a float array), and
    record["reds"] keeps each reduced-cost vector as priced, before its
    basic entries are zeroed."""
    class Recording(np.ndarray):
        def __matmul__(self, other):
            record["gemv"] += 1
            return super().__matmul__(other)

        def nonzero(self):
            record["one_row"] += self.dtype == float
            return super().nonzero()

        def __setitem__(self, key, value):
            if isinstance(key, np.ndarray):
                record["reds"].append(np.array(self))
            super().__setitem__(key, value)
    return cost.view(Recording)


def new_record():
    return {"gemv": 0, "one_row": 0, "reds": [], "exact": 0, "certified": 0, "optimal": 0}


def gemv_entering(cost, cb, body, basis, bland=False):
    """Dantzig's choice, or Bland's, on the gemv's reduced costs: the entering column, or -1
    when optimal."""
    red = cost - cb @ body
    red[basis] = 0.0
    if bland:
        cand = (red < -lpcore._RCOST_TOL).nonzero()[0]
        return int(cand[0]) if cand.size else -1
    enter = int(red.argmin())
    return enter if red[enter] < -lpcore._RCOST_TOL else -1


def pricing_products(entering, cost, cb, body, basis, bland=False):
    """(choice, heights) of `entering`, `lpcore._entering` unpatched: its entering column and
    the row count of the right operand of each `@` product it forms, `body`'s for the gemv
    and fewer for a read."""
    heights = []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            heights.append(other.shape[0])
            return super().__matmul__(other)
    return entering(cost, np.asarray(cb).view(Counting), body, basis, bland), heights


def checking_entering(record):
    """`lpcore._entering` that asserts each choice is the gemv's and counts the pricings in
    record: "exact" with at most one nonzero cb (and no product), "certified" settled by the
    read of the rows with a nonzero cb (and no gemv), of which "optimal" found no entering
    column, and "gemv"."""
    entering = lpcore._entering

    def check(cost, cb, body, basis, bland):
        enter, heights = pricing_products(entering, cost, cb, body, basis, bland)
        assert enter == gemv_entering(cost, cb, body, basis, bland)
        if np.count_nonzero(cb) <= 1:
            assert heights == []
            record["exact"] += 1
        elif body.shape[0] in heights:
            record["gemv"] += 1
        else:
            assert heights and max(heights) < body.shape[0]
            record["certified"] += 1
            record["optimal"] += enter < 0
        return enter
    return check


def test_one_row_pricing_is_the_gemv_result():
    # widths 40..43 cover the gemv kernel's N mod 4 tails; one cost of either
    # sign, basic or not, -0.0 in the body and among the zero costs; then
    # several nonzero costs of which one is basic, or none is; the first
    # pricing equals the gemv's, bit for bit at every nonzero, with no product
    rng = np.random.default_rng(17)
    for trial in range(96):
        m, ncols = 9, 40 + trial % 4
        t = rng.uniform(-1, 1, (m, ncols + 1)) * 10.0 ** rng.uniform(-3, 3, (m, ncols + 1))
        t[rng.uniform(0, 1, t.shape) < 0.3] = 0.0
        t[rng.uniform(0, 1, t.shape) < 0.2] = -0.0
        t[:, -1] = rng.uniform(0, 1, m)
        basis = rng.choice(ncols, m, replace=False)
        cost = np.where(rng.uniform(0, 1, ncols) < 0.5, 0.0, -0.0)
        nonbasic = np.setdiff1d(np.arange(ncols), basis)
        if trial < 48:
            j = basis[trial % m] if trial % 3 else nonbasic[trial % 5]
            cost[j] = rng.uniform(0.5, 2.0) * (-1.0) ** trial
        else:
            j = rng.choice(nonbasic, 2 + trial % 7, replace=False)
            cost[j] = rng.uniform(-2.0, 2.0, j.size) * 10.0 ** rng.uniform(-3, 3, j.size)
            if trial % 2:
                cost[basis[trial % m]] = rng.uniform(0.5, 2.0) * (-1.0) ** (trial // 2)
            assert np.count_nonzero(cost) > 1 and np.count_nonzero(cost[basis]) == trial % 2
        want = cost - cost[basis] @ t[:, :ncols]
        record = new_record()
        try:
            lpcore._simplex_loop(t, basis, recording_cost(cost, record), ncols, 1, 0)
        except NonConvergenceError:
            pass
        got = record["reds"][0]
        assert (record["gemv"], record["one_row"]) == (0, 1), trial
        assert np.array_equal(got, want), trial
        assert got[want != 0].tobytes() == want[want != 0].tobytes(), trial


def test_synthesis_phase_2_prices_one_row_and_phase_1_the_gemv(monkeypatch):
    # the synthesis objective is gamma alone, so phase 2 reads one row exactly;
    # every phase 1 of the tall LPs has several artificial columns with cost 1,
    # and each of its pricings is the gemv, a certified choice or, once at most
    # one artificial is basic, the exact read, each equal to the gemv's; the
    # n = 24 synthesis LPs take at least one certified choice
    loop, calls = lpcore._simplex_loop, []

    def recording_loop(t, basis, cost, num_structural, max_iterations, start_iter):
        record = new_record()
        with monkeypatch.context() as patch:
            patch.setattr(lpcore, "_entering", checking_entering(record))
            status, it, enter = loop(t, basis, cost, num_structural, max_iterations, start_iter)
        calls[-1].append((np.count_nonzero(cost), record, it - start_iter + 1))
        return status, it, enter
    monkeypatch.setattr(lpcore, "_simplex_loop", recording_loop)
    for name, lp in tall_lps():
        calls.append([name])
        solve_lp(lp)
    exact_in_phase_1 = 0
    for name, *loops in calls:
        assert len(loops) == 2 and loops[0][0] > 1, name
        for _, record, pricings in loops:
            assert record["exact"] + record["certified"] + record["gemv"] == pricings, name
        exact_in_phase_1 += loops[0][1]["exact"]
        if "synth" in name:
            assert loops[1][0] == 1, name
            assert loops[1][1]["exact"] == loops[1][2], name
        if name.endswith("synth n=24"):
            assert loops[0][1]["certified"] > 0, name
    assert exact_in_phase_1 > 0


def tie_tableau(exact_tie=True):
    """A 64 x 4161 phase-1 tableau, [structural | identity basis | rhs], whose first three
    rows have artificial basic columns (cost 1).  With `exact_tie` columns 0 and 1 carry
    [1e16, 1, -1e16] and [1, 1e16, -1e16] there: both reduced costs are exactly -1, but a
    sum's rounding order moves each to 0 or -1.  Column 2, with 0.5 in row 0, prices at -0.5."""
    m, structural = 64, 4096
    t = np.zeros((m, structural + m + 1))
    if exact_tie:
        t[:3, 0] = [1e16, 1.0, -1e16]
        t[:3, 1] = [1.0, 1e16, -1e16]
    t[0, 2] = 0.5
    t[:, structural:structural + m] = np.eye(m)
    t[:, -1] = 1.0
    basis = structural + np.arange(m)
    cost = np.zeros(structural + m)
    cost[basis[:3]] = 1.0
    return t, basis, cost


def test_certified_pricing_leaves_rounding_order_to_the_gemv(monkeypatch):
    # a tie whose floating-point sums depend on their order is not settled by
    # the artificial rows; the loop's choice is the gemv's.  Without the tie
    # column 2 is certified, unless column 3 equals it, and a tableau whose
    # last artificial row is gone is certified optimal
    t, basis, cost = tie_tableau()
    body = t[:, :-1]
    assert body.size >= lpcore._CERTIFY_MIN_ENTRIES
    want = gemv_entering(cost, cost[basis], body, basis)
    assert want in (0, 1, 2)
    enter, heights = pricing_products(lpcore._entering, cost, cost[basis], body, basis)
    assert enter == want and heights[-1] == 64 and set(heights[:-1]) == {3}
    pivots, record = [], new_record()
    with monkeypatch.context() as patch:
        patch.setattr(lpcore, "_eliminate", lambda t, leave, enter: pivots.append(enter))
        patch.setattr(lpcore, "_entering", checking_entering(record))
        with pytest.raises(NonConvergenceError):
            lpcore._simplex_loop(t, basis, cost, body.shape[1], 1, 0)
    assert pivots == [want] and (record["gemv"], record["certified"]) == (1, 0)
    t, basis, cost = tie_tableau(exact_tie=False)
    body = t[:, :-1]
    assert pricing_products(lpcore._entering, cost, cost[basis], body, basis) == (2, [3, 3])
    t[:, 3] = t[:, 2]
    assert pricing_products(lpcore._entering, cost, cost[basis], body, basis) == (2, [3, 64])
    t[:, 3] = 0.0
    cost[basis[:3]] = 0.0
    cost[basis[:2]] = 1.0
    t[0, 2] = 0.0
    assert pricing_products(lpcore._entering, cost, cost[basis], body, basis) == (-1, [2, 2])


def test_certified_pricing_chooses_as_the_gemv(monkeypatch):
    # at every pricing of the tall LPs, and of 360 random LPs with the size
    # floor and the row share lifted, the gemv's reduced costs pick the same
    # entering column or the same optimal verdict; every solve keeps its bytes
    record = new_record()
    monkeypatch.setattr(lpcore, "_entering", checking_entering(record))
    for name, lp in tall_lps():
        solve_lp(lp)
    tall = dict(record)
    # the last phase-1 steps, with at most one artificial basic, are exact reads
    assert tall["certified"] > tall["optimal"] and tall["exact"] > 0, tall
    kinds = ("degenerate", "infeasible", "unbounded", "free", "two-sided", "redundant")
    rng = np.random.default_rng(2026)
    for trial in range(360):
        lp = random_lp(rng, kinds[trial % len(kinds)])
        want = solve_lp(lp)
        with monkeypatch.context() as patch:
            patch.setattr(lpcore, "_CERTIFY_MIN_ENTRIES", 0)
            patch.setattr(lpcore, "_CERTIFY_ROW_SHARE", 1)
            got = solve_lp(lp)
        assert (got.status, got.iterations) == (want.status, want.iterations), trial
        for field in ("x", "objective_value", "dual", "certificate"):
            g, w = getattr(got, field), getattr(want, field)
            assert (g is None) == (w is None), (trial, field)
            assert np.float64(g).tobytes() == np.float64(w).tobytes(), (trial, field)
    columns = record["certified"] - record["optimal"] - tall["certified"] + tall["optimal"]
    assert columns > 0 and record["optimal"] > tall["optimal"], (tall, record)


def copying_drive_out_artificials(t, basis, ncols):
    """The drive-out as it was before phase 2 ran on a view of the phase-1
    tableau: pivot zero-level artificials out, drop redundant rows, then
    copy the structural columns and the rhs into a new tableau."""
    keep = np.ones(t.shape[0], dtype=bool)
    for i in (basis >= ncols).nonzero()[0]:
        pivots = (np.abs(t[i, :ncols]) > 1e-7).nonzero()[0]
        if pivots.size:
            basis[i] = pivots[0]
            lpcore._eliminate(t, i, basis[i])
        else:
            keep[i] = False
    t, basis = t[keep], basis[keep]
    return np.hstack([t[:, :ncols], t[:, -1:]]), basis


def test_phase_2_runs_on_a_view_of_the_phase_1_tableau(monkeypatch):
    # with no row dropped phase 2's tableau shares phase 1's memory; with a
    # redundant row dropped it is a copy; either way every pivot, vertex,
    # dual and certificate is the copying drive-out's, byte for byte
    loop, tableaus = lpcore._simplex_loop, []

    def recording_loop(t, *args):
        tableaus.append(t)
        return loop(t, *args)
    rng = np.random.default_rng(2028)
    randoms = [(f"random {trial}", random_lp(rng, ("redundant", "degenerate")[trial % 2]))
               for trial in range(40)]
    seen = set()
    for name, lp in list(tall_lps()) + randoms:
        tableaus.clear()
        with monkeypatch.context() as patch:
            patch.setattr(lpcore, "_simplex_loop", recording_loop)
            got = solve_lp(lp)
        with monkeypatch.context() as patch:
            patch.setattr(lpcore, "_drive_out_artificials", copying_drive_out_artificials)
            want = solve_lp(lp)
        assert (got.status, got.iterations) == (want.status, want.iterations), name
        for field in ("x", "objective_value", "dual", "certificate"):
            g, w = getattr(got, field), getattr(want, field)
            assert (g is None) == (w is None), (name, field)
            assert np.float64(g).tobytes() == np.float64(w).tobytes(), (name, field)
        if len(tableaus) == 2:
            dropped = tableaus[1].shape[0] < tableaus[0].shape[0]
            assert np.shares_memory(*tableaus) != dropped, name
            seen.add((name.split()[0], dropped))
    assert {("synth", False), ("random", True)} <= seen, seen


def test_solve_lp_holds_no_phase_2_copy():
    # the n = 24 synthesis LP: a 626 x 747 standard form, a phase-1 tableau 27
    # columns wider and a basis matrix; a phase-2 tableau copied out of the
    # phase-1 one would peak at 3.05 times the standard form
    lp = synthesis.synthesis_lp(sysmodel.random_positive_system(24, 2, 2, 2, seed=24))
    size = lpcore._Standardizer(lp).a.nbytes
    tracemalloc.start()
    try:
        solve_lp(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * size


def verification_lp():
    """min x0 + 2 x1 subject to x0 + x1 <= 50, x0 - x1 == 1 and x >= 0: the vertex (1, 0),
    with the first row slack and the standard-form rhs (50, 1)."""
    return LinearProgram(np.array([1.0, 2.0]), np.array([[1.0, 1.0], [1.0, -1.0]]),
                         ("<=", "=="), np.array([50.0, 1.0]), np.zeros(2), np.full(2, np.inf))


def test_perturbed_vertex_fails_primal_verification(monkeypatch):
    # the vertex's LU solve comes before the duals'; 0.25 more on every basic
    # entry breaks the equality row and leaves the slack one
    assert solve_lp(verification_lp()).x.tolist() == [1.0, 0.0]
    basis_solve, calls = lpcore._basis_solve, []

    def perturbed_basis_solve(m, rhs):
        calls.append(rhs)
        return basis_solve(m, rhs) + (0.25 if len(calls) == 1 else 0.0)
    monkeypatch.setattr(lpcore, "_basis_solve", perturbed_basis_solve)
    with pytest.raises(NonConvergenceError) as err:
        solve_lp(verification_lp())
    assert str(err.value) == "optimal vertex failed primal verification on row 1 (residual 2.500e-01)"
    assert calls[0].tolist() == [50.0, 1.0]


@pytest.mark.parametrize("objective, coeff, rhs, lower, upper, shift, which", [
    (-1.0, 1.0, 1.0, 0.5, np.inf, -0.75, "lower"),
    (1.0, -1.0, -1.0, 0.0, 1.2, 0.5, "upper"),
], ids=["lower", "upper"])
def test_perturbed_vertex_fails_bound_verification(monkeypatch, objective, coeff, rhs, lower,
                                                   upper, shift, which):
    # max x0 s.t. x0 <= 1, x0 >= 0.5 and min x0 s.t. -x0 <= -1, x0 <= 1.2, both at x0 = 1:
    # the vertex's LU solve shifted to 0.25 or to 1.5 keeps the row and leaves the bound
    def lp():
        return LinearProgram(np.array([objective]), np.array([[coeff]]), ("<=",),
                             np.array([rhs]), np.array([lower]), np.array([upper]))
    assert solve_lp(lp()).x.tolist() == [1.0]
    basis_solve, calls = lpcore._basis_solve, []

    def perturbed_basis_solve(m, rhs):
        calls.append(rhs)
        return basis_solve(m, rhs) + (shift if len(calls) == 1 else 0.0)
    monkeypatch.setattr(lpcore, "_basis_solve", perturbed_basis_solve)
    with pytest.raises(NonConvergenceError) as err:
        solve_lp(lp())
    assert str(err.value) == f"optimal vertex failed {which}-bound verification"


def test_perturbed_dual_fails_the_duality_gap(monkeypatch):
    # y + 1 moves y^T b by 50 + 1 away from the objective 1; the duals' LU solve of
    # B^T comes after the vertex's
    basis_solve, calls = lpcore._basis_solve, []

    def perturbed_basis_solve(m, rhs):
        calls.append(rhs)
        return basis_solve(m, rhs) + (1.0 if len(calls) == 2 else 0.0)
    monkeypatch.setattr(lpcore, "_basis_solve", perturbed_basis_solve)
    with pytest.raises(NonConvergenceError) as err:
        solve_lp(verification_lp())
    assert str(err.value) == "duality gap 5.100e+01 exceeds tolerance"


def test_tableau_over_the_cap_is_refused_before_it_is_allocated(monkeypatch):
    # 300 rows over 2 variables, each with a negative rhs and so an artificial
    # column: a 300 x 603 phase-1 tableau of 1,447,200 bytes
    rng = np.random.default_rng(5)
    lp = LinearProgram(np.ones(2), -rng.uniform(0.5, 1.0, (300, 2)), ("<=",) * 300,
                       -np.ones(300), np.zeros(2), np.full(2, np.inf))
    assert solve_lp(lp).status == "optimal"
    monkeypatch.setattr(lpcore, "TABLEAU_CAP", 10 ** 6)
    tracemalloc.start()
    try:
        with pytest.raises(CombinatorialCapError) as err:
            solve_lp(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("the phase-1 tableau of shape 300 x 603 needs 1447200 bytes, "
                              "over the cap of 1000000")
    assert peak < 1447200 / 16, peak
