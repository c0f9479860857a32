import tracemalloc

import numpy as np
import pytest

from poslp import gains, handelman, ilc, lft, lpcore, robust, synthesis, sysmodel
from poslp.cases import gene_expression_system, poly3_system
from poslp.errors import InfeasibleError, NonConvergenceError, ValidationError
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
    sol = solve_lp(gains.linf_lp(sys0))
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
        res = gains.l1_gain(sys5, StrictnessPolicy(epsilon=eps))
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


def test_standard_form_matches_loop_reference_bit_for_bit():
    # lower-only, upper-only, free and two-sided variables, "<=" and "=="
    # rows, zero costs of both signs; compare values and sign bits
    from poslp.lpcore import _Standardizer
    rng = np.random.default_rng(11)
    for trial in range(150):
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
        lp = lp.build()
        std = _Standardizer(lp)
        a, b, cost, offset, row_sign, slack_of_row, back = loop_standard_form(lp)
        x_std = rng.uniform(-1, 1, a.shape[1])
        for got, want in ((std.a, a), (std.b, b), (std.cost, cost), (std.offset, offset),
                          (std.row_sign, row_sign), (std.slack_of_row, slack_of_row),
                          (std.back_substitute(x_std), back(x_std))):
            assert got.shape == want.shape
            assert got.tobytes() == np.asarray(want, dtype=got.dtype).tobytes(), trial


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


def lstsq_dual_multipliers(std, basis, struct_cost, art_rows):
    """Reference duals: least squares on B^T y = c_B."""
    ncols = std.a.shape[1]
    art = basis >= ncols
    bmat = np.zeros((std.a.shape[0], basis.size))
    bmat[:, ~art] = std.a[:, basis[~art]]
    bmat[art_rows[basis[art] - ncols], np.flatnonzero(art)] = 1.0
    cb = np.ones(basis.size)
    cb[~art] = struct_cost[basis[~art]]
    return np.linalg.lstsq(bmat.T, cb, rcond=None)[0]


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
            patch.setattr(lpcore, "_dual_multipliers", lstsq_dual_multipliers)
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
    rlp = robust.robust_l1(lft.lft_from_polynomial(poly3_system()), ilc.FreePolynomial(2))
    plan = handelman.plan_relaxation(rlp, 2)
    yield "poly3 reduced", handelman.relax_reduced(rlp, 2, plan=plan)
    yield "poly3 full", handelman.relax_full(rlp, 2, plan=plan)


def test_column_sparse_pivots_match_dense_update_bit_for_bit(monkeypatch):
    # the column-restricted update keeps every pivot choice, vertex, dual and
    # certificate of the dense rank-1 update, byte for byte
    ix = np.ix_

    def counting_ix(*index):
        column_pivots.append(index)
        return ix(*index)
    for name, lp in tall_lps():
        column_pivots = []
        with monkeypatch.context() as patch:
            patch.setattr(np, "ix_", counting_ix)
            got = solve_lp(lp)
        assert column_pivots, name
        with monkeypatch.context() as patch:
            patch.setattr(lpcore, "_eliminate", dense_eliminate)
            want = solve_lp(lp)
        assert (got.status, got.iterations) == (want.status, want.iterations), name
        for field in ("x", "objective_value", "dual", "certificate"):
            g, w = getattr(got, field), getattr(want, field)
            assert (g is None) == (w is None), (name, field)
            assert np.float64(g).tobytes() == np.float64(w).tobytes(), (name, field)


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


def counting_outer(patch):
    """Spy on np.multiply.outer, which only the in-place dense branch of
    `_eliminate` calls; returns the list of its calls' row counts."""
    multiply, calls = np.multiply, []

    class Multiply:
        def __getattr__(self, name):
            return getattr(multiply, name)

        def __call__(self, *args, **kwargs):
            return multiply(*args, **kwargs)

        def outer(self, a, b):
            calls.append(a.size)
            return multiply.outer(a, b)
    patch.setattr(np, "multiply", Multiply())
    return calls


def test_dense_pivots_match_dense_update_bit_for_bit(monkeypatch):
    # square gain LPs: phase-1 pivots touch nearly every row with a pivot row
    # about half full, so they take the in-place dense branch, and still keep
    # every pivot choice, vertex, dual and certificate byte for byte
    for n in (24, 72, 120):
        s = sysmodel.random_positive_system(n, 0, 3, 3, seed=n)
        for name, lp in ((f"l1 n={n}", gains.l1_lp(s)), (f"linf n={n}", gains.linf_lp(s))):
            with monkeypatch.context() as patch:
                dense_pivots = counting_outer(patch)
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
        dense_pivots = counting_outer(patch)
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
    lp = synthesis.synthesis_lp(s, spec)
    with pytest.raises(InfeasibleError) as err:
        synthesis.stabilize_linf(s, spec, lp=lp)
    assert_farkas_certificate(lp, err.value.certificate)


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
        yield f"l1 n={n}", gains.l1_lp(s)
        yield f"linf n={n}", gains.linf_lp(s)
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
