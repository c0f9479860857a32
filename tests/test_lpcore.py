import numpy as np
import pytest

from poslp import gains, lpcore, sysmodel
from poslp.cases import gene_expression_system
from poslp.errors import NonConvergenceError, ValidationError
from poslp.lpcore import LinearProgram, LpBuilder, StrictnessPolicy, lp_to_text, solve_lp


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
