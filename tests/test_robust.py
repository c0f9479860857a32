import numpy as np
import pytest

from poslp import cli, gains, handelman, ilc, lft, robust, synthesis, sysmodel
from poslp.cases import GENE_TABLE, POLY3_REFERENCE, gene_expression_system, poly3_system
from poslp.errors import (ClassificationError, CombinatorialCapError,
                          DegreeError, DimensionError, DomainError, StabilityError)
from poslp.lpcore import LpBuilder, StrictnessPolicy, lp_to_text, solve_lp
from poslp.poly import BoxDomain, polynomial_system
from poslp.synthesis import ControllerSpec


@pytest.fixture(scope="module")
def bench():
    return poly3_system()


def degree_zero_psys(seed=30, n=4, m=2, p=2, q=2):
    s = sysmodel.random_positive_system(n, m, p, q, seed=seed)
    return s, polynomial_system(
        a_terms={0: s.A}, b_terms={0: s.B}, c_terms={0: s.C},
        d_terms={0: s.D}, e_terms={0: s.E}, f_terms={0: s.F},
        domain=BoxDomain.unit(1))


def test_degree_zero_l1_collapses_byte_identical():
    s, psys = degree_zero_psys()
    rlp = robust.robust_gain(psys, "l1", ilc.FreeConstant())
    for relax in (handelman.relax_full, handelman.relax_reduced):
        assert lp_to_text(relax(rlp)) == lp_to_text(gains.l1_lp(s))


def test_degree_zero_linf_collapses_byte_identical():
    s, psys = degree_zero_psys(seed=31)
    rlp = robust.robust_gain(psys, "linf", ilc.FreeConstant())
    assert lp_to_text(handelman.relax_reduced(rlp)) == lp_to_text(gains.linf_lp(s))


def test_degree_zero_synthesis_collapses_byte_identical():
    s, psys = degree_zero_psys(seed=32)
    rlp = robust.robust_stabilize(psys, ilc.FreeConstant())
    assert lp_to_text(handelman.relax_reduced(rlp)) == lp_to_text(synthesis.synthesis_lp(s))


# --- the nominal programs against a per-row reference assembly --------------

def _reference_l1_rows(b, cols, gamma, a, c, e, f, policy, prefix=""):
    """The strictified L1 rows written row block by row block: lambda^T A +
    1^T C <= -eps (st) and lambda^T E - gamma 1^T + 1^T F <= -eps (pf)."""
    eps = policy.epsilon
    b.add_rows(cols, a.T, "<=", -eps - c.sum(axis=0),
               [f"{prefix}st{j}" for j in range(a.shape[1])])
    b.add_rows(list(cols) + [gamma], np.hstack([e.T, -np.ones((e.shape[1], 1))]), "<=",
               -eps - f.sum(axis=0), [f"{prefix}pf{j}" for j in range(e.shape[1])])


def _reference_gain_lp(sys, which, policy):
    if which == "linf":
        sys = sysmodel.transpose_system(sys)
    b = LpBuilder()
    lam = b.add_vars("lam", sys.n, lower=policy.lambda_floor)
    gamma = b.add_var("gamma", lower=0.0, objective=1.0)
    _reference_l1_rows(b, lam, gamma, sys.A, sys.C, sys.E, sys.F, policy)
    return b.build()


def _reference_synthesis_lp(sys, spec, policy):
    n, m = sys.n, sys.m
    b = LpBuilder()
    lam = b.add_vars("lam", n, lower=policy.lambda_floor)
    mu = [b.add_vars(f"mu{j}_", m) for j in range(n)]
    gamma = b.add_var("gamma", lower=0.0, objective=1.0)
    _reference_l1_rows(b, lam + sum(mu, []), gamma,
                       np.vstack([sys.A.T, np.tile(sys.B.T, (n, 1))]), sys.E.T,
                       np.vstack([sys.C.T, np.tile(sys.D.T, (n, 1))]), sys.F.T, policy)
    for names, relation, terms in synthesis.controller_rows(
            b.num_vars, lam, mu, spec, {(): (sys.A, sys.B, sys.C, sys.D)}, ()):
        b.add_rows(slice(0, b.num_vars), terms[()], relation, 0.0, names)
    return b.build()


def _reference_vertex_lp(psys, which, policy):
    verts = psys.domain.vertices()
    a, _, c, _, e, f = psys.frozen_stack(np.reshape(verts, (len(verts), psys.nparams)))
    b = LpBuilder()
    lam = b.add_vars("lam", psys.n, lower=policy.lambda_floor)
    gamma = b.add_var("gamma", lower=0.0, objective=1.0)
    for v in range(len(verts)):
        mats = (a[v], c[v], e[v], f[v]) if which == "l1" else (a[v].T, e[v].T, c[v].T, f[v].T)
        _reference_l1_rows(b, lam, gamma, *mats, policy, f"v{v}_")
    return b.build()


def _reference_stability_lp(a, policy):
    n = a.shape[0]
    b = LpBuilder()
    lam = b.add_vars("lam", n, lower=policy.lambda_floor)
    _reference_l1_rows(b, lam, None, a, np.zeros((0, n)), np.zeros((n, 0)),
                       np.zeros((0, 0)), policy)
    return b.build()


def _assert_same_program(got, ref):
    """Bytes of every array and name; row_rhs by value on the zero, lb and ub
    rows (where only the sign of a zero may differ), by bytes elsewhere; then
    status, pivots and the bytes of x, objective, dual and certificate."""
    for key in ("objective", "row_coeffs", "var_lower", "var_upper"):
        assert getattr(got, key).tobytes() == getattr(ref, key).tobytes(), key
    for key in ("row_relations", "row_names", "var_names"):
        assert getattr(got, key) == getattr(ref, key), key
    controller = np.array([name.startswith(("zero", "lb", "ub")) for name in ref.row_names],
                          dtype=bool)
    assert got.row_rhs[~controller].tobytes() == ref.row_rhs[~controller].tobytes()
    assert np.array_equal(got.row_rhs[controller], ref.row_rhs[controller])
    mine, theirs = solve_lp(got), solve_lp(ref)
    assert (mine.status, mine.iterations) == (theirs.status, theirs.iterations)
    for key in ("x", "dual", "certificate"):
        a, b = getattr(mine, key), getattr(theirs, key)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), key
    assert np.float64(mine.objective_value).tobytes() == \
        np.float64(theirs.objective_value).tobytes()
    return mine.status


def test_nominal_programs_match_per_row_reference(monkeypatch):
    policy = StrictnessPolicy()
    for n in (1, 2, 8, 16, 24):
        s = sysmodel.random_positive_system(n, 0, 3, 3, seed=n)
        _assert_same_program(gains.l1_lp(s, policy), _reference_gain_lp(s, "l1", policy))
        _assert_same_program(gains.linf_lp(s, policy), _reference_gain_lp(s, "linf", policy))

    statuses = []
    for n in (3, 6):
        s0 = sysmodel.random_positive_system(n, 2, 2, 2, seed=40 + n)
        # an unstable open loop, so the controller rows carry the design
        s = sysmodel.PositiveLtiSystem(A=s0.A + 1.5 * np.eye(n), B=s0.B, C=s0.C,
                                       D=s0.D, E=s0.E, F=s0.F)
        for spec in (ControllerSpec(), ControllerSpec(zero_pattern=((0, 1), (1, n - 1))),
                     ControllerSpec(k_lower=-2 * np.ones((2, n)), k_upper=2 * np.ones((2, n))),
                     ControllerSpec(zero_pattern=((1, 0),), k_lower=-np.ones((2, n)),
                                    k_upper=np.zeros((2, n)))):
            statuses.append(_assert_same_program(synthesis.synthesis_lp(s, spec, policy),
                                                 _reference_synthesis_lp(s, spec, policy)))
    assert {"optimal", "infeasible"} <= set(statuses)

    for big_n, _ in GENE_TABLE:
        psys = gene_expression_system(big_n)
        for which in ("l1", "linf"):
            got = robust.vertex_gain(psys, which, policy).lp
            _assert_same_program(got, _reference_vertex_lp(psys, which, policy))

    built = []
    def spy(lp):
        built.append(lp)
        return solve_lp(lp)
    monkeypatch.setattr(sysmodel, "solve_lp", spy)
    rng = np.random.Generator(np.random.PCG64(77))
    verdicts = []
    for k in range(30):
        n = 1 + k % 6
        a = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -(a.sum(axis=1) + rng.uniform(-0.6, 1.0, n)))
        verdicts.append(sysmodel.metzler_stable(a, policy))
        _assert_same_program(built[-1], _reference_stability_lp(a, policy))
    assert len(built) == 30 and True in verdicts and False in verdicts


def test_benchmark_constant_scalings(bench):
    psys = bench
    res1 = robust.solve_robust(robust.robust_gain(psys, "l1", ilc.FreeConstant()))
    assert res1.gamma == pytest.approx(POLY3_REFERENCE[("l1", "const")], rel=5e-3)
    res2 = robust.solve_robust(robust.robust_gain(psys, "linf", ilc.FreeConstant()))
    assert res2.gamma == pytest.approx(POLY3_REFERENCE[("linf", "const")], rel=5e-3)


def test_benchmark_saturated_degree_two(bench):
    psys = bench
    res1 = robust.solve_robust(robust.robust_gain(psys, "l1", ilc.FreePolynomial(2)), b=2)
    assert res1.gamma == pytest.approx(POLY3_REFERENCE[("l1", "saturated2")], rel=5e-3)
    res2 = robust.solve_robust(robust.robust_gain(psys, "linf", ilc.FreePolynomial(2)), b=2)
    assert res2.gamma == pytest.approx(POLY3_REFERENCE[("linf", "saturated2")], rel=5e-3)


def test_full_and_reduced_agree_on_benchmark(bench):
    psys = bench
    rlp = robust.robust_gain(psys, "l1", ilc.FreePolynomial(2))
    for b in (2, 3):
        full = robust.solve_robust(rlp, b=b, form="full")
        red = robust.solve_robust(rlp, b=b, form="reduced")
        assert full.gamma == pytest.approx(red.gamma, rel=1e-7)


def test_bound_dominates_frozen_oracle_gains(bench):
    psys = bench
    res = robust.solve_robust(robust.robust_gain(psys, "l1", ilc.FreePolynomial(2)), b=2)
    verdict = robust.grid_certify_gain(psys, res.gamma, "l1", points=101)
    assert verdict.ok
    assert verdict.max_oracle <= res.gamma * (1 + 1e-6) + 1e-6


def test_ilc_inequality_holds_for_solved_scalings(bench):
    psys, l = bench, lft.lft_from_polynomial(bench)
    rlp = robust.robust_gain(psys, "l1", ilc.FreeConstant())
    res = robust.solve_robust(rlp)
    phi1 = res.phi1[(0,)]
    phi2 = res.phi2[(0,)]
    for d in np.linspace(0, 1, 101):
        delta = l.delta_structure.eval([d])
        assert np.all(phi1 + delta.T @ phi2 >= -1e-8)


def test_saturated_scaling_below_delta_degree_is_refused(bench):
    # at degree 0 the terms of Delta^T phi2 could not be matched, the ILC
    # row fell away, and an unsound gamma (8.09 vs oracle 92.8) came out
    psys = bench
    with pytest.raises(DomainError, match="degree >= 1"):
        robust.robust_gain(psys, "l1", ilc.FreePolynomial(0, saturated=True))
    res = robust.solve_robust(
        robust.robust_gain(psys, "l1", ilc.FreePolynomial(1, saturated=True)))
    assert robust.grid_certify_gain(psys, res.gamma, "l1", 101).ok


def test_non_positive_lft_rejected():
    psys = polynomial_system(
        a_terms={0: [[-1.0, -0.3], [0.2, -1.0]]},   # negative off-diagonal
        c_terms={0: [[1.0, 0.0]]}, e_terms={0: [[1.0], [0.0]]},
        f_terms={0: [[0.0]]}, domain=BoxDomain.unit(1))
    for norm in ("l1", "linf"):
        with pytest.raises(ClassificationError):
            robust.robust_gain(psys, norm, ilc.FreeConstant())


# --- exact constant-Delta analysis -----------------------------------------

def test_exact_delta_zero_reduces_to_nominal():
    s, psys = degree_zero_psys(seed=33, m=0)
    # one artificial channel with Delta0 = 0 must not change the gain
    n = s.n
    l = lft.LftSystem(A=s.A, E0=np.zeros((n, 1)), E1=s.E, C0=np.zeros((1, n)),
                      C1=s.C, F00=np.zeros((1, 1)), F01=np.zeros((1, s.p)),
                      F10=np.zeros((s.q, 1)), F11=s.F,
                      delta_structure=None, domain=None)
    res = robust.exact_constant_delta(l, np.zeros((1, 1)))
    assert res.feasible
    assert res.gamma == pytest.approx(gains.l1_gain(s).gamma, rel=1e-9)


def delay_pair(seed, stable):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(2, 6))
    a = rng.uniform(0, 1, (n, n))
    np.fill_diagonal(a, 0.0)
    ah = rng.uniform(0, 1, (n, n)) * rng.uniform(0.1, 0.8)
    margin = rng.uniform(0.05, 0.9, n)
    if stable:
        np.fill_diagonal(a, -(a.sum(axis=1) + ah.sum(axis=1) + margin))
    else:
        np.fill_diagonal(a, -(a.sum(axis=1) + ah.sum(axis=1)) + margin)
    return a, ah


@pytest.mark.parametrize("stable", [True, False])
def test_delay_exactness_matches_direct_test(stable):
    for seed in range(15):
        a, ah = delay_pair(seed, stable)
        res = robust.exact_constant_delta(lft.delay_lft(a, ah), np.eye(a.shape[0]))
        assert res.feasible == sysmodel.metzler_stable(a + ah)
        assert res.feasible == stable


def test_exact_delta_gamma_matches_closed_loop_gain():
    s, psys = degree_zero_psys(seed=35, m=0, n=3)
    l0 = lft.lft_from_polynomial(poly3_system())
    delta0 = 0.35 * np.eye(l0.n0)
    res = robust.exact_constant_delta(l0, delta0)
    assert res.feasible
    a, c, e, f = (m[0] for m in lft._close_stack(l0, delta0[None], str))
    oracle = sysmodel.oracle_gains(sysmodel.PositiveLtiSystem(a, None, c, None, e, f))[0]
    assert res.gamma == pytest.approx(oracle, rel=1e-6)


def test_delay_with_performance_channel_gamma_agreement():
    # on feasible delay instances the ILC gamma equals the l1-gain of the
    # equivalent delay-free system (A + A_h, E, C, F)
    rng = np.random.Generator(np.random.PCG64(40))
    checked = 0
    for seed in range(30):
        a, ah = delay_pair(seed, stable=True)
        n = a.shape[0]
        e = rng.uniform(0, 1, (n, 2))
        c = rng.uniform(0, 1, (2, n))
        f = rng.uniform(0, 1, (2, 2))
        l = lft.delay_lft(a, ah, e, c, f)
        res = robust.exact_constant_delta(l, np.eye(n))
        assert res.feasible
        merged = sysmodel.PositiveLtiSystem(A=a + ah, B=None, C=c, D=None,
                                            E=e, F=f)
        oracle = sysmodel.oracle_gains(merged)[0]
        assert res.gamma == pytest.approx(oracle, rel=1e-4)
        checked += 1
    assert checked == 30


# --- vertex enumeration -----------------------------------------------------

def test_vertex_gain_nominal_matches_plain_lp():
    psys = gene_expression_system(0.0)
    res = robust.vertex_gain(psys, "linf")
    nominal = gains.linf_gain(psys.frozen_at([0.0, 0.0, 0.0])).gamma
    assert res.gamma == pytest.approx(nominal, rel=1e-9)
    assert len(res.lp.row_names) == 8 * (psys.n + psys.q)


def test_vertex_gain_gene_table_row():
    res = robust.vertex_gain(gene_expression_system(0.5), "linf")
    assert res.gamma == pytest.approx(12.0003, rel=1e-3)


def test_vertex_gain_requires_affine():
    with pytest.raises(DegreeError):
        robust.vertex_gain(poly3_system(), "l1")


def test_vertex_gain_parameter_cap():
    # refused before any of the 2 ** 21 vertices is enumerated
    units = [tuple(int(k == j) for k in range(21)) for j in range(21)]
    psys = polynomial_system(
        a_terms={(0,) * 21: -np.eye(2), **{e: 0.01 * np.eye(2) for e in units}},
        c_terms={(0,) * 21: np.ones((1, 2))}, e_terms={(0,) * 21: np.ones((2, 1))},
        f_terms={(0,) * 21: np.zeros((1, 1))}, domain=BoxDomain.unit(21))
    assert psys.degree() == 1 and robust.VERTEX_CAP == 20
    with pytest.raises(CombinatorialCapError, match="21 parameters exceed the vertex cap of 20"):
        robust.vertex_gain(psys, "linf")


def test_vertex_gain_unstable_vertex_rejected():
    psys = gene_expression_system(1.0)     # gamma_r hits 0 at eps1 = -1
    with pytest.raises(StabilityError):
        robust.vertex_gain(psys, "linf")


def test_vertex_gain_precheck_runs_no_stability_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("vertex precheck ran a stability LP")
    monkeypatch.setattr(sysmodel, "metzler_stable", no_lp)
    monkeypatch.setattr(sysmodel, "is_stable", no_lp)
    psys = gene_expression_system(0.5)
    assert len(robust.vertex_gain(psys, "linf").lp.row_names) == 8 * (psys.n + psys.q)
    with pytest.raises(StabilityError, match=r"at \[-1\. -1\. -1\.\] is not Hurwitz"):
        robust.vertex_gain(gene_expression_system(1.0), "linf")
    # k_p = 2 - 3 < 0 at eps2 = -1: the first vertex is not positive
    with pytest.raises(ClassificationError, match=r"\('A', \(1, 0\), -1\.0\)"):
        robust.vertex_gain(gene_expression_system(1.5), "l1")


@pytest.mark.parametrize("big_n", [big_n for big_n, _ in GENE_TABLE])
def test_gene_model_lft_bound_covers_the_vertex_gain(big_n):
    # on [-1, 1]^3 the LFT path writes the model in theta on [0, 1]^3; its
    # Handelman bound is sufficient only, so it sits at or above the vertex gain
    psys = gene_expression_system(big_n)
    for which in ("l1", "linf"):
        vertex = robust.vertex_gain(psys, which).gamma
        for sc in ("const", "saturated:2"):
            program = robust.robust_gain(psys, which, cli.parse_scaling(sc))
            for form in ("reduced", "full"):
                gamma = robust.solve_robust(program, form=form).gamma
                assert gamma >= vertex * (1 - 1e-9), (which, sc, form)
                assert robust.grid_certify_gain(psys, gamma, which, 101).ok, (which, sc, form)


# --- robust synthesis --------------------------------------------------------

def scalar_uncertain_plant():
    return polynomial_system(
        a_terms={0: [[1.0]], 1: [[1.0]]}, b_terms={0: [[1.0]]},
        c_terms={0: [[1.0]]}, d_terms={0: [[0.0]]}, e_terms={0: [[1.0]]},
        f_terms={0: [[0.0]]}, domain=BoxDomain.unit(1))


def test_robust_synthesis_scalar_worst_case():
    rlp = robust.robust_stabilize(scalar_uncertain_plant(), ilc.FreePolynomial(1))
    res = robust.solve_robust(rlp)
    k = res.K[0, 0]
    assert k < -2.0
    worst = 1.0 / (-2.0 - k)    # static gain at the worst vertex delta = 1
    assert worst <= res.gamma <= worst * (1 + 1e-6) + 3e-7


def test_robust_programs_build_one_lp(monkeypatch, bench):
    # the relaxation appends to the program's own builder: one build per solve
    psys = bench
    builds = []
    build = LpBuilder.build

    def spy(self, *args, **kwargs):
        builds.append(self)
        return build(self, *args, **kwargs)
    monkeypatch.setattr(LpBuilder, "build", spy)
    for assemble, form in ((lambda: robust.robust_gain(psys, "l1", ilc.FreePolynomial(2)),
                            "reduced"),
                           (lambda: robust.robust_gain(psys, "linf", ilc.FreeConstant()), "full"),
                           (lambda: robust.robust_stabilize(scalar_uncertain_plant(),
                                                            ilc.FreePolynomial(1)), "reduced")):
        builds.clear()
        robust.solve_robust(assemble(), form=form)
        assert len(builds) == 1


def test_robust_synthesis_2x2_grid_certification():
    psys = polynomial_system(
        a_terms={0: [[-1.0, -0.5], [0.5, -1.0]], 1: [[0.5, 0.3], [0.2, 0.8]]},
        b_terms={0: [[1.0, 0.0], [0.0, 1.0]]},
        c_terms={0: [[1.0, 0.0], [0.0, 1.0]]},
        d_terms={0: np.zeros((2, 2))},
        e_terms={0: [[1.0, 0.0], [0.0, 1.0]]},
        f_terms={0: np.zeros((2, 2))},
        domain=BoxDomain.unit(1))
    rlp = robust.robust_stabilize(psys, ilc.FreePolynomial(1))
    res = robust.solve_robust(rlp)
    verdict = robust.grid_certify_synthesis(psys, res.K, res.gamma, points=101)
    assert verdict.ok, verdict.failure


def test_robust_synthesis_structured_and_bounded():
    psys = polynomial_system(
        a_terms={0: [[-1.0, 0.4], [0.3, -1.2]], 1: [[0.2, 0.1], [0.0, 0.3]]},
        b_terms={0: [[1.0], [0.5]]},
        c_terms={0: [[1.0, 0.0]]},
        d_terms={0: [[0.0]]},
        e_terms={0: [[1.0], [0.0]]},
        f_terms={0: [[0.0]]},
        domain=BoxDomain.unit(1))
    spec = ControllerSpec(zero_pattern=((0, 1),))
    rlp = robust.robust_stabilize(psys, ilc.FreePolynomial(1), spec)
    res = robust.solve_robust(rlp)
    assert res.K[0, 1] == 0.0
    verdict = robust.grid_certify_synthesis(psys, res.K, res.gamma, points=51)
    assert verdict.ok, verdict.failure


def test_robust_synthesis_rejects_negative_disturbance_matrices():
    psys = polynomial_system(
        a_terms={0: [[-1.0]]}, b_terms={0: [[1.0]]}, c_terms={0: [[1.0]]},
        d_terms={0: [[0.0]]}, e_terms={0: [[1.0]], 1: [[-2.0]]},
        f_terms={0: [[0.0]]}, domain=BoxDomain.unit(1))
    with pytest.raises(ClassificationError):
        robust.robust_stabilize(psys, ilc.FreeConstant())


def lyapunov_coefficients(rlp):
    """{(row, alpha): ({variable: coefficient}, constant)} of the st, ch, pf,
    ilc and sc rows of a robust program, builder and polynomial rows alike,
    over every variable but the controller columns mu."""
    lp = rlp.builder.build()
    names, zero = lp.var_names, (0,) * rlp.domain.nparams
    rows = {}

    def add(row, alpha, coeffs, const):
        if row.startswith(("st", "ch", "pf", "ilc", "sc")):
            rows[row, alpha] = ({names[i]: coeffs[i] for i in np.flatnonzero(coeffs)
                                 if not names[i].startswith("mu")}, const)
    for row, coeffs, rhs in zip(lp.row_names, lp.row_coeffs, lp.row_rhs):
        add(row, zero, coeffs, -rhs)
    for row in rlp.poly_rows:
        for alpha, (coeffs, const) in row.terms.items():
            add(row.name, alpha, coeffs, const)
    return rows


@pytest.mark.parametrize("scaling", ["const", "saturated:2", "poly:1"])
def test_robust_synthesis_rows_are_the_transposed_lft_rows(scaling):
    # two parameters, degree 2 in each: chains with j = 2 shift through F00;
    # B and D add no power of delta beyond those of A, E and C, F
    psys = polynomial_system(
        a_terms={(0, 0): [[-3.0, 0.5], [0.4, -2.5]], (1, 0): [[-0.2, 0.3], [0.1, 0.0]],
                 (0, 2): [[0.0, 0.2], [0.3, -0.1]]},
        b_terms={(0, 0): [[1.0], [-0.5]], (0, 1): [[0.2], [0.1]]},
        c_terms={(0, 0): [[1.0, 0.5]], (2, 0): [[0.3, 0.0]], (0, 1): [[0.0, 0.2]]},
        d_terms={(0, 0): [[0.4]], (1, 0): [[-0.1]]},
        e_terms={(0, 0): [[1.0], [0.5]], (0, 1): [[0.2], [0.0]]},
        f_terms={(0, 0): [[0.1]], (0, 2): [[0.2]]}, domain=BoxDomain.unit(2))
    tlft = lft.transpose_lft(psys)
    assert tlft.F00.any()
    template = cli.parse_scaling(scaling)
    synth = lyapunov_coefficients(robust.robust_stabilize(psys, template))
    gain = lyapunov_coefficients(robust.robust_gain(psys, "linf", template))
    # F00^T phi1: a channel row of a chain reads phi1 of the block after it
    assert any(row.startswith("ch") and any(v.startswith("phi1") for v in coeffs)
               for (row, _), (coeffs, _) in gain.items())
    assert synth.keys() == gain.keys()
    for key, (coeffs, const) in gain.items():
        assert synth[key][0] == coeffs, key
        assert synth[key][1] == const, key


# --- batched admissibility checks against the per-point loops they replaced --

def _reference_points(domain):
    return domain.grid({1: 11, 2: 7}.get(domain.nparams, 3))


def _reference_validate(psys, which):
    """The robust gain's checks point by point: a known norm, then the system
    itself positive at tol 1e-9 on a sample of its own box, whichever the norm."""
    if which not in ("l1", "linf"):
        raise DimensionError(f"unknown norm {which!r}: use 'l1' or 'linf'")
    for point in _reference_points(psys.domain):
        report = sysmodel.classify(psys.frozen_at(point), tol=1e-9)
        if not report.is_positive:
            raise ClassificationError(
                f"closed loop is not positive at delta={point}: {report.violations[:3]}")


def _reference_disturbance_check(psys):
    for point in _reference_points(psys.domain):
        if not np.all(psys.E.eval(point) >= -1e-12) or \
                not np.all(psys.F.eval(point) >= -1e-12):
            raise ClassificationError(
                f"E(delta), F(delta) must be nonnegative on the box; fails at {point}")


def _outcome(fn, *args):
    """None when `fn(*args)` returns, else the class and message it raised."""
    try:
        fn(*args)
    except Exception as err:   # noqa: BLE001 -- compared by class and message
        return type(err), str(err)
    return None


def _leaves_positivity_at_0_6():
    # A[0, 1] = 0.5 - delta and C[0, 1] = 0.55 - delta turn negative at the
    # sample point 0.6 of [0, 1]
    return polynomial_system(
        a_terms={0: [[-2.0, 0.5], [0.3, -1.5]], 1: [[0.1, -1.0], [0.0, 0.2]]},
        c_terms={0: [[1.0, 0.55]], 1: [[0.0, -1.0]]},
        e_terms={0: [[1.0], [0.5]], 1: [[-0.2], [0.0]]},
        f_terms={0: [[0.0]]}, domain=BoxDomain.unit(1))


@pytest.mark.parametrize("make, which, expect", [
    # on the LFT path the gene model's box [-1, 1]^3 is written as [0, 1]^3
    pytest.param(lambda: gene_expression_system(0.3), "l1", None,
                 id="gene_expression_system-l1-None"),
    (_leaves_positivity_at_0_6, "l1", "closed loop is not positive at delta=[0.6]"),
    (_leaves_positivity_at_0_6, "linf", "closed loop is not positive at delta=[0.6]"),
    (poly3_system, "l1", None),
    (poly3_system, "linf", None),
    (lambda: degree_zero_psys()[1], "l1", None),
    (poly3_system, "l2", "unknown norm 'l2'"),
])
def test_lft_validation_matches_reference_loop(make, which, expect):
    psys = make()
    got = _outcome(robust.robust_gain, psys, which, ilc.FreeConstant())
    assert got == _outcome(_reference_validate, psys, which)
    if expect is None:
        assert got is None
    else:
        error = DimensionError if which == "l2" else ClassificationError
        assert got[0] is error and got[1].startswith(expect)
    # a Linf refusal names the user's matrices, not the transposed system's
    if which == "linf":
        assert got == _outcome(robust.robust_gain, psys, "l1", ilc.FreeConstant())


@pytest.mark.parametrize("which", ["l1", "linf"])
def test_robust_gain_closes_the_sample_once(monkeypatch, which):
    # positivity is read from the system's own frozen matrices, and a canonical
    # LFT is well-posed by its structure: no loop is closed
    calls = []
    close = lft._close_stack

    def spy(l, deltas, where):
        calls.append(len(deltas))
        return close(l, deltas, where)
    monkeypatch.setattr(lft, "_close_stack", spy)
    robust.robust_gain(poly3_system(), which, ilc.FreeConstant())
    assert calls == []


def _disturbance_plant(e_terms, f_terms, domain):
    n = len(e_terms[next(iter(e_terms))])
    zero = next(iter(e_terms))
    return polynomial_system(
        a_terms={zero: -np.eye(n)}, b_terms={zero: np.eye(n)}, c_terms={zero: np.eye(n)},
        d_terms={zero: np.zeros((n, n))}, e_terms=e_terms, f_terms=f_terms, domain=domain)


@pytest.mark.parametrize("psys, expect", [
    (_disturbance_plant({0: [[1.0]], 1: [[-2.0]]}, {0: [[0.0]]}, BoxDomain.unit(1)),
     "fails at [0.6]"),
    (_disturbance_plant({(0, 0): [[1.0], [0.0]]}, {(0, 0): np.zeros((2, 1)),
                                                    (0, 1): [[0.0], [-0.1]]},
                        BoxDomain([-1.0, -1.0], [1.0, 1.0])),
     "fails at [-1.          0.33333333]"),
    (_disturbance_plant({0: [[1.0]], 1: [[-1.0]]}, {0: [[0.0]]}, BoxDomain.unit(1)), None),
])
def test_disturbance_check_matches_reference_loop(psys, expect):
    got = _outcome(robust.robust_stabilize, psys, ilc.FreeConstant())
    assert got == _outcome(_reference_disturbance_check, psys)
    if expect is None:
        assert got is None
    else:
        assert got[0] is ClassificationError and got[1].endswith(expect)


def test_synthesis_recovers_k_the_same_way():
    psys = polynomial_system(
        a_terms={0: [[-1.0, 0.5], [0.2, -1.0]], 1: [[0.1, 0.0], [0.0, 0.2]]},
        b_terms={0: [[1.0, 0.0], [0.0, 1.0]]}, c_terms={0: [[1.0, 0.0]]},
        d_terms={0: [[0.0, 0.0]]}, e_terms={0: [[1.0], [0.5]]}, f_terms={0: [[0.0]]},
        domain=BoxDomain.unit(1))
    spec = ControllerSpec(zero_pattern=((0, 1),))
    res = robust.solve_robust(robust.robust_stabilize(psys, ilc.FreeConstant(), spec))
    k = np.column_stack([res.mu[j] / res.lam[j] for j in range(len(res.lam))])
    k[0, 1] = 0.0
    assert res.K.tobytes() == k.tobytes()
    assert synthesis.recover_k(res.lam, res.mu, spec.zero_pattern).tobytes() == k.tobytes()


def test_grid_refutes_a_bound_below_the_oracle():
    # poly3's L1 oracle peaks near 92.8 on the grid: the peak itself passes, half of it not
    psys = poly3_system()
    oracle = robust.grid_certify_gain(psys, np.inf).max_oracle
    assert oracle > 90.0 and robust.grid_certify_gain(psys, oracle).ok
    verdict = robust.grid_certify_gain(psys, 0.5 * oracle)
    assert (verdict.ok, verdict.failure, verdict.max_oracle) == (False, None, oracle)
