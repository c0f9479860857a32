import numpy as np
import pytest

from poslp import gains, handelman, ilc, lft, robust, synthesis, sysmodel
from poslp.cases import POLY3_REFERENCE, gene_expression_system, poly3_system
from poslp.errors import (ClassificationError, CombinatorialCapError,
                          DegreeError, DimensionError, DomainError, StabilityError)
from poslp.lpcore import LpBuilder, lp_to_text
from poslp.poly import BoxDomain, polynomial_system
from poslp.synthesis import ControllerSpec


@pytest.fixture(scope="module")
def bench():
    psys = poly3_system()
    return psys, lft.lft_from_polynomial(psys), lft.transpose_lft(psys)


def degree_zero_psys(seed=30, n=4, m=2, p=2, q=2):
    s = sysmodel.random_positive_system(n, m, p, q, seed=seed)
    return s, polynomial_system(
        a_terms={0: s.A}, b_terms={0: s.B}, c_terms={0: s.C},
        d_terms={0: s.D}, e_terms={0: s.E}, f_terms={0: s.F},
        domain=BoxDomain.unit(1))


def test_degree_zero_l1_collapses_byte_identical():
    s, psys = degree_zero_psys()
    l = lft.lft_from_polynomial(psys)
    rlp = robust.robust_l1(l, ilc.FreeConstant())
    for relax in (handelman.relax_full, handelman.relax_reduced):
        assert lp_to_text(relax(rlp)) == lp_to_text(gains.l1_lp(s))


def test_degree_zero_linf_collapses_byte_identical():
    s, psys = degree_zero_psys(seed=31)
    tl = lft.transpose_lft(psys)
    rlp = robust.robust_linf(tl, ilc.FreeConstant())
    assert lp_to_text(handelman.relax_reduced(rlp)) == lp_to_text(gains.linf_lp(s))


def test_degree_zero_synthesis_collapses_byte_identical():
    s, psys = degree_zero_psys(seed=32)
    rlp = robust.robust_stabilize(psys, ilc.FreeConstant())
    assert lp_to_text(handelman.relax_reduced(rlp)) == lp_to_text(synthesis.synthesis_lp(s))


def test_benchmark_constant_scalings(bench):
    psys, l, tl = bench
    res1 = robust.solve_robust(robust.robust_l1(l, ilc.FreeConstant()))
    assert res1.gamma == pytest.approx(POLY3_REFERENCE[("l1", "const")], rel=5e-3)
    res2 = robust.solve_robust(robust.robust_linf(tl, ilc.FreeConstant()))
    assert res2.gamma == pytest.approx(POLY3_REFERENCE[("linf", "const")], rel=5e-3)
    assert res1.conservative and res2.conservative


def test_benchmark_saturated_degree_two(bench):
    psys, l, tl = bench
    res1 = robust.solve_robust(robust.robust_l1(l, ilc.FreePolynomial(2)), b=2)
    assert res1.gamma == pytest.approx(POLY3_REFERENCE[("l1", "saturated2")], rel=5e-3)
    res2 = robust.solve_robust(robust.robust_linf(tl, ilc.FreePolynomial(2)), b=2)
    assert res2.gamma == pytest.approx(POLY3_REFERENCE[("linf", "saturated2")], rel=5e-3)


def test_full_and_reduced_agree_on_benchmark(bench):
    psys, l, _ = bench
    rlp = robust.robust_l1(l, ilc.FreePolynomial(2))
    for b in (2, 3):
        full = robust.solve_robust(rlp, b=b, form="full")
        red = robust.solve_robust(rlp, b=b, form="reduced")
        assert full.gamma == pytest.approx(red.gamma, rel=1e-7)


def test_bound_dominates_frozen_oracle_gains(bench):
    psys, l, _ = bench
    res = robust.solve_robust(robust.robust_l1(l, ilc.FreePolynomial(2)), b=2)
    verdict = robust.grid_certify_gain(psys, res.gamma, "l1", points=101)
    assert verdict.ok
    assert verdict.max_oracle <= res.gamma * (1 + 1e-6) + 1e-6


def test_ilc_inequality_holds_for_solved_scalings(bench):
    psys, l, _ = bench
    rlp = robust.robust_l1(l, ilc.FreeConstant())
    res = robust.solve_robust(rlp)
    phi1 = res.phi1[(0,)]
    phi2 = res.phi2[(0,)]
    for d in np.linspace(0, 1, 101):
        delta = l.delta_structure.eval([d])
        assert np.all(phi1 + delta.T @ phi2 >= -1e-8)


def test_saturated_scaling_below_delta_degree_is_refused(bench):
    # at degree 0 the terms of Delta^T phi2 could not be matched, the ILC
    # row fell away, and an unsound gamma (8.09 vs oracle 92.8) came out
    psys, l, tl = bench
    with pytest.raises(DomainError, match="degree >= 1"):
        robust.robust_l1(l, ilc.FreePolynomial(0, saturated=True))
    res = robust.solve_robust(robust.robust_l1(l, ilc.FreePolynomial(1, saturated=True)))
    assert robust.grid_certify_gain(psys, res.gamma, "l1", 101).ok


def test_non_positive_lft_rejected():
    psys = polynomial_system(
        a_terms={0: [[-1.0, -0.3], [0.2, -1.0]]},   # negative off-diagonal
        c_terms={0: [[1.0, 0.0]]}, e_terms={0: [[1.0], [0.0]]},
        f_terms={0: [[0.0]]}, domain=BoxDomain.unit(1))
    l = lft.lft_from_polynomial(psys)
    with pytest.raises(ClassificationError):
        robust.robust_l1(l, ilc.FreeConstant())


def test_wrong_lft_type_rejected(bench):
    psys, l, tl = bench
    with pytest.raises(DimensionError):
        robust.robust_l1(tl, ilc.FreeConstant())
    with pytest.raises(DimensionError):
        robust.robust_linf(l, ilc.FreeConstant())


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
    closed = lft.close_with_matrix(l0, delta0)
    oracle = sysmodel.oracle_gains(closed)[0]
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
    assert res.vertices == 8


def test_vertex_gain_gene_table_row():
    res = robust.vertex_gain(gene_expression_system(0.5), "linf")
    assert res.gamma == pytest.approx(12.0003, rel=1e-3)


def test_vertex_gain_requires_affine():
    with pytest.raises(DegreeError):
        robust.vertex_gain(poly3_system(), "l1")


def test_vertex_gain_parameter_cap():
    psys = gene_expression_system(0.1)
    with pytest.raises(CombinatorialCapError):
        robust.vertex_gain(psys, "linf", max_params=2)


def test_vertex_gain_unstable_vertex_rejected():
    psys = gene_expression_system(1.0)     # gamma_r hits 0 at eps1 = -1
    with pytest.raises(StabilityError):
        robust.vertex_gain(psys, "linf")


def test_vertex_gain_precheck_runs_no_stability_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("vertex precheck ran a stability LP")
    monkeypatch.setattr(sysmodel, "metzler_stable", no_lp)
    monkeypatch.setattr(sysmodel, "is_stable", no_lp)
    assert robust.vertex_gain(gene_expression_system(0.5), "linf").vertices == 8
    with pytest.raises(StabilityError, match=r"at \[-1\. -1\. -1\.\] is not Hurwitz"):
        robust.vertex_gain(gene_expression_system(1.0), "linf")
    # k_p = 2 - 3 < 0 at eps2 = -1: the first vertex is not positive
    with pytest.raises(ClassificationError, match=r"\('A', \(1, 0\), -1\.0\)"):
        robust.vertex_gain(gene_expression_system(1.5), "l1")


# --- robust synthesis --------------------------------------------------------

def scalar_uncertain_plant():
    return polynomial_system(
        a_terms={0: [[1.0]], 1: [[1.0]]}, b_terms={0: [[1.0]]},
        c_terms={0: [[1.0]]}, d_terms={0: [[0.0]]}, e_terms={0: [[1.0]]},
        f_terms={0: [[0.0]]}, domain=BoxDomain.unit(1))


def test_robust_synthesis_scalar_worst_case():
    rlp = robust.robust_stabilize(scalar_uncertain_plant(), ilc.FreePolynomial(1))
    res = robust.solve_robust_synthesis(rlp)
    k = res.K[0, 0]
    assert k < -2.0
    worst = 1.0 / (-2.0 - k)    # static gain at the worst vertex delta = 1
    assert worst <= res.gamma <= worst * (1 + 1e-6) + 3e-7


def test_robust_programs_build_one_lp(monkeypatch, bench):
    # the relaxation appends to the program's own builder: one build per solve
    psys, l, tl = bench
    builds = []
    build = LpBuilder.build

    def spy(self, *args, **kwargs):
        builds.append(self)
        return build(self, *args, **kwargs)
    monkeypatch.setattr(LpBuilder, "build", spy)
    for assemble, form in ((lambda: robust.robust_l1(l, ilc.FreePolynomial(2)), "reduced"),
                           (lambda: robust.robust_linf(tl, ilc.FreeConstant()), "full"),
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
    res = robust.solve_robust_synthesis(rlp)
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
    res = robust.solve_robust_synthesis(rlp)
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
