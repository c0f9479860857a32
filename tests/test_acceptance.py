"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion.
"""

import hashlib

import numpy as np
import pytest

from poslp import gains, handelman, ilc, lft, robust, synthesis, sysmodel
from poslp.cases import (POLY3_REFERENCE, drug_gain_formulas, drug_system,
                         gene_expression_system, poly3_system)
from poslp.lpcore import StrictnessPolicy, lp_to_text
from poslp.poly import BoxDomain, polynomial_system
from poslp.synthesis import ControllerSpec
from test_sysmodel import transposed

# free constant scalings: the unsaturated polynomial ones of degree 0
CONST = ilc.FreePolynomial(0, saturated=False)


def report(number, label, ok, detail=""):
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {label}"
          + (f" -- {detail}" if detail else ""))
    assert ok, f"criterion {number}: {label} -- {detail}"


@pytest.fixture(scope="module")
def battery_200():
    rng = np.random.Generator(np.random.PCG64(20260810))
    systems = []
    for _ in range(200):
        n = int(rng.integers(2, 21))
        p = int(rng.integers(1, 6))
        q = int(rng.integers(1, 6))
        systems.append(sysmodel.random_positive_system(
            n, 0, p, q, seed=int(rng.integers(1 << 31))))
    return systems


@pytest.fixture(scope="module")
def bench_psys():
    return poly3_system()


def test_c01_oracle_equivalence(battery_200):
    worst = 0.0
    for s in battery_200:
        l1_ref, linf_ref = sysmodel.oracle_gains(s)
        rel1 = abs(gains.gain(s, "l1").gamma - l1_ref) / l1_ref
        rel2 = abs(gains.gain(s, "linf").gamma - linf_ref) / linf_ref
        worst = max(worst, rel1, rel2)
    report(1, "LP gains match static-gain oracle on 200 random systems",
           worst <= 1e-4, f"worst relative deviation {worst:.2e}")


def test_c02_transposition_duality(battery_200):
    worst = 0.0
    for s in battery_200:
        a = gains.gain(s, "linf").gamma
        b = gains.gain(transposed(s), "l1").gamma
        worst = max(worst, abs(a - b) / max(1.0, a))
    report(2, "linf(sys) == l1(transpose) on the same battery",
           worst <= 1e-9, f"worst relative gap {worst:.2e}")


def test_c03_drug_model_closed_forms():
    rng = np.random.Generator(np.random.PCG64(77001))
    tight = StrictnessPolicy(epsilon=1e-9, lambda_floor=1e-9)
    worst = 0.0
    for _ in range(50):
        a11, a12, a21 = rng.uniform(0.1, 10.0, 3)
        k1, k2 = rng.uniform(0.1, 10.0, 2)
        siso_ref = {0: 1.0 / a11, 1: a21 / (a11 * a12)}
        for idx, c in ((0, [[1.0, 0.0]]), (1, [[0.0, 1.0]])):
            s = drug_system(a11, a12, a21, c)
            for norm in ("l1", "linf"):
                rel = abs(gains.gain(s, norm, tight).gamma - siso_ref[idx]) / siso_ref[idx]
                worst = max(worst, rel)
        s = drug_system(a11, a12, a21, np.diag([k1, k2]))
        ref_l1, ref_linf = drug_gain_formulas(a11, a12, a21, k1, k2)
        worst = max(worst, abs(gains.gain(s, "l1", tight).gamma - ref_l1) / ref_l1)
        worst = max(worst, abs(gains.gain(s, "linf", tight).gamma - ref_linf) / ref_linf)
    report(3, "drug-model LP gains match closed forms (3 outputs x 50 draws)",
           worst <= 1e-6, f"worst relative deviation {worst:.2e}")


def test_c04_gene_expression_vertex_gains():
    refs = {0.0: 2.0, 0.1: 2.7162, 0.3: 5.3063, 0.5: 12.0003, 0.7: 37.7783}
    worst = 0.0
    for big_n, ref in refs.items():
        got = robust.vertex_gain(gene_expression_system(big_n), "linf").gamma
        worst = max(worst, abs(got - ref) / ref)
    report(4, "gene-expression vertex Linf-gains match the reference table",
           worst <= 1e-3, f"worst relative deviation {worst:.2e}")


def test_c05_polynomial_benchmark_bounds_and_sweep(bench_psys):
    psys = bench_psys
    got = {
        ("l1", "const"): robust.solve_robust(
            robust.robust_gain(psys, "l1", CONST)).gamma,
        ("linf", "const"): robust.solve_robust(
            robust.robust_gain(psys, "linf", CONST)).gamma,
        ("l1", "saturated2"): robust.solve_robust(
            robust.robust_gain(psys, "l1", ilc.FreePolynomial(2)), b=2).gamma,
        ("linf", "saturated2"): robust.solve_robust(
            robust.robust_gain(psys, "linf", ilc.FreePolynomial(2)), b=2).gamma,
    }
    worst = max(abs(got[k] - POLY3_REFERENCE[k]) / POLY3_REFERENCE[k] for k in got)
    sweep_l1 = 0.0
    sweep_linf = 0.0
    for d in np.arange(0.0, 1.0 + 5e-4, 0.001):
        l1v, linfv = sysmodel.oracle_gains(psys.frozen_at([min(d, 1.0)]))
        sweep_l1 = max(sweep_l1, l1v)
        sweep_linf = max(sweep_linf, linfv)
    sweep_worst = max(abs(sweep_l1 - POLY3_REFERENCE[("l1", "exact")])
                      / POLY3_REFERENCE[("l1", "exact")],
                      abs(sweep_linf - POLY3_REFERENCE[("linf", "exact")])
                      / POLY3_REFERENCE[("linf", "exact")])
    report(5, "benchmark robust bounds (0.5%) and frozen-delta sweeps (1e-3)",
           worst <= 5e-3 and sweep_worst <= 1e-3,
           f"bounds worst {worst:.2e}, sweep worst {sweep_worst:.2e}")


def _delay_pair(rng, stable):
    n = int(rng.integers(2, 7))
    a = rng.uniform(0, 1, (n, n))
    np.fill_diagonal(a, 0.0)
    ah = rng.uniform(0, 1, (n, n)) * rng.uniform(0.1, 0.8)
    margin = rng.uniform(0.05, 0.9, n)
    if stable:
        np.fill_diagonal(a, -(a.sum(axis=1) + ah.sum(axis=1) + margin))
    else:
        np.fill_diagonal(a, -(a.sum(axis=1) + ah.sum(axis=1)) + margin)
    return a, ah


def test_c06_time_delay_exactness():
    rng = np.random.Generator(np.random.PCG64(606))
    mismatches = 0
    for trial in range(100):
        a, ah = _delay_pair(rng, stable=trial % 2 == 0)
        ilc_verdict = robust.exact_constant_delta(
            lft.delay_lft(a, ah), np.eye(a.shape[0])) is not None
        direct = sysmodel.metzler_stable(a + ah)
        mismatches += ilc_verdict != direct
    report(6, "constant-delay ILC verdict equals the direct Metzler-Hurwitz "
              "test on 100 pairs", mismatches == 0, f"{mismatches} mismatches")


def test_c07_synthesis_certification():
    rng = np.random.Generator(np.random.PCG64(707))
    failures = []
    for trial in range(50):
        kind = trial % 4
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        seed = int(rng.integers(1 << 31))
        # every instance carries generous bounds: K = 0 stays feasible and the
        # optimal K keeps a sane magnitude, so A + BK recomposition noise stays
        # far below the certification tolerances
        if kind == 0:
            base = sysmodel.random_positive_system(n, n, p, q, seed=seed)
            s = sysmodel.PositiveLtiSystem(
                A=base.A + rng.uniform(0.5, 2.0) * np.eye(n), B=np.eye(n),
                C=base.C, D=np.zeros((q, n)), E=base.E, F=base.F)
            m = n
        else:
            m = int(rng.integers(1, 4))
            s = sysmodel.random_positive_system(n, m, p, q, seed=seed)
        bound = 50.0 if kind != 3 else rng.uniform(0.2, 1.0)
        pattern = ()
        if kind == 2:
            pattern = tuple((int(i), int(j)) for i in range(m)
                            for j in range(n) if rng.uniform() < 0.3)
        spec = ControllerSpec(zero_pattern=pattern,
                              k_lower=-bound * np.ones((m, n)),
                              k_upper=bound * np.ones((m, n)))
        res = synthesis.stabilize_linf(s, spec)
        cl = synthesis.closed_loop(s, res.K)
        ok = sysmodel.classify(cl, tol=1e-9).is_positive
        ok = ok and sysmodel.metzler_stable(cl.A, tol=1e-9)
        linf = sysmodel.oracle_gains(cl, tol=1e-9)[1]
        ok = ok and linf <= res.gamma * (1 + 1e-6) + 1e-6
        for (i, j) in spec.zero_pattern:
            ok = ok and res.K[i, j] == 0.0
        if spec.k_lower is not None:
            ok = ok and np.all(res.K >= spec.k_lower - 1e-9)
            ok = ok and np.all(res.K <= spec.k_upper + 1e-9)
        if not ok:
            failures.append(trial)
    report(7, "50 synthesized controllers certified (positivity, stability, "
              "gain bound, structure, bounds)", not failures,
           f"failing trials {failures}" if failures else "")


def test_c08_handelman_regression(bench_psys):
    psys = bench_psys
    basis = handelman.HandelmanBasis.from_box(BoxDomain.symmetric(1), 2)
    ups = handelman.build_upsilon(basis)
    order = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    chi = {m: [ups.matrix[ups.row_of((m,)), ups.column_of(e)] for e in order]
           for m in (2, 1, 0)}
    ok = (chi[2] == [0.0, 0.0, -1.0, 1.0, 1.0]
          and chi[1] == [1.0, -1.0, 0.0, 2.0, -2.0]
          and chi[0] == [1.0, 1.0, 1.0, 1.0, 1.0])

    battery = [
        robust.robust_gain(psys, "l1", CONST),
        robust.robust_gain(psys, "linf", CONST),
        robust.robust_gain(psys, "l1", ilc.FreePolynomial(2)),
        robust.robust_gain(psys, "linf", ilc.FreePolynomial(2)),
        robust.robust_gain(psys, "l1", ilc.FreePolynomial(1, saturated=False)),
    ]
    worst_gap = 0.0
    for rlp in battery:
        d = max(row.degree() for row in rlp.poly_rows)
        for b in (d, d + 1):
            full = robust.solve_robust(rlp, b=b, form="full")
            red = robust.solve_robust(rlp, b=b, form="reduced")
            worst_gap = max(worst_gap,
                            abs(full.gamma - red.gamma) / max(1.0, full.gamma))
    ok = ok and worst_gap <= 1e-7

    monotone = True
    for rlp in (robust.robust_gain(psys, "l1", ilc.FreePolynomial(2)),
                robust.robust_gain(psys, "linf", ilc.FreePolynomial(2))):
        d = max(row.degree() for row in rlp.poly_rows)
        prev = np.inf
        for b in (d, d + 1, d + 2):
            val = robust.solve_robust(rlp, b=b).gamma
            monotone = monotone and val <= prev + 1e-9
            prev = val
    report(8, "product-coefficient map exact; full == reduced across battery; "
              "gamma*(b) nonincreasing", ok and monotone,
           f"full/reduced worst gap {worst_gap:.2e}")


def test_c09_reduction_consistency():
    s = sysmodel.random_positive_system(5, 2, 3, 2, seed=909)
    psys = polynomial_system(
        a_terms={0: s.A}, b_terms={0: s.B}, c_terms={0: s.C}, d_terms={0: s.D},
        e_terms={0: s.E}, f_terms={0: s.F}, domain=BoxDomain.unit(1))
    def digest(lp):
        return hashlib.sha256(lp_to_text(lp).encode()).hexdigest()

    pairs = [
        (gains.gain_lp(s, "l1"),
         handelman.relax_reduced(robust.robust_gain(psys, "l1", CONST))),
        (gains.gain_lp(s, "linf"),
         handelman.relax_reduced(robust.robust_gain(psys, "linf", CONST))),
        (synthesis.synthesis_lp(s),
         handelman.relax_reduced(robust.robust_stabilize(psys, CONST))),
    ]
    ok = all(digest(a) == digest(b) for a, b in pairs)
    report(9, "zero-channel robust pipelines emit byte-identical LPs "
              "(structural hash)", ok)


def test_c10_robust_synthesis_grid_certification():
    scalar = polynomial_system(
        a_terms={0: [[1.0]], 1: [[1.0]]}, b_terms={0: [[1.0]]},
        c_terms={0: [[1.0]]}, d_terms={0: [[0.0]]}, e_terms={0: [[1.0]]},
        f_terms={0: [[0.0]]}, domain=BoxDomain.unit(1))
    two_by_two = polynomial_system(
        a_terms={0: [[-1.0, -0.5], [0.5, -1.0]], 1: [[0.5, 0.3], [0.2, 0.8]]},
        b_terms={0: np.eye(2)}, c_terms={0: np.eye(2)},
        d_terms={0: np.zeros((2, 2))}, e_terms={0: np.eye(2)},
        f_terms={0: np.zeros((2, 2))}, domain=BoxDomain.unit(1))
    ok = True
    details = []
    for name, psys in (("scalar", scalar), ("2x2", two_by_two)):
        rlp = robust.robust_stabilize(psys, ilc.FreePolynomial(1))
        res = robust.solve_robust(rlp)
        verdict = robust.grid_certify_gain(psys, res.gamma, "linf", 101, k=res.K)
        ok = ok and verdict.ok
        details.append(f"{name}: gamma {res.gamma:.3g} grid "
                       f"{'ok' if verdict.ok else verdict.failure}")
    report(10, "robust synthesis passes 101-point grid certification",
           ok, "; ".join(details))
