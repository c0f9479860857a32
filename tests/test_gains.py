import numpy as np
import pytest

from poslp import gains, sysmodel
from poslp.cases import drug_gain_formulas, drug_system
from poslp.errors import ClassificationError, StabilityError
from poslp.lpcore import StrictnessPolicy
from test_sysmodel import transposed


def test_scalar_unit_gain():
    s = sysmodel.PositiveLtiSystem(A=[[-1.0]], B=None, C=[[1.0]], D=None,
                                   E=[[1.0]], F=[[0.0]])
    res = gains.gain(s, "l1")
    assert res.gamma == pytest.approx(1.0, rel=1e-6)
    assert sysmodel.oracle_gains(s)[0] == pytest.approx(1.0, rel=1e-12)


def test_l1_matches_oracle_on_random_system():
    s = sysmodel.random_positive_system(10, 0, 3, 4, seed=123)
    res = gains.gain(s, "l1")
    oracle = sysmodel.oracle_gains(s)[0]
    assert res.gamma == pytest.approx(oracle, rel=1e-4)
    assert res.gamma >= oracle


def test_linf_equals_l1_of_transpose():
    for seed in (0, 1, 2, 3):
        s = sysmodel.random_positive_system(6, 0, 2, 3, seed=seed)
        a = gains.gain(s, "linf").gamma
        b = gains.gain(transposed(s), "l1").gamma
        assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_siso_gains_coincide():
    s = drug_system(1.2, 0.8, 1.5, [[1.0, 0.0]])
    g1 = gains.gain(s, "l1").gamma
    ginf = gains.gain(s, "linf").gamma
    assert abs(g1 - ginf) <= 1e-6 * g1


def test_drug_model_diagonal_output():
    a11 = a12 = a21 = 1.0
    s = drug_system(a11, a12, a21, np.diag([1.0, 1.0]))
    l1_ref, linf_ref = drug_gain_formulas(a11, a12, a21, 1.0, 1.0)
    assert gains.gain(s, "l1").gamma == pytest.approx(l1_ref, rel=1e-6)
    assert gains.gain(s, "linf").gamma == pytest.approx(linf_ref, rel=1e-6)
    assert linf_ref == 1.0


def test_witness_margin():
    policy = StrictnessPolicy()
    s = sysmodel.random_positive_system(7, 0, 2, 2, seed=321)
    res = gains.gain(s, "l1", policy)
    lam = res.lam
    row1 = lam @ s.A + s.C.sum(axis=0)
    row2 = lam @ s.E - res.gamma + s.F.sum(axis=0)
    assert np.all(row1 <= -policy.epsilon / 2)
    assert np.all(row2 <= -policy.epsilon / 2)
    assert np.all(lam >= policy.lambda_floor / 2)


def test_unstable_system_raises():
    s = sysmodel.PositiveLtiSystem(A=[[0.1]], B=None, C=[[1.0]], D=None,
                                   E=[[1.0]], F=[[0.0]])
    with pytest.raises(StabilityError):
        gains.gain(s, "l1")


def test_non_positive_system_rejected():
    s = sysmodel.PositiveLtiSystem(A=[[-1.0, -0.2], [0.1, -1.0]], B=None,
                                   C=np.eye(2), D=None, E=np.eye(2),
                                   F=np.zeros((2, 2)))
    with pytest.raises(ClassificationError):
        gains.gain(s, "l1")


def test_benchmark_frozen_at_one_below_sweep_maximum():
    from poslp.cases import POLY3_REFERENCE, poly3_system
    frozen = poly3_system().frozen_at([1.0])
    got = gains.gain(frozen, "l1").gamma
    assert got <= POLY3_REFERENCE[("l1", "exact")] * (1 + 1e-4)


def test_lemma_equivalence_small_battery():
    # LP optimum vs static-gain column/row sums over a spread of sizes
    rng = np.random.Generator(np.random.PCG64(777))
    for trial in range(50):
        n = int(rng.integers(2, 12))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        s = sysmodel.random_positive_system(n, 0, p, q, seed=int(rng.integers(1 << 30)))
        l1, linf = sysmodel.oracle_gains(s)
        assert gains.gain(s, "l1").gamma == pytest.approx(l1, rel=1e-4)
        assert gains.gain(s, "linf").gamma == pytest.approx(linf, rel=1e-4)


@pytest.mark.xfail(strict=True, reason="lpcore never pivots on a coefficient at its "
                                       "pivot tolerance 1e-9, so A is refused as unstable")
def test_hurwitz_a_with_diagonal_entry_at_pivot_tolerance():
    s = sysmodel.PositiveLtiSystem(A=np.diag([-1.0, -1e-9]), B=None, C=[[1.0, 0.0]],
                                   D=None, E=[[1.0], [0.0]], F=[[0.0]])
    assert sysmodel.metzler_stable(s.A)
    assert gains.gain(s, "l1").gamma == pytest.approx(1.0, rel=1e-5)
