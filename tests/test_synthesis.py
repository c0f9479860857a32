import numpy as np
import pytest

from poslp import gains, synthesis, sysmodel
from poslp.errors import ClassificationError, InfeasibleError, ModelError, ValidationError
from poslp.synthesis import ControllerSpec


def scalar_plant():
    return sysmodel.PositiveLtiSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]],
                                      D=[[0.0]], E=[[1.0]], F=[[0.0]])


def test_scalar_design_matches_closed_form():
    res = synthesis.stabilize_linf(scalar_plant())
    k = res.K[0, 0]
    assert k < -1.0
    predicted = 1.0 / (-1.0 - k)
    # gamma is the eps-biased upper bound of the realized closed-loop gain
    assert predicted <= res.gamma <= predicted * (1 + 1e-6) + 3e-7


def test_zero_controller_feasible_for_positive_stable_plant():
    s = sysmodel.random_positive_system(4, 2, 2, 2, seed=8)
    res = synthesis.stabilize_linf(s)
    open_gain = gains.gain(s, "linf").gamma
    assert res.gamma <= open_gain + 1e-6


def test_all_zero_structure_reduces_to_open_loop_analysis():
    s = sysmodel.random_positive_system(3, 1, 1, 2, seed=9)
    spec = ControllerSpec(zero_pattern=tuple((i, j) for i in range(1) for j in range(3)))
    res = synthesis.stabilize_linf(s, spec)
    assert np.allclose(res.K, 0.0)
    assert res.gamma == pytest.approx(gains.gain(s, "linf").gamma, rel=1e-9)


def test_structured_zeros_exact():
    s = sysmodel.random_positive_system(4, 2, 2, 2, seed=10)
    spec = ControllerSpec(zero_pattern=((0, 1), (1, 2), (0, 3)))
    res = synthesis.stabilize_linf(s, spec)
    for (i, j) in spec.zero_pattern:
        assert res.K[i, j] == 0.0


def test_bounds_satisfied():
    s = sysmodel.random_positive_system(3, 2, 2, 2, seed=11)
    lo = -0.4 * np.ones((2, 3))
    up = 0.4 * np.ones((2, 3))
    res = synthesis.stabilize_linf(s, ControllerSpec(k_lower=lo, k_upper=up))
    assert np.all(res.K >= lo - 1e-9)
    assert np.all(res.K <= up + 1e-9)


def test_closed_loop_certified_on_random_battery():
    rng = np.random.Generator(np.random.PCG64(14)).integers
    for seed in range(8):
        n = 3 + seed % 3
        s0 = sysmodel.random_positive_system(n, n, 2, 2, seed=seed)
        # destabilize the open loop; B = I keeps the design feasible
        s = sysmodel.PositiveLtiSystem(A=s0.A + 1.5 * np.eye(n), B=np.eye(n),
                                       C=s0.C, D=np.zeros((2, n)), E=s0.E, F=s0.F)
        res = synthesis.stabilize_linf(s)
        cl = synthesis.closed_loop(s, res.K)
        # tol absorbs the 1e-16-level roundoff of re-forming A + BK from K
        assert sysmodel.classify(cl, tol=1e-9).is_positive
        assert sysmodel.metzler_stable(cl.A, tol=1e-9)
        linf = sysmodel.oracle_gains(cl, tol=1e-9)[1]
        assert linf <= res.gamma * (1 + 1e-6) + 1e-6


def test_open_loop_need_not_be_positive():
    # A has a negative off-diagonal entry, B = I lets K repair it
    s = sysmodel.PositiveLtiSystem(
        A=[[-1.0, -0.5], [0.3, -1.0]], B=np.eye(2), C=[[1.0, 0.0]],
        D=np.zeros((1, 2)), E=np.eye(2), F=np.zeros((1, 2)))
    res = synthesis.stabilize_linf(s)
    cl = synthesis.closed_loop(s, res.K)
    assert sysmodel.classify(cl, tol=1e-9).is_positive
    assert sysmodel.metzler_stable(cl.A, tol=1e-9)


def test_mu_lambda_consistency():
    s = sysmodel.random_positive_system(3, 2, 1, 1, seed=15)
    res = synthesis.stabilize_linf(s)
    for j in range(3):
        assert np.allclose(res.K[:, j] * res.lam[j], res.mu[j], atol=1e-9)


def test_missing_bd_rejected():
    s = sysmodel.random_positive_system(3, 0, 1, 1, seed=16)
    with pytest.raises(ModelError, match="^synthesis needs control matrices B and D$"):
        synthesis.stabilize_linf(s)


def test_negative_e_rejected():
    s = sysmodel.PositiveLtiSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]],
                                   D=[[0.0]], E=[[-1.0]], F=[[0.0]])
    with pytest.raises(ClassificationError,
                       match=r"must be nonnegative on the box; fails at \[\]$"):
        synthesis.stabilize_linf(s)


def test_bad_spec_rejected():
    s = sysmodel.random_positive_system(3, 2, 1, 1, seed=17)
    with pytest.raises(ValidationError):
        synthesis.stabilize_linf(s, ControllerSpec(zero_pattern=((5, 0),)))
    with pytest.raises(ValidationError):
        synthesis.stabilize_linf(
            s, ControllerSpec(k_lower=np.ones((2, 3)), k_upper=-np.ones((2, 3))))
    with pytest.raises(ValidationError, match="^bounded spec needs both k_lower and k_upper$"):
        synthesis.stabilize_linf(s, ControllerSpec(k_lower=np.ones((2, 3))))


def test_infeasible_when_no_controller_exists():
    # one input cannot fix two coupled negative off-diagonals while keeping
    # the loop stable: make positivity impossible by bounding K at zero
    s = sysmodel.PositiveLtiSystem(
        A=[[-1.0, -0.5], [-0.4, -1.0]], B=[[1.0], [0.0]], C=[[1.0, 0.0]],
        D=[[0.0]], E=np.eye(2), F=np.zeros((1, 2)))
    spec = ControllerSpec(k_lower=np.zeros((1, 2)), k_upper=np.zeros((1, 2)))
    with pytest.raises(InfeasibleError):
        synthesis.stabilize_linf(s, spec)
