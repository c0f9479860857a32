import numpy as np
import pytest

from poslp import sysmodel
from poslp.cases import POLY3_A, POLY3_C, POLY3_E, POLY3_F, drug_system
from poslp.errors import ClassificationError, DimensionError, StabilityError


def benchmark_nominal():
    return sysmodel.PositiveLtiSystem(A=POLY3_A[0], B=None, C=POLY3_C[0],
                                      D=None, E=POLY3_E[0], F=POLY3_F[0])


def test_classify_drug_model_positive():
    report = sysmodel.classify(drug_system(1.0, 2.0, 0.5, [[1.0, 0.0]]))
    assert report.is_positive
    assert report.violations == ()


def test_classify_flags_negative_offdiagonal():
    sys_bad = sysmodel.PositiveLtiSystem(
        A=[[-1.0, -0.1], [0.0, -1.0]], B=None, C=[[1.0, 0.0]], D=None,
        E=[[1.0], [0.0]], F=[[0.0]])
    report = sysmodel.classify(sys_bad)
    assert not report.is_positive
    assert ("A", (0, 1), -0.1) in report.violations


def test_classify_benchmark_nominal_positive():
    assert sysmodel.classify(benchmark_nominal()).is_positive


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25])
def test_classify_agrees_with_positive_stack_on_a_seeded_battery(tol):
    """Entries exactly at -tol pass and the next float below fails; A's diagonal
    is exempt; classify lists A, E, C, F in that order, row-major within each."""
    rng = np.random.Generator(np.random.PCG64(29))
    pool = [-tol, 0.0, 0.5, 1.0, np.nextafter(-tol, -np.inf), -1.0]
    weights = [0.3, 0.2, 0.2, 0.24, 0.03, 0.03]
    verdicts = []
    for _ in range(8):
        n, p, q = (int(k) for k in rng.integers(1, 4, 3))
        a, e, c, f = (rng.choice(pool, size=(16,) + shape, p=weights)
                      for shape in ((n, n), (n, p), (q, n), (q, p)))
        a[:, range(n), range(n)] = -1.0
        stack = sysmodel.positive_stack(a, c, e, f, tol)
        for g in range(16):
            report = sysmodel.classify(sysmodel.PositiveLtiSystem(
                A=a[g], B=None, C=c[g], D=None, E=e[g], F=f[g]), tol)
            want = tuple((name, (i, j), mat[g, i, j])
                         for name, mat in (("A", a), ("E", e), ("C", c), ("F", f))
                         for i in range(mat.shape[1]) for j in range(mat.shape[2])
                         if mat[g, i, j] < -tol and not (name == "A" and i == j))
            assert report.violations == want
            assert report.is_positive == bool(stack[g]) == (not want)
            verdicts.append(report.is_positive)
    assert any(verdicts) and not all(verdicts)


def transposed(sys):
    """(A^T, C^T in, E^T out, F^T): the system whose L1-gain is the Linf-gain of `sys`."""
    return sysmodel.PositiveLtiSystem(A=sys.A.T, B=None, C=sys.E.T, D=None, E=sys.C.T, F=sys.F.T)


def test_transpose_preserves_siso_static_gain():
    siso = drug_system(1.3, 0.7, 0.4, [[1.0, 0.0]])
    g1 = sysmodel.static_gain(siso)
    g2 = sysmodel.static_gain(transposed(siso))
    assert g1 == pytest.approx(g2)


def test_transpose_static_gain_identity():
    sys5 = sysmodel.random_positive_system(5, 0, 2, 3, seed=2)
    lhs = sysmodel.static_gain(transposed(sys5))
    rhs = sysmodel.static_gain(sys5).T
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_static_gain_identity_system():
    sys_i = sysmodel.PositiveLtiSystem(A=-np.eye(3), B=None, C=np.eye(3),
                                       D=None, E=np.eye(3), F=np.zeros((3, 3)))
    assert np.allclose(sysmodel.static_gain(sys_i), np.eye(3))


@pytest.mark.parametrize("c,expected", [
    ([[1.0, 0.0]], lambda a11, a12, a21: 1.0 / a11),
    ([[0.0, 1.0]], lambda a11, a12, a21: a21 / (a11 * a12)),
])
def test_drug_model_static_gain_rows(c, expected):
    a11, a12, a21 = 1.7, 0.6, 2.3
    got = sysmodel.static_gain(drug_system(a11, a12, a21, c))[0, 0]
    assert got == pytest.approx(expected(a11, a12, a21), rel=1e-12)


def test_oracle_gains_column_and_row_sums():
    sys_h = sysmodel.PositiveLtiSystem(
        A=-np.eye(2), B=None, C=[[1.0, 2.0], [3.0, 4.0]], D=None,
        E=np.eye(2), F=np.zeros((2, 2)))
    l1, linf = sysmodel.oracle_gains(sys_h)
    assert (l1, linf) == (6.0, 7.0)


def test_oracle_gains_siso_coincide():
    siso = drug_system(0.9, 1.4, 0.8, [[0.0, 1.0]])
    l1, linf = sysmodel.oracle_gains(siso)
    assert l1 == pytest.approx(linf, rel=1e-12)


def test_is_stable_basics():
    stable = sysmodel.PositiveLtiSystem(A=-np.eye(2), B=None, C=np.eye(2),
                                        D=None, E=np.eye(2), F=np.zeros((2, 2)))
    assert sysmodel.metzler_stable(stable.A)
    swap = sysmodel.PositiveLtiSystem(A=[[0.0, 1.0], [1.0, 0.0]], B=None,
                                      C=np.eye(2), D=None, E=np.eye(2),
                                      F=np.zeros((2, 2)))
    assert not sysmodel.metzler_stable(swap.A)


def test_is_stable_benchmark_nominal():
    # diagonally dominant rows by inspection
    assert sysmodel.metzler_stable(benchmark_nominal().A)


def test_is_stable_rejects_non_metzler():
    with pytest.raises(ClassificationError):
        sysmodel.metzler_stable([[-1.0, -0.1], [0.0, -1.0]])


def test_static_gain_requires_stability():
    unstable = sysmodel.PositiveLtiSystem(A=[[0.5]], B=None, C=[[1.0]],
                                          D=None, E=[[1.0]], F=[[0.0]])
    with pytest.raises(StabilityError):
        sysmodel.static_gain(unstable)


def test_random_system_is_deterministic_in_seed():
    s1 = sysmodel.random_positive_system(6, 2, 3, 2, seed=77)
    s2 = sysmodel.random_positive_system(6, 2, 3, 2, seed=77)
    for name in ("A", "B", "C", "D", "E", "F"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name))
    s3 = sysmodel.random_positive_system(6, 2, 3, 2, seed=78)
    assert not np.array_equal(s1.A, s3.A)


def test_random_system_positive_and_stable():
    for seed in range(10):
        s = sysmodel.random_positive_system(5, 1, 2, 2, seed=seed)
        assert sysmodel.classify(s).is_positive
        assert sysmodel.metzler_stable(s.A)


def test_random_systems_oracle_transpose_duality():
    for seed in range(20):
        s = sysmodel.random_positive_system(4, 0, 2, 3, seed=seed)
        l1, _ = sysmodel.oracle_gains(s)
        _, linf_t = sysmodel.oracle_gains(transposed(s))
        assert abs(l1 - linf_t) <= 1e-12 * max(1.0, l1)


def test_static_gain_nonnegative_for_positive_stable():
    for seed in range(10):
        s = sysmodel.random_positive_system(4, 0, 3, 2, seed=seed)
        assert np.all(sysmodel.static_gain(s) >= -1e-12)


def test_dimension_validation():
    with pytest.raises(DimensionError):
        sysmodel.PositiveLtiSystem(A=[[1.0, 0.0]], B=None, C=[[1.0]],
                                   D=None, E=[[1.0]], F=[[1.0]])


def test_system_file_round_trip(tmp_path):
    s = sysmodel.random_positive_system(4, 2, 2, 3, seed=5)
    path = tmp_path / "sys.json"
    sysmodel.write_system(s, path)
    back = sysmodel.read_system(path)
    for name in ("A", "B", "C", "D", "E", "F"):
        assert np.array_equal(getattr(back, name), getattr(s, name))
    # canonical writer is idempotent byte-for-byte
    path2 = tmp_path / "sys2.json"
    sysmodel.write_system(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_system_file_defaults_empty_bd(tmp_path):
    s = sysmodel.random_positive_system(3, 0, 1, 1, seed=6)
    path = tmp_path / "nobd.json"
    sysmodel.write_system(s, path)
    text = path.read_text()
    assert '"B"' not in text
    back = sysmodel.read_system(path)
    assert back.m == 0


NOT_METZLER = sysmodel.PositiveLtiSystem(A=[[-1.0, -0.5], [0.0, -1.0]], B=None, C=[[1.0, 0.0]],
                                         D=None, E=[[1.0], [1.0]], F=[[0.0]])
NO_OUTPUT = sysmodel.PositiveLtiSystem(A=[[-1.0, 0.5], [0.0, -2.0]], B=None, C=np.zeros((0, 2)),
                                       D=None, E=[[1.0], [1.0]], F=np.zeros((0, 1)))


@pytest.mark.parametrize("call, expected", [
    (lambda: sysmodel.oracle_gains(NO_OUTPUT), (0.0, 0.0)),
    (lambda: sysmodel.metzler_stable(np.zeros((0, 0))), True),
    (lambda: sysmodel.static_gain(NOT_METZLER),
     "ClassificationError: the static-gain oracle is only valid for Metzler matrices"),
], ids=["oracle_gains_of_no_output", "metzler_stable_of_no_state", "static_gain_not_metzler"])
def test_empty_systems_and_a_static_gain_that_is_not_metzler(call, expected):
    # q = 0 has an empty static gain, whose norms are 0; n = 0 is stable
    try:
        got = call()
    except ClassificationError as err:
        got = f"{type(err).__name__}: {err}"
    assert got == expected
