import numpy as np
import pytest

from poslp import numlin, sysmodel
from poslp.cases import POLY3_A, POLY3_E
from poslp.errors import DimensionError, SingularMatrixError


def _metzler(m, tol=0.0):
    return not sysmodel.negative_entries(m, tol, off_diagonal=True).any()


def _nonnegative(m, tol=0.0):
    return not sysmodel.negative_entries(m, tol).any()


def _violations(m, tol=0.0, off_diagonal=False):
    """The (index, value) listing of the entries `negative_entries` flags, row-major."""
    m = np.asarray(m, dtype=float)
    return [((int(i), int(j)), float(m[i, j]))
            for i, j in np.argwhere(sysmodel.negative_entries(m, tol, off_diagonal))]


def test_metzler_diagonal():
    assert _metzler([[-1.0, 0.0], [0.0, -1.0]])


def test_metzler_benchmark_matrix():
    assert _metzler(POLY3_A[0])


def test_metzler_negative_offdiagonal():
    assert not _metzler([[-1.0, -0.5], [1.0, -1.0]], tol=0.0)


def test_metzler_requires_square():
    with pytest.raises(DimensionError):
        sysmodel.metzler_stable([[1.0, 2.0, 3.0]])


def test_metzler_tolerance():
    assert _metzler([[-1.0, -1e-12], [0.0, -1.0]], tol=1e-9)


def test_nonnegative_benchmark_matrix():
    assert _nonnegative(POLY3_E[0])


def test_nonnegative_zero_matrix():
    assert _nonnegative(np.zeros((3, 2)))


def test_nonnegative_rejects_negative():
    assert not _nonnegative([[1.0, -1.0]], tol=0.0)


def test_violation_listings():
    bad = [[-1.0, -0.5], [1.0, -1.0]]
    assert _violations(bad, off_diagonal=True) == [((0, 1), -0.5)]
    assert _violations([[1.0, -1.0]]) == [((0, 1), -1.0)]


def test_solve_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(numlin.solve(np.eye(2), b), b)


def test_solve_scalar():
    assert np.allclose(numlin.solve([[2.0]], [[4.0]]), [[2.0]])


def test_solve_benchmark_residual():
    a, b = POLY3_A[0], POLY3_E[0]
    x = numlin.solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_recovers_random_solutions():
    rng = np.random.Generator(np.random.PCG64(3))
    for n in (2, 10, 50):
        a = rng.uniform(-1, 1, (n, n)) + 3.0 * np.eye(n)
        x = rng.uniform(-1, 1, (n, 3))
        got = numlin.solve(a, a @ x)
        assert np.linalg.norm(got - x) <= 1e-9 * max(1.0, np.linalg.norm(x))


def test_solve_singular_raises_with_condition():
    with pytest.raises(SingularMatrixError) as err:
        numlin.solve([[1.0, 1.0], [1.0, 1.0]], [[1.0], [0.0]])
    assert err.value.condition is None or err.value.condition > 1e10


def test_block_matrix_stays_metzler():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.uniform(0, 1, (n, n)) - 2 * np.diag(rng.uniform(1, 2, n))
        a2 = rng.uniform(0, 1, (n, n)) - 2 * np.diag(rng.uniform(1, 2, n))
        b = rng.uniform(0, 1, (n, n))
        b2 = rng.uniform(0, 1, (n, n))
        assert _metzler(a) and _nonnegative(b)
        block = np.block([[a, b], [b2, a2]])
        assert _metzler(block)
