"""Dense linear algebra helpers.

Matrices and vectors are plain float ndarrays (row-major); every routine
validates shape and finiteness instead of trusting the caller.
"""

import numpy as np

from .errors import DimensionError, SingularMatrixError, ValidationError

# Reciprocal condition number below which `solve` refuses to proceed.
RCOND_FLOOR = 1e-12


def _float_array(value, what):
    try:
        if value is not None:       # numpy would read null as nan
            return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{what} is not a numeric array")


def as_matrix(a, name="matrix", stack=False):
    """Coerce to a finite 2-D float array, or with `stack` to a (..., rows, cols) stack."""
    m = _float_array(a, name)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise DimensionError(f"{name} has non-finite entries")
    return m


def shaped(value, what, shape):
    """Input data as a finite float array of `shape`, or a ValidationError naming `what`."""
    m = _float_array(value, what)
    if not np.isfinite(m).all():
        raise ValidationError(f"{what} has non-finite entries")
    if m.size != shape[0] * shape[1]:
        raise ValidationError(f"{what} has {m.size} entries, expected a "
                              f"{shape[0]} x {shape[1]} matrix")
    return m.reshape(shape)


def as_vector(v, name="vector"):
    """Coerce to a finite 1-D float array."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {x.shape}")
    if x.size and not np.all(np.isfinite(x)):
        raise DimensionError(f"{name} has non-finite entries")
    return x


def solve(a, b):
    """Solve a X = b for square well-conditioned a.

    Uses partial-pivoting LU (LAPACK); the 1-norm condition number is
    estimated first and anything with 1/cond below ``RCOND_FLOOR`` raises
    SingularMatrixError carrying the estimate.
    """
    a = as_matrix(a, "a")
    bb = np.asarray(b, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"solve needs a square matrix, got {a.shape}")
    if bb.shape[0] != a.shape[0]:
        raise DimensionError(f"rhs has {bb.shape[0]} rows, expected {a.shape[0]}")
    if a.shape[0] == 0:
        return np.zeros_like(bb)
    try:
        cond = float(np.linalg.cond(a, 1))
    except np.linalg.LinAlgError:
        cond = np.inf
    if ill_conditioned(cond):
        raise_singular(cond)
    return np.linalg.solve(a, bb)


def inverse_stack(a):
    """Inverses of the square stack a (G, n, n); NaN where one is singular."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(a.shape, np.nan)
        return np.concatenate([inverse_stack(a[g:g + 1]) for g in range(len(a))])


def cond_1(a, inv):
    """`np.linalg.cond(a, 1)` of the stack a (G, n, n) from its inverses."""
    def norm_1(x):
        return np.add.reduce(np.abs(x), axis=-2).max(axis=-1, initial=0)
    cond = norm_1(a) * norm_1(inv)
    return np.where(np.isnan(cond) & ~np.isnan(a).any(axis=(-2, -1)), np.inf, cond)


def ill_conditioned(cond):
    """Where 1/cond_1 falls below ``RCOND_FLOOR`` (or cond is not finite)."""
    with np.errstate(divide="ignore"):
        return ~np.isfinite(cond) | (1.0 / cond < RCOND_FLOOR)


def raise_singular(cond):
    cond = float(cond)
    raise SingularMatrixError(
        f"matrix is singular or ill-conditioned (cond_1 ~ {cond:.3e})",
        condition=cond,
    )
