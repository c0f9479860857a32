"""LTI system container, positivity classification and the static-gain oracle.

The system is  dx/dt = A x + B u + E w,  z = C x + D u + F w.  It is positive
when A is Metzler and E, C, F are (entrywise) nonnegative; B and D play no
role in positivity and may be empty for analysis-only models.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import (ClassificationError, DimensionError, StabilityError, require_keys,
                     require_sizes)
from .lpcore import LpBuilder, StrictnessPolicy, solve_lp


@dataclass(frozen=True, eq=False)
class PositiveLtiSystem:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        a = numlin.as_matrix(self.A, "A")
        n = a.shape[0]
        if a.shape[1] != n:
            raise DimensionError(f"A must be square, got {a.shape}")
        e = numlin.as_matrix(self.E, "E")
        c = numlin.as_matrix(self.C, "C")
        f = numlin.as_matrix(self.F, "F")
        q, p = c.shape[0], e.shape[1]
        b = numlin.as_matrix(self.B, "B") if self.B is not None else np.zeros((n, 0))
        d = numlin.as_matrix(self.D, "D") if self.D is not None else np.zeros((q, 0))
        if b.size == 0:
            b = b.reshape(n, 0) if b.shape[0] in (0, n) else b
        if d.size == 0:
            d = d.reshape(q, 0) if d.shape[0] in (0, q) else d
        if e.shape[0] != n or c.shape[1] != n:
            raise DimensionError("E must be n x p and C must be q x n")
        if f.shape != (q, p):
            raise DimensionError(f"F must be {q} x {p}, got {f.shape}")
        if b.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {b.shape}")
        if d.shape != (q, b.shape[1]):
            raise DimensionError(f"D must be {q} x {b.shape[1]}, got {d.shape}")
        for name, val in (("A", a), ("B", b), ("C", c), ("D", d), ("E", e), ("F", f)):
            object.__setattr__(self, name, val)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.E.shape[1]

    @property
    def q(self):
        return self.C.shape[0]


@dataclass(frozen=True)
class PositivityReport:
    is_positive: bool
    violations: tuple   # of (matrix name, (i, j), value)


def negative_entries(m, tol=0.0, off_diagonal=False):
    """Mask of the entries of the matrix or stack m (G, r, c) that are not >= -tol,
    NaN among them; `off_diagonal` exempts the diagonal (the Metzler test)."""
    mask = ~(np.asarray(m, dtype=float) >= -tol)
    if off_diagonal:
        mask &= ~np.eye(*mask.shape[-2:], dtype=bool)
    return mask


def classify(sys, tol=0.0):
    """List every positivity violation: off-diagonal negatives of A, then
    negative entries of E, C, F, row-major within each matrix."""
    violations = tuple((name, (int(i), int(j)), float(mat[i, j]))
                       for name, mat in (("A", sys.A), ("E", sys.E), ("C", sys.C), ("F", sys.F))
                       for i, j in np.argwhere(negative_entries(mat, tol, name == "A")))
    return PositivityReport(is_positive=not violations, violations=violations)


def metzler_stable(a, policy=None, tol=0.0):
    """Hurwitz test for a Metzler matrix via the copositive Lyapunov LP
    {lambda >= floor, lambda^T A <= -eps}.

    ``tol`` loosens only the Metzler precheck (useful when A was recomposed
    from a controller and carries machine-epsilon noise)."""
    policy = policy or StrictnessPolicy()
    a = numlin.as_matrix(a, "A")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"Metzler test needs a square matrix, got {a.shape}")
    if negative_entries(a, tol, off_diagonal=True).any():
        raise ClassificationError("stability LP is only valid for Metzler matrices")
    n = a.shape[0]
    if n == 0:
        return True
    b = LpBuilder()
    lam = b.add_vars("lam", n, lower=policy.lambda_floor)
    b.add_rows(lam, a.T, "<=", -policy.epsilon, [f"st{j}" for j in range(n)])
    return solve_lp(b.build()).status == "optimal"


# ---------------------------------------------------------------------------
# frozen-parameter oracle: one LU per system, no LP

# Relative tolerance tau of the M-matrix Hurwitz test; no strictness margin
# like StrictnessPolicy.epsilon (the LP {lambda >= floor, lambda^T A <= -eps}
# is scale-invariant, so it is exactly the Hurwitz test, as -A^{-1} >= 0 is).
# tau absorbs the rounding LU leaves in the exact zeros of A^{-1} for reducible
# A (~ eps_mach cond_1(A)); an unstable A has an entry of A^{-1} of at least
# max|A^{-1}| / (n cond_1(A)), above tau max|A^{-1}| until cond_1 nears 1/tau.
MMATRIX_TOL = 1e-12


def positive_stack(a, c, e, f, tol=0.0):
    """Per system of the stacks: `classify(...).is_positive` at `tol`."""
    return ~np.logical_or.reduce([negative_entries(mat, tol, k == 0).any(axis=(1, 2))
                                  for k, mat in enumerate((a, e, c, f))])


def mmatrix_hurwitz(a):
    """Hurwitz verdict and 1-norm condition number of each Metzler matrix of
    the stack a (G, n, n), from one LU inverse each and no LP.

    A Metzler A is Hurwitz iff it is nonsingular and -A^{-1} >= 0 (Berman &
    Plemmons, Nonnegative Matrices in the Mathematical Sciences, ch. 6); the
    test reads -A^{-1} >= -MMATRIX_TOL max|A^{-1}|.  The condition number is
    the one `numlin.solve` refuses on."""
    inv = numlin.inverse_stack(a)
    scale = np.abs(inv).max(axis=(1, 2), keepdims=True, initial=0.0)
    return np.all(inv <= MMATRIX_TOL * scale, axis=(1, 2)), numlin.cond_1(a, inv)


def frozen_oracle(a, c, e, f, admissible):
    """Static gains F - C A^{-1} E of the stacks a (G, n, n), c (G, q, n),
    e (G, n, p), f (G, q, p), NaN where refused, and the first refusal:
    None, or (point, why) with why "structure" where the mask `admissible`
    is False and "hurwitz" where A is not Hurwitz.  A nonempty gain behind
    an ill-conditioned A raises SingularMatrixError as `numlin.solve` would;
    its LAPACK solve makes each gain the single-system one bit for bit."""
    hurwitz, cond = mmatrix_hurwitz(a)
    ok = admissible & hurwitz & (~numlin.ill_conditioned(cond) | (f.size == 0))
    gain = np.full(f.shape, np.nan)
    gain[ok] = f[ok] - c[ok] @ np.linalg.solve(a[ok], e[ok])
    if ok.all():
        return gain, None
    point = int(np.argmax(~ok))
    if not admissible[point]:
        return gain, (point, "structure")
    if not hurwitz[point]:
        return gain, (point, "hurwitz")
    numlin.raise_singular(cond[point])


def gain_norms(h0):
    """(l1, linf) per static gain of the stack h0 (G, q, p): max column sum
    and max row sum, 0 for an empty gain."""
    g, q, p = h0.shape
    if not (p and q):
        return np.zeros(g), np.zeros(g)
    return h0.sum(axis=1).max(axis=1), h0.sum(axis=2).max(axis=1)


def static_gain(sys, tol=0.0):
    """Zero-frequency transfer matrix F - C A^{-1} E from the M-matrix oracle
    (`frozen_oracle` on a stack of one): an A that is not Metzler within
    ``tol`` raises ClassificationError, one that is not Hurwitz StabilityError."""
    a = sys.A[None]
    metzler = ~negative_entries(a, tol, off_diagonal=True).any(axis=(1, 2))
    gain, failed = frozen_oracle(a, sys.C[None], sys.E[None], sys.F[None], metzler)
    if failed is not None and failed[1] == "structure":
        raise ClassificationError("the static-gain oracle is only valid for Metzler matrices")
    if failed is not None:
        raise StabilityError("A is not Hurwitz; static gain undefined")
    return gain[0]


def oracle_gains(sys, tol=0.0):
    """Exact (l1, linf) gains from the static-gain matrix: max column sum and
    max row sum of F - C A^{-1} E."""
    l1, linf = gain_norms(static_gain(sys, tol)[None])
    return float(l1[0]), float(linf[0])


def random_positive_system(n, m, p, q, seed):
    """Seeded random positive stable instance.

    Off-diagonals of A are uniform on [0, 1] and each diagonal entry is set to
    -(off-diagonal row sum + margin), margin uniform on [0.1, 1.1], which
    makes A strictly diagonally dominant and hence Hurwitz.  B, C, D, E, F are
    uniform nonnegative."""
    if min(n, p, q) < 1 or m < 0:
        raise DimensionError("dimensions must be >= 1 (m may be 0)")
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(a, 0.0)
    margins = rng.uniform(0.1, 1.1, n)
    np.fill_diagonal(a, -(a.sum(axis=1) + margins))
    b = rng.uniform(0.0, 1.0, (n, m))
    c = rng.uniform(0.0, 1.0, (q, n))
    d = rng.uniform(0.0, 1.0, (q, m))
    e = rng.uniform(0.0, 1.0, (n, p))
    f = rng.uniform(0.0, 1.0, (q, p))
    return PositiveLtiSystem(A=a, B=b, C=c, D=d, E=e, F=f)


# ---------------------------------------------------------------------------
# system files: self-describing JSON with row-major matrices

def system_to_dict(sys):
    doc = {
        "n": sys.n, "m": sys.m, "p": sys.p, "q": sys.q,
        "A": sys.A.tolist(), "C": sys.C.tolist(),
        "E": sys.E.tolist(), "F": sys.F.tolist(),
    }
    if sys.m:
        doc["B"] = sys.B.tolist()
        doc["D"] = sys.D.tolist()
    return doc


def system_from_dict(doc):
    require_keys(doc, "system", "n", "p", "q")
    n, m, p, q = require_sizes(doc, "system", "n", "m", "p", "q")
    require_keys(doc, "system", "A")    # a polynomial-system file has none, and A = 0 is no default
    def mat(key, rows, cols):       # empty means zero, except for A
        if key != "A" and doc.get(key) in ([], None):
            return np.zeros((rows, cols))
        return numlin.shaped(doc[key], f"system key {key!r}", (rows, cols))
    return PositiveLtiSystem(
        A=mat("A", n, n), B=mat("B", n, m), C=mat("C", q, n),
        D=mat("D", q, m), E=mat("E", n, p), F=mat("F", q, p))


def write_system(sys, path):
    with open(path, "w") as fh:
        json.dump(system_to_dict(sys), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_system(path):
    with open(path) as fh:
        return system_from_dict(json.load(fh))
