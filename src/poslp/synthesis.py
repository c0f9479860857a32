"""State-feedback synthesis: closed loop positive, stable, Linf-bounded.

With u = K x the closed loop is (A + BK, E, C + DK, F).  The change of
variables mu_j = lambda_j K[:, j] makes the design jointly linear in
(lambda, mu, gamma); K is recovered column-wise as mu_j / lambda_j, which is
always safe because lambda is floored away from zero.  The LP conditions are
necessary and sufficient, so infeasibility proves that no controller in the
requested set exists.  Among optimal controllers the solver's vertex is
returned; optimal K is in general not unique.

Asymmetric input bounds and bounded-state constraints would slot in as extra
linear rows in the same variables; they are a documented extension point, not
implemented here.
"""

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import ClassificationError, InfeasibleError, ModelError, ValidationError
from .ilc import FreeConstant
from .poly import BoxDomain, Poly, PolynomialLtiSystem
from .sysmodel import PositiveLtiSystem, negative_entries


@dataclass(frozen=True)
class ControllerSpec:
    """Controller set: full by default, optionally structured (forced zeros
    at (row, col) positions of K) and/or bounded (K_lower <= K <= K_upper)."""

    zero_pattern: tuple = ()       # of (i, j) with 0 <= i < m, 0 <= j < n
    k_lower: np.ndarray | None = None
    k_upper: np.ndarray | None = None

    def validate(self, m, n):
        for (i, j) in self.zero_pattern:
            if not (0 <= i < m and 0 <= j < n):
                raise ValidationError(f"zero_pattern index ({i},{j}) outside {m}x{n}")
        if (self.k_lower is None) != (self.k_upper is None):
            raise ValidationError("bounded spec needs both k_lower and k_upper")
        if self.k_lower is not None:
            lo = numlin.as_matrix(self.k_lower, "k_lower")
            up = numlin.as_matrix(self.k_upper, "k_upper")
            if lo.shape != (m, n) or up.shape != (m, n):
                raise ValidationError(f"controller bounds must be {m}x{n}")
            if np.any(lo > up):
                raise ValidationError("k_lower exceeds k_upper componentwise")


FULL = ControllerSpec()


def _program(sys, spec, policy):
    """The robust synthesis program of the system with no parameter."""
    from .robust import robust_stabilize    # not at the top: robust imports this module
    if sys.m == 0:
        raise ModelError("synthesis needs control matrices B and D")
    spec.validate(sys.m, sys.n)
    if negative_entries(sys.E).any() or negative_entries(sys.F).any():
        raise ClassificationError("synthesis requires nonnegative E and F")
    psys = PolynomialLtiSystem(*(Poly.constant(getattr(sys, name), 0) for name in "ABCDEF"),
                               domain=BoxDomain.unit(0))
    return robust_stabilize(psys, FreeConstant(), spec, policy)


def synthesis_lp(sys, spec=None, policy=None):
    """The synthesis LP, variables [lambda, mu_0..mu_{n-1}, gamma] with mu_j
    standing for lambda_j K[:, j].  Its gain rows, the L1 rows of the
    transposed closed loop, are strict (closed with epsilon); the Metzler and
    nonnegativity rows that force closed-loop positivity are not, as in the
    characterization."""
    return _program(sys, spec or FULL, policy).builder.build()


def controller_rows(num_vars, lam, mu, spec, mats, zero):
    """Closed-loop positivity and controller-set rows on the variables
    lambda (`lam`, n columns) and mu (`mu`, n lists of m columns) of
    `num_vars`: off-diagonal lambda_j (A + BK)_ij >= 0 (mz), lambda_j
    (C + DK)_ij >= 0 (nn), the forced zeros of K (zero) and the bounds
    lambda_j lower_ij <= mu_j[i] <= lambda_j upper_ij (lb, ub).

    `mats` maps each exponent alpha to the coefficients (A, B, C, D) of
    delta^alpha; `zero` is the exponent of the constant term.  Returns
    families (names, relation, terms): the rows sum_alpha delta^alpha
    (terms[alpha] @ x) `relation` 0, with terms[alpha] of shape (rows, num_vars)."""
    n, m = len(lam), len(mu[0])
    q = next(iter(mats.values()))[2].shape[0]
    lam, mu = np.asarray(lam), np.asarray(mu).reshape(n, m)

    def pair_rows(pairs, x, u):
        i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
        rows = np.arange(len(i))
        coeffs = np.zeros((len(i), num_vars))
        coeffs[rows, lam[j]] = x[i, j]
        coeffs[rows[:, None], mu[j]] = u[i]
        return coeffs

    mz = [(i, j) for i in range(n) for j in range(n) if i != j]
    nn = [(i, j) for i in range(q) for j in range(n)]
    families = [
        ([f"mz{i}_{j}" for i, j in mz], ">=",
         {a: pair_rows(mz, x, u) for a, (x, u, _, _) in mats.items()}),
        ([f"nn{i}_{j}" for i, j in nn], ">=",
         {a: pair_rows(nn, y, v) for a, (_, _, y, v) in mats.items()}),
    ]
    zeros = np.zeros((len(spec.zero_pattern), num_vars))
    for r, (i, j) in enumerate(spec.zero_pattern):
        zeros[r, mu[j, i]] = 1.0
    families.append(([f"zero{i}_{j}" for i, j in spec.zero_pattern], "==", {zero: zeros}))
    if spec.k_lower is not None:
        # lb and ub rows alternate per entry of K, lb written as -mu + lambda lower <= 0
        lo, up = numlin.as_matrix(spec.k_lower), numlin.as_matrix(spec.k_upper)
        i, j = np.divmod(np.arange(m * n), n)
        bounds = np.zeros((2 * m * n, num_vars))
        bounds[0::2][np.arange(m * n), mu[j, i]] = -1.0
        bounds[0::2][np.arange(m * n), lam[j]] = lo[i, j]
        bounds[1::2][np.arange(m * n), mu[j, i]] = 1.0
        bounds[1::2][np.arange(m * n), lam[j]] = -up[i, j]
        names = [f"{kind}{a}_{c}" for a, c in zip(i, j) for kind in ("lb", "ub")]
        families.append((names, "<=", {zero: bounds}))
    return families


def stabilize_linf(sys, spec=None, policy=None):
    """Minimize the certified closed-loop Linf-gain over the controller set;
    a `robust.RobustResult` with the gain K.

    The open loop need not be positive; only E >= 0 and F >= 0 are required.
    Raises InfeasibleError when no admissible K makes the closed loop
    positive and stable (the conditions are lossless)."""
    from .robust import solve_robust
    try:
        return solve_robust(_program(sys, spec or FULL, policy))
    except InfeasibleError as err:
        raise InfeasibleError("synthesis LP infeasible: no controller in the requested set "
                              "renders the closed loop positive and stable",
                              err.certificate, err.lp) from None


def recover_k(lam, mu, zero_pattern):
    """K = [mu_1/lam_1 ... mu_n/lam_n], with exact zeros at `zero_pattern`
    (the LP pinned those entries of mu to 0)."""
    k = np.column_stack([mu[j] / lam[j] for j in range(len(lam))])
    for (i, j) in zero_pattern:
        k[i, j] = 0.0
    return k


def closed_loop(sys, k):
    """The closed-loop analysis system (A + BK, E, C + DK, F)."""
    return PositiveLtiSystem(A=sys.A + sys.B @ k, B=None, C=sys.C + sys.D @ k,
                             D=None, E=sys.E, F=sys.F)
