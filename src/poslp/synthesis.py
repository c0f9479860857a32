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
from .lpcore import LpBuilder, StrictnessPolicy, solve_lp


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


@dataclass
class SynthesisResult:
    K: np.ndarray
    gamma: float
    lam: np.ndarray
    mu: list                     # mu[j] = lambda_j * K[:, j]
    iterations: int


def synthesis_lp(sys, spec=None, policy=None):
    """Assemble the synthesis LP; variables [lambda, mu_0..mu_{n-1}, gamma].

    Gain rows are strict (closed with epsilon); the Metzler and nonnegativity
    rows that force closed-loop positivity are non-strict, exactly as in the
    underlying characterization."""
    spec = spec or FULL
    policy = policy or StrictnessPolicy()
    n, m, p, q = sys.n, sys.m, sys.p, sys.q
    if m == 0:
        raise ModelError("synthesis needs control matrices B and D")
    spec.validate(m, n)
    if not (sys.nonneg_E and sys.nonneg_F):
        raise ClassificationError("synthesis requires nonnegative E and F")

    b = LpBuilder()
    lam = b.add_vars("lam", n, lower=policy.lambda_floor)
    mu = [b.add_vars(f"mu{j}_", m) for j in range(n)]
    gamma = b.add_var("gamma", lower=0.0, objective=1.0)

    esum = sys.E.sum(axis=1)
    fsum = sys.F.sum(axis=1)
    for j in range(n):
        coeffs = {lam[i]: sys.A[j, i] for i in range(n)}
        for k in range(n):
            for l in range(m):
                coeffs[mu[k][l]] = coeffs.get(mu[k][l], 0.0) + sys.B[j, l]
        b.add_row(coeffs, "<=", -policy.epsilon - esum[j], f"st{j}")
    for j in range(q):
        coeffs = {lam[i]: sys.C[j, i] for i in range(n)}
        for k in range(n):
            for l in range(m):
                coeffs[mu[k][l]] = coeffs.get(mu[k][l], 0.0) + sys.D[j, l]
        coeffs[gamma] = -1.0
        b.add_row(coeffs, "<=", -policy.epsilon - fsum[j], f"pf{j}")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            coeffs = {lam[j]: sys.A[i, j]}
            for l in range(m):
                coeffs[mu[j][l]] = sys.B[i, l]
            b.add_row(coeffs, ">=", 0.0, f"mz{i}_{j}")
    for i in range(q):
        for j in range(n):
            coeffs = {lam[j]: sys.C[i, j]}
            for l in range(m):
                coeffs[mu[j][l]] = sys.D[i, l]
            b.add_row(coeffs, ">=", 0.0, f"nn{i}_{j}")
    for (i, j) in spec.zero_pattern:
        b.add_row({mu[j][i]: 1.0}, "==", 0.0, f"zero{i}_{j}")
    if spec.k_lower is not None:
        lo = numlin.as_matrix(spec.k_lower)
        up = numlin.as_matrix(spec.k_upper)
        for i in range(m):
            for j in range(n):
                b.add_row({mu[j][i]: 1.0, lam[j]: -lo[i, j]}, ">=", 0.0, f"lb{i}_{j}")
                b.add_row({mu[j][i]: 1.0, lam[j]: -up[i, j]}, "<=", 0.0, f"ub{i}_{j}")
    return b.build()


def stabilize_linf(sys, spec=None, policy=None, lp=None):
    """Minimize the certified closed-loop Linf-gain over the controller set.

    The open loop need not be positive; only E >= 0 and F >= 0 are required.
    Raises InfeasibleError when no admissible K makes the closed loop
    positive and stable (the conditions are lossless).  ``lp`` is
    `synthesis_lp(sys, spec, policy)` when the caller has built it already."""
    spec = spec or FULL
    sol = solve_lp(synthesis_lp(sys, spec, policy) if lp is None else lp)
    if sol.status != "optimal":
        raise InfeasibleError(
            f"synthesis LP {sol.status}: no controller in the requested set "
            "renders the closed loop positive and stable",
            certificate=sol.certificate)
    n, m = sys.n, sys.m
    lam = sol.x[:n]
    mu = [sol.x[n + j * m: n + (j + 1) * m] for j in range(n)]
    k = np.column_stack([mu[j] / lam[j] for j in range(n)])
    for (i, j) in spec.zero_pattern:
        k[i, j] = 0.0    # exact zeros; the LP pinned mu[j][i] to 0
    return SynthesisResult(K=k, gamma=float(sol.objective_value), lam=lam,
                           mu=mu, iterations=sol.iterations)


def closed_loop(sys, k):
    """The closed-loop analysis system (A + BK, E, C + DK, F)."""
    from .sysmodel import PositiveLtiSystem
    return PositiveLtiSystem(A=sys.A + sys.B @ k, B=None, C=sys.C + sys.D @ k,
                             D=None, E=sys.E, F=sys.F)
