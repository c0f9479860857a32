"""L1 and Linf induced-gain computation by linear programming.

For a positive system the L1-gain is the optimal value of

    min gamma  s.t.  lambda > 0,  lambda^T A + 1^T C < 0,
                     lambda^T E - gamma 1^T + 1^T F < 0

and the Linf-gain is the same program written on the transposed system
(A lambda + E 1 < 0, C lambda - gamma 1 + F 1 < 0).  gamma enters as a plain
LP variable with lower bound 0, so no bisection is involved; the strict
inequalities are closed by the StrictnessPolicy, which biases the computed
gain upward by O(epsilon).

The computed gains remain valid for sign-indefinite inputs and initial
states; nonnegativity of signals is a device of the derivation, not a
restriction on the certified bound.
"""

from dataclasses import dataclass

import numpy as np

from . import numlin, sysmodel
from .errors import ClassificationError, StabilityError
from .lpcore import LpBuilder, StrictnessPolicy, solve_lp


@dataclass
class GainResult:
    gamma: float
    lam: np.ndarray
    oracle: float | None      # static-gain value, for visibility of the eps bias
    epsilon: float
    iterations: int


def add_l1_rows(b, lam, gamma, sys, policy, prefix=""):
    """Add the strictified L1 rows of `sys` to the LpBuilder `b`:
    lambda^T A + 1^T C <= -eps and lambda^T E - gamma 1^T + 1^T F <= -eps."""
    n = sys.n
    csum = sys.C.sum(axis=0)
    fsum = sys.F.sum(axis=0)
    for j in range(n):
        b.add_row({lam[i]: sys.A[i, j] for i in range(n)}, "<=",
                  -policy.epsilon - csum[j], f"{prefix}st{j}")
    for j in range(sys.p):
        coeffs = {lam[i]: sys.E[i, j] for i in range(n)}
        coeffs[gamma] = -1.0
        b.add_row(coeffs, "<=", -policy.epsilon - fsum[j], f"{prefix}pf{j}")


def _l1_program(sys, policy):
    policy = policy or StrictnessPolicy()
    b = LpBuilder()
    lam = b.add_vars("lam", sys.n, lower=policy.lambda_floor)
    gamma = b.add_var("gamma", lower=0.0, objective=1.0)
    add_l1_rows(b, lam, gamma, sys, policy)
    return b.build()


def l1_lp(sys, policy=None):
    """The strictified L1-gain LP; variables [lambda_0..lambda_{n-1}, gamma]."""
    return _l1_program(sys, policy)


def linf_lp(sys, policy=None):
    """The strictified Linf-gain LP: the L1 program of the transposed system."""
    return _l1_program(sysmodel.transpose_system(sys), policy)


def _static_gain_unchecked(sys):
    if sys.p == 0 or sys.q == 0:
        return sys.F
    return sys.F - sys.C @ numlin.solve(sys.A, sys.E)


def _run(sys, lp, which, policy):
    report = sysmodel.classify(sys)
    if not report.is_positive:
        raise ClassificationError(
            f"gain LP requires a positive system; violations: {report.violations[:3]}")
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise StabilityError(
            f"{which} LP {sol.status}: system is not asymptotically stable "
            "(LP feasibility is equivalent to stability with finite gain)")
    n = sys.n
    try:
        h0 = _static_gain_unchecked(sys)
        oracle = float(np.max(h0.sum(axis=0 if which == "l1" else 1), initial=0.0))
    except Exception:
        oracle = None
    return GainResult(gamma=float(sol.objective_value), lam=sol.x[:n],
                      oracle=oracle, epsilon=policy.epsilon,
                      iterations=sol.iterations)


def l1_gain(sys, policy=None, lp=None):
    """Minimal certified gamma with ||z||_L1 <= gamma ||w||_L1, plus witness.

    ``lp`` is `l1_lp(sys, policy)` when the caller has built it already."""
    policy = policy or StrictnessPolicy()
    return _run(sys, l1_lp(sys, policy) if lp is None else lp, "l1", policy)


def linf_gain(sys, policy=None, lp=None):
    """Minimal certified gamma with ||z||_Linf <= gamma ||w||_Linf.

    Equals the L1-gain of the transposed system.  ``lp`` is
    `linf_lp(sys, policy)` when the caller has built it already."""
    policy = policy or StrictnessPolicy()
    return _run(sys, linf_lp(sys, policy) if lp is None else lp, "linf", policy)
