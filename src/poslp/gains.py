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

from . import sysmodel
from .errors import ClassificationError, PoslpError, StabilityError
from .lpcore import LpBuilder, StrictnessPolicy, solve_lp


@dataclass
class GainResult:
    gamma: float
    lam: np.ndarray
    oracle: float | None      # static-gain value, for visibility of the eps bias;
                              # None where the M-matrix oracle refuses A
    epsilon: float
    iterations: int


def add_l1_rows(b, cols, gamma, a, c, e, f, policy, prefix=""):
    """Add the strictified L1 rows to the LpBuilder `b`, with lambda on the
    variable columns `cols` (one per row of a and e): one row per column
    of a, lambda^T A + 1^T C <= -eps, and one per column of e,
    lambda^T E - gamma 1^T + 1^T F <= -eps."""
    eps = policy.epsilon
    b.add_rows(cols, a.T, "<=", -eps - c.sum(axis=0),
               [f"{prefix}st{j}" for j in range(a.shape[1])])
    b.add_rows(list(cols) + [gamma], np.hstack([e.T, -np.ones((e.shape[1], 1))]), "<=",
               -eps - f.sum(axis=0), [f"{prefix}pf{j}" for j in range(e.shape[1])])


def l1_lp(sys, policy=None):
    """The strictified L1-gain LP; variables [lambda_0..lambda_{n-1}, gamma]."""
    policy = policy or StrictnessPolicy()
    b = LpBuilder()
    lam = b.add_vars("lam", sys.n, lower=policy.lambda_floor)
    gamma = b.add_var("gamma", lower=0.0, objective=1.0)
    add_l1_rows(b, lam, gamma, sys.A, sys.C, sys.E, sys.F, policy)
    return b.build()


def linf_lp(sys, policy=None):
    """The strictified Linf-gain LP: the L1 program of the transposed system."""
    return l1_lp(sysmodel.transpose_system(sys), policy)


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
    try:
        oracle = sysmodel.oracle_gains(sys)[0 if which == "l1" else 1]
    except PoslpError:     # the oracle refuses A it cannot invert reliably
        oracle = None
    return GainResult(gamma=float(sol.objective_value), lam=sol.x[:sys.n],
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
