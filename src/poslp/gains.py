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
from .ilc import FreeConstant
from .lft import plain_lft
from .lpcore import StrictnessPolicy, solve_lp
from .robust import _assemble_gain


@dataclass
class GainResult:
    gamma: float
    lam: np.ndarray
    oracle: float | None      # static-gain value, for visibility of the eps bias;
                              # None where the M-matrix oracle refuses A
    epsilon: float


def l1_lp(sys, policy=None):
    """The strictified L1-gain LP: the robust L1 program of the system's LFT
    with no uncertainty channel; variables [lambda_0..lambda_{n-1}, gamma]."""
    lft = plain_lft(sys.A, sys.C, sys.E, sys.F)
    rlp = _assemble_gain(lft, FreeConstant(), policy or StrictnessPolicy())
    return rlp.builder.build()


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
                      oracle=oracle, epsilon=policy.epsilon)


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
