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

from . import sysmodel
from .errors import ClassificationError, InfeasibleError, StabilityError
from .ilc import FreeConstant
from .lft import plain_lft
from .lpcore import StrictnessPolicy
from .robust import _assemble_gain, solve_robust


def _program(sys, policy):
    """The robust L1 program of the system's LFT with no uncertainty channel."""
    lft = plain_lft(sys.A, sys.C, sys.E, sys.F)
    return _assemble_gain(lft, FreeConstant(), policy or StrictnessPolicy())


def l1_lp(sys, policy=None):
    """The strictified L1-gain LP, variables [lambda_0..lambda_{n-1}, gamma]."""
    return _program(sys, policy).builder.build()


def linf_lp(sys, policy=None):
    """The strictified Linf-gain LP: the L1 program of the transposed system."""
    return l1_lp(sysmodel.transpose_system(sys), policy)


def _solve(sys, which, policy):
    """The `robust.RobustResult` of the `which`-gain program of a positive system."""
    report = sysmodel.classify(sys)
    if not report.is_positive:
        raise ClassificationError(
            f"gain LP requires a positive system; violations: {report.violations[:3]}")
    try:
        return solve_robust(_program(sys if which == "l1" else sysmodel.transpose_system(sys),
                                     policy))
    except InfeasibleError as err:
        raise StabilityError(f"{which} LP infeasible: system is not asymptotically stable "
                             "(LP feasibility is equivalent to stability with finite gain)",
                             err.certificate, err.lp) from None


def l1_gain(sys, policy=None):
    """Minimal certified gamma with ||z||_L1 <= gamma ||w||_L1, plus witness lambda."""
    return _solve(sys, "l1", policy)


def linf_gain(sys, policy=None):
    """Minimal certified gamma with ||z||_Linf <= gamma ||w||_Linf: the transpose's L1-gain."""
    return _solve(sys, "linf", policy)
