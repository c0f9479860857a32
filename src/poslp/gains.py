"""L1 and Linf induced-gain computation by linear programming.

For a positive system the L1-gain is the optimal value of

    min gamma  s.t.  lambda > 0,  lambda^T A + 1^T C < 0,
                     lambda^T E - gamma 1^T + 1^T F < 0

and the Linf-gain is the same program written on the transposed system
(A lambda + E 1 < 0, C lambda - gamma 1 + F 1 < 0), which `lft.plain_lft`
picks by norm.  gamma enters as a plain LP variable with lower bound 0, so no
bisection is involved; the strict inequalities are closed by the
StrictnessPolicy, which biases the computed gain upward by O(epsilon).

The computed gains remain valid for sign-indefinite inputs and initial
states; nonnegativity of signals is a device of the derivation, not a
restriction on the certified bound.
"""

from .errors import ClassificationError, InfeasibleError, StabilityError
from .ilc import FreePolynomial
from .lft import plain_lft
from .robust import _assemble_gain, solve_robust
from .sysmodel import classify


def _program(sys, norm, policy):
    """The robust `norm` program of the system's LFT with no uncertainty channel."""
    lft = plain_lft(sys.A, sys.C, sys.E, sys.F, norm)
    return _assemble_gain(lft, FreePolynomial(0, saturated=False), policy)


def gain_lp(sys, norm, policy=None):
    """The strictified `norm`-gain LP ("l1" or "linf"), variables [lambda (n), gamma]."""
    return _program(sys, norm, policy).builder.build()


def gain(sys, norm, policy=None):
    """Minimal certified gamma with ||z|| <= gamma ||w|| in the `norm` ("l1" or "linf") of a
    positive system, as the `robust.RobustResult` that carries the witness lambda."""
    report = classify(sys)
    if not report.is_positive:
        raise ClassificationError(
            f"gain LP requires a positive system; violations: {report.violations[:3]}")
    try:
        return solve_robust(_program(sys, norm, policy))
    except InfeasibleError as err:
        raise StabilityError(f"{norm} LP infeasible: system is not asymptotically stable "
                             "(LP feasibility is equivalent to stability with finite gain)",
                             err.certificate, err.lp) from None
