"""Exception types shared across the toolbox."""


class PoslpError(Exception):
    """Base class for all toolbox errors."""


class DimensionError(PoslpError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(PoslpError):
    """Matrix is singular or too ill-conditioned to invert reliably."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class ClassificationError(PoslpError):
    """Operation requires a structural property (Metzler, nonnegative) that fails."""


class ModelError(PoslpError):
    """System data is missing pieces the operation needs (e.g. B/D for synthesis)."""


class ValidationError(PoslpError):
    """Malformed linear program or value object."""


def require_keys(doc, what, *keys):
    """Raise a ValidationError naming the first of `keys` missing from `doc`."""
    for key in keys:
        if key not in doc:
            raise ValidationError(f"{what} is missing the key {key!r}")


def require_whole(value, what):
    """`value` as an int, if it is a nonnegative whole number (bools are not)."""
    if type(value) not in (int, float) or value < 0 or value % 1:
        raise ValidationError(f"{what} is {value!r}, not a whole number >= 0")
    return int(value)


def require_sizes(doc, what, *keys):
    """`keys`' values in `doc` (0 if absent) as ints, if all are nonnegative whole numbers."""
    return [require_whole(doc.get(key, 0), f"{what} key {key!r}") for key in keys]


class NonConvergenceError(PoslpError):
    """Iterative routine hit its iteration cap."""


class InfeasibleError(PoslpError):
    """A feasibility-style operation found its program, `lp`, infeasible (Farkas `certificate`)."""

    def __init__(self, message, certificate=None, lp=None):
        super().__init__(message)
        self.certificate = certificate
        self.lp = lp


class StabilityError(InfeasibleError):
    """Operation requires a Hurwitz-stable system."""


class DegreeError(PoslpError):
    """Polynomial degree exceeds what the operation supports."""


class CombinatorialCapError(PoslpError):
    """Enumeration, or the tableau it leads to, would exceed a configured cap."""


class WellPosednessError(PoslpError):
    """LFT loop I - Delta(delta) F00 is singular somewhere on the box."""


class DomainError(PoslpError):
    """Parameter outside its admissible range (e.g. delay-derivative bound >= 1)."""
