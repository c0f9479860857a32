"""Integral-linear-constraint scaling templates for uncertainty channels.

An ILC  int(phi1^T w0 + phi2^T z0) dt >= 0  collapses, at zero frequency, to
the algebraic inequality phi1^T + phi2^T Delta >= 0 on the channel's static
gain, so the templates below are purely algebraic: equality rows tying the
phi coefficients together plus, for free scalings, the polynomial inequality
itself.  "Saturated" templates enforce phi1(delta)^T = -phi2(delta)^T
Delta(delta) identically, which removes the inequality altogether.

For the multiplication operator with a time-varying parameter the saturated
polynomial choice is admissible but not claimed lossless; it is exposed as an
option without exactness promises.
"""

from dataclasses import dataclass

import numpy as np

from . import numlin, sysmodel
from .errors import ClassificationError, DimensionError, DomainError
from .poly import monomials


@dataclass(frozen=True)
class FreeConstant:
    """Constant phi1, phi2 constrained only by phi1 + Delta(delta)^T phi2 >= 0."""


@dataclass(frozen=True)
class FreePolynomial:
    """Polynomial scalings of the given degree (the degree of phi1).

    With ``saturated`` (the default) phi1 is tied to phi2 through
    phi1(delta) = -Delta(delta)^T phi2(delta) and the ILC inequality
    disappears; otherwise both are free and the inequality is kept as a
    polynomial constraint."""

    degree: int
    saturated: bool = True


@dataclass(frozen=True, eq=False)
class SaturatedStaticGain:
    """Constant scalings saturating the ILC of an LTI channel with known
    nonnegative static gain: phi1 = -Delta0^T phi2."""

    delta0: np.ndarray

    def __post_init__(self):
        d0 = numlin.as_matrix(self.delta0, "Delta0")
        if sysmodel.negative_entries(d0).any():
            raise ClassificationError("SaturatedStaticGain needs Delta0 >= 0")
        object.__setattr__(self, "delta0", d0)


@dataclass(frozen=True)
class ConstantDelay:
    """Constant-delay channel: unit static gain for every delay, phi1 = -phi2."""


@dataclass(frozen=True)
class TimeVaryingDelay:
    """Delay with derivative bound mu < 1; the channel gain is 1/(1-mu) and
    phi1 = phi >= 0, phi2 = -(1-mu) phi."""

    mu: float

    def __post_init__(self):
        if not self.mu < 1.0:
            raise DomainError("time-varying delay needs derivative bound mu < 1")


@dataclass(frozen=True, eq=False)
class ScalingConstraintSet:
    """Instantiated template for one channel.

    ``equalities`` is a tuple of blockwise rows; each row is a tuple of
    (which phi, exponent tuple, n0 x n0 coefficient matrix) terms whose
    matrix-weighted sum must vanish.  ``ilc_row`` asks the robust assembler to pose
    phi1(delta) + Delta(delta)^T phi2(delta) >= 0 over the box."""

    n0: int
    nparams: int
    phi1_degree: int
    phi2_degree: int
    equalities: tuple
    ilc_row: bool
    phi1_lower: float | None = None


def _saturation_equalities(delta_structure, nparams, n0, phi1_degree, phi2_degree):
    """phi1^alpha + sum_beta S_beta^T phi2^{alpha-beta} = 0 for all monomials."""
    rows = []
    for alpha in monomials(nparams, phi1_degree):
        terms = [(1, alpha, np.eye(n0))]
        for beta, s in sorted(delta_structure.terms.items()):
            rem = tuple(a - b for a, b in zip(alpha, beta))
            if min(rem) < 0 or sum(rem) > phi2_degree:
                continue
            terms.append((2, rem, s.T.copy()))
        rows.append(tuple(terms))
    return tuple(rows)


def instantiate(template, channel):
    """Turn a template into the constraint set for one LFT channel.

    ``channel`` is the LftSystem whose loop the scalings certify; only n0,
    delta_structure and domain are read."""
    n0 = channel.n0
    nparams = channel.domain.nparams if channel.domain is not None else 0

    if isinstance(template, FreeConstant):
        template = FreePolynomial(0, saturated=False)

    if isinstance(template, FreePolynomial):
        if template.degree < 0:
            raise DomainError("polynomial scaling degree must be >= 0")
        if not template.saturated:
            return ScalingConstraintSet(
                n0=n0, nparams=nparams, phi1_degree=template.degree,
                phi2_degree=template.degree, equalities=(), ilc_row=True)
        if channel.delta_structure is None:
            raise DimensionError("saturated polynomial scalings need Delta(delta)")
        ddeg = channel.delta_structure.degree()
        if template.degree < ddeg:
            # phi1 = -Delta^T phi2 could not be matched term by term
            raise DomainError(f"saturated scalings need degree >= {ddeg} (the degree of "
                              f"Delta(delta)), got {template.degree}")
        phi2_degree = max(template.degree - max(ddeg, 1), 0)
        eqs = _saturation_equalities(channel.delta_structure, nparams, n0,
                                     template.degree, phi2_degree)
        return ScalingConstraintSet(n0=n0, nparams=nparams,
                                    phi1_degree=template.degree,
                                    phi2_degree=phi2_degree,
                                    equalities=eqs, ilc_row=False)

    # constant scalings tied by c1 phi1 + c2 phi2 = 0
    eye = np.eye(n0)
    if isinstance(template, SaturatedStaticGain):
        if template.delta0.shape != (n0, n0):
            raise DimensionError(f"Delta0 must be {n0} x {n0}, got {template.delta0.shape}")
        c1, c2, phi1_lower = eye, template.delta0.T.copy(), None
    elif isinstance(template, ConstantDelay):
        c1, c2, phi1_lower = eye, eye, None
    elif isinstance(template, TimeVaryingDelay):
        c1, c2, phi1_lower = (1.0 - template.mu) * eye, eye, 0.0
    else:
        raise DimensionError(f"unknown scaling template {template!r}")
    zero = (0,) * nparams
    return ScalingConstraintSet(n0=n0, nparams=nparams, phi1_degree=0, phi2_degree=0,
                                equalities=(((1, zero, c1), (2, zero, c2)),), ilc_row=False,
                                phi1_lower=phi1_lower)
