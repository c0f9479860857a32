"""Positive linear-fractional representations of polynomially-uncertain systems.

The canonical construction works on [0, 1]^N (`PolynomialLtiSystem.on_unit_box`
maps another box there), parameter by parameter: for parameter k with
state-channel degree s_k and input-channel degree t_k it stacks the loop signals

    z0 = [x, delta_k x, ..., delta_k^{s_k-1} x, w1, delta_k w1, ...]

so that closing w0 = Delta(delta) z0 with Delta = blockdiag(delta_k I) >= 0
reproduces the polynomial system exactly.  Cross-parameter monomials are not
representable by this layout and are rejected.
"""

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import DimensionError, ModelError, WellPosednessError
from .poly import BoxDomain, Poly, PolynomialLtiSystem

_WELLPOSED_RCOND = 1e-10


@dataclass(frozen=True, eq=False)
class LftSystem:
    """Nine-block LFT data; the loop is w0 = Delta(delta) z0, well-posed on all of R^N when
    every term of Delta times F00 is strictly lower triangular (det(I - Delta F00) = 1, as in
    every canonical LFT) and otherwise sampled on the box by `_check_well_posed` on construction.
    ``delta_structure`` is an n0 x n0 matrix polynomial describing Delta(delta); it is None for
    operator-type uncertainty (e.g. delays), analyzed only through a constant static gain.  A
    canonical LFT is written in theta on the unit box `domain`.  The blocks may also be
    (G, rows, cols) stacks of G systems of one shape, as `plain_lft` builds for vertices."""

    A: np.ndarray
    E0: np.ndarray
    E1: np.ndarray
    C0: np.ndarray
    C1: np.ndarray
    F00: np.ndarray
    F01: np.ndarray
    F10: np.ndarray
    F11: np.ndarray
    delta_structure: Poly | None
    domain: BoxDomain | None

    def __post_init__(self):
        a = numlin.as_matrix(self.A, "A", stack=True)
        stack, n = a.shape[:-2], a.shape[-1]
        if a.shape[-2] != n:
            raise DimensionError("A must be square")
        e0 = numlin.as_matrix(self.E0, "E0", stack=True)
        c0 = numlin.as_matrix(self.C0, "C0", stack=True)
        n0 = e0.shape[-1]
        e1 = numlin.as_matrix(self.E1, "E1", stack=True)
        c1 = numlin.as_matrix(self.C1, "C1", stack=True)
        p, q = e1.shape[-1], c1.shape[-2]
        f00 = numlin.as_matrix(self.F00, "F00", stack=True)
        f01 = numlin.as_matrix(self.F01, "F01", stack=True)
        f10 = numlin.as_matrix(self.F10, "F10", stack=True)
        f11 = numlin.as_matrix(self.F11, "F11", stack=True)
        expect = {"E0": (e0, (n, n0)), "C0": (c0, (n0, n)), "E1": (e1, (n, p)),
                  "C1": (c1, (q, n)), "F00": (f00, (n0, n0)), "F01": (f01, (n0, p)),
                  "F10": (f10, (q, n0)), "F11": (f11, (q, p))}
        for name, (mat, shape) in expect.items():
            if mat.shape != stack + shape:
                raise DimensionError(f"{name} has shape {mat.shape}, expected {stack + shape}")
            object.__setattr__(self, name, mat)
        object.__setattr__(self, "A", a)
        if self.delta_structure is not None and stack:
            raise DimensionError("a stack of LFTs has no delta_structure")
        if self.delta_structure is not None:
            if self.delta_structure.shape != (n0, n0):
                raise DimensionError("delta_structure must be n0 x n0")
            if self.domain is None:
                raise DimensionError("parametric uncertainty needs a box domain")
            if self.delta_structure.nparams != self.domain.nparams:
                raise DimensionError(f"delta_structure has {self.delta_structure.nparams} "
                                     f"parameters, the box {self.domain.nparams}")
            if any(np.triu(d @ f00).any() for d in self.delta_structure.terms.values()):
                _check_well_posed(self)

    @property
    def n(self):
        return self.A.shape[-1]

    @property
    def n0(self):
        return self.E0.shape[-1]

    @property
    def p(self):
        return self.E1.shape[-1]

    @property
    def q(self):
        return self.C1.shape[-2]


def _wellposed_points(domain):
    return domain.grid({1: 11, 2: 7}.get(domain.nparams, 3))


def _close_stack(lft, deltas, where):
    """Closed-loop (A, C, E, F) stacks of w0 = Delta z0 for the stack `deltas`
    (G, n0, n0); WellPosednessError(where(g)) at the first g where
    I - Delta F00 is singular."""
    if lft.n0 == 0:
        return tuple(np.repeat(m[None], len(deltas), 0) for m in (lft.A, lft.C1, lft.E1, lft.F11))
    m = np.eye(lft.n0) - deltas @ lft.F00
    singular = 1.0 / np.maximum(np.linalg.cond(m, 1), 1.0) < _WELLPOSED_RCOND
    if singular.any():
        raise WellPosednessError(where(int(np.argmax(singular))))
    w = np.linalg.solve(m, deltas)     # (I - Delta F00)^{-1} Delta
    return (lft.A + lft.E0 @ w @ lft.C0, lft.C1 + lft.F10 @ w @ lft.C0,
            lft.E1 + lft.E0 @ w @ lft.F01, lft.F11 + lft.F10 @ w @ lft.F01)


def _check_well_posed(lft):
    """Box sample, Delta there and the loop closed there: the well-posedness check of an LFT
    whose structure does not prove it."""
    points = _wellposed_points(lft.domain)
    deltas = lft.delta_structure.eval_many(points)
    return points, deltas, _close_stack(
        lft, deltas, lambda g: f"I - Delta(delta) F00 is singular near delta={points[g]}")


def channel_layout(psys, state=("A", "C"), inputs=("E", "F"), input_width=None,
                   user="canonical LFT construction"):
    """Ordered channel blocks [(param, kind, power, offset, width), ...]: per
    parameter, a state chain (width n) as long as the highest power of the
    `state` matrices and an input chain (width p unless `input_width`) as
    long as that of the `inputs`; cross-parameter monomials are rejected."""
    for name in state + inputs:
        for alpha in getattr(psys, name).terms:
            if sum(1 for a in alpha if a > 0) > 1:
                raise ModelError(f"{user} needs per-parameter (separable) "
                                 f"dependence; {name} has cross term {alpha}")
    chains = (("state", state, psys.n),
              ("input", inputs, psys.p if input_width is None else input_width))
    blocks = []
    offset = 0
    for k in range(psys.nparams):
        for kind, names, width in chains:
            for j in range(1, max(getattr(psys, m).degree_in(k) for m in names) + 1):
                blocks.append((k, kind, j, offset, width))
                offset += width
    return blocks, offset


def _chain_coefficients(psys, layout, state=("A", "C"), inputs=("E", "F")):
    """Per pair of a `state` and an `inputs` polynomial, the coefficient of
    delta_k^j of every block (k, kind, j, ...) of `layout`, in layout order:
    the state polynomial's on state chains, the input polynomial's on input
    chains."""
    return [[getattr(psys, st if kind == "state" else inp).coeff(
                 tuple(j if i == k else 0 for i in range(psys.nparams)))
             for (k, kind, j, _off, _width) in layout]
            for st, inp in zip(state, inputs)]


def _loop_blocks(psys, layout, n0):
    """The loop blocks C0 (n0 x n), F00 (n0 x n0) and F01 (n0 x p) and the
    Delta(delta) of a `channel_layout` of `psys`, in one walk: the first
    block of a state (input) chain reads x (w1), every later block the one
    before it, and Delta multiplies every block of parameter k by delta_k."""
    n, p, nparams = psys.n, psys.p, psys.nparams
    c0, f00, f01 = np.zeros((n0, n)), np.zeros((n0, n0)), np.zeros((n0, p))
    sel = np.zeros((nparams, n0, n0))
    for (k, kind, j, off, width) in layout:
        sel[k, off:off + width, off:off + width] = np.eye(width)
        if j > 1:
            f00[off:off + width, off - width:off] = np.eye(width)
        elif kind == "state":
            c0[off:off + width, :] = np.eye(n)
        else:
            f01[off:off + width, :] = np.eye(p)
    delta = dict(zip(map(tuple, np.eye(nparams, dtype=int)), sel))    # Poly drops zeros
    return c0, f00, f01, Poly(nparams, (n0, n0), delta)


def _transposes(norm):
    """Whether the `norm` program is the L1 program of the transposed system: True for
    "linf", False for "l1", DimensionError for any other norm."""
    if norm not in ("l1", "linf"):
        raise DimensionError(f"unknown norm {norm!r}: use 'l1' or 'linf'")
    return norm == "linf"


def lft_from_polynomial(psys, norm="l1", layout=None):
    """Canonical positive LFT whose L1 program is the `norm` program of a polynomial
    system (disturbance channel only): for Linf that of the coefficient-wise transposed
    system (A^T, C^T in, E^T out, F^T).  It is built on the `channel_layout` `layout`,
    or else on the (transposed) system's own; robust synthesis passes one whose chains
    also cover B and D.  Control matrices B, D are otherwise ignored."""
    if _transposes(norm):
        psys = PolynomialLtiSystem(
            A=psys.A.transpose(), B=Poly.zero(psys.nparams, (psys.n, 0)), C=psys.E.transpose(),
            D=Poly.zero(psys.nparams, (psys.p, 0)), E=psys.C.transpose(), F=psys.F.transpose(),
            domain=psys.domain)
    psys = psys.on_unit_box()
    blocks, n0 = layout or channel_layout(psys)
    n, q = psys.n, psys.q
    zero = (0,) * psys.nparams
    e_cols, f10_cols = _chain_coefficients(psys, blocks)
    c0, f00, f01, delta = _loop_blocks(psys, blocks, n0)
    return LftSystem(A=psys.A.coeff(zero), E0=np.hstack([np.zeros((n, 0))] + e_cols),
                     E1=psys.E.coeff(zero), C0=c0, C1=psys.C.coeff(zero), F00=f00, F01=f01,
                     F10=np.hstack([np.zeros((q, 0))] + f10_cols), F11=psys.F.coeff(zero),
                     delta_structure=delta, domain=psys.domain)


def plain_lft(a, c, e, f, norm):
    """LFT with no uncertainty channel (n0 = 0) whose L1 program is the `norm` program
    of dx/dt = A x + E w, z = C x + F w: for Linf that of (A^T, C^T in, E^T out, F^T).
    Given (G, rows, cols) stacks of G systems, the stack of their LFTs."""
    if _transposes(norm):
        a, c, e, f = (np.swapaxes(m, -1, -2) for m in (a, e, c, f))
    stack, n, q, p = a.shape[:-2], a.shape[-1], c.shape[-2], e.shape[-1]
    return LftSystem(A=a, E0=np.zeros(stack + (n, 0)), E1=e, C0=np.zeros(stack + (0, n)), C1=c,
                     F00=np.zeros(stack + (0, 0)), F01=np.zeros(stack + (0, p)),
                     F10=np.zeros(stack + (q, 0)), F11=f, delta_structure=None, domain=None)


def delay_lft(a, a_h, e=None, c=None, f=None):
    """LFT of dx/dt = A x(t) + A_h x(t - h) (+ E w), z = C x (+ F w): the
    delayed state enters through one operator channel with unit static gain.

    Without (e, c, f) the representation is stability-only (no performance
    channel)."""
    a = numlin.as_matrix(a, "A")
    a_h = numlin.as_matrix(a_h, "A_h")
    n = a.shape[0]
    if a.shape != (n, n) or a_h.shape != (n, n):
        raise DimensionError("A and A_h must be square of equal size")
    e = np.zeros((n, 0)) if e is None else numlin.as_matrix(e, "E")
    c = np.zeros((0, n)) if c is None else numlin.as_matrix(c, "C")
    p, q = e.shape[1], c.shape[0]
    f = np.zeros((q, p)) if f is None else numlin.as_matrix(f, "F")
    return LftSystem(A=a, E0=a_h, E1=e, C0=np.eye(n), C1=c,
                     F00=np.zeros((n, n)), F01=np.zeros((n, p)),
                     F10=np.zeros((q, n)), F11=f,
                     delta_structure=None, domain=None)

