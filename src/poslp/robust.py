"""Robust gain analysis and robust synthesis as semi-infinite linear programs.

Programs built here keep their polynomial-in-delta rows symbolic (nothing is
solved eagerly); the handelman module turns them into finite LPs, and a grid
sweep of frozen-parameter oracle gains runs after every solve as an
independent sanity check that can refute, but never certify, a bound.

The gain bounds certified with free or polynomial scalings are sufficient
only (the Lyapunov vector does not depend on the parameter), so each gain
result carries a `conservative` marker; the constant static-gain analysis
(`exact_constant_delta`) is lossless.  Two unrelated quantities share the
letter mu in the underlying theory: the delay-derivative bound lives on the
TimeVaryingDelay template, while the controller columns form the `mu`
variable block of synthesis programs; they never meet in one namespace.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import handelman, ilc, numlin, sysmodel
from .errors import (ClassificationError, CombinatorialCapError, DegreeError,
                     DimensionError, InfeasibleError, ModelError, StabilityError,
                     WellPosednessError)
from .gains import add_l1_rows
from .lft import (TransposedLft, _block_delta, _coeff_power, _wellposed_points,
                  channel_layout, close_at)
from .lpcore import LpBuilder, StrictnessPolicy, solve_lp
from .poly import monomials


@dataclass(frozen=True, eq=False)
class PolyRow:
    """One scalar robust row: sum_alpha delta^alpha (coeffs . x + const) <= 0."""

    name: str
    terms: dict

    def degree(self):
        return max((sum(a) for a in self.terms), default=0)


@dataclass(frozen=True, eq=False)
class RobustLinearProgram:
    """First-class robust LP: finished linear rows plus symbolic polynomial
    rows over a box, with named variable blocks for recovery."""

    var_names: tuple
    var_lower: np.ndarray
    var_upper: np.ndarray
    objective: np.ndarray
    linear_rows: tuple
    poly_rows: tuple
    domain: object
    blocks: dict
    epsilon: float
    lambda_floor: float
    conservative: bool
    which: str


class _Assembler:
    """Collects variables and routes rows: delta-free rows become linear rows
    immediately, anything else a PolyRow."""

    def __init__(self, domain, policy, which, conservative):
        self.domain = domain
        self.policy = policy
        self.which = which
        self.conservative = conservative
        self.names, self.lower, self.upper, self.obj = [], [], [], []
        self.linear, self.poly = [], []
        self.blocks = {}

    def var(self, name, lower=None, upper=None, objective=0.0):
        self.names.append(name)
        self.lower.append(-np.inf if lower is None else float(lower))
        self.upper.append(np.inf if upper is None else float(upper))
        self.obj.append(float(objective))
        return len(self.names) - 1

    def le0(self, name, terms, strict=False):
        """Add sum_alpha delta^alpha (coeffs_alpha . x + const_alpha) <= 0."""
        zero = (0,) * (self.domain.nparams if self.domain is not None else 0)
        terms = {a: (dict(c), float(k)) for a, (c, k) in terms.items()
                 if c or k != 0.0 or a == zero}
        if strict:
            c, k = terms.get(zero, ({}, 0.0))
            terms[zero] = (c, k + self.policy.epsilon)
        nontrivial = {a for a, (c, k) in terms.items()
                      if a != zero and (any(v != 0.0 for v in c.values()) or k != 0.0)}
        if not nontrivial:
            c, k = terms.get(zero, ({}, 0.0))
            self.linear.append((self.dense(c), "<=", -k, name))
        else:
            self.poly.append(PolyRow(name=name, terms={
                a: (self.dense(c), k) for a, (c, k) in terms.items()}))

    def dense(self, coeffs):
        dense = np.zeros(len(self.names))
        for j, v in coeffs.items():
            dense[j] += v
        return dense

    def ge0(self, name, terms, strict=False):
        neg = {a: ({j: -v for j, v in c.items()}, -k) for a, (c, k) in terms.items()}
        self.le0(name, neg, strict)

    def eq0(self, name, coeffs, rhs=0.0):
        self.linear.append((self.dense(coeffs), "==", float(rhs), name))

    def finish(self):
        n = len(self.names)
        linear = []
        for dense, rel, rhs, name in self.linear:
            full = np.zeros(n)
            full[: dense.shape[0]] = dense
            linear.append((full, rel, rhs, name))
        poly = []
        for row in self.poly:
            terms = {a: (np.concatenate([c, np.zeros(n - c.shape[0])]), k)
                     for a, (c, k) in row.terms.items()}
            poly.append(PolyRow(name=row.name, terms=terms))
        return RobustLinearProgram(
            var_names=tuple(self.names), var_lower=np.array(self.lower),
            var_upper=np.array(self.upper), objective=np.array(self.obj),
            linear_rows=tuple(linear), poly_rows=tuple(poly),
            domain=self.domain, blocks=self.blocks,
            epsilon=self.policy.epsilon, lambda_floor=self.policy.lambda_floor,
            conservative=self.conservative, which=self.which)


def _validate_positive_lft(lft):
    """Loop-signal nonnegativity patterns plus closed-loop positivity on a
    sample of the box; entrywise negativity of E0/F10 is fine."""
    for name in ("C0", "F00", "F01"):
        if not numlin.is_nonnegative(getattr(lft, name)):
            raise ClassificationError(f"positive LFT needs {name} >= 0")
    if lft.delta_structure is None:
        raise ModelError("parametric analysis needs a Delta(delta) structure")
    for point in _wellposed_points(lft.domain):
        if not numlin.is_nonnegative(lft.delta_structure.eval(point), tol=1e-12):
            raise ClassificationError(f"Delta(delta) has negative entries at {point}")
        report = sysmodel.classify(close_at(lft, point), tol=1e-9)
        if not report.is_positive:
            raise ClassificationError(
                f"closed loop is not positive at delta={point}: "
                f"{report.violations[:3]}")


def _phi_blocks(asm, sset, prefix_one="phi1", prefix_two="phi2"):
    phi1, phi2 = {}, {}
    for alpha in monomials(sset.nparams, sset.phi1_degree):
        tag = "_".join(map(str, alpha))
        phi1[alpha] = [asm.var(f"{prefix_one}[{tag}]{j}", lower=sset.phi1_lower)
                       for j in range(sset.n0)]
    for alpha in monomials(sset.nparams, sset.phi2_degree):
        tag = "_".join(map(str, alpha))
        phi2[alpha] = [asm.var(f"{prefix_two}[{tag}]{j}") for j in range(sset.n0)]
    asm.blocks["phi1"] = phi1
    asm.blocks["phi2"] = phi2
    return phi1, phi2


def _scaling_equalities(asm, sset, phi1, phi2):
    for e, eq in enumerate(sset.equalities):
        for j in range(sset.n0):
            coeffs = {}
            for which, alpha, coef in eq:
                block = phi1 if which == 1 else phi2
                if alpha not in block:
                    continue
                if np.isscalar(coef):
                    coeffs[block[alpha][j]] = coeffs.get(block[alpha][j], 0.0) + float(coef)
                else:
                    for i in range(sset.n0):
                        if coef[j, i] != 0.0:
                            coeffs[block[alpha][i]] = coeffs.get(block[alpha][i], 0.0) + coef[j, i]
            asm.eq0(f"sc{e}_{j}", coeffs)


def _ilc_rows(asm, lft, sset, phi1, phi2):
    if not sset.ilc_row:
        return
    delta_terms = sorted(lft.delta_structure.terms.items())
    for j in range(sset.n0):
        terms = {}
        for alpha, ids in phi1.items():
            c, k = terms.setdefault(alpha, ({}, 0.0))
            c[ids[j]] = c.get(ids[j], 0.0) + 1.0
        for beta, s in delta_terms:
            for alpha, ids in phi2.items():
                key = tuple(x + y for x, y in zip(alpha, beta))
                c, k = terms.setdefault(key, ({}, 0.0))
                for i in range(sset.n0):
                    if s[i, j] != 0.0:
                        c[ids[i]] = c.get(ids[i], 0.0) + s[i, j]
        asm.ge0(f"ilc{j}", terms)


def _assemble_gain(lft, template, policy, which):
    _validate_positive_lft(lft)
    sset = ilc.instantiate(template, lft)
    n, n0, p = lft.n, lft.n0, lft.p
    asm = _Assembler(lft.domain, policy, which, conservative=True)
    lam = [asm.var(f"lam{i}", lower=policy.lambda_floor) for i in range(n)]
    gamma = asm.var("gamma", lower=0.0, objective=1.0)
    asm.blocks["lam"] = lam
    asm.blocks["gamma"] = gamma
    phi1, phi2 = _phi_blocks(asm, sset)

    c1sum = lft.C1.sum(axis=0)
    f10sum = lft.F10.sum(axis=0)
    f11sum = lft.F11.sum(axis=0)
    for j in range(n):
        terms = {(0,) * sset.nparams: ({lam[i]: lft.A[i, j] for i in range(n)},
                                       c1sum[j])}
        for alpha, ids in phi1.items():
            c, k = terms.setdefault(alpha, ({}, 0.0))
            for i in range(n0):
                if lft.C0[i, j] != 0.0:
                    c[ids[i]] = c.get(ids[i], 0.0) + lft.C0[i, j]
        asm.le0(f"st{j}", terms, strict=True)
    for j in range(n0):
        terms = {(0,) * sset.nparams: ({lam[i]: lft.E0[i, j] for i in range(n)},
                                       f10sum[j])}
        for alpha, ids in phi2.items():
            c, k = terms.setdefault(alpha, ({}, 0.0))
            c[ids[j]] = c.get(ids[j], 0.0) + 1.0
        for alpha, ids in phi1.items():
            c, k = terms.setdefault(alpha, ({}, 0.0))
            for i in range(n0):
                if lft.F00[i, j] != 0.0:
                    c[ids[i]] = c.get(ids[i], 0.0) + lft.F00[i, j]
        asm.le0(f"ch{j}", terms, strict=True)
    for j in range(p):
        base = {lam[i]: lft.E1[i, j] for i in range(n)}
        base[gamma] = -1.0
        terms = {(0,) * sset.nparams: (base, f11sum[j])}
        for alpha, ids in phi1.items():
            c, k = terms.setdefault(alpha, ({}, 0.0))
            for i in range(n0):
                if lft.F01[i, j] != 0.0:
                    c[ids[i]] = c.get(ids[i], 0.0) + lft.F01[i, j]
        asm.le0(f"pf{j}", terms, strict=True)
    _ilc_rows(asm, lft, sset, phi1, phi2)
    _scaling_equalities(asm, sset, phi1, phi2)
    return asm.finish()


def robust_l1(lft, template, policy=None):
    """Robust L1 program for the w1 -> z1 transfer of a positive LFT.

    Feasibility at gain gamma certifies stability and an L1 bound for every
    delta in the box; the converse generally fails (constant Lyapunov
    vector), hence the conservative marker."""
    if isinstance(lft, TransposedLft):
        raise DimensionError("robust_l1 expects the plain LFT, not the transposed one")
    return _assemble_gain(lft, template, policy or StrictnessPolicy(), "l1")


def robust_linf(tlft, template, policy=None):
    """Robust Linf program: the L1 assembly on the transposed LFT."""
    if not isinstance(tlft, TransposedLft):
        raise DimensionError("robust_linf expects a TransposedLft")
    return _assemble_gain(tlft, template, policy or StrictnessPolicy(), "linf")


@dataclass
class RobustResult:
    which: str
    gamma: float
    lam: np.ndarray
    phi1: dict
    phi2: dict
    status: str
    form: str
    b: int | None
    epsilon: float
    conservative: bool
    lp_vars: int
    lp_rows: int
    iterations: int
    mu: list | None = None
    certificate: object | None = None


def solve_robust(rlp, b=None, form="reduced"):
    """Relax (when polynomial rows are present) and solve a robust program."""
    if form == "reduced":
        lp = handelman.relax_reduced(rlp, b)
    elif form == "full":
        lp = handelman.relax_full(rlp, b)
    else:
        raise DimensionError(f"unknown relaxation form {form!r}")
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise InfeasibleError(
            f"robust program {sol.status}; the bound could not be certified "
            "(the relaxation is sufficient only -- a larger product degree b or "
            "richer scalings may help)", certificate=sol.certificate)
    lam = np.array([sol.x[j] for j in rlp.blocks["lam"]])
    gamma = float(sol.x[rlp.blocks["gamma"]]) if "gamma" in rlp.blocks else np.nan
    phi1 = {a: np.array([sol.x[j] for j in ids])
            for a, ids in rlp.blocks.get("phi1", {}).items()}
    phi2 = {a: np.array([sol.x[j] for j in ids])
            for a, ids in rlp.blocks.get("phi2", {}).items()}
    used_b = None
    if rlp.poly_rows:
        used_b = b if b is not None else max(r.degree() for r in rlp.poly_rows) + 2
    mu = None
    if "mu" in rlp.blocks:
        mu = [np.array([sol.x[j] for j in col]) for col in rlp.blocks["mu"]]
    cert = handelman.extract_certificate(rlp, lp, sol, b, form)
    return RobustResult(which=rlp.which, gamma=gamma, lam=lam, phi1=phi1,
                        phi2=phi2, status=sol.status, form=form, b=used_b,
                        epsilon=rlp.epsilon, conservative=rlp.conservative,
                        lp_vars=lp.num_vars, lp_rows=lp.num_rows,
                        iterations=sol.iterations, mu=mu, certificate=cert)


# ---------------------------------------------------------------------------
# exact analysis for constant nonnegative Delta0 (lossless)

@dataclass
class ExactDeltaResult:
    feasible: bool
    gamma: float
    lam: np.ndarray | None
    phi1: np.ndarray | None
    phi2: np.ndarray | None
    iterations: int


def exact_constant_delta(lft, delta0, policy=None):
    """Stability and L1 bound of the loop closed with a constant Delta0 >= 0.

    Feasibility here is necessary AND sufficient: the saturated constant
    scalings phi1 = -Delta0^T phi2 characterize every LTI positive channel
    with static gain Delta0 exactly."""
    policy = policy or StrictnessPolicy()
    delta0 = numlin.as_matrix(delta0, "Delta0")
    n, n0, p = lft.n, lft.n0, lft.p
    if delta0.shape != (n0, n0):
        raise DimensionError(f"Delta0 must be {n0} x {n0}")
    if not numlin.is_nonnegative(delta0):
        raise ClassificationError("Delta0 must be nonnegative")
    m = np.eye(n0) - delta0 @ lft.F00
    if n0 and 1.0 / max(np.linalg.cond(m, 1), 1.0) < 1e-10:
        raise WellPosednessError("I - Delta0 F00 is singular")

    b = LpBuilder()
    lam = b.add_vars("lam", n, lower=policy.lambda_floor)
    gamma = b.add_var("gamma", lower=0.0, objective=1.0)
    phi1 = b.add_vars("phi1_", n0)
    phi2 = b.add_vars("phi2_", n0)
    c1sum = lft.C1.sum(axis=0)
    f10sum = lft.F10.sum(axis=0)
    f11sum = lft.F11.sum(axis=0)
    for j in range(n):
        coeffs = {lam[i]: lft.A[i, j] for i in range(n)}
        for i in range(n0):
            coeffs[phi1[i]] = lft.C0[i, j]
        b.add_row(coeffs, "<=", -policy.epsilon - c1sum[j], f"st{j}")
    for j in range(n0):
        coeffs = {lam[i]: lft.E0[i, j] for i in range(n)}
        coeffs[phi2[j]] = coeffs.get(phi2[j], 0.0) + 1.0
        for i in range(n0):
            coeffs[phi1[i]] = coeffs.get(phi1[i], 0.0) + lft.F00[i, j]
        b.add_row(coeffs, "<=", -policy.epsilon - f10sum[j], f"ch{j}")
    for j in range(p):
        coeffs = {lam[i]: lft.E1[i, j] for i in range(n)}
        coeffs[gamma] = -1.0
        for i in range(n0):
            coeffs[phi1[i]] = coeffs.get(phi1[i], 0.0) + lft.F01[i, j]
        b.add_row(coeffs, "<=", -policy.epsilon - f11sum[j], f"pf{j}")
    for j in range(n0):
        coeffs = {phi1[j]: 1.0}
        for i in range(n0):
            coeffs[phi2[i]] = coeffs.get(phi2[i], 0.0) + delta0[i, j]
        b.add_row(coeffs, "==", 0.0, f"sat{j}")
    sol = solve_lp(b.build())
    if sol.status != "optimal":
        return ExactDeltaResult(feasible=False, gamma=np.nan, lam=None,
                                phi1=None, phi2=None, iterations=sol.iterations)
    return ExactDeltaResult(
        feasible=True, gamma=float(sol.objective_value), lam=sol.x[:n],
        phi1=sol.x[n + 1: n + 1 + n0], phi2=sol.x[n + 1 + n0: n + 1 + 2 * n0],
        iterations=sol.iterations)


# ---------------------------------------------------------------------------
# vertex enumeration for affine dependence on a box

@dataclass
class VertexResult:
    which: str
    gamma: float
    lam: np.ndarray
    vertices: int
    epsilon: float
    iterations: int


def vertex_gain(psys, which="linf", policy=None, max_params=20):
    """Shared-Lyapunov gain bound with the rows replicated at every vertex of
    the box; valid for matrices affine in the parameters (convexity)."""
    policy = policy or StrictnessPolicy()
    if which not in ("l1", "linf"):
        raise DimensionError("which must be 'l1' or 'linf'")
    if psys.degree() > 1:
        raise DegreeError("vertex enumeration needs affine parameter dependence")
    if psys.nparams > max_params:
        raise CombinatorialCapError(
            f"{psys.nparams} parameters exceed the vertex cap of {max_params}")
    verts = psys.domain.vertices()
    frozen = []
    for v in verts:
        sysv = psys.frozen_at(v)
        report = sysmodel.classify(sysv, tol=1e-12)
        if not report.is_positive:
            raise ClassificationError(
                f"vertex system at {v} is not positive: {report.violations[:3]}")
        if not sysmodel.is_stable(sysv, policy):
            raise StabilityError(f"vertex system at {v} is not Hurwitz")
        frozen.append(sysv)

    n = psys.n
    b = LpBuilder()
    lam = b.add_vars("lam", n, lower=policy.lambda_floor)
    gamma = b.add_var("gamma", lower=0.0, objective=1.0)
    for vi, sysv in enumerate(frozen):
        if which == "linf":
            sysv = sysmodel.transpose_system(sysv)
        add_l1_rows(b, lam, gamma, sysv, policy, f"v{vi}_")
    sol = solve_lp(b.build())
    if sol.status != "optimal":
        raise InfeasibleError(f"vertex program {sol.status}",
                              certificate=sol.certificate)
    return VertexResult(which=which, gamma=float(sol.objective_value),
                        lam=sol.x[:n], vertices=len(verts),
                        epsilon=policy.epsilon, iterations=sol.iterations)


# ---------------------------------------------------------------------------
# robust synthesis (Linf performance, transposed closed-loop LFT)

def robust_stabilize(psys, template, spec=None, policy=None):
    """Robust state-feedback program: K = [mu_1/lam_1 ... mu_n/lam_n] renders
    the closed loop positive on the whole box, stable, and Linf-bounded.

    The open loop need not be positive, but E(delta) and F(delta) must be
    nonnegative on the box; rational dependence must be cleared to polynomial
    beforehand."""
    from .synthesis import ControllerSpec
    policy = policy or StrictnessPolicy()
    spec = spec or ControllerSpec()
    n, m, p, q = psys.n, psys.m, psys.p, psys.q
    if m == 0:
        raise ModelError("robust synthesis needs control matrices B and D")
    spec.validate(m, n)
    for point in _wellposed_points(psys.domain):
        if not numlin.is_nonnegative(psys.E.eval(point), tol=1e-12) or \
                not numlin.is_nonnegative(psys.F.eval(point), tol=1e-12):
            raise ClassificationError(
                f"E(delta), F(delta) must be nonnegative on the box; fails at {point}")

    blocks, n0 = channel_layout(psys, ("A", "B", "E"), ("C", "D", "F"), q,
                                "robust synthesis")
    nparams = psys.nparams
    delta = _block_delta(nparams, blocks, n0)
    # duck-typed channel descriptor for ilc.instantiate
    channel = SimpleNamespace(n0=n0, delta_structure=delta, domain=psys.domain)
    sset = ilc.instantiate(template, channel)

    asm = _Assembler(psys.domain, policy, "linf-synth", conservative=True)
    lam = [asm.var(f"lam{i}", lower=policy.lambda_floor) for i in range(n)]
    mu = [[asm.var(f"mu{j}_{i}") for i in range(m)] for j in range(n)]
    gamma = asm.var("gamma", lower=0.0, objective=1.0)
    asm.blocks["lam"] = lam
    asm.blocks["mu"] = mu
    asm.blocks["gamma"] = gamma
    asm.blocks["zero_pattern"] = tuple(spec.zero_pattern)
    phi1, phi2 = _phi_blocks(asm, sset)
    zero = (0,) * nparams

    a0 = psys.A.coeff(zero)
    b0 = psys.B.coeff(zero)
    c0 = psys.C.coeff(zero)
    d0 = psys.D.coeff(zero)
    e0 = psys.E.coeff(zero)
    f0 = psys.F.coeff(zero)

    def mu_sum_coeffs(mat_row):
        out = {}
        for cols in mu:
            for l, idx in enumerate(cols):
                out[idx] = out.get(idx, 0.0) + mat_row[l]
        return out

    state1 = [off for (k, kind, j, off, _w) in blocks if kind == "state" and j == 1]
    input1 = [off for (k, kind, j, off, _w) in blocks if kind == "input" and j == 1]
    shift_up = {}
    for (k, kind, j, off, w) in blocks:
        nxt = [o for (kk, kd, jj, o, _ww) in blocks
               if kk == k and kd == kind and jj == j + 1]
        shift_up[off] = nxt[0] if nxt else None

    e1sum = e0.sum(axis=1)
    f1sum = f0.sum(axis=1)
    for i in range(n):
        base = {lam[l]: a0[i, l] for l in range(n)}
        for idx, v in mu_sum_coeffs(b0[i, :]).items():
            base[idx] = base.get(idx, 0.0) + v
        terms = {zero: (base, e1sum[i])}
        for alpha, ids in phi1.items():
            c, k = terms.setdefault(alpha, ({}, 0.0))
            for off in state1:
                c[ids[off + i]] = c.get(ids[off + i], 0.0) + 1.0
        asm.le0(f"st{i}", terms, strict=True)

    for (k, kind, j, off, width) in blocks:
        if kind == "state":
            ak = _coeff_power(psys.A, k, j)
            bk = _coeff_power(psys.B, k, j)
            ek = _coeff_power(psys.E, k, j)
            const_vec = ek.sum(axis=1)
            lam_mat, mu_mat = ak, bk
        else:
            ck = _coeff_power(psys.C, k, j)
            dk = _coeff_power(psys.D, k, j)
            fk = _coeff_power(psys.F, k, j)
            const_vec = fk.sum(axis=1)
            lam_mat, mu_mat = ck, dk
        for r in range(width):
            base = {lam[l]: lam_mat[r, l] for l in range(n)}
            for idx, v in mu_sum_coeffs(mu_mat[r, :]).items():
                base[idx] = base.get(idx, 0.0) + v
            terms = {zero: (base, const_vec[r])}
            for alpha, ids in phi2.items():
                c, kk2 = terms.setdefault(alpha, ({}, 0.0))
                c[ids[off + r]] = c.get(ids[off + r], 0.0) + 1.0
            up = shift_up[off]
            if up is not None:
                for alpha, ids in phi1.items():
                    c, kk2 = terms.setdefault(alpha, ({}, 0.0))
                    c[ids[up + r]] = c.get(ids[up + r], 0.0) + 1.0
            asm.le0(f"ch{off + r}", terms, strict=True)

    for i in range(q):
        base = {lam[l]: c0[i, l] for l in range(n)}
        for idx, v in mu_sum_coeffs(d0[i, :]).items():
            base[idx] = base.get(idx, 0.0) + v
        base[gamma] = base.get(gamma, 0.0) - 1.0
        terms = {zero: (base, f1sum[i])}
        for alpha, ids in phi1.items():
            c, k = terms.setdefault(alpha, ({}, 0.0))
            for off in input1:
                c[ids[off + i]] = c.get(ids[off + i], 0.0) + 1.0
        asm.le0(f"pf{i}", terms, strict=True)

    _ilc_rows(asm, channel, sset, phi1, phi2)
    _scaling_equalities(asm, sset, phi1, phi2)

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            terms = {}
            for alpha in set(psys.A.terms) | set(psys.B.terms):
                coeffs = {lam[j]: psys.A.coeff(alpha)[i, j]}
                brow = psys.B.coeff(alpha)[i, :]
                for l in range(m):
                    coeffs[mu[j][l]] = coeffs.get(mu[j][l], 0.0) + brow[l]
                terms[alpha] = (coeffs, 0.0)
            asm.ge0(f"mz{i}_{j}", terms)
    for i in range(q):
        for j in range(n):
            terms = {}
            for alpha in set(psys.C.terms) | set(psys.D.terms):
                coeffs = {lam[j]: psys.C.coeff(alpha)[i, j]}
                drow = psys.D.coeff(alpha)[i, :]
                for l in range(m):
                    coeffs[mu[j][l]] = coeffs.get(mu[j][l], 0.0) + drow[l]
                terms[alpha] = (coeffs, 0.0)
            asm.ge0(f"nn{i}_{j}", terms)
    for (i, j) in spec.zero_pattern:
        asm.eq0(f"zero{i}_{j}", {mu[j][i]: 1.0})
    if spec.k_lower is not None:
        lo = numlin.as_matrix(spec.k_lower)
        up = numlin.as_matrix(spec.k_upper)
        for i in range(m):
            for j in range(n):
                asm.linear.append((asm.dense({mu[j][i]: -1.0, lam[j]: lo[i, j]}),
                                   "<=", 0.0, f"lb{i}_{j}"))
                asm.linear.append((asm.dense({mu[j][i]: 1.0, lam[j]: -up[i, j]}),
                                   "<=", 0.0, f"ub{i}_{j}"))
    return asm.finish()


@dataclass
class RobustSynthesisResult:
    K: np.ndarray
    gamma: float
    lam: np.ndarray
    status: str
    form: str
    b: int | None
    epsilon: float
    lp_vars: int
    lp_rows: int
    iterations: int


def solve_robust_synthesis(rlp, b=None, form="reduced"):
    """Solve a robust synthesis program and recover K column-wise."""
    base = solve_robust(rlp, b, form)
    lam = base.lam
    k = np.column_stack([base.mu[j] / lam[j] for j in range(len(lam))])
    for (i, j) in rlp.blocks.get("zero_pattern", ()):
        k[i, j] = 0.0
    return RobustSynthesisResult(K=k, gamma=base.gamma, lam=lam,
                                 status=base.status, form=base.form, b=base.b,
                                 epsilon=base.epsilon, lp_vars=base.lp_vars,
                                 lp_rows=base.lp_rows, iterations=base.iterations)


# ---------------------------------------------------------------------------
# independent grid certification (can refute, never certify)

@dataclass
class GridVerdict:
    ok: bool
    points: int
    max_oracle: float
    bound: float
    worst_point: np.ndarray | None
    failure: str | None = None


def _bound_ok(oracle, gamma):
    return oracle <= gamma * (1 + 1e-6) + 1e-6


def certification_grid(domain, points):
    """Sweep points: `points` per parameter for one parameter; for several,
    the per-axis count shrinks so the total stays near `points`, and the box
    vertices are always included."""
    n = domain.nparams
    if n <= 1:
        return domain.grid(points)
    per_axis = max(2, int(np.floor(points ** (1.0 / n))))
    pts = domain.grid(per_axis)
    seen = {tuple(p) for p in pts}
    for v in domain.vertices():
        if tuple(v) not in seen:
            pts.append(v)
    return pts


def _grid_sweep(psys, gamma, which, points, k=None):
    """Frozen-delta oracle over the certification grid, on the closed loop
    A + B K, C + D K when a gain K is given: the first point that is not
    positive (tol 1e-9) or not Hurwitz refutes, otherwise the worst
    `which`-gain (first occurrence) is compared to gamma."""
    grid = certification_grid(psys.domain, points)
    if not grid:
        return GridVerdict(_bound_ok(-np.inf, gamma), 0, -np.inf, gamma, None)
    a, b, c, d, e, f = psys.frozen_stack(np.reshape(grid, (len(grid), psys.nparams)))
    loop = ""
    if k is not None:
        a, c, loop = a + b @ k, c + d @ k, "closed loop "
    gain, failed = sysmodel.frozen_oracle(
        a, c, e, f, sysmodel.positive_stack(a, c, e, f, tol=1e-9))
    if failed is not None:
        point, why = failed
        what = "positive" if why == "structure" else "Hurwitz"
        return GridVerdict(False, len(grid), np.nan, gamma, grid[point],
                           failure=f"{loop}not {what} at {grid[point]}")
    vals = sysmodel.gain_norms(gain)[0 if which == "l1" else 1]
    point = int(np.argmax(vals))
    worst = float(vals[point])
    return GridVerdict(_bound_ok(worst, gamma), len(grid), worst, gamma, grid[point])


def grid_certify_gain(psys, gamma, which="l1", points=101, policy=None):
    """Sweep frozen-delta oracle gains over the box and compare to gamma.
    ``policy`` is accepted for compatibility; the oracle needs no margin."""
    return _grid_sweep(psys, gamma, which, points)


def grid_certify_synthesis(psys, k, gamma, points=101, policy=None):
    """Closed-loop positivity, stability and Linf bound on a grid."""
    return _grid_sweep(psys, gamma, "linf", points, np.asarray(k, dtype=float))
