"""Robust gain analysis and robust synthesis as semi-infinite linear programs.

`robust_gain` writes the L1 program of a polynomial system's canonical LFT,
and its Linf program as the L1 program of the transposed system's.  Programs
built here keep their polynomial-in-delta rows symbolic (nothing is solved
eagerly); the handelman module turns them into finite LPs, and a grid
sweep of frozen-parameter oracle gains runs after every solve as an
independent sanity check that can refute, but never certify, a bound.

The gain bounds certified with free or polynomial scalings are sufficient
only (the Lyapunov vector does not depend on the parameter); the constant
static-gain analysis (`exact_constant_delta`) is lossless.  Two unrelated
quantities share the letter mu in the underlying theory: the delay-derivative
bound lives on the TimeVaryingDelay template, while the controller columns
form the `mu` variable block of synthesis programs; they never meet in one
namespace.
"""


from dataclasses import dataclass, replace

import numpy as np

from . import handelman, ilc, sysmodel
from .errors import (ClassificationError, CombinatorialCapError, DegreeError, DimensionError,
                     InfeasibleError, ModelError, StabilityError, ValidationError)
from .lft import (_chain_coefficients, _close_stack, _wellposed_points, channel_layout,
                  lft_from_polynomial, plain_lft, transpose_lft)
from .lpcore import LpBuilder, StrictnessPolicy, solve_lp
from .poly import monomials
from .synthesis import ControllerSpec, controller_rows, recover_k


@dataclass(frozen=True, eq=False)
class PolyRow:
    """One scalar robust row: sum_alpha delta^alpha (coeffs . x + const) <= 0."""

    name: str
    terms: dict

    def degree(self):
        return max((sum(a) for a in self.terms), default=0)


@dataclass(frozen=True, eq=False)
class RobustLinearProgram:
    """First-class robust LP: the LpBuilder holding its variables and
    delta-free rows, symbolic polynomial rows over a box, and named variable
    blocks for recovery.  Relaxations append to a copy of the builder, so
    one program can be relaxed at several b and in both forms."""

    builder: LpBuilder
    poly_rows: tuple
    domain: object
    blocks: dict
    epsilon: float


# ---------------------------------------------------------------------------
# assembly: variables and delta-free rows on an LpBuilder, the rest PolyRows

def _span(cols):
    """The slice of a run of consecutive variable columns, as `add_vars`
    returns them."""
    start = cols[0] if len(cols) else 0
    return slice(start, start + len(cols))


def _terms(num_vars, rows, parts):
    """{alpha: coefficient block (rows, num_vars)}, the sum of the dense
    blocks of `parts` (alpha, row slice, consecutive variable columns, block)."""
    terms = {}
    for alpha, row_slice, cols, block in parts:
        if alpha not in terms:
            terms[alpha] = np.zeros((rows, num_vars))
        terms[alpha][row_slice, _span(cols)] += block
    return terms


def _add_rows(b, poly, zero, names, relation, terms, const=0.0, epsilon=0.0):
    """Rows sum_alpha delta^alpha (terms[alpha] @ x) + const `relation` 0,
    with `const` on the constant term (exponent `zero`) and `epsilon`
    closing strict rows: rows free of delta go onto the LpBuilder `b`, the
    others into the list `poly` as PolyRows; a row's terms are the ones
    with a nonzero coefficient, plus its constant term."""
    if not names:
        return
    if relation == ">=":
        terms = {alpha: -coeffs for alpha, coeffs in terms.items()}
        const, relation = -const, "<="
    const = np.zeros(len(names)) + const + epsilon
    base = terms.get(zero, np.zeros((len(names), b.num_vars)))
    terms = {alpha: coeffs for alpha, coeffs in terms.items() if alpha != zero and coeffs.any()}
    if not terms:
        b.add_rows(slice(0, b.num_vars), base, relation, -const, names)
        return
    varying = np.logical_or.reduce([coeffs.any(axis=1) for coeffs in terms.values()])
    fixed = ~varying
    b.add_rows(slice(0, b.num_vars), base[fixed], relation, -const[fixed],
               [name for name, keep in zip(names, fixed) if keep])
    for i in np.flatnonzero(varying):
        row = {zero: (base[i], const[i])}
        row.update((alpha, (coeffs[i], 0.0)) for alpha, coeffs in terms.items()
                   if coeffs[i].any())
        poly.append(PolyRow(name=names[i], terms=row))


def _phi_blocks(b, sset):
    """Scaling variables phi1[alpha], phi2[alpha] (n0 each) per monomial."""
    def block(which, degree, lower=None):
        return {alpha: b.add_vars(f"phi{which}[{'_'.join(map(str, alpha))}]", sset.n0, lower)
                for alpha in monomials(sset.nparams, degree)}
    return block(1, sset.phi1_degree, sset.phi1_lower), block(2, sset.phi2_degree)


def _scaling_equalities(b, sset, phi1, phi2):
    for e, eq in enumerate(sset.equalities):
        coeffs = np.zeros((sset.n0, b.num_vars))
        for which, alpha, coef in eq:
            block = phi1 if which == 1 else phi2
            if alpha in block:
                coeffs[:, _span(block[alpha])] += coef
        b.add_rows(slice(0, b.num_vars), coeffs, "==", 0.0,
                   [f"sc{e}_{j}" for j in range(sset.n0)])


def _ilc_rows(b, poly, zero, delta_structure, sset, phi1, phi2):
    """phi1(delta) + Delta(delta)^T phi2(delta) >= 0, one row per channel."""
    if not sset.ilc_row or sset.n0 == 0:
        return
    rows = slice(None)
    parts = [(alpha, rows, ids, np.eye(sset.n0)) for alpha, ids in phi1.items()]
    for beta, s in sorted(delta_structure.terms.items()):
        parts += [(tuple(x + y for x, y in zip(alpha, beta)), rows, ids, s.T)
                  for alpha, ids in phi2.items()]
    _add_rows(b, poly, zero, [f"ilc{j}" for j in range(sset.n0)], ">=",
              _terms(b.num_vars, sset.n0, parts))


def _lyapunov_rows(b, poly, zero, lft, lin, gamma, phi1, phi2, epsilon, prefix=""):
    """The copositive-Lyapunov rows of the L1 program of `lft`, strict by
    `epsilon`: state (st), one per loop signal (ch) and performance (pf),
    each name after `prefix`.
    `lin` holds (variable columns, block with one row per st, ch, pf row)
    pairs; the scalings enter through the loop blocks C0, F00, F01, and the
    constants are the column sums of C1, F10, F11."""
    n0, n = lft.C0.shape
    p = lft.F01.shape[1]
    st, ch, pf = slice(0, n), slice(n, n + n0), slice(n + n0, n + n0 + p)
    parts = [(zero, slice(None), cols, block) for cols, block in lin]
    parts.append((zero, pf, [gamma], -np.ones((p, 1))))
    for a, ids in phi1.items():
        parts += [(a, st, ids, lft.C0.T), (a, ch, ids, lft.F00.T), (a, pf, ids, lft.F01.T)]
    parts += [(a, ch, ids, np.eye(n0)) for a, ids in phi2.items()]
    names = ([f"{prefix}st{j}" for j in range(n)] + [f"{prefix}ch{j}" for j in range(n0)]
             + [f"{prefix}pf{j}" for j in range(p)])
    const = np.concatenate([lft.C1.sum(axis=0), lft.F10.sum(axis=0), lft.F11.sum(axis=0)])
    _add_rows(b, poly, zero, names, "<=", _terms(b.num_vars, n + n0 + p, parts), const, epsilon)


def _assemble_gain(lft, template, policy, mu_block=None):
    """The L1 program of `lft`; with `mu_block` (one row per st, ch, pf row)
    also the controller columns mu_j, j < n, entering every row through it."""
    sset = ilc.instantiate(template, lft)
    zero = (0,) * sset.nparams
    b = LpBuilder()
    lam = b.add_vars("lam", lft.n, lower=policy.lambda_floor)
    blocks = {"lam": lam}
    lin = [(lam, np.vstack([lft.A.T, lft.E0.T, lft.E1.T]))]
    if mu_block is not None:
        blocks["mu"] = [b.add_vars(f"mu{j}_", mu_block.shape[1]) for j in range(lft.n)]
        lin.append((sum(blocks["mu"], []), np.tile(mu_block, (1, lft.n))))
    gamma = b.add_var("gamma", lower=0.0, objective=1.0)
    phi1, phi2 = _phi_blocks(b, sset)
    poly = []
    _lyapunov_rows(b, poly, zero, lft, lin, gamma, phi1, phi2, policy.epsilon)
    _ilc_rows(b, poly, zero, lft.delta_structure, sset, phi1, phi2)
    _scaling_equalities(b, sset, phi1, phi2)
    blocks.update(gamma=gamma, phi1=phi1, phi2=phi2)
    return RobustLinearProgram(b, tuple(poly), lft.domain, blocks, policy.epsilon)


def robust_gain(psys, norm, template, policy=None):
    """Robust `norm` program ("l1" or "linf") for the w -> z transfer of a
    polynomial system positive on a sample of its box: the L1 assembly on its
    canonical LFT, and for Linf on that of the transposed system.

    Feasibility at gain gamma certifies stability and the bound for every
    delta in the box; the converse generally fails (constant Lyapunov
    vector), so the bound is sufficient only."""
    if norm not in ("l1", "linf"):
        raise DimensionError(f"unknown norm {norm!r}: use 'l1' or 'linf'")
    points = _wellposed_points(psys.domain)
    a, _, c, _, e, f = psys.frozen_stack(points)
    refused = ~sysmodel.positive_stack(a, c, e, f, tol=1e-9)
    if refused.any():
        point = points[int(np.argmax(refused))]
        report = sysmodel.classify(psys.frozen_at(point), tol=1e-9)
        raise ClassificationError(
            f"closed loop is not positive at delta={point}: {report.violations[:3]}")
    lft = lft_from_polynomial(psys) if norm == "l1" else transpose_lft(psys)
    return _assemble_gain(lft, template, policy or StrictnessPolicy())


@dataclass
class RobustResult:
    """A solved program, robust, vertex or nominal, in the form requested; on a box
    other than [0, 1]^N, `phi1`, `phi2` and the certificate are in theta (`on_unit_box`)."""

    gamma: float
    lam: np.ndarray
    phi1: dict
    phi2: dict
    form: str
    b: int | None
    epsilon: float
    mu: list | None = None
    certificate: object | None = None
    lp: object | None = None            # the relaxed LinearProgram that was solved
    K: np.ndarray | None = None         # synthesis: the gain mu_j / lambda_j per column


def solve_robust(rlp, b=None, form="reduced"):
    """Relax (when polynomial rows are present) and solve a robust program;
    the result carries the relaxed LP it solved and, for a program with
    controller columns, the gain K recovered column-wise from them."""
    relax = {"reduced": handelman.relax_reduced, "full": handelman.relax_full}.get(form)
    if relax is None:
        raise DimensionError(f"unknown relaxation form {form!r}")
    plan = handelman.plan_relaxation(rlp, b)
    lp = relax(rlp, b, plan=plan)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        hint = ("" if plan is None else " (the relaxation is sufficient only -- "
                "a larger product degree b or richer scalings may help)")
        raise InfeasibleError(f"robust program {sol.status}; the bound could not be certified"
                              + hint, certificate=sol.certificate, lp=lp)
    x = sol.x
    gamma = float(x[rlp.blocks["gamma"]]) if "gamma" in rlp.blocks else np.nan
    phi1, phi2 = ({a: x[ids] for a, ids in rlp.blocks.get(key, {}).items()}
                  for key in ("phi1", "phi2"))
    lam = x[rlp.blocks["lam"]]
    mu = [x[col] for col in rlp.blocks["mu"]] if "mu" in rlp.blocks else None
    k = None if mu is None else recover_k(lam, mu, rlp.blocks.get("zero_pattern", ()))
    return RobustResult(gamma=gamma, lam=lam, phi1=phi1, phi2=phi2, form=form,
                        b=None if plan is None else plan.degree, epsilon=rlp.epsilon, mu=mu,
                        lp=lp, certificate=handelman.extract_certificate(lp, sol, plan, form), K=k)


# ---------------------------------------------------------------------------
# exact analysis for constant nonnegative Delta0 (lossless)

@dataclass
class ExactDeltaResult:
    feasible: bool
    gamma: float
    lam: np.ndarray | None = None
    phi1: np.ndarray | None = None
    phi2: np.ndarray | None = None


def exact_constant_delta(lft, delta0, policy=None):
    """Stability and L1 bound of the loop closed with a constant Delta0 >= 0.

    Feasibility here is necessary AND sufficient: the saturated constant
    scalings phi1 = -Delta0^T phi2 characterize every LTI positive channel
    with static gain Delta0 exactly."""
    template = ilc.SaturatedStaticGain(delta0)
    rlp = _assemble_gain(lft, template, policy or StrictnessPolicy())
    _close_stack(lft, template.delta0[None], lambda g: "I - Delta0 F00 is singular")
    try:
        res = solve_robust(rlp)
    except InfeasibleError:
        return ExactDeltaResult(feasible=False, gamma=np.nan)
    (phi1,), (phi2,) = res.phi1.values(), res.phi2.values()
    return ExactDeltaResult(feasible=True, gamma=res.gamma, lam=res.lam, phi1=phi1, phi2=phi2)


# ---------------------------------------------------------------------------
# vertex enumeration for affine dependence on a box

VERTEX_CAP = 20        # parameters: the vertex program replicates its rows 2 ** N times


def vertex_gain(psys, which="linf", policy=None):
    """Shared-Lyapunov gain bound with the rows replicated at every vertex of
    the box; valid for matrices affine in the parameters (convexity)."""
    policy = policy or StrictnessPolicy()
    if which not in ("l1", "linf"):
        raise DimensionError("which must be 'l1' or 'linf'")
    if psys.degree() > 1:
        raise DegreeError("vertex enumeration needs affine parameter dependence")
    if psys.nparams > VERTEX_CAP:
        raise CombinatorialCapError(
            f"{psys.nparams} parameters exceed the vertex cap of {VERTEX_CAP}")
    verts = psys.domain.vertices()
    a, _, c, _, e, f = psys.frozen_stack(verts)
    positive = sysmodel.positive_stack(a, c, e, f, tol=1e-12)
    refused = ~(positive & sysmodel.mmatrix_hurwitz(a)[0])
    if refused.any():
        v = int(np.argmax(refused))
        if not positive[v]:
            report = sysmodel.classify(psys.frozen_at(verts[v]), tol=1e-12)
            raise ClassificationError(
                f"vertex system at {verts[v]} is not positive: {report.violations[:3]}")
        raise StabilityError(f"vertex system at {verts[v]} is not Hurwitz")

    b = LpBuilder()
    lam = b.add_vars("lam", psys.n, lower=policy.lambda_floor)
    gamma = b.add_var("gamma", lower=0.0, objective=1.0)
    for v in range(len(verts)):
        mats = (a[v], c[v], e[v], f[v]) if which == "l1" else (a[v].T, e[v].T, c[v].T, f[v].T)
        vertex = plain_lft(*mats)
        lin = [(lam, np.vstack([vertex.A.T, vertex.E1.T]))]
        _lyapunov_rows(b, [], (), vertex, lin, gamma, {}, {}, policy.epsilon, f"v{v}_")
    try:
        return solve_robust(RobustLinearProgram(b, (), psys.domain, {"lam": lam, "gamma": gamma},
                                                policy.epsilon))
    except InfeasibleError as err:
        raise InfeasibleError("vertex program infeasible", err.certificate, err.lp) from None


# ---------------------------------------------------------------------------
# robust synthesis (Linf performance, transposed closed-loop LFT)

def robust_stabilize(psys, template, spec=None, policy=None):
    """Robust state-feedback program: K = [mu_1/lam_1 ... mu_n/lam_n] renders
    the closed loop positive on the whole box, stable, and Linf-bounded.

    The open loop need not be positive, but E(delta) and F(delta) must be
    nonnegative on the box; rational dependence must be cleared to polynomial
    beforehand."""
    policy = policy or StrictnessPolicy()
    spec = spec or ControllerSpec()
    if psys.m == 0:
        raise ModelError("robust synthesis needs control matrices B and D")
    spec.validate(psys.m, psys.n)
    points = _wellposed_points(psys.domain)
    bad = np.logical_or(*[sysmodel.negative_entries(mat.eval_many(points), 1e-12)
                          .any(axis=(1, 2)) for mat in (psys.E, psys.F)])
    if bad.any():
        raise ClassificationError("E(delta), F(delta) must be nonnegative on the box; "
                                  f"fails at {points[int(np.argmax(bad))]}")
    psys = psys.on_unit_box()

    zero = (0,) * psys.nparams
    # the L1 program of the transposed closed loop, on chains that cover B and D:
    # mu_j = lam_j K[:, j], so (A + B K) lam = A lam + B sum_j mu_j, and so for C + D K
    layout = channel_layout(psys, ("A", "B", "E"), ("C", "D", "F"), psys.q, "robust synthesis")
    (mu_chain,) = _chain_coefficients(psys, layout[0], ("B",), ("D",))
    mu_block = np.vstack([psys.B.coeff(zero)] + mu_chain + [psys.D.coeff(zero)])
    rlp = _assemble_gain(transpose_lft(psys, layout), template, policy, mu_block)

    b, poly = rlp.builder, list(rlp.poly_rows)
    mats = (psys.A, psys.B, psys.C, psys.D)
    alphas = {zero}.union(*(mat.terms for mat in mats))
    for names, relation, terms in controller_rows(
            b.num_vars, rlp.blocks["lam"], rlp.blocks["mu"], spec,
            {a: tuple(mat.coeff(a) for mat in mats) for a in alphas}, zero):
        _add_rows(b, poly, zero, names, relation, terms)
    return replace(rlp, poly_rows=tuple(poly),
                   blocks=dict(rlp.blocks, zero_pattern=tuple(spec.zero_pattern)))


# ---------------------------------------------------------------------------
# independent grid certification (can refute, never certify)

@dataclass
class GridVerdict:
    ok: bool
    points: int
    max_oracle: float
    worst_point: np.ndarray | None
    failure: str | None = None


def _bound_ok(oracle, gamma):
    return oracle <= gamma * (1 + 1e-6) + 1e-6


def certification_grid(domain, points):
    """Sweep points, a (G, N) array: `points` per parameter for one parameter;
    for several, the per-axis count shrinks so the total stays near `points`,
    at least 2, so the mesh's end points make every box vertex a point."""
    if points < 0:
        raise ValidationError(f"the certification grid needs points >= 0, got {points}")
    n = domain.nparams
    if n <= 1:
        return domain.grid(points)
    per_axis = round(points ** (1.0 / n))      # the integer root: the float one may fall short
    while per_axis ** n > points:
        per_axis -= 1
    return domain.grid(max(2, per_axis))


def _grid_sweep(psys, gamma, which, points, k=None):
    """Frozen-delta oracle over the certification grid, on the closed loop
    A + B K, C + D K when a gain K is given: the first point that is not
    positive (tol 1e-9) or not Hurwitz refutes, otherwise the worst
    `which`-gain (first occurrence) is compared to gamma."""
    grid = certification_grid(psys.domain, points)
    if not len(grid):
        return GridVerdict(_bound_ok(-np.inf, gamma), 0, -np.inf, None)
    a, b, c, d, e, f = psys.frozen_stack(grid)
    loop = ""
    if k is not None:
        a, c, loop = a + b @ k, c + d @ k, "closed loop "
    gain, failed = sysmodel.frozen_oracle(
        a, c, e, f, sysmodel.positive_stack(a, c, e, f, tol=1e-9))
    if failed is not None:
        point, why = failed
        what = "positive" if why == "structure" else "Hurwitz"
        return GridVerdict(False, len(grid), np.nan, grid[point],
                           failure=f"{loop}not {what} at {grid[point]}")
    vals = sysmodel.gain_norms(gain)[0 if which == "l1" else 1]
    point = int(np.argmax(vals))
    worst = float(vals[point])
    return GridVerdict(_bound_ok(worst, gamma), len(grid), worst, grid[point])


def grid_certify_gain(psys, gamma, which="l1", points=101):
    """Sweep frozen-delta oracle gains over the box and compare to gamma."""
    return _grid_sweep(psys, gamma, which, points)


def grid_certify_synthesis(psys, k, gamma, points=101):
    """Closed-loop positivity, stability and Linf bound on a grid."""
    return _grid_sweep(psys, gamma, "linf", points, np.asarray(k, dtype=float))
