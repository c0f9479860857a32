"""Robust gain analysis and robust synthesis as semi-infinite linear programs.

`robust_gain` writes the L1 program of the canonical LFT that
`lft.lft_from_polynomial` builds for the norm asked (for Linf, that of the
transposed system).  Programs built here keep their polynomial-in-delta rows
symbolic (nothing is solved eagerly); the handelman module turns them into
finite LPs, and a grid sweep of frozen-parameter oracle gains runs after every
solve as an independent sanity check that can refute, but never certify, a
bound.

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

from . import handelman, ilc, lpcore, sysmodel
from .errors import (ClassificationError, CombinatorialCapError, DegreeError, DimensionError,
                     InfeasibleError, ModelError, StabilityError, ValidationError)
from .lft import (_chain_coefficients, _close_stack, _wellposed_points, channel_layout,
                  lft_from_polynomial, plain_lft)
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


def _terms(num_vars, rows, parts, stack=()):
    """{alpha: coefficient block (rows, num_vars)}, the sum of the dense
    blocks of `parts` (alpha, row slice, consecutive variable columns, block);
    over a `stack` of G systems, their G blocks one under the other."""
    terms = {}
    for alpha, row_slice, cols, block in parts:
        if alpha not in terms:
            terms[alpha] = np.zeros(stack + (rows, num_vars))
        terms[alpha][..., row_slice, _span(cols)] += block
    return {alpha: coeffs.reshape(-1, num_vars) for alpha, coeffs in terms.items()}


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


def _lyapunov_rows(b, poly, zero, lft, lam, gamma, phi1, phi2, epsilon, lin=(), prefixes=("",)):
    """The copositive-Lyapunov rows of the L1 program of `lft`, strict by
    `epsilon`: state (st), one per loop signal (ch) and performance (pf),
    each name after its prefix; for a stack of G LFTs and G `prefixes`, one
    block of rows, system after system.
    The columns `lam` enter through the input blocks A, E0, E1, and `lin`
    holds further (variable columns, block with one row per st, ch, pf row)
    pairs; the scalings enter through the loop blocks C0, F00, F01, and the
    constants are the column sums of C1, F10, F11."""
    n, n0, p = lft.n, lft.n0, lft.p
    pf = slice(n + n0, n + n0 + p)
    inputs = np.concatenate([np.swapaxes(m, -1, -2) for m in (lft.A, lft.E0, lft.E1)], axis=-2)
    parts = [(zero, slice(None), cols, block) for cols, block in [(lam, inputs), *lin]]
    parts.append((zero, pf, [gamma], -np.ones((p, 1))))
    loop = np.concatenate([np.swapaxes(m, -1, -2) for m in (lft.C0, lft.F00, lft.F01)], axis=-2)
    parts += [(a, slice(None), ids, loop) for a, ids in phi1.items()]
    parts += [(a, slice(n, n + n0), ids, np.eye(n0)) for a, ids in phi2.items()]
    names = ([f"st{j}" for j in range(n)] + [f"ch{j}" for j in range(n0)]
             + [f"pf{j}" for j in range(p)])
    names = [prefix + name for prefix in prefixes for name in names]
    const = np.concatenate([m.sum(axis=-2) for m in (lft.C1, lft.F10, lft.F11)], axis=-1)
    _add_rows(b, poly, zero, names, "<=", _terms(b.num_vars, n + n0 + p, parts, lft.A.shape[:-2]),
              const.ravel(), epsilon)


def _assemble_gain(lft, template, policy=None, mu_block=None, prefixes=("",)):
    """The L1 program of `lft`, a stack's rows named after `prefixes`; with `mu_block` (one
    row per st, ch, pf row) also the controller columns mu_j, j < n, entering every row."""
    policy = policy or StrictnessPolicy()
    sset = ilc.instantiate(template, lft)
    zero = (0,) * sset.nparams
    b = LpBuilder()
    lam = b.add_vars("lam", lft.n, lower=policy.lambda_floor)
    blocks = {"lam": lam}
    lin = ()
    if mu_block is not None:
        blocks["mu"] = [b.add_vars(f"mu{j}_", mu_block.shape[1]) for j in range(lft.n)]
        lin = [(sum(blocks["mu"], []), np.tile(mu_block, (1, lft.n)))]
    gamma = b.add_var("gamma", lower=0.0, objective=1.0)
    phi1, phi2 = _phi_blocks(b, sset)
    poly = []
    _lyapunov_rows(b, poly, zero, lft, lam, gamma, phi1, phi2, policy.epsilon, lin,
                   prefixes=prefixes)
    _ilc_rows(b, poly, zero, lft.delta_structure, sset, phi1, phi2)
    _scaling_equalities(b, sset, phi1, phi2)
    blocks.update(gamma=gamma, phi1=phi1, phi2=phi2)
    return RobustLinearProgram(b, tuple(poly), lft.domain, blocks, policy.epsilon)


def robust_gain(psys, norm, template, policy=None):
    """Robust `norm` program ("l1" or "linf") for the w -> z transfer of a
    polynomial system positive on a sample of its box: the L1 assembly on the
    canonical LFT `lft_from_polynomial` builds for `norm`.

    Feasibility at gain gamma certifies stability and the bound for every
    delta in the box; the converse generally fails (constant Lyapunov
    vector), so the bound is sufficient only."""
    points = _wellposed_points(psys.domain)
    a, _, c, _, e, f = psys.frozen_stack(points)
    refused = ~sysmodel.positive_stack(a, c, e, f, tol=1e-9)
    if refused.any():
        point = points[int(np.argmax(refused))]
        report = sysmodel.classify(psys.frozen_at(point), tol=1e-9)
        raise ClassificationError(
            f"closed loop is not positive at delta={point}: {report.violations[:3]}")
    return _assemble_gain(lft_from_polynomial(psys, norm), template, policy)


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

def exact_constant_delta(lft, delta0, policy=None):
    """Stability and L1 bound of the loop closed with a constant Delta0 >= 0: the
    `RobustResult` of its program, or None when the loop is not stable.

    Feasibility here is necessary AND sufficient: the saturated constant
    scalings phi1 = -Delta0^T phi2 characterize every LTI positive channel
    with static gain Delta0 exactly."""
    template = ilc.SaturatedStaticGain(delta0)
    rlp = _assemble_gain(lft, template, policy)
    if (template.delta0 @ lft.F00).any():      # else I - Delta0 F00 = I
        _close_stack(lft, template.delta0[None], lambda g: "I - Delta0 F00 is singular")
    try:
        return solve_robust(rlp)
    except InfeasibleError:
        return None


# ---------------------------------------------------------------------------
# vertex enumeration for affine dependence on a box

VERTEX_CAP = 20        # parameters: the vertex program replicates its rows 2 ** N times


def vertex_gain(psys, norm, policy=None):
    """Shared-Lyapunov `norm`-gain bound with the rows replicated at every vertex
    of the box; valid for matrices affine in the parameters (convexity)."""
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
    rlp = _assemble_gain(plain_lft(a, c, e, f, norm), ilc.FreePolynomial(0, saturated=False),
                         policy, prefixes=[f"v{v}_" for v in range(len(verts))])
    try:
        return solve_robust(rlp)
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
    spec = spec or ControllerSpec()
    if psys.m == 0:
        raise ModelError("synthesis needs control matrices B and D")
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
    rlp = _assemble_gain(lft_from_polynomial(psys, "linf", layout), template, policy, mu_block)

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


def _per_axis(n, points):
    """Sweep points per parameter: `points` for one; for several, fewer so the total stays
    near `points`, at least 2, so the mesh's end points make every box vertex a point."""
    if points < 0:
        raise ValidationError(f"the certification grid needs points >= 0, got {points}")
    if n <= 1:
        return points
    per_axis = 1 << -(-int(points).bit_length() // n)    # >= the root, with no float to overflow
    while per_axis ** n > points:                          # Newton's steps on ints, down to it
        per_axis = ((n - 1) * per_axis + int(points) // per_axis ** (n - 1)) // n
    return max(2, per_axis)


def certification_grid(domain, points):
    """Sweep points, a (G, N) array of `_per_axis` points per parameter."""
    return domain.grid(_per_axis(domain.nparams, points))


def _sweep_axis(psys, points):
    """`_per_axis` for the grid of `psys`, refused when its stacks (the mesh, the frozen
    matrices, A's inverse, the gain) would pass `lpcore.TABLEAU_CAP` bytes."""
    per_axis, n, q = _per_axis(psys.nparams, points), psys.n, psys.q
    count = per_axis ** psys.nparams
    size = 8 * count * (psys.nparams + (n + q) * (n + psys.m + psys.p) + n * n + q * psys.p)
    if size > lpcore.TABLEAU_CAP:
        raise CombinatorialCapError(f"the certification grid of {count} points needs {size} "
                                    f"bytes, over the cap of {lpcore.TABLEAU_CAP}")
    return per_axis


def grid_certify_gain(psys, gamma, which="l1", points=101, k=None):
    """Frozen-delta oracle over the `_sweep_axis` grid, on the closed loop A + B K, C + D K
    when a gain K is given: the first point that is not positive (tol 1e-9) or not Hurwitz
    refutes, else the worst `which`-gain (first occurrence) is compared to gamma."""
    grid = psys.domain.grid(_sweep_axis(psys, points))
    if not len(grid):
        return GridVerdict(_bound_ok(-np.inf, gamma), 0, -np.inf, None)
    a, b, c, d, e, f = psys.frozen_stack(grid)
    loop = ""
    if k is not None:
        k = np.asarray(k, dtype=float)
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
