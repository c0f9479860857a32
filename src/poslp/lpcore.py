"""Linear-program model and embedded dense two-phase simplex solver.

All optimization in the toolbox funnels through this module.  Strict
inequalities coming from the theory are closed with a configurable margin
(`StrictnessPolicy`) before they reach the solver, so computed gains carry a
small, explicitly reported upward bias.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergenceError, ValidationError

RELATIONS = ("<=", "==")

_PIVOT_TOL = 1e-9
_RCOST_TOL = 1e-9
_FEAS_TOL = 1e-8


@dataclass(frozen=True)
class StrictnessPolicy:
    """How strict inequalities and open positivity constraints are closed.

    ``expr < 0`` becomes ``expr <= -epsilon``; ``x > 0`` becomes
    ``x >= lambda_floor``.  Both margins bias computed gains upward, never
    downward, and are echoed in every report.  The frozen-parameter oracle
    (`sysmodel.frozen_oracle`) needs neither: its Hurwitz test -A^{-1} >= 0
    has only the rounding tolerance `sysmodel.MMATRIX_TOL`.
    """

    epsilon: float = 1e-7
    lambda_floor: float = 1e-6

    def __post_init__(self):
        if not (self.epsilon > 0 and self.lambda_floor > 0):
            raise ValidationError("strictness margins must be strictly positive")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Immutable dense LP: minimize objective . x subject to rows and bounds."""

    objective: np.ndarray
    row_coeffs: np.ndarray          # (num_rows, num_vars)
    row_relations: tuple            # "<=" or "==" per row
    row_rhs: np.ndarray
    var_lower: np.ndarray           # -inf when unbounded below
    var_upper: np.ndarray           # +inf when unbounded above
    var_names: tuple = ()
    row_names: tuple = ()
    var_blocks: dict = field(default_factory=dict)  # name -> (kind, columns) to recover

    @property
    def num_vars(self):
        return self.objective.shape[0]

    @property
    def num_rows(self):
        return self.row_rhs.shape[0]

    def validate(self):
        n, r = self.num_vars, self.num_rows
        if self.row_coeffs.shape != (r, n):
            raise ValidationError(f"row_coeffs shape {self.row_coeffs.shape} != ({r}, {n})")
        if len(self.row_relations) != r:
            raise ValidationError("relation count mismatch")
        if not set(self.row_relations) <= set(RELATIONS):
            raise ValidationError("relations must be '<=' or '=='")
        for arr, what in ((self.objective, "objective"), (self.row_coeffs, "row_coeffs"),
                          (self.row_rhs, "row_rhs")):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{what} has non-finite entries")
        lo, up = self.var_lower, self.var_upper
        if lo.shape != (n,) or up.shape != (n,):
            raise ValidationError("bound vector length mismatch")
        if ((lo > up) | (lo == np.inf) | (up == -np.inf)).any():
            raise ValidationError("empty variable domain: lower > upper, lower = +inf or upper = -inf")
        if self.var_names and len(self.var_names) != n:
            raise ValidationError("var_names length mismatch")
        if self.row_names and len(self.row_names) != r:
            raise ValidationError("row_names length mismatch")


@dataclass
class LpSolution:
    status: str                     # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective_value: float
    iterations: int
    dual: np.ndarray | None = None          # multiplier per original row (optimal)
    certificate: np.ndarray | None = None   # Farkas row multipliers or improving ray


class LpBuilder:
    """Mutable assembler for LinearProgram values.

    Rows come in dense blocks placed over given variable columns
    (`add_rows`); `add_row` adds one.  Relation ">=" is normalized to "<="
    on the spot, so the finished program only carries "<=" and "==".
    """

    def __init__(self, var_names=(), var_lower=(), var_upper=(), objective=()):
        """Start empty or from the given variables (bounds may be infinite)."""
        self._lower = list(var_lower)
        self._upper = list(var_upper)
        self._obj = list(objective)
        self._var_names = list(var_names)
        self._blocks = []       # (cols, coeffs (k, len(cols)), relation, rhs (k,), names)
        self._num_rows = 0

    @property
    def num_vars(self):
        return len(self._obj)

    @property
    def num_rows(self):
        return self._num_rows

    def add_var(self, name, lower=None, upper=None, objective=0.0):
        self._var_names.append(name)
        self._lower.append(-np.inf if lower is None else float(lower))
        self._upper.append(np.inf if upper is None else float(upper))
        self._obj.append(float(objective))
        return len(self._obj) - 1

    def add_vars(self, prefix, count, lower=None, upper=None, objective=0.0):
        return [self.add_var(f"{prefix}{i}", lower, upper, objective) for i in range(count)]

    def add_rows(self, cols, coeffs, relation, rhs, names):
        """Add one row per name: the dense block `coeffs` (rows x columns)
        over the distinct variable columns `cols` (a list, an index array
        or a slice), zeros elsewhere, and the relation to `rhs`."""
        k = len(names)
        if k == 0:
            return
        coeffs = np.asarray(coeffs, dtype=float).reshape(k, -1)
        rhs = np.asarray(rhs, dtype=float)       # a scalar or one value per row
        if relation == ">=":
            coeffs, relation, rhs = -coeffs, "<=", -rhs
        if relation == "=":
            relation = "=="
        if relation not in RELATIONS:
            raise ValidationError(f"unsupported relation {relation!r}")
        self._blocks.append((cols, coeffs, relation, rhs, tuple(names)))
        self._num_rows += k

    def copy(self):
        """An independent builder with the same variables and rows."""
        twin = LpBuilder(self._var_names, self._lower, self._upper, self._obj)
        twin._blocks, twin._num_rows = list(self._blocks), self._num_rows
        return twin

    def add_row(self, coeffs, relation, rhs, name=""):
        """One row from a {column: coefficient} dict or a dense prefix."""
        if isinstance(coeffs, dict):
            cols, coeffs = list(coeffs), [list(coeffs.values())]
        else:
            coeffs = np.asarray(coeffs, dtype=float)
            cols = slice(0, coeffs.shape[0])
        self.add_rows(cols, coeffs, relation, rhs, [name])

    def build(self, var_blocks=None):
        coeffs = np.zeros((self._num_rows, self.num_vars))
        rhs = np.zeros(self._num_rows)
        rels, names = [], []
        i = 0
        for cols, block, rel, b, blk_names in self._blocks:
            k = len(blk_names)
            coeffs[i:i + k, cols] = block   # blocks may predate trailing vars
            rhs[i:i + k] = b
            rels += [rel] * k
            names += blk_names
            i += k
        lp = LinearProgram(
            objective=np.array(self._obj),
            row_coeffs=coeffs,
            row_relations=tuple(rels),
            row_rhs=rhs,
            var_lower=np.array(self._lower),
            var_upper=np.array(self._upper),
            var_names=tuple(self._var_names),
            row_names=tuple(names),
            var_blocks=var_blocks or {},
        )
        lp.validate()
        return lp


def _fmt(x):
    return repr(float(x) + 0.0)   # +0.0 folds -0.0 into 0.0


def lp_to_text(lp):
    """Deterministic line-oriented dump: objective row, then one row per line.

    Intended for external cross-checking and structural hashing; the format is
    stable across runs for identical programs.
    """
    names = lp.var_names or tuple(f"x{i}" for i in range(lp.num_vars))
    lines = [f"vars {lp.num_vars}"]
    lines += [f"var {name} lower {_fmt(lo)} upper {_fmt(up)}"
              for name, lo, up in zip(names, lp.var_lower, lp.var_upper)]
    lines.append("minimize " + " ".join(_fmt(c) for c in lp.objective))
    rows = zip(lp.row_names or ("",) * lp.num_rows, lp.row_relations, lp.row_rhs, lp.row_coeffs)
    lines += [f"row {name} {rel} {_fmt(rhs)} : " + " ".join(_fmt(c) for c in coeffs)
              for name, rel, rhs, coeffs in rows]
    return "\n".join(lines) + "\n"


class _Standardizer:
    """Rewrite an LP into equality standard form with nonnegative variables.

    x = offset + sub @ x_std, where standard column k is variable var[k]
    with sign sign[k]: finite lower bounds are shifted out, upper-only
    variables negated, free variables split in two columns; two-sided bounds
    add an identity block of upper rows, inequalities an identity block of
    slack columns, and rows with a negative rhs are negated.
    """

    def __init__(self, lp):
        lp.validate()
        lo, up = lp.var_lower, lp.var_upper
        has_lo, has_up = np.isfinite(lo), np.isfinite(up)
        free = ~has_lo & ~has_up
        width = 1 + free                           # standard columns per variable
        first = np.cumsum(width) - width
        self.num_std = num_std = int(width.sum())
        self.var = var = np.repeat(np.arange(lp.num_vars), width)
        self.sign = sign = np.ones(num_std)
        sign[first[has_up & ~has_lo]] = -1.0
        sign[first[free] + 1] = -1.0
        sub = np.zeros((lp.num_vars, num_std))
        sub[var, np.arange(num_std)] = sign
        self.offset = np.where(has_lo, lo, np.where(has_up, up, 0.0))

        boxed = np.flatnonzero(has_lo & has_up)
        upper = np.zeros((boxed.size, num_std))
        upper[np.arange(boxed.size), first[boxed]] = 1.0
        rows = np.vstack([lp.row_coeffs @ sub, upper])
        rhs = np.concatenate([lp.row_rhs - lp.row_coeffs @ self.offset, up[boxed] - lo[boxed]])
        is_ineq = np.concatenate([np.array(lp.row_relations) == "<=",
                                  np.ones(boxed.size, dtype=bool)])
        ineq = np.flatnonzero(is_ineq)
        self.num_slack = ineq.size
        slack = np.zeros((rows.shape[0], ineq.size))
        slack[ineq, np.arange(ineq.size)] = 1.0
        self.slack_of_row = np.full(rows.shape[0], -1, dtype=int)
        self.slack_of_row[ineq] = num_std + np.arange(ineq.size)

        neg = rhs < 0
        self.a = np.hstack([rows, slack])
        self.a[neg] *= -1.0
        rhs[neg] = -rhs[neg]
        self.b = rhs
        self.row_sign = np.where(neg, -1.0, 1.0)
        self.cost = np.zeros(self.a.shape[1])
        self.cost[:num_std] = lp.objective[var] * sign

    def back_substitute(self, x_std):
        return self._add_columns(self.offset.copy(), x_std)

    def ray_back(self, ray_std):
        return self._add_columns(np.zeros_like(self.offset), ray_std)

    def _add_columns(self, x, x_std):
        """x + sub @ x_std, adding each variable's signed columns in order."""
        np.add.at(x, self.var, self.sign * x_std[:self.num_std])
        return x


def _simplex_loop(t, basis, cost, allowed, num_structural, max_iterations, start_iter):
    """Primal simplex on a canonical tableau, in place.

    Dantzig pricing, switching permanently to Bland's rule once the degenerate
    pivot budget (10 * structural variable count) is spent.  Returns
    (status, iterations, entering_column) with status "optimal"/"unbounded".
    """
    ncols = t.shape[1] - 1
    degenerate = 0
    bland = False
    it = start_iter
    while True:
        if it >= max_iterations:
            raise NonConvergenceError(f"simplex hit the iteration cap ({max_iterations})")
        red = cost[:ncols] - cost[basis] @ t[:, :ncols]
        red[~allowed[:ncols]] = 0.0
        red[basis] = 0.0
        if bland:
            cand = np.flatnonzero(red < -_RCOST_TOL)
            if cand.size == 0:
                return "optimal", it, -1
            enter = int(cand[0])
        else:
            enter = int(np.argmin(red))
            if red[enter] >= -_RCOST_TOL:
                return "optimal", it, -1
        col = t[:, enter]
        pos = np.flatnonzero(col > _PIVOT_TOL)
        if pos.size == 0:
            return "unbounded", it, enter
        ratios = t[pos, -1] / col[pos]
        rmin = float(ratios.min())
        ties = pos[ratios <= rmin * (1 + 1e-9) + 1e-12]
        if bland:
            leave = int(ties[np.argmin(basis[ties])])
        else:
            leave = int(ties[np.argmax(col[ties])])
        if rmin <= 1e-12:
            degenerate += 1
            if degenerate > 10 * max(1, num_structural):
                bland = True
        _eliminate(t, leave, enter)
        basis[leave] = enter
        it += 1


def _eliminate(t, leave, enter):
    """Pivot on t[leave, enter]; rows with a zero entering entry are never touched."""
    t[leave] /= t[leave, enter]
    rows = np.flatnonzero(t[:, enter])
    rows = rows[rows != leave]
    t[rows] -= t[rows, enter, None] * t[leave]


def _basis_solve(m, rhs):
    """m z = rhs by one LU solve; least squares if m is not square or is singular."""
    if m.shape[0] == m.shape[1]:
        try:
            return np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(m, rhs, rcond=None)[0]


def _dual_multipliers(std, basis, struct_cost, art_rows):
    """Simplex multipliers y with B^T y = c_B, from the pristine columns;
    artificial column ncols + k is the unit vector of row art_rows[k]."""
    ncols = std.a.shape[1]
    art = basis >= ncols
    bmat = np.zeros((std.a.shape[0], basis.size))
    bmat[:, ~art] = std.a[:, basis[~art]]
    bmat[art_rows[basis[art] - ncols], np.flatnonzero(art)] = 1.0
    cb = np.ones(basis.size)
    cb[~art] = struct_cost[basis[~art]]
    return _basis_solve(bmat.T, cb)


def solve_lp(lp, max_iterations=1_000_000):
    """Solve the LP with a dense two-phase primal simplex.

    Optimal solutions are re-derived from the final basis with a fresh linear
    solve and verified (primal feasibility, duality gap) before being
    returned; failure to verify raises NonConvergenceError.
    """
    std = _Standardizer(lp)
    a, b = std.a, std.b
    num_rows, ncols = a.shape
    if num_rows == 0:
        return _solve_bounds_only(lp, std)

    # a slack with a positive coefficient starts in the basis, other rows
    # get an artificial column
    slack = std.slack_of_row
    start = np.flatnonzero(slack >= 0)
    start = start[a[start, slack[start]] > 0]
    basis = np.full(num_rows, -1)
    basis[start] = slack[start]
    art_rows = np.flatnonzero(basis < 0)
    art = np.zeros((num_rows, art_rows.size))
    art[art_rows, np.arange(art_rows.size)] = 1.0
    basis[art_rows] = ncols + np.arange(art_rows.size)
    t = np.hstack([a, art, b[:, None]])
    total_cols = ncols + art_rows.size
    iters = 0

    if art_rows.size:
        cost1 = np.zeros(total_cols)
        cost1[ncols:] = 1.0
        status, iters, _ = _simplex_loop(t, basis, cost1, np.ones(total_cols, dtype=bool),
                                         ncols, max_iterations, 0)
        phase1 = float(cost1[basis] @ t[:, -1])
        if phase1 > _FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
            y = _dual_multipliers(std, basis, np.zeros(ncols), art_rows)
            cert = y[:lp.num_rows] * std.row_sign[:lp.num_rows]
            return LpSolution("infeasible", None, np.nan, iters, certificate=cert)
        t, basis = _drive_out_artificials(t, basis, ncols)

    cost2 = np.zeros(total_cols)
    cost2[:ncols] = std.cost
    allowed2 = np.arange(total_cols) < ncols
    status, iters, enter = _simplex_loop(t, basis, cost2, allowed2, ncols,
                                         max_iterations, iters)
    structural = basis < ncols
    bas = basis[structural]
    if status == "unbounded":
        ray_std = np.zeros(ncols)
        ray_std[enter] = 1.0
        ray_std[bas] = -t[structural, enter]
        return LpSolution("unbounded", None, -np.inf, iters,
                          certificate=std.ray_back(ray_std))

    x_std = np.zeros(ncols)
    x_std[bas] = _basis_solve(std.a[:, bas], std.b)
    x = std.back_substitute(x_std)
    obj = float(lp.objective @ x)

    y = _dual_multipliers(std, basis, std.cost, art_rows)
    dual = y[:lp.num_rows] * std.row_sign[:lp.num_rows]
    _verify_optimal(lp, std, x, x_std, y, obj)
    return LpSolution("optimal", x, obj, iters, dual=dual)


def _solve_bounds_only(lp, std):
    """No rows: each variable sits at the bound its cost points to."""
    c = lp.objective
    ray = np.where((c < 0) & np.isinf(lp.var_upper), 1.0,
                   np.where((c > 0) & np.isinf(lp.var_lower), -1.0, 0.0))
    if ray.any():
        return LpSolution("unbounded", None, -np.inf, 0, certificate=ray)
    x = np.where(c < 0, lp.var_upper, std.offset)
    return LpSolution("optimal", x, float(lp.objective @ x), 0, dual=np.zeros(0))


def _drive_out_artificials(t, basis, ncols):
    """Pivot zero-level artificials out of the basis; drop redundant rows."""
    keep = np.ones(t.shape[0], dtype=bool)
    for i in range(t.shape[0]):
        if basis[i] >= ncols:
            pivots = np.flatnonzero(np.abs(t[i, :ncols]) > 1e-7)
            if pivots.size:
                basis[i] = pivots[0]
                _eliminate(t, i, basis[i])
            else:
                keep[i] = False
    if not np.all(keep):
        t = t[keep]
        basis = basis[keep]
    return t, basis


def _verify_optimal(lp, std, x, x_std, y, obj):
    resid = lp.row_coeffs @ x - lp.row_rhs
    eq = np.array(lp.row_relations) == "=="
    bad = np.where(eq, np.abs(resid), resid) > _FEAS_TOL * (1.0 + np.abs(lp.row_rhs))
    if bad.any():
        i = int(np.argmax(bad))
        raise NonConvergenceError(
            f"optimal vertex failed primal verification on row {i} "
            f"(residual {resid[i]:.3e})")
    lo, up = lp.var_lower, lp.var_upper      # infinite bounds compare false
    if np.any(x < lo - 1e-7 * (1 + np.abs(lo))):
        raise NonConvergenceError("optimal vertex failed lower-bound verification")
    if np.any(x > up + 1e-7 * (1 + np.abs(up))):
        raise NonConvergenceError("optimal vertex failed upper-bound verification")
    gap = abs(float(std.cost @ x_std) - float(y @ std.b))
    if gap > 1e-6 * (1.0 + abs(obj)):
        raise NonConvergenceError(f"duality gap {gap:.3e} exceeds tolerance")
