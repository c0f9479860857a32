"""Linear-program model and embedded dense two-phase simplex solver.

All optimization in the toolbox funnels through this module.  Strict
inequalities coming from the theory are closed with a configurable margin
(`StrictnessPolicy`) before they reach the solver, so computed gains carry a
small, explicitly reported upward bias.
"""

from dataclasses import dataclass

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
        if self.var_lower.shape != (n,) or self.var_upper.shape != (n,):
            raise ValidationError("bound vector length mismatch")
        if (self.var_lower > self.var_upper).any():
            raise ValidationError("some lower bound exceeds its upper bound")
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

    def add_row(self, coeffs, relation, rhs, name=""):
        """One row from a {column: coefficient} dict or a dense prefix."""
        if isinstance(coeffs, dict):
            cols, coeffs = list(coeffs), [list(coeffs.values())]
        else:
            coeffs = np.asarray(coeffs, dtype=float)
            cols = slice(0, coeffs.shape[0])
        self.add_rows(cols, coeffs, relation, rhs, [name])

    def build(self):
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
        )
        lp.validate()
        return lp


def strictify(rows, policy):
    """Close strict rows: '<' shifts the rhs by -epsilon, '>' by +lambda_floor.

    Rows are (coeffs, relation, rhs, name) tuples; relations '<=', '>=' and
    '==' pass through untouched.
    """
    out = []
    for coeffs, rel, rhs, name in rows:
        if rel == "<":
            out.append((coeffs, "<=", rhs - policy.epsilon, name))
        elif rel == ">":
            out.append((coeffs, ">=", rhs + policy.lambda_floor, name))
        else:
            out.append((coeffs, rel, rhs, name))
    return out


def _fmt(x):
    return repr(float(x) + 0.0)   # +0.0 folds -0.0 into 0.0


def lp_to_text(lp):
    """Deterministic line-oriented dump: objective row, then one row per line.

    Intended for external cross-checking and structural hashing; the format is
    stable across runs for identical programs.
    """
    lines = [f"vars {lp.num_vars}"]
    names = lp.var_names or tuple(f"x{i}" for i in range(lp.num_vars))
    for j in range(lp.num_vars):
        lines.append(
            f"var {names[j]} lower {_fmt(lp.var_lower[j])} upper {_fmt(lp.var_upper[j])}"
        )
    lines.append("minimize " + " ".join(_fmt(c) for c in lp.objective))
    row_names = lp.row_names or tuple("" for _ in range(lp.num_rows))
    for i in range(lp.num_rows):
        coeffs = " ".join(_fmt(c) for c in lp.row_coeffs[i])
        lines.append(f"row {row_names[i]} {lp.row_relations[i]} {_fmt(lp.row_rhs[i])} : {coeffs}")
    return "\n".join(lines) + "\n"


class _Standardizer:
    """Rewrite an LP into equality standard form with nonnegative variables.

    Finite lower bounds are shifted out, upper-only variables negated, free
    variables split, two-sided bounds shifted plus an explicit upper row.
    """

    def __init__(self, lp):
        lp.validate()
        self.lp = lp
        n = lp.num_vars
        self.var_map = [[] for _ in range(n)]   # var -> [(std_col, sign)]
        self.offset = np.zeros(n)
        cols = []                                # std_col -> (var, sign)
        extra_upper = []                         # (std_col, residual bound)
        for j in range(n):
            lo, up = lp.var_lower[j], lp.var_upper[j]
            if np.isfinite(lo):
                self.offset[j] = lo
                self.var_map[j].append((len(cols), 1.0))
                cols.append((j, 1.0))
                if np.isfinite(up):
                    extra_upper.append((len(cols) - 1, up - lo))
            elif np.isfinite(up):
                self.offset[j] = up
                self.var_map[j].append((len(cols), -1.0))
                cols.append((j, -1.0))
            else:
                self.var_map[j].append((len(cols), 1.0))
                cols.append((j, 1.0))
                self.var_map[j].append((len(cols), -1.0))
                cols.append((j, -1.0))
        num_std = len(cols)

        sub = np.zeros((n, num_std))
        for k, (j, s) in enumerate(cols):
            sub[j, k] = s
        rows = lp.row_coeffs @ sub if lp.num_rows else np.zeros((0, num_std))
        rhs = lp.row_rhs - lp.row_coeffs @ self.offset if lp.num_rows else np.zeros(0)
        is_ineq = [rel == "<=" for rel in lp.row_relations]
        for col, bound in extra_upper:
            rr = np.zeros(num_std)
            rr[col] = 1.0
            rows = np.vstack([rows, rr]) if rows.size else rr[None, :]
            rhs = np.append(rhs, bound)
            is_ineq.append(True)

        num_rows = rows.shape[0] if rows.ndim == 2 else 0
        slack = np.zeros((num_rows, sum(is_ineq)))
        self.slack_of_row = np.full(num_rows, -1, dtype=int)
        k = 0
        for i in range(num_rows):
            if is_ineq[i]:
                slack[i, k] = 1.0
                self.slack_of_row[i] = num_std + k
                k += 1
        a = np.hstack([rows, slack]) if num_rows else np.zeros((0, num_std))

        self.row_sign = np.ones(num_rows)
        for i in range(num_rows):
            if rhs[i] < 0:
                a[i] *= -1.0
                rhs[i] = -rhs[i]
                self.row_sign[i] = -1.0

        self.a = a
        self.b = rhs
        self.num_std = num_std
        self.num_slack = k
        self.num_orig_rows = lp.num_rows
        cost = np.zeros(a.shape[1])
        for k2, (j, s) in enumerate(cols):
            cost[k2] = lp.objective[j] * s
        self.cost = cost

    def back_substitute(self, x_std):
        x = self.offset.copy()
        for j, parts in enumerate(self.var_map):
            for col, sign in parts:
                x[j] += sign * x_std[col]
        return x

    def ray_back(self, ray_std):
        ray = np.zeros(self.lp.num_vars)
        for j, parts in enumerate(self.var_map):
            for col, sign in parts:
                ray[j] += sign * ray_std[col]
        return ray


def _simplex_loop(t, basis, cost, allowed, num_structural, max_iterations, start_iter):
    """Primal simplex on a canonical tableau, in place.

    Dantzig pricing, switching permanently to Bland's rule once the degenerate
    pivot budget (10 * structural variable count) is spent.  Returns
    (status, iterations, entering_column) with status "optimal"/"unbounded".
    """
    num_rows = t.shape[0]
    ncols = t.shape[1] - 1
    degenerate = 0
    bland = False
    budget = 10 * max(1, num_structural)
    it = start_iter
    rows_idx = np.arange(num_rows)
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
            if degenerate > budget:
                bland = True
        t[leave] /= t[leave, enter]
        other = rows_idx != leave
        t[other] -= np.outer(t[other, enter], t[leave])
        basis[leave] = enter
        it += 1


def _dual_multipliers(std, basis, struct_cost, art_row):
    """Simplex multipliers y with B^T y = c_B, from the pristine columns."""
    m = std.a.shape[0]
    cols, cb = [], []
    for i in range(len(basis)):
        j = int(basis[i])
        if j < std.a.shape[1]:
            cols.append(std.a[:, j])
            cb.append(struct_cost[j])
        else:
            e = np.zeros(m)
            e[art_row[j]] = 1.0
            cols.append(e)
            cb.append(1.0)
    if not cols:
        return np.zeros(m)
    bmat = np.column_stack(cols)
    y, *_ = np.linalg.lstsq(bmat.T, np.array(cb), rcond=None)
    return y


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

    basis = np.empty(num_rows, dtype=int)
    need_art = []
    for i in range(num_rows):
        s = std.slack_of_row[i]
        if s >= 0 and a[i, s] > 0:
            basis[i] = s
        else:
            need_art.append(i)
    art = np.zeros((num_rows, len(need_art)))
    art_row = {}
    for k, i in enumerate(need_art):
        art[i, k] = 1.0
        art_row[ncols + k] = i
        basis[i] = ncols + k
    t = np.hstack([a, art, b[:, None]])
    total_cols = ncols + len(need_art)
    iters = 0

    if need_art:
        cost1 = np.zeros(total_cols)
        cost1[ncols:] = 1.0
        allowed = np.ones(total_cols, dtype=bool)
        status, iters, _ = _simplex_loop(t, basis, cost1, allowed, ncols,
                                         max_iterations, 0)
        phase1 = float(cost1[basis] @ t[:, -1])
        if phase1 > _FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
            y = _dual_multipliers(std, basis, np.zeros(ncols), art_row)
            cert = y[: std.num_orig_rows] * std.row_sign[: std.num_orig_rows]
            return LpSolution("infeasible", None, np.nan, iters, certificate=cert)
        t, basis = _drive_out_artificials(t, basis, ncols)

    num_rows = t.shape[0]
    cost2 = np.zeros(total_cols)
    cost2[:ncols] = std.cost
    allowed2 = np.ones(total_cols, dtype=bool)
    allowed2[ncols:] = False
    status, iters, enter = _simplex_loop(t, basis, cost2, allowed2, ncols,
                                         max_iterations, iters)
    if status == "unbounded":
        ray_std = np.zeros(ncols)
        ray_std[enter] = 1.0
        for i in range(num_rows):
            if basis[i] < ncols:
                ray_std[basis[i]] = -t[i, enter]
        return LpSolution("unbounded", None, -np.inf, iters,
                          certificate=std.ray_back(ray_std[: std.num_std + std.num_slack]))

    x_std = np.zeros(ncols)
    bas = [int(j) for j in basis if j < ncols]
    if bas:
        bmat = std.a[:, bas]
        if bmat.shape[0] == bmat.shape[1]:
            try:
                sol = np.linalg.solve(bmat, std.b)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(bmat, std.b, rcond=None)
        else:
            sol, *_ = np.linalg.lstsq(bmat, std.b, rcond=None)
        x_std[bas] = sol
    x = std.back_substitute(x_std)
    obj = float(lp.objective @ x)

    y = _dual_multipliers(std, basis, std.cost, art_row)
    dual = y[: std.num_orig_rows] * std.row_sign[: std.num_orig_rows]
    _verify_optimal(lp, std, x, x_std, y, obj)
    return LpSolution("optimal", x, obj, iters, dual=dual)


def _solve_bounds_only(lp, std):
    x = std.offset.copy()
    ray = np.zeros(lp.num_vars)
    unbounded = False
    for j in range(lp.num_vars):
        c = lp.objective[j]
        if c < 0:
            if np.isinf(lp.var_upper[j]):
                unbounded = True
                ray[j] = 1.0
            else:
                x[j] = lp.var_upper[j]
        elif c > 0 and np.isinf(lp.var_lower[j]):
            unbounded = True
            ray[j] = -1.0
    if unbounded:
        return LpSolution("unbounded", None, -np.inf, 0, certificate=ray)
    return LpSolution("optimal", x, float(lp.objective @ x), 0, dual=np.zeros(0))


def _drive_out_artificials(t, basis, ncols):
    """Pivot zero-level artificials out of the basis; drop redundant rows."""
    num_rows = t.shape[0]
    keep = np.ones(num_rows, dtype=bool)
    for i in range(num_rows):
        if basis[i] >= ncols:
            pivots = np.flatnonzero(np.abs(t[i, :ncols]) > 1e-7)
            if pivots.size:
                enter = int(pivots[0])
                t[i] /= t[i, enter]
                other = np.arange(num_rows) != i
                t[other] -= np.outer(t[other, enter], t[i])
                basis[i] = enter
            else:
                keep[i] = False
    if not np.all(keep):
        t = t[keep]
        basis = basis[keep]
    return t, basis


def _verify_optimal(lp, std, x, x_std, y, obj):
    if lp.num_rows:
        resid = lp.row_coeffs @ x - lp.row_rhs
        scale = 1.0 + np.abs(lp.row_rhs)
        for i in range(lp.num_rows):
            bad = resid[i] > _FEAS_TOL * scale[i] if lp.row_relations[i] == "<=" \
                else abs(resid[i]) > _FEAS_TOL * scale[i]
            if bad:
                raise NonConvergenceError(
                    f"optimal vertex failed primal verification on row {i} "
                    f"(residual {resid[i]:.3e})")
    finite_lo = np.isfinite(lp.var_lower)
    finite_up = np.isfinite(lp.var_upper)
    if np.any(x[finite_lo] < lp.var_lower[finite_lo] - 1e-7 * (1 + np.abs(lp.var_lower[finite_lo]))):
        raise NonConvergenceError("optimal vertex failed lower-bound verification")
    if np.any(x[finite_up] > lp.var_upper[finite_up] + 1e-7 * (1 + np.abs(lp.var_upper[finite_up]))):
        raise NonConvergenceError("optimal vertex failed upper-bound verification")
    if y is not None and std.a.shape[0]:
        gap = abs(float(std.cost @ x_std) - float(y @ std.b))
        if gap > 1e-6 * (1.0 + abs(obj)):
            raise NonConvergenceError(f"duality gap {gap:.3e} exceeds tolerance")
