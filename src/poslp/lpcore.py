"""Linear-program model and embedded two-phase tableau simplex with sparse pivots.

All optimization in the toolbox funnels through this module.  Strict inequalities coming
from the theory are closed with a configurable margin (`StrictnessPolicy`) before they
reach the solver, so computed gains carry a small, explicitly reported upward bias.  A pivot
(`_eliminate`) takes one of four updates, each keeping every bit: the rows it touches; on tall
sparse pivots only the pivot row's nonzero columns, of the touched rows or whole when most of
a tall tableau's rows are touched; and the whole tableau in place, with einsum's products, when
most rows are touched.  Phase 2 runs on a view of the phase-1 tableau.  Pricing reads the rows
whose basic column has a nonzero cost: with at most one such row the read is exact, with a few
rows of a large tableau its entering column is taken when a rounding bound shows it is the gemv's,
and the gemv prices the rest, so every pivot keeps its bits.  A solve holds one standard-form-sized
buffer at a time, a phase-1 tableau of at most `TABLEAU_CAP` bytes: the standard form is written
straight into it, and the final basis matrix is rebuilt from the LP's rows once it is released.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CombinatorialCapError, NonConvergenceError, ValidationError

RELATIONS = ("<=", "==")

_PIVOT_TOL = 1e-9
_RCOST_TOL = 1e-9
_FEAS_TOL = 1e-8
# `_entering` certifies its read on tableau bodies of 2^18 entries or more (on smaller ones
# the gemv costs less than the read and its ties) where under 1 row in 16 has a basic cost
_CERTIFY_MIN_ENTRIES = 2 ** 18
_CERTIFY_ROW_SHARE = 16
# bytes of the phase-1 tableau that `solve_lp` refuses to exceed (the pinned ones take 7 MB)
TABLEAU_CAP = 2 ** 31


@dataclass(frozen=True)
class StrictnessPolicy:
    """How strict inequalities and open positivity constraints are closed.

    ``expr < 0`` becomes ``expr <= -epsilon``; ``x > 0`` becomes
    ``x >= lambda_floor``.  Both margins (finite, > 0) bias computed gains
    upward, never downward, and are echoed in every report.  The
    frozen-parameter oracle (`sysmodel.frozen_oracle`) needs neither: its
    Hurwitz test -A^{-1} >= 0 has only the rounding tolerance `sysmodel.MMATRIX_TOL`.
    """

    epsilon: float = 1e-7
    lambda_floor: float = 1e-6

    def __post_init__(self):
        if not all(0 < m < np.inf for m in (self.epsilon, self.lambda_floor)):
            raise ValidationError(f"strictness margins epsilon={self.epsilon!r} and lambda_floor="
                                  f"{self.lambda_floor!r} must be finite and strictly positive")


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

    def __post_init__(self):
        self.validate()

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
    """`certificate`: of an unbounded LP an improving ray; of an infeasible one
    a y with `dual`'s sign (y <= 0 on "<=" rows, free on "==" rows, so the
    textbook Farkas vector is -y) and sup over the bound box of y^T G x < y^T h."""

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
        """`count` variables named prefix0, prefix1, ... with the same bounds
        and cost; their columns."""
        lower = -np.inf if lower is None else float(lower)
        upper = np.inf if upper is None else float(upper)
        objective, start = float(objective), len(self._obj)
        self._var_names += [f"{prefix}{i}" for i in range(count)]
        self._lower += [lower] * count
        self._upper += [upper] * count
        self._obj += [objective] * count
        return list(range(start, start + count))

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
        """One row from a {column: coefficient} dict."""
        self.add_rows(list(coeffs), [list(coeffs.values())], relation, rhs, [name])

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
        return LinearProgram(
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

    Standard column k is variable var[k] with sign sign[k], so the structural
    rows are the signed column gather row_coeffs[:, var] * sign and x is
    offset plus each variable's signed columns of x_std: finite lower bounds
    are shifted out, upper-only variables negated, free variables split in
    two columns; two-sided bounds add an identity block of upper rows,
    inequalities an identity block of slack columns, and rows with a
    negative rhs are negated.  The matrix is never stored: `write` fills any
    of its columns from the LP's rows, into the phase-1 tableau or a basis.
    """

    def __init__(self, lp):
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
        self.offset = np.where(has_lo, lo, np.where(has_up, up, 0.0))

        m, boxed = lp.num_rows, np.flatnonzero(has_lo & has_up)
        self.is_eq = np.array(lp.row_relations, dtype=object) == "=="
        ineq = np.flatnonzero(np.concatenate([~self.is_eq, np.ones(boxed.size, dtype=bool)]))
        self.shape = (m + boxed.size, num_std + ineq.size)
        self.row_coeffs = lp.row_coeffs
        # the row of each column's unit entry: a boxed variable's upper row, a slack's own row
        self.unit_row = np.concatenate([np.full(num_std, -1), ineq])
        self.unit_row[first[boxed]] = m + np.arange(boxed.size)
        self.slack_of_row = np.full(self.shape[0], -1, dtype=int)
        self.slack_of_row[ineq] = num_std + np.arange(ineq.size)

        rhs = np.concatenate([lp.row_rhs - lp.row_coeffs @ self.offset, up[boxed] - lo[boxed]])
        neg = rhs < 0
        rhs[neg] = -rhs[neg]
        self.b = rhs
        self.neg_rows = neg.nonzero()[0]
        self.row_sign = np.where(neg, -1.0, 1.0)
        self.cost = np.zeros(self.shape[1])
        self.cost[:num_std] = lp.objective[var] * sign

    @property
    def a(self):
        """The whole standard-form matrix, written anew on each read."""
        return self.columns(np.arange(self.shape[1]))

    def columns(self, cols):
        """A new matrix of the standard-form columns `cols`, in order."""
        out = np.zeros((self.shape[0], cols.size))
        self.write(out, cols)
        return out

    def write(self, out, cols):
        """Write standard-form column cols[j] into column j of the zeroed `out`: the
        signed gather of row_coeffs, the unit entries, then the rows of negative rhs
        negated (a sign flip, so the bits do not depend on the order of the two signs)."""
        j = (cols < self.num_std).nonzero()[0]
        k = cols[j]
        block = self.row_coeffs[:, self.var[k]]
        block *= self.sign[k]
        out[:block.shape[0], j] = block
        rows = self.unit_row[cols]
        j = (rows >= 0).nonzero()[0]
        out[rows[j], j] = 1.0
        out[self.neg_rows] *= -1.0

    def back_substitute(self, x_std):
        return self._add_columns(self.offset.copy(), x_std)

    def ray_back(self, ray_std):
        return self._add_columns(np.zeros_like(self.offset), ray_std)

    def _add_columns(self, x, x_std):
        """x plus each variable's signed columns of x_std, in order."""
        np.add.at(x, self.var, self.sign * x_std[:self.num_std])
        return x


def _simplex_loop(t, basis, cost, num_structural, max_iterations, start_iter):
    """Primal simplex on a canonical tableau, in place, priced by `_entering`.

    Dantzig pricing, switching permanently to Bland's rule once the degenerate pivot budget
    (10 * structural variable count) is spent.  Returns (status, iterations, entering_column)
    with status "optimal"/"unbounded".
    """
    ncols = t.shape[1] - 1
    body, rhs = t[:, :ncols], t[:, -1]
    cb = cost[basis]                # cost of each row's basic column
    budget = 10 * max(1, num_structural)
    degenerate = 0
    bland = False
    it = start_iter
    while True:
        if it >= max_iterations:
            raise NonConvergenceError(f"simplex hit the iteration cap ({max_iterations})")
        enter = _entering(cost, cb, body, basis, bland)
        if enter < 0:
            return "optimal", it, -1
        col = body[:, enter]
        pos = (col > _PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return "unbounded", it, enter
        ratios = rhs[pos] / col[pos]
        if pos.size == 1:
            leave, rmin = int(pos[0]), float(ratios[0])
        else:
            rmin = float(ratios.min())
            ties = pos[ratios <= rmin * (1 + 1e-9) + 1e-12]
            if ties.size == 0:      # the tolerance lies below a negative rmin
                row = int(pos[ratios.argmin()])
                raise NonConvergenceError(
                    f"simplex lost primal feasibility: tableau row {row} has rhs "
                    f"{rhs[row]:.3e} < 0 in the ratio test")
            leave = int(ties[basis[ties].argmin() if bland else col[ties].argmax()])
        if rmin <= 1e-12:
            degenerate += 1
            bland = bland or degenerate > budget
        _eliminate(t, leave, enter)
        basis[leave] = enter
        cb[leave] = cost[enter]
        it += 1


def _entering(cost, cb, body, basis, bland):
    """The entering column on cost - cb @ body by Dantzig's rule, or Bland's once `bland`; -1
    when optimal.  It reads the rows k with a nonzero cb.  With at most one, the read has one
    product per entry, the gemv's bits up to the sign of a zero.  With several, on a body of
    `_CERTIFY_MIN_ENTRIES` entries or more whose k holds under 1/_CERTIFY_ROW_SHARE of the
    rows, Dantzig's choice on the read red is taken if certified: the gemv's zero products add
    exactly, so in any summation order at most n = len(k) + 4 roundings lie on a term's path
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1), and each of
    its reduced costs lies within m = 3 gamma_n |cb[k]| @ |body[k]| + 3u |red| + 1e-300 of red
    (both zero on basic columns).  These intervals must separate the minimum from -_RCOST_TOL
    and from every other column; the gemv prices a tie, an overlap and every other case."""
    k = cb.nonzero()[0]
    if k.size <= 1:
        red = cost - cb[k[0]] * body[k[0]] if k.size else cost.copy()
    else:
        if (not bland and body.size >= _CERTIFY_MIN_ENTRIES
                and _CERTIFY_ROW_SHARE * k.size < body.shape[0]):
            c, rows, u = cb[k], body[k], 2.0 ** -53
            red = cost - c @ rows
            red[basis] = 0.0
            enter = int(red.argmin())
            # no margin separates a tie at a negative minimum
            if red[enter] >= -_RCOST_TOL or np.count_nonzero(red == red[enter]) == 1:
                nu = (k.size + 4) * u
                margin = (3.0 * nu / (1.0 - nu)) * (np.abs(c) @ np.abs(rows))   # 3 gamma_n
                margin += 3.0 * u * np.abs(red) + 1e-300
                margin[basis] = 0.0
                low = red - margin
                if low.min() >= -_RCOST_TOL:
                    return -1
                high = red[enter] + margin[enter]
                low[enter] = np.inf
                if high < -_RCOST_TOL and low.min() > high:
                    return enter
        red = cost - cb @ body
    red[basis] = 0.0
    if bland:
        cand = (red < -_RCOST_TOL).nonzero()[0]
        return int(cand[0]) if cand.size else -1
    enter = int(red.argmin())
    return enter if red[enter] < -_RCOST_TOL else -1


def _eliminate(t, leave, enter):
    """Pivot on t[leave, enter] with the dense rank-1 update's bits (t - m*0 moves only zero
    signs): over 16 rows touched and under 1/4 of the pivot row nonzero, only its nonzero
    columns, whole if over 200 and over half the rows are touched, else of the touched rows;
    over half the rows touched, the whole tableau in place, its products by einsum (the bits of
    multiply.outer in about half the time); else the touched rows."""
    t[leave] /= t[leave, enter]
    rows = t[:, enter].nonzero()[0]
    rows, pivot = rows[rows != leave], t[leave]
    # below these sizes the block gather and scatter cost more than the row update they save
    if rows.size > 16 and 4 * np.count_nonzero(pivot) < pivot.size:
        cols = pivot.nonzero()[0]
        # past this many touched rows a whole-column update is cheaper than the gather per entry
        if rows.size > 200 and 2 * rows.size > t.shape[0]:
            mult = t[:, enter].copy()
            mult[leave] = 0.0           # the pivot row's entries in cols are nonzero: x - 0 is x
            for j in cols:
                t[:, j] -= mult * pivot[j]
        else:
            t[rows[:, None], cols] -= t[rows, enter, None] * pivot[cols]
    elif 2 * rows.size > t.shape[0]:    # a row gather and its product: two tableau temporaries
        prod = np.einsum("i,j->ij", t[:, enter], pivot)
        prod[leave] = 0.0               # x - (+0.0) is x, -0.0 included
        t -= prod
    else:
        t[rows] -= t[rows, enter, None] * pivot


def _basis_solve(m, rhs):
    """m z = rhs by one LU solve; least squares if m is not square or is singular."""
    if m.shape[0] == m.shape[1]:
        try:
            return np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(m, rhs, rcond=None)[0]


def _dual_multipliers(std, basis, struct_cost, art_rows, bmat=None):
    """Simplex multipliers y with B^T y = c_B.  The optimal basis has only standard-form
    columns and passes its B as `bmat`, shared with the primal solve; phase 1's basis is
    built here, artificial column ncols + k being the unit vector of row art_rows[k]."""
    if bmat is not None:
        return _basis_solve(bmat.T, struct_cost[basis])
    ncols = std.shape[1]
    art = basis >= ncols
    bmat = np.zeros((std.shape[0], basis.size))
    bmat[:, ~art] = std.columns(basis[~art])
    bmat[art_rows[basis[art] - ncols], np.flatnonzero(art)] = 1.0
    cb = np.ones(basis.size)
    cb[~art] = struct_cost[basis[~art]]
    return _basis_solve(bmat.T, cb)


def solve_lp(lp, max_iterations=1_000_000):
    """Solve the LP with a dense two-phase primal simplex.

    The standard form is written straight into the phase-1 tableau (refused with
    CombinatorialCapError before its allocation if over `TABLEAU_CAP` bytes), and phase 2 runs
    on a view of it without its artificial columns.  Optimal solutions are re-derived from the
    final basis, its matrix B rebuilt from the LP's rows once the tableau is released, by
    one LU solve of B and one of B^T, and verified (primal feasibility, duality gap) before
    being returned; failure to verify raises NonConvergenceError.
    """
    std = _Standardizer(lp)
    num_rows, ncols = std.shape

    # a slack with a positive coefficient starts in the basis, other rows
    # get an artificial column
    basis = np.where(std.row_sign > 0, std.slack_of_row, -1)
    art_rows = (basis < 0).nonzero()[0]
    basis[art_rows] = ncols + np.arange(art_rows.size)
    shape = (num_rows, ncols + art_rows.size + 1)
    size = 8 * shape[0] * shape[1]
    if size > TABLEAU_CAP:
        raise CombinatorialCapError(f"the phase-1 tableau of shape {shape[0]} x {shape[1]} "
                                    f"needs {size} bytes, over the cap of {TABLEAU_CAP}")
    t = np.zeros(shape)
    std.write(t[:, :ncols], np.arange(ncols))
    t[art_rows, basis[art_rows]] = 1.0
    t[:, -1] = std.b
    iters = 0

    if art_rows.size:
        cost1 = np.zeros(ncols + art_rows.size)
        cost1[ncols:] = 1.0
        status, iters, _ = _simplex_loop(t, basis, cost1, ncols, max_iterations, 0)
        phase1 = float(cost1[basis] @ t[:, -1])
        if phase1 > _FEAS_TOL * (1.0 + float(np.abs(std.b).max(initial=0.0))):
            del t
            y = _dual_multipliers(std, basis, np.zeros(ncols), art_rows)
            cert = y[:lp.num_rows] * std.row_sign[:lp.num_rows]
            return LpSolution("infeasible", None, np.nan, iters, certificate=cert)
        t, basis = _drive_out_artificials(t, basis, ncols)

    status, iters, enter = _simplex_loop(t, basis, std.cost, ncols, max_iterations, iters)
    if status == "unbounded":
        ray_std = np.zeros(ncols)
        ray_std[enter] = 1.0
        ray_std[basis] = -t[:, enter]
        return LpSolution("unbounded", None, -np.inf, iters,
                          certificate=std.ray_back(ray_std))
    del t

    bmat = std.columns(basis)
    x_std = np.zeros(ncols)
    x_std[basis] = _basis_solve(bmat, std.b)
    x = std.back_substitute(x_std)
    obj = float(lp.objective @ x)

    y = _dual_multipliers(std, basis, std.cost, art_rows, bmat)
    dual = y[:lp.num_rows] * std.row_sign[:lp.num_rows]
    _verify_optimal(lp, std, x, x_std, y, obj)
    return LpSolution("optimal", x, obj, iters, dual=dual)


def _drive_out_artificials(t, basis, ncols):
    """Pivot zero-level artificials out; return a view of the nonredundant rows' structural
    columns, the rhs moved into the first artificial column (a copy if a row is dropped)."""
    keep = np.ones(t.shape[0], dtype=bool)
    for i in (basis >= ncols).nonzero()[0]:     # a pivot changes only its own row's basis
        pivots = (np.abs(t[i, :ncols]) > 1e-7).nonzero()[0]
        if pivots.size:
            basis[i] = pivots[0]
            _eliminate(t, i, basis[i])
        else:
            keep[i] = False
    if not keep.all():
        t, basis = t[keep], basis[keep]
    t[:, ncols] = t[:, -1]
    return t[:, :ncols + 1], basis


def _verify_optimal(lp, std, x, x_std, y, obj):
    resid = lp.row_coeffs @ x - lp.row_rhs
    bad = np.where(std.is_eq, np.abs(resid), resid) > _FEAS_TOL * (1.0 + np.abs(lp.row_rhs))
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
