"""Span tracing of poslp's layers from outside the program.

`Tracer.install()` wraps every public module-level function of each layer
module (plus `PolynomialLtiSystem.frozen_at`, where the frozen-parameter
evaluations are counted) and rebinds the wrapper under every name that held
the original in any loaded `poslp` module, so calls made through
`from .lpcore import solve_lp` are traced as well.  Spans are kept in memory
as (name, start, end, parent, job) rows; a few functions also record what
they returned (the solved LP, pivots and status; grid points).  `uninstall()` puts the
original functions back.

A layer's self time is its spans' durations minus the time covered by their
child spans.  Code of the helper modules (numlin, errors, cases) and private
functions run inside the span of the public function that called them.
"""

import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "sysmodel", "gains", "synthesis", "poly", "lft", "ilc",
          "robust", "handelman", "lpcore")


def standardized_shape(lp):
    """Rows and columns of the simplex tableau `poslp.lpcore` builds for
    `lp`, computed from the public LinearProgram: one column per bounded
    variable and two per free one, an extra row for each two-sided bound, a
    slack per inequality and an artificial per row without a usable slack."""
    lo, up = lp.var_lower, lp.var_upper
    lo_fin, up_fin = np.isfinite(lo), np.isfinite(up)
    std_vars = int(np.sum(lo_fin | up_fin) + 2 * np.sum(~lo_fin & ~up_fin))
    two_sided = int(np.sum(lo_fin & up_fin))
    offset = np.where(lo_fin, lo, np.where(up_fin, up, 0.0))
    rhs = lp.row_rhs - lp.row_coeffs @ offset if lp.num_rows else np.zeros(0)
    ineq = np.array([rel == "<=" for rel in lp.row_relations], dtype=bool)
    slacks = int(ineq.sum()) + two_sided
    artificials = int(np.sum(~ineq | (rhs < 0)))
    rows = lp.num_rows + two_sided
    return rows, std_vars + slacks + artificials + 1


def _observe_solve(span, args, result):
    # the LP's shape is worked out after the pass, outside the timed spans
    span["lp"] = args[0]
    span["pivots"] = result.iterations
    span["status"] = result.status
    span["objective"] = result.objective_value


def _shape_solve(span):
    lp = span.pop("lp")
    rows, cols = standardized_shape(lp)
    span["rows"] = lp.num_rows
    span["vars"] = lp.num_vars
    span["bytes"] = span["pivots"] * rows * cols * 8


def _observe_grid(span, args, result):
    span["points"] = result.points


OBSERVERS = {
    "lpcore.solve_lp": _observe_solve,
    "robust.grid_certify_gain": _observe_grid,
    "robust.grid_certify_synthesis": _observe_grid,
}


class Tracer:
    """In-memory span recorder for the poslp layers."""

    def __init__(self):
        self.spans = []          # dicts: name, start, end, parent, job (+ observed fields)
        self.job = None
        self._stack = []
        self._restore = []

    def _wrap(self, qualname, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(qualname)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = {"name": qualname, "parent": stack[-1] if stack else -1,
                    "job": self.job}
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if observe is not None:
                observe(span, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _targets(self):
        for layer in LAYERS:
            module = sys.modules[f"poslp.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    yield f"{layer}.{name}", obj
        poly = sys.modules["poslp.poly"]
        yield "poly.frozen_at", poly.PolynomialLtiSystem.frozen_at

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "poslp" or key.startswith("poslp."))]
        for qualname, fn in list(self._targets()):
            wrapper = self._wrap(qualname, fn)
            if qualname == "poly.frozen_at":
                cls = sys.modules["poslp.poly"].PolynomialLtiSystem
                self._restore.append((cls, "frozen_at", fn))
                setattr(cls, "frozen_at", wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore = []

    def reset(self):
        self.spans.clear()

    def solved_lps(self):
        """(LinearProgram, status, objective) of every completed solve whose
        shape has not been worked out yet."""
        return [(s["lp"], s["status"], s["objective"]) for s in self.spans
                if s["name"] == "lpcore.solve_lp" and "lp" in s]

    def dump(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as fh:
            for span in self.spans:
                row = dict(span, start=span["start"] - t0, end=span["end"] - t0)
                row.pop("lp", None)
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of its children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _has_ancestor(spans, index, names):
    parent = spans[index]["parent"]
    while parent >= 0:
        if spans[parent]["name"] in names:
            return True
        parent = spans[parent]["parent"]
    return False


# every per-layer metric: (unit, which direction is better).  Times are
# medians over the traced passes; counts and ratios are per pass over the
# workload's job list and repeat exactly from pass to pass.
PER_LAYER = {f"{layer}.self_ms": ("ms", "lower") for layer in LAYERS}
PER_LAYER.update({
    "lpcore.solves": ("count", "lower"),
    "lpcore.pivots": ("count", "lower"),
    "lpcore.ms_per_pivot": ("ms", "lower"),
    "lpcore.ms_per_solve": ("ms", "lower"),
    "lpcore.max_rows": ("count", "lower"),
    "lpcore.max_vars": ("count", "lower"),
    "lpcore.pivot_bytes_computed": ("B", "lower"),
    "lpcore.nonoptimal": ("count", "lower"),
    "lpcore.highs_ms": ("ms", "lower"),
    "handelman.relaxations": ("count", "lower"),
    "handelman.upsilon_builds": ("count", "lower"),
    "handelman.upsilon_builds_per_job": ("ratio", "lower"),
    "handelman.relaxations_per_solve": ("ratio", "lower"),
    "robust.assemble_ms": ("ms", "lower"),
    "robust.grid_ms": ("ms", "lower"),
    "robust.grid_points": ("count", "higher"),
    "gains.lp_builds_per_solve": ("ratio", "lower"),
    "synthesis.lp_builds_per_solve": ("ratio", "lower"),
    "sysmodel.read_ms": ("ms", "lower"),
    "sysmodel.stability_lps": ("count", "lower"),
    "sysmodel.stability_lps_per_point": ("ratio", "lower"),
    "poly.frozen_evals": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.accounted_ratio": ("ratio", "higher"),
})


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(spans, njobs):
    """Per-layer figures of one traced pass over `njobs` jobs: self times in
    ms, counts, and the named waste ratios."""
    own = self_times(spans)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    calls = {}
    inclusive = {}
    for s, t in zip(spans, own):
        by_layer[s["name"].split(".", 1)[0]] += t
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        inclusive[s["name"]] = inclusive.get(s["name"], 0.0) + s["end"] - s["start"]

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    def incl_ms(*names):
        return 1e3 * sum(inclusive.get(n, 0.0) for n in names)

    solves = [s for s in spans if s["name"] == "lpcore.solve_lp" and "pivots" in s]
    for s in solves:
        _shape_solve(s)
    pivots = sum(s["pivots"] for s in solves)
    solve_ms = incl_ms("lpcore.solve_lp")

    def solves_under(layer):
        return sum(1 for s in solves
                   if s["parent"] >= 0 and spans[s["parent"]]["name"].startswith(layer + "."))

    relaxations = sum(1 for s in spans
                      if s["name"] in ("handelman.relax_full", "handelman.relax_reduced")
                      and not (s["parent"] >= 0 and spans[s["parent"]]["name"]
                               == "handelman.relax_reduced"))
    grids = ("robust.grid_certify_gain", "robust.grid_certify_synthesis")
    grid_points = sum(s.get("points", 0) for s in spans if s["name"] in grids)
    grid_stability = sum(1 for i, s in enumerate(spans)
                         if s["name"] == "sysmodel.metzler_stable"
                         and _has_ancestor(spans, i, grids))
    upsilon = count("handelman.build_upsilon")

    out = {f"{layer}.self_ms": 1e3 * by_layer[layer] for layer in LAYERS}
    out.update({
        "lpcore.solves": len(solves),
        "lpcore.pivots": pivots,
        "lpcore.ms_per_pivot": _ratio(solve_ms, pivots),
        "lpcore.ms_per_solve": _ratio(solve_ms, len(solves)),
        "lpcore.max_rows": max((s["rows"] for s in solves), default=0),
        "lpcore.max_vars": max((s["vars"] for s in solves), default=0),
        "lpcore.pivot_bytes_computed": sum(s["bytes"] for s in solves),
        "lpcore.nonoptimal": sum(1 for s in solves if s["status"] != "optimal"),
        "handelman.relaxations": relaxations,
        "handelman.upsilon_builds": upsilon,
        "handelman.upsilon_builds_per_job": _ratio(upsilon, njobs),
        "handelman.relaxations_per_solve": _ratio(relaxations, count("robust.solve_robust")),
        "robust.assemble_ms": incl_ms("robust.robust_l1", "robust.robust_linf",
                                      "robust.robust_stabilize"),
        "robust.grid_ms": incl_ms(*grids),
        "robust.grid_points": grid_points,
        "gains.lp_builds_per_solve": _ratio(count("gains.l1_lp", "gains.linf_lp"),
                                            solves_under("gains")),
        "synthesis.lp_builds_per_solve": _ratio(count("synthesis.synthesis_lp"),
                                                solves_under("synthesis")),
        "sysmodel.read_ms": incl_ms("sysmodel.read_system"),
        "sysmodel.stability_lps": count("sysmodel.metzler_stable"),
        "sysmodel.stability_lps_per_point": _ratio(grid_stability, grid_points),
        "poly.frozen_evals": count("poly.frozen_at"),
    })
    out["_accounted_ms"] = 1e3 * sum(by_layer.values())
    return out
