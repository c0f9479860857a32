"""Answer checks for benchmark jobs, run outside the timed loop.

Each check takes a job, its parsed structured report, the input directory
and the LPs the job solved, and returns a list of problems (empty when the
answer is right).  The references are computed here with numpy, from the
input files, independently of poslp's own simplex:

* gain: the static-gain oracle F - C A^{-1} E and the returned Lyapunov
  witness;
* synth: positivity, stability (eigenvalues) and the Linf gain of the
  closed loop A + BK, C + DK, and the controller bounds;
* robust-gain, robust-synth: the report's own grid verdict;
* reproduce: the references in `poslp.cases` at the tolerances the tests use;
* every job: each LP-derived value equals the optimum of an LP the job
  solved, and those LPs (a sample of at most `LP_SAMPLE` for sweeps) give
  the same status and, to 1e-9 relative, the same optimum under HiGHS.
"""

import json
import os
import time

import numpy as np

LP_SAMPLE = 64
HIGHS_REL_TOL = 1e-9

try:
    from scipy.optimize import linprog
except ImportError:          # HiGHS cross-check is skipped and the skip reported
    linprog = None

HIGHS_AVAILABLE = linprog is not None


def _load(indir, name):
    with open(os.path.join(indir, name)) as fh:
        return json.load(fh)


def _system(indir, name):
    doc = _load(indir, name)
    n, m, p, q = doc["n"], doc.get("m", 0), doc["p"], doc["q"]

    def mat(key, rows, cols):
        if key not in doc:
            return np.zeros((rows, cols))
        return np.asarray(doc[key], dtype=float).reshape(rows, cols)
    return {"A": mat("A", n, n), "B": mat("B", n, m), "C": mat("C", q, n),
            "D": mat("D", q, m), "E": mat("E", n, p), "F": mat("F", q, p)}


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _static_gain(a, c, e, f):
    return f - c @ np.linalg.solve(a, e)


def _hurwitz(a):
    return bool(np.max(np.linalg.eigvals(a).real) < 0.0)


def check_gain(job, doc, indir):
    s = _system(indir, job.info["file"])
    problems = []
    if doc.get("status") != "optimal" or doc.get("norm") != job.info["norm"]:
        return [f"unexpected status/norm {doc.get('status')}/{doc.get('norm')}"]
    h0 = _static_gain(s["A"], s["C"], s["E"], s["F"])
    l1 = job.info["norm"] == "l1"
    oracle = float(np.max(h0.sum(axis=0 if l1 else 1)))
    gamma = doc["gamma"]
    if _rel(gamma, oracle) > 1e-4 or gamma < oracle * (1 - 1e-9):
        problems.append(f"gamma {gamma!r} vs static-gain oracle {oracle!r}")
    # the witness must satisfy the gain LP's inequalities (margin epsilon)
    lam = np.asarray(doc["witness_lambda"])
    a, c, e, f = s["A"], s["C"], s["E"], s["F"]
    if l1:
        lhs = np.concatenate([lam @ a + c.sum(axis=0), lam @ e - gamma + f.sum(axis=0)])
    else:
        lhs = np.concatenate([a @ lam + e.sum(axis=1), c @ lam - gamma + f.sum(axis=1)])
    slack = 1e-8 * (1 + np.abs(lhs))
    if np.any(lam <= 0) or np.any(lhs > -doc["epsilon"] + slack):
        problems.append("witness lambda violates the gain inequalities")
    return problems


def check_synth(job, doc, indir):
    s = _system(indir, job.info["file"])
    if doc.get("status") != "optimal":
        return [f"unexpected status {doc.get('status')}"]
    k = np.asarray(doc["K"], dtype=float).reshape(s["B"].shape[1], s["A"].shape[0])
    acl = s["A"] + s["B"] @ k
    ccl = s["C"] + s["D"] @ k
    problems = []
    off = acl - np.diag(np.diag(acl))
    if np.min(off) < -1e-9 or np.min(ccl) < -1e-9:
        problems.append("closed loop is not positive")
    if not _hurwitz(acl):
        return problems + ["closed loop is not Hurwitz"]
    cl_gain = float(np.max(_static_gain(acl, ccl, s["E"], s["F"]).sum(axis=1)))
    gamma = doc["gamma"]
    if cl_gain > gamma * (1 + 1e-6) + 1e-6 or _rel(gamma, cl_gain) > 1e-4:
        problems.append(f"gamma {gamma!r} vs closed-loop Linf oracle {cl_gain!r}")
    if _rel(doc["closed_loop_linf_oracle"], cl_gain) > 1e-6:
        problems.append("reported closed-loop oracle disagrees with numpy")
    if "bounds" in job.info:
        bounds = _load(indir, job.info["bounds"])
        if np.any(k < np.asarray(bounds["K_lower"]) - 1e-9) or \
                np.any(k > np.asarray(bounds["K_upper"]) + 1e-9):
            problems.append("K violates its bounds")
    return problems


def check_robust(job, doc, indir):
    if doc.get("status") != "optimal":
        return [f"unexpected status {doc.get('status')}"]
    if doc.get("grid_verdict") is not True:
        return [f"grid check refuted gamma {doc.get('gamma')!r} "
                f"(max oracle {doc.get('grid_max_oracle')!r})"]
    if "bounds" in job.info:
        bounds = _load(indir, job.info["bounds"])
        k = np.asarray(doc["K"])
        if np.any(k < np.asarray(bounds["K_lower"]) - 1e-9) or \
                np.any(k > np.asarray(bounds["K_upper"]) + 1e-9):
            return ["K violates its bounds"]
    return []


def check_reproduce(job, doc, indir):
    from poslp.cases import GENE_TABLE, POLY3_REFERENCE, drug_gain_formulas
    case = job.info["case"]
    rows = doc.get("rows", [])
    problems = []
    if doc.get("status") != "ok" or doc.get("case", case) != case:
        return [f"unexpected status/case {doc.get('status')}/{doc.get('case')}"]
    if case == "table2":
        for r in rows:
            l1, linf = drug_gain_formulas(r["a11"], r["a12"], r["a21"], r["k1"], r["k2"])
            if _rel(r["l1_lp"], l1) > 1e-6 or _rel(r["linf_lp"], linf) > 1e-6:
                problems.append(f"drug row {r['a11']:.4f}: LP gains off the closed forms")
        if len(rows) != 5:
            problems.append(f"{len(rows)} rows, expected 5")
    elif case == "table3":
        if [(r["N"], r["reference"]) for r in rows] != [tuple(t) for t in GENE_TABLE]:
            problems.append("gene table rows differ from the reference table")
        problems += [f"gene N={r['N']}: {r['linf_gain']!r} vs {r['reference']!r}"
                     for r in rows if _rel(r["linf_gain"], r["reference"]) > 1e-3]
    elif case in ("table4", "table5"):
        norm = "l1" if case == "table4" else "linf"
        refs = [((norm, "const"), 5e-3), ((norm, "saturated2"), 5e-3),
                ((norm, "exact"), 1e-3)]
        if len(rows) != 3:
            return [f"{len(rows)} rows, expected 3"]
        for r, (key, tol) in zip(rows, refs):
            if _rel(r["gamma"], POLY3_REFERENCE[key]) > tol:
                problems.append(f"{case} {r['scaling']}: {r['gamma']!r} vs "
                                f"{POLY3_REFERENCE[key]!r}")
    elif case == "delay":
        if doc.get("agreement") != "20/20" or len(rows) != 20 or any(
                r["ilc_verdict"] != r["direct_verdict"] for r in rows):
            problems.append(f"delay verdict agreement {doc.get('agreement')}")
    return problems


CHECKS = {"gain": check_gain, "synth": check_synth, "robust-gain": check_robust,
          "robust-synth": check_robust, "reproduce": check_reproduce}


def lp_values(job, doc):
    """The numbers in a report that are optima of LPs the job solved."""
    if job.kind != "reproduce":
        return [doc["gamma"]]
    case = job.info["case"]
    rows = doc.get("rows", [])
    if case == "table2":
        return [v for r in rows for v in (r["l1_lp"], r["linf_lp"])]
    if case == "table3":
        return [r["linf_gain"] for r in rows]
    if case in ("table4", "table5"):
        return [r["gamma"] for r in rows[:2]]
    return []


def warm_up():
    """One tiny solve, so HiGHS' lazy imports are not timed."""
    linprog([1.0], bounds=[(0.0, 1.0)], method="highs-ds")


def highs_solve(lp):
    """Solve a poslp LinearProgram with HiGHS' dual simplex; returns
    (status, objective, seconds) with poslp's status names.  Presolve is
    off: on the dense square gain LPs it costs ten times the solve."""
    le = np.array([rel == "<=" for rel in lp.row_relations], dtype=bool)
    eq = ~le
    kwargs = {}
    if le.any():
        kwargs.update(A_ub=lp.row_coeffs[le], b_ub=lp.row_rhs[le])
    if eq.any():
        kwargs.update(A_eq=lp.row_coeffs[eq], b_eq=lp.row_rhs[eq])
    bounds = np.column_stack([lp.var_lower, lp.var_upper])
    start = time.perf_counter()
    res = linprog(lp.objective, bounds=bounds, method="highs-ds",
                  options={"presolve": False}, **kwargs)
    seconds = time.perf_counter() - start
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status,
                                                                 f"highs-{res.status}")
    return status, (float(res.fun) if res.status == 0 else None), seconds


def _sample(count, size):
    if count <= size:
        return list(range(count))
    return sorted({int(round(i * (count - 1) / (size - 1))) for i in range(size)})


def check_lps(job, doc, lps):
    """Cross-check the job's LPs with HiGHS.  `lps` holds (LinearProgram,
    poslp status, poslp objective) per solve.  Returns (problems, number of
    LPs checked, HiGHS seconds scaled to all of the job's LPs)."""
    problems = []
    wanted = set()
    for value in lp_values(job, doc):
        hit = next((i for i, (_, st, obj) in enumerate(lps)
                    if st == "optimal" and abs(obj - value) <= 1e-12 * max(1.0, abs(value))),
                   None)
        if hit is None:
            problems.append(f"reported optimum {value!r} matches no solved LP")
        else:
            wanted.add(hit)
    if not HIGHS_AVAILABLE:
        return problems, 0, 0.0
    sample = _sample(len(lps), LP_SAMPLE)
    seconds = 0.0
    checked = sorted(set(sample) | wanted)
    for i in checked:
        lp, status, obj = lps[i]
        h_status, h_obj, dt = highs_solve(lp)
        if i in sample:
            seconds += dt
        if h_status != status:
            problems.append(f"LP {i} ({lp.num_rows}x{lp.num_vars}): poslp {status}, "
                            f"HiGHS {h_status}")
        elif status == "optimal" and abs(obj - h_obj) > HIGHS_REL_TOL * max(abs(h_obj), 1e-3):
            problems.append(f"LP {i} ({lp.num_rows}x{lp.num_vars}): poslp {obj!r}, "
                            f"HiGHS {h_obj!r}")
    if sample:
        seconds *= len(lps) / len(sample)
    return problems, len(checked), seconds
