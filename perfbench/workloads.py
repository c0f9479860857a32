"""Seeded input generators and job lists for the four benchmark workloads.

A workload is a fixed list of `poslp` command lines plus the input files they
read.  `generate(name, seed, outdir)` writes the files and returns the jobs;
the same seed always gives byte-identical files, and the program under test
sees nothing but those files and the command lines.  Problem sizes follow a
fixed ladder per workload, so a different seed changes the numbers in the
matrices but not the amount of work in a pass.

The generators use numpy only (no poslp code), so a change to the program
cannot change the inputs it is measured on.  The two bundled reference
models (the degree-2 polynomial benchmark and the gene expression model) are
written from the data in `poslp.cases`.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

WHY = {
    "gain_square": "gain --norm l1|linf on random positive systems, n 24..120: "
                   "square LPs where LP assembly and JSON input sit next to lpcore",
    "synth_tall": "synth on random systems, n 8..24: tall LPs (n^2 rows) where "
                  "dense simplex pivots and dual recovery dominate",
    "robust_relax": "robust-gain and robust-synth with Handelman relaxations: wide "
                    "LPs where handelman, robust, lft and ilc carry real weight",
    "oracle_sweep": "reproduce tables and 1001-point grid checks: thousands of tiny "
                    "stability LPs that expose per-call overhead",
}

WORKLOADS = tuple(WHY)

# Row degree of the robust programs per scaling: FreeConstant scalings enter
# the ILC rows times Delta(delta), which is linear; saturated polynomial
# scalings of degree k put degree-k phi1 terms into every channel row.
ROW_DEGREE = {"const": 1, "saturated:1": 1, "saturated:2": 2}


@dataclass(frozen=True)
class Job:
    """One `poslp` call.  Arguments starting with '@' name input files and
    are resolved against the input directory when the job runs."""

    argv: tuple
    kind: str                       # gain | synth | robust-gain | robust-synth | reproduce
    info: dict = field(default_factory=dict, compare=False)

    def resolve(self, indir):
        return [os.path.join(indir, a[1:]) if a.startswith("@") else a
                for a in self.argv]

    @property
    def label(self):
        return " ".join(self.argv)


def _rng(seed, workload, index):
    tag = WORKLOADS.index(workload)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag, index])))


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _metzler_stable(rng, n):
    """Off-diagonals uniform on [0, 1]; each diagonal entry is minus
    its off-diagonal row sum minus a margin uniform on [0.1, 1.1], the
    distribution of `poslp.random_positive_system`."""
    a = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -(a.sum(axis=1) + rng.uniform(0.1, 1.1, n)))
    return a


def _system_doc(a, b, c, d, e, f):
    n, p, q = a.shape[0], e.shape[1], c.shape[0]
    doc = {"n": n, "m": b.shape[1], "p": p, "q": q, "A": a.tolist(),
           "C": c.tolist(), "E": e.tolist(), "F": f.tolist()}
    if b.shape[1]:
        doc["B"] = b.tolist()
        doc["D"] = d.tolist()
    return doc


def _random_system(rng, n, m, p, q):
    a = _metzler_stable(rng, n)
    b = rng.uniform(0.0, 1.0, (n, m))
    c = rng.uniform(0.0, 1.0, (q, n))
    d = rng.uniform(0.0, 1.0, (q, m))
    e = rng.uniform(0.0, 1.0, (n, p))
    f = rng.uniform(0.0, 1.0, (q, p))
    return _system_doc(a, b, c, d, e, f)


def _bounds_job(outdir, name, argv, info, m, n, bound):
    """Add a controller-bounds file K in [-bound, bound]^(m x n) to a job."""
    _write_json(os.path.join(outdir, name), {"K_lower": (-bound * np.ones((m, n))).tolist(),
                                             "K_upper": (bound * np.ones((m, n))).tolist()})
    argv += ["--bounds", "@" + name]
    info["bounds"] = name


def _poly_doc(terms, n, m, p, q, lower, upper):
    """Polynomial system file: one record per exponent tuple."""
    records = []
    for alpha in sorted(terms):
        rec = {"exponents": list(alpha)}
        for name, mat in sorted(terms[alpha].items()):
            if mat.size and np.any(mat != 0.0):
                rec[name] = mat.tolist()
        records.append(rec)
    return {"nparams": len(lower), "n": n, "m": m, "p": p, "q": q,
            "domain_lower": list(lower), "domain_upper": list(upper),
            "terms": records}


def _separable_system(rng, n, nparams, degree, m=0, p=2, q=2, d_scale=1.0):
    """Random system on [0,1]^N, polynomial of the given degree in each
    parameter separately, positive on the whole box and stable with a
    shared Lyapunov vector (the diagonal of A0 dominates every row and
    column of every A term)."""
    zero = (0,) * nparams
    a0 = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(a0, 0.0)
    terms = {zero: {}}
    load = np.maximum(a0.sum(axis=0), a0.sum(axis=1))
    for k in range(nparams):
        for j in range(1, degree + 1):
            alpha = tuple(j if i == k else 0 for i in range(nparams))
            ak = rng.uniform(0.0, 0.4, (n, n))
            np.fill_diagonal(ak, rng.uniform(-0.4, 0.4, n))
            load = load + np.maximum(np.abs(ak).sum(axis=0), np.abs(ak).sum(axis=1))
            terms[alpha] = {"A": ak,
                            "C": rng.uniform(0.0, 0.4, (q, n)),
                            "E": rng.uniform(0.0, 0.4, (n, p)),
                            "F": rng.uniform(0.0, 0.4, (q, p))}
            if m:
                terms[alpha]["B"] = rng.uniform(0.0, 0.4, (n, m))
                terms[alpha]["D"] = d_scale * rng.uniform(0.0, 0.4, (q, m))
    np.fill_diagonal(a0, -(load + rng.uniform(0.5, 1.5, n)))
    terms[zero] = {"A": a0, "C": rng.uniform(0.0, 1.0, (q, n)),
                   "E": rng.uniform(0.0, 1.0, (n, p)),
                   "F": rng.uniform(0.0, 1.0, (q, p))}
    if m:
        terms[zero]["B"] = rng.uniform(0.0, 1.0, (n, m))
        terms[zero]["D"] = d_scale * rng.uniform(0.0, 1.0, (q, m))
    return _poly_doc(terms, n, m, p, q, [0.0] * nparams, [1.0] * nparams)


def _poly3_doc():
    from poslp.cases import POLY3_A, POLY3_C, POLY3_E, POLY3_F
    terms = {(k,): {"A": POLY3_A[k], "C": POLY3_C[k], "E": POLY3_E[k], "F": POLY3_F[k]}
             for k in range(3)}
    return _poly_doc(terms, 3, 0, 2, 2, [0.0], [1.0])


def _gene_doc(rel):
    """mRNA/protein model with parameters known up to +/- rel (the formula of
    `poslp.cases.gene_expression_system`), affine on [-1, 1]^3."""
    zero = (0, 0, 0)
    terms = {zero: {"A": np.array([[-1.0, 0.0], [2.0, -1.0]]),
                    "C": np.array([[0.0, 1.0]]), "E": np.array([[1.0], [0.0]]),
                    "F": np.zeros((1, 1))},
             (1, 0, 0): {"A": np.array([[-rel, 0.0], [0.0, 0.0]])},
             (0, 1, 0): {"A": np.array([[0.0, 0.0], [2.0 * rel, 0.0]])},
             (0, 0, 1): {"A": np.array([[0.0, 0.0], [0.0, -rel]])}}
    return _poly_doc(terms, 2, 0, 1, 1, [-1.0] * 3, [1.0] * 3)


# ---------------------------------------------------------------------------
# workloads

def _gain_square(seed, outdir, smoke):
    # four instances per size, so the median and the tail each fall in a
    # group of jobs rather than on one random system
    sizes = [4, 6, 8] if smoke else [n for n in (24, 48, 72, 96, 120) for _ in range(4)]
    jobs = []
    for k, n in enumerate(sizes):
        name = f"gain{k:02d}.json"
        _write_json(os.path.join(outdir, name),
                    _random_system(_rng(seed, "gain_square", k), n, 0, 3, 3))
        norm = "l1" if k % 2 == 0 else "linf"
        jobs.append(Job(("gain", "--norm", norm, "@" + name, "--format", "structured"),
                        "gain", {"norm": norm, "file": name}))
    return jobs


def _synth_tall(seed, outdir, smoke):
    # (states, instances, K bounded to [-2, 2]); grouped like gain_square
    ladder = ((3, 1, False), (5, 1, True)) if smoke else \
        ((8, 2, False), (12, 2, True), (16, 4, False), (20, 2, True), (24, 4, False))
    jobs = []
    for n, count, bounded in ladder:
        for _ in range(count):
            k = len(jobs)
            name = f"synth{k:02d}.json"
            _write_json(os.path.join(outdir, name),
                        _random_system(_rng(seed, "synth_tall", k), n, 2, 2, 2))
            argv = ["synth", "@" + name, "--format", "structured"]
            info = {"file": name}
            if bounded:
                _bounds_job(outdir, f"synth{k:02d}_bounds.json", argv, info, 2, n, 2.0)
            jobs.append(Job(tuple(argv), "synth", info))
    return jobs


# (norm, scaling, form, degree offset over the row degree) for robust-gain
# jobs; offset None leaves --degree at its default (row degree + 2)
_POLY3_GAIN = (("l1", "const", "reduced", None), ("linf", "const", "full", 0),
               ("l1", "saturated:2", "reduced", 0), ("linf", "saturated:2", "reduced", 2),
               ("l1", "saturated:1", "full", 2), ("linf", "saturated:1", "reduced", 0))
# (parameters, degree per parameter, states, norm, scaling, form, offset)
_RANDOM_GAIN = ((1, 2, 4, "l1", "saturated:2", "reduced", 0),
                (1, 2, 5, "linf", "const", "full", 2),
                (1, 2, 4, "linf", "saturated:1", "reduced", None),
                (1, 2, 5, "l1", "saturated:2", "full", 0),
                (2, 1, 4, "l1", "const", "reduced", 0),
                (2, 1, 3, "linf", "saturated:2", "reduced", 0),
                (2, 1, 4, "l1", "saturated:1", "full", 2),
                (2, 1, 3, "linf", "const", "reduced", 2))
# (parameters, states, D scale, bounded K, scaling, offset) for robust-synth;
# alike in size, so the tail falls in this group rather than on one plant
_RANDOM_SYNTH = ((2, 3, 1.0, False, "const", 2),
                 (2, 3, 1.0, False, "saturated:1", None),
                 (2, 3, 0.0, True, "const", 2),
                 (2, 3, 0.0, True, "saturated:1", None))


def _degree_args(scaling, offset):
    if offset is None:
        return []
    return ["--degree", str(ROW_DEGREE[scaling] + offset)]


def _robust_relax(seed, outdir, smoke):
    poly3 = _POLY3_GAIN[:1] if smoke else _POLY3_GAIN
    rand = _RANDOM_GAIN[:1] if smoke else _RANDOM_GAIN
    synth = _RANDOM_SYNTH[:1] if smoke else _RANDOM_SYNTH
    common = ["--grid", "11", "--format", "structured"]
    _write_json(os.path.join(outdir, "poly3.json"), _poly3_doc())
    jobs = []
    for norm, scaling, form, offset in poly3:
        jobs.append(Job(tuple(["robust-gain", "--norm", norm, "@poly3.json",
                               "--scaling", scaling, "--form", form]
                              + _degree_args(scaling, offset) + common),
                        "robust-gain"))
    for k, (nparams, degree, n, norm, scaling, form, offset) in enumerate(rand):
        name = f"rgain{k:02d}.json"
        _write_json(os.path.join(outdir, name), _separable_system(
            _rng(seed, "robust_relax", k), n, nparams, degree))
        jobs.append(Job(tuple(["robust-gain", "--norm", norm, "@" + name,
                               "--scaling", scaling, "--form", form]
                              + _degree_args(scaling, offset) + common),
                        "robust-gain"))
    for k, (nparams, n, d_scale, bounded, scaling, offset) in enumerate(synth):
        name = f"rsynth{k:02d}.json"
        _write_json(os.path.join(outdir, name), _separable_system(
            _rng(seed, "robust_relax", 100 + k), n, nparams, 1, m=2, d_scale=d_scale))
        argv = ["robust-synth", "@" + name, "--scaling", scaling]
        info = {}
        if bounded:
            _bounds_job(outdir, f"rsynth{k:02d}_bounds.json", argv, info, 2, n, 3.0)
        jobs.append(Job(tuple(argv + _degree_args(scaling, offset) + common),
                        "robust-synth", info))
    return jobs


def _oracle_sweep(seed, outdir, smoke):
    rng = _rng(seed, "oracle_sweep", 0)
    case_seed = int(rng.integers(1 << 20))
    rel = float(rng.uniform(0.1, 0.6))
    _write_json(os.path.join(outdir, "poly3.json"), _poly3_doc())
    _write_json(os.path.join(outdir, "gene.json"), _gene_doc(rel))
    grid = "21" if smoke else "1001"
    cases = ("table2", "delay") if smoke else ("table2", "table3", "table4", "table5", "delay")
    jobs = [Job(("reproduce", case, "--seed", str(case_seed), "--format", "structured"),
                "reproduce", {"case": case}) for case in cases]
    jobs.append(Job(("robust-gain", "--norm", "l1", "@poly3.json", "--grid", grid,
                     "--format", "structured"), "robust-gain"))
    jobs.append(Job(("robust-gain", "--norm", "linf", "--vertices", "@gene.json",
                     "--grid", grid, "--format", "structured"), "robust-gain"))
    return jobs


_BUILDERS = {"gain_square": _gain_square, "synth_tall": _synth_tall,
             "robust_relax": _robust_relax, "oracle_sweep": _oracle_sweep}


def generate(workload, seed, outdir, smoke=False):
    """Write the workload's input files for `seed` into `outdir` and return
    its job list (one pass).  `smoke` shrinks the pass for self-tests."""
    os.makedirs(outdir, exist_ok=True)
    return _BUILDERS[workload](int(seed), outdir, smoke)
