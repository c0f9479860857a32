"""Batch command-line front end.

Subcommands: check, gain, synth, robust-gain, robust-synth, reproduce.
Structured reports are canonical JSON (sorted keys, no timestamps), so
identical inputs and seed produce byte-identical output.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import gains, handelman, ilc, lft, numlin, robust, synthesis, sysmodel
from .cases import (DRUG_SEED, GENE_TABLE, POLY3_REFERENCE, drug_gain_formulas,
                    drug_system, gene_expression_system, poly3_system)
from .errors import InfeasibleError, PoslpError, ValidationError, require_keys, require_whole
from .lpcore import StrictnessPolicy, lp_to_text
from .poly import BoxDomain, read_polynomial_system
from .synthesis import ControllerSpec


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poslp",
        description="L1/Linf gains, stabilization and robustness certification "
                    "of linear positive systems by linear programming")
    common = argparse.ArgumentParser(add_help=False)
    # None when absent, so `reproduce` can refuse the flags a case does not read
    common.add_argument("--epsilon", type=float,
                        help="margin closing strict inequalities (default 1e-7)")
    common.add_argument("--lambda-floor", type=float,
                        help="lower bound standing in for lambda > 0 (default 1e-6)")
    common.add_argument("--format", choices=("text", "structured"), default="text",
                        help="human table or machine-readable JSON report")
    dump = argparse.ArgumentParser(add_help=False)
    dump.add_argument("--dump-lp", metavar="PATH",
                      help="write the solved LP, or the LP an infeasible verdict refuted, "
                           "in the text interchange format")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=int, default=101,
                      help="certification sweep points (at least 1): per axis for one parameter; "
                           "several parameters share about this many in all, box vertices included")
    norm = argparse.ArgumentParser(add_help=False)
    norm.add_argument("--norm", choices=("l1", "linf"), required=True,
                      help="induced gain of the w -> z channel: l1 or linf")
    relax = argparse.ArgumentParser(add_help=False)
    relax.add_argument("--scaling", default="saturated",
                       help="const | poly:<d> | saturated[:<d>] (default saturated:2)")
    relax.add_argument("--degree", type=int, default=None,
                       help="Handelman product degree b (default: row degree + 2)")
    relax.add_argument("--form", choices=("reduced", "full"), default="reduced",
                       help="Handelman relaxation form (default reduced)")
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--zeros", metavar="FILE", help="JSON file with a zero_pattern index list")
    spec.add_argument("--bounds", metavar="FILE",
                      help="JSON file with K_lower / K_upper matrices")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="positivity and stability report for a system file")
    p.add_argument("system")
    p.add_argument("--tol", type=float, default=0.0,
                   help="structural tolerance for positivity classification")

    p = sub.add_parser("gain", parents=[common, dump, norm], help="compute an induced gain")
    p.add_argument("system")

    p = sub.add_parser("synth", parents=[common, dump, spec],
                       help="state-feedback synthesis with Linf bound")
    p.add_argument("system")

    p = sub.add_parser("robust-gain", parents=[common, dump, grid, norm, relax],
                       help="robust gain of a polynomially-uncertain system")
    p.add_argument("system", help="polynomial system file")
    p.add_argument("--vertices", action="store_true",
                   help="use vertex enumeration (affine dependence only)")

    p = sub.add_parser("robust-synth", parents=[common, dump, grid, relax, spec],
                       help="robust state-feedback synthesis (Linf)")
    p.add_argument("system", help="polynomial system file")

    p = sub.add_parser("reproduce", parents=[common],
                       help="re-run a bundled benchmark case",
                       epilog="table2 and ex72 refuse --epsilon and --lambda-floor: "
                              "table2 uses its own margins of 1e-9, ex72 solves no LP")
    p.add_argument("case", choices=tuple(REPRODUCE))
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the seeded cases, table2 and delay; the others ignore it")
    return parser


@functools.cache
def _parser():
    """The parser `main` uses: built on the first call, reused by every later one."""
    return build_parser()


def parse_scaling(text):
    """const | poly:<d> | saturated[:<d>]; anything else is a ValidationError."""
    kind, sep, degree = text.partition(":")
    if text == "const":
        return ilc.FreeConstant()
    if text == "saturated":
        return ilc.FreePolynomial(2)
    if sep and kind in ("poly", "saturated"):
        try:
            return ilc.FreePolynomial(int(degree), saturated=kind == "saturated")
        except ValueError:
            pass
    raise ValidationError(f"unknown scaling {text!r} (use const, poly:<d> or saturated[:<d>])")


def robust_input(args):
    """The polynomial system and policy of a robust command, which needs --grid >= 1."""
    if args.grid < 1:
        raise ValidationError(f"--grid must be at least 1, got {args.grid}")
    return read_polynomial_system(args.system), policy_from(args)


def load_spec(zeros_path, bounds_path):
    """The controller spec of a --zeros file (whole-number [row, column] pairs)
    and a --bounds file (numeric K_lower / K_upper matrices)."""
    pattern = ()
    lo = up = None
    if zeros_path:
        with open(zeros_path) as fh:
            doc = json.load(fh)
        what = f"zeros file {zeros_path}"
        require_keys(doc, what, "zero_pattern")
        pairs = doc["zero_pattern"]
        if not (isinstance(pairs, list) and all(isinstance(e, list) and len(e) == 2
                                                for e in pairs)):
            raise ValidationError(f"{what} key 'zero_pattern' is {pairs!r}, "
                                  "not a list of [row, column] pairs")
        pattern = tuple(tuple(require_whole(i, f"{what} index {pair}") for i in pair)
                        for pair in pairs)
    if bounds_path:
        with open(bounds_path) as fh:
            doc = json.load(fh)
        what = f"bounds file {bounds_path}"
        require_keys(doc, what, "K_lower", "K_upper")
        lo, up = (numlin.as_matrix(doc[key], f"{what} key {key!r}")
                  for key in ("K_lower", "K_upper"))
    return ControllerSpec(zero_pattern=pattern, k_lower=lo, k_upper=up)


def policy_from(args):
    """The margins given on the command line, StrictnessPolicy's defaults for the rest."""
    return StrictnessPolicy(**{key: getattr(args, key) for key in ("epsilon", "lambda_floor")
                               if getattr(args, key) is not None})


def emit(args, doc, text):
    """Print the report `doc`: as canonical JSON, or under --format text as the
    lines `text(doc)` formats from it."""
    if args.format == "structured":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print("\n".join(text(doc)))
    return 0


def _array(values):
    return np.array2string(np.array(values), precision=6)


def _grid_line(doc):
    return (f"grid check: max frozen-delta oracle {doc['grid_max_oracle']:.6f} "
            f"-> {'ok' if doc['grid_verdict'] else 'REFUTED'}")


def maybe_dump(args, lp):
    """Write `lp`, if any, to the --dump-lp path of a command that has one and was given it."""
    if lp is not None and getattr(args, "dump_lp", None):
        with open(args.dump_lp, "w") as fh:
            fh.write(lp_to_text(lp))


def cmd_check(args):
    if not 0.0 <= args.tol < float("inf"):
        raise ValidationError(f"--tol must be finite and at least 0, got {args.tol}")
    sys_in = sysmodel.read_system(args.system)
    report = sysmodel.classify(sys_in, tol=args.tol)
    policy = policy_from(args)
    doc = {
        "status": "ok", "is_positive": report.is_positive,
        "violations": [{"matrix": m, "index": list(idx), "value": v}
                       for m, idx, v in report.violations],
        "is_stable": (None if sysmodel.negative_entries(sys_in.A, off_diagonal=True).any()
                      else sysmodel.is_stable(sys_in, policy)),
        "epsilon": policy.epsilon,
    }
    return emit(args, doc, lambda d: [
        f"positive: {d['is_positive']}",
        *(f"  violation: {v['matrix']}{tuple(v['index'])} = {v['value']}"
          for v in d["violations"]),
        f"stable:   {d['is_stable']}"])


def cmd_gain(args):
    sys_in = sysmodel.read_system(args.system)
    policy = policy_from(args)
    res = (gains.l1_gain if args.norm == "l1" else gains.linf_gain)(sys_in, policy)
    maybe_dump(args, res.lp)
    try:        # the static-gain oracle, for visibility of the eps bias
        oracle = sysmodel.oracle_gains(sys_in)[0 if args.norm == "l1" else 1]
    except PoslpError:     # it refuses A it cannot invert reliably
        oracle = None
    doc = {
        "status": "optimal", "norm": args.norm, "gamma": res.gamma,
        "oracle_gain": oracle, "epsilon": res.epsilon, "witness_lambda": res.lam.tolist(),
    }
    return emit(args, doc, lambda d: [
        f"{d['norm']}-gain gamma = {d['gamma']:.10g} (oracle "
        f"{'n/a' if d['oracle_gain'] is None else format(d['oracle_gain'], '.10g')}, "
        f"eps bias {d['epsilon']:g})",
        f"witness lambda = {_array(d['witness_lambda'])}"])


def cmd_synth(args):
    sys_in = sysmodel.read_system(args.system)
    policy = policy_from(args)
    spec = load_spec(args.zeros, args.bounds)
    res = synthesis.stabilize_linf(sys_in, spec, policy)
    maybe_dump(args, res.lp)
    cl = synthesis.closed_loop(sys_in, res.K)
    doc = {
        "status": "optimal", "gamma": res.gamma, "epsilon": policy.epsilon,
        "K": res.K.tolist(), "witness_lambda": res.lam.tolist(),
        "closed_loop_linf_oracle": sysmodel.oracle_gains(cl, tol=1e-9)[1],
    }
    return emit(args, doc, lambda d: [
        f"gamma = {d['gamma']:.10g} (closed-loop oracle {d['closed_loop_linf_oracle']:.10g})",
        "K =", _array(d["K"])])


ROBUST_NOTE = "certified upper bound; sufficiency only for parameter-independent Lyapunov vectors"


def cmd_robust_gain(args):
    psys, policy = robust_input(args)
    template = parse_scaling(args.scaling)
    if args.vertices:
        res = robust.vertex_gain(psys, args.norm, policy)
    else:
        res = robust.solve_robust(robust.robust_gain(psys, args.norm, template, policy),
                                  b=args.degree, form=args.form)
    maybe_dump(args, res.lp)
    verdict = robust.grid_certify_gain(psys, res.gamma, args.norm, args.grid)
    doc = {
        "norm": args.norm, "gamma": res.gamma, "epsilon": res.epsilon,
        "witness_lambda": res.lam.tolist(),
        "grid_verdict": verdict.ok, "grid_max_oracle": verdict.max_oracle,
    }
    if args.vertices:
        doc.update(status="optimal", method="vertices",
                   conservatism_note="vertex method is exact for affine dependence "
                                     "up to the shared Lyapunov vector")
        return emit(args, doc, lambda d: [
            f"{d['norm']}-gain (vertex method) gamma = {d['gamma']:.6f} "
            f"over {2 ** psys.nparams} vertices", _grid_line(d)])
    doc.update(status="optimal", method="lft-ilc", scaling=args.scaling,
               product_degree=res.b, form=res.form, lp_vars=res.lp.num_vars,
               lp_rows=res.lp.num_rows, conservatism_note=ROBUST_NOTE)
    if res.certificate is not None:
        cert = res.certificate
        doc["certificate"] = {
            "products": [list(e) for e in cert.products],
            "upsilon_shape": [len(cert.monomials), len(cert.products)],
            "eliminated_columns": ([list(e) for e in cert.eliminated_columns]
                                   if cert.eliminated_columns else None),
            "blocks": {name: {"kind": kind, "values": vals.tolist()}
                       for name, (kind, vals) in sorted(cert.blocks.items())},
        }
    return emit(args, doc, lambda d: [
        f"{d['norm']}-gain bound gamma = {d['gamma']:.6f} (scaling {d['scaling']}, "
        f"b={d['product_degree']}, {d['form']} form, "
        f"LP {d['lp_vars']} vars x {d['lp_rows']} rows)",
        _grid_line(d), f"eps policy: {d['epsilon']:g} (bound is biased upward)"])


def cmd_robust_synth(args):
    psys, policy = robust_input(args)
    spec = load_spec(args.zeros, args.bounds)
    template = parse_scaling(args.scaling)
    rlp = robust.robust_stabilize(psys, template, spec, policy)
    res = robust.solve_robust(rlp, b=args.degree, form=args.form)
    maybe_dump(args, res.lp)
    verdict = robust.grid_certify_synthesis(psys, res.K, res.gamma, args.grid)
    doc = {
        "status": "optimal", "gamma": res.gamma, "epsilon": res.epsilon,
        "product_degree": res.b, "form": res.form, "K": res.K.tolist(),
        "lp_vars": res.lp.num_vars, "lp_rows": res.lp.num_rows,
        "witness_lambda": res.lam.tolist(),
        "grid_verdict": verdict.ok, "grid_max_oracle": verdict.max_oracle,
        "conservatism_note": ROBUST_NOTE,
    }
    return emit(args, doc, lambda d: [
        f"robust gamma = {d['gamma']:.10g}", "K =", _array(d["K"]),
        f"grid check: {'ok' if d['grid_verdict'] else 'REFUTED: ' + str(verdict.failure)}"])


# ---------------------------------------------------------------------------
# bundled reproductions

def cmd_reproduce(args):
    for key in ("epsilon", "lambda_floor"):
        if args.case in ("table2", "ex72") and getattr(args, key) is not None:
            raise ValidationError(f"reproduce {args.case} does not read "
                                  f"--{key.replace('_', '-')}")
    return REPRODUCE[args.case](args, policy_from(args))


def _reproduce_drug(args, policy):
    rng = np.random.Generator(np.random.PCG64(DRUG_SEED + args.seed))
    rows = []
    for _ in range(5):
        a11, a12, a21 = rng.uniform(0.1, 10.0, 3)
        k1, k2 = rng.uniform(0.1, 10.0, 2)
        tight = StrictnessPolicy(epsilon=1e-9, lambda_floor=1e-9)
        got_l1 = gains.l1_gain(drug_system(a11, a12, a21, np.diag([k1, k2])), tight).gamma
        got_linf = gains.linf_gain(drug_system(a11, a12, a21, np.diag([k1, k2])), tight).gamma
        ref_l1, ref_linf = drug_gain_formulas(a11, a12, a21, k1, k2)
        rows.append({"a11": a11, "a12": a12, "a21": a21, "k1": k1, "k2": k2,
                     "l1_lp": got_l1, "l1_formula": ref_l1,
                     "linf_lp": got_linf, "linf_formula": ref_linf})
    doc = {"status": "ok", "case": "table2", "epsilon": 1e-9, "rows": rows}
    return emit(args, doc, lambda d: [
        "drug distribution model: LP vs closed-form gains",
        f"{'a11':>8} {'a12':>8} {'a21':>8} {'L1 (LP)':>12} {'L1 (formula)':>12} "
        f"{'Linf (LP)':>12} {'Linf (formula)':>12}",
        *(f"{r['a11']:8.3f} {r['a12']:8.3f} {r['a21']:8.3f} "
          f"{r['l1_lp']:12.6f} {r['l1_formula']:12.6f} "
          f"{r['linf_lp']:12.6f} {r['linf_formula']:12.6f}" for r in d["rows"])])


def _reproduce_gene(args, policy):
    rows = []
    for big_n, reference in GENE_TABLE:
        res = robust.vertex_gain(gene_expression_system(big_n), "linf", policy)
        rows.append({"N": big_n, "linf_gain": res.gamma, "reference": reference})
    doc = {"status": "ok", "case": "table3", "epsilon": policy.epsilon, "rows": rows}
    return emit(args, doc, lambda d: [
        "gene expression model: vertex Linf-gains",
        f"{'N':>5} {'computed':>12} {'reference':>12}",
        *(f"{r['N']:5.1f} {r['linf_gain']:12.4f} {r['reference']:12.4f}" for r in d["rows"])])


def _reproduce_poly3(args, policy):
    which = "l1" if args.case == "table4" else "linf"
    psys = poly3_system()
    res_const = robust.solve_robust(robust.robust_gain(psys, which, ilc.FreeConstant(), policy))
    res_sat = robust.solve_robust(robust.robust_gain(psys, which, ilc.FreePolynomial(2), policy),
                                  b=2)
    sweep = robust.grid_certify_gain(psys, res_sat.gamma, which, 1001).max_oracle
    rows = [
        {"scaling": "constant", "gamma": res_const.gamma,
         "reference": POLY3_REFERENCE[(which, "const")]},
        {"scaling": "saturated degree 2", "gamma": res_sat.gamma,
         "reference": POLY3_REFERENCE[(which, "saturated2")]},
        {"scaling": "frozen-delta sweep (step 0.001)", "gamma": sweep,
         "reference": POLY3_REFERENCE[(which, "exact")]},
    ]
    doc = {"status": "ok", "case": args.case, "norm": which, "epsilon": policy.epsilon,
           "rows": rows}
    return emit(args, doc, lambda d: [
        f"polynomial uncertainty benchmark, {d['norm']}-gain",
        f"{'scaling':<34} {'computed':>10} {'reference':>10}",
        *(f"{r['scaling']:<34} {r['gamma']:10.4f} {r['reference']:10.4f}" for r in d["rows"])])


def _reproduce_interval_products(args, policy):
    basis = handelman.HandelmanBasis.from_box(BoxDomain.symmetric(1), 2)
    ups = handelman.build_upsilon(basis)
    order = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    table = {}
    for mono, chi in (((2,), "chi2"), ((1,), "chi1"), ((0,), "chi0")):
        table[chi] = [int(ups.matrix[ups.row_of(mono), ups.column_of(e)])
                      for e in order]
    doc = {"status": "ok", "case": "ex72", "products": ["g1", "g2", "g1*g2", "g1^2", "g2^2"],
           "coefficients": table}
    return emit(args, doc, lambda d: [
        "quadratic products on [-1, 1]: coefficient map",
        "p = t1*g1 + t2*g2 + t3*g1*g2 + t4*g1^2 + t5*g2^2, g1 = x+1, g2 = 1-x",
        f"{'':>6}" + "".join(f"{l:>8}" for l in d["products"]),
        *(f"{chi:>6}" + "".join(f"{v:>8}" for v in d["coefficients"][chi])
          for chi in ("chi2", "chi1", "chi0"))])


def _reproduce_delay(args, policy):
    rng = np.random.Generator(np.random.PCG64(911 + args.seed))
    rows = []
    agree = 0
    for trial in range(20):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0, 1, (n, n))
        np.fill_diagonal(a, 0.0)
        ah = rng.uniform(0, 1, (n, n)) * rng.uniform(0.1, 0.8)
        margin = rng.uniform(0.05, 0.9, n)
        if trial % 2 == 0:
            np.fill_diagonal(a, -(a.sum(axis=1) + ah.sum(axis=1) + margin))
        else:
            np.fill_diagonal(a, -(a.sum(axis=1) + ah.sum(axis=1)) + margin)
        verdict = robust.exact_constant_delta(lft.delay_lft(a, ah), np.eye(n),
                                              policy).feasible
        direct = sysmodel.metzler_stable(a + ah, policy)
        agree += verdict == direct
        rows.append({"n": n, "ilc_verdict": verdict, "direct_verdict": direct})
    doc = {"status": "ok", "case": "delay", "agreement": f"{agree}/20",
           "epsilon": policy.epsilon, "rows": rows}
    return emit(args, doc, lambda d: [
        "constant-delay stability: saturated-ILC LP vs direct lambda^T (A + A_h) < 0 test",
        f"verdict agreement: {d['agreement']}"])


# case -> runner, in the order `reproduce --help` lists them
REPRODUCE = {"table2": _reproduce_drug, "table3": _reproduce_gene, "table4": _reproduce_poly3,
             "table5": _reproduce_poly3, "ex72": _reproduce_interval_products,
             "delay": _reproduce_delay}

HANDLERS = {"check": cmd_check, "gain": cmd_gain, "synth": cmd_synth,
            "robust-gain": cmd_robust_gain, "robust-synth": cmd_robust_synth,
            "reproduce": cmd_reproduce}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except InfeasibleError as err:
        maybe_dump(args, err.lp)
        print(f"infeasible: {err}", file=sys.stderr)
        return 1
    except (PoslpError, OSError, json.JSONDecodeError) as err:   # or an unreadable input file
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
