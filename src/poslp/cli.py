"""Batch command-line front end.

Subcommands: check, gain, synth, robust-gain, robust-synth, reproduce.
Structured reports are canonical JSON (sorted keys, no timestamps), so
identical inputs and seed produce byte-identical output.
"""

import argparse
import json
import sys

import numpy as np

from . import gains, handelman, ilc, lft, robust, synthesis, sysmodel
from .cases import (DRUG_SEED, GENE_TABLE, POLY3_REFERENCE, drug_gain_formulas,
                    drug_system, gene_expression_system, poly3_system)
from .errors import (InfeasibleError, PoslpError, StabilityError, ValidationError,
                     require_keys)
from .lpcore import StrictnessPolicy, lp_to_text
from .poly import read_polynomial_system
from .synthesis import ControllerSpec


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poslp",
        description="L1/Linf gains, stabilization and robustness certification "
                    "of linear positive systems by linear programming")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--epsilon", type=float, default=1e-7,
                        help="margin closing strict inequalities (default 1e-7)")
    common.add_argument("--lambda-floor", type=float, default=1e-6,
                        help="lower bound standing in for lambda > 0 (default 1e-6)")
    common.add_argument("--grid", type=int, default=101,
                        help="grid points per parameter for certification sweeps")
    common.add_argument("--seed", type=int, default=0, help="seed for seeded runs")
    common.add_argument("--dump-lp", metavar="PATH",
                        help="write the solved LP in the text interchange format")
    common.add_argument("--format", choices=("text", "structured"), default="text",
                        help="human table or machine-readable JSON report")
    common.add_argument("--tol", type=float, default=0.0,
                        help="structural tolerance for positivity classification")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="positivity and stability report for a system file")
    p.add_argument("system")

    p = sub.add_parser("gain", parents=[common], help="compute an induced gain")
    p.add_argument("system")
    p.add_argument("--norm", choices=("l1", "linf"), required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="state-feedback synthesis with Linf bound")
    p.add_argument("system")
    p.add_argument("--norm", choices=("linf",), default="linf")
    p.add_argument("--zeros", metavar="FILE",
                   help="JSON file with a zero_pattern index list")
    p.add_argument("--bounds", metavar="FILE",
                   help="JSON file with K_lower / K_upper matrices")

    p = sub.add_parser("robust-gain", parents=[common],
                       help="robust gain of a polynomially-uncertain system")
    p.add_argument("system", help="polynomial system file")
    p.add_argument("--norm", choices=("l1", "linf"), required=True)
    p.add_argument("--scaling", default="saturated",
                   help="const | poly:<d> | saturated[:<d>] (default saturated:2)")
    p.add_argument("--degree", type=int, default=None,
                   help="Handelman product degree b (default: row degree + 2)")
    p.add_argument("--form", choices=("reduced", "full"), default="reduced")
    p.add_argument("--vertices", action="store_true",
                   help="use vertex enumeration (affine dependence only)")

    p = sub.add_parser("robust-synth", parents=[common],
                       help="robust state-feedback synthesis (Linf)")
    p.add_argument("system", help="polynomial system file")
    p.add_argument("--scaling", default="saturated")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--form", choices=("reduced", "full"), default="reduced")
    p.add_argument("--zeros", metavar="FILE")
    p.add_argument("--bounds", metavar="FILE")

    p = sub.add_parser("reproduce", parents=[common],
                       help="re-run a bundled benchmark case")
    p.add_argument("case", choices=("table2", "table3", "table4", "table5",
                                    "ex72", "delay"))
    return parser


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


def load_spec(zeros_path, bounds_path):
    pattern = ()
    lo = up = None
    if zeros_path:
        with open(zeros_path) as fh:
            doc = json.load(fh)
        require_keys(doc, f"zeros file {zeros_path}", "zero_pattern")
        pattern = tuple((int(i), int(j)) for i, j in doc["zero_pattern"])
    if bounds_path:
        with open(bounds_path) as fh:
            doc = json.load(fh)
        require_keys(doc, f"bounds file {bounds_path}", "K_lower", "K_upper")
        lo = np.asarray(doc["K_lower"], dtype=float)
        up = np.asarray(doc["K_upper"], dtype=float)
    return ControllerSpec(zero_pattern=pattern, k_lower=lo, k_upper=up)


def policy_from(args):
    return StrictnessPolicy(epsilon=args.epsilon, lambda_floor=args.lambda_floor)


def emit(args, report, text_lines):
    if args.format == "structured":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)
    return 0


def maybe_dump(args, lp):
    if args.dump_lp:
        with open(args.dump_lp, "w") as fh:
            fh.write(lp_to_text(lp))


def cmd_check(args):
    sys_in = sysmodel.read_system(args.system)
    report = sysmodel.classify(sys_in, tol=args.tol)
    stable = None
    if sys_in.metzler_A:
        stable = sysmodel.is_stable(sys_in, policy_from(args))
    doc = {
        "status": "ok",
        "is_positive": report.is_positive,
        "violations": [{"matrix": m, "index": list(idx), "value": v}
                       for m, idx, v in report.violations],
        "is_stable": stable,
        "epsilon": args.epsilon,
    }
    lines = [f"positive: {report.is_positive}"]
    for m, idx, v in report.violations:
        lines.append(f"  violation: {m}{idx} = {v}")
    lines.append(f"stable:   {stable}")
    return emit(args, doc, lines)


def cmd_gain(args):
    sys_in = sysmodel.read_system(args.system)
    policy = policy_from(args)
    build, solve = ((gains.l1_lp, gains.l1_gain) if args.norm == "l1"
                    else (gains.linf_lp, gains.linf_gain))
    lp = build(sys_in, policy)
    maybe_dump(args, lp)
    res = solve(sys_in, policy, lp=lp)
    doc = {
        "status": "optimal",
        "norm": args.norm,
        "gamma": res.gamma,
        "oracle_gain": res.oracle,
        "epsilon": res.epsilon,
        "witness_lambda": res.lam.tolist(),
    }
    oracle = "n/a" if res.oracle is None else f"{res.oracle:.10g}"
    lines = [f"{args.norm}-gain gamma = {res.gamma:.10g} "
             f"(oracle {oracle}, eps bias {res.epsilon:g})",
             f"witness lambda = {np.array2string(res.lam, precision=6)}"]
    return emit(args, doc, lines)


def cmd_synth(args):
    sys_in = sysmodel.read_system(args.system)
    policy = policy_from(args)
    spec = load_spec(args.zeros, args.bounds)
    lp = synthesis.synthesis_lp(sys_in, spec, policy)
    maybe_dump(args, lp)
    res = synthesis.stabilize_linf(sys_in, spec, policy, lp=lp)
    cl = synthesis.closed_loop(sys_in, res.K)
    cl_gain = sysmodel.oracle_gains(cl, policy, tol=1e-9)[1]
    doc = {
        "status": "optimal",
        "gamma": res.gamma,
        "epsilon": policy.epsilon,
        "K": res.K.tolist(),
        "witness_lambda": res.lam.tolist(),
        "closed_loop_linf_oracle": cl_gain,
    }
    lines = [f"gamma = {res.gamma:.10g} (closed-loop oracle {cl_gain:.10g})",
             "K =",
             np.array2string(res.K, precision=6)]
    return emit(args, doc, lines)


def cmd_robust_gain(args):
    psys = read_polynomial_system(args.system)
    policy = policy_from(args)
    if args.vertices:
        res = robust.vertex_gain(psys, args.norm, policy)
        verdict = robust.grid_certify_gain(psys, res.gamma, args.norm, args.grid, policy)
        doc = {
            "status": "optimal", "method": "vertices", "norm": args.norm,
            "gamma": res.gamma, "epsilon": res.epsilon,
            "witness_lambda": res.lam.tolist(),
            "grid_verdict": verdict.ok, "grid_max_oracle": verdict.max_oracle,
            "conservatism_note": "vertex method is exact for affine dependence "
                                 "up to the shared Lyapunov vector",
        }
        lines = [f"{args.norm}-gain (vertex method) gamma = {res.gamma:.6f} "
                 f"over {res.vertices} vertices",
                 f"grid check: max frozen-delta oracle {verdict.max_oracle:.6f} "
                 f"-> {'ok' if verdict.ok else 'REFUTED'}"]
        return emit(args, doc, lines)
    template = parse_scaling(args.scaling)
    if args.norm == "l1":
        rlp = robust.robust_l1(lft.lft_from_polynomial(psys), template, policy)
    else:
        rlp = robust.robust_linf(lft.transpose_lft(psys), template, policy)
    res = robust.solve_robust(rlp, b=args.degree, form=args.form)
    maybe_dump(args, res.lp)
    verdict = robust.grid_certify_gain(psys, res.gamma, args.norm, args.grid, policy)
    doc = {
        "status": res.status, "method": "lft-ilc", "norm": args.norm,
        "scaling": args.scaling, "gamma": res.gamma, "epsilon": res.epsilon,
        "product_degree": res.b, "form": res.form,
        "lp_vars": res.lp_vars, "lp_rows": res.lp_rows,
        "witness_lambda": res.lam.tolist(),
        "grid_verdict": verdict.ok, "grid_max_oracle": verdict.max_oracle,
        "conservatism_note": "certified upper bound; sufficiency only for "
                             "parameter-independent Lyapunov vectors",
    }
    if res.certificate is not None:
        cert = res.certificate
        doc["certificate"] = {
            "products": [list(e) for e in cert.products],
            "upsilon_shape": list(cert.upsilon_shape),
            "eliminated_columns": ([list(e) for e in cert.eliminated_columns]
                                   if cert.eliminated_columns else None),
            "blocks": {name: {"kind": kind, "values": vals.tolist()}
                       for name, (kind, vals) in sorted(cert.blocks.items())},
        }
    lines = [f"{args.norm}-gain bound gamma = {res.gamma:.6f} "
             f"(scaling {args.scaling}, b={res.b}, {res.form} form, "
             f"LP {res.lp_vars} vars x {res.lp_rows} rows)",
             f"grid check: max frozen-delta oracle {verdict.max_oracle:.6f} "
             f"-> {'ok' if verdict.ok else 'REFUTED'}",
             f"eps policy: {res.epsilon:g} (bound is biased upward)"]
    return emit(args, doc, lines)


def cmd_robust_synth(args):
    psys = read_polynomial_system(args.system)
    policy = policy_from(args)
    spec = load_spec(args.zeros, args.bounds)
    template = parse_scaling(args.scaling)
    rlp = robust.robust_stabilize(psys, template, spec, policy)
    res = robust.solve_robust_synthesis(rlp, b=args.degree, form=args.form)
    maybe_dump(args, res.lp)
    verdict = robust.grid_certify_synthesis(psys, res.K, res.gamma, args.grid, policy)
    doc = {
        "status": res.status, "gamma": res.gamma, "epsilon": res.epsilon,
        "product_degree": res.b, "form": res.form, "K": res.K.tolist(),
        "lp_vars": res.lp_vars, "lp_rows": res.lp_rows,
        "witness_lambda": res.lam.tolist(),
        "grid_verdict": verdict.ok,
        "grid_max_oracle": verdict.max_oracle,
        "conservatism_note": "certified upper bound; sufficiency only for "
                             "parameter-independent Lyapunov vectors",
    }
    lines = [f"robust gamma = {res.gamma:.10g}", "K =",
             np.array2string(res.K, precision=6),
             f"grid check: {'ok' if verdict.ok else 'REFUTED: ' + str(verdict.failure)}"]
    return emit(args, doc, lines)


# ---------------------------------------------------------------------------
# bundled reproductions

def cmd_reproduce(args):
    policy = policy_from(args)
    case = args.case
    if case == "table2":
        return _reproduce_drug(args, policy)
    if case == "table3":
        return _reproduce_gene(args, policy)
    if case in ("table4", "table5"):
        return _reproduce_poly3(args, policy, "l1" if case == "table4" else "linf")
    if case == "ex72":
        return _reproduce_interval_products(args)
    if case == "delay":
        return _reproduce_delay(args, policy)
    raise AssertionError(case)


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
    lines = ["drug distribution model: LP vs closed-form gains",
             f"{'a11':>8} {'a12':>8} {'a21':>8} {'L1 (LP)':>12} {'L1 (formula)':>12} "
             f"{'Linf (LP)':>12} {'Linf (formula)':>12}"]
    for r in rows:
        lines.append(f"{r['a11']:8.3f} {r['a12']:8.3f} {r['a21']:8.3f} "
                     f"{r['l1_lp']:12.6f} {r['l1_formula']:12.6f} "
                     f"{r['linf_lp']:12.6f} {r['linf_formula']:12.6f}")
    return emit(args, doc, lines)


def _reproduce_gene(args, policy):
    rows = []
    for big_n, reference in GENE_TABLE:
        res = robust.vertex_gain(gene_expression_system(big_n), "linf", policy)
        rows.append({"N": big_n, "linf_gain": res.gamma, "reference": reference})
    doc = {"status": "ok", "case": "table3", "epsilon": policy.epsilon, "rows": rows}
    lines = ["gene expression model: vertex Linf-gains",
             f"{'N':>5} {'computed':>12} {'reference':>12}"]
    for r in rows:
        lines.append(f"{r['N']:5.1f} {r['linf_gain']:12.4f} {r['reference']:12.4f}")
    return emit(args, doc, lines)


def _reproduce_poly3(args, policy, which):
    psys = poly3_system()
    obj = lft.lft_from_polynomial(psys) if which == "l1" else lft.transpose_lft(psys)
    assemble = robust.robust_l1 if which == "l1" else robust.robust_linf
    res_const = robust.solve_robust(assemble(obj, ilc.FreeConstant(), policy))
    res_sat = robust.solve_robust(assemble(obj, ilc.FreePolynomial(2), policy), b=2)
    a, _, c, _, e, f = psys.frozen_stack(np.arange(0.0, 1.0005, 0.001)[:, None])
    norms = sysmodel.gain_norms(sysmodel.static_gains(a, c, e, f))
    sweep = float(np.max(norms[0 if which == "l1" else 1]))
    rows = [
        {"scaling": "constant", "gamma": res_const.gamma,
         "reference": POLY3_REFERENCE[(which, "const")]},
        {"scaling": "saturated degree 2", "gamma": res_sat.gamma,
         "reference": POLY3_REFERENCE[(which, "saturated2")]},
        {"scaling": "frozen-delta sweep (step 0.001)", "gamma": sweep,
         "reference": POLY3_REFERENCE[(which, "exact")]},
    ]
    doc = {"status": "ok", "case": "table4" if which == "l1" else "table5",
           "norm": which, "epsilon": policy.epsilon, "rows": rows}
    lines = [f"polynomial uncertainty benchmark, {which}-gain",
             f"{'scaling':<34} {'computed':>10} {'reference':>10}"]
    for r in rows:
        lines.append(f"{r['scaling']:<34} {r['gamma']:10.4f} {r['reference']:10.4f}")
    return emit(args, doc, lines)


def _reproduce_interval_products(args):
    from .poly import BoxDomain
    basis = handelman.HandelmanBasis.from_box(BoxDomain.symmetric(1), 2)
    ups = handelman.build_upsilon(basis)
    order = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    labels = ["g1", "g2", "g1*g2", "g1^2", "g2^2"]
    table = {}
    for mono, chi in (((2,), "chi2"), ((1,), "chi1"), ((0,), "chi0")):
        table[chi] = [int(ups.matrix[ups.row_of(mono), ups.column_of(e)])
                      for e in order]
    doc = {"status": "ok", "case": "ex72", "products": labels, "coefficients": table}
    lines = ["quadratic products on [-1, 1]: coefficient map",
             "p = t1*g1 + t2*g2 + t3*g1*g2 + t4*g1^2 + t5*g2^2, g1 = x+1, g2 = 1-x",
             f"{'':>6}" + "".join(f"{l:>8}" for l in labels)]
    for chi in ("chi2", "chi1", "chi0"):
        lines.append(f"{chi:>6}" + "".join(f"{v:>8}" for v in table[chi]))
    return emit(args, doc, lines)


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
    lines = ["constant-delay stability: saturated-ILC LP vs direct "
             "lambda^T (A + A_h) < 0 test",
             f"verdict agreement: {agree}/20"]
    return emit(args, doc, lines)


HANDLERS = {
    "check": cmd_check,
    "gain": cmd_gain,
    "synth": cmd_synth,
    "robust-gain": cmd_robust_gain,
    "robust-synth": cmd_robust_synth,
    "reproduce": cmd_reproduce,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except (InfeasibleError, StabilityError) as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 1
    except (PoslpError, OSError, json.JSONDecodeError) as err:   # or an unreadable input file
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
