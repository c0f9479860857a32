import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poslp
from poslp import cli, gains, robust, synthesis, sysmodel
from poslp.cases import gene_expression_system, poly3_system
from poslp.errors import PoslpError
from poslp.lpcore import lp_to_text
from poslp.poly import BoxDomain, polynomial_system, read_polynomial_system, write_polynomial_system
from poslp.synthesis import ControllerSpec
from poslp.sysmodel import write_system
from test_golden import uncertain_input_plant


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "sys.json"
    write_system(sysmodel.random_positive_system(4, 2, 2, 2, seed=50), path)
    return str(path)


@pytest.fixture
def poly_file(tmp_path):
    path = tmp_path / "poly.json"
    write_polynomial_system(poly3_system(), path)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check(capsys, system_file):
    code, out = run(capsys, "check", system_file)
    assert code == 0
    assert "positive: True" in out
    assert "stable:   True" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1e-3"])
def test_check_takes_only_a_finite_nonnegative_tolerance(capsys, tmp_path, tol):
    path = tmp_path / "nonpositive.json"
    write_system(sysmodel.PositiveLtiSystem(
        A=[[-1.0, -0.5], [0.2, -1.0]], B=None, C=[[1.0, 0.2]], D=None,
        E=[[1.0], [0.2]], F=[[-3.0]]), path)
    code = cli.main(["check", str(path), "--tol", tol, "--format", "structured"])
    captured = capsys.readouterr()
    if tol in ("nan", "inf", "-1"):
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: --tol must be finite and at least 0, got {float(tol)}\n"
        return
    doc = json.loads(captured.out)
    assert code == 0 and doc["is_positive"] is False
    assert [(v["matrix"], v["index"], v["value"]) for v in doc["violations"]] == [
        ("A", [0, 1], -0.5), ("F", [0, 0], -3.0)]


def test_gain_text_and_structured(capsys, system_file):
    code, out = run(capsys, "gain", "--norm", "l1", system_file)
    assert code == 0 and "l1-gain gamma" in out
    code, out = run(capsys, "gain", "--norm", "l1", "--format", "structured",
                    system_file)
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert set(doc) >= {"gamma", "epsilon", "witness_lambda", "norm"}


def test_structured_reports_are_deterministic(capsys, system_file):
    _, out1 = run(capsys, "gain", "--norm", "linf", "--format", "structured",
                  system_file)
    _, out2 = run(capsys, "gain", "--norm", "linf", "--format", "structured",
                  system_file)
    assert out1 == out2


def test_gain_siso_l1_equals_linf(capsys, tmp_path):
    path = tmp_path / "siso.json"
    write_system(sysmodel.random_positive_system(3, 0, 1, 1, seed=51), path)
    _, out1 = run(capsys, "gain", "--norm", "l1", "--format", "structured", str(path))
    _, out2 = run(capsys, "gain", "--norm", "linf", "--format", "structured", str(path))
    g1 = json.loads(out1)["gamma"]
    g2 = json.loads(out2)["gamma"]
    assert g1 == pytest.approx(g2, rel=1e-6)


def test_gain_unstable_exit_code(capsys, tmp_path):
    path = tmp_path / "unstable.json"
    write_system(sysmodel.PositiveLtiSystem(
        A=[[0.2]], B=None, C=[[1.0]], D=None, E=[[1.0]], F=[[0.0]]), path)
    code = cli.main(["gain", "--norm", "l1", str(path)])
    assert code == 1


def one_state_poly(tmp_path, a_terms):
    path = tmp_path / "one_state_poly.json"
    write_polynomial_system(polynomial_system(
        a_terms=a_terms, c_terms={0: [[1.0]]}, e_terms={0: [[1.0]]}, f_terms={0: [[0.0]]},
        domain=BoxDomain.unit(1)), path)
    return str(path)


@pytest.mark.parametrize("degree", [[], ["--degree", "9"]])
def test_failed_program_blames_the_relaxation_only_when_one_ran(capsys, tmp_path, degree):
    hint = "a larger product degree b or richer scalings may help"
    for a_terms, relaxed in (({0: [[0.1]]}, False), ({0: [[0.1]], 1: [[0.1]]}, True)):
        path = one_state_poly(tmp_path, a_terms)
        assert cli.main(["robust-gain", "--norm", "l1", path, *degree]) == 1
        err = capsys.readouterr().err
        assert err.startswith("infeasible: robust program infeasible")
        assert (hint in err) == relaxed


UNSTABLE = sysmodel.PositiveLtiSystem(A=[[0.1]], B=None, C=[[1.0]], D=None,
                                      E=[[1.0]], F=[[0.0]])
# no controller with 0 <= K <= 0 makes this loop positive and stable
UNCONTROLLABLE = sysmodel.PositiveLtiSystem(
    A=[[-1.0, -0.5], [-0.4, -1.0]], B=[[1.0], [0.0]], C=[[1.0, 0.0]], D=[[0.0]],
    E=np.eye(2), F=np.zeros((1, 2)))
NOT_POSITIVE = sysmodel.PositiveLtiSystem(A=[[-1.0, -0.2], [0.1, -1.0]], B=None,
                                          C=np.eye(2), D=None, E=np.eye(2), F=np.zeros((2, 2)))


def _refuted_lp(call):
    with pytest.raises(PoslpError) as err:
        call()
    return getattr(err.value, "lp", None)


@pytest.mark.parametrize("row", ["unstable gain", "infeasible bounded synth",
                                 "infeasible robust-gain", "non-positive gain"])
def test_dump_lp_writes_the_lp_a_verdict_refuted(capsys, tmp_path, row):
    dump, sys_path = tmp_path / "refuted.lp", tmp_path / "sys.json"
    if row == "unstable gain":
        write_system(UNSTABLE, sys_path)
        argv, prefix = ["gain", "--norm", "l1", str(sys_path)], "infeasible:"
        lp = _refuted_lp(lambda: gains.gain(UNSTABLE, "l1"))
    elif row == "infeasible bounded synth":
        write_system(UNCONTROLLABLE, sys_path)
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps({"K_lower": [[0.0, 0.0]], "K_upper": [[0.0, 0.0]]}))
        argv, prefix = ["synth", str(sys_path), "--bounds", str(bounds)], "infeasible:"
        spec = ControllerSpec(k_lower=np.zeros((1, 2)), k_upper=np.zeros((1, 2)))
        lp = _refuted_lp(lambda: synthesis.stabilize_linf(UNCONTROLLABLE, spec))
    elif row == "infeasible robust-gain":
        path = one_state_poly(tmp_path, {0: [[0.1]]})
        argv, prefix = ["robust-gain", "--norm", "l1", path], "infeasible:"
        psys = read_polynomial_system(path)
        lp = _refuted_lp(lambda: robust.solve_robust(robust.robust_gain(
            psys, "l1", cli.parse_scaling("saturated"))))
    else:
        write_system(NOT_POSITIVE, sys_path)
        argv, prefix = ["gain", "--norm", "l1", str(sys_path)], "error:"
        lp = _refuted_lp(lambda: gains.gain(NOT_POSITIVE, "l1"))
    assert cli.main([*argv, "--dump-lp", str(dump)]) == 1
    assert capsys.readouterr().err.startswith(prefix)
    assert dump.exists() == (lp is not None) == (row != "non-positive gain")
    if lp is not None:
        assert dump.read_text() == lp_to_text(lp)


def test_vertex_program_without_a_shared_lyapunov_vector_is_infeasible(capsys, tmp_path):
    # both vertices are positive and Hurwitz, but lambda_0 > 10 lambda_1 at delta = 0
    # and lambda_1 > 10 lambda_0 at delta = 1
    path, dump = tmp_path / "switch.json", tmp_path / "vertices.lp"
    write_polynomial_system(polynomial_system(
        a_terms={0: [[-1.0, 0.0], [10.0, -1.0]], 1: [[0.0, 10.0], [-10.0, 0.0]]},
        c_terms={0: [[1.0, 1.0]]}, e_terms={0: [[1.0], [1.0]]}, f_terms={0: [[0.0]]},
        domain=BoxDomain.unit(1)), path)
    with pytest.raises(PoslpError) as err:
        robust.vertex_gain(read_polynomial_system(path), "l1")
    assert cli.main(["robust-gain", "--norm", "l1", "--vertices", str(path),
                     "--dump-lp", str(dump)]) == 1
    assert capsys.readouterr().err == "infeasible: vertex program infeasible\n"
    assert dump.read_text() == lp_to_text(err.value.lp)


@pytest.mark.parametrize("argv", [("--norm", "l1", "--scaling", "const"), ("--norm", "linf")])
def test_closed_loop_refusal_names_delta_on_the_systems_box(capsys, tmp_path, argv):
    # A[0, 1] = 0.5 - delta turns negative at delta = 0.6 of the box [0, 2], a
    # point of the sample of that box; both norms name the user's A[0, 1]
    path = tmp_path / "box02.json"
    write_polynomial_system(polynomial_system(
        a_terms={0: [[-2.0, 0.5], [0.3, -1.5]], 1: [[0.0, -1.0], [0.0, 0.2]]},
        c_terms={0: [[1.0, 1.0]]}, e_terms={0: [[1.0], [1.0]]}, f_terms={0: [[0.0]]},
        domain=BoxDomain([0.0], [2.0])), path)
    errs = []
    for run_argv in (("--norm", "l1", "--scaling", "const"), argv):
        assert cli.main(["robust-gain", *run_argv, str(path)]) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0].startswith("error: closed loop is not positive at delta=[0.6]: ")
    assert errs[1] == errs[0]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gain", "--norm", "l7", "nowhere.json"])
    assert exc.value.code == 2


def test_dump_lp(capsys, system_file, tmp_path):
    dump = tmp_path / "lp.txt"
    code, _ = run(capsys, "gain", "--norm", "l1", "--dump-lp", str(dump),
                  system_file)
    assert code == 0
    text = dump.read_text()
    assert text.startswith("vars ")
    assert "minimize" in text


def test_synth_with_spec_files(capsys, tmp_path, system_file):
    zeros = tmp_path / "zeros.json"
    zeros.write_text(json.dumps({"zero_pattern": [[0, 1]]}))
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps({
        "K_lower": (-np.ones((2, 4))).tolist(),
        "K_upper": np.ones((2, 4)).tolist()}))
    code, out = run(capsys, "synth", system_file, "--zeros", str(zeros),
                    "--bounds", str(bounds), "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    k = np.asarray(doc["K"])
    assert k[0, 1] == 0.0
    assert np.all(k >= -1 - 1e-9) and np.all(k <= 1 + 1e-9)
    assert doc["closed_loop_linf_oracle"] <= doc["gamma"] * (1 + 1e-6) + 1e-6


def test_robust_gain_lft(capsys, poly_file):
    code, out = run(capsys, "robust-gain", "--norm", "l1", "--scaling",
                    "saturated:2", "--degree", "2", "--format", "structured",
                    poly_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == pytest.approx(94.167, rel=5e-3)
    assert doc["grid_verdict"] is True
    assert "conservatism_note" in doc


def test_robust_gain_vertices(capsys, tmp_path):
    from poslp.cases import gene_expression_system
    path = tmp_path / "gene.json"
    write_polynomial_system(gene_expression_system(0.5), path)
    code, out = run(capsys, "robust-gain", "--norm", "linf", "--vertices",
                    "--format", "structured", str(path))
    assert code == 0
    assert json.loads(out)["gamma"] == pytest.approx(12.0003, rel=1e-3)


@pytest.mark.parametrize("flags, name", [
    pytest.param(["--degree", "7", "--form", "full", "--scaling", "poly:3"], "degree", id="all"),
    pytest.param(["--degree", "2"], "degree", id="degree"),
    pytest.param(["--form", "reduced"], "form", id="form"),
    pytest.param(["--scaling", "saturated"], "scaling", id="scaling"),
    pytest.param(["--scaling", "bogus"], "scaling", id="bogus-scaling"),
])
def test_robust_gain_vertices_refuses_relaxation_flags(capsys, tmp_path, flags, name):
    # the vertex program has no scaling, product degree or relaxation form to set,
    # so a flag for one is refused, not ignored (a default value given is a flag too)
    from poslp.cases import gene_expression_system
    path = tmp_path / "gene.json"
    write_polynomial_system(gene_expression_system(0.5), path)
    assert cli.main(["robust-gain", "--norm", "linf", "--vertices", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", f"error: robust-gain --vertices does not read --{name}\n")


def test_robust_gain_relaxation_defaults_to_saturated_and_reduced(capsys, poly_file):
    argv = ["robust-gain", "--norm", "l1", poly_file, "--grid", "5", "--format", "structured"]
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["scaling"] == "saturated"
    assert (code, out) == run(capsys, *argv, "--scaling", "saturated", "--form", "reduced")


def test_robust_synth_cli(capsys, tmp_path):
    from poslp.poly import BoxDomain, polynomial_system
    psys = polynomial_system(
        a_terms={0: [[1.0]], 1: [[1.0]]}, b_terms={0: [[1.0]]},
        c_terms={0: [[1.0]]}, d_terms={0: [[0.0]]}, e_terms={0: [[1.0]]},
        f_terms={0: [[0.0]]}, domain=BoxDomain.unit(1))
    path = tmp_path / "swp.json"
    write_polynomial_system(psys, path)
    code, out = run(capsys, "robust-synth", "--format", "structured", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["grid_verdict"] is True
    assert doc["K"][0][0] < -2.0


@pytest.mark.parametrize("case", ["table2", "table3", "ex72", "delay"])
def test_reproduce_cases_run(capsys, case):
    code, out = run(capsys, "reproduce", case)
    assert code == 0
    assert out.strip()


def test_reproduce_table3_structured_matches_references(capsys):
    code, out = run(capsys, "reproduce", "table3", "--format", "structured")
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert row["linf_gain"] == pytest.approx(row["reference"], rel=1e-3)


def test_reproduce_ex72_coefficients(capsys):
    code, out = run(capsys, "reproduce", "ex72", "--format", "structured")
    doc = json.loads(out)
    assert doc["coefficients"]["chi2"] == [0, 0, -1, 1, 1]
    assert doc["coefficients"]["chi1"] == [1, -1, 0, 2, -2]
    assert doc["coefficients"]["chi0"] == [1, 1, 1, 1, 1]


def test_reproduce_delay_agreement(capsys):
    code, out = run(capsys, "reproduce", "delay", "--format", "structured")
    assert json.loads(out)["agreement"] == "20/20"


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_gain_reports_refused_oracle(capsys, tmp_path, fmt):
    # stable, but too ill-conditioned for the static-gain oracle to invert
    path = tmp_path / "ill.json"
    write_system(sysmodel.PositiveLtiSystem(
        A=np.diag([-1e7, -1e-6]), B=None, C=[[1.0, 1.0]], D=None,
        E=[[1.0], [1.0]], F=[[0.0]]), path)
    code, out = run(capsys, "gain", "--norm", "l1", "--format", fmt, str(path))
    assert code == 0
    if fmt == "text":
        assert "(oracle n/a," in out
    else:
        doc = json.loads(out)
        assert doc["oracle_gain"] is None
        assert doc["gamma"] == pytest.approx(1e6, rel=1e-6)


def test_robust_commands_relax_once(monkeypatch, capsys, tmp_path, poly_file):
    from poslp import handelman
    from poslp.poly import BoxDomain, polynomial_system
    calls = []
    for name in ("relax_full", "relax_reduced"):
        def spy(*args, _relax=getattr(handelman, name), **kwargs):
            calls.append(_relax.__name__)
            return _relax(*args, **kwargs)
        monkeypatch.setattr(handelman, name, spy)
    plant = tmp_path / "plant.json"
    write_polynomial_system(polynomial_system(
        a_terms={0: [[1.0]], 1: [[1.0]]}, b_terms={0: [[1.0]]},
        c_terms={0: [[1.0]]}, d_terms={0: [[0.0]]}, e_terms={0: [[1.0]]},
        f_terms={0: [[0.0]]}, domain=BoxDomain.unit(1)), plant)
    dump = tmp_path / "solved.lp"
    for argv in (["robust-gain", "--norm", "l1", poly_file],
                 ["robust-gain", "--norm", "linf", "--form", "full", poly_file],
                 ["robust-synth", str(plant)],
                 ["robust-synth", "--form", "full", str(plant)]):
        calls.clear()
        code, out = run(capsys, *argv, "--format", "structured", "--dump-lp", str(dump))
        assert code == 0
        assert len(calls) == 1, (argv, calls)
        assert dump.read_text().splitlines()[0] == f"vars {json.loads(out)['lp_vars']}"


@pytest.mark.parametrize("command", ["robust-gain", "robust-synth"])
@pytest.mark.parametrize("scaling", ["bogus", "poly:x", "poly", "saturated:"])
def test_robust_commands_reject_bad_scaling(capsys, poly_file, command, scaling):
    norm = ["--norm", "l1"] if command == "robust-gain" else []
    assert cli.main([command, poly_file, *norm, "--scaling", scaling]) == 1
    assert capsys.readouterr().err.startswith(f"error: unknown scaling {scaling!r}")


def refused(capsys, argv):
    assert cli.main(argv) == 1
    return capsys.readouterr().err


def test_zeros_file_without_pattern_is_refused(capsys, tmp_path, system_file):
    zeros = tmp_path / "zeros.json"
    zeros.write_text(json.dumps({"pattern": [[0, 1]]}))
    err = refused(capsys, ["synth", system_file, "--zeros", str(zeros)])
    assert err == f"error: zeros file {zeros} is missing the key 'zero_pattern'\n"


def test_system_file_without_n_is_refused(capsys, tmp_path, system_file):
    doc = json.loads(open(system_file).read())
    del doc["n"]
    path = tmp_path / "no_n.json"
    path.write_text(json.dumps(doc))
    err = refused(capsys, ["gain", "--norm", "l1", str(path)])
    assert err == "error: system is missing the key 'n'\n"


@pytest.mark.parametrize("argv", [["check"], ["gain", "--norm", "l1"]])
def test_system_commands_refuse_a_polynomial_system_file(capsys, poly_file, argv):
    # a file without A was read as A = 0: check called it positive, gain unstable
    err = refused(capsys, [*argv, poly_file])
    assert err == "error: system is missing the key 'A'\n"


@pytest.mark.parametrize("argv", [["check"], ["gain", "--norm", "l1"]])
@pytest.mark.parametrize("value, why", [(None, "is not a numeric array"),
                                        ([], "has 0 entries, expected a 2 x 2 matrix")])
def test_system_commands_refuse_an_empty_a(capsys, tmp_path, argv, value, why):
    # an A of null or [] was read as A = 0: check called it positive, gain unstable
    path = tmp_path / "empty_a.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "q": 1, "A": value, "C": [[1.0, 1.0]],
                                "E": [[1.0], [1.0]], "F": [[0.0]]}))
    err = refused(capsys, [*argv, str(path)])
    assert err == f"error: system key 'A' {why}\n"


def test_polynomial_system_file_without_nparams_is_refused(capsys, tmp_path, poly_file):
    doc = json.loads(open(poly_file).read())
    del doc["nparams"]
    path = tmp_path / "no_nparams.json"
    path.write_text(json.dumps(doc))
    err = refused(capsys, ["robust-gain", "--norm", "l1", str(path)])
    assert err == "error: polynomial system is missing the key 'nparams'\n"


def test_saturated_scaling_below_delta_degree_is_refused(capsys, poly_file):
    err = refused(capsys, ["robust-gain", "--norm", "l1", "--scaling", "saturated:0", poly_file])
    assert err == "error: saturated scalings need degree >= 1 (the degree of Delta(delta)), got 0\n"


@pytest.mark.parametrize("scaling", ["poly:-1", "saturated:-2"])
def test_negative_scaling_degree_is_refused(capsys, poly_file, scaling):
    err = refused(capsys, ["robust-gain", "--norm", "l1", "--scaling", scaling, poly_file])
    assert err == "error: polynomial scaling degree must be >= 0\n"


def test_robust_synth_without_control_matrices_is_refused(capsys, poly_file):
    err = refused(capsys, ["robust-synth", poly_file])
    assert err == "error: synthesis needs control matrices B and D\n"


def test_synth_bounds_of_the_wrong_shape_are_refused(capsys, tmp_path):
    system, bounds = tmp_path / "sys.json", tmp_path / "bounds.json"
    write_system(sysmodel.random_positive_system(3, 2, 1, 1, seed=17), system)
    bounds.write_text(json.dumps({"K_lower": [[-1.0, -1.0]], "K_upper": [[1.0, 1.0]]}))
    err = refused(capsys, ["synth", str(system), "--bounds", str(bounds)])
    assert err == "error: controller bounds must be 2x3\n"


def test_system_file_with_misshaped_matrix_is_refused(capsys, tmp_path):
    path = tmp_path / "short_a.json"
    path.write_text(json.dumps({"n": 2, "p": 1, "q": 1, "A": [1, 2, 3]}))
    err = refused(capsys, ["gain", "--norm", "l1", str(path)])
    assert err == "error: system key 'A' has 3 entries, expected a 2 x 2 matrix\n"


def test_polynomial_system_file_with_misshaped_term_is_refused(capsys, tmp_path, poly_file):
    doc = json.loads(open(poly_file).read())
    doc["terms"][0]["C"] = [[1.0, 2.0]]
    path = tmp_path / "short_c.json"
    path.write_text(json.dumps(doc))
    err = refused(capsys, ["robust-gain", "--norm", "l1", str(path)])
    alpha = tuple(doc["terms"][0]["exponents"])
    assert err == (f"error: polynomial system term {alpha} key 'C' has 2 entries, "
                   f"expected a {doc['q']} x {doc['n']} matrix\n")


@pytest.mark.parametrize("key, value", [("n", -1), ("q", -1), ("m", -1), ("n", "x"), ("n", None),
                                        ("q", 1.9), ("p", True), ("p", float("inf"))])
def test_system_file_with_bad_size_is_refused(capsys, tmp_path, system_file, key, value):
    doc = json.loads(open(system_file).read())
    doc[key] = value
    path = tmp_path / "bad_size.json"
    path.write_text(json.dumps(doc))
    err = refused(capsys, ["gain", "--norm", "l1", str(path)])
    assert err == f"error: system key {key!r} is {value!r}, not a whole number >= 0\n"


def test_system_file_without_matrices_and_negative_n_is_refused(capsys, tmp_path):
    # no matrix to misshape: -1 used to reach np.zeros
    path = tmp_path / "negative_n.json"
    path.write_text(json.dumps({"n": -1, "p": 1, "q": 1}))
    err = refused(capsys, ["gain", "--norm", "l1", str(path)])
    assert err == "error: system key 'n' is -1, not a whole number >= 0\n"


def test_system_file_with_whole_float_sizes_reads_them_as_ints(capsys, tmp_path, system_file):
    doc = json.loads(open(system_file).read())
    doc.update({key: float(doc[key]) for key in ("n", "m", "p", "q")})
    path = tmp_path / "float_sizes.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "gain", "--norm", "l1", str(path)) == \
        run(capsys, "gain", "--norm", "l1", system_file)


@pytest.mark.parametrize("key, value", [("nparams", -1), ("n", -2), ("q", -1), ("q", 1.9),
                                        ("n", "x"), ("n", None)])
def test_polynomial_system_file_with_bad_size_is_refused(capsys, tmp_path, poly_file, key, value):
    doc = json.loads(open(poly_file).read())
    doc[key] = value
    path = tmp_path / "bad_size.json"
    path.write_text(json.dumps(doc))
    err = refused(capsys, ["robust-gain", "--norm", "l1", str(path)])
    assert err == f"error: polynomial system key {key!r} is {value!r}, not a whole number >= 0\n"

@pytest.mark.parametrize("edit, message", [
    ({"exponents": [1.9]}, "polynomial system term exponent is 1.9, not a whole number >= 0"),
    ({"exponents": ["x"]}, "polynomial system term exponent is 'x', not a whole number >= 0"),
    ({"exponents": [-1]}, "polynomial system term exponent is -1, not a whole number >= 0"),
    ({"exponents": [True]}, "polynomial system term exponent is True, not a whole number >= 0"),
    ({"exponents": 1}, "polynomial system term exponents 1 are not a list"),
    ({"domain_lower": ["x"]},
     "polynomial system box ['x'] to [1.0] is not two lists of 1 numbers"),
    ({"domain_upper": [1.0, 2.0]},
     "polynomial system box [0.0] to [1.0, 2.0] is not two lists of 1 numbers"),
    ({"domain_upper": None}, "polynomial system box [0.0] to None is not two lists of 1 numbers"),
    ({"terms": None}, "polynomial system key 'terms' is None, not a list of term objects"),
    ({"terms": [5]}, "polynomial system key 'terms' is [5], not a list of term objects"),
], ids=["exponent_fraction", "exponent_string", "exponent_negative", "exponent_bool",
        "exponents_not_a_list", "lower_string", "upper_too_long", "upper_null", "terms_null",
        "term_not_an_object"])
def test_malformed_polynomial_system_file_is_refused(capsys, tmp_path, poly_file, edit, message):
    doc = json.loads(open(poly_file).read())
    if "exponents" in edit:
        doc["terms"][1].update(edit)
    else:
        doc.update(edit)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert refused(capsys, ["robust-gain", "--norm", "l1", str(path)]) == f"error: {message}\n"


UNREAD_FLAGS = {"--tol": ("gain", "synth", "robust-gain", "robust-synth", "reproduce"),
                "--seed": ("check", "gain", "synth", "robust-gain", "robust-synth"),
                "--grid": ("check", "gain", "synth", "reproduce"),
                "--dump-lp": ("check", "reproduce")}


@pytest.mark.parametrize("command, flag", [(command, flag) for flag, commands in
                                           UNREAD_FLAGS.items() for command in commands])
def test_subcommand_refuses_flags_it_does_not_read(capsys, system_file, poly_file,
                                                   command, flag):
    operands = {"check": [system_file], "gain": ["--norm", "l1", system_file],
                "synth": [system_file], "robust-gain": ["--norm", "l1", poly_file],
                "robust-synth": [poly_file], "reproduce": ["table2"]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *operands, flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_vertex_method_dumps_its_lp(capsys, tmp_path, norm):
    psys = gene_expression_system(0.3)
    path, dump = tmp_path / "gene.json", tmp_path / "vertices.lp"
    write_polynomial_system(psys, path)
    code, out = run(capsys, "robust-gain", "--norm", norm, "--vertices", str(path),
                    "--grid", "5", "--format", "structured", "--dump-lp", str(dump))
    assert code == 0
    vertices = psys.domain.vertices()
    width = psys.p if norm == "l1" else psys.q
    names = [line.split()[1] for line in dump.read_text().splitlines()
             if line.startswith("row ")]
    assert len(names) == len(vertices) * (psys.n + width)
    assert names == [f"v{v}_{kind}{j}" for v in range(len(vertices))
                     for kind, count in (("st", psys.n), ("pf", width)) for j in range(count)]
    assert dump.read_text().splitlines()[0] == f"vars {psys.n + 1}"


def test_missing_input_file_is_refused(capsys, tmp_path):
    path = tmp_path / "absent.json"
    err = refused(capsys, ["gain", "--norm", "l1", str(path)])
    assert err.startswith("error: ") and str(path) in err


def test_malformed_json_input_is_refused(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{bad")
    err = refused(capsys, ["gain", "--norm", "l1", str(path)])
    assert err.startswith("error: Expecting property name")


@pytest.mark.parametrize("grid", ["0", "-1"])
@pytest.mark.parametrize("command", ["robust-gain", "robust-synth"])
def test_robust_commands_refuse_grid_below_one(monkeypatch, capsys, poly_file, command, grid):
    monkeypatch.setattr(robust, "solve_robust", lambda *a, **k: pytest.fail("an LP was solved"))
    norm = ["--norm", "l1"] if command == "robust-gain" else []
    assert cli.main([command, poly_file, *norm, "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --grid must be at least 1, got {grid}\n"


def fresh_process(argv):
    """Exit code, stdout and stderr of `poslp argv` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(poslp.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "poslp.cli", *argv], env=env,
                         capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("vertices", [[], ["--vertices"]])
def test_polynomial_system_file_with_non_finite_term_is_refused(monkeypatch, tmp_path, value,
                                                                vertices):
    # NaN used to reach a vertex "not Hurwitz" verdict or name the LFT block E0,
    # and Infinity to warn on inf * 0 when the term was evaluated at delta = 0
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    psys = polynomial_system(
        a_terms={0: [[-2.0, 0.5], [0.3, -1.5]], 1: [[0.1, 0.2], [0.0, 0.4]]},
        c_terms={0: [[1.0, 0.0]]}, e_terms={0: [[1.0], [0.5]]}, f_terms={0: [[0.0]]},
        domain=BoxDomain.unit(1))
    path = tmp_path / "non_finite.json"
    write_polynomial_system(psys, path)
    doc = json.loads(path.read_text())
    doc["terms"][1]["A"][0][0] = value
    path.write_text(json.dumps(doc))
    assert fresh_process(["robust-gain", "--norm", "l1", *vertices, str(path)]) == (
        1, "", "error: polynomial system term (1,) key 'A' has non-finite entries\n")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_system_file_with_non_finite_entry_is_refused(monkeypatch, tmp_path, system_file, value):
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    doc = json.loads(open(system_file).read())
    doc["E"][1][0] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    assert fresh_process(["check", str(path)]) == (
        1, "", "error: system key 'E' has non-finite entries\n")


def test_parser_is_built_once_and_reused(monkeypatch, capsys, system_file, poly_file):
    builds, grids = [], []
    build, certify = cli.build_parser, robust.grid_certify_gain
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(robust, "grid_certify_gain", lambda psys, gamma, norm, points:
                        grids.append(points) or certify(psys, gamma, norm, points))
    cli._parser.cache_clear()
    gain = ["gain", "--norm", "l1", system_file, "--format", "structured"]
    robust_gain = ["robust-gain", "--norm", "linf", poly_file, "--format", "structured"]
    calls = [["gain", "--norm", "l3", system_file], gain + ["--epsilon", "1e-5"], gain,
             robust_gain + ["--grid", "5"], robust_gain, ["reproduce", "table2"]]
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == fresh_process(argv), argv
        if argv[0] == "gain" and code == 0:
            assert json.loads(out)["epsilon"] == (1e-5 if "--epsilon" in argv else 1e-7)
    assert builds == [1]
    assert grids == [5, 101]


def test_structured_report_formats_no_text(monkeypatch, capsys, system_file):
    monkeypatch.setattr(np, "array2string", lambda *a, **k: pytest.fail("text was formatted"))
    for argv in (["gain", "--norm", "linf", system_file], ["synth", system_file]):
        code, out = run(capsys, *argv, "--format", "structured")
        assert code == 0 and json.loads(out)["status"] == "optimal"


@pytest.mark.parametrize("case, flag", [(case, flag) for case in ("table2", "ex72")
                                        for flag in ("--epsilon", "--lambda-floor")])
def test_reproduce_refuses_policy_flags_a_case_does_not_read(capsys, case, flag):
    assert refused(capsys, ["reproduce", case, flag, "1e-3"]) == \
        f"error: reproduce {case} does not read {flag}\n"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("case", ["table2", "table3", "table4", "table5", "ex72", "delay"])
def test_reproduce_accepts_seed_on_every_case(capsys, case):
    code, out = run(capsys, "reproduce", case, "--seed", "3")
    assert code == 0 and out.strip()


@pytest.mark.parametrize("case", ["table3", "delay"])
def test_reproduce_reads_the_given_epsilon(capsys, case):
    code, out = run(capsys, "reproduce", case, "--epsilon", "1e-6", "--format", "structured")
    assert code == 0 and json.loads(out)["epsilon"] == 1e-6


@pytest.mark.parametrize("kind, doc, message", [
    ("zeros", {"zero_pattern": [[0]]},
     "key 'zero_pattern' is [[0]], not a list of [row, column] pairs"),
    ("zeros", {"zero_pattern": [["a", 1]]}, "index ['a', 1] is 'a', not a whole number >= 0"),
    ("zeros", {"zero_pattern": [[0.5, 1]]}, "index [0.5, 1] is 0.5, not a whole number >= 0"),
    ("zeros", {"zero_pattern": None},
     "key 'zero_pattern' is None, not a list of [row, column] pairs"),
    ("bounds", {"K_lower": "low", "K_upper": [[1.0, 1.0]]},
     "key 'K_lower' is not a numeric array"),
    ("bounds", {"K_lower": [[-1.0, -1.0]], "K_upper": [[1.0, 1.0], [1.0]]},
     "key 'K_upper' is not a numeric array"),
], ids=["pair_too_short", "index_string", "index_fraction", "pattern_null", "bound_string",
        "bound_ragged"])
@pytest.mark.parametrize("command", ["synth", "robust-synth"])
def test_malformed_spec_file_is_refused(capsys, tmp_path, system_file, poly_file, command,
                                        kind, doc, message):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    operand = system_file if command == "synth" else poly_file
    err = refused(capsys, [command, operand, f"--{kind}", str(path)])
    assert err == f"error: {kind} file {path} {message}\n"


@pytest.mark.parametrize("command, flag", [("gain", "--epsilon"), ("check", "--epsilon"),
                                           ("gain", "--lambda-floor"), ("synth", "--epsilon")])
def test_non_finite_margins_are_refused(capsys, system_file, command, flag):
    norm = ["--norm", "l1"] if command == "gain" else []
    err = refused(capsys, [command, *norm, system_file, flag, "inf"])
    assert err.startswith("error: strictness margins epsilon=") and "must be finite" in err
    assert capsys.readouterr().out == ""


def test_reduced_form_stays_reduced_on_a_shifted_box(capsys, tmp_path):
    # the LFT writes the box [10, 11] as theta in [0, 1], where the reduced
    # form needs no inverse; it keeps its smaller LP and the full form's gamma
    from poslp.poly import BoxDomain, polynomial_system
    plant = tmp_path / "plant.json"
    write_polynomial_system(polynomial_system(
        a_terms={0: [[-20.0]], 1: [[1.0]]}, c_terms={0: [[1.0]]}, e_terms={0: [[1.0]]},
        f_terms={0: [[0.0]]}, domain=BoxDomain([10.0], [11.0])), plant)

    def report(degree, form):
        code, out = run(capsys, "robust-gain", "--norm", "l1", str(plant), "--degree",
                        str(degree), "--form", form, "--format", "structured")
        assert code == 0
        return json.loads(out)
    for degree in (6, 9):
        reduced, full = report(degree, "reduced"), report(degree, "full")
        assert reduced["form"] == "reduced" and reduced["certificate"]["eliminated_columns"]
        assert {block["kind"] for block in reduced["certificate"]["blocks"].values()} == {"R"}
        assert reduced["lp_vars"] < full["lp_vars"]
        assert reduced["gamma"] == pytest.approx(full["gamma"], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_gene_model_robust_gain_takes_the_lft_path(capsys, tmp_path, norm):
    # the gene model's box [-1, 1]^3 is written as [0, 1]^3 on the LFT path
    path = tmp_path / "gene.json"
    write_polynomial_system(gene_expression_system(0.3), path)
    code, out = run(capsys, "robust-gain", "--norm", norm, str(path), "--grid", "5",
                    "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "lft-ilc" and doc["grid_verdict"] is True


def test_robust_gain_below_the_oracle_prints_refuted(capsys, monkeypatch, poly_file):
    # half of poly3's robust L1 bound (93.39) lies below its grid oracle (92.84)
    solve = robust.solve_robust

    def halved(*args, **kwargs):
        res = solve(*args, **kwargs)
        return dataclasses.replace(res, gamma=0.5 * res.gamma)
    monkeypatch.setattr(robust, "solve_robust", halved)
    code, out = run(capsys, "robust-gain", "--norm", "l1", poly_file, "--format", "text")
    assert code == 0
    assert out.splitlines()[1] == "grid check: max frozen-delta oracle 92.835821 -> REFUTED"


def test_robust_synth_below_the_oracle_prints_refuted(capsys, monkeypatch, tmp_path):
    # half of the plant's robust Linf bound lies below its closed-loop grid oracle,
    # a refutation by gain rather than by structure: the text names the oracle
    path = tmp_path / "plant_b.json"
    write_polynomial_system(uncertain_input_plant(), path)
    solve = robust.solve_robust

    def halved(*args, **kwargs):
        res = solve(*args, **kwargs)
        return dataclasses.replace(res, gamma=0.5 * res.gamma)
    monkeypatch.setattr(robust, "solve_robust", halved)
    code, out = run(capsys, "robust-synth", str(path), "--format", "text")
    assert code == 0
    assert out.splitlines()[-1] == "grid check: max frozen-delta oracle 1.369163 -> REFUTED"


def strict_json(text):
    """The report parsed as strict JSON: NaN and Infinity are refused."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_grid_refutation_by_structure_is_named_in_strict_json(capsys, tmp_path, norm):
    # A[0, 1] = 10 (delta - 0.55)^2 - 0.01 is negative only near delta = 0.55,
    # between two points of the positivity sample, so a bound is found; the
    # grid refutes it by structure, where no oracle exists
    path = tmp_path / "dip.json"
    write_polynomial_system(polynomial_system(
        a_terms={0: [[-3.0, 3.015], [0.5, -2.0]], 1: [[0.0, -11.0], [0.0, 0.0]],
                 2: [[0.0, 10.0], [0.0, 0.0]]},
        c_terms={0: [[1.0, 1.0]]}, e_terms={0: [[1.0], [0.5]]}, f_terms={0: [[0.0]]}), path)
    argv = ["robust-gain", "--norm", norm, "--scaling", "const", str(path)]
    code, out = run(capsys, *argv, "--format", "structured")
    assert code == 0
    doc = strict_json(out)
    assert doc["grid_verdict"] is False and doc["grid_max_oracle"] is None
    assert doc["grid_failure"] == "not positive at [0.52]"
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1] == "grid check: REFUTED: not positive at [0.52]"


def test_robust_synth_refuted_by_structure_writes_strict_json(capsys, monkeypatch, tmp_path):
    # a closed loop the grid finds not positive has no oracle: null, and the reason
    path = tmp_path / "plant_b.json"
    write_polynomial_system(uncertain_input_plant(), path)
    certify = robust.grid_certify_gain

    def not_positive(*args, **kwargs):
        return dataclasses.replace(certify(*args, **kwargs), ok=False, max_oracle=np.nan,
                                   failure="closed loop not positive at [0.5]")
    monkeypatch.setattr(robust, "grid_certify_gain", not_positive)
    code, out = run(capsys, "robust-synth", str(path), "--format", "structured")
    assert code == 0
    doc = strict_json(out)
    assert doc["grid_verdict"] is False and doc["grid_max_oracle"] is None
    assert doc["grid_failure"] == "closed loop not positive at [0.5]"
    code, out = run(capsys, "robust-synth", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "grid check: REFUTED: closed loop not positive at [0.5]"


@pytest.mark.parametrize("norm", ["l1", "linf"])
@pytest.mark.parametrize("short, full", [("const", "poly:0"), ("saturated", "saturated:2")])
def test_short_scaling_spellings_read_as_their_degree(capsys, tmp_path, poly_file, norm, short,
                                                      full):
    reports, dumps = [], []
    for scaling in (short, full):
        dump = tmp_path / f"{scaling}.lp"
        code, out = run(capsys, "robust-gain", "--norm", norm, "--scaling", scaling, poly_file,
                        "--format", "structured", "--dump-lp", str(dump))
        assert code == 0
        reports.append(json.loads(out))
        dumps.append(dump.read_bytes())
    assert dumps[0] == dumps[1]
    assert [doc.pop("scaling") for doc in reports] == [short, full]
    assert reports[0] == reports[1]


def test_vertex_program_too_large_to_fit_is_refused(capsys, tmp_path):
    # A = -2 + 0.1 (delta_1 + ... + delta_14): 2^14 vertices give a phase-1
    # tableau of 32768 x 65539 (16 GiB), refused before it is allocated; the
    # address space is capped meanwhile, so an allocation fails instead of paging
    zero, path = (0,) * 14, tmp_path / "affine14.json"
    a_terms = {zero: [[-2.0]], **{tuple(row): [[0.1]] for row in np.eye(14, dtype=int)}}
    write_polynomial_system(polynomial_system(
        a_terms=a_terms, c_terms={zero: [[1.0]]}, e_terms={zero: [[1.0]]},
        f_terms={zero: [[0.0]]}), path)
    limits = resource.getrlimit(resource.RLIMIT_AS)
    cap = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize() + 2 ** 32
    resource.setrlimit(resource.RLIMIT_AS, (
        cap if limits[1] == resource.RLIM_INFINITY else min(cap, limits[1]), limits[1]))
    try:
        code = cli.main(["robust-gain", "--norm", "l1", "--vertices", str(path)])
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)
    assert code == 1
    assert capsys.readouterr().err == ("error: the phase-1 tableau of shape 32768 x 65539 needs "
                                       "17180655616 bytes, over the cap of 2147483648\n")


def test_every_option_of_every_subcommand_has_help():
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    bare = [f"{name} {option}" for name, sub in commands.choices.items()
            for action in sub._actions for option in action.option_strings
            if option.startswith("--") and not action.help]
    assert bare == []


def test_lambda_floor_too_large_to_verify_is_an_error_line(tmp_path):
    # a floor of 1e300 leaves the optimal vertex failing its primal check
    path = tmp_path / "sys.json"
    write_system(sysmodel.random_positive_system(4, 0, 2, 2, seed=3), path)
    code, out, err = fresh_process(["gain", "--norm", "l1", "--lambda-floor", "1e300", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: optimal vertex failed primal verification on row ")
    assert "Traceback" not in err
