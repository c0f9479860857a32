import json

import numpy as np
import pytest

from poslp import cli, sysmodel
from poslp.cases import poly3_system
from poslp.poly import write_polynomial_system
from poslp.sysmodel import write_system


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


def test_missing_input_file_is_refused(capsys, tmp_path):
    path = tmp_path / "absent.json"
    err = refused(capsys, ["gain", "--norm", "l1", str(path)])
    assert err.startswith("error: ") and str(path) in err


def test_malformed_json_input_is_refused(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{bad")
    err = refused(capsys, ["gain", "--norm", "l1", str(path)])
    assert err.startswith("error: Expecting property name")
