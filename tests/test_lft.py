import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from test_golden import small_plant, uncertain_input_plant
from test_sysmodel import transposed

from poslp import cli, gains, ilc, lft, robust, sysmodel
from poslp.cases import (GENE_TABLE, POLY3_A, POLY3_C, POLY3_E, POLY3_F, gene_expression_system,
                         poly3_system)
from poslp.errors import DimensionError, ModelError, WellPosednessError
from poslp.poly import (BoxDomain, Poly, PolynomialLtiSystem, polynomial_system,
                        read_polynomial_system)


def affine_toy():
    # dx = (A0 + d A1) x + E0 w, z = C x: one state-power channel
    return polynomial_system(
        a_terms={0: [[-2.0, 0.5], [0.3, -1.5]], 1: [[0.1, 0.2], [0.0, 0.4]]},
        c_terms={0: [[1.0, 0.0]]},
        e_terms={0: [[1.0], [0.5]]},
        f_terms={0: [[0.0]]},
        domain=BoxDomain.unit(1))


def test_degree_zero_degenerates_to_plain_system():
    s = sysmodel.random_positive_system(3, 0, 2, 2, seed=20)
    psys = polynomial_system(a_terms={0: s.A}, c_terms={0: s.C},
                             e_terms={0: s.E}, f_terms={0: s.F})
    l = lft.lft_from_polynomial(psys)
    assert l.n0 == 0
    assert np.array_equal(l.A, s.A)
    assert np.array_equal(l.E1, s.E)
    assert np.array_equal(l.C1, s.C)
    assert np.array_equal(l.F11, s.F)


def test_benchmark_blocks_match_published_layout():
    l = lft.lft_from_polynomial(poly3_system())
    n, p = 3, 2
    assert l.n0 == 2 * n + 2 * p
    assert np.array_equal(l.E0, np.hstack([POLY3_A[1], POLY3_A[2], POLY3_E[1], POLY3_E[2]]))
    assert np.array_equal(l.F10, np.hstack([POLY3_C[1], POLY3_C[2], POLY3_F[1], POLY3_F[2]]))
    assert np.array_equal(l.E1, POLY3_E[0])
    assert np.array_equal(l.C1, POLY3_C[0])
    assert np.array_equal(l.F11, POLY3_F[0])
    c0 = np.vstack([np.eye(n), np.zeros((n, n)), np.zeros((p, n)), np.zeros((p, n))])
    assert np.array_equal(l.C0, c0)
    f00 = np.zeros((l.n0, l.n0))
    f00[n:2 * n, :n] = np.eye(n)
    f00[2 * n + p:, 2 * n:2 * n + p] = np.eye(p)
    assert np.array_equal(l.F00, f00)
    f01 = np.zeros((l.n0, p))
    f01[2 * n:2 * n + p, :] = np.eye(p)
    assert np.array_equal(l.F01, f01)
    # Delta(delta) = delta I
    assert lft_delta_is_scalar_identity(l)


def lft_delta_is_scalar_identity(l):
    d = l.delta_structure.eval([0.37])
    return np.allclose(d, 0.37 * np.eye(l.n0))


def test_affine_toy_matches_hand_lft():
    psys = affine_toy()
    l = lft.lft_from_polynomial(psys)
    assert l.n0 == 2
    assert np.array_equal(l.E0, [[0.1, 0.2], [0.0, 0.4]])
    assert np.array_equal(l.C0, np.eye(2))
    assert np.array_equal(l.F00, np.zeros((2, 2)))
    assert np.array_equal(l.F10, np.zeros((1, 2)))


def test_loop_closure_identity_random_samples():
    psys = poly3_system()
    l = lft.lft_from_polynomial(psys)
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(20):
        d = rng.uniform(0.0, 1.0, 1)
        closed = _close(l, l.delta_structure.eval(d))
        frozen = psys.frozen_at(d)
        for name in ("A", "E", "C", "F"):
            assert np.allclose(getattr(closed, name), getattr(frozen, name),
                               atol=1e-10)


def _transposed_polynomial(psys):
    """(A^T, C^T in, E^T out, F^T) coefficient-wise, on the same box."""
    return PolynomialLtiSystem(
        A=psys.A.transpose(), B=Poly.zero(psys.nparams, (psys.n, 0)), C=psys.E.transpose(),
        D=Poly.zero(psys.nparams, (psys.p, 0)), E=psys.C.transpose(), F=psys.F.transpose(),
        domain=psys.domain)


def _robust_gain_solved(scaling):
    return lambda psys, norm: robust.solve_robust(
        robust.robust_gain(psys, norm, cli.parse_scaling(scaling)))


@pytest.mark.parametrize("solve, systems, transpose", [
    pytest.param(gains.gain, lambda: [sysmodel.random_positive_system(n, 0, p, q, seed=90 + n)
                                      for n, p, q in ((1, 1, 1), (4, 2, 3), (9, 3, 2))],
                 transposed, id="gain"),
    pytest.param(robust.vertex_gain, lambda: [gene_expression_system(big_n)
                                              for big_n, _ in GENE_TABLE],
                 _transposed_polynomial, id="vertex_gain"),
    *(pytest.param(_robust_gain_solved(scaling),
                   lambda: [poly3_system(), gene_expression_system(0.3)],
                   _transposed_polynomial, id=f"robust_gain-{scaling}")
      for scaling in ("const", "saturated")),
])
def test_linf_entry_is_the_l1_entry_on_the_transpose(solve, systems, transpose):
    # every gain entry takes the norm as one argument and `lft` alone transposes:
    # Linf on the system is L1 on its transpose, bit for bit
    for sys in systems():
        linf, l1 = solve(sys, "linf"), solve(transpose(sys), "l1")
        assert np.float64(linf.gamma).tobytes() == np.float64(l1.gamma).tobytes()
        assert linf.lam.tobytes() == l1.lam.tobytes()
    with pytest.raises(DimensionError) as err:
        solve(sys, "l2")
    assert str(err.value) == "unknown norm 'l2': use 'l1' or 'linf'"


def test_positivity_preserved_on_grid():
    psys = poly3_system()
    l = lft.lft_from_polynomial(psys)
    for d in np.linspace(0, 1, 11):
        assert sysmodel.classify(_close(l, l.delta_structure.eval([d])), tol=1e-12).is_positive


def test_transposed_benchmark_blocks():
    psys = poly3_system()
    l = lft.lft_from_polynomial(psys)
    tl = lft.lft_from_polynomial(psys, "linf")
    assert np.array_equal(tl.E0, np.hstack([POLY3_A[1].T, POLY3_A[2].T,
                                            POLY3_C[1].T, POLY3_C[2].T]))
    assert np.array_equal(tl.F10, np.hstack([POLY3_E[1].T, POLY3_E[2].T,
                                             POLY3_F[1].T, POLY3_F[2].T]))
    # with p == q the constant patterns coincide with the original's
    assert np.array_equal(tl.F00, l.F00)
    assert np.array_equal(tl.C0, l.C0)
    assert np.array_equal(tl.F01, l.F01)
    assert np.array_equal(tl.A, l.A.T)


def test_transpose_of_degree_zero_is_plain_transpose():
    s = sysmodel.random_positive_system(3, 0, 2, 2, seed=22)
    psys = polynomial_system(a_terms={0: s.A}, c_terms={0: s.C},
                             e_terms={0: s.E}, f_terms={0: s.F})
    tl = lft.lft_from_polynomial(psys, "linf")
    assert np.array_equal(tl.A, s.A.T)
    assert np.array_equal(tl.E1, s.C.T)
    assert np.array_equal(tl.C1, s.E.T)
    assert np.array_equal(tl.F11, s.F.T)


def test_transposed_closure_equals_transpose_of_closure():
    rng = np.random.Generator(np.random.PCG64(23))
    base = sysmodel.random_positive_system(3, 0, 2, 2, seed=24)
    psys = polynomial_system(
        a_terms={0: base.A, 1: rng.uniform(0, 0.2, (3, 3)),
                 2: rng.uniform(0, 0.1, (3, 3))},
        c_terms={0: base.C, 1: rng.uniform(0, 0.2, (2, 3))},
        e_terms={0: base.E, 2: rng.uniform(0, 0.2, (3, 2))},
        f_terms={0: base.F},
        domain=BoxDomain.unit(1))
    tl = lft.lft_from_polynomial(psys, "linf")
    for _ in range(20):
        d = rng.uniform(0, 1, 1)
        closed_t = _close(tl, tl.delta_structure.eval(d))
        frozen = psys.frozen_at(d)
        assert np.allclose(closed_t.A, frozen.A.T, atol=1e-10)
        assert np.allclose(closed_t.E, frozen.C.T, atol=1e-10)
        assert np.allclose(closed_t.C, frozen.E.T, atol=1e-10)
        assert np.allclose(closed_t.F, frozen.F.T, atol=1e-10)


def test_cross_parameter_terms_rejected():
    psys = polynomial_system(
        a_terms={(0, 0): [[-1.0]], (1, 1): [[0.1]]},
        c_terms={(0, 0): [[1.0]]},
        e_terms={(0, 0): [[1.0]]},
        f_terms={(0, 0): [[0.0]]},
        domain=BoxDomain.unit(2))
    with pytest.raises(ModelError):
        lft.lft_from_polynomial(psys)


def test_ill_posed_user_lft_rejected():
    delta = Poly(1, (1, 1), {(1,): np.eye(1)})
    with pytest.raises(WellPosednessError):
        lft.LftSystem(A=[[-1.0]], E0=[[1.0]], E1=np.zeros((1, 0)),
                      C0=[[1.0]], C1=np.zeros((0, 1)), F00=[[1.0]],
                      F01=np.zeros((1, 0)), F10=np.zeros((0, 1)),
                      F11=np.zeros((0, 0)), delta_structure=delta,
                      domain=BoxDomain.unit(1))


def test_delay_lft_shape():
    a = np.array([[-2.0, 0.5], [0.4, -1.7]])
    ah = np.array([[0.3, 0.1], [0.2, 0.2]])
    l = lft.delay_lft(a, ah)
    assert l.n0 == 2 and l.p == 0 and l.q == 0
    assert np.array_equal(l.E0, ah)
    assert np.array_equal(l.C0, np.eye(2))
    closed = _close(l, np.eye(2))
    assert np.allclose(closed.A, a + ah)



# ---------------------------------------------------------------------------
# the stacked closure against the point-by-point closure it replaced

def _reference_points(domain):
    return domain.grid({1: 11, 2: 7}.get(domain.nparams, 3))


def _reference_loop_matrix(delta_matrix, f00, message):
    m = np.eye(f00.shape[0]) - delta_matrix @ f00
    if 1.0 / max(np.linalg.cond(m, 1), 1.0) < lft._WELLPOSED_RCOND:
        raise WellPosednessError(message)
    return m


def _reference_check_well_posed(l):
    if l.n0 == 0:
        return
    for point in _reference_points(l.domain):
        _reference_loop_matrix(l.delta_structure.eval(point), l.F00,
                               f"I - Delta(delta) F00 is singular near delta={point}")


def _reference_close(l, delta_matrix):
    """(A, C, E, F) of the loop closed with one constant Delta, one solve."""
    if l.n0 == 0:
        return l.A, l.C1, l.E1, l.F11
    m = _reference_loop_matrix(np.asarray(delta_matrix, dtype=float), l.F00,
                               "loop I - Delta F00 is singular")
    w = np.linalg.solve(m, delta_matrix)
    return (l.A + l.E0 @ w @ l.C0, l.C1 + l.F10 @ w @ l.C0,
            l.E1 + l.E0 @ w @ l.F01, l.F11 + l.F10 @ w @ l.F01)


def _close(l, delta_matrix):
    """The loop closed with one constant Delta by `lft._close_stack`, as a system."""
    a, c, e, f = (m[0] for m in lft._close_stack(l, np.asarray(delta_matrix)[None], str))
    return sysmodel.PositiveLtiSystem(A=a, B=None, C=c, D=None, E=e, F=f)


def _outcome(fn, *args):
    """None when `fn(*args)` returns, else the class and message it raised."""
    try:
        fn(*args)
    except Exception as err:   # noqa: BLE001 -- compared by class and message
        return type(err), str(err)
    return None


def _seeded_polynomial_system(seed, nparams):
    rng = np.random.Generator(np.random.PCG64(seed))
    base = sysmodel.random_positive_system(3, 0, 2, 2, seed=seed)
    unit = [tuple(int(i == k) for i in range(nparams)) for k in range(nparams)]
    square = [tuple(2 * a for a in alpha) for alpha in unit]
    zero = (0,) * nparams
    return polynomial_system(
        a_terms={zero: base.A, unit[0]: rng.uniform(0, 0.2, (3, 3)),
                 square[-1]: rng.uniform(-0.1, 0.1, (3, 3))},
        c_terms={zero: base.C, unit[-1]: rng.uniform(-0.2, 0.2, (2, 3))},
        e_terms={zero: base.E, square[0]: rng.uniform(0, 0.2, (3, 2))},
        f_terms={zero: base.F, unit[0]: rng.uniform(0, 0.1, (2, 2))},
        domain=BoxDomain(rng.uniform(-1, 0, nparams), rng.uniform(0.5, 2, nparams)))


def test_on_unit_box_keeps_a_unit_box_system():
    psys = poly3_system()
    assert psys.on_unit_box() is psys


@pytest.mark.parametrize("seed, nparams", [(60, 1), (61, 1), (62, 2), (63, 3)])
def test_on_unit_box_is_the_system_at_the_mapped_point(seed, nparams):
    # delta = lower + (upper - lower) theta on boxes with negative lower bounds
    psys = _seeded_polynomial_system(seed, nparams)
    lower, upper = psys.domain.lower, psys.domain.upper
    assert np.all(lower < 0)
    unit = psys.on_unit_box()
    assert np.array_equal(unit.domain.lower, np.zeros(nparams))
    assert np.array_equal(unit.domain.upper, np.ones(nparams))
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = np.vstack([rng.uniform(0, 1, (20, nparams)), unit.domain.vertices()])
    delta = lower + theta * (upper - lower)
    for got, ref in zip(unit.frozen_stack(theta), psys.frozen_stack(delta), strict=True):
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=1.0)
    assert lft.channel_layout(unit) == lft.channel_layout(psys)


def _ill_posed_kwargs(nparams, upper):
    """A loop whose I - Delta F00 is singular where some delta_k is 1."""
    n0 = nparams
    delta = Poly(nparams, (n0, n0), {tuple(int(i == k) for i in range(nparams)):
                                     np.diag(np.eye(n0)[k]) for k in range(nparams)})
    return dict(A=-np.eye(1), E0=np.ones((1, n0)), E1=np.zeros((1, 0)), C0=np.ones((n0, 1)),
                C1=np.zeros((0, 1)), F00=np.eye(n0), F01=np.zeros((n0, 0)),
                F10=np.zeros((0, n0)), F11=np.zeros((0, 0)), delta_structure=delta,
                domain=BoxDomain(np.zeros(nparams), np.full(nparams, upper)))


@pytest.mark.parametrize("nparams, upper", [(1, 1.0), (2, 2.0), (3, 1.0), (1, 0.95)])
def test_well_posedness_refusal_matches_reference_loop(nparams, upper):
    kwargs = _ill_posed_kwargs(nparams, upper)
    got = _outcome(lambda: lft.LftSystem(**kwargs))
    assert got == _outcome(_reference_check_well_posed, SimpleNamespace(n0=nparams, **kwargs))
    if upper < 1.0:
        assert got is None
    else:
        assert got[0] is WellPosednessError and "near delta=" in got[1]


def test_ill_posed_loop_names_the_first_singular_point():
    with pytest.raises(WellPosednessError) as err:
        lft.LftSystem(**_ill_posed_kwargs(2, 2.0))
    # the 7 x 7 sample of [0, 2]^2 meets delta_2 = 1 at its fourth point
    assert str(err.value) == "I - Delta(delta) F00 is singular near delta=[0. 1.]"


def test_singular_constant_delta_keeps_its_message():
    # F00 = 1, so I - Delta0 F00 = 0 for Delta0 = 1: the lossless analysis refuses the loop
    l = lft.LftSystem(A=[[-1.0]], E0=[[1.0]], E1=np.zeros((1, 0)), C0=[[1.0]],
                      C1=np.zeros((0, 1)), F00=[[1.0]], F01=np.zeros((1, 0)),
                      F10=np.zeros((0, 1)), F11=np.zeros((0, 0)),
                      delta_structure=None, domain=None)
    assert _outcome(robust.exact_constant_delta, l, [[1.0]]) == \
        (WellPosednessError, "I - Delta0 F00 is singular")


@pytest.mark.parametrize("seed, nparams", [(60, 1), (61, 1), (62, 2), (63, 3)])
def test_closures_keep_the_point_by_point_bytes(seed, nparams):
    psys = _seeded_polynomial_system(seed, nparams)
    rng = np.random.Generator(np.random.PCG64(seed))
    lower, upper = psys.domain.lower, psys.domain.upper
    points = [lower + rng.uniform(0, 1, nparams) * (upper - lower) for _ in range(10)]
    for l in (lft.lft_from_polynomial(psys), lft.lft_from_polynomial(psys, "linf")):
        sample, deltas, stacks = lft._check_well_posed(l)
        assert np.array_equal(sample, _reference_points(l.domain))
        for g, point in enumerate(sample):
            ref = _reference_close(l, l.delta_structure.eval(point))
            assert [m[g].tobytes() for m in stacks] == [m.tobytes() for m in ref]
        for point in points:
            delta = l.delta_structure.eval(point)
            ref = [m.tobytes() for m in _reference_close(l, delta)]
            closed = _close(l, delta)
            assert [closed.A.tobytes(), closed.C.tobytes(), closed.E.tobytes(),
                    closed.F.tobytes()] == ref


def test_closure_without_loop_channels_returns_the_plain_blocks():
    s = sysmodel.random_positive_system(3, 0, 2, 2, seed=64)
    a = s.A.copy()
    a[0, 1] = -0.0
    psys = polynomial_system(a_terms={0: a}, c_terms={0: s.C}, e_terms={0: s.E},
                             f_terms={0: s.F})
    l = lft.lft_from_polynomial(psys)
    closed = _close(l, l.delta_structure.eval([0.5]))
    assert [m.tobytes() for m in (closed.A, closed.C, closed.E, closed.F)] == \
        [m.tobytes() for m in _reference_close(l, np.zeros((0, 0)))]


def test_plain_lft_of_a_stack_is_the_stack_of_plain_lfts():
    # the vertex program's one LFT: block by block the LFT of each system, for both norms
    rng = np.random.Generator(np.random.PCG64(65))
    a, c, e, f = (rng.uniform(0.0, 1.0, (4, *shape)) for shape in ((3, 3), (2, 3), (3, 1), (2, 1)))
    names = ("A", "E0", "E1", "C0", "C1", "F00", "F01", "F10", "F11")
    for norm in ("l1", "linf"):
        stack = lft.plain_lft(a, c, e, f, norm)
        for g in range(len(a)):
            one = lft.plain_lft(a[g], c[g], e[g], f[g], norm)
            assert (stack.n, stack.n0, stack.p, stack.q) == (one.n, one.n0, one.p, one.q)
            assert [getattr(stack, name)[g].tobytes() for name in names] == \
                [getattr(one, name).tobytes() for name in names]
    # a stack has no uncertainty structure: its loop could not be closed point by point
    blocks = {name: np.zeros((2, 1, 1)) for name in ("A", "E0", "C0", "F00")}
    blocks.update(E1=np.zeros((2, 1, 0)), C1=np.zeros((2, 0, 1)), F01=np.zeros((2, 1, 0)),
                  F10=np.zeros((2, 0, 1)), F11=np.zeros((2, 0, 0)))
    with pytest.raises(DimensionError, match="a stack of LFTs has no delta_structure"):
        lft.LftSystem(**blocks, delta_structure=Poly(1, (1, 1), {(1,): np.eye(1)}),
                      domain=BoxDomain.unit(1))


def _close_stack_calls(monkeypatch):
    """The stack length of every `_close_stack` call from here on."""
    calls = []
    close = lft._close_stack

    def spy(l, deltas, where):
        calls.append(len(deltas))
        return close(l, deltas, where)
    monkeypatch.setattr(lft, "_close_stack", spy)
    return calls


def test_canonical_lfts_close_no_sample(monkeypatch):
    # their Delta F00 is strictly lower triangular, so nothing is sampled
    calls = _close_stack_calls(monkeypatch)
    assert type(lft.lft_from_polynomial(poly3_system())) is lft.LftSystem
    robust.robust_stabilize(small_plant(), ilc.FreePolynomial(0, saturated=False))
    assert calls == []


def _structure_proves_well_posed(l):
    return not any(np.triu(d @ l.F00).any() for d in l.delta_structure.terms.values())


def _synthesis_lft(psys):
    """The transposed LFT robust synthesis writes its program on."""
    unit = psys.on_unit_box()
    layout = lft.channel_layout(unit, ("A", "B", "E"), ("C", "D", "F"), unit.q, "robust synthesis")
    return lft.lft_from_polynomial(unit, "linf", layout)


def _robust_relax_inputs(directory):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.generate("robust_relax", 1, str(directory))
    return [read_polynomial_system(path) for path in sorted(directory.glob("*.json"))
            if not path.name.endswith("_bounds.json")]


def test_every_canonical_lft_is_well_posed_by_structure(monkeypatch, tmp_path):
    psystems = [poly3_system(), gene_expression_system(0.3), small_plant(),
                uncertain_input_plant()]
    psystems += [_seeded_polynomial_system(seed, nparams)
                 for seed, nparams in [(60, 1), (61, 1), (62, 2), (63, 3)]]
    psystems += _robust_relax_inputs(tmp_path)
    calls = _close_stack_calls(monkeypatch)
    built = []
    for psys in psystems:
        built += [lft.lft_from_polynomial(psys), lft.lft_from_polynomial(psys, "linf")]
        if psys.m:
            built.append(_synthesis_lft(psys))
    assert len(built) == 48
    assert calls == []
    assert all(l.n0 and _structure_proves_well_posed(l) for l in built)


def _one_parameter_kwargs(f00):
    """Two loop channels with Delta = delta I on [0, 1]."""
    return dict(A=[[-2.0, 0.1], [0.2, -1.0]], E0=[[0.5, 0.1], [0.2, 0.3]], E1=[[1.0], [0.5]],
                C0=np.eye(2), C1=[[1.0, 0.0]], F00=f00, F01=[[0.2], [0.1]], F10=[[0.3, 0.4]],
                F11=[[0.0]], delta_structure=Poly(1, (2, 2), {(1,): np.eye(2)}),
                domain=BoxDomain.unit(1))


def test_strictly_lower_loop_closes_without_a_sample(monkeypatch):
    calls = _close_stack_calls(monkeypatch)
    l = lft.LftSystem(**_one_parameter_kwargs([[0.0, 0.0], [5.0, 0.0]]))
    assert calls == []
    for d in (0.0, 0.4, 1.0):
        closed = _close(l, l.delta_structure.eval([d]))
        # (I - d F00)^{-1} d = d [[1, 0], [5 d, 1]]
        w = d * np.array([[1.0, 0.0], [5.0 * d, 1.0]])
        expect = (l.A + l.E0 @ w @ l.C0, l.C1 + l.F10 @ w @ l.C0,
                  l.E1 + l.E0 @ w @ l.F01, l.F11 + l.F10 @ w @ l.F01)
        got = (closed.A, closed.C, closed.E, closed.F)
        assert all(np.allclose(g, e, rtol=1e-15, atol=1e-15) for g, e in zip(got, expect))
        assert [m.tobytes() for m in got] == \
            [m.tobytes() for m in _reference_close(l, l.delta_structure.eval([d]))]
    assert calls == [1, 1, 1]


def test_loop_the_structure_does_not_prove_is_sampled(monkeypatch):
    # Delta F00 = [[0, delta], [0, 0]] is nilpotent but upper triangular: the
    # structure test is sufficient, not necessary, so the box is sampled and passes
    calls = _close_stack_calls(monkeypatch)
    l = lft.LftSystem(**_one_parameter_kwargs([[0.0, 1.0], [0.0, 0.0]]))
    assert not _structure_proves_well_posed(l)
    assert calls == [11]


def test_delta_parameters_must_match_the_box():
    kwargs = _one_parameter_kwargs([[0.0, 0.0], [1.0, 0.0]])
    kwargs["delta_structure"] = Poly(2, (2, 2), {(1, 0): np.diag([1.0, 0.0]),
                                                 (0, 1): np.diag([0.0, 1.0])})
    with pytest.raises(DimensionError) as err:
        lft.LftSystem(**kwargs)
    assert str(err.value) == "delta_structure has 2 parameters, the box 1"


@pytest.mark.parametrize("change, message", [
    (dict(A=[[-2.0, 0.1, 0.0], [0.2, -1.0, 0.0]]), "A must be square"),
    (dict(F01=[[0.2, 0.1]]), "F01 has shape (1, 2), expected (2, 1)"),
    (dict(delta_structure=Poly(1, (1, 1), {(1,): np.eye(1)})), "delta_structure must be n0 x n0"),
    (dict(domain=None), "parametric uncertainty needs a box domain"),
], ids=["a_not_square", "block_shape", "delta_shape", "no_domain"])
def test_lft_refuses_blocks_of_the_wrong_shape(change, message):
    with pytest.raises(DimensionError) as err:
        lft.LftSystem(**dict(_one_parameter_kwargs(np.zeros((2, 2))), **change))
    assert str(err.value) == message
