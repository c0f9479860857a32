import numpy as np
import pytest

from poslp import lft, sysmodel
from poslp.cases import POLY3_A, POLY3_C, POLY3_E, POLY3_F, poly3_system
from poslp.errors import ModelError, WellPosednessError
from poslp.poly import BoxDomain, Poly, polynomial_system


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
        closed = lft.close_at(l, d)
        frozen = psys.frozen_at(d)
        for name in ("A", "E", "C", "F"):
            assert np.allclose(getattr(closed, name), getattr(frozen, name),
                               atol=1e-10)


def test_positivity_preserved_on_grid():
    psys = poly3_system()
    l = lft.lft_from_polynomial(psys)
    for d in np.linspace(0, 1, 11):
        assert sysmodel.classify(lft.close_at(l, [d]), tol=1e-12).is_positive


def test_transposed_benchmark_blocks():
    psys = poly3_system()
    l = lft.lft_from_polynomial(psys)
    tl = lft.transpose_lft(psys)
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
    tl = lft.transpose_lft(psys)
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
    tl = lft.transpose_lft(psys)
    for _ in range(20):
        d = rng.uniform(0, 1, 1)
        closed_t = lft.close_at(tl, d)
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


def test_degree_cap_enforced():
    with pytest.raises(Exception):
        lft.lft_from_polynomial(poly3_system(), degree=1)


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
    closed = lft.close_with_matrix(l, np.eye(2))
    assert np.allclose(closed.A, a + ah)

