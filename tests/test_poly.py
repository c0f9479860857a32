import itertools

import numpy as np
import pytest

from poslp import poly as pl
from poslp.cases import POLY3_A, poly3_system
from poslp.errors import DimensionError, ValidationError
from poslp.handelman import HandelmanBasis, build_upsilon
from poslp.poly import BoxDomain, Poly, monomials, poly_mul


def scalar_poly(coeffs):
    """Univariate scalar polynomial from ascending coefficients."""
    return Poly(1, (), {(k,): np.asarray(c) for k, c in enumerate(coeffs)})


def test_monomial_order_is_graded_lex():
    assert monomials(1, 2) == [(0,), (1,), (2,)]
    assert monomials(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def reference_monomials(nparams, max_degree):
    """The filter of all (d + 1)^N tuples that `monomials` ran before it
    enumerated compositions."""
    if nparams == 0:
        return [()]
    out = []
    for deg in range(max_degree + 1):
        level = [t for t in itertools.product(range(deg + 1), repeat=nparams)
                 if sum(t) == deg]
        level.sort(reverse=True)
        out.extend(level)
    return out


def test_monomials_enumerate_the_filtered_tuples_in_their_order():
    for nparams in range(7):
        for degree in range(9):
            assert monomials(nparams, degree) == reference_monomials(nparams, degree)


def test_eval_constant():
    p = Poly.constant(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
    assert np.array_equal(p.eval([0.7]), [[1.0, 2.0], [3.0, 4.0]])


def test_eval_benchmark_endpoints():
    a = poly3_system().A
    assert np.array_equal(a.eval([0.0]), POLY3_A[0])
    assert np.allclose(a.eval([1.0]), POLY3_A[0] + POLY3_A[1] + POLY3_A[2])


def test_multiply_by_one_is_identity():
    p = scalar_poly([2.0, -1.0, 3.0])
    one = Poly.constant(1.0, 1)
    assert poly_mul(p, one) == p


def test_difference_of_squares():
    one_plus = scalar_poly([1.0, 1.0])
    one_minus = scalar_poly([1.0, -1.0])
    assert poly_mul(one_plus, one_minus) == scalar_poly([1.0, 0.0, -1.0])


def test_row_vector_times_matrix_matches_hand_expansion():
    # phi2(d) = phi2_0 + d phi2_1 against Delta(d) = d I_2:
    # phi2(d)^T Delta(d) = d phi2_0^T + d^2 phi2_1^T
    phi2_0 = np.array([1.0, 2.0])
    phi2_1 = np.array([-3.0, 0.5])
    phi2 = Poly(1, (2,), {(0,): phi2_0, (1,): phi2_1})
    delta = Poly(1, (2, 2), {(1,): np.eye(2)})
    prod = poly_mul(phi2, delta)
    assert np.array_equal(prod.coeff((1,)), phi2_0)
    assert np.array_equal(prod.coeff((2,)), phi2_1)
    assert np.array_equal(prod.coeff((0,)), np.zeros(2))


def test_ring_axioms_at_random_points():
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(5):
        p = scalar_poly(rng.uniform(-1, 1, 3))
        q = scalar_poly(rng.uniform(-1, 1, 4))
        r = scalar_poly(rng.uniform(-1, 1, 2))
        for _ in range(10):
            x = rng.uniform(-2, 2, 1)
            lhs = poly_mul(p, poly_mul(q, r)).eval(x)
            rhs = poly_mul(poly_mul(p, q), r).eval(x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            lhs = poly_mul(p, q + r).eval(x)
            rhs = (poly_mul(p, q) + poly_mul(p, r)).eval(x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_coefficient_rows_zero_pads_constant():
    p = Poly.constant(np.array([5.0, -1.0]), 1)
    rows = [p.coeff(alpha) for alpha in monomials(1, 2)]
    assert np.array_equal(rows[0], [5.0, -1.0])
    assert np.array_equal(rows[1], np.zeros(2))
    assert np.array_equal(rows[2], np.zeros(2))


def test_coefficient_rows_interval_combination():
    # tau-weighted combination of the [-1,1] interval products expands to the
    # standard quadratic coefficient map, the columns of the Upsilon matrix
    rng = np.random.Generator(np.random.PCG64(4))
    tau = rng.uniform(0, 2, 5)
    g1 = scalar_poly([1.0, 1.0])     # x + 1
    g2 = scalar_poly([1.0, -1.0])    # 1 - x
    products = [g1, g2, poly_mul(g1, g2), poly_mul(g1, g1), poly_mul(g2, g2)]
    p = Poly.zero(1, ())
    for t, g in zip(tau, products):
        p = p + poly_mul(Poly.constant(t, 1), g)
    chi0, chi1, chi2 = (float(p.coeff(alpha)) for alpha in monomials(1, 2))
    assert chi2 == pytest.approx(tau[3] + tau[4] - tau[2])
    assert chi1 == pytest.approx(tau[0] - tau[1] + 2 * tau[3] - 2 * tau[4])
    assert chi0 == pytest.approx(tau.sum())
    ups = build_upsilon(HandelmanBasis.from_box(BoxDomain([-1.0], [1.0]), 2))
    order = [ups.column_of(e) for e in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))]
    assert ups.matrix[:, order] @ tau == pytest.approx([chi0, chi1, chi2])


def test_coefficient_rows_reconstruct_by_interpolation():
    rng = np.random.Generator(np.random.PCG64(9))
    p = scalar_poly(rng.uniform(-1, 1, 4))
    rows = [float(p.coeff(alpha)) for alpha in monomials(1, 3)]
    xs = np.linspace(-1, 1, 5)
    vander = np.vander(xs, 4, increasing=True)
    vals = np.array([float(p.eval([x])) for x in xs])
    recovered, *_ = np.linalg.lstsq(vander, vals, rcond=None)
    assert np.allclose(recovered, rows, atol=1e-10)


def test_poly_eval_dimension_mismatch():
    with pytest.raises(DimensionError):
        scalar_poly([1.0]).eval([0.1, 0.2])


def test_no_zero_coefficients_stored():
    p = Poly(1, (), {(0,): np.asarray(1.0), (1,): np.asarray(0.0)})
    assert (1,) not in p.terms


def test_box_domain_validation():
    with pytest.raises(ValidationError):
        BoxDomain([0.0, 1.0], [1.0, 1.0])
    box = BoxDomain.unit(2)
    assert len(box.vertices()) == 4
    assert len(box.grid(5)) == 25


def test_nonunit_box_supported():
    box = BoxDomain.symmetric(1)
    assert box.lower[0] == -1.0 and box.upper[0] == 1.0


def test_polynomial_system_round_trip(tmp_path):
    psys = poly3_system()
    path = tmp_path / "poly.json"
    pl.write_polynomial_system(psys, path)
    back = pl.read_polynomial_system(path)
    for name in ("A", "B", "C", "D", "E", "F"):
        assert getattr(back, name) == getattr(psys, name)
    assert np.array_equal(back.domain.lower, psys.domain.lower)
    path2 = tmp_path / "poly2.json"
    pl.write_polynomial_system(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_frozen_at_matches_manual_evaluation():
    psys = poly3_system()
    s = psys.frozen_at([0.4])
    assert np.allclose(s.A, POLY3_A[0] + 0.4 * POLY3_A[1] + 0.16 * POLY3_A[2])
