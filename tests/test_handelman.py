import numpy as np
import pytest

from poslp import handelman as hd
from poslp.errors import CombinatorialCapError, DegreeError
from poslp.lpcore import LpBuilder, solve_lp
from poslp.poly import BoxDomain, Poly, monomials
from poslp.robust import PolyRow, RobustLinearProgram, solve_robust


def make_rlp(poly_rows, num_vars=1, objective=None, lower=None, domain=None,
             names=None):
    objective = np.zeros(num_vars) if objective is None else np.asarray(objective, dtype=float)
    low = np.full(num_vars, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    builder = LpBuilder(names or tuple(f"x{i}" for i in range(num_vars)), low,
                        np.full(num_vars, np.inf), objective)
    return RobustLinearProgram(
        builder=builder, poly_rows=tuple(poly_rows), domain=domain or BoxDomain.unit(1),
        blocks={"lam": [], "gamma": 0}, epsilon=1e-7, which="test")


def interval_basis(lo, hi, b):
    return hd.HandelmanBasis.from_box(BoxDomain([lo], [hi]), b)


def test_enumerate_products_interval_degree_two():
    basis = interval_basis(-1.0, 1.0, 2)
    prods = hd.enumerate_products(basis)
    assert prods == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # the five nonconstant products of the classic interval example
    assert len([p for p in prods if sum(p) >= 1]) == 5


def test_enumerate_products_b1():
    basis = interval_basis(0.0, 1.0, 1)
    assert hd.enumerate_products(basis) == [(0, 0), (1, 0), (0, 1)]


def test_enumerate_products_two_parameters():
    basis = hd.HandelmanBasis.from_box(BoxDomain.unit(2), 2)
    prods = hd.enumerate_products(basis)
    assert len([p for p in prods if sum(p) >= 1]) == 14


def test_product_cap():
    basis = hd.HandelmanBasis.from_box(BoxDomain.unit(6), 8)
    with pytest.raises(CombinatorialCapError):
        hd.enumerate_products(basis, cap=1000)


def test_upsilon_interval_regression():
    # integer coefficient map of quadratic products on [-1, 1]
    basis = interval_basis(-1.0, 1.0, 2)
    ups = hd.build_upsilon(basis)
    col = ups.column_of
    row = ups.row_of
    u = ups.matrix
    order = [col((1, 0)), col((0, 1)), col((1, 1)), col((2, 0)), col((0, 2))]
    chi2 = [u[row((2,)), k] for k in order]
    chi1 = [u[row((1,)), k] for k in order]
    chi0 = [u[row((0,)), k] for k in order]
    assert chi2 == [0.0, 0.0, -1.0, 1.0, 1.0]
    assert chi1 == [1.0, -1.0, 0.0, 2.0, -2.0]
    assert chi0 == [1.0, 1.0, 1.0, 1.0, 1.0]
    assert all(v == int(v) for v in np.ravel(u))


def test_upsilon_unit_interval_b1():
    basis = interval_basis(0.0, 1.0, 1)
    ups = hd.build_upsilon(basis)
    # columns: 1, delta, 1-delta over monomials (1, delta)
    assert np.array_equal(ups.matrix, [[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])


def test_upsilon_full_row_rank():
    for nparams, b in ((1, 3), (2, 2)):
        basis = hd.HandelmanBasis.from_box(BoxDomain.unit(nparams), b)
        ups = hd.build_upsilon(basis)
        assert np.linalg.matrix_rank(ups.matrix) == ups.matrix.shape[0]


def test_pure_power_selection_is_invertible():
    for lo, hi in ((0.0, 1.0), (-1.0, 1.0), (0.5, 2.5)):
        basis = interval_basis(lo, hi, 3)
        ups = hd.build_upsilon(basis)
        sel = hd.pure_power_columns(basis, ups)
        u2 = ups.matrix[:, sel]
        assert abs(np.linalg.det(u2)) > 1e-12


def test_constant_row_passes_through():
    row = PolyRow(name="c", terms={(0,): (np.array([1.0]), 0.5)})
    rlp = make_rlp([row], num_vars=1, objective=[-1.0])
    lp = hd.relax_full(rlp)
    assert lp.num_vars == 1          # no certificate variables bind
    assert lp.num_rows == 1
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(-0.5)


def test_negative_quadratic_certified_at_b2():
    # -(theta^2 + 1) <= 0 on [-1, 1]; half-and-half squares decomposition
    row = PolyRow(name="q", terms={(0,): (np.zeros(1), -1.0),
                                   (2,): (np.zeros(1), -1.0)})
    rlp = make_rlp([row], num_vars=1, objective=[0.0], lower=[0.0],
                   domain=BoxDomain.symmetric(1))
    lp = hd.relax_full(rlp, b=2)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    blocks = hd.certificate_blocks(lp, sol)
    kind, q = blocks["q"]
    assert kind == "Q"
    assert np.all(q <= 1e-12)
    # the certificate reconstructs the row polynomial exactly
    basis = hd.HandelmanBasis.from_box(BoxDomain.symmetric(1), 2)
    prods = hd.enumerate_products(basis)
    for theta in np.linspace(-1, 1, 51):
        total = sum(qk * float(hd.product_poly(basis, e).eval([theta]))
                    for qk, e in zip(q, prods))
        assert total == pytest.approx(-(theta ** 2 + 1.0), abs=1e-8)


def test_full_and_reduced_agree_on_random_rows():
    rng = np.random.Generator(np.random.PCG64(77))
    agree = 0
    for trial in range(50):
        deg = int(rng.integers(1, 4))
        terms = {}
        for k in range(deg + 1):
            coeffs = rng.uniform(-1, 1, 2)
            const = rng.uniform(-1.5, 0.5)
            terms[(k,)] = (coeffs, const)
        row = PolyRow(name="r", terms=terms)
        rlp = make_rlp([row], num_vars=2, objective=[1.0, 1.0],
                       lower=[0.0, 0.0])
        sol_full = solve_lp(hd.relax_full(rlp, b=deg + 1))
        sol_red = solve_lp(hd.relax_reduced(rlp, b=deg + 1))
        assert sol_full.status == sol_red.status
        if sol_full.status == "optimal":
            assert sol_full.objective_value == pytest.approx(
                sol_red.objective_value, rel=1e-7, abs=1e-9)
        agree += 1
    assert agree == 50


def test_reduced_soundness_on_grid():
    # relaxation-feasible points satisfy the original rows across the box
    rng = np.random.Generator(np.random.PCG64(15))
    for trial in range(10):
        terms = {(0,): (np.array([1.0, 0.0]), rng.uniform(-1, 0)),
                 (1,): (np.array([0.0, 1.0]), rng.uniform(-1, 1)),
                 (2,): (np.array([0.3, -0.2]), rng.uniform(-0.5, 0.5))}
        row = PolyRow(name="r", terms=terms)
        rlp = make_rlp([row], num_vars=2, objective=[1.0, 1.0])
        lp = hd.relax_reduced(rlp, b=3)
        sol = solve_lp(lp)
        if sol.status != "optimal":
            continue
        x = sol.x[:2]
        for theta in np.linspace(0, 1, 101):
            val = sum((coeffs @ x + const) * theta ** a[0]
                      for a, (coeffs, const) in terms.items())
            assert val <= 1e-8


def test_degree_above_b_rejected():
    row = PolyRow(name="r", terms={(3,): (np.array([1.0]), 0.0)})
    rlp = make_rlp([row], num_vars=1)
    with pytest.raises(DegreeError):
        hd.relax_full(rlp, b=2)


def test_tail_dimension_counts():
    # univariate: K = (b+1)(b+2)/2 products, M = b+1 matched monomials;
    # the reduced form keeps K - M tail variables per polynomial row
    row = PolyRow(name="r", terms={(0,): (np.array([1.0]), -1.0),
                                   (2,): (np.array([0.0]), -1.0)})
    rlp = make_rlp([row], num_vars=1, objective=[1.0], lower=[0.0])
    for b in (2, 3, 4):
        k = (b + 1) * (b + 2) // 2
        lp_full = hd.relax_full(rlp, b=b)
        lp_red = hd.relax_reduced(rlp, b=b)
        assert lp_full.num_vars == 1 + k
        assert lp_red.num_vars == 1 + (k - (b + 1))


def test_monotone_tightening_in_b():
    # gamma*(b) is nonincreasing: feasible sets only grow with b
    terms = {(0,): (np.array([0.0, -1.0]), 1.0),
             (1,): (np.array([1.0, 0.0]), 0.5),
             (2,): (np.array([0.5, 0.0]), -0.2)}
    row = PolyRow(name="r", terms=terms)
    rlp = make_rlp([row], num_vars=2, objective=[0.0, 1.0],
                   lower=[0.0, 0.0])
    prev = np.inf
    for b in (2, 3, 4, 5):
        sol = solve_lp(hd.relax_reduced(rlp, b=b))
        val = sol.objective_value if sol.status == "optimal" else np.inf
        assert val <= prev + 1e-9
        prev = val


def test_certificate_reads_only_the_relaxation_columns():
    # a base variable whose name looks like a certificate column stays out
    row = PolyRow(name="q", terms={(0,): (np.zeros(1), -1.0),
                                   (2,): (np.zeros(1), -1.0)})
    rlp = make_rlp([row], num_vars=1, objective=[1.0], lower=[0.0],
                   domain=BoxDomain.symmetric(1), names=("Q0_x",))
    res = solve_robust(rlp, b=2, form="full")
    kind, q = res.certificate.blocks["q"]
    assert kind == "Q"
    assert len(q) == len(res.certificate.products) == res.lp.num_vars - 1


def _reference_forms(box):
    """The defining forms as the affine-form construction built them: the
    constant term first, then each nonzero coefficient of +-e_k."""
    n, forms = box.nparams, []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        for coeffs, const in ((e.copy(), -float(box.lower[k])), (-e, float(box.upper[k]))):
            terms = {(0,) * n: np.asarray(const, dtype=float)}
            terms.update((tuple(int(i == j) for i in range(n)), np.asarray(coeffs[j], dtype=float))
                         for j in range(n) if coeffs[j] != 0.0)
            forms.append(Poly(n, (), terms))
    return tuple(forms)


def test_upsilon_keeps_the_affine_form_bytes():
    rng = np.random.Generator(np.random.PCG64(70))
    for trial in range(40):
        n, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        lower = rng.uniform(-2.0, 1.0, n)
        if trial % 4 == 0:
            lower[0] = 0.0
        box = BoxDomain(lower, lower + rng.uniform(0.1, 3.0, n))
        basis = hd.HandelmanBasis.from_box(box, b)
        for form, ref in zip(basis.forms, _reference_forms(box), strict=True):
            assert list(form.terms) == list(ref.terms)
        ups = hd.build_upsilon(basis)
        ref = hd.build_upsilon(hd.HandelmanBasis(_reference_forms(box), b, n))
        assert ups.products == ref.products and ups.monomials == ref.monomials
        assert ups.matrix.tobytes() == ref.matrix.tobytes()


def per_product_upsilon(basis):
    """Reference Upsilon: every product made afresh by `product_poly`."""
    prods = hd.enumerate_products(basis)
    mons = monomials(basis.nparams, basis.degree)
    u = np.zeros((len(mons), len(prods)))
    for k, expo in enumerate(prods):
        for alpha, coeff in hd.product_poly(basis, expo).terms.items():
            u[mons.index(alpha), k] = float(coeff)
    return u


@pytest.mark.parametrize("box, degrees", [
    (BoxDomain([0.0], [1.0]), range(1, 9)),
    (BoxDomain.unit(2), range(1, 9)),
    (BoxDomain([10.0], [11.0]), range(1, 9)),
    (BoxDomain([-0.7, 0.2, 1.5], [0.4, 2.9, 1.75]), range(1, 7)),
])
def test_upsilon_makes_each_product_with_one_multiplication(box, degrees, monkeypatch):
    mul, calls = hd.poly_mul, []
    for b in degrees:
        basis = hd.HandelmanBasis.from_box(box, b)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(hd, "poly_mul", lambda p, q: calls.append(1) or mul(p, q))
            ups = hd.build_upsilon(basis)
        assert len(calls) == len(ups.products) - 1, b
        assert ups.matrix.tobytes() == per_product_upsilon(basis).tobytes(), b
