"""Relax polynomial-in-delta LP rows to finite LPs via Handelman products.

A robust row  P(x, delta) <= 0 on a box  is certified by writing
P = sum_k Q_k(y) g^{(k)}(delta)  over all products g^{(k)} of the box's
defining linear forms up to total degree b, with every coefficient block
Q_k <= 0.  Matching coefficients monomial-by-monomial gives the full form;
eliminating an invertible block Upsilon_2 of the coefficient-matching matrix
gives the reduced form with fewer additional variables.  Cross-products of
the defining forms are included (pure powers of a single form would not span
the matched monomials).

The relaxation is sound for any b >= deg P and becomes necessary for some
finite b; since no a-priori bound on that b is used here, b is caller
escalatable and defaults to deg P + 2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialCapError, DegreeError
from .poly import Poly, monomials, poly_mul

PRODUCT_CAP = 10_000


@dataclass(frozen=True, eq=False)
class HandelmanBasis:
    """Defining forms of the box, scalar `Poly`s nonnegative exactly on it
    (delta_k - lower_k and upper_k - delta_k per parameter k), plus the
    maximum total product degree b."""

    forms: tuple
    degree: int
    nparams: int

    @classmethod
    def from_box(cls, box, degree):
        if degree < 1:
            raise DegreeError("product degree b must be >= 1")
        forms = []
        for k in range(box.nparams):
            delta_k = Poly.variable(box.nparams, k)
            forms.append(Poly.constant(-float(box.lower[k]), box.nparams) + delta_k)
            forms.append(Poly.constant(float(box.upper[k]), box.nparams) - delta_k)
        return cls(forms=tuple(forms), degree=int(degree), nparams=box.nparams)


def enumerate_products(basis, cap=PRODUCT_CAP):
    """Exponent tuples over the forms with total degree 0..b, graded-lex;
    the degree-0 tuple stands for the constant product 1."""
    nf = len(basis.forms)
    count = math.comb(nf + basis.degree, basis.degree)
    if count > cap:
        raise CombinatorialCapError(
            f"{count} basis products exceed the cap of {cap}")
    return monomials(nf, basis.degree)


def product_poly(basis, exponents):
    out = Poly.constant(1.0, basis.nparams)
    for form, e in zip(basis.forms, exponents):
        for _ in range(int(e)):
            out = poly_mul(out, form)
    return out


@dataclass(frozen=True, eq=False)
class UpsilonData:
    """Coefficient-matching data: matrix column k holds the monomial
    coefficients of product k."""

    monomials: tuple
    products: tuple
    matrix: np.ndarray

    def column_of(self, exponents):
        return self.products.index(tuple(exponents))

    def row_of(self, alpha):
        return self.monomials.index(tuple(alpha))


def build_upsilon(basis):
    """Products made as `product_poly` makes them, left to right, with one
    `poly_mul` each: a product is its prefix (lower degree, so made earlier)
    times its last factor."""
    prods = enumerate_products(basis)
    mons = monomials(basis.nparams, basis.degree)
    u = np.zeros((len(mons), len(prods)))
    mon_index = {m: i for i, m in enumerate(mons)}
    made = {}
    for k, expo in enumerate(prods):
        j = max((i for i, e in enumerate(expo) if e), default=-1)
        made[expo] = Poly.constant(1.0, basis.nparams) if j < 0 else \
            poly_mul(made[expo[:j] + (expo[j] - 1,) + expo[j + 1:]], basis.forms[j])
        for alpha, coeff in made[expo].terms.items():
            u[mon_index[alpha], k] = float(coeff)
    return UpsilonData(monomials=tuple(mons), products=tuple(prods), matrix=u)


def pure_power_columns(basis, ups):
    """Per-monomial product built from the lower forms only: the product
    prod_k g_{lower,k}^{alpha_k}.  In graded-lex order these columns form a
    triangular block with unit diagonal, hence an always-invertible
    Upsilon_2."""
    sel = []
    for alpha in ups.monomials:
        expo = [0] * len(basis.forms)
        for k, a in enumerate(alpha):
            expo[2 * k] = a
        sel.append(ups.column_of(expo))
    return sel


@dataclass(frozen=True, eq=False)
class RelaxationPlan:
    basis: HandelmanBasis
    ups: UpsilonData
    b: int


def plan_relaxation(rlp, b=None):
    if not rlp.poly_rows:
        return None
    d = max(row.degree() for row in rlp.poly_rows)
    if b is None:
        b = d + 2
    if b < d:
        raise DegreeError(f"product degree b={b} below row degree {d}")
    basis = HandelmanBasis.from_box(rlp.domain, b)
    ups = build_upsilon(basis)
    return RelaxationPlan(basis=basis, ups=ups, b=b)


def _row_tables(row, ups, num_vars):
    """Dense (a_alpha, c_alpha) tables over the plan's monomials."""
    a = np.zeros((len(ups.monomials), num_vars))
    c = np.zeros(len(ups.monomials))
    for alpha, (coeffs, const) in row.terms.items():
        i = ups.row_of(alpha)
        a[i, : coeffs.shape[0]] = coeffs
        c[i] = const
    return a, c


def _relaxed(rlp, plan, certify):
    """A copy of the builder of `rlp` (its variables and delta-free rows)
    with, per polynomial row r, either the row itself (degree 0) or the
    block rows `certify(a, c)` = (kind, tag, relation, a', u, c') over the
    row's tables: `[a' | -u] (x, y) relation -c'` with fresh certificate
    variables y = kind{r}_k <= 0, one per column of u.  The LP's
    `var_blocks` maps each such row's name to (kind, y)."""
    builder = rlp.builder.copy()
    x = list(range(builder.num_vars))
    cert = {}
    for r, row in enumerate(rlp.poly_rows):
        if row.degree() > plan.b:
            raise DegreeError(f"row {row.name} degree {row.degree()} > b={plan.b}")
        if row.degree() == 0:
            coeffs, const = row.terms[next(iter(row.terms))]
            builder.add_row(coeffs, "<=", -const, row.name)
            continue
        kind, tag, rel, a, u, c = certify(*_row_tables(row, plan.ups, len(x)))
        y = builder.add_vars(f"{kind}{r}_", u.shape[1], upper=0.0)
        cert[row.name] = (kind, y)
        builder.add_rows(x + y, np.hstack([a, -u]), rel, -c,
                         [f"{tag}{r}_{i}" for i in range(len(c))])
    return builder.build(cert)


def relax_full(rlp, b=None, plan=None):
    """Full-form finite LP: per row, one nonpositive coefficient block Q_k per
    product and one coefficient-matching equality per monomial.  ``plan``
    is `plan_relaxation(rlp, b)` when the caller has it already."""
    plan = plan or plan_relaxation(rlp, b)
    return _relaxed(rlp, plan, lambda a, c: ("Q", "hm", "==", a, plan.ups.matrix, c))


def relax_reduced(rlp, b=None, plan=None):
    """Reduced-form finite LP: the invertible pure-power block of Upsilon is
    eliminated, leaving only the cross-product tail blocks R_k <= 0 plus the
    inequality Upsilon_2^{-1}(P - Upsilon_1 R) <= 0.  ``plan`` is
    `plan_relaxation(rlp, b)` when the caller has it already.

    Falls back to the full form (kind Q blocks, see `relaxation_form`) when
    1/cond(Upsilon_2) < 1e-12: on [10, 11] from b = 6, on [1, 2] from b = 22."""
    plan = plan or plan_relaxation(rlp, b)
    if plan is None:
        return _relaxed(rlp, plan, None)
    sel = pure_power_columns(plan.basis, plan.ups)
    u2 = plan.ups.matrix[:, sel]
    if 1.0 / max(np.linalg.cond(u2), 1.0) < 1e-12:
        return relax_full(rlp, b, plan)
    tail = sorted(set(range(len(plan.ups.products))) - set(sel))
    w = np.linalg.inv(u2)
    g = w @ plan.ups.matrix[:, tail]
    return _relaxed(rlp, plan, lambda a, c: ("R", "hr", "<=", w @ a, g, w @ c))


def relaxation_form(lp, requested):
    """The form of relaxation `lp` by its block kinds (Q full, R reduced), else `requested`."""
    kinds = {kind for kind, _ in lp.var_blocks.values()}
    return "full" if "Q" in kinds else "reduced" if "R" in kinds else requested


def certificate_blocks(lp, solution):
    """The Q/R blocks of a solved relaxation, keyed by polynomial row name."""
    if solution.x is None:
        return {}
    return {name: (kind, solution.x[cols]) for name, (kind, cols) in lp.var_blocks.items()}


@dataclass(frozen=True, eq=False)
class HandelmanCertificate:
    """Solved certificate data: the product list, the nonpositive coefficient
    blocks per polynomial row (Q for the full form, tail R for the reduced
    form), and the shape/split of the coefficient-matching matrix."""

    products: tuple
    monomials: tuple
    blocks: dict                  # row name -> (kind, values)
    upsilon_shape: tuple
    eliminated_columns: tuple | None    # Upsilon_2 product columns (reduced)


def extract_certificate(lp, solution, plan, form):
    """Certificate of a solved relaxation `lp` made with `plan` in `form`."""
    if plan is None:
        return None
    blocks = certificate_blocks(lp, solution)
    eliminated = None
    if form == "reduced":
        sel = pure_power_columns(plan.basis, plan.ups)
        eliminated = tuple(plan.ups.products[k] for k in sel)
    return HandelmanCertificate(
        products=plan.ups.products, monomials=plan.ups.monomials,
        blocks=blocks, upsilon_shape=plan.ups.matrix.shape,
        eliminated_columns=eliminated)
