"""Relax polynomial-in-delta LP rows to finite LPs via Handelman products.

A robust row  P(x, delta) <= 0 on a box  is certified by writing
P = sum_k Q_k(y) g^{(k)}(delta)  over all products g^{(k)} of the box's
defining linear forms up to total degree b, with every coefficient block
Q_k <= 0.  Matching coefficients monomial-by-monomial gives the full form,
on any box.  Robust programs are written on [0, 1]^N (`on_unit_box` of a
`PolynomialLtiSystem`), where the block Upsilon_2 of the pure powers
theta^alpha is the identity; the reduced form keeps only the other blocks,
with fewer additional variables.  Cross-products of the defining forms are
included (pure powers of a single form would not span the matched monomials).

The relaxation is sound for any b >= deg P and becomes necessary for some
finite b; since no a-priori bound on that b is used here, b is caller
escalatable and defaults to deg P + 2.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CombinatorialCapError, DegreeError, DomainError, ValidationError
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
        n, forms = box.nparams, []
        for k, e_k in enumerate(monomials(n, 1)[1:]):
            forms.append(Poly(n, (), {(0,) * n: -float(box.lower[k]), e_k: 1.0}))
            forms.append(Poly(n, (), {(0,) * n: float(box.upper[k]), e_k: -1.0}))
        return cls(forms=tuple(forms), degree=int(degree), nparams=n)


def enumerate_products(basis):
    """Exponent tuples over the forms with total degree 0..b, graded-lex;
    the degree-0 tuple stands for the constant product 1."""
    nf = len(basis.forms)
    count = math.comb(nf + basis.degree, basis.degree)
    if count > PRODUCT_CAP:
        raise CombinatorialCapError(
            f"{count} basis products exceed the cap of {PRODUCT_CAP}")
    return monomials(nf, basis.degree)


def product_poly(basis, exponents):
    out = Poly.constant(1.0, basis.nparams)
    for form, e in zip(basis.forms, exponents):
        for _ in range(int(e)):
            out = poly_mul(out, form)
    return out


@dataclass(frozen=True, eq=False)
class UpsilonData:
    """Coefficient-matching data, the plan of a relaxation: matrix column k
    holds the monomial coefficients of product k.  ``pure_powers`` marks the
    products of the lower forms only (no exponent on an upper form, every
    second form): one per monomial, in monomial order, the block Upsilon_2,
    triangular with unit diagonal.  Where the lower bounds are 0 each lower
    form is theta_k, so the recurrence only shifts these columns and
    Upsilon_2 is exactly I."""

    monomials: tuple
    products: tuple
    matrix: np.ndarray
    pure_powers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pure_powers",
                           np.array([not any(expo[1::2]) for expo in self.products]))

    @property
    def degree(self):
        """The product degree b, the total degree of the last product."""
        return sum(self.products[-1])

    def column_of(self, exponents):
        return self.products.index(tuple(exponents))

    def row_of(self, alpha):
        return self.monomials.index(tuple(alpha))


def _affine_form(form):
    """(c0, k, c1) of a form c0 + c1 theta_k; any other form is refused."""
    zero = (0,) * form.nparams
    linear = [alpha for alpha in form.terms if alpha != zero]
    if form.shape != () or len(linear) != 1 or sum(linear[0]) != 1:
        raise ValidationError(f"Handelman form {form} is not a constant plus one theta term")
    return float(form.terms.get(zero, 0.0)), linear[0].index(1), float(form.terms[linear[0]])


def build_upsilon(basis):
    """Products made left to right, as `product_poly` makes them: column k
    is its prefix's column (lower degree, so made earlier) times the last
    form c0 + c1 theta_j, that is c0 times the prefix plus c1 times the
    prefix shifted from alpha to alpha + e_j.  Each entry sums at most these
    two products, so it has the bits of `poly_mul`'s sum; the columns of one
    degree and last form are made together."""
    prods = enumerate_products(basis)
    mons = monomials(basis.nparams, basis.degree)
    forms = [_affine_form(form) for form in basis.forms]
    col = {expo: k for k, expo in enumerate(prods)}
    row = {alpha: i for i, alpha in enumerate(mons)}
    low = [alpha for alpha in mons if sum(alpha) < basis.degree]   # graded: the first rows
    up = [[row[alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:]] for alpha in low]
          for k in range(basis.nparams)]      # the rows of theta_k times them
    groups = {}                     # (degree, last form) -> (columns, prefix columns)
    for c, expo in enumerate(prods[1:], 1):
        j = max(i for i, e in enumerate(expo) if e)
        cols, prefixes = groups.setdefault((sum(expo), j), ([], []))
        cols.append(c)
        prefixes.append(col[expo[:j] + (expo[j] - 1,) + expo[j + 1:]])
    u = np.zeros((len(mons), len(prods)))
    u[0, 0] = 1.0
    for (_, j), (cols, prefixes) in groups.items():
        c0, k, c1 = forms[j]
        prefix = u[:, prefixes]
        block = c0 * prefix if c0 else np.zeros_like(prefix)   # no constant, no product
        block[up[k]] += c1 * prefix[:len(low)]
        u[:, cols] = block
    u += 0.0                        # every zero +0.0, as a Poly's unstored terms
    return UpsilonData(monomials=tuple(mons), products=tuple(prods), matrix=u)


def plan_relaxation(rlp, b=None):
    if not rlp.poly_rows:
        return None
    d = max(row.degree() for row in rlp.poly_rows)
    if b is None:
        b = d + 2
    if b < d:
        raise DegreeError(f"product degree b={b} below row degree {d}")
    return build_upsilon(HandelmanBasis.from_box(rlp.domain, b))


def _relaxed(rlp, plan, kind, tag, relation, u):
    """A copy of the builder of `rlp` (its variables and delta-free rows)
    with, per polynomial row r, either the row itself (degree 0) or the
    block rows tag{r}_i, `[a | -u] (x, y) relation -c` over the row's dense
    tables (a_alpha, c_alpha) on the plan's monomials, with fresh
    certificate variables y = kind{r}_k <= 0, one per column of u.  The LP's
    `var_blocks` maps each such row's name to (kind, y)."""
    builder = rlp.builder.copy()
    x = list(range(builder.num_vars))
    cert = {}
    neg_u = None if u is None else -u
    row_of = {} if plan is None else {alpha: i for i, alpha in enumerate(plan.monomials)}
    for r, row in enumerate(rlp.poly_rows):
        degree = row.degree()
        if degree > plan.degree:
            raise DegreeError(f"row {row.name} degree {degree} > b={plan.degree}")
        if degree == 0:
            coeffs, const = row.terms[next(iter(row.terms))]
            builder.add_rows(slice(0, len(coeffs)), coeffs, "<=", -const, [row.name])
            continue
        a, c = np.zeros((len(row_of), len(x))), np.zeros(len(row_of))
        for alpha, (coeffs, const) in row.terms.items():
            a[row_of[alpha], : coeffs.shape[0]] = coeffs
            c[row_of[alpha]] = const
        y = builder.add_vars(f"{kind}{r}_", u.shape[1], upper=0.0)
        cert[row.name] = (kind, y)
        builder.add_rows(x + y, np.hstack([a, neg_u]), relation, -c,
                         [f"{tag}{r}_{i}" for i in range(len(c))])
    return builder.build(cert)


def relax_full(rlp, b=None, plan=None):
    """Full-form finite LP: per row, one nonpositive coefficient block Q_k per
    product and one coefficient-matching equality per monomial.  ``plan``
    is `plan_relaxation(rlp, b)` when the caller has it already."""
    plan = plan or plan_relaxation(rlp, b)
    return _relaxed(rlp, plan, "Q", "hm", "==", None if plan is None else plan.matrix)


def relax_reduced(rlp, b=None, plan=None):
    """Reduced-form finite LP where the pure-power block Upsilon_2 is the
    identity (lower bounds 0, as on [0, 1]^N): per row only the tail blocks
    R_k <= 0 plus P - Upsilon_tail R <= 0, one row per monomial.  ``plan``
    is `plan_relaxation(rlp, b)` when the caller has it already.  Another
    box is refused; `relax_full` takes any box."""
    plan = plan or plan_relaxation(rlp, b)
    if plan is None:
        return _relaxed(rlp, plan, "R", "hr", "<=", None)
    mask = plan.pure_powers
    if not np.array_equal(plan.matrix[:, mask], np.eye(int(mask.sum()))):
        raise DomainError("reduced form needs lower bounds 0 (Upsilon_2 = I); use the full form")
    return _relaxed(rlp, plan, "R", "hr", "<=", plan.matrix[:, ~mask])


@dataclass(frozen=True, eq=False)
class HandelmanCertificate:
    """Solved certificate data: the product list, the nonpositive coefficient
    blocks per polynomial row (Q for the full form, tail R for the reduced
    form), and the split of the coefficient-matching matrix."""

    products: tuple
    monomials: tuple
    blocks: dict                  # row name -> (kind, values)
    eliminated_columns: tuple | None    # Upsilon_2 product columns (reduced)


def extract_certificate(lp, solution, plan, form):
    """Certificate of a solved relaxation `lp` made with `plan` in `form`; a
    reduced one lists the eliminated columns."""
    if plan is None:
        return None
    blocks = {name: (kind, solution.x[cols]) for name, (kind, cols) in lp.var_blocks.items()}
    eliminated = None
    if form == "reduced":
        eliminated = tuple(expo for expo, pure in zip(plan.products, plan.pure_powers) if pure)
    return HandelmanCertificate(products=plan.products, monomials=plan.monomials,
                                blocks=blocks, eliminated_columns=eliminated)
