"""Multivariate polynomials with vector/matrix coefficients on a box domain.

Coefficients are dense ndarrays keyed by exponent tuple; zero coefficients
are never stored.  A single global graded-lexicographic monomial order (total
degree ascending, lexicographically descending within a degree) keeps every
coefficient-matching matrix reproducible across runs.
"""

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import DegreeError, DimensionError, ValidationError, require_keys


def monomials(nparams, max_degree):
    """All exponent tuples with total degree <= max_degree, graded-lex order."""
    if nparams == 0:
        return [()]
    out = []
    for deg in range(max_degree + 1):
        level = [t for t in itertools.product(range(deg + 1), repeat=nparams)
                 if sum(t) == deg]
        level.sort(reverse=True)
        out.extend(level)
    return out


class Poly:
    """Polynomial in delta with ndarray coefficients of a fixed shape."""

    __slots__ = ("nparams", "shape", "terms")

    def __init__(self, nparams, shape, terms=None):
        self.nparams = int(nparams)
        self.shape = tuple(shape)
        clean = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.nparams or any(a < 0 for a in alpha):
                raise DimensionError(f"bad exponent tuple {alpha} for N={self.nparams}")
            arr = np.asarray(coeff, dtype=float)
            if arr.shape != self.shape:
                raise DimensionError(f"coefficient shape {arr.shape} != {self.shape}")
            if arr.size and np.any(arr != 0.0):
                clean[alpha] = arr
        self.terms = clean

    @classmethod
    def constant(cls, value, nparams):
        arr = np.asarray(value, dtype=float)
        return cls(nparams, arr.shape, {(0,) * nparams: arr})

    @classmethod
    def zero(cls, nparams, shape):
        return cls(nparams, shape, {})

    @classmethod
    def variable(cls, nparams, k):
        """The scalar polynomial delta_k."""
        alpha = tuple(1 if i == k else 0 for i in range(nparams))
        return cls(nparams, (), {alpha: np.asarray(1.0)})

    def degree(self):
        return max((sum(a) for a in self.terms), default=0)

    def degree_in(self, k):
        return max((a[k] for a in self.terms), default=0)

    def coeff(self, alpha):
        alpha = tuple(alpha)
        return self.terms.get(alpha, np.zeros(self.shape))

    def eval(self, point):
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.nparams,):
            raise DimensionError(f"point must have {self.nparams} coordinates")
        out = np.zeros(self.shape)
        for alpha, coeff in self.terms.items():
            scale = 1.0
            for x, a in zip(point, alpha):
                scale *= x ** a
            out = out + scale * coeff
        return out

    def eval_many(self, points):
        """Stack of `eval` at every row of the (G, N) array `points`, shape
        (G,) + shape; bit for bit what the `eval` loop returns."""
        return self._eval_stack(_point_stack(points, self.nparams), {})

    def _eval_stack(self, pts, powers):
        # term by term in dict order with eval's scalar `x ** a` (numpy's
        # vectorised power differs from it in the last bit); `powers` caches
        # the columns x_k ** a across the polynomials of one stack
        out = np.zeros((pts.shape[0],) + self.shape)
        expand = (slice(None),) + (None,) * len(self.shape)
        for alpha, coeff in self.terms.items():
            scale = np.ones(pts.shape[0])
            for k, a in enumerate(alpha):
                if a:
                    if (k, a) not in powers:
                        col = pts[:, k]
                        powers[k, a] = col if a == 1 else np.array([x ** a for x in col])
                    scale = scale * powers[k, a]
            out = out + scale[expand] * coeff
        return out

    def transpose(self):
        if len(self.shape) != 2:
            raise DimensionError("transpose needs matrix coefficients")
        return Poly(self.nparams, (self.shape[1], self.shape[0]),
                    {a: c.T for a, c in self.terms.items()})

    def __add__(self, other):
        if self.nparams != other.nparams or self.shape != other.shape:
            raise DimensionError("polynomial shapes/parameter counts differ")
        terms = {a: c.copy() for a, c in self.terms.items()}
        for a, c in other.terms.items():
            terms[a] = terms.get(a, np.zeros(self.shape)) + c
        return Poly(self.nparams, self.shape, terms)

    def __neg__(self):
        return Poly(self.nparams, self.shape, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.nparams != other.nparams or self.shape != other.shape:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(np.array_equal(self.coeff(k), other.coeff(k)) for k in keys)

    def __repr__(self):
        return f"Poly(N={self.nparams}, shape={self.shape}, terms={len(self.terms)})"


def _point_stack(points, nparams):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != nparams:
        raise DimensionError(f"points must be a (G, {nparams}) array, got {pts.shape}")
    return pts


def poly_scale(p, s):
    return Poly(p.nparams, p.shape, {a: float(s) * c for a, c in p.terms.items()})


def poly_mul(p, q):
    """Polynomial product; scalar coefficients multiply elementwise, matrix
    and vector coefficients combine with matmul semantics."""
    if p.nparams != q.nparams:
        raise DimensionError("parameter counts differ")
    if p.shape == () or q.shape == ():
        combine = np.multiply
        shape = q.shape if p.shape == () else p.shape
    else:
        combine = np.matmul
        shape = np.matmul(np.zeros(p.shape), np.zeros(q.shape)).shape
    terms = {}
    for a, ca in p.terms.items():
        for b, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(a, b))
            val = combine(ca, cb)
            terms[key] = terms.get(key, np.zeros(shape)) + val
    return Poly(p.nparams, shape, terms)


def coefficient_rows(p, degree):
    """Dense coefficient list over the graded-lex monomials up to `degree`,
    zero-padded; raises DegreeError when p is of higher degree."""
    if p.degree() > degree:
        raise DegreeError(f"polynomial degree {p.degree()} exceeds {degree}")
    return [p.coeff(alpha).copy() for alpha in monomials(p.nparams, degree)]


def poly_from_rows(nparams, degree, rows, shape):
    """Inverse of coefficient_rows."""
    mons = monomials(nparams, degree)
    if len(rows) != len(mons):
        raise DimensionError(f"expected {len(mons)} rows, got {len(rows)}")
    return Poly(nparams, shape, dict(zip(mons, (np.asarray(r, dtype=float) for r in rows))))


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """Axis-aligned box for the uncertain parameters; defaults to [0,1]^N."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = numlin.as_vector(self.lower, "lower")
        up = numlin.as_vector(self.upper, "upper")
        if lo.shape != up.shape:
            raise DimensionError("bound vectors differ in length")
        if np.any(lo >= up):
            raise ValidationError("box needs lower < upper per coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def unit(cls, nparams):
        return cls(np.zeros(nparams), np.ones(nparams))

    @classmethod
    def symmetric(cls, nparams):
        return cls(-np.ones(nparams), np.ones(nparams))

    @property
    def nparams(self):
        return self.lower.shape[0]

    def grid(self, points_per_param):
        """Full mesh with `points_per_param` points per coordinate."""
        axes = [np.linspace(self.lower[k], self.upper[k], points_per_param)
                for k in range(self.nparams)]
        if not axes:
            return [np.zeros(0)]
        return [np.array(pt) for pt in itertools.product(*axes)]

    def vertices(self):
        corners = itertools.product(*[(self.lower[k], self.upper[k])
                                      for k in range(self.nparams)])
        return [np.array(c) for c in corners]

    def contains(self, point, tol=1e-12):
        point = np.asarray(point, dtype=float)
        return bool(np.all(point >= self.lower - tol) and np.all(point <= self.upper + tol))


@dataclass(frozen=True, eq=False)
class PolynomialLtiSystem:
    """LTI system whose matrices depend polynomially on delta in a box."""

    A: Poly
    B: Poly
    C: Poly
    D: Poly
    E: Poly
    F: Poly
    domain: BoxDomain

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionError("A coefficients must be square")
        q, p, m = self.C.shape[0], self.E.shape[1], self.B.shape[1]
        expect = {"B": (n, m), "C": (q, n), "D": (q, m), "E": (n, p), "F": (q, p)}
        for name, shape in expect.items():
            poly = getattr(self, name)
            if poly.shape != shape:
                raise DimensionError(f"{name} coefficient shape {poly.shape} != {shape}")
            if poly.nparams != self.nparams:
                raise DimensionError(f"{name} has wrong parameter count")

    @property
    def nparams(self):
        return self.A.nparams

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.E.shape[1]

    @property
    def q(self):
        return self.C.shape[0]

    def degree(self):
        return max(p.degree() for p in (self.A, self.B, self.C, self.D, self.E, self.F))

    def frozen_at(self, delta):
        """Plain system with the matrices evaluated at one parameter point."""
        from .sysmodel import PositiveLtiSystem
        return PositiveLtiSystem(
            A=self.A.eval(delta), B=self.B.eval(delta), C=self.C.eval(delta),
            D=self.D.eval(delta), E=self.E.eval(delta), F=self.F.eval(delta))

    def frozen_stack(self, points):
        """(A, B, C, D, E, F), each a (G, rows, cols) stack of the matrices
        at the G rows of `points`; equal to `frozen_at` point by point."""
        pts = _point_stack(points, self.nparams)
        powers = {}
        return tuple(poly._eval_stack(pts, powers)
                     for poly in (self.A, self.B, self.C, self.D, self.E, self.F))


def polynomial_system(a_terms, c_terms, e_terms, f_terms, b_terms=None, d_terms=None,
                      domain=None, nparams=None):
    """Build a PolynomialLtiSystem from {exponent tuple: matrix} maps.

    Single-parameter systems may use integer exponents as keys."""
    def norm_terms(terms):
        out = {}
        for alpha, mat in (terms or {}).items():
            if isinstance(alpha, int):
                alpha = (alpha,)
            out[tuple(alpha)] = np.asarray(mat, dtype=float)
        return out

    a_terms = norm_terms(a_terms)
    c_terms = norm_terms(c_terms)
    e_terms = norm_terms(e_terms)
    f_terms = norm_terms(f_terms)
    b_terms = norm_terms(b_terms)
    d_terms = norm_terms(d_terms)
    if nparams is None:
        if domain is not None:
            nparams = domain.nparams
        else:
            keys = [k for t in (a_terms, c_terms, e_terms, f_terms, b_terms, d_terms)
                    for k in t]
            nparams = len(keys[0]) if keys else 1
    domain = domain or BoxDomain.unit(nparams)
    zero = (0,) * nparams
    n = a_terms[zero].shape[0]
    q = c_terms[zero].shape[0]
    p = e_terms[zero].shape[1]
    m = b_terms[zero].shape[1] if b_terms else 0
    return PolynomialLtiSystem(
        A=Poly(nparams, (n, n), a_terms),
        B=Poly(nparams, (n, m), b_terms) if b_terms else Poly.zero(nparams, (n, 0)),
        C=Poly(nparams, (q, n), c_terms),
        D=Poly(nparams, (q, m), d_terms) if d_terms else Poly.zero(nparams, (q, 0)),
        E=Poly(nparams, (n, p), e_terms),
        F=Poly(nparams, (q, p), f_terms),
        domain=domain)


# ---------------------------------------------------------------------------
# polynomial system files: list of term records

def polynomial_system_to_dict(psys):
    alphas = sorted(set().union(*(poly.terms.keys() for poly in
                                  (psys.A, psys.B, psys.C, psys.D, psys.E, psys.F))))
    records = []
    for alpha in alphas:
        rec = {"exponents": list(alpha)}
        for name in ("A", "B", "C", "D", "E", "F"):
            coeff = getattr(psys, name).coeff(alpha)
            if coeff.size and np.any(coeff != 0.0):
                rec[name] = coeff.tolist()
        records.append(rec)
    return {
        "nparams": psys.nparams,
        "n": psys.n, "m": psys.m, "p": psys.p, "q": psys.q,
        "domain_lower": psys.domain.lower.tolist(),
        "domain_upper": psys.domain.upper.tolist(),
        "terms": records,
    }


def polynomial_system_from_dict(doc):
    require_keys(doc, "polynomial system", "nparams", "n", "p", "q", "terms")
    nparams = int(doc["nparams"])
    n, m = int(doc["n"]), int(doc.get("m", 0))
    p, q = int(doc["p"]), int(doc["q"])
    shapes = {"A": (n, n), "B": (n, m), "C": (q, n), "D": (q, m),
              "E": (n, p), "F": (q, p)}
    terms = {name: {} for name in shapes}
    for rec in doc["terms"]:
        require_keys(rec, "polynomial system term", "exponents")
        alpha = tuple(int(a) for a in rec["exponents"])
        for name, shape in shapes.items():
            if name in rec:
                terms[name][alpha] = numlin.shaped(
                    rec[name], f"polynomial system term {alpha} key {name!r}", shape)
    domain = BoxDomain(np.asarray(doc.get("domain_lower", np.zeros(nparams)), dtype=float),
                       np.asarray(doc.get("domain_upper", np.ones(nparams)), dtype=float))
    zero = (0,) * nparams
    for name in shapes:
        terms[name].setdefault(zero, np.zeros(shapes[name]))
    return PolynomialLtiSystem(
        A=Poly(nparams, shapes["A"], terms["A"]),
        B=Poly(nparams, shapes["B"], terms["B"]),
        C=Poly(nparams, shapes["C"], terms["C"]),
        D=Poly(nparams, shapes["D"], terms["D"]),
        E=Poly(nparams, shapes["E"], terms["E"]),
        F=Poly(nparams, shapes["F"], terms["F"]),
        domain=domain)


def write_polynomial_system(psys, path):
    with open(path, "w") as fh:
        json.dump(polynomial_system_to_dict(psys), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_polynomial_system(path):
    with open(path) as fh:
        return polynomial_system_from_dict(json.load(fh))
