"""Multivariate polynomials with vector/matrix coefficients on a box domain.

Coefficients are dense ndarrays keyed by exponent tuple; zero coefficients
are never stored.  A single global graded-lexicographic monomial order (total
degree ascending, lexicographically descending within a degree) keeps every
coefficient-matching matrix reproducible across runs.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import DimensionError, ValidationError, require_keys, require_sizes, require_whole
from .sysmodel import PositiveLtiSystem


def monomials(nparams, max_degree):
    """All exponent tuples with total degree <= max_degree, graded-lex order."""
    if nparams == 0:
        return [()]
    return [t for deg in range(max_degree + 1) for t in _compositions(nparams, deg)]


def _compositions(nparams, deg):
    """The exponent tuples of total degree `deg`, lexicographically descending."""
    if nparams == 1:
        return [(deg,)]
    return [(a,) + rest for a in range(deg, -1, -1)
            for rest in _compositions(nparams - 1, deg - a)]


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
            if not np.isfinite(arr).all():
                raise ValidationError(f"coefficient {alpha} has non-finite entries")
            if arr.size and np.any(arr != 0.0):
                clean[alpha] = arr
        self.terms = clean

    @classmethod
    def _made(cls, nparams, shape, terms):
        """The Poly of terms this module computed, float coefficients of
        `shape` under valid exponent tuples: zero terms are dropped, nothing
        else is checked again."""
        out = cls.__new__(cls)
        out.nparams, out.shape = nparams, shape
        out.terms = {a: np.asarray(c) for a, c in terms.items() if (c != 0.0).any()}
        return out

    @classmethod
    def constant(cls, value, nparams):
        arr = np.asarray(value, dtype=float)
        return cls(nparams, arr.shape, {(0,) * nparams: arr})

    @classmethod
    def zero(cls, nparams, shape):
        return cls(nparams, shape, {})

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
        return Poly._made(self.nparams, self.shape, terms)

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
    return Poly._made(p.nparams, shape, terms)


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
        """Full mesh, `points_per_param` per coordinate: a (G, N) array, the last axis fastest."""
        return _mesh([np.linspace(lo, up, points_per_param)
                      for lo, up in zip(self.lower, self.upper)])

    def vertices(self):
        """The 2 ** N corners, a (2 ** N, N) array in the order of `grid(2)`."""
        return _mesh(list(zip(self.lower, self.upper)))


def _mesh(axes):
    """Every combination of one value per axis, one row each; one empty row for no axes."""
    if not axes:
        return np.zeros((1, 0))
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))


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

    def on_unit_box(self):
        """The same system in theta on [0, 1]^N, delta = lower + (upper - lower)
        theta; `self` when the box is already the unit box."""
        lower, width = self.domain.lower, self.domain.upper - self.domain.lower
        if not lower.any() and np.all(width == 1.0):
            return self
        n = self.nparams
        forms = [Poly(n, (), {(0,) * n: lower[k], alpha: width[k]})
                 for k, alpha in enumerate(monomials(n, 1)[1:])]

        def substitute(poly):
            out = Poly.zero(n, poly.shape)
            for alpha, coeff in poly.terms.items():
                term = Poly.constant(coeff, n)
                for k in np.repeat(np.arange(n), alpha):
                    term = poly_mul(forms[k], term)
                out = out + term
            return out
        return PolynomialLtiSystem(*(substitute(getattr(self, name)) for name in "ABCDEF"),
                                   domain=BoxDomain.unit(n))


def _system(nparams, shapes, terms, domain):
    """The PolynomialLtiSystem whose matrix `name` has the coefficient shape
    `shapes[name]` and the {exponent tuple: matrix} terms `terms[name]`."""
    return PolynomialLtiSystem(*(Poly(nparams, shapes[name], terms[name]) for name in "ABCDEF"),
                               domain=domain)


def polynomial_system(a_terms, c_terms, e_terms, f_terms, b_terms=None, d_terms=None,
                      domain=None):
    """Build a PolynomialLtiSystem from {exponent tuple: matrix} maps.

    Single-parameter systems may use integer exponents as keys."""
    terms = {}
    for name, given in zip("ACEFBD", (a_terms, c_terms, e_terms, f_terms, b_terms, d_terms)):
        terms[name] = {(alpha,) if isinstance(alpha, int) else tuple(alpha):
                       np.asarray(mat, dtype=float) for alpha, mat in (given or {}).items()}
    if domain is None:
        keys = [alpha for given in terms.values() for alpha in given]
        domain = BoxDomain.unit(len(keys[0]) if keys else 1)
    zero = (0,) * domain.nparams
    n, q, p = terms["A"][zero].shape[0], terms["C"][zero].shape[0], terms["E"][zero].shape[1]
    m = terms["B"][zero].shape[1] if terms["B"] else 0
    shapes = {"A": (n, n), "B": (n, m), "C": (q, n), "D": (q, m if terms["D"] else 0),
              "E": (n, p), "F": (q, p)}
    return _system(domain.nparams, shapes, terms, domain)


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
    nparams, n, m, p, q = require_sizes(doc, "polynomial system", "nparams", "n", "m", "p", "q")
    shapes = {"A": (n, n), "B": (n, m), "C": (q, n), "D": (q, m),
              "E": (n, p), "F": (q, p)}
    terms = {name: {} for name in shapes}
    records = doc["terms"]
    if not (isinstance(records, list) and all(isinstance(rec, dict) for rec in records)):
        raise ValidationError(f"polynomial system key 'terms' is {records!r}, "
                              "not a list of term objects")
    for rec in records:
        require_keys(rec, "polynomial system term", "exponents")
        exponents = rec["exponents"]
        if not isinstance(exponents, list):
            raise ValidationError(f"polynomial system term exponents {exponents!r} are not a list")
        alpha = tuple(require_whole(a, "polynomial system term exponent") for a in exponents)
        for name, shape in shapes.items():
            if name in rec:
                terms[name][alpha] = numlin.shaped(
                    rec[name], f"polynomial system term {alpha} key {name!r}", shape)
    box = [doc.get("domain_lower", [0.0] * nparams), doc.get("domain_upper", [1.0] * nparams)]
    if not all(isinstance(bound, list) and len(bound) == nparams
               and all(type(x) in (int, float) for x in bound) for bound in box):
        raise ValidationError(f"polynomial system box {box[0]!r} to {box[1]!r} is not "
                              f"two lists of {nparams} numbers")
    return _system(nparams, shapes, terms,
                   BoxDomain(*(np.array(bound, dtype=float) for bound in box)))


def write_polynomial_system(psys, path):
    with open(path, "w") as fh:
        json.dump(polynomial_system_to_dict(psys), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_polynomial_system(path):
    with open(path) as fh:
        return polynomial_system_from_dict(json.load(fh))
