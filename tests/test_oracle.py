"""The batched M-matrix frozen-parameter oracle against the paper's LP test
and against per-point reference loops."""

import json

import numpy as np
import pytest

from poslp import cli, gains, numlin, robust, sysmodel
from poslp.cases import gene_expression_system, poly3_system
from poslp.errors import SingularMatrixError, StabilityError, ValidationError
from poslp.lpcore import lp_to_text
from poslp.poly import BoxDomain, Poly, polynomial_system
from poslp.sysmodel import PositiveLtiSystem


def _oracle_hurwitz(a):
    return bool(sysmodel.mmatrix_hurwitz(np.asarray(a, dtype=float)[None])[0][0])


def _random_metzler(rng, n, density=1.0, scale=1.0):
    a = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(0.0, 1.0, (n, n)) < density)
    np.fill_diagonal(a, rng.uniform(-2.0, 0.0, n))
    return scale * a


def _reducible(rng, n):
    """Metzler matrix that is block triangular up to a permutation."""
    a = _random_metzler(rng, n)
    cut = int(rng.integers(1, n))
    a[:cut, cut:] = 0.0
    perm = rng.permutation(n)
    return a[perm][:, perm]


def _shifted(a, margin):
    """a - (alpha(a) + margin) I, Hurwitz iff margin > 0; margin is relative
    to the largest entry of a."""
    alpha = np.max(np.linalg.eigvals(a).real)
    return a - (alpha + margin * np.abs(a).max()) * np.eye(a.shape[0])


KINDS = {
    "dense": lambda rng, n: _random_metzler(rng, n),
    "sparse": lambda rng, n: _random_metzler(rng, n, density=0.3),
    "reducible": _reducible,
    "scaled": lambda rng, n: _random_metzler(rng, n, scale=10.0 ** rng.uniform(-3, 3)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("margin", [0.5, 1e-2, 1e-4, -1e-4, -1e-2, -0.5])
def test_mmatrix_oracle_agrees_with_lp(kind, margin):
    rng = np.random.Generator(np.random.PCG64(
        [sorted(KINDS).index(kind), int(abs(margin) * 1e6), int(margin > 0)]))
    for _ in range(12):
        n = int(rng.integers(2, 9))
        a = _shifted(KINDS[kind](rng, n), margin)
        assert not sysmodel.negative_entries(a, 1e-12, off_diagonal=True).any()
        lp = sysmodel.metzler_stable(a, tol=1e-12)
        assert _oracle_hurwitz(a) == lp == (margin > 0)


@pytest.mark.parametrize("a", [
    [[-1.0, 1.0], [1.0, -1.0]],
    [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]],
    [[0.0, 0.0], [1.0, -1.0]],
    [[-2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 3.0, -1.0]],
    [[0.0]],
])
def test_singular_metzler_is_not_hurwitz(a):
    assert not sysmodel.metzler_stable(a)
    assert not _oracle_hurwitz(a)
    sys_a = PositiveLtiSystem(A=a, B=None, C=np.ones((1, len(a))), D=None,
                              E=np.ones((len(a), 1)), F=np.zeros((1, 1)))
    with pytest.raises(StabilityError):
        sysmodel.static_gain(sys_a)


@pytest.mark.parametrize("a, hurwitz", [
    ([[-1e-6, 0.0], [0.0, 1.0]], False),
    ([[-1.0, 0.0], [1e-3, 1e-6]], False),
    ([[-1e-6, 0.0], [0.0, -1e6]], True),
    ([[-1e-3, 0.0], [1.0, -1e3]], True),
])
def test_badly_scaled_blocks(a, hurwitz):
    assert sysmodel.metzler_stable(a) == hurwitz
    assert _oracle_hurwitz(a) == hurwitz


def test_stack_verdicts_equal_single_verdicts():
    rng = np.random.Generator(np.random.PCG64(7))
    mats = [_shifted(_reducible(rng, 4), m) for m in (0.3, -0.3, 1e-3, -1e-3) * 5]
    mats.append(np.array([[-1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0],
                          [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]))
    hurwitz, cond = sysmodel.mmatrix_hurwitz(np.array(mats))
    assert list(hurwitz) == [_oracle_hurwitz(a) for a in mats]
    assert list(hurwitz) == [sysmodel.metzler_stable(a) for a in mats]
    # the condition number is np.linalg.cond(a, 1)'s, bit for bit
    assert np.array_equal(cond, [np.linalg.cond(a, 1) for a in mats])
    assert cond[-1] == np.inf


def test_ill_conditioned_gain_refused_like_numlin_solve():
    a = np.diag([-1.0, -1e-13])
    s = PositiveLtiSystem(A=a, B=None, C=np.ones((1, 2)), D=None,
                          E=np.ones((2, 1)), F=np.zeros((1, 1)))
    with pytest.raises(SingularMatrixError) as want:
        numlin.solve(a, s.E)
    with pytest.raises(SingularMatrixError) as got:
        sysmodel.static_gain(s)
    assert str(got.value) == str(want.value)
    assert got.value.condition == want.value.condition


def test_static_gain_matches_lu_formula_bitwise():
    for seed in range(20):
        s = sysmodel.random_positive_system(6, 0, 3, 2, seed)
        want = s.F - s.C @ numlin.solve(s.A, s.E)
        assert np.array_equal(sysmodel.static_gain(s), want)
        l1, linf = sysmodel.oracle_gains(s)
        assert l1 == float(np.max(want.sum(axis=0)))
        assert linf == float(np.max(want.sum(axis=1)))


# ---------------------------------------------------------------------------
# stacked polynomial evaluation

@pytest.mark.parametrize("nparams", [1, 2, 3])
def test_eval_many_equals_eval_loop_bitwise(nparams):
    rng = np.random.Generator(np.random.PCG64(100 + nparams))
    terms = {}
    for _ in range(8):
        alpha = tuple(int(x) for x in rng.integers(0, 5, nparams))
        terms[alpha] = rng.standard_normal((3, 2))
    poly = Poly(nparams, (3, 2), terms)
    points = rng.uniform(-2.0, 2.0, (257, nparams))
    got = poly.eval_many(points)
    assert got.shape == (257, 3, 2)
    assert np.array_equal(got, np.array([poly.eval(x) for x in points]))


def test_frozen_stack_equals_frozen_at_bitwise():
    psys = poly3_system()
    grid = np.arange(0.0, 1.0005, 0.001)[:, None]
    stack = psys.frozen_stack(grid)
    for g in range(0, len(grid), 37):
        frozen = psys.frozen_at(grid[g])
        for name, mats in zip("ABCDEF", stack):
            assert np.array_equal(mats[g], getattr(frozen, name))


def test_eval_many_rejects_bad_point_shape():
    with pytest.raises(Exception, match="points must be"):
        Poly(2, (), {(1, 0): 1.0}).eval_many(np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# batched grid verdict against the point-by-point sweep it replaced

def _reference_sweep(psys, gamma, which, points, k=None):
    """Point by point: positivity (tol 1e-9), the stability LP, numlin.solve."""
    loop = "" if k is None else "closed loop "
    worst, worst_point = -np.inf, None
    for delta in robust.certification_grid(psys.domain, points):
        s = psys.frozen_at(delta)
        a, c = (s.A, s.C) if k is None else (s.A + s.B @ k, s.C + s.D @ k)
        cl = PositiveLtiSystem(A=a, B=None, C=c, D=None, E=s.E, F=s.F)
        if not sysmodel.classify(cl, tol=1e-9).is_positive:
            return False, np.nan, delta, f"{loop}not positive at {delta}"
        if not sysmodel.metzler_stable(cl.A, tol=1e-9):
            return False, np.nan, delta, f"{loop}not Hurwitz at {delta}"
        h0 = cl.F - cl.C @ numlin.solve(cl.A, cl.E)
        val = float(np.max(h0.sum(axis=0 if which == "l1" else 1)))
        if val > worst:
            worst, worst_point = val, delta
    return robust._bound_ok(worst, gamma), worst, worst_point, None


def _assert_same(verdict, reference):
    ok, worst, point, failure = reference
    assert verdict.ok == ok
    assert verdict.failure == failure
    assert np.array_equal(verdict.max_oracle, worst, equal_nan=True)
    assert np.array_equal(verdict.worst_point, point)


def _one_param(a_terms, b_terms=None):
    n = a_terms[0].shape[0]
    return polynomial_system(
        a_terms=a_terms, c_terms={0: np.eye(n)}, e_terms={0: np.ones((n, 1))},
        f_terms={0: np.zeros((n, 1))}, b_terms=b_terms,
        d_terms={0: np.zeros((n, n))} if b_terms else None,
        domain=BoxDomain.unit(1))


LEAKY = _one_param({0: np.array([[-3.0, 1.0], [1.0, -3.0]]),
                    1: np.array([[0.0, -2.0], [0.0, 0.0]])})
UNSTABLE = _one_param({0: np.array([[-1.0, 0.5], [0.5, -1.0]]),
                       1: np.array([[2.0, 0.0], [0.0, 0.0]])})
FLAT = _one_param({0: np.array([[-3.0, 1.0], [1.0, -3.0]])})
PLANT = _one_param({0: np.array([[-2.0, 1.0], [1.0, -2.0]]),
                    1: np.array([[1.0, 0.0], [0.0, 0.0]])}, b_terms={0: np.eye(2)})


@pytest.mark.parametrize("psys, gamma, which, points", [
    (poly3_system(), 92.9, "l1", 101),
    (poly3_system(), 92.0, "l1", 1001),
    (poly3_system(), 83.0, "linf", 101),
    (gene_expression_system(0.3), 5.31, "linf", 125),
    (gene_expression_system(0.3), 5.0, "l1", 30),
    (LEAKY, 10.0, "l1", 101),
    (UNSTABLE, 10.0, "linf", 101),
    (FLAT, 0.1, "l1", 11),
])
def test_grid_gain_verdict_matches_reference_loop(psys, gamma, which, points):
    verdict = robust.grid_certify_gain(psys, gamma, which, points)
    _assert_same(verdict, _reference_sweep(psys, gamma, which, points))
    assert verdict.points == len(robust.certification_grid(psys.domain, points))


def test_grid_failures_name_the_first_failing_point():
    assert robust.grid_certify_gain(LEAKY, 10.0, "l1", 101).failure == \
        "not positive at [0.51]"
    assert robust.grid_certify_gain(UNSTABLE, 10.0, "l1", 101).failure == \
        "not Hurwitz at [0.38]"


@pytest.mark.parametrize("k, expect", [
    (-0.5 * np.eye(2), None),
    (np.array([[0.0, -1.5], [0.0, 0.0]]), "closed loop not positive at [0.]"),
    (0.5 * np.eye(2), "closed loop not Hurwitz at [0.84]"),
])
def test_grid_synthesis_verdict_matches_reference_loop(k, expect):
    verdict = robust.grid_certify_synthesis(PLANT, k, 3.0, points=101)
    _assert_same(verdict, _reference_sweep(PLANT, 3.0, "linf", 101, k))
    assert verdict.failure == expect


def test_empty_grid_certifies_nothing():
    verdict = robust.grid_certify_gain(poly3_system(), 1.0, "l1", points=0)
    assert verdict.ok and verdict.points == 0 and verdict.max_oracle == -np.inf


@pytest.mark.parametrize("psys", [poly3_system(), gene_expression_system(0.3)])
def test_negative_grid_is_refused(psys):
    with pytest.raises(ValidationError, match="points >= 0, got -1"):
        robust.certification_grid(psys.domain, -1)
    with pytest.raises(ValidationError):
        robust.grid_certify_gain(psys, 1.0, "l1", points=-1)


@pytest.mark.parametrize("nparams, top", [(1, 12), (2, 12), (3, 12), (4, 12), (6, 5), (7, 4)])
def test_perfect_power_grid_keeps_every_point(nparams, top):
    # k ** N points sweep k per axis, though the float N-th root of k ** N may
    # fall short of k (N = 3, 6, 7 from k = 4); N = 6, 7 stop at a mesh of
    # under 20,000 points
    for k in range(2, top + 1):
        assert len(robust.certification_grid(BoxDomain.unit(nparams), k ** nparams)) == k ** nparams
    assert len(robust.certification_grid(BoxDomain.unit(3), 999)) == 729
    assert len(robust.certification_grid(BoxDomain.unit(3), 1001)) == 1000


@pytest.mark.parametrize("nparams", [2, 3, 4, 5, 6])
def test_certification_grid_is_an_array_holding_every_vertex(nparams):
    rng = np.random.Generator(np.random.PCG64(40 + nparams))
    for _ in range(20):
        scale = 10.0 ** rng.uniform(-300, 12)
        lower = scale * rng.uniform(-1, 1, nparams)
        upper = np.where(rng.uniform(size=nparams) < 0.3, np.nextafter(lower, np.inf),
                         lower + scale * rng.uniform(0.01, 2, nparams))
        domain = BoxDomain(lower, upper)
        points = int(rng.integers(1, 2000))
        grid = robust.certification_grid(domain, points)
        assert isinstance(grid, np.ndarray) and grid.dtype == float
        assert grid.ndim == 2 and grid.shape[1] == nparams
        rows = {tuple(p) for p in grid}
        assert all(tuple(v) in rows for v in domain.vertices())


# ---------------------------------------------------------------------------
# smaller satellites

def test_metzler_violations_in_row_major_order():
    rng = np.random.Generator(np.random.PCG64(3))
    m = rng.standard_normal((7, 5))
    want = [((i, j), float(m[i, j])) for i in range(7) for j in range(5)
            if i != j and m[i, j] < -0.1]
    mask = sysmodel.negative_entries(m, 0.1, off_diagonal=True)
    assert [((int(i), int(j)), float(m[i, j])) for i, j in np.argwhere(mask)] == want


def test_gain_builds_its_lp_once_and_dumps_the_solved_one(tmp_path, monkeypatch, capsys):
    path = tmp_path / "sys.json"
    sysmodel.write_system(sysmodel.random_positive_system(5, 0, 2, 2, 11), path)
    built, solved = [], []
    build, solve = gains._assemble_gain, robust.solve_lp
    monkeypatch.setattr(gains, "_assemble_gain", lambda *a: built.append(build(*a)) or built[-1])
    monkeypatch.setattr(robust, "solve_lp", lambda lp: solved.append(lp) or solve(lp))
    dump = tmp_path / "lp.txt"
    assert cli.main(["gain", str(path), "--norm", "l1", "--dump-lp", str(dump),
                     "--format", "structured"]) == 0
    assert len(built) == 1 and len(solved) == 1
    assert lp_to_text(solved[0]) == lp_to_text(built[0].builder.build())
    assert dump.read_text() == lp_to_text(solved[0])
    assert json.loads(capsys.readouterr().out)["status"] == "optimal"
