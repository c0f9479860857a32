import numpy as np
import pytest

from poslp import ilc, lft
from poslp.cases import poly3_system
from poslp.errors import ClassificationError, DimensionError, DomainError
from poslp.ilc import FreePolynomial, SaturatedStaticGain, TimeVaryingDelay, instantiate


class FakeChannel:
    def __init__(self, n0, delta_structure=None, domain=None):
        self.n0 = n0
        self.delta_structure = delta_structure
        self.domain = domain


def delay_channel(n=1):
    return lft.delay_lft(-np.eye(n), 0.5 * np.eye(n))


def test_constant_delay_single_channel():
    # a constant delay has static gain I: the saturated static-gain template with Delta0 = I
    cset = instantiate(SaturatedStaticGain(np.eye(1)), delay_channel())
    assert len(cset.equalities) == 1
    ((w1, a1, c1), (w2, a2, c2)) = cset.equalities[0]
    assert (w1, c1) == (1, 1.0) and (w2, c2) == (2, 1.0)   # phi1 + phi2 = 0
    assert not cset.ilc_row


def test_time_varying_delay_reduces_to_constant_delay_at_mu_zero():
    tvd = instantiate(TimeVaryingDelay(0.0), delay_channel())
    cd = instantiate(SaturatedStaticGain(np.eye(1)), delay_channel())
    assert tvd.equalities == cd.equalities
    # only the sign restriction phi1 >= 0 remains as a difference
    assert tvd.phi1_lower == 0.0 and cd.phi1_lower is None


def test_time_varying_delay_scaling():
    mu = 0.25
    cset = instantiate(TimeVaryingDelay(mu), delay_channel())
    ((_, _, c1), (_, _, c2)) = cset.equalities[0]
    assert c1 == pytest.approx(1.0 - mu)
    assert c2 == 1.0
    # soundness: phi1 + theta phi2 >= 0 up to the channel gain 1/(1-mu)
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(20):
        phi = rng.uniform(0, 5)
        phi2 = -(1.0 - mu) * phi
        for theta in np.linspace(0.0, 1.0 / (1.0 - mu), 101):
            assert phi + theta * phi2 >= -1e-12


def test_mu_must_be_below_one():
    with pytest.raises(DomainError):
        TimeVaryingDelay(1.0)


def test_saturated_static_gain_heat_channel():
    alpha, beta = 0.7, 0.9
    channel = FakeChannel(1)
    cset = instantiate(SaturatedStaticGain(np.array([[alpha + beta]])), channel)
    ((w1, _, c1), (w2, _, c2)) = cset.equalities[0]
    assert w1 == 1 and c1 == 1.0
    assert w2 == 2 and np.allclose(c2, [[alpha + beta]])
    # feasible pair: phi1 = -(alpha+beta) phi2 saturates the inequality
    phi2 = 3.3
    phi1 = -(alpha + beta) * phi2
    assert phi1 + (alpha + beta) * phi2 == pytest.approx(0.0)


def test_static_gain_must_be_nonnegative():
    with pytest.raises(ClassificationError):
        SaturatedStaticGain(np.array([[-0.1]]))


def test_equal_static_gains_give_identical_sets():
    channel = FakeChannel(2)
    d0 = np.array([[1.0, 0.3], [0.0, 2.0]])
    set_a = instantiate(SaturatedStaticGain(d0), channel)
    set_b = instantiate(SaturatedStaticGain(d0.copy()), channel)
    (row_a,), (row_b,) = set_a.equalities, set_b.equalities
    assert [term[:2] for term in row_a] == [term[:2] for term in row_b]
    assert all(np.array_equal(ca, cb) for (_, _, ca), (_, _, cb) in zip(row_a, row_b))
    assert np.array_equal(row_a[1][2], d0.T)


def test_free_constant_keeps_inequality():
    # free constant scalings are the unsaturated polynomial ones of degree 0
    l = lft.lft_from_polynomial(poly3_system())
    cset = instantiate(FreePolynomial(0, saturated=False), l)
    assert cset.ilc_row
    assert cset.equalities == ()
    assert cset.phi1_degree == 0 and cset.phi2_degree == 0


def test_saturated_polynomial_equalities_on_benchmark_channel():
    l = lft.lft_from_polynomial(poly3_system())
    cset = instantiate(FreePolynomial(2), l)
    assert not cset.ilc_row
    assert cset.phi1_degree == 2 and cset.phi2_degree == 1
    # phi1^0 = 0, phi1^1 = -phi2^0, phi1^2 = -phi2^1 blockwise
    by_alpha = {row[0][1]: row for row in cset.equalities}
    assert len(by_alpha[(0,)]) == 1
    for alpha, prev in (((1,), (0,)), ((2,), (1,))):
        row = by_alpha[alpha]
        assert row[0][:2] == (1, alpha)
        which, a2, coef = row[1]
        assert which == 2 and a2 == prev
        assert np.allclose(coef, np.eye(l.n0))


def test_unsaturated_polynomial_keeps_inequality():
    l = lft.lft_from_polynomial(poly3_system())
    cset = instantiate(FreePolynomial(1, saturated=False), l)
    assert cset.ilc_row
    assert cset.phi1_degree == cset.phi2_degree == 1


def test_saturated_identity_holds_pointwise():
    # any assignment satisfying the saturation equalities zeroes the ILC
    l = lft.lft_from_polynomial(poly3_system())
    cset = instantiate(FreePolynomial(2), l)
    rng = np.random.Generator(np.random.PCG64(6))
    phi2 = {(0,): rng.uniform(-1, 1, l.n0), (1,): rng.uniform(-1, 1, l.n0)}
    phi1 = {(0,): np.zeros(l.n0), (1,): -phi2[(0,)], (2,): -phi2[(1,)]}
    for d in np.linspace(0, 1, 101):
        p1 = phi1[(0,)] + d * phi1[(1,)] + d * d * phi1[(2,)]
        p2 = phi2[(0,)] + d * phi2[(1,)]
        delta = l.delta_structure.eval([d])
        assert np.allclose(p1 + delta.T @ p2, 0.0, atol=1e-12)


@pytest.mark.parametrize("template, channel", [
    (FreePolynomial(2), lambda: lft.lft_from_polynomial(poly3_system())),
    (SaturatedStaticGain(np.array([[1.0, 0.3], [0.0, 2.0]])), lambda: FakeChannel(2)),
    (SaturatedStaticGain(np.eye(3)), lambda: delay_channel(3)),
    (TimeVaryingDelay(0.25), lambda: delay_channel(3)),
])
def test_equality_coefficients_are_channel_matrices(template, channel):
    # every coefficient is an n0 x n0 float matrix, 1 as I and c as c I, so
    # the robust assembler adds them as they are
    cset = instantiate(template, channel())
    coefs = [coef for row in cset.equalities for (_, _, coef) in row]
    assert coefs and cset.n0 > 1
    for coef in coefs:
        assert isinstance(coef, np.ndarray) and coef.dtype == float
        assert coef.shape == (cset.n0, cset.n0)


@pytest.mark.parametrize("template, channel, message", [
    ("const", delay_channel, "unknown scaling template 'const'"),
    (SaturatedStaticGain(np.eye(2)), delay_channel, "Delta0 must be 1 x 1, got (2, 2)"),
    (FreePolynomial(1), delay_channel, "saturated polynomial scalings need Delta(delta)"),
], ids=["unknown_template", "delta0_shape", "saturated_on_a_delay"])
def test_instantiate_refuses_a_template_the_channel_cannot_take(template, channel, message):
    # a delay channel has one loop signal and no Delta(delta) to saturate against
    with pytest.raises(DimensionError) as err:
        instantiate(template, channel())
    assert str(err.value) == message
