import math

import numpy as np
import pytest

from hypfrac.expressions import (
    Interval,
    X,
    add,
    build_exp,
    compose_affine,
    constant,
    cosh_centered,
    power_of,
    scaled,
)
from hypfrac.fractional import (
    Family,
    FracParams,
    Side,
    exp_left,
    exp_right,
    exp_unit_left,
    fractional_integral,
    kernel_mass,
    rl_left,
    rl_monomial_left,
    rl_right,
)
from hypfrac.campaign import CampaignConfig, _draw

ONE = constant(1.0)


def shifted_monomial(k, a):
    return power_of(compose_affine(X, 1.0, -a), float(k))


def test_rl_left_examples():
    I = Interval(0.0, 1.0)
    assert rl_left(ONE, I, 0.5, 1.0) == pytest.approx(2.0 / math.sqrt(math.pi),
                                                      rel=1e-11)
    assert rl_left(ONE, I, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert rl_left(X, I, 0.5, 1.0) == pytest.approx(
        math.gamma(2.0) / math.gamma(2.5), rel=1e-11)


def test_rl_right_examples():
    I = Interval(0.0, 1.0)
    assert rl_right(ONE, I, 0.5, 0.0) == pytest.approx(2.0 / math.sqrt(math.pi),
                                                       rel=1e-11)
    assert rl_right(ONE, I, 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    one_minus_x = add(constant(1.0), scaled(-1.0, X))
    assert rl_right(one_minus_x, I, 0.5, 0.0) == pytest.approx(
        math.gamma(2.0) / math.gamma(2.5), rel=1e-11)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.5])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_rl_monomial_oracle(alpha, k):
    a, b = 0.3, 1.9
    I = Interval(a, b)
    f = shifted_monomial(k, a)
    for t in (0.8, b):
        expected = rl_monomial_left(k, a, alpha, t)
        assert rl_left(f, I, alpha, t) == pytest.approx(expected, rel=1e-9)


def test_exp_left_examples():
    I = Interval(0.0, 1.0)
    assert exp_left(ONE, I, 0.5, 1.0) == pytest.approx(2.0 * (1 - math.exp(-1)),
                                                       rel=1e-12)
    assert exp_left(ONE, I, 0.9, 0.0) == 0.0  # empty integral at t == a
    es = build_exp(1.0)
    assert exp_left(es, I, 0.5, 1.0) == pytest.approx(
        (math.e ** 2 - 1.0) / math.e, rel=1e-12)


def test_exp_right_examples():
    I = Interval(0.0, 1.0)
    assert exp_right(ONE, I, 0.5, 0.0) == pytest.approx(2.0 * (1 - math.exp(-1)),
                                                        rel=1e-12)
    assert exp_right(ONE, I, 0.5, 1.0) == 0.0  # empty integral at t == b
    em = build_exp(-1.0)
    assert exp_right(em, I, 0.5, 0.0) == pytest.approx(1.0 - math.exp(-2.0),
                                                       rel=1e-12)


def test_exp_unit_closed_form_matches():
    a, alpha, t = 0.2, 0.7, 1.4
    got = exp_left(ONE, Interval(a, 2.0), alpha, t)
    assert got == pytest.approx(exp_unit_left(a, alpha, t), rel=1e-12)


def _small_alpha(alpha):
    """A small alpha whose integral is known to come out wrong while its
    error estimate stays near round-off (ROADMAP item 10)."""
    return pytest.param(alpha, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 10: a small alpha fails silently")))


@pytest.mark.parametrize("alpha", [1e-3, _small_alpha(1e-5), _small_alpha(1e-8),
                                   _small_alpha(1e-12)])
def test_rl_unit_integral_at_a_small_alpha(alpha):
    # the Gauss-Jacobi rule is handed beta = alpha - 1 and forms 1 + beta,
    # which loses alpha's relative precision
    got = rl_left(ONE, Interval(0.0, 1.0), alpha, 1.0)
    assert got == pytest.approx(rl_monomial_left(0, 0.0, alpha, 1.0), rel=1e-12)


@pytest.mark.parametrize("alpha", [1e-3, _small_alpha(1e-4), _small_alpha(1e-5)])
def test_exp_unit_integral_at_a_small_alpha(alpha):
    # at lambda * L of about 1e4 and above, both Legendre rules miss the
    # kernel's boundary layer, agree within abs_tol and accept a value near 0
    got = exp_left(ONE, Interval(0.0, 1.0), alpha, 1.0)
    assert got == pytest.approx(exp_unit_left(0.0, alpha, 1.0), rel=1e-12)


def test_linearity():
    I = Interval(0.0, 1.5)
    f = cosh_centered(1.2, 0.4)
    g = build_exp(-0.7)
    combo = add(scaled(2.5, f), scaled(-1.25, g))
    for op, t in ((rl_left, 1.5), (rl_right, 0.0)):
        lhs = op(combo, I, 0.6, t)
        rhs = 2.5 * op(f, I, 0.6, t) - 1.25 * op(g, I, 0.6, t)
        assert lhs == pytest.approx(rhs, rel=1e-10)
    for op, t in ((exp_left, 1.5), (exp_right, 0.0)):
        lhs = op(combo, I, 0.6, t)
        rhs = 2.5 * op(f, I, 0.6, t) - 1.25 * op(g, I, 0.6, t)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_reflection():
    a, b = 0.25, 1.75
    I = Interval(a, b)
    f = add(cosh_centered(0.9, 0.5), scaled(0.4, build_exp(1.1)))
    reflected = compose_affine(f, -1.0, a + b)  # x -> f(a + b - x)
    for alpha in (0.5, 1.3):
        assert rl_left(f, I, alpha, b) == pytest.approx(
            rl_right(reflected, I, alpha, a), rel=1e-10)
    assert exp_left(f, I, 0.5, b) == pytest.approx(
        exp_right(reflected, I, 0.5, a), rel=1e-10)


def test_alpha_to_one_limit():
    from hypfrac.quadrature import integrate

    I = Interval(0.2, 1.4)
    f = add(cosh_centered(1.5, 0.8), build_exp(0.5))
    plain = integrate(f, I).value
    assert abs(rl_left(f, I, 1.0 - 1e-6, I.b) - plain) <= 1e-4


def test_rl_alpha_above_one_converges_on_campaign_instances():
    # RL alpha=1.5 of u*v used to exhaust its subdivision budget on most
    # generated instances: the weight (x-a)**0.5 is not smooth at the endpoint
    cfg = CampaignConfig(seed=42)
    params = FracParams(1.5, Family.RL)
    for index in range(20):
        u, interval, _, w = _draw(cfg, index)
        uv = lambda x, u=u, v=w.v: u.eval(x) * v.eval(x)
        for side, t in ((Side.LEFT, interval.b), (Side.RIGHT, interval.a)):
            res = fractional_integral(uv, interval, params, side, t)
            assert res.converged, (index, side)
            assert math.isfinite(res.value) and res.value > 0


def test_validation_errors():
    I = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        FracParams(-1.0, Family.RL)
    with pytest.raises(ValueError, match="alpha must be positive for family rl"):
        FracParams(-1.0, Family.RL)
    with pytest.raises(ValueError):
        FracParams(1.0, Family.EXP)
    with pytest.raises(ValueError):
        rl_left(ONE, I, 0.5, 0.0)  # t == a is empty for the left operator
    with pytest.raises(ValueError):
        rl_right(ONE, I, 0.5, 1.0)
    with pytest.raises(ValueError):
        rl_left(ONE, I, 0.5, 1.5)  # outside the interval
    with pytest.raises(ValueError):
        fractional_integral(ONE, I, FracParams(0.5, Family.EXP), Side.LEFT, -0.1)


def test_rl_alpha_range_ends_where_gamma_of_alpha_plus_one_overflows():
    # Gamma(alpha+1) of the kernel mass overflows a double above 170.6244
    kernel = FracParams(170.62, Family.RL)
    assert math.isfinite(kernel_mass(Interval(0.0, 1.0), kernel))
    with pytest.raises(ValueError, match=r"^alpha 170\.63 is out of range for "
                       r"family rl: Gamma\(alpha\+1\) overflows a double$"):
        FracParams(170.63, Family.RL)


@pytest.mark.parametrize("length,alpha", [
    (100.0, 170.0),   # L**alpha overflows a double
    (2.0 ** 1023, 1.0),  # L**alpha is finite, 2 * L**alpha is not
])
def test_rl_mass_that_overflows_is_nan(length, alpha):
    # as inf, a finite moment over the mass would read as a MID of 0
    assert math.isnan(kernel_mass(Interval(0.0, length), FracParams(alpha, Family.RL)))
    assert math.isfinite(kernel_mass(Interval(0.0, 1.0), FracParams(alpha, Family.RL)))


def test_family_must_be_a_family():
    # not a Family: kernel_parts would integrate it as the exponential kernel
    for family in ("rl", None):
        with pytest.raises(ValueError, match="unknown kernel family"):
            FracParams(0.5, family)
