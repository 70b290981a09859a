import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypfrac.expressions import Interval
from hypfrac.quadrature import (
    DEFAULT_QUAD,
    Endpoint,
    QuadConfig,
    QuadResult,
    _gauss_jacobi,
    gauss_kronrod_nodes,
    integrate,
    integrate_cells,
    integrate_singular,
)

TIGHT = QuadConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)


def test_nodes_and_weights_are_consistent():
    xgk, wgk, wg = gauss_kronrod_nodes()
    assert xgk.shape == (15,)
    assert np.all(np.diff(xgk) > 0)
    assert wgk.sum() == pytest.approx(2.0, abs=1e-14)
    assert wg.sum() == pytest.approx(2.0, abs=1e-14)
    # both rules integrate x^2 on [-1, 1] exactly
    assert (wgk @ xgk**2) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert (wg @ xgk**2) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_constant():
    res = integrate(lambda x: np.ones_like(x), Interval(0.0, 1.0))
    assert res.value == pytest.approx(1.0, abs=1e-15)
    assert res.converged


def test_shifted_cosh():
    res = integrate(lambda x: np.cosh(x - 0.5), Interval(0.0, 1.0))
    assert res.value == pytest.approx(2.0 * math.sinh(0.5), rel=1e-13)


def test_odd_about_midpoint_vanishes():
    res = integrate(lambda x: np.sinh(x - 0.5), Interval(0.0, 1.0))
    assert abs(res.value) < 1e-13


@pytest.mark.parametrize("degree", range(14))
def test_polynomial_exact_on_single_panel(degree):
    res = integrate(lambda x, d=degree: x**d, Interval(0.0, 2.0), TIGHT)
    exact = 2.0 ** (degree + 1) / (degree + 1)
    assert res.subdivisions_used == 0
    assert res.value == pytest.approx(exact, rel=5e-15)


def test_degree_22_polynomial_exact_value():
    # the Kronrod rule is exact through degree 22 even when the error
    # estimate (difference to the degree-13 Gauss rule) forces a split
    res = integrate(lambda x: x**22, Interval(0.0, 1.0), TIGHT)
    assert res.value == pytest.approx(1.0 / 23.0, rel=1e-13)


@given(a=st.floats(-2.0, 0.5), width=st.floats(0.3, 3.0), q=st.floats(0.1, 2.0))
@settings(max_examples=50, deadline=None)
def test_even_function_splits_at_midpoint(a, width, q):
    b = a + width
    m = 0.5 * (a + b)
    f = lambda x: np.cosh(q * (x - m)) + (x - m) ** 2
    whole = integrate(f, Interval(a, b), TIGHT).value
    half = integrate(f, Interval(m, b), TIGHT).value
    assert whole == pytest.approx(2.0 * half, rel=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_singular_weight_oracle_left(k, alpha):
    # integral of x^k * x^(alpha-1) over [0, 1] is 1/(k + alpha)
    res = integrate_singular(lambda x, k=k: x**k, Interval(0.0, 1.0), alpha,
                             Endpoint.LEFT, TIGHT)
    assert res.value == pytest.approx(1.0 / (k + alpha), rel=1e-10)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_singular_weight_oracle_right(k, alpha):
    # integral of x^k * (1-x)^(alpha-1) over [0, 1] is the Beta integral
    res = integrate_singular(lambda x, k=k: x**k, Interval(0.0, 1.0), alpha,
                             Endpoint.RIGHT, TIGHT)
    exact = math.gamma(k + 1) * math.gamma(alpha) / math.gamma(k + 1 + alpha)
    assert res.value == pytest.approx(exact, rel=1e-10)


def test_singular_alpha_one_is_plain():
    res = integrate_singular(lambda x: np.exp(x), Interval(0.0, 1.0), 1.0,
                             Endpoint.LEFT, TIGHT)
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-12)


def test_singular_alpha_above_one():
    # integral of x^(0.5) over [0, 1]: weight continuous, no substitution
    res = integrate_singular(lambda x: np.ones_like(x), Interval(0.0, 1.0), 1.5,
                             Endpoint.LEFT, TIGHT)
    assert res.value == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_singular_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        integrate_singular(lambda x: x, Interval(0.0, 1.0), 0.0, Endpoint.LEFT)
    with pytest.raises(ValueError):
        integrate_singular(lambda x: x, Interval(0.0, 1.0), -0.5, Endpoint.LEFT)


def test_budget_exhaustion_is_flagged_not_raised():
    cfg = QuadConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3)
    res = integrate(lambda x: np.abs(x - 1.0 / 3.0) ** 0.3, Interval(0.0, 1.0), cfg)
    assert not res.converged
    assert math.isfinite(res.value)
    assert res.error_estimate >= 0.0


def test_error_estimate_bounds_true_error():
    res = integrate(lambda x: np.exp(3.0 * x), Interval(0.0, 1.0), DEFAULT_QUAD)
    true = (math.exp(3.0) - 1.0) / 3.0
    assert abs(res.value - true) <= max(res.error_estimate, 1e-13)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadResult(1.0, -1.0, 0)


# ---------------------------------------------------------------------------
# fixed Gauss-Jacobi front

def _jacobi_moment(k, beta):
    """Integral of t**k * (1+t)**beta over [-1, 1].  Expanding t = (1+t) - 1
    gives a sum of Beta integrals 2**(j+beta+1) / (j+beta+1); it is summed in
    exact rationals because its terms cancel far past double precision."""
    b = Fraction(beta)
    total = sum(Fraction(math.comb(k, j) * (-1) ** (k - j) * 2 ** j) / (j + b + 1)
                for j in range(k + 1))
    return float(total) * 2.0 ** (beta + 1.0)


@pytest.mark.parametrize("beta", [-0.7, -0.5, -0.2, 0.0, 0.5])
@pytest.mark.parametrize("n", [1, 5, 20, 40])
def test_gauss_jacobi_rule_exact_below_degree_2n(n, beta):
    nodes, weights = _gauss_jacobi(n, beta)
    assert nodes.shape == weights.shape == (n,)
    assert np.all(np.diff(nodes) > 0) and np.all(np.abs(nodes) < 1.0)
    assert np.all(weights > 0)
    mu0 = 2.0 ** (beta + 1.0) / (beta + 1.0)
    for k in range(2 * n):
        assert abs(weights @ nodes**k - _jacobi_moment(k, beta)) <= 1e-14 * mu0


def _rising_series(z, alpha):
    """sum_m z**m / (alpha (alpha+1) ... (alpha+m)); times exp(-z) this is
    the integral of exp(-z*s) * s**(alpha-1) over [0, 1]."""
    terms, t = [], 1.0 / alpha
    for m in range(300):
        terms.append(t)
        t *= z / (alpha + m + 1)
    return math.fsum(terms)


def _exp_left_series(z, alpha):
    """sum_m z**m / (m! (m+alpha)), the integral of exp(z*s) * s**(alpha-1)
    over [0, 1]."""
    terms, t = [], 1.0
    for m in range(300):
        terms.append(t / (m + alpha))
        t *= z / (m + 1)
    return math.fsum(terms)


_A, _B = 0.5, 2.0
_L = _B - _A


def _singular_cases(alpha):
    """(g, endpoint, closed form of the weighted integral over [_A, _B])."""
    cases = []
    for k in range(4):
        exact = _L ** (k + alpha) / (k + alpha)
        cases.append((lambda x, k=k: (x - _A) ** k, Endpoint.LEFT, exact))
        cases.append((lambda x, k=k: (_B - x) ** k, Endpoint.RIGHT, exact))
    # e^x (x-a)^(alpha-1) and e^x (b-x)^(alpha-1): incomplete-gamma series
    cases.append((np.exp, Endpoint.LEFT,
                  math.exp(_A) * _L ** alpha * _exp_left_series(_L, alpha)))
    cases.append((np.exp, Endpoint.RIGHT,
                  math.exp(_A) * _L ** alpha * _rising_series(_L, alpha)))
    return cases


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.5, 2.5])
def test_singular_fixed_rule_matches_closed_forms(alpha):
    for g, endpoint, exact in _singular_cases(alpha):
        res = integrate_singular(g, Interval(_A, _B), alpha, endpoint, TIGHT)
        assert res.converged
        assert res.subdivisions_used == 0
        assert res.value == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.5, 2.5])
def test_fixed_rule_error_estimate_bounds_true_error(alpha):
    # steep enough that the 20-node rule is off by ~1e-10, so the estimate
    # measures truncation and not round-off
    res = integrate_singular(lambda x: np.exp(60.0 * x), Interval(0.0, 1.0),
                             alpha, Endpoint.LEFT, DEFAULT_QUAD)
    exact = _exp_left_series(60.0, alpha)
    assert res.subdivisions_used == 0 and res.converged
    assert res.error_estimate > 1e-12 * exact
    assert abs(res.value - exact) <= res.error_estimate
    # mild enough that both rules resolve it: |Q_2n - Q_n| is round-off
    # (2e-16 relative at alpha=0.3 against a true 1e-15), so the estimate
    # rests on the round-off floor
    res = integrate_singular(lambda x: np.exp(10.0 * x), Interval(0.0, 1.0),
                             alpha, Endpoint.LEFT, DEFAULT_QUAD)
    exact = _exp_left_series(10.0, alpha)
    assert res.subdivisions_used == 0 and res.converged
    assert abs(res.value - exact) <= res.error_estimate


def test_fixed_rule_error_estimate_bounds_true_error_plain():
    # poles at +-i/2: the 20-node Gauss-Legendre value is off by ~1e-8
    res = integrate(lambda x: 1.0 / (x * x + 0.25), Interval(-1.0, 1.0))
    exact = 4.0 * math.atan(2.0)
    assert res.subdivisions_used == 0 and res.converged
    assert res.error_estimate > 1e-10
    assert abs(res.value - exact) <= res.error_estimate


@pytest.mark.parametrize("alpha", [0.3, 1.5])
def test_fixed_rule_disagreement_falls_back_to_adaptive(alpha):
    res = integrate_singular(lambda x: np.exp(80.0 * x), Interval(0.0, 1.0),
                             alpha, Endpoint.LEFT, DEFAULT_QUAD)
    assert res.subdivisions_used > 0 and res.converged
    assert res.value == pytest.approx(_exp_left_series(80.0, alpha), rel=1e-8)


def test_weight_scale_overflow_falls_back_instead_of_raising():
    # ((b-a)/2)**alpha exceeds the double range, so the fixed rule steps
    # aside and the adaptive path reports the overflow as inf
    with np.errstate(over="ignore", invalid="ignore"):
        res = integrate_singular(lambda x: np.ones_like(x), Interval(0.0, 200.0),
                                 160.0, Endpoint.LEFT)
    assert res.value == math.inf
    assert not res.converged


def test_integrate_cells_matches_integrate_per_cell():
    # a peak of width 0.01 at 0: the cells next to it reject the fixed rule
    # and go to the adaptive path, the outer ones accept it
    c = 1e-4
    f = lambda x: 1.0 / (c + x * x)
    edges = np.linspace(-1.0, 1.0, 9)
    cells = [integrate(f, Interval(lo, hi), TIGHT)
             for lo, hi in zip(edges[:-1], edges[1:])]
    assert any(r.subdivisions_used > 0 for r in cells)
    assert any(r.subdivisions_used == 0 for r in cells)
    values = integrate_cells(f, edges, TIGHT)
    assert values.shape == (8,)
    for got, ref in zip(values, cells):
        assert got == pytest.approx(ref.value, rel=1e-14)
    exact = np.diff(np.arctan(edges / math.sqrt(c))) / math.sqrt(c)
    np.testing.assert_allclose(values, exact, rtol=1e-11)
