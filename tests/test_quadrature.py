import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypfrac.expressions import Interval
from hypfrac.fractional import OPERATOR_QUAD
from hypfrac.grammar import parse_function
from hypfrac.quadrature import (
    DEFAULT_QUAD,
    Endpoint,
    QuadConfig,
    QuadResult,
    _EPS,
    _fixed_l1,
    _fixed_rule,
    _fixed_sums,
    _gauss_jacobi,
    _panels,
    fixed_rule_accept,
    fixed_rule_nodes,
    fixed_rule_scale,
    gauss_kronrod_nodes,
    integrate,
    integrate_cells,
    integrate_singular,
)

TIGHT = QuadConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)
I01 = Interval(0.0, 1.0)


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
    # integral of x^(0.5) over [0, 1]: the weight is continuous but not
    # smooth at 0, so the Gauss-Jacobi rule carries it
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


def test_non_finite_panel_sum_stops_the_adaptive_loop():
    # exp overflows on [0, 1000]: no bisection makes the sum finite, so the
    # loop stops at once instead of spending the subdivision budget
    with np.errstate(over="ignore", invalid="ignore"):
        res = integrate(np.exp, Interval(0.0, 1000.0))
    assert res.value == math.inf
    assert not res.converged
    assert not math.isnan(res.error_estimate)
    assert res.subdivisions_used <= 2


def test_panel_on_the_float_grid_ends_the_loop_unconverged():
    # a jump at 1/3 (not a float): bisection narrows the panel that holds
    # it down to the float grid, where it still fails its test; the loop
    # accepts it there and reports converged=False, within budget.  A bare
    # callable, since the grammar cannot write a step.
    step = lambda x: (x > 1.0 / 3.0).astype(float)
    res = integrate(step, Interval(0.0, 1.0))
    assert not res.converged and res.subdivisions_used == 46
    assert abs(res.value - 2.0 / 3.0) <= 2e-16
    # the same floor in the loop behind the RL alpha = 0.5 left weight
    res = integrate_singular(step, Interval(0.0, 1.0), 0.5, Endpoint.LEFT)
    assert not res.converged
    assert res.subdivisions_used < DEFAULT_QUAD.max_subdivisions
    assert abs(res.value - 2.0 * (1.0 - 3.0 ** -0.5)) <= 1e-15


def test_quad_result_rejects_nan_error_estimate():
    with pytest.raises(ValueError):
        QuadResult(1.0, math.nan, 0)
    with pytest.raises(ValueError):
        QuadResult(1.0, -1.0, 0)
    assert QuadResult(math.inf, math.inf, 0, False).error_estimate == math.inf


def test_stacked_fixed_rule_rows_equal_each_row_alone():
    # the moment pass sums every fixed-weight integral of an instance in one
    # call: each row must round as it does alone, whatever rows sit next to
    # it, and as the 1-D dot products with its own rule's weights
    rng = np.random.default_rng(11)
    alphas = tuple(rng.choice((0.3, 0.5, 0.8, 1.0, 1.5), size=120).tolist())
    lams = rng.uniform(-90.0, 90.0, size=120)  # the steep rows are rejected
    ys = np.array([rng.uniform(0.1, 1e3) * np.exp(lam * fixed_rule_nodes(
        0.0, 1.0, alpha, Endpoint.LEFT)) for lam, alpha in zip(lams, alphas)])
    scale = rng.uniform(0.01, 10.0, size=120)
    values, gaps, accepted = fixed_rule_accept(ys, scale, alphas, OPERATOR_QUAD)
    assert values.shape == gaps.shape == accepted.shape == (120,)
    assert 10 < np.count_nonzero(accepted) < 110
    for k, alpha in enumerate(alphas):
        alone = fixed_rule_accept(ys[k], scale[k], alpha, OPERATOR_QUAD)
        assert (values[k], gaps[k], accepted[k]) == alone, (k, alpha)
        _, w1, w2 = _fixed_rule(alpha)
        q1 = scale[k] * ys[k, :w1.size].dot(w1)
        q2 = scale[k] * ys[k, w1.size:].dot(w2)
        assert values[k] == q2, (k, alpha)
        assert gaps[k] == abs(q2 - q1), (k, alpha)
        assert accepted[k] == (abs(q2 - q1) <= max(OPERATOR_QUAD.abs_tol,
                                                   OPERATOR_QUAD.rel_tol * abs(q2)))


@pytest.mark.parametrize("endpoint", list(Endpoint))
@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
def test_accepted_front_reports_its_gap_floored_at_round_off(alpha, endpoint):
    # the error estimate is |Q_2n - Q_n|, but never below the round-off
    # floor 100 * eps * h**alpha * sum |w_2n * g| the adaptive loop accepts
    # a panel at; cosh is resolved far past round-off, so its floor decides
    kinds = set()
    for g, I in ((np.cosh, I01), (lambda x: 1.0 / (x * x + 0.25), Interval(-1.0, 1.0))):
        _, w1, w2 = _fixed_rule(alpha)
        ys = g(fixed_rule_nodes(I.a, I.b, alpha, endpoint))
        h = (0.5 * (I.b - I.a)) ** alpha
        q1, q2 = h * ys[:w1.size].dot(w1), h * ys[w1.size:].dot(w2)
        floor = 100.0 * np.finfo(float).eps * h * np.abs(ys[w1.size:]).dot(w2)
        kinds.add(abs(q2 - q1) > floor)
        want = QuadResult(q2, np.maximum(abs(q2 - q1), floor), 0, True)
        assert integrate_singular(g, I, alpha, endpoint) == want
    assert kinds == {False, True}


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


# ---------------------------------------------------------------------------
# adaptive fallback: a Gauss-Jacobi panel at the singular end, Gauss-Kronrod
# on every other panel

def _positive_series(z, alpha):
    """The integral of exp(z*s) * s**(alpha-1) over [0, 1] as a sum of
    positive terms: sum z**n / (n! (n+alpha)) for z >= 0; for z < 0 that
    series alternates, and its Kummer mirror exp(z) * sum |z|**n /
    (alpha (alpha+1) ... (alpha+n)) is summed instead."""
    y, terms, t = abs(z), [], 1.0
    for n in range(int(y) + 200):
        if z >= 0:
            terms.append(t / (n + alpha))
            t *= y / (n + 1)
        else:
            t /= alpha + n
            terms.append(t)
            t *= y
    return math.fsum(terms) * (1.0 if z >= 0 else math.exp(z))


_STRESS_A, _STRESS_B = -0.5, 3.5
_STRESS_LAMBDAS = (-60.0, -8.0, 3.0, 25.0, 60.0)
_STRESS_ALPHAS = (0.05, 0.3, 0.8, 1.5, 2.5, 4.0, 10.0)


def _stress_case(lam, alpha, endpoint):
    """integrate_singular of exp(lam*x) on the stress interval, and the
    closed form: with s the distance from the singular end c, the integral
    is exp(lam*c) * L**alpha * _positive_series(+-lam*L, alpha)."""
    length = _STRESS_B - _STRESS_A
    c, z = ((_STRESS_A, lam) if endpoint is Endpoint.LEFT
            else (_STRESS_B, -lam))
    exact = (math.exp(lam * c) * length ** alpha
             * _positive_series(z * length, alpha))
    res = integrate_singular(lambda x: np.exp(lam * x),
                             Interval(_STRESS_A, _STRESS_B), alpha, endpoint,
                             OPERATOR_QUAD)
    return res, exact


@pytest.mark.parametrize("endpoint", list(Endpoint))
@pytest.mark.parametrize("alpha", _STRESS_ALPHAS)
@pytest.mark.parametrize("lam", _STRESS_LAMBDAS)
def test_adaptive_fallback_stress_grid(lam, alpha, endpoint):
    res, exact = _stress_case(lam, alpha, endpoint)
    assert res.converged
    assert res.subdivisions_used <= 16
    assert res.value == pytest.approx(exact, rel=1e-12)
    assert abs(res.value - exact) <= max(res.error_estimate, 1e-12 * exact)


def test_stress_grid_reaches_the_adaptive_fallback():
    # 42 of the 70 cases: the grid tests the fallback, not the fixed rule
    fallbacks = sum(_stress_case(lam, alpha, endpoint)[0].subdivisions_used > 0
                    for lam in _STRESS_LAMBDAS for alpha in _STRESS_ALPHAS
                    for endpoint in Endpoint)
    assert fallbacks >= 40


@pytest.mark.parametrize("endpoint", list(Endpoint))
def test_alpha_one_fallback_is_the_plain_loop(endpoint):
    # weight 1: the same Gauss-Kronrod loop as integrate, bit for bit
    g = lambda x: np.exp(80.0 * x)
    res = integrate_singular(g, Interval(0.0, 1.0), 1.0, endpoint)
    plain = integrate(g, Interval(0.0, 1.0))
    assert res.subdivisions_used > 0
    assert res == plain


def test_fallback_bisects_a_kink_beside_the_end_panel():
    # the kink at 0.5 rejects the fixed rule; after one bisection the end
    # panel [0, 0.5] holds a polynomial, which its Gauss-Jacobi pair
    # integrates exactly against s**(alpha-1)
    g = lambda x: np.abs(x - 0.5) + x ** 3
    for alpha in (0.3, 2.5):
        res = integrate_singular(g, Interval(0.0, 1.0), alpha, Endpoint.LEFT,
                                 TIGHT)
        # int_0^1 |x - 1/2| x^(alpha-1) + x^(alpha+2)
        half = 0.5 ** alpha
        exact = (2 * half * 0.5 / (alpha * (alpha + 1)) - 0.5 / alpha
                 + 1.0 / (alpha + 1) + 1.0 / (alpha + 3))
        assert res.subdivisions_used > 0 and res.converged
        assert res.value == pytest.approx(exact, rel=1e-11)


# ---------------------------------------------------------------------------
# the adaptive fallback, bit for bit: a reference loop that sorts its panels
# every round and whose end panel evaluates g afresh, the first round too

def _reference_adaptive(f, interval, cfg, end_panel=None):
    """The adaptive loop with the bisected halves appended and put in order
    by a stable argsort, and the end panel put in front by np.insert."""
    a, b = interval.a, interval.b
    span = b - a
    lo, hi = np.array([a]), np.array([b])
    done_val = done_err = 0.0
    splits = 0
    converged = True
    while True:
        first = 1 if end_panel is not None and lo[0] == a else 0
        k, err, l1 = _panels(f, lo[first:], hi[first:])
        if first:
            k, err, l1 = (np.insert(v, 0, e)
                          for v, e in zip((k, err, l1), end_panel(hi[0] - a)))
        total = done_val + float(k.sum())
        if not math.isfinite(total):
            return QuadResult(total, math.inf, splits, False)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        share = (hi - lo) / span
        accept = (err <= tol * share) | (err <= 100.0 * _EPS * l1)
        floor = (hi - lo) <= 64.0 * _EPS * max(abs(a), abs(b), span)
        if np.any(floor & ~accept):
            converged = False
            accept = accept | floor
        done_val += float(k[accept].sum())
        done_err += float(err[accept].sum())
        if np.all(accept):
            break
        lo, hi = lo[~accept], hi[~accept]
        if splits + lo.size > cfg.max_subdivisions:
            done_val += float(k[~accept].sum())
            done_err += float(err[~accept].sum())
            converged = False
            break
        splits += lo.size
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
    return QuadResult(done_val, done_err, splits, converged)


def _reference_singular(g, interval, alpha, endpoint, cfg=DEFAULT_QUAD):
    """integrate_singular with :func:`_reference_adaptive` behind its front."""
    a, b = interval.a, interval.b
    ys = np.asarray(g(fixed_rule_nodes(a, b, alpha, endpoint)), dtype=float)
    scale = fixed_rule_scale(interval, alpha)
    value, gap, accepted = fixed_rule_accept(ys, scale, alpha, cfg)
    if accepted:
        floor = 100.0 * _EPS * scale * _fixed_l1(ys, alpha)
        return QuadResult(float(value), float(np.maximum(gap, floor)), 0, True)
    if alpha == 1.0:
        return _reference_adaptive(g, interval, cfg)
    at = (lambda s: a + s) if endpoint is Endpoint.LEFT else (lambda s: b - s)

    def end_panel(h):
        ys = np.asarray(g(at(fixed_rule_nodes(0.0, h, alpha, Endpoint.LEFT))),
                        dtype=float)
        s1, s2 = _fixed_sums(ys, alpha)
        scale = np.power(0.5 * h, alpha)
        return scale * s2, scale * abs(s2 - s1), scale * _fixed_l1(ys, alpha)

    f = lambda s: np.asarray(g(at(s)), dtype=float) * np.power(s, alpha - 1.0)
    return _reference_adaptive(f, Interval(0.0, b - a), cfg, end_panel)


_STEP = lambda x: (x > 1.0 / 3.0).astype(float)  # bisects to the float grid
_STEEP = Interval(-0.5, 3.5)
# (integrand, interval, config, alphas): together they reach every branch
# of the loop at both ends
_FALLBACK_CASES = [
    # one Gauss-Kronrod panel accepted at its round-off floor
    (lambda x: 1e20 * np.sinh(x - 0.5), I01, DEFAULT_QUAD, (1.0, 0.5)),
    # the subdivision budget runs out
    (lambda x: np.exp(60.0 * x), _STEEP, QuadConfig(max_subdivisions=3),
     (1.0, 0.3, 1.5)),
    # the first round's sum overflows
    (lambda x: np.exp(800.0 * x), I01, DEFAULT_QUAD, (1.0, 0.5, 4.0)),
    # the panel holding the step reaches the 64-ulp width floor
    (_STEP, I01, DEFAULT_QUAD, (1.0, 0.5)),
    (lambda x: np.exp(60.0 * x), _STEEP, OPERATOR_QUAD,
     (0.02, 0.3, 0.5, 1.0, 1.5, 4.0)),
    (parse_function("exp(-40*x)+x"), _STEEP, OPERATOR_QUAD,
     (0.02, 0.3, 0.5, 1.0, 1.5, 4.0)),
    (parse_function("sinh(9*x)*exp(3*x)"), Interval(2.0, 9.0), OPERATOR_QUAD,
     (0.02, 0.3, 0.5, 0.8, 1.0, 1.5, 4.0)),
]


def test_fallback_keeps_the_reference_bits():
    outcomes = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for g, I, cfg, alphas in _FALLBACK_CASES:
            for alpha in alphas:
                for endpoint in Endpoint:
                    res = integrate_singular(g, I, alpha, endpoint, cfg)
                    want = _reference_singular(g, I, alpha, endpoint, cfg)
                    # repr: an infinite value compares equal too
                    assert repr(res) == repr(want), (I, alpha, endpoint)
                    outcomes.add((res.subdivisions_used > 0, res.converged,
                                  math.isfinite(res.value)))
    assert outcomes == {(False, True, True), (True, True, True),
                        (True, False, True), (False, False, False)}


def test_cells_that_fall_back_keep_the_reference_bits():
    f = lambda x: 1.0 / (1e-4 + x * x)
    edges = np.linspace(-1.0, 1.0, 9)
    a, b = edges[:-1], edges[1:]
    ys = f(fixed_rule_nodes(a[:, None], b[:, None], 1.0, Endpoint.LEFT))
    _, _, accepted = fixed_rule_accept(ys, 0.5 * (b - a), 1.0, DEFAULT_QUAD)
    values = integrate_cells(f, edges)
    assert np.count_nonzero(~accepted) == 2
    for k in np.flatnonzero(~accepted):
        want = _reference_adaptive(f, Interval(a[k], b[k]), DEFAULT_QUAD)
        assert values[k] == want.value


@pytest.mark.parametrize("alpha, endpoint", [(0.3, Endpoint.LEFT),
                                             (1.5, Endpoint.RIGHT)])
def test_rejected_front_evaluates_its_nodes_once(alpha, endpoint):
    # the fallback's first round is the end panel over the whole interval,
    # at the front's nodes: it reads the front's values
    seen = []

    def g(x):
        seen.append(x.copy())
        return np.exp(60.0 * x)

    res = integrate_singular(g, _STEEP, alpha, endpoint, OPERATOR_QUAD)
    calls, points = len(seen), sum(x.size for x in seen)
    nodes = fixed_rule_nodes(_STEEP.a, _STEEP.b, alpha, endpoint)
    assert res.subdivisions_used > 0
    assert sum(np.array_equal(x, nodes) for x in seen) == 1
    seen.clear()
    assert _reference_singular(g, _STEEP, alpha, endpoint, OPERATOR_QUAD) == res
    assert sum(np.array_equal(x, nodes) for x in seen) == 2
    assert (calls, points) == (len(seen) - 1, sum(x.size for x in seen) - nodes.size)
