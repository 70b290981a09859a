import math

import numpy as np
import pytest

from hypfrac import convexity
from hypfrac.convexity import (
    Method,
    Verdict,
    _settle,
    check_all,
    check_chord,
    check_gradient,
    check_phi_monotone,
    check_second_order,
    chord_majorant,
    classify_exponential,
    classify_power,
    methods_agree,
)
from hypfrac.expressions import (
    Interval,
    add,
    build_exp,
    build_hyperbolic,
    build_power,
    constant,
    cosh_centered,
    deriv,
    scaled,
)

I01 = Interval(0.0, 1.0)
ALL_CHECKS = (check_chord, check_second_order, check_gradient, check_phi_monotone)


# ---------------------------------------------------------------------------
# chord majorant

def test_chord_of_flat_endpoints_is_scaled_sech():
    # endpoints both 1 on [0, 1], p = 1: H(x) = cosh(x - 1/2)/cosh(1/2)
    H = chord_majorant(constant(1.0), I01, 1.0)
    assert H.eval(0.5) == pytest.approx(1.0 / math.cosh(0.5), rel=1e-12)
    assert H.eval(0.0) == pytest.approx(1.0, rel=1e-12)
    assert H.eval(1.0) == pytest.approx(1.0, rel=1e-12)


def test_hyperbolic_members_are_their_own_chords():
    xs = np.linspace(0.0, 1.0, 101)
    for A, B, p in ((1.0, 0.0, 1.0), (2.0, -0.7, 1.8), (0.3, 0.9, 0.4)):
        f = build_hyperbolic(A, B, p)
        H = chord_majorant(f, I01, p)
        assert np.max(np.abs(H.eval(xs) - f.eval(xs))) <= 1e-12


def test_chord_p_zero_is_straight_line():
    H = chord_majorant(build_power(2.0), I01, 0.0)
    assert H.eval(0.5) == pytest.approx(0.5, abs=1e-14)
    assert H.eval(0.25) == pytest.approx(0.25, abs=1e-14)


# ---------------------------------------------------------------------------
# the four checks

def test_chord_verdicts():
    assert check_chord(cosh_centered(2.0, 0.0), I01, 1.0).verdict is Verdict.CONVEX
    r = check_chord(build_power(0.5), Interval(0.1, 1.0), 1.0)
    assert r.verdict is Verdict.CONCAVE
    assert check_chord(build_hyperbolic(1.0, 0.0, 1.3), I01, 1.3).verdict \
        is Verdict.BOUNDARY


def test_second_order_verdicts():
    assert check_second_order(build_exp(2.0), I01, 1.0).verdict is Verdict.CONVEX
    assert check_second_order(build_exp(0.5), I01, 1.0).verdict is Verdict.CONCAVE
    assert check_second_order(cosh_centered(1.0, 0.0), I01, 1.0).verdict \
        is Verdict.BOUNDARY


def test_gradient_verdicts():
    assert check_gradient(build_hyperbolic(1.4, 0.2, 2.0), I01, 2.0).verdict \
        is Verdict.BOUNDARY
    assert check_gradient(cosh_centered(2.0, 0.0), I01, 1.0).verdict \
        is Verdict.CONVEX


def test_phi_verdicts():
    # phi of cosh(p x) is the constant p*sinh(p*a): boundary
    assert check_phi_monotone(cosh_centered(1.0, 0.0), I01, 1.0).verdict \
        is Verdict.BOUNDARY
    # phi of cosh(2x) at p=1 is (3/2) sinh(2x): increasing
    assert check_phi_monotone(cosh_centered(2.0, 0.0), I01, 1.0).verdict \
        is Verdict.CONVEX
    # phi of exp(x/2) at p=1 decreases: not p-convex
    assert check_phi_monotone(build_exp(0.5), I01, 1.0).verdict is Verdict.CONCAVE


def test_neither_agrees_across_methods():
    # x^2 with p=1 changes curvature sign at sqrt(2) inside [0.5, 2.5]
    f = build_power(2.0)
    I = Interval(0.5, 2.5)
    reports = check_all(f, I, 1.0)
    assert all(r.verdict is Verdict.NEITHER for r in reports.values())
    assert methods_agree(reports)


class _GridValues:
    """A function known only through exact values at the grid nodes."""

    def __init__(self, nodes, values):
        self.nodes, self.values = nodes, values

    def value(self, x):
        return np.interp(x, self.nodes, self.values)


def _brute_chord(f, I, p, n):
    """Independent triple-loop chord excesses: (largest excess, its x_k,
    largest deficit, its x_k), normalized like check_chord; ties go to the
    first triple in (i, k, j) order."""
    xs = I.grid(n)
    fv = f.value(xs) if isinstance(f, _GridValues) else f.eval(xs)
    over = under = -math.inf
    x_over = x_under = None
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(k + 1, n):
                if p == 0.0:
                    H = ((xs[j] - xs[k]) * fv[i] + (xs[k] - xs[i]) * fv[j]) \
                        / (xs[j] - xs[i])
                else:
                    H = (math.sinh(p * (xs[j] - xs[k])) * fv[i]
                         + math.sinh(p * (xs[k] - xs[i])) * fv[j]) \
                        / math.sinh(p * (xs[j] - xs[i]))
                if fv[k] - H > over:
                    over, x_over = fv[k] - H, xs[k]
                if H - fv[k] > under:
                    under, x_under = H - fv[k], xs[k]
    scale = 1.0 + float(np.max(np.abs(fv)))
    return over / scale, x_over, under / scale, x_under


CHORD_CASES = [
    (build_power(2.0), Interval(0.5, 2.5), 1.0),
    (build_power(2.0), I01, 0.0),
    (build_power(3.0), Interval(-1.0, 1.0), 0.0),
    (build_power(0.5), Interval(0.1, 1.0), 1.0),
    (build_exp(2.0), I01, 1.0),
    # large-amplitude boundary member 3*cosh(5*(x+1)), amplitude ~ 1e4
    (scaled(3.0, cosh_centered(5.0, -1.0)), I01, 5.0),
    # p*L = 300, NEITHER: the slope form H = (f_i + E_ik*s_ij)/X_ik would
    # lose about exp(300*(x_k - x_i))*eps here
    (add(cosh_centered(2.0, 0.0), constant(-2.0)), I01, 300.0),
]
_RNG = np.random.default_rng(2026)
# random node values: NEITHER on most grids of four or more points
CHORD_CASES += [(_GridValues(I.grid(m), _RNG.normal(size=m)), I, p)
                for I in (I01, Interval(-1.5, 0.5))
                for p in (0.0, 0.4, 2.0, 10.0) for m in (5, 21)]

_TIES = [
    # chords (0, 2) and (2, 4) miss by 1.25 at x = 1 and x = 3: ties across
    # chord starts
    (1.0, 0.0, 1.5, 0.0, 1.0),
    # chords (0, 4) and (1, 4) miss by 1 at x = 2 and x = 3: ties within
    # one chord start
    (0.0, 0.0, 1.0, 1.0, 0.0, 2.0),
]


def _assert_chord_matches_brute_force(grids):
    tol = 1e-9
    for f, I, p in CHORD_CASES:
        for n in grids:
            over, x_over, under, x_under = _brute_chord(f, I, p, n)
            r = check_chord(f, I, p, grid_n=n, tol=tol)
            if over <= tol and under <= tol:
                expected, worst, witness = Verdict.BOUNDARY, max(0.0, over, under), None
            elif over <= tol:
                expected, worst, witness = Verdict.CONVEX, max(0.0, over), x_over
            elif under <= tol:
                expected, worst, witness = Verdict.CONCAVE, max(0.0, under), x_under
            elif over <= under:
                expected, worst, witness = Verdict.NEITHER, over, x_over
            else:
                expected, worst, witness = Verdict.NEITHER, under, x_under
            case = (f, I, p, n)
            assert r.verdict is expected, case
            assert r.worst_violation == pytest.approx(worst, rel=1e-12, abs=1e-14), case
            if worst > 1e-12:  # below that the witness is a round-off tie
                assert r.witness_x == witness, case


def test_chord_tensor_matches_brute_force():
    _assert_chord_matches_brute_force((3, 4, 21))


def _rows_per_block(monkeypatch, rows):
    """Blocks of exactly ``rows`` grid rows, whatever the grid."""
    monkeypatch.setattr(convexity, "_ROW_BLOCK", 0)
    monkeypatch.setattr(convexity, "_GRADIENT_BLOCK", 0)
    monkeypatch.setattr(convexity, "_MIN_ROWS", rows)


def test_chord_matches_brute_force_one_row_at_a_time(monkeypatch):
    # the default blocks hold every chord start of a 21-point grid at once
    _rows_per_block(monkeypatch, 1)
    _assert_chord_matches_brute_force((21,))


def test_reports_do_not_depend_on_the_row_block(monkeypatch):
    def reports():
        out = []
        for f, I, p in CHORD_CASES:
            for n in (5, 21, 101):
                out.append(repr(check_chord(f, I, p, grid_n=n)))
                if not isinstance(f, _GridValues):  # has derivatives
                    out.append(repr(check_gradient(f, I, p, grid_n=n)))
        for values in _TIES:  # ties across chord starts, and within one
            I = Interval(0.0, len(values) - 1.0)
            for sign in (1.0, -1.0):
                f = _GridValues(I.grid(len(values)), sign * np.array(values))
                out.append(repr(check_chord(f, I, 0.0, grid_n=len(values))))
        return out

    want = reports()
    for rows in (1, 3):
        _rows_per_block(monkeypatch, rows)
        assert reports() == want, rows


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("values, worst, witness", [
    (_TIES[0], 1.25 / 2.5, 1.0),
    (_TIES[1], 1.0 / 3.0, 2.0),
])
def test_chord_ties_resolve_to_first_triple(sign, values, worst, witness):
    # exact values on the integer grid with p = 0; the other side's worst
    # violation is larger, so the verdict reports the tied side
    n = len(values)
    I = Interval(0.0, n - 1.0)
    f = _GridValues(I.grid(n), sign * np.array(values))
    r = check_chord(f, I, 0.0, grid_n=n)
    assert r.verdict is Verdict.NEITHER
    assert r.worst_violation == worst
    assert r.witness_x == witness


def test_chord_memory_is_quadratic_in_grid():
    import tracemalloc

    f = cosh_centered(2.0, 0.3)
    tracemalloc.start()
    try:
        check_chord(f, I01, 1.0, grid_n=401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three (401, 401, 401) float tensors would take 1.5 GB
    assert peak < 32 * 2**20


def test_chord_memory_at_the_largest_cli_grid():
    import tracemalloc

    tracemalloc.start()
    try:
        r = check_chord(build_power(3.0), Interval(-1.0, 1.0), 0.0, grid_n=1001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.verdict is Verdict.NEITHER
    # two 1001 x 1001 float tables take 15.3 MiB; the block temporaries
    # stay near 1.4 MiB
    assert peak < 18 * 2**20


def test_check_all_memory_at_the_mix_grid():
    import tracemalloc

    f = cosh_centered(2.0, 0.3)
    check_all(f, I01, 1.0, grid_n=201)  # first calls may build caches
    tracemalloc.start()
    try:
        check_all(f, I01, 1.0, grid_n=201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the chord test's two 201 x 201 tables take 0.62 MiB
    assert peak < 1.25 * 2**20


def _whole_table_gradient(f, I, p, n):
    """check_gradient's violations and witnesses (convex side, then
    concave) from the whole n x n table at once: the reference for its
    row blocks."""
    xs = I.grid(n)
    fv, dv = f.eval(xs), deriv(f).eval(xs)
    delta = xs[None, :] - xs[:, None]
    ch = np.cosh(p * delta) if p else np.ones_like(delta)
    sh = np.sinh(p * delta) / p if p else delta
    g = fv[:, None] * ch + dv[:, None] * sh - fv[None, :]
    scale = 1.0 + float(np.max(np.abs(fv[:, None]) * ch + np.abs(dv[:, None] * sh)))
    conv, conc = float(np.max(g)) / scale, float(np.max(-g)) / scale
    return conv, conc, xs[np.argmax(g) // n], xs[np.argmax(-g) // n]


@pytest.mark.parametrize("f, I, p", CHORD_CASES[:7] + [
    (cosh_centered(2.0, 0.0), I01, 1000.0),  # overflows: nan reports
    (constant(1.0), I01, 0.0),  # g == 0: every pair ties
])
def test_gradient_blocks_match_the_whole_table(f, I, p):
    with np.errstate(all="ignore"):
        for n in (5, 401):  # one block of rows, and 21
            conv, conc, x_conv, x_conc = _whole_table_gradient(f, I, p, n)
            want = _settle(conv, conc, 1e-9, x_conv, x_conc, Method.GRADIENT)
            # repr: nan reports compare equal too
            assert repr(check_gradient(f, I, p, grid_n=n, tol=1e-9)) == repr(want)


def test_gradient_memory_below_the_chord_test():
    import tracemalloc

    f, I = build_exp(2.0), I01
    peaks = []
    for check in (check_gradient, check_chord):
        tracemalloc.start()
        try:
            check(f, I, 1.0, grid_n=1001)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the whole table was six 1001 x 1001 arrays, 53.5 MiB
    assert peaks[0] <= peaks[1]


def test_worst_violation_nonnegative_and_small_when_convex():
    r = check_chord(cosh_centered(3.0, 0.2), I01, 1.0)
    assert r.verdict is Verdict.CONVEX
    assert 0.0 <= r.worst_violation <= 1e-9


def test_large_amplitude_boundary_member_classifies_boundary():
    # amplitude ~ cosh(10) ~ 1.1e4: raw round-off would exceed an absolute
    # 1e-9 cutoff, the scale-normalized violation must not
    f = scaled(3.0, cosh_centered(5.0, -1.0))
    I = Interval(0.0, 1.0)
    for chk in ALL_CHECKS:
        assert chk(f, I, 5.0).verdict is Verdict.BOUNDARY, chk.__name__


def test_p_zero_matches_classical_convexity():
    xsq = build_power(2.0)
    for chk in ALL_CHECKS:
        assert chk(xsq, I01, 0.0).verdict is Verdict.CONVEX, chk.__name__
    cube = build_power(3.0)
    I = Interval(-1.0, 1.0)
    for chk in ALL_CHECKS:
        assert chk(cube, I, 0.0).verdict is Verdict.NEITHER, chk.__name__


def test_tiny_p_agrees_with_classical_for_polynomials():
    # p = 1e-8 behaves like the classical chord test
    for f, expected in ((build_power(2.0), Verdict.CONVEX),
                        (scaled(-1.0, build_power(2.0)), Verdict.CONCAVE)):
        r = check_chord(f, I01, 1e-8)
        assert r.verdict is expected


def test_grid_validation():
    with pytest.raises(ValueError):
        check_chord(build_power(2.0), I01, 1.0, grid_n=2)


# ---------------------------------------------------------------------------
# family classification

def test_classify_power_boundaries():
    c = classify_power(2.0, 1.0)
    assert c.boundary == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert c.convex_region == (0.0, c.boundary)
    c = classify_power(3.0, 2.0)
    assert c.boundary == pytest.approx(math.sqrt(6.0) / 2.0, rel=1e-15)
    c = classify_power(0.5, 1.0)
    assert c.boundary is None
    assert c.convex_region is None
    assert c.concave_region == (0.0, math.inf)


def test_classify_power_degenerate_r():
    for r in (0.0, 1.0):
        c = classify_power(r, 1.5)
        assert c.boundary is None
        assert c.concave_region == (0.0, math.inf)


def locate_power_boundary(r: float, p: float, lo: float = 1e-8,
                          hi: float | None = None, tol: float = 1e-12) -> float:
    """Bisection on the curvature excess of x**r; independent of
    classify_power's closed form, used to cross-check it (here and in the
    acceptance suite)."""
    if p == 0.0:
        raise ValueError("p must be nonzero")

    def g(x):
        return r * (r - 1.0) * x ** (r - 2.0) - p * p * x ** r

    if hi is None:
        hi = max(1.0, 2.0 * lo)
        while g(hi) > 0.0:
            hi *= 2.0
            if hi > 1e12:
                raise ValueError("no sign change found")
    glo = g(lo)
    if glo <= 0.0:
        raise ValueError("no sign change bracketed")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_classify_power_matches_bisection():
    for r, p in ((2.0, 1.0), (3.0, 2.0), (1.5, 0.7)):
        located = locate_power_boundary(r, p)
        assert abs(located - math.sqrt(r * (r - 1.0)) / abs(p)) <= 1e-6


def test_classify_power_verdict_on_each_side():
    r, p = 2.0, 1.0
    c = classify_power(r, p)
    left = Interval(0.3, 0.9 * c.boundary)
    right = Interval(1.1 * c.boundary, 4.0)
    assert check_second_order(build_power(r), left, p).verdict is Verdict.CONVEX
    assert check_second_order(build_power(r), right, p).verdict is Verdict.CONCAVE


def test_classify_exponential():
    assert classify_exponential(2.0, 1.0) is Verdict.CONVEX
    assert classify_exponential(0.5, 1.0) is Verdict.CONCAVE
    assert classify_exponential(1.0, 1.0) is Verdict.BOUNDARY
    assert classify_exponential(-3.0, 2.0) is Verdict.CONVEX
    with pytest.raises(ValueError):
        classify_exponential(0.0, 1.0)


def test_cross_method_agreement_sample():
    # a small slice of the acceptance population: mixtures, negations,
    # boundary members
    from hypfrac.generators import GenConfig, gen_p_convex, rng_for

    cfg = GenConfig(seed=31)
    for i in range(20):
        rng = rng_for(cfg.seed, i)
        length = rng.uniform(0.4, 2.0)
        center = rng.uniform(-1.0, 1.0)
        I = Interval(center - length / 2, center + length / 2)
        p = rng.uniform(0.3, 3.0)
        u = gen_p_convex(cfg, p, I, rng=rng)
        if i % 3 == 1:
            u = scaled(-1.0, u)
        reports = check_all(u, I, p)
        assert methods_agree(reports), (i, {m.value: r.verdict.value
                                            for m, r in reports.items()})
