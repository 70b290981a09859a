import math

import numpy as np
import pytest

from hypfrac.convexity import Verdict, check_all, check_chord, check_second_order, methods_agree
from hypfrac.expressions import Interval, constant
from hypfrac.generators import (
    GenConfig,
    SampledFunction,
    _PhiloxStream,
    draw_interval,
    gen_p_convex,
    gen_p_convex_ode,
    gen_positive_weight,
    gen_symmetric_weight,
    rng_for,
    solve_p_convex_ode,
)
from hypfrac.grammar import parse_function, to_grammar


def test_streams_are_deterministic_and_indexed():
    cfg = GenConfig(seed=123)
    I = Interval(-0.5, 1.0)
    a = to_grammar(gen_p_convex(cfg, 1.1, I, index=4))
    b = to_grammar(gen_p_convex(cfg, 1.1, I, index=4))
    c = to_grammar(gen_p_convex(cfg, 1.1, I, index=5))
    assert a == b
    assert a != c


def test_rng_for_is_schedule_free():
    # drawing instance 7 does not depend on having drawn instances 0..6
    direct = rng_for(9, 7).uniform(size=4)
    for i in range(7):
        rng_for(9, i).uniform(size=10)
    again = rng_for(9, 7).uniform(size=4)
    assert np.array_equal(direct, again)


# seeds and indices: negative, 64-bit, and wider than 64 bits (both
# streams key on the low 64 bits)
_KEYS = [(0, 0), (42, 7), (-1, 3), (-(2**63), 2**64 - 1), (2**64 + 5, -9),
         (2**100 + 3, 2**70), (123456789, 2**63)]


@pytest.mark.parametrize("seed, index", _KEYS)
def test_stream_draws_what_numpys_philox_draws(seed, index):
    # interleaved, so integers' spare 32-bit half and the 4-word block
    # boundaries fall everywhere between the 64-bit uniform draws
    ours, numpys = _PhiloxStream(seed, index), rng_for(seed, index)
    pick = rng_for(seed + 1, index)
    for _ in range(300):
        kind = int(pick.integers(3))
        if kind == 0:
            want, got = numpys.uniform(), ours.uniform()
        elif kind == 1:
            lo = float(pick.uniform(-50.0, 50.0))
            hi = lo + float(pick.uniform(0.0, 100.0))
            want, got = numpys.uniform(lo, hi), ours.uniform(lo, hi)
        else:
            lo = int(pick.integers(-5, 5))
            hi = lo + int(pick.choice([1, 2, 3, 7, 2**31 + 5, 2**32 - 2]))
            want, got = int(numpys.integers(lo, hi)), ours.integers(lo, hi)
        assert got == want and type(got) is type(want), (kind, got, want)
    assert ours.uniform() == numpys.uniform()


def test_stream_zero_width_integers_draw_nothing():
    ours, numpys = _PhiloxStream(5, 1), rng_for(5, 1)
    for _ in range(5):
        assert ours.integers(1, 2) == numpys.integers(1, 2) == 1
    assert ours.uniform() == numpys.uniform()


class _Counting(_PhiloxStream):
    """A stream that counts its 32-bit draws."""

    def __init__(self, seed, index):
        super().__init__(seed, index)
        self.draws32 = 0

    def _next32(self):
        self.draws32 += 1
        return super()._next32()


def test_stream_integers_rejection_loop_matches_numpy():
    # 3 * 2**30 values: Lemire rejects a quarter of the 32-bit draws
    ours, numpys = _Counting(11, 4), rng_for(11, 4)
    for _ in range(200):
        assert ours.integers(-7, 3 * 2**30 - 7) == numpys.integers(-7, 3 * 2**30 - 7)
    assert ours.draws32 > 200  # the loop ran
    assert ours.uniform() == numpys.uniform()


@pytest.mark.parametrize("low, high, error, message", [
    (-1e308, 1e308, OverflowError, "high - low range exceeds valid bounds"),
    (0.0, math.inf, OverflowError, "high - low range exceeds valid bounds"),
    (math.nan, 1.0, OverflowError, "high - low range exceeds valid bounds"),
    (1.0, 0.0, ValueError, "high - low < 0"),
    (0.0, -0.0, ValueError, "high - low < 0"),
])
def test_stream_uniform_raises_what_numpy_raises(low, high, error, message):
    for rng in (rng_for(3, 3), _PhiloxStream(3, 3)):
        with pytest.raises(error, match=f"^{message}$"):
            rng.uniform(low, high)


def test_stream_integers_refuses_empty_and_wide_ranges():
    with pytest.raises(ValueError, match="^low >= high$"):
        _PhiloxStream(0, 0).integers(3, 3)
    with pytest.raises(ValueError, match="fewer than 2"):
        _PhiloxStream(0, 0).integers(0, 2**32)


def test_default_stream_is_rng_for():
    # the rng=None default and an explicit rng_for give the same draws
    cfg, I = GenConfig(seed=31), Interval(-0.4, 1.7)
    for i in range(10):
        assert to_grammar(gen_p_convex(cfg, 0.9, I, index=i)) == \
            to_grammar(gen_p_convex(cfg, 0.9, I, rng=rng_for(cfg.seed, i)))
        sym = gen_positive_weight(cfg, I, index=i, symmetric=False)
        ref = gen_positive_weight(cfg, I, rng=rng_for(cfg.seed, i),
                                  symmetric=False)
        assert to_grammar(sym.v) == to_grammar(ref.v)


def test_generated_functions_are_p_convex():
    cfg = GenConfig(seed=2024)
    for i in range(25):
        rng = rng_for(cfg.seed, i)
        I = draw_interval(cfg, rng)
        p = rng.uniform(0.1, 5.0) / I.length
        u = gen_p_convex(cfg, p, I, rng=rng)
        r = check_second_order(u, I, p)
        assert r.verdict in (Verdict.CONVEX, Verdict.BOUNDARY), (i, r)


def test_generated_functions_pass_all_four_checks():
    cfg = GenConfig(seed=77)
    for i in range(8):
        rng = rng_for(cfg.seed, i)
        I = draw_interval(cfg, rng)
        p = rng.uniform(0.2, 3.0)
        u = gen_p_convex(cfg, p, I, rng=rng)
        reports = check_all(u, I, p)
        assert methods_agree(reports), i
        assert all(r.is_convex for r in reports.values()), i


def test_boundary_draws_are_boundary():
    cfg = GenConfig(seed=3, boundary_prob=1.0)
    I = Interval(0.0, 1.5)
    u = gen_p_convex(cfg, 1.3, I, index=0)
    assert check_second_order(u, I, 1.3).verdict is Verdict.BOUNDARY


def test_gen_p_convex_at_p_zero_is_classically_convex():
    # the boundary member is a constant, and every mixture rate is at least
    # rate_margin
    I = Interval(-0.5, 1.0)
    for cfg in (GenConfig(seed=9), GenConfig(seed=3, boundary_prob=1.0)):
        for i in range(12):
            reports = check_all(gen_p_convex(cfg, 0.0, I, index=i), I, 0.0)
            verdicts = {r.verdict for r in reports.values()}
            assert verdicts <= {Verdict.CONVEX, Verdict.BOUNDARY}, (cfg, i)
            if cfg.boundary_prob == 1.0:
                assert verdicts == {Verdict.BOUNDARY}, i


def test_symmetric_weights_verify():
    cfg = GenConfig(seed=55)
    for i in range(20):
        rng = rng_for(cfg.seed, i)
        I = draw_interval(cfg, rng)
        w = gen_symmetric_weight(cfg, I, rng=rng)
        w.verify(I)  # positivity + symmetry, raises on failure
        xs = I.grid(101)
        mirrored = w.v.eval(I.a + I.b - xs)
        assert np.max(np.abs(mirrored - w.v.eval(xs))) <= 1e-12


@pytest.mark.parametrize("length", [20.0, 21.0, 25.0, 100 / 3, 34.0, 40.0])
def test_weights_on_long_intervals_verify(length):
    # past L = 100/3 (symmetric) and L = 20 (skew atom) the rate ranges
    # used to be empty, and numpy raised "high - low < 0"
    cfg = GenConfig(seed=17)
    I = Interval(-0.5 * length + 1.0, 0.5 * length + 1.0)
    for i in range(40):
        gen_symmetric_weight(cfg, I, index=i).verify(I)
        gen_positive_weight(cfg, I, index=i, symmetric=False).verify(I)


def test_asymmetric_weight_is_positive_but_not_symmetric():
    cfg = GenConfig(seed=6)
    I = Interval(-0.2, 1.3)
    w = gen_positive_weight(cfg, I, index=1, symmetric=False)
    assert not w.symmetric
    xs = I.grid(101)
    assert np.all(w.v.eval(xs) > 0)
    gap = np.max(np.abs(w.v.eval(I.a + I.b - xs) - w.v.eval(xs)))
    assert gap > 1e-6


# ---------------------------------------------------------------------------
# ODE path

def test_ode_homogeneous_matches_cosh():
    I = Interval(0.0, 1.0)
    sol = solve_p_convex_ode(2.0, I, constant(0.0), f0=1.0, df0=0.0)
    xs = np.linspace(0.0, 1.0, 500)
    assert np.max(np.abs(sol.value(xs) - np.cosh(2.0 * xs))) <= 1e-9
    assert np.max(np.abs(sol.derivative(xs) - 2.0 * np.sinh(2.0 * xs))) <= 1e-9
    # second derivative is the ODE right-hand side: exact
    assert np.max(np.abs(sol.second_derivative(xs) - 4.0 * np.cosh(2.0 * xs))) \
        <= 4.0 * 1e-9


def test_ode_constant_forcing_particular_solution():
    # f'' = f + c with f(0) = f'(0) = 0 solves to c*(cosh x - 1)
    I = Interval(0.0, 1.0)
    c = 0.7
    sol = solve_p_convex_ode(1.0, I, constant(c), f0=0.0, df0=0.0)
    xs = np.linspace(0.0, 1.0, 500)
    assert np.max(np.abs(sol.value(xs) - c * (np.cosh(xs) - 1.0))) <= 1e-9


def test_ode_outputs_are_p_convex():
    cfg = GenConfig(seed=8)
    I = Interval(-0.3, 0.9)
    psi = parse_function("0.2+pow(x,2)")
    sol = gen_p_convex_ode(cfg, 1.4, I, psi, index=0)
    assert isinstance(sol, SampledFunction)
    assert check_chord(sol, I, 1.4).verdict in (Verdict.CONVEX, Verdict.BOUNDARY)
    assert check_second_order(sol, I, 1.4).verdict is Verdict.CONVEX


def test_ode_rejects_negative_psi():
    with pytest.raises(ValueError, match="nonnegative"):
        gen_p_convex_ode(GenConfig(), 1.0, Interval(0.0, 1.0),
                         parse_function("x-0.5"))


def test_ode_deterministic_initial_data():
    cfg = GenConfig(seed=44)
    I = Interval(0.0, 1.0)
    s1 = gen_p_convex_ode(cfg, 1.0, I, constant(0.5), index=9)
    s2 = gen_p_convex_ode(cfg, 1.0, I, constant(0.5), index=9)
    assert s1.fs[0] == s2.fs[0]
    assert s1.dfs[0] == s2.dfs[0]


def test_sampled_function_domain_guard():
    sol = solve_p_convex_ode(1.0, Interval(0.0, 1.0), constant(0.0), 1.0, 0.0,
                             steps=64)
    with pytest.raises(ValueError):
        sol.value(1.5)
