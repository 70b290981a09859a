import math

import numpy as np
import pytest

from hypfrac.expressions import (
    Interval,
    add,
    build_exp,
    build_power,
    constant,
    cosh_centered,
    scaled,
)
from hypfrac.fractional import Family, FracParams, Side, fractional_integral
from hypfrac.generators import (
    GenConfig,
    draw_interval,
    gen_p_convex,
    gen_symmetric_weight,
    rng_for,
)
from hypfrac.grammar import parse_function
from hypfrac.inequalities import (
    InvalidWeightError,
    TheoremEvaluator,
    TheoremId,
    WeightSpec,
    eval_theorem,
    exp_flat_limit_alternative,
    exp_flat_limit_constant,
    kernel_cosh_moment,
    kernel_mass,
    kernel_moment,
    kernel_sinh_moment,
    limit_sweep,
    rl_flat_limit_constant,
    unit_weight,
)

I01 = Interval(0.0, 1.0)
X2 = build_power(2.0)


def test_hyperbolic_helpers_are_stable():
    from hypfrac.inequalities import csch, sech

    for t in (1e-12, 0.5, 5.0, 50.0):
        assert sech(t) == pytest.approx(1.0 / math.cosh(t), rel=1e-14)
        assert csch(t) == pytest.approx(1.0 / math.sinh(t), rel=1e-14)
        assert csch(-t) == pytest.approx(-csch(t), rel=1e-14)
    # far beyond the cosh/sinh overflow point
    assert sech(5000.0) == 0.0 or sech(5000.0) < 1e-300
    assert csch(5000.0) == 0.0 or csch(5000.0) < 1e-300
    with pytest.raises(ZeroDivisionError):
        csch(0.0)


# ---------------------------------------------------------------------------
# kernel moments

@pytest.mark.parametrize("family,alpha", [
    (None, None), (Family.RL, 0.3), (Family.RL, 0.8), (Family.RL, 1.5),
    (Family.RL, 2.5), (Family.EXP, 0.3), (Family.EXP, 0.8),
])
def test_kernel_moment_of_one_is_kernel_mass(family, alpha):
    for I in (I01, Interval(-0.4, 1.1), Interval(0.5, 3.7)):
        got = kernel_moment(np.ones_like, I, family, alpha)
        assert got == pytest.approx(kernel_mass(I, family, alpha), rel=1e-13)


def test_kernel_moment_is_the_two_sided_operator_pair():
    # the operators integrate each side on its own: an independent reference
    cfg = GenConfig(seed=42)
    for index in range(8):
        rng = rng_for(cfg.seed, index)
        I = draw_interval(cfg, rng)
        p = rng.uniform(0.05, 5.0) / I.length
        u = gen_p_convex(cfg, p, I, rng=rng)
        v = gen_symmetric_weight(cfg, I, rng=rng).v
        uv = lambda x: u.eval(x) * v.eval(x)
        for family, alphas in ((Family.RL, (0.3, 0.5, 0.8, 1.0, 1.5)),
                               (Family.EXP, (0.3, 0.5, 0.8))):
            for alpha in alphas:
                params = FracParams(alpha, family)
                pair = (fractional_integral(uv, I, params, Side.LEFT, I.b).value
                        + fractional_integral(uv, I, params, Side.RIGHT, I.a).value)
                got = kernel_moment(uv, I, family, alpha)
                assert got == pytest.approx(pair, rel=1e-13), (index, family, alpha)


def test_cosh_moment_rl_alpha_one():
    # kernel is the constant 2: value is 2 * integral of cosh(x - 1/2)
    got = kernel_cosh_moment(unit_weight(), I01, 1.0, 1.0, Family.RL)
    assert got == pytest.approx(4.0 * math.sinh(0.5), rel=1e-11)


def test_cosh_moment_rl_small_p_limit():
    got = kernel_cosh_moment(unit_weight(), I01, 0.5, 1e-8, Family.RL)
    assert got == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-10)
    assert rl_flat_limit_constant(I01, 0.5) == pytest.approx(
        4.0 / math.sqrt(math.pi), rel=1e-15)


def test_cosh_moment_exp_p_zero():
    got = kernel_cosh_moment(unit_weight(), I01, 0.5, 0.0, Family.EXP)
    assert got == pytest.approx(4.0 * (1.0 - math.exp(-1.0)), rel=1e-11)
    assert exp_flat_limit_constant(I01, 0.5) == pytest.approx(
        4.0 * (1.0 - math.exp(-1.0)), rel=1e-15)
    # the alternative closed form disagrees: surfaced, never used
    assert exp_flat_limit_alternative(I01, 0.5) != pytest.approx(
        exp_flat_limit_constant(I01, 0.5), rel=1e-3)


def test_sinh_moment_vanishes_for_symmetric_weight():
    w = WeightSpec(parse_function("1+pow(x-0.5,2)"))
    for family, alpha in ((Family.RL, 0.6), (Family.RL, 1.0), (Family.EXP, 0.6)):
        s = kernel_sinh_moment(w, I01, alpha, 1.3, family)
        c = kernel_cosh_moment(w, I01, alpha, 1.3, family)
        assert abs(s) <= 1e-9 * abs(c)


def test_sinh_moment_nonzero_for_asymmetric_weight():
    # plain weight e^x at alpha = 1, p = 1: two independent antiderivatives
    # integral of 2 sinh(x - 1/2) e^x dx over [0, 1]
    #   = (e^1.5 - e^-0.5)/2 - e^0.5  (exact antiderivative)
    w = WeightSpec(build_exp(1.0), symmetric=False)
    got = kernel_sinh_moment(w, I01, 1.0, 1.0, Family.RL)
    exact = (math.exp(1.5) - math.exp(-0.5)) / 2.0 - math.exp(0.5)
    assert got == pytest.approx(exact, rel=1e-11)


# ---------------------------------------------------------------------------
# single theorem evaluations against closed forms

def test_hh_on_square():
    v = eval_theorem("HH_1_1", X2, I01)
    assert (v.lhs, v.mid, v.rhs) == pytest.approx((0.25, 1.0 / 3.0, 0.5), rel=1e-12)
    assert v.holds
    assert v.slack_left == pytest.approx(1.0 / 12.0, rel=1e-10)


def test_fejer_with_unit_weight_reduces_to_hh():
    v = eval_theorem("FEJER_1_2", X2, I01, v=unit_weight())
    assert (v.lhs, v.mid, v.rhs) == pytest.approx((0.25, 1.0 / 3.0, 0.5), rel=1e-11)


def test_fhh_alpha_one_reduces_to_hh():
    v = eval_theorem("FHH", X2, I01, alpha=1.0)
    assert (v.lhs, v.mid, v.rhs) == pytest.approx((0.25, 1.0 / 3.0, 0.5), rel=1e-11)


def test_fhh2_of_constant_is_flat():
    v = eval_theorem("FHH2", constant(1.0), I01, alpha=0.5)
    assert (v.lhs, v.mid, v.rhs) == pytest.approx((1.0, 1.0, 1.0), rel=1e-11)


def test_d1_equality_case():
    u = cosh_centered(1.0, 0.5)
    v = eval_theorem("D1", u, I01, p=1.0)
    expected = 2.0 * math.sinh(0.5)
    assert (v.lhs, v.mid, v.rhs) == pytest.approx(
        (expected, expected, expected), rel=1e-11)
    assert v.holds


def test_d1_p_zero_is_classical_times_length():
    v = eval_theorem("D1", X2, I01, p=0.0)
    assert (v.lhs, v.mid, v.rhs) == pytest.approx((0.25, 1.0 / 3.0, 0.5), rel=1e-11)


@pytest.mark.parametrize("tid,alpha", [
    ("D2", None), ("D4", 0.5), ("D4", 1.5), ("D5", 0.5),
])
def test_equality_collapse_for_kernel_member(tid, alpha):
    a, b, p = 0.2, 1.4, 1.7
    I = Interval(a, b)
    u = scaled(1.9, cosh_centered(p, I.mid))
    w = WeightSpec(parse_function(f"1+0.5*cosh(1.1*(x-{I.mid}))"))
    v = eval_theorem(tid, u, I, v=w if tid == "D2" else None, alpha=alpha, p=p)
    sides = np.array(v.sides())
    assert np.max(sides) - np.min(sides) <= 1e-9 * np.max(np.abs(sides))
    assert v.holds


def test_d4_strict_printed_mode_is_violated_at_equality():
    # the as-printed right constant sech(p(b-a)) fails the tight case:
    # recorded as erratum evidence, not asserted as a theorem
    u = cosh_centered(1.0, 0.5)
    v = eval_theorem("D4", u, I01, p=1.0, alpha=0.5, strict_printed=True)
    assert not v.holds
    assert v.slack_right < -1e-3
    assert v.params["constant_mode"] == "printed"


def test_d3_upper_bound_no_mid():
    w = WeightSpec(parse_function("1+pow(x-0.5,2)"))
    v = eval_theorem("D3", cosh_centered(2.0, 0.3), I01, v=w, p=1.0)
    assert v.mid is None
    assert v.slack_left is None
    assert v.holds
    assert v.sides() == (v.lhs, v.rhs)


def test_d8_d9_coincide_with_d6_d7_bounds_for_symmetric_weight():
    # symmetric weight kills the sinh moment, so the D8/D9 bound equals the
    # D6/D7 right-hand side while the left sides agree by definition
    I = Interval(-0.4, 1.1)
    p = 1.2
    u = gen_p_convex(GenConfig(seed=5), p, I, index=2)
    w = gen_symmetric_weight(GenConfig(seed=5), I, index=3)
    ev = TheoremEvaluator(u, I, p=p, weight=w)
    for upper, two_sided, alpha in (("D8", "D6", 0.7), ("D8", "D6", 1.5),
                                    ("D9", "D7", 0.7)):
        vu = ev.evaluate(TheoremId(upper), alpha=alpha)
        vt = ev.evaluate(TheoremId(two_sided), alpha=alpha)
        assert vu.lhs == pytest.approx(vt.mid, rel=1e-11)
        assert vu.rhs == pytest.approx(vt.rhs, rel=1e-9)


def test_chain_validity_on_generated_instances():
    cfg = GenConfig(seed=11)
    for i in range(5):
        rng = rng_for(cfg.seed, i)
        length = rng.uniform(0.4, 2.5)
        center = rng.uniform(-1.0, 1.0)
        I = Interval(center - length / 2, center + length / 2)
        p = rng.uniform(0.1, 4.0) / length
        u = gen_p_convex(cfg, p, I, rng=rng)
        w = gen_symmetric_weight(cfg, I, rng=rng)
        ev = TheoremEvaluator(u, I, p=p, weight=w)
        for tid in ("D2", "D3"):
            assert ev.evaluate(TheoremId(tid)).holds, (tid, i)
        for tid, alpha in (("D4", 0.3), ("D4", 1.5), ("D6", 0.8), ("D8", 0.5),
                           ("D5", 0.3), ("D7", 0.8), ("D9", 0.5)):
            assert ev.evaluate(TheoremId(tid), alpha=alpha).holds, (tid, i)


def test_reduction_rl_alpha_one_matches_classical():
    I = Interval(0.3, 1.6)
    p = 0.9
    u = add(cosh_centered(1.4, 0.9), scaled(0.4, build_exp(1.2)))
    w = WeightSpec(parse_function(f"1+pow(x-{I.mid},2)"))
    ev = TheoremEvaluator(u, I, p=p, weight=w)
    d6 = ev.evaluate(TheoremId.D6, alpha=1.0)
    d2 = ev.evaluate(TheoremId.D2)
    # at alpha = 1 the two-sided RL kernel is the constant 2
    assert d6.lhs == pytest.approx(2.0 * d2.lhs, rel=1e-9)
    assert d6.mid == pytest.approx(2.0 * d2.mid, rel=1e-9)
    assert d6.rhs == pytest.approx(2.0 * d2.rhs, rel=1e-9)


# ---------------------------------------------------------------------------
# validation and weights

def test_missing_parameters_raise():
    with pytest.raises(ValueError, match="weight"):
        eval_theorem("FEJER_1_2", X2, I01)
    with pytest.raises(ValueError, match="alpha"):
        eval_theorem("FHH", X2, I01)
    with pytest.raises(ValueError, match="p"):
        eval_theorem("D1", X2, I01)
    with pytest.raises(ValueError, match="alpha must be in"):
        eval_theorem("FHH2", X2, I01, alpha=1.5)


def test_nonpositive_weight_rejected():
    w = WeightSpec(parse_function("x-0.5"), symmetric=False)
    with pytest.raises(InvalidWeightError, match="positive"):
        eval_theorem("D8", X2, I01, v=w, p=1.0, alpha=0.5, allow_asymmetric=True)


def test_asymmetric_weight_policy():
    w = WeightSpec(parse_function("1+0.5*x"), symmetric=False)
    with pytest.raises(InvalidWeightError, match="symmetric"):
        eval_theorem("D2", X2, I01, v=w, p=1.0)
    with pytest.raises(InvalidWeightError, match="symmetric"):
        eval_theorem("D8", X2, I01, v=w, p=1.0, alpha=0.5)
    verdict = eval_theorem("D8", cosh_centered(2.0, 0.5), I01, v=w, p=1.0,
                           alpha=0.5, allow_asymmetric=True)
    assert verdict.holds


def test_weight_symmetry_flag_is_verified():
    lying = WeightSpec(parse_function("1+0.5*x"), symmetric=True)
    with pytest.raises(InvalidWeightError, match="flagged symmetric"):
        eval_theorem("D2", X2, I01, v=lying, p=1.0)


# ---------------------------------------------------------------------------
# limit sweeps

def test_limit_sweep_d4_to_fhh():
    u = cosh_centered(2.0, 0.5)
    sweep = limit_sweep("D4", "FHH", u, I01, alphas=(0.5,), ps=(1e-2, 1e-4, 1e-6))
    deltas = [r.max_delta for r in sweep.rows]
    assert deltas[0] > deltas[1] > deltas[2]
    assert deltas[-1] <= 1e-5
    assert sweep.decay_rate == pytest.approx(2.0, abs=0.2)


def test_limit_sweep_d8_to_d3():
    u = cosh_centered(2.0, 0.5)
    w = WeightSpec(parse_function("1+pow(x-0.5,2)"))
    sweep = limit_sweep("D8", "D3", u, I01, weight=w,
                        alphas=(0.9, 0.99, 0.999), ps=(1.0,))
    deltas = [r.max_delta for r in sweep.rows]
    assert deltas[0] > deltas[1] > deltas[2]
    assert sweep.axis == "alpha"


def test_limit_sweep_d5_note_surfaces_discrepancy():
    u = cosh_centered(1.0, 0.5)
    sweep = limit_sweep("D5", "FHH2", u, I01, alphas=(0.5,), ps=(1e-4,))
    assert sweep.notes and "does not match" in sweep.notes[0]


def test_limit_sweep_unknown_pairing():
    with pytest.raises(ValueError, match="no documented limit"):
        limit_sweep("D4", "D3", X2, I01)
