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
from hypfrac.fractional import (
    OPERATOR_QUAD,
    Family,
    FracParams,
    Side,
    exp_flat_limit_alternative,
    fractional_integral,
    kernel_mass,
    kernel_moment,
)
from hypfrac.generators import (
    GenConfig,
    draw_interval,
    gen_p_convex,
    gen_symmetric_weight,
    rng_for,
)
from hypfrac.grammar import parse_function
from hypfrac.quadrature import Endpoint, integrate_singular
from hypfrac.inequalities import (
    InvalidWeightError,
    TheoremEvaluator,
    TheoremId,
    WeightSpec,
    _LIMIT_PAIRINGS,
    _REQUIRES,
    _moment_layout,
    eval_theorem,
    kernel_cosh_moment,
    kernel_sinh_moment,
    limit_sweep,
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
    kernel = None if family is None else FracParams(alpha, family)
    for I in (I01, Interval(-0.4, 1.1), Interval(0.5, 3.7)):
        got = kernel_moment(np.ones_like, I, kernel)
        assert got == pytest.approx(kernel_mass(I, kernel), rel=1e-13)


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
                got = kernel_moment(uv, I, params)
                assert got == pytest.approx(pair, rel=1e-13), (index, family, alpha)


# ---------------------------------------------------------------------------
# the moment bank

_CAMPAIGN_KERNELS = [(None, None)] + \
    [(Family.RL, a) for a in (0.3, 0.5, 0.8, 1.0, 1.5)] + \
    [(Family.EXP, a) for a in (0.3, 0.5, 0.8)]


def test_banked_moments_equal_kernel_moment():
    # the reference integrands are written out here, independent of the bank
    cfg = GenConfig(seed=42)
    for index in range(20):
        rng = rng_for(cfg.seed, index)
        I = draw_interval(cfg, rng)
        p = rng.uniform(0.05, 5.0) / I.length
        u = gen_p_convex(cfg, p, I, rng=rng)
        w = gen_symmetric_weight(cfg, I, rng=rng)
        m, uf, vf = I.mid, u.eval, w.v.eval
        integrands = {
            "u": uf,
            "v": vf,
            "uv": lambda x: uf(x) * vf(x),
            "cosh": lambda x: np.cosh(p * (x - m)),
            "cosh_v": lambda x: np.cosh(p * (x - m)) * vf(x),
            "sinh_v": lambda x: np.sinh(p * (x - m)) * vf(x),
            "xm_v": lambda x: (x - m) * vf(x),
        }
        keys = [(which, None if family is None else FracParams(alpha, family))
                for family, alpha in _CAMPAIGN_KERNELS for which in integrands]
        # every moment of the instance in one stacked pass
        got = TheoremEvaluator(u, I, p=p, weight=w)._moment_values(
            _moment_layout(tuple(keys)))
        for (which, kernel), value in zip(keys, got):
            ref = kernel_moment(integrands[which], I, kernel)
            assert value == ref, (index, which, kernel, value, ref)


def test_rejected_bank_moment_falls_back_alone():
    # exp(60x) is too steep for the 20/40 pair: the fixed rule rejects it
    I = Interval(0.0, 3.5)
    u = build_exp(60.0)
    uf = u.eval
    assert integrate_singular(uf, I, 0.3, Endpoint.LEFT,
                              OPERATOR_QUAD).subdivisions_used > 0
    rl = FracParams(0.3, Family.RL)
    keys = [("u", rl), ("v", rl)] + [
        (which, kernel) for which in ("cosh", "uv") for kernel in (rl, None)]
    got = TheoremEvaluator(u, I, p=1.0, weight=unit_weight())._moment_values(
        _moment_layout(tuple(keys))).tolist()
    assert got[0] == kernel_moment(uf, I, rl)
    assert got[1] == kernel_moment(lambda x: np.ones_like(x), I, rl)
    # every moment of the batch equals the same moment computed alone
    for key, value in zip(keys, got):
        alone = TheoremEvaluator(u, I, p=1.0, weight=unit_weight())._moment_values(
            _moment_layout((key,)))
        assert alone.tolist() == [value], key


def test_cold_hh_evaluates_u_on_one_node_array(monkeypatch):
    sizes = []

    def u(x):
        x = np.asarray(x, dtype=float)
        sizes.append(x.size)
        return x * x + 1.0

    def boom(*args, **kwargs):
        raise AssertionError("cosh or sinh evaluated")

    monkeypatch.setattr(np, "cosh", boom)
    monkeypatch.setattr(np, "sinh", boom)
    verdict = TheoremEvaluator(u, Interval(-0.3, 1.2)).evaluate("HH_1_1")
    assert verdict.holds
    # the three endpoint values, then u on the 20 + 40 Gauss-Legendre nodes
    assert sorted(sizes) == [1, 1, 1, 60]


def test_cosh_moment_rl_alpha_one():
    # kernel is the constant 2: value is 2 * integral of cosh(x - 1/2)
    got = kernel_cosh_moment(unit_weight(), I01, 1.0, 1.0, Family.RL)
    assert got == pytest.approx(4.0 * math.sinh(0.5), rel=1e-11)


def test_cosh_moment_rl_small_p_limit():
    got = kernel_cosh_moment(unit_weight(), I01, 0.5, 1e-8, Family.RL)
    assert got == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-10)
    assert kernel_mass(I01, FracParams(0.5, Family.RL)) == pytest.approx(
        4.0 / math.sqrt(math.pi), rel=1e-15)


def test_cosh_moment_exp_p_zero():
    got = kernel_cosh_moment(unit_weight(), I01, 0.5, 0.0, Family.EXP)
    assert got == pytest.approx(4.0 * (1.0 - math.exp(-1.0)), rel=1e-11)
    assert kernel_mass(I01, FracParams(0.5, Family.EXP)) == pytest.approx(
        4.0 * (1.0 - math.exp(-1.0)), rel=1e-15)
    # the alternative closed form disagrees: surfaced, never used
    assert exp_flat_limit_alternative(I01, 0.5) != pytest.approx(
        kernel_mass(I01, FracParams(0.5, Family.EXP)), rel=1e-3)


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


# ---------------------------------------------------------------------------
# one Hermite-Hadamard-Fejer sandwich: the paper's claim as identities

# per kernel family: the weighted sandwich without and with p, the
# unweighted one without and with p, and the tilt bound
_FAMILY_THEOREMS = {
    None: ("FEJER_1_2", "D2", "HH_1_1", "D1", "D3"),
    Family.RL: ("FHHF", "D6", "FHH", "D4", "D8"),
    Family.EXP: ("FHHF2", "D7", "FHH2", "D5", "D9"),
}


def _sandwich_cases(n=40):
    """(index, family, alpha, evaluator at the instance's p, evaluator at
    p = 0) over the campaign's kernels on n seed-42 instances."""
    cfg = GenConfig(seed=42)
    for index in range(n):
        rng = rng_for(cfg.seed, index)
        I = draw_interval(cfg, rng)
        p = rng.uniform(0.05, 5.0) / I.length
        u = gen_p_convex(cfg, p, I, rng=rng)
        w = gen_symmetric_weight(cfg, I, rng=rng)
        ev = TheoremEvaluator(u, I, p=p, weight=w)
        ev0 = TheoremEvaluator(u, I, p=0.0, weight=w)
        for family, alpha in _CAMPAIGN_KERNELS:
            yield index, family, alpha, ev, ev0


def _rel_gap(got, ref):
    return max(abs(g - r) / abs(r) for g, r in zip(got, ref))


def test_weighted_theorems_without_p_are_the_p_zero_members():
    for index, family, alpha, ev, ev0 in _sandwich_cases():
        without_p, with_p = _FAMILY_THEOREMS[family][:2]
        got = ev.evaluate(TheoremId(without_p), alpha=alpha).sides()
        ref = ev0.evaluate(TheoremId(with_p), alpha=alpha).sides()
        assert got == ref, (index, without_p, alpha)


def test_unweighted_theorems_without_p_are_p_zero_members_over_the_mass():
    for index, family, alpha, ev, ev0 in _sandwich_cases():
        without_p, with_p = _FAMILY_THEOREMS[family][2:4]
        got = ev.evaluate(TheoremId(without_p), alpha=alpha).sides()
        mass = kernel_mass(ev.interval, None if family is None else
                           FracParams(alpha, family))
        ref = [s / mass for s in
               ev0.evaluate(TheoremId(with_p), alpha=alpha).sides()]
        assert _rel_gap(got, ref) <= 1e-14, (index, without_p, alpha)


def test_tilt_bound_of_a_symmetric_weight_is_the_sandwich_upper_half():
    for index, family, alpha, ev, _ in _sandwich_cases():
        sandwich, tilt = _FAMILY_THEOREMS[family][1], _FAMILY_THEOREMS[family][4]
        vt = ev.evaluate(TheoremId(tilt), alpha=alpha)
        vs = ev.evaluate(TheoremId(sandwich), alpha=alpha)
        assert vt.lhs == vs.mid, (index, tilt, alpha)
        assert _rel_gap([vt.rhs], [vs.rhs]) <= 1e-14, (index, tilt, alpha)


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


ASYMMETRIC = WeightSpec(parse_function("1+0.5*x"), symmetric=False)
NEGATIVE = WeightSpec(parse_function("x-0.5"), symmetric=True)


@pytest.mark.parametrize("tid,kwargs,error,message", [
    # a one-row plan checks p, then alpha, then the weight
    ("D4", dict(alpha=-1.0), ValueError, "D4 requires the hyperbolic parameter p"),
    ("D2", dict(v=NEGATIVE), ValueError, "D2 requires the hyperbolic parameter p"),
    ("D6", dict(p=1.0), ValueError, "D6 requires a fractional order alpha"),
    ("FHHF", dict(alpha=-1.0), ValueError, "alpha must be positive for family rl"),
    ("FHHF", dict(alpha=200.0, v=ASYMMETRIC), ValueError,
     "alpha 200.0 is out of range for family rl: Gamma"),
    ("D9", dict(p=1.0, v=ASYMMETRIC, alpha=1.5), ValueError,
     r"alpha must be in \(0, 1\) for family exp"),
    ("D8", dict(p=1.0, v=NEGATIVE, alpha=0.5), InvalidWeightError,
     "weight must be positive"),
    ("D7", dict(p=1.0, v=ASYMMETRIC, alpha=0.5), InvalidWeightError,
     "D7 requires a symmetric weight"),
])
def test_one_row_plan_reports_its_first_failing_requirement(tid, kwargs, error,
                                                            message):
    with pytest.raises(error, match=f"^{message}"):
        eval_theorem(tid, X2, I01, **kwargs)


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


@pytest.mark.parametrize("tid,bid", [
    ("D4", "FHH"), ("D5", "FHH2"), ("D6", "FHHF"), ("D7", "FHHF2"),
    ("D8", "D3"), ("D9", "D3"),
])
def test_limit_sweep_closes_the_gap_to_each_baseline(tid, bid):
    # a wrong baseline scale leaves a gap that does not close
    I = Interval(-0.4, 1.1)
    u = gen_p_convex(GenConfig(seed=5), 1.2, I, index=2)
    w = gen_symmetric_weight(GenConfig(seed=5), I, index=3)
    if bid == "D3":
        sweep = limit_sweep(tid, bid, u, I, weight=w,
                            alphas=(0.9, 0.99, 0.999), ps=(1.2,))
        deltas = [r.max_delta for r in sweep.rows]
        assert sweep.axis == "alpha"
        assert deltas[0] > deltas[1] > deltas[2]
        assert sweep.decay_rate == pytest.approx(1.0, abs=0.1)
        return
    alphas = (0.3, 0.8) if tid in ("D5", "D7") else (0.5, 1.5)
    sweep = limit_sweep(tid, bid, u, I, weight=w, alphas=alphas,
                        ps=(1e-1, 1e-2))
    assert sweep.axis == "p"
    for coarse, fine in zip(sweep.rows[::2], sweep.rows[1::2]):
        assert coarse.alpha == fine.alpha
        # |delta| ~ p**2
        assert fine.max_delta / coarse.max_delta == pytest.approx(1e-2, rel=0.05)


def test_limit_sweep_alpha_axis_sweeps_every_p():
    u = cosh_centered(2.0, 0.5)
    w = WeightSpec(parse_function("1+pow(x-0.5,2)"))
    alphas, ps = (0.9, 0.99, 0.999), (2.0, 0.5)
    sweep = limit_sweep("D8", "D3", u, I01, weight=w, alphas=alphas, ps=ps)
    assert [(r.p, r.alpha) for r in sweep.rows] == [
        (p, alpha) for p in ps for alpha in alphas]
    singles = [limit_sweep("D8", "D3", u, I01, weight=w, alphas=alphas,
                           ps=(p,)) for p in ps]
    assert sweep.rows == singles[0].rows + singles[1].rows
    # each p against its own D3 baseline, times the kernel constant 2
    d3 = TheoremEvaluator(u, I01, p=0.5, weight=w).evaluate("D3")
    assert sweep.rows[-1].baseline_sides == tuple(2.0 * s for s in d3.sides())
    # the slowest decay speaks for the sweep, here the second p's
    rates = [single.decay_rate for single in singles]
    assert rates[1] < rates[0]
    assert sweep.decay_rate == rates[1]


def test_limit_sweep_p_axis_decay_rate_is_the_slowest_alpha():
    u = cosh_centered(2.0, 0.5)
    alphas, ps = (0.3, 1.5), (1e-1, 1e-2)
    sweep = limit_sweep("D4", "FHH", u, I01, alphas=alphas, ps=ps)
    rates = [limit_sweep("D4", "FHH", u, I01, alphas=(alpha,), ps=ps).decay_rate
             for alpha in alphas]
    assert rates[1] < rates[0]
    assert sweep.decay_rate == rates[1]


@pytest.mark.parametrize("tid,bid,ps", [
    *(pytest.param(tid, bid, None, id=f"{tid.value}-{bid.value}")
      for tid, bid in _LIMIT_PAIRINGS),
    # through p = 0, where the weighted baselines (D6, D7) sit in every
    # p's plan beside the theorem's tilt-free rows
    *(pytest.param(tid, bid, (1e-1, 1e-2, 0.0),
                   id=f"{tid.value}-{bid.value}-through-p0")
      for tid, bid in _LIMIT_PAIRINGS if bid is not TheoremId.D3),
])
def test_limit_sweep_rows_equal_one_row_verdicts(tid, bid, ps):
    # a sweep evaluates one plan per p; each of its sides must be the side
    # of a fresh one-row evaluation at that (p, alpha), times the scale,
    # and a p sweep's baseline, which has no p, the same at every p
    I = Interval(-0.4, 1.1)
    u = gen_p_convex(GenConfig(seed=5), 1.2, I, index=2)
    w = gen_symmetric_weight(GenConfig(seed=5), I, index=3)
    if bid is TheoremId.D3:
        alphas, ps = (0.9, 0.99), (1.2, 0.4)
    elif _REQUIRES[tid].family is Family.EXP:
        alphas, ps = (0.3, 0.8), ps or (1e-1, 1e-2)
    else:
        alphas, ps = (0.5, 1.5), ps or (1e-1, 1e-2)
    sweep = limit_sweep(tid, bid, u, I, weight=w, alphas=alphas, ps=ps)
    notes, points = [], []
    for p, alpha in [(p, alpha) for p in ps for alpha in alphas]:
        if sweep.axis == "alpha":
            scale, base = 2.0, eval_theorem(bid, u, I, v=w, p=p)
        else:
            scale, base = 1.0, eval_theorem(bid, u, I, v=w, p=ps[0], alpha=alpha)
            if not _REQUIRES[bid].weighted:
                scale = kernel_mass(I, FracParams(alpha, _REQUIRES[bid].family))
        if bid is TheoremId.FHH2 and p == ps[0]:
            notes.append(
                f"alpha={alpha:g}: p->0 kernel constant computes to "
                f"2*(1-exp(-rho))/(1-alpha) = {scale:.9g}; the alternative "
                f"closed form 2*exp(-rho)/(1-alpha) = "
                f"{exp_flat_limit_alternative(I, alpha):.9g} does not match "
                "the integral and is not used")
        sides = eval_theorem(tid, u, I, v=w, p=p, alpha=alpha).sides()
        points.append(((p, alpha), sides, tuple(scale * s for s in base.sides())))
    rows = {(r.p, r.alpha): r for r in sweep.rows}
    assert list(rows) == ([(p, alpha) for alpha in alphas for p in ps]
                          if sweep.axis == "p" else [point for point, *_ in points])
    for point, sides, scaled_base in points:
        assert repr(rows[point].sides) == repr(sides), point
        assert repr(rows[point].baseline_sides) == repr(scaled_base), point
    assert sweep.notes == notes


@pytest.mark.parametrize("ps,alphas,name", [
    ((1e-2, 1e-2), (0.5,), "ps"),
    ((1e-2, 1e-3), (0.5, 0.3, 0.5), "alphas"),
])
def test_limit_sweep_rejects_a_repeated_value(ps, alphas, name):
    # a repeated point would fit a decay rate through one point
    with pytest.raises(ValueError, match=f"^{name} must not repeat a value"):
        limit_sweep("D4", "FHH", X2, I01, alphas=alphas, ps=ps)
    with pytest.raises(ValueError, match=f"^{name} must not repeat a value"):
        limit_sweep("D8", "D3", X2, I01, weight=unit_weight(), alphas=alphas,
                    ps=ps)


def test_limit_sweep_unknown_pairing():
    with pytest.raises(ValueError, match="no documented limit"):
        limit_sweep("D4", "D3", X2, I01)
