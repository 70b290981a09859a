"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line (run with -s or -v to see them live)."""

import math
import time

import numpy as np
import pytest

from hypfrac.campaign import CampaignConfig, rows_to_csv, run_campaign
from hypfrac.convexity import check_all, methods_agree
from hypfrac.expressions import (
    Interval,
    build_power,
    compose_affine,
    constant,
    cosh_centered,
    power_of,
    scaled,
    X,
)
from hypfrac.fractional import (
    Family,
    exp_left,
    exp_right,
    exp_unit_left,
    rl_left,
    rl_monomial_left,
    rl_right,
)
from hypfrac.generators import GenConfig, gen_p_convex, gen_symmetric_weight, rng_for
from hypfrac.inequalities import (
    TheoremEvaluator,
    TheoremId,
    kernel_cosh_moment,
    kernel_sinh_moment,
    limit_sweep,
    unit_weight,
)
from test_convexity import locate_power_boundary

ONE = constant(1.0)

# moderate-amplitude population for the absolute-tolerance criteria
MODERATE = GenConfig(seed=0, length_range=(0.5, 2.0), center_range=(-1.0, 1.0),
                     coef_range=(0.1, 1.5), rate_spread=2.0)


def _report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n} {status}: {detail}")
    assert ok, detail


def test_criterion_1_operator_oracles():
    start = time.perf_counter()
    worst_rl = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0, 1.5):
        for k in range(5):
            a, b = 0.2, 1.6
            I = Interval(a, b)
            fl = power_of(compose_affine(X, 1.0, -a), float(k))
            expected = rl_monomial_left(k, a, alpha, b)
            got = rl_left(fl, I, alpha, b)
            worst_rl = max(worst_rl, abs(got - expected) / abs(expected))
            fr = power_of(compose_affine(X, -1.0, b), float(k))  # (b-x)^k
            got_r = rl_right(fr, I, alpha, a)
            worst_rl = max(worst_rl, abs(got_r - expected) / abs(expected))
    worst_exp = 0.0
    for alpha in (0.25, 0.5, 0.75):
        a, b = 0.2, 1.6
        I = Interval(a, b)
        expected = exp_unit_left(a, alpha, b)
        worst_exp = max(worst_exp, abs(exp_left(ONE, I, alpha, b) - expected)
                        / abs(expected))
        worst_exp = max(worst_exp, abs(exp_right(ONE, I, alpha, a) - expected)
                        / abs(expected))
    elapsed = time.perf_counter() - start
    ok = worst_rl <= 1e-9 and worst_exp <= 1e-10 and elapsed < 1.0
    _report(1, ok, f"rl rel err {worst_rl:.2e} (<=1e-9), "
                   f"exp rel err {worst_exp:.2e} (<=1e-10), {elapsed:.2f}s (<1s)")


def test_criterion_2_equality_tightness():
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = rng_for(4242, i)
        a = rng.uniform(-1.0, 0.5)
        b = a + rng.uniform(0.4, 2.2)
        I = Interval(a, b)
        p = rng.uniform(0.2, 2.5)
        A = rng.uniform(0.5, 2.5)
        u = scaled(A, cosh_centered(p, I.mid))
        w = gen_symmetric_weight(MODERATE, I, rng=rng)
        alpha_rl = rng.uniform(0.3, 1.5)
        alpha_exp = rng.uniform(0.2, 0.85)
        ev = TheoremEvaluator(u, I, p=p, weight=w)
        for tid, alpha in ((TheoremId.D1, None), (TheoremId.D2, None),
                           (TheoremId.D4, alpha_rl), (TheoremId.D5, alpha_exp)):
            sides = np.array(ev.evaluate(tid, alpha=alpha).sides())
            spread = (sides.max() - sides.min()) / max(1.0, np.abs(sides).max())
            worst = max(worst, spread)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(2, ok, f"worst relative spread {worst:.2e} (<=1e-9) over 20 draws "
                   f"x (D1, D2, D4, D5), {elapsed:.2f}s (<5s)")


def test_criterion_3_property_campaign(full_campaign):
    cfg, report, rows, elapsed = full_campaign
    assert cfg.seed == 42 and cfg.n_instances == 1000
    d_rows = [r for r in rows
              if r["theorem_id"] in ("D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9")]
    worst = min(min(s for s in (r["slack_left"], r["slack_right"])
                    if s is not None) for r in d_rows)
    scaled_ok = all(r["holds"] for r in d_rows)
    ok = scaled_ok and report.violations == 0 and elapsed < 300.0
    _report(3, ok, f"{len(d_rows)} D2-D9 verdicts, worst slack {worst:.2e}, "
                   f"{report.violations} violations, {elapsed:.0f}s (<300s)")


def test_criterion_4_limit_recovery():
    pairs_p = [("D4", "FHH", False), ("D6", "FHHF", True),
               ("D5", "FHH2", False), ("D7", "FHHF2", True)]
    worst_p = 0.0
    for i in range(10):
        rng = rng_for(555, i)
        I = Interval(-0.2, -0.2 + rng.uniform(0.5, 1.8))
        p0 = 1e-6
        u = gen_p_convex(MODERATE, 0.5, I, rng=rng)
        w = gen_symmetric_weight(MODERATE, I, rng=rng)
        alpha_rl = rng.uniform(0.3, 0.9)
        alpha_exp = rng.uniform(0.3, 0.85)
        for tid, bid, needs_w in pairs_p:
            alpha = alpha_exp if tid in ("D5", "D7") else alpha_rl
            sweep = limit_sweep(tid, bid, u, I, weight=w if needs_w else None,
                                alphas=(alpha,), ps=(p0,))
            worst_p = max(worst_p, sweep.rows[0].max_delta)
    worst_a = 0.0
    for i in range(10):
        rng = rng_for(556, i)
        I = Interval(0.1, 0.1 + rng.uniform(0.5, 1.8))
        p = rng.uniform(0.3, 1.5)
        u = gen_p_convex(MODERATE, p, I, rng=rng)
        w = gen_symmetric_weight(MODERATE, I, rng=rng)
        for tid in ("D8", "D9"):
            sweep = limit_sweep(tid, "D3", u, I, weight=w,
                                alphas=(1.0 - 1e-6,), ps=(p,))
            worst_a = max(worst_a, sweep.rows[0].max_delta)
    ok = worst_p <= 1e-5 and worst_a <= 1e-4
    _report(4, ok, f"p->0 worst |delta| {worst_p:.2e} (<=1e-5), "
                   f"alpha->1 worst |delta| {worst_a:.2e} (<=1e-4), 10 instances each")


def test_criterion_5_classification_boundaries():
    worst = 0.0
    for r, p in ((2.0, 1.0), (3.0, 2.0), (1.5, 0.7)):
        located = locate_power_boundary(r, p)
        exact = math.sqrt(r * (r - 1.0)) / abs(p)
        worst = max(worst, abs(located - exact))
    ok = worst <= 1e-6
    _report(5, ok, f"bisection vs closed-form boundary, worst gap {worst:.2e} "
                   f"(<=1e-6)")


def test_criterion_6_antisymmetry():
    worst_ratio = 0.0
    for i in range(100):
        rng = rng_for(808, i)
        length = rng.uniform(0.4, 2.5)
        center = rng.uniform(-1.0, 1.0)
        I = Interval(center - length / 2, center + length / 2)
        w = gen_symmetric_weight(MODERATE, I, rng=rng)
        p = rng.uniform(0.3, 3.0)
        alpha_rl = rng.uniform(0.3, 0.9)
        alpha_exp = rng.uniform(0.3, 0.9)
        c1 = kernel_cosh_moment(w, I, alpha_rl, p, Family.RL)
        s1 = kernel_sinh_moment(w, I, alpha_rl, p, Family.RL)
        s2 = kernel_sinh_moment(w, I, alpha_exp, p, Family.EXP)
        worst_ratio = max(worst_ratio, abs(s1) / c1, abs(s2) / c1)
    ok = worst_ratio <= 1e-9
    _report(6, ok, f"|sinh moment| / cosh moment worst ratio {worst_ratio:.2e} "
                   f"(<=1e-9) over 100 weights")


def test_criterion_7_cross_method_agreement():
    disagreements = 0
    checked = 0
    for i in range(200):
        rng = rng_for(909, i)
        kind = i % 4
        if kind == 3:
            # curvature sign change well inside the window
            r = rng.uniform(1.5, 3.0)
            p = 1.0
            x_star = math.sqrt(r * (r - 1.0))
            I = Interval(0.4 * x_star, 2.0 * x_star)
            u = build_power(r)
        else:
            length = rng.uniform(0.4, 2.0)
            center = rng.uniform(-1.0, 1.0)
            I = Interval(center - length / 2, center + length / 2)
            p = rng.uniform(0.2, 4.0) / length
            cfg = MODERATE if kind != 2 else \
                GenConfig(seed=0, boundary_prob=1.0,
                          length_range=MODERATE.length_range,
                          center_range=MODERATE.center_range)
            u = gen_p_convex(cfg, p, I, rng=rng)
            if kind == 1:
                u = scaled(-1.0, u)
        reports = check_all(u, I, p)
        checked += 1
        if not methods_agree(reports):
            disagreements += 1
    ok = disagreements == 0 and checked == 200
    _report(7, ok, f"{checked} instances, {disagreements} disagreements "
                   f"(4/4 methods required)")


def test_criterion_8_printed_constant_probe(full_campaign):
    _, report, _, _ = full_campaign
    probe = report.printed_constant_probe
    ok = set(probe) == {"D4", "D5"} and all(
        e["instances"] > 0 and e["worst_slack"] is not None
        for e in probe.values())
    d4, d5 = probe["D4"], probe["D5"]
    _report(8, ok, "as-printed constant probe surfaced (no pass/fail gate): "
                   f"D4 {d4['violations']}/{d4['instances']} violations "
                   f"(worst slack {d4['worst_slack']:.3g}), "
                   f"D5 {d5['violations']}/{d5['instances']} violations "
                   f"(worst slack {d5['worst_slack']:.3g})")


def test_criterion_9_determinism(full_campaign):
    cfg, _, rows, _ = full_campaign
    _, rows_again = run_campaign(cfg)
    csv1 = rows_to_csv(rows)
    csv2 = rows_to_csv(rows_again)
    ok = csv1 == csv2
    _report(9, ok, f"two seed-{cfg.seed} campaign runs, CSV byte-identical: {ok} "
                   f"({len(csv1)} bytes)")
