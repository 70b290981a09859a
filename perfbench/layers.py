"""Per-layer probe: fixed work on seeded instances, one span per call.

Each section calls the public functions of one hypfrac module directly,
inside a span named ``<module>.<call>`` whose attributes carry the counts
measured at that boundary (subdivisions, convergence, bytes).  The
per-layer metrics are computed from those spans only, so they measure the
same work for every workload and seed size.
"""

from __future__ import annotations

import pickle
import statistics
import tracemalloc

import numpy as np

from hypfrac import (
    CampaignConfig,
    Endpoint,
    Family,
    FracParams,
    Side,
    TheoremEvaluator,
    TheoremId,
    check_all,
    check_chord,
    check_gradient,
    check_phi_monotone,
    check_second_order,
    deriv2,
    fractional_integral,
    integrate,
    integrate_singular,
    parse_function,
    run_campaign,
    to_grammar,
)
from hypfrac.campaign import instance_rows, report_to_json, rows_to_csv
from hypfrac.expressions import X, compose_affine, power_of, product
from hypfrac.fractional import OPERATOR_QUAD, exp_unit_left, rl_monomial_left
from hypfrac.quadrature import gauss_kronrod_nodes

import workloads
from workloads import ALPHAS, EXP_ALPHAS, make_instance, mix_instance, run_cli

LAYERS = ("expressions", "grammar", "quadrature", "fractional", "inequalities",
          "convexity", "generators", "campaign", "cli")

# probe sizes: instances per section
N_GENERATE = 50
N_QUAD = 8
N_EVALUATOR = 4
N_CONVEXITY = 3
N_CHORD_201 = 2
N_CAMPAIGN = 12
GK_PANELS = 32          # a 15-node x 32-panel evaluation batch
EVAL_REPEATS = 20
PROBE_INDEX = 1_000_000  # probe instances never collide with loop items

ORACLE_TOL = 1e-10


def _verdict_plan():
    """The 53 (theorem, alpha, strict_printed) verdicts of one campaign
    instance, in instance_rows' order, with the kernel family of each."""
    plan = [(TheoremId(t), None, False, "plain") for t in workloads.PLAIN_THMS]
    plan += [(TheoremId(t), a, False, "rl") for a in ALPHAS
             for t in workloads.RL_THMS]
    plan += [(TheoremId(t), a, False, "exp") for a in EXP_ALPHAS
             for t in workloads.EXP_THMS]
    plan += [(TheoremId.D4, a, True, "rl") for a in ALPHAS]
    plan += [(TheoremId.D5, a, True, "exp") for a in EXP_ALPHAS]
    return plan


def oracle_max_rel_err(intervals) -> float:
    """Largest relative error of the left operators against the closed
    forms: RL of (s-a)**k, k = 0..3, on the alpha grid, and exp of 1."""
    worst = 0.0
    one = parse_function("1")
    for iv in intervals:
        a, t = iv.a, iv.b
        for alpha in ALPHAS:
            for k in range(4):
                f = compose_affine(power_of(X, float(k)), 1.0, -a)
                got = fractional_integral(f, iv, FracParams(alpha, Family.RL),
                                          Side.LEFT, t).value
                want = rl_monomial_left(k, a, alpha, t)
                worst = max(worst, abs(got - want) / abs(want))
        for alpha in EXP_ALPHAS:
            got = fractional_integral(one, iv, FracParams(alpha, Family.EXP),
                                      Side.LEFT, t).value
            want = exp_unit_left(a, alpha, t)
            worst = max(worst, abs(got - want) / abs(want))
    return worst


def _span(tracer, name, fn, *args, **attrs):
    with tracer.span(name, **attrs):
        return fn(*args)


def run_probe(seed: int, tracer) -> dict:
    """Run every section under ``tracer``; returns the oracle error and the
    chord peak memory, which are not spans."""
    insts = [make_instance(seed, PROBE_INDEX + i) for i in range(N_CAMPAIGN)]
    extra = {}

    with tracer.span("bench.probe", section="generators"):
        for i in range(N_GENERATE):
            _span(tracer, "generators.instance", make_instance, seed,
                  PROBE_INDEX + i)

    with tracer.span("bench.probe", section="grammar"):
        for inst in insts:
            for f in (inst.u, inst.weight.v):
                text = _span(tracer, "grammar.to_grammar", to_grammar, f)
                _span(tracer, "grammar.parse_function", parse_function, text)

    gk_nodes = gauss_kronrod_nodes()[0]
    with tracer.span("bench.probe", section="expressions"):
        for inst in insts[:N_QUAD]:
            uv = product(inst.u, inst.weight.v)
            edges = np.linspace(inst.interval.a, inst.interval.b, GK_PANELS + 1)
            half = 0.5 * (edges[1] - edges[0])
            xs = ((edges[:-1] + half)[:, None] + half * gk_nodes[None, :]).ravel()
            for _ in range(EVAL_REPEATS):
                _span(tracer, "expressions.eval", uv.eval, xs, points=xs.size)
            _span(tracer, "expressions.deriv2", deriv2, inst.u)

    with tracer.span("bench.probe", section="quadrature"):
        for inst in insts[:N_QUAD]:
            uv = product(inst.u, inst.weight.v)
            with tracer.span("quadrature.integrate") as attrs:
                r = integrate(uv, inst.interval, OPERATOR_QUAD)
                attrs.update(subdivisions=r.subdivisions_used,
                             converged=r.converged)
            for alpha in ALPHAS:
                for end in (Endpoint.LEFT, Endpoint.RIGHT):
                    with tracer.span("quadrature.integrate_singular",
                                     alpha=alpha) as attrs:
                        r = integrate_singular(uv, inst.interval, alpha, end,
                                               OPERATOR_QUAD)
                        attrs.update(subdivisions=r.subdivisions_used,
                                     converged=r.converged)

    with tracer.span("bench.probe", section="fractional"):
        for inst in insts[:N_QUAD]:
            uv = product(inst.u, inst.weight.v)
            iv = inst.interval
            for family, grid in ((Family.RL, ALPHAS), (Family.EXP, EXP_ALPHAS)):
                for alpha in grid:
                    params = FracParams(alpha, family)
                    for side, t in ((Side.LEFT, iv.b), (Side.RIGHT, iv.a)):
                        _span(tracer, "fractional.fractional_integral",
                              fractional_integral, uv, iv, params, side, t,
                              family=family.value)
        with tracer.span("fractional.oracle"):
            extra["oracle_max_rel_err"] = oracle_max_rel_err(
                [i.interval for i in insts[:N_QUAD]])

    plan = _verdict_plan()
    with tracer.span("bench.probe", section="inequalities"):
        for inst in insts[:N_EVALUATOR]:
            def evaluator():
                return TheoremEvaluator(inst.u, inst.interval, p=inst.p,
                                        weight=inst.weight)
            with tracer.span("inequalities.instance", index=inst.index):
                ev = evaluator()
                for tid, alpha, strict, _ in plan:
                    ev.evaluate(tid, alpha=alpha, strict_printed=strict)
            for tid, alpha, strict, family in plan:
                with tracer.span("inequalities.cold_verdict", family=family,
                                 index=inst.index):
                    evaluator().evaluate(tid, alpha=alpha, strict_printed=strict)

    with tracer.span("bench.probe", section="convexity"):
        for inst in insts[:N_CONVEXITY]:
            args = (inst.u, inst.interval, inst.p)
            _span(tracer, "convexity.check_chord", check_chord, *args, 101,
                  grid=101)
            _span(tracer, "convexity.check_second_order", check_second_order,
                  *args, 101)
            _span(tracer, "convexity.check_gradient", check_gradient, *args, 101)
            _span(tracer, "convexity.check_phi_monotone", check_phi_monotone,
                  *args, 101)
            _span(tracer, "convexity.check_all", check_all, *args, 101)
        for inst in insts[:N_CHORD_201]:
            _span(tracer, "convexity.check_chord", check_chord, inst.u,
                  inst.interval, inst.p, 201, grid=201)
        inst = insts[0]
        tracemalloc.start()
        try:
            check_chord(inst.u, inst.interval, inst.p, 201)
            extra["chord_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with tracer.span("bench.probe", section="campaign"):
        cfg = CampaignConfig(seed=seed, n_instances=N_CAMPAIGN, alphas=ALPHAS,
                             workers=1)
        rows = []
        for i in range(N_CAMPAIGN):
            with tracer.span("campaign.instance_rows", index=i) as attrs:
                batch = instance_rows(cfg, i)
            attrs["pickle_bytes"] = len(pickle.dumps(batch))
            rows += batch
        with tracer.span("campaign.rows_to_csv") as attrs:
            attrs["bytes"] = len(rows_to_csv(rows).encode("utf-8"))
        report, _ = run_campaign(CampaignConfig(seed=seed, n_instances=2,
                                                alphas=ALPHAS, workers=1))
        _span(tracer, "campaign.report_to_json", report_to_json, report)

    with tracer.span("bench.probe", section="cli"):
        for j in range(workloads.ROUND_INSTANCES):
            inst, calls = mix_instance(seed, PROBE_INDEX + j)
            tracer.trace_id = inst.index
            for kind, argv in calls:
                _span(tracer, "cli." + kind, run_cli, argv)
    return extra


def _median_ms(tracer, name, **match) -> float:
    return 1e3 * statistics.median(tracer.durations_s(name, **match))


def layer_metrics(tracer, extra: dict) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    m = {}
    evals = tracer.find("expressions.eval")
    m["expressions.eval_ns_per_point"] = (statistics.median(
        (s["end"] - s["start"]) / s["attrs"]["points"] for s in evals), "ns")
    m["expressions.deriv2_us"] = (1e3 * _median_ms(tracer, "expressions.deriv2"), "us")
    m["grammar.parse_us"] = (1e3 * _median_ms(tracer, "grammar.parse_function"), "us")
    m["grammar.render_us"] = (1e3 * _median_ms(tracer, "grammar.to_grammar"), "us")
    m["quadrature.plain_us"] = (1e3 * _median_ms(tracer, "quadrature.integrate"), "us")
    sing = tracer.find("quadrature.integrate_singular")
    for alpha in ALPHAS:
        tag = f"a{alpha!r}"
        spans = [s for s in sing if s["attrs"]["alpha"] == alpha]
        m[f"quadrature.singular_us.{tag}"] = (
            1e3 * _median_ms(tracer, "quadrature.integrate_singular", alpha=alpha), "us")
        m[f"quadrature.subdivisions.{tag}"] = (
            sum(s["attrs"]["subdivisions"] for s in spans) / len(spans), "count")
        m[f"quadrature.unconverged_ratio.{tag}"] = (
            sum(not s["attrs"]["converged"] for s in spans) / len(spans), "ratio")
    m["fractional.rl_us"] = (1e3 * _median_ms(
        tracer, "fractional.fractional_integral", family="rl"), "us")
    m["fractional.exp_us"] = (1e3 * _median_ms(
        tracer, "fractional.fractional_integral", family="exp"), "us")
    m["fractional.oracle_max_rel_err"] = (extra["oracle_max_rel_err"], "ratio")

    inst_s = tracer.find("inequalities.instance")
    m["inequalities.instance_ms"] = (_median_ms(tracer, "inequalities.instance"), "ms")
    for family in ("plain", "rl", "exp"):
        m[f"inequalities.cold_verdict_ms.{family}"] = (
            _median_ms(tracer, "inequalities.cold_verdict", family=family), "ms")
    factors = []
    for s in inst_s:
        cold = sum(tracer.durations_s("inequalities.cold_verdict",
                                      index=s["attrs"]["index"]))
        factors.append(cold / ((s["end"] - s["start"]) * 1e-9))
    m["inequalities.sharing_factor"] = (statistics.median(factors), "ratio")

    m["convexity.chord_ms.g101"] = (_median_ms(tracer, "convexity.check_chord", grid=101), "ms")
    m["convexity.chord_ms.g201"] = (_median_ms(tracer, "convexity.check_chord", grid=201), "ms")
    m["convexity.second_order_ms"] = (_median_ms(tracer, "convexity.check_second_order"), "ms")
    m["convexity.gradient_ms"] = (_median_ms(tracer, "convexity.check_gradient"), "ms")
    m["convexity.phi_ms"] = (_median_ms(tracer, "convexity.check_phi_monotone"), "ms")
    m["convexity.check_all_ms.g101"] = (_median_ms(tracer, "convexity.check_all"), "ms")
    m["convexity.chord_peak_mb.g201"] = (extra["chord_peak_bytes"] / 2**20, "MB")

    m["generators.instance_us"] = (1e3 * _median_ms(tracer, "generators.instance"), "us")

    inst_ms = [1e3 * d for d in tracer.durations_s("campaign.instance_rows")]
    m["campaign.instance_ms.p50"] = (statistics.median(inst_ms), "ms")
    m["campaign.instance_ms.p90"] = (statistics.quantiles(inst_ms, n=10)[8], "ms")
    m["campaign.csv_s"] = (tracer.durations_s("campaign.rows_to_csv")[0], "s")
    m["campaign.report_json_s"] = (tracer.durations_s("campaign.report_to_json")[0], "s")
    m["campaign.csv_bytes"] = (tracer.find("campaign.rows_to_csv")[0]["attrs"]["bytes"], "bytes")
    pick = [s["attrs"]["pickle_bytes"] for s in tracer.find("campaign.instance_rows")]
    m["campaign.pickle_bytes_per_instance"] = (sum(pick) / len(pick), "bytes")

    for kind in ("verify", "integrate", "classify", "limits"):
        m[f"cli.{kind}_ms"] = (_median_ms(tracer, "cli." + kind), "ms")

    self_s = tracer.self_time_by_layer_s()
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (1e3 * self_s.get(layer, 0.0), "ms")
    return m
