"""Command-line front end.

Subcommands: integrate | classify | verify | campaign | limits.

Exit codes (stable contract): 0 success / inequality holds, 2 usage or
validation error (including results that overflow to inf or nan), 3
inequality violated, 4 I/O error.  Floats are printed with 9 significant
digits.  The env var HYPFRAC_THREADS caps the campaign worker count.
"""

from __future__ import annotations

import argparse
import math
import sys

from .campaign import (
    CampaignConfig,
    load_config,
    run_campaign,
    write_report,
    write_rows,
)
from .convexity import Method, check_all, methods_agree
from .expressions import DomainError, Interval
from .fractional import Family, FracParams, Side, fractional_integral
from .grammar import GrammarError, parse_function
from .inequalities import (
    InvalidWeightError,
    TheoremId,
    WeightSpec,
    eval_theorem,
    limit_sweep,
)

_USAGE_ERROR = 2
_VIOLATED = 3
_IO_ERROR = 4

# classify's grid bound: the chord test costs O(n**3) time and O(n**2) memory,
# about 2 s and 65 MB of arrays at the upper bound
_GRID_N_RANGE = (3, 1001)


def _fmt(x) -> str:
    if x is None:
        return "-"
    return f"{x:.9g}"


def _floats_arg(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _require_finite(what: str, **values) -> None:
    """Raise a usage error when any value (None aside) is inf or nan."""
    bad = [f"{k}={v}" for k, v in values.items()
           if v is not None and not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite {what} ({', '.join(bad)}): values "
                         "overflow a double on this input")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypfrac",
        description="Fractional integrals, hyperbolic p-convexity, and "
                    "inequality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("integrate", help="evaluate a fractional integral")
    pi.add_argument("--family", choices=["rl", "exp"], required=True)
    pi.add_argument("--alpha", type=float, required=True)
    pi.add_argument("--fn", required=True, help="function string, e.g. 'cosh(2*x)'")
    pi.add_argument("--a", type=float, required=True)
    pi.add_argument("--b", type=float, required=True)
    pi.add_argument("--side", choices=["left", "right"], required=True)
    pi.add_argument("--at", type=float, required=True,
                    help="evaluation point t")

    pc = sub.add_parser("classify", help="hyperbolic p-convexity verdicts")
    pc.add_argument("--fn", required=True)
    pc.add_argument("--p", type=float, required=True)
    pc.add_argument("--a", type=float, required=True)
    pc.add_argument("--b", type=float, required=True)
    pc.add_argument("--grid-n", type=int, default=101)
    pc.add_argument("--tol", type=float, default=1e-9)

    pv = sub.add_parser("verify", help="evaluate one inequality")
    pv.add_argument("--thm", required=True,
                    help="theorem id: " + ", ".join(t.value for t in TheoremId))
    pv.add_argument("--fn", required=True)
    pv.add_argument("--a", type=float, required=True)
    pv.add_argument("--b", type=float, required=True)
    pv.add_argument("--p", type=float, default=None)
    pv.add_argument("--alpha", type=float, default=None)
    pv.add_argument("--weight", default=None, help="weight function string")
    pv.add_argument("--asymmetric-weight", action="store_true",
                    help="declare the weight asymmetric (D8/D9 exploration)")
    pv.add_argument("--tol", type=float, default=1e-8)
    pv.add_argument("--strict-printed", action="store_true",
                    help="use the as-printed D4/D5 right-hand constant")

    pg = sub.add_parser("campaign", help="run a randomized campaign")
    pg.add_argument("--config", default=None, help="key=value config file")
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument("--n", type=int, default=None, dest="n_instances")
    pg.add_argument("--alphas", type=_floats_arg, default=None)
    pg.add_argument("--p-list", type=_floats_arg, default=None)
    pg.add_argument("--pl-range", type=_floats_arg, default=None,
                    help="range for p*(b-a), e.g. 0.05,5")
    pg.add_argument("--length-range", type=_floats_arg, default=None)
    pg.add_argument("--center-range", type=_floats_arg, default=None)
    pg.add_argument("--tol", type=float, default=None)
    pg.add_argument("--format", choices=["csv", "json"], default=None,
                    dest="output_format")
    pg.add_argument("--rows", default=None, dest="rows_path")
    pg.add_argument("--report", default=None, dest="report_path")
    pg.add_argument("--workers", type=int, default=None)
    pg.add_argument("--no-probe", action="store_true",
                    help="skip the printed-constant probe rows")

    pl = sub.add_parser("limits", help="limit-recovery sweep toward a baseline")
    pl.add_argument("--thm", required=True)
    pl.add_argument("--to", required=True, dest="baseline")
    pl.add_argument("--fn", required=True)
    pl.add_argument("--a", type=float, required=True)
    pl.add_argument("--b", type=float, required=True)
    pl.add_argument("--weight", default=None)
    pl.add_argument("--p", type=_floats_arg, default=(1e-2, 1e-4, 1e-6))
    pl.add_argument("--alpha", type=_floats_arg, default=(0.5,))
    return parser


def _cmd_integrate(args) -> int:
    f = parse_function(args.fn)
    params = FracParams(args.alpha, Family(args.family))
    side = Side(args.side)
    res = fractional_integral(f, Interval(args.a, args.b), params, side, args.at)
    _require_finite("integral", value=res.value)
    print(f"{_fmt(res.value)}  (error estimate {res.error_estimate:.3g}, "
          f"subdivisions {res.subdivisions_used}"
          f"{'' if res.converged else ', NOT CONVERGED'})")
    return 0


def _cmd_classify(args) -> int:
    lo, hi = _GRID_N_RANGE
    if not lo <= args.grid_n <= hi:
        raise ValueError(f"--grid-n must be in [{lo}, {hi}], got {args.grid_n}")
    f = parse_function(args.fn)
    interval = Interval(args.a, args.b)
    reports = check_all(f, interval, args.p, grid_n=args.grid_n, tol=args.tol)
    _require_finite("worst violation", **{
        m.value: r.worst_violation for m, r in reports.items()})
    for method in Method:
        r = reports[method]
        print(f"{method.value:13s} {r.verdict.value.upper():9s} "
              f"worst violation {_fmt(r.worst_violation)} at x={_fmt(r.witness_x)}")
    verdicts = [r.verdict for r in reports.values()]
    top = max(set(verdicts), key=verdicts.count)
    n_top = verdicts.count(top)
    print(f"verdict: {top.value.upper()}, {n_top}/4 methods agree")
    return 0


def _cmd_verify(args) -> int:
    f = parse_function(args.fn)
    interval = Interval(args.a, args.b)
    weight = None
    if args.weight is not None:
        weight = WeightSpec(parse_function(args.weight),
                            symmetric=not args.asymmetric_weight)
    verdict = eval_theorem(
        args.thm.upper(), f, interval, v=weight, alpha=args.alpha, p=args.p,
        tol=args.tol, strict_printed=args.strict_printed,
        allow_asymmetric=args.asymmetric_weight,
    )
    _require_finite(f"{verdict.theorem_id.value} side", lhs=verdict.lhs,
                    mid=verdict.mid, rhs=verdict.rhs)
    print(f"theorem {verdict.theorem_id.value}")
    print(f"  lhs = {_fmt(verdict.lhs)}")
    print(f"  mid = {_fmt(verdict.mid)}")
    print(f"  rhs = {_fmt(verdict.rhs)}")
    print(f"  slack_left = {_fmt(verdict.slack_left)}  "
          f"slack_right = {_fmt(verdict.slack_right)}")
    print(f"  holds: {verdict.holds}")
    return 0 if verdict.holds else _VIOLATED


def _cmd_campaign(args) -> int:
    overrides = {
        "seed": args.seed,
        "n_instances": args.n_instances,
        "alphas": args.alphas,
        "p_list": args.p_list,
        "pl_range": args.pl_range,
        "length_range": args.length_range,
        "center_range": args.center_range,
        "tol": args.tol,
        "output_format": args.output_format,
        "rows_path": args.rows_path,
        "report_path": args.report_path,
        "workers": args.workers,
    }
    if args.no_probe:
        overrides["printed_probe"] = False
    if args.config:
        cfg = load_config(args.config, overrides)
    else:
        cfg = CampaignConfig(**{k: v for k, v in overrides.items()
                                if v is not None})
    report, rows = run_campaign(cfg)
    write_rows(rows, cfg.rows_path, cfg.output_format)
    write_report(report, cfg.report_path)
    print(f"campaign: {cfg.n_instances} instances, {report.n_rows} verdicts, "
          f"{report.violations} violations, {report.wall_time_s:.1f}s")
    for tid, entry in report.per_theorem.items():
        print(f"  {tid:10s} pass {entry['pass']:6d}  fail {entry['fail']:4d}  "
              f"worst slack {_fmt(entry['worst_slack'])}")
    for tid, entry in report.printed_constant_probe.items():
        print(f"  probe {tid} (as-printed constant): "
              f"{entry['violations']}/{entry['instances']} violations, "
              f"worst slack {_fmt(entry['worst_slack'])}")
    print(f"rows -> {cfg.rows_path}")
    print(f"report -> {cfg.report_path}")
    return 0 if report.violations == 0 else _VIOLATED


def _cmd_limits(args) -> int:
    f = parse_function(args.fn)
    interval = Interval(args.a, args.b)
    weight = WeightSpec(parse_function(args.weight)) if args.weight else None
    sweep = limit_sweep(args.thm.upper(), args.baseline.upper(), f, interval,
                        weight=weight, alphas=args.alpha, ps=args.p)
    axis_name = "p" if sweep.axis == "p" else "alpha"
    print(f"{sweep.theorem_id.value} -> {sweep.baseline_id.value} "
          f"(sweeping {axis_name})")
    side_names = ("lhs", "mid", "rhs") if len(sweep.rows[0].deltas) == 3 \
        else ("lhs", "rhs")
    header = f"{'p':>12s} {'alpha':>8s} " + " ".join(
        f"{'|delta_' + s + '|':>14s}" for s in side_names)
    print(header)
    prev = None
    monotone = True
    for row in sweep.rows:
        cells = " ".join(f"{d:14.6g}" for d in row.deltas)
        alpha_cell = "-" if row.alpha is None else f"{row.alpha:8.4g}"
        print(f"{row.p:12.4g} {alpha_cell:>8s} {cells}")
        if prev is not None and row.max_delta > prev:
            monotone = False
        prev = row.max_delta
    if sweep.decay_rate is not None:
        print(f"fitted decay: |delta| ~ {axis_name}^{sweep.decay_rate:.2f}"
              + ("" if sweep.axis == 'p' else " (in 1-alpha)"))
    print(f"approach monotone: {monotone}")
    for note in sweep.notes:
        print(f"note: {note}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "integrate":
            return _cmd_integrate(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "limits":
            return _cmd_limits(args)
        parser.error(f"unknown command {args.command}")
    except (GrammarError, DomainError, InvalidWeightError, ValueError,
            ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _IO_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
