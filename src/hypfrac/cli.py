"""Command-line front end.

Subcommands: integrate | classify | verify | campaign | limits.

Exit codes (stable contract): 0 success / inequality holds, 2 usage or
validation error (including results that overflow to inf or nan), 3
inequality violated, 4 I/O error.  Floats are printed with 9 significant
digits; any token that parses as a negative float (``-4.98e-05``) or a
list of floats (``-1.5,1.5``) is read as a value.  Numeric options must be
finite (``nan`` or ``inf`` exits 2 naming the option) and ``--tol`` must
also be >= 0.  The env var HYPFRAC_THREADS caps the campaign worker count.

The argparse tree is the only declaration of the options.  It is built
once per process, on the first ``main`` call, and reused by later ones, so
``main`` may be called repeatedly in-process (tests, notebooks,
benchmarks).  So is a table read off its actions: a command line of the
form ``<subcommand> (--option value | --flag)*`` is read straight from it,
with each option's own type and choices, to the namespace ``parse_args``
would make, at a tenth of its cost.  Every other form, and every line the
table would reject, goes to ``parse_args``, so help, errors and their exit
codes are argparse's own.  Only the parser and the table are kept: every
call parses its functions and evaluates its integrals afresh.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .campaign import (
    CampaignConfig,
    load_config,
    run_campaign,
    write_report,
    write_rows,
)
from .convexity import DEFAULT_GRID_N, DEFAULT_TOL, Method, check_all
from .expressions import DomainError, Interval
from .fractional import Family, FracParams, Side, fractional_integral
from .grammar import GrammarError, parse_function
from .inequalities import (
    DEFAULT_SLACK_TOL,
    InvalidWeightError,
    TheoremId,
    WeightSpec,
    eval_theorem,
    limit_sweep,
)

_USAGE_ERROR = 2
_VIOLATED = 3
_IO_ERROR = 4

# classify's grid bound: every test costs at most O(n**2) time and memory,
# about 0.15 s and 25 MB of arrays (the chord test's tables) at the upper bound
_GRID_N_RANGE = (3, 1001)


def _fmt(x) -> str:
    if x is None:
        return "-"
    return f"{x:.9g}"


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _floats_arg(text: str) -> tuple:
    try:
        return tuple(_finite_float(v) for v in text.split(",") if v.strip())
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers, got {text!r}") from None


def _require_finite(what: str, **values) -> None:
    """Raise a usage error when any value (None aside) is inf or nan."""
    bad = [f"{k}={v}" for k, v in values.items()
           if v is not None and not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite {what} ({', '.join(bad)}): values "
                         "overflow a double on this input")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _is_value(token: str) -> bool:
    """Whether a token is read as a value, never as an option: it does not
    start with ``-``, or it parses as a negative float or a comma-separated
    list of floats."""
    # "--name" is never a number: skip the float parse for options
    return token[:1] != "-" or (token[1:2] != "-"
                                and all(map(_is_float, token.split(","))))


class _Parser(argparse.ArgumentParser):
    """Reads every token that parses as a negative float, or as a
    comma-separated list of floats, as a value: the negative-number pattern
    of argparse before Python 3.12 misses exponent notation such as
    ``--b -4.98e-05``, and lists such as ``--center-range -1.5,1.5``, and
    takes them for options.  ``-inf`` and ``-nan`` are read as values too,
    so that the option's type check rejects them."""

    def _parse_optional(self, arg_string):
        # argparse too reads a token that does not start with "-" as a value
        if _is_value(arg_string):
            return None
        return super()._parse_optional(arg_string)


# argparse spends 1.5-2 ms building this tree (a HelpFormatter and gettext
# lookups per argument), several times a verify call's own work; parse_args
# leaves the parser unchanged, so one tree serves every call in the process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypfrac",
        description="Fractional integrals, hyperbolic p-convexity, and "
                    "inequality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("integrate", help="evaluate a fractional integral")
    pi.set_defaults(run=_cmd_integrate)
    pi.add_argument("--family", choices=["rl", "exp"], required=True)
    pi.add_argument("--alpha", type=_finite_float, required=True)
    pi.add_argument("--fn", required=True, help="function string, e.g. 'cosh(2*x)'")
    pi.add_argument("--a", type=_finite_float, required=True)
    pi.add_argument("--b", type=_finite_float, required=True)
    pi.add_argument("--side", choices=["left", "right"], required=True)
    pi.add_argument("--at", type=_finite_float, required=True,
                    help="evaluation point t")

    pc = sub.add_parser("classify", help="hyperbolic p-convexity verdicts")
    pc.set_defaults(run=_cmd_classify)
    pc.add_argument("--fn", required=True)
    pc.add_argument("--p", type=_finite_float, required=True)
    pc.add_argument("--a", type=_finite_float, required=True)
    pc.add_argument("--b", type=_finite_float, required=True)
    pc.add_argument("--grid-n", type=int, default=DEFAULT_GRID_N)
    pc.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    pv = sub.add_parser("verify", help="evaluate one inequality")
    pv.set_defaults(run=_cmd_verify)
    pv.add_argument("--thm", required=True,
                    help="theorem id: " + ", ".join(t.value for t in TheoremId))
    pv.add_argument("--fn", required=True)
    pv.add_argument("--a", type=_finite_float, required=True)
    pv.add_argument("--b", type=_finite_float, required=True)
    pv.add_argument("--p", type=_finite_float, default=None)
    pv.add_argument("--alpha", type=_finite_float, default=None)
    pv.add_argument("--weight", default=None, help="weight function string")
    pv.add_argument("--asymmetric-weight", action="store_true",
                    help="declare the weight asymmetric (D8/D9 exploration)")
    pv.add_argument("--tol", type=_tolerance, default=DEFAULT_SLACK_TOL)
    pv.add_argument("--strict-printed", action="store_true",
                    help="use the as-printed D4/D5 right-hand constant")

    pg = sub.add_parser("campaign", help="run a randomized campaign")
    pg.set_defaults(run=_cmd_campaign)
    pg.add_argument("--config", default=None, help="key=value config file")
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument("--n", type=int, default=None, dest="n_instances")
    pg.add_argument("--alphas", type=_floats_arg, default=None)
    pg.add_argument("--p-list", type=_floats_arg, default=None)
    pg.add_argument("--pl-range", type=_floats_arg, default=None,
                    help="range for p*(b-a), e.g. 0.05,5")
    pg.add_argument("--length-range", type=_floats_arg, default=None)
    pg.add_argument("--center-range", type=_floats_arg, default=None)
    pg.add_argument("--tol", type=_tolerance, default=None)
    pg.add_argument("--format", choices=["csv", "json"], default=None,
                    dest="output_format")
    pg.add_argument("--rows", default=None, dest="rows_path")
    pg.add_argument("--report", default=None, dest="report_path")
    pg.add_argument("--workers", type=int, default=None)
    pg.add_argument("--no-probe", action="store_true",
                    help="skip the printed-constant probe rows")

    pl = sub.add_parser("limits", help="limit-recovery sweep toward a baseline")
    pl.set_defaults(run=_cmd_limits)
    pl.add_argument("--thm", required=True)
    pl.add_argument("--to", required=True, dest="baseline")
    pl.add_argument("--fn", required=True)
    pl.add_argument("--a", type=_finite_float, required=True)
    pl.add_argument("--b", type=_finite_float, required=True)
    pl.add_argument("--weight", default=None)
    pl.add_argument("--p", type=_floats_arg, default=(1e-2, 1e-4, 1e-6))
    pl.add_argument("--alpha", type=_floats_arg, default=(0.5,))
    return parser


# subcommand -> (option string -> (action, type), the namespace before any
# option is read, the required actions), built once from the parser's own
# actions: stores of one value and store_true flags, none with a string
# default (argparse would convert it), under a top level of help and the
# subcommands alone, the shape tests/test_cli.py pins
@functools.cache
def _command_table() -> dict:
    parser = _build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    table = {}
    for name, subparser in sub.choices.items():
        actions = [a for a in subparser._actions
                   if not isinstance(a, argparse._HelpAction)]
        options = {
            s: (a, subparser._registry_get("type", a.type, a.type))
            for a in actions for s in a.option_strings}
        # argparse sets the subcommand first, then the subparser's action
        # defaults, then the set_defaults values no action has taken
        defaults = {sub.dest: name} | {a.dest: a.default for a in actions}
        for dest, value in subparser._defaults.items():
            defaults.setdefault(dest, value)
        table[name] = (options, defaults, [a for a in actions if a.required])
    return table


def _read_argv(argv: list):
    """The namespace ``parse_args`` makes of ``argv``, read straight from
    the parser's actions when ``argv`` is a subcommand followed by
    ``--option value`` pairs and ``--flag`` tokens, each option spelled in
    full; None for any other form (help, an unknown, abbreviated or
    ``--opt=value`` option, ``--``, a missing value or required option, a
    value its type or choices reject), which is left to argparse and its
    messages."""
    entry = _command_table().get(argv[0]) if argv else None
    if entry is None:
        return None
    options, defaults, required = entry
    values = dict(defaults)
    seen = set()
    i, n = 1, len(argv)
    while i < n:
        try:
            action, convert = options[argv[i]]
        except KeyError:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            i += 1
        else:
            if i + 1 == n or not _is_value(argv[i + 1]):
                return None
            try:
                value = convert(argv[i + 1])
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
            i += 2
        seen.add(action)
    if any(a not in seen for a in required):
        return None
    return argparse.Namespace(**values)


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
    # the campaign options are named after the config fields they override
    overrides = {k: getattr(args, k, None)
                 for k in CampaignConfig.__dataclass_fields__}
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
          f"{report.violations} violations, {report.nonfinite} non-finite, "
          f"{report.wall_time_s:.1f}s")
    for tid, entry in report.per_theorem.items():
        print(f"  {tid:10s} pass {entry['pass']:6d}  fail {entry['fail']:4d}  "
              f"non-finite {entry['nonfinite']:4d}  "
              f"worst slack {_fmt(entry['worst_slack'])} "
              f"(relative {_fmt(entry['worst_rel_slack'])})")
    for tid, entry in report.printed_constant_probe.items():
        print(f"  probe {tid} (as-printed constant): "
              f"{entry['violations']}/{entry['instances']} violations, "
              f"worst slack {_fmt(entry['worst_slack'])} "
              f"(relative {_fmt(entry['worst_rel_slack'])})")
    print(f"rows -> {cfg.rows_path}")
    print(f"report -> {cfg.report_path}")
    if report.violations:
        return _VIOLATED
    if report.nonfinite:  # exits 2, as verify does on the same values
        raise ValueError(f"non-finite values in {report.nonfinite} verdicts: "
                         "values overflow a double on this input")
    return 0


def _cmd_limits(args) -> int:
    f = parse_function(args.fn)
    interval = Interval(args.a, args.b)
    weight = WeightSpec(parse_function(args.weight)) if args.weight else None
    sweep = limit_sweep(args.thm.upper(), args.baseline.upper(), f, interval,
                        weight=weight, alphas=args.alpha, ps=args.p)
    side_names = ("lhs", "mid", "rhs") if len(sweep.rows[0].deltas) == 3 \
        else ("lhs", "rhs")
    for row in sweep.rows:
        for tid, sides in ((sweep.theorem_id, row.sides),
                           (sweep.baseline_id, row.baseline_sides)):
            _require_finite(f"{tid.value} side", **dict(zip(side_names, sides)))
    print(f"{sweep.theorem_id.value} -> {sweep.baseline_id.value} "
          f"(sweeping {sweep.axis})")
    header = f"{'p':>12s} {'alpha':>8s} " + " ".join(
        f"{'|delta_' + s + '|':>14s}" for s in side_names)
    print(header)
    for row in sweep.rows:
        cells = " ".join(f"{d:14.6g}" for d in row.deltas)
        alpha_cell = "-" if row.alpha is None else f"{row.alpha:8.4g}"
        print(f"{row.p:12.4g} {alpha_cell:>8s} {cells}")
    monotone = not any(later.max_delta > earlier.max_delta
                       for run in sweep.groups()
                       for earlier, later in zip(run, run[1:]))
    if sweep.decay_rate is not None:
        print(f"fitted decay: |delta| ~ {sweep.axis}^{sweep.decay_rate:.2f}"
              + ("" if sweep.axis == 'p' else " (in 1-alpha)"))
    print(f"approach monotone: {monotone}")
    for note in sweep.notes:
        print(f"note: {note}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        # overflow shows as an inf or nan result and exits 2 with one
        # error line, not as numpy warnings
        with np.errstate(all="ignore"):
            return args.run(args)
    except (GrammarError, DomainError, InvalidWeightError, ValueError,
            ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
