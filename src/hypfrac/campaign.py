"""Randomized verification campaigns with machine-readable reports.

A campaign draws ``n_instances`` seeded instances (interval, hyperbolic
parameter, p-convex function, symmetric weight), evaluates the full
inequality suite on each across the configured fractional-order grid, and
writes two artifacts:

* a rows file (CSV by default) with one line per verdict - byte-identical
  across runs with the same config, independent of worker count.  The rows
  run theorem by theorem, instance by instance, alphas ascending: each
  instance's plan lists its rows in that order, and the campaign gathers
  them by theorem as they arrive;
* a summary report (JSON) with per-theorem pass counts, the most negative
  slack seen with its full instance parameters, the most negative slack
  relative to max(1, |rhs|) (what ``holds`` tests), the printed-constant probe
  results for D4/D5, wall time and a config echo.  Rows with an inf or nan
  value count apart (``nonfinite``), never as violations or worst slacks.

Fractional orders >= 1 apply to the Riemann-Liouville family only.  The
probe rows re-evaluate D4/D5 with the as-printed right-hand constant
sech(p*(b-a)); they are reported but never counted as campaign violations.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .expressions import Interval
from .fractional import Family
from .generators import GenConfig, gen_p_convex, gen_symmetric_weight, rng_for
from .grammar import to_grammar
from .inequalities import _REQUIRES, TheoremEvaluator, TheoremId

# a row: its theorem id, the fields fixed per instance and alpha (head), the
# sides and slacks, holds, and the fields fixed per instance (tail)
_HEAD = ("a", "b", "p", "alpha")
_SIDES = ("lhs", "mid", "rhs", "slack_left", "slack_right")
_TAIL = ("fn_descriptor", "weight_descriptor", "seed", "instance_index")
CSV_COLUMNS = ["theorem_id", *_HEAD, *_SIDES, "holds", *_TAIL]

_THEOREMS = {family: tuple(t for t in TheoremId if _REQUIRES[t].family is family)
             for family in (None, Family.RL, Family.EXP)}
_PRINTED_THEOREMS = tuple(t for t in TheoremId if _REQUIRES[t].printed_constant)


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 42
    n_instances: int = 1000
    alphas: tuple = (0.3, 0.5, 0.8, 1.0, 1.5)
    p_list: tuple | None = None          # explicit p grid; default: sample
    pl_range: tuple = (0.05, 5.0)        # sampled p * (b - a)
    length_range: tuple = (0.2, 4.0)
    center_range: tuple = (-1.5, 1.5)
    tol: float = 1e-8
    output_format: str = "csv"           # rows file format: csv | json
    rows_path: str = "campaign_rows.csv"
    report_path: str = "campaign_report.json"
    workers: int | None = None
    printed_probe: bool = True

    def __post_init__(self):
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        if not self.alphas:
            raise ValueError("alphas must be nonempty")
        if not 0 <= self.tol < math.inf:  # also false for nan
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
        for name in _LIST_KEYS:
            if not all(map(math.isfinite, getattr(self, name) or ())):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in _RANGE_KEYS:
            bounds = tuple(getattr(self, name))
            if len(bounds) != 2 or bounds[0] > bounds[1]:
                raise ValueError(f"{name} must be two numbers low,high with "
                                 f"low <= high, got {bounds}")
        if self.length_range[0] <= 0:
            raise ValueError("length_range entries must be > 0, got "
                             f"{tuple(self.length_range)}")
        if self.output_format not in ("csv", "json"):
            raise ValueError("output_format must be csv or json")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class CampaignReport:
    """Summary of one campaign run (the rows live in the rows file)."""

    artifact_version: str
    config: dict
    n_rows: int
    violations: int
    nonfinite: int                       # rows with an inf or nan value
    per_theorem: dict
    printed_constant_probe: dict
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def _draw(cfg: CampaignConfig, index: int):
    """The seeded instance (u, interval, p, weight) of a campaign index."""
    rng = rng_for(cfg.seed, index)
    length = rng.uniform(*cfg.length_range)
    center = rng.uniform(*cfg.center_range)
    interval = Interval(center - 0.5 * length, center + 0.5 * length)
    if cfg.p_list:
        p = float(cfg.p_list[index % len(cfg.p_list)])
    else:
        p = rng.uniform(*cfg.pl_range) / length
    gencfg = GenConfig(seed=cfg.seed)
    u = gen_p_convex(gencfg, p, interval, rng=rng)
    w = gen_symmetric_weight(gencfg, interval, rng=rng)
    return u, interval, p, w


def instance_rows(cfg: CampaignConfig, index: int) -> list:
    """All verdict rows for one seeded instance (pure in (cfg, index)), in
    plan order, from one :meth:`TheoremEvaluator.evaluate_plan`.  Overflow
    shows in the rows as inf or nan, so numpy is asked not to warn of it."""
    u, interval, p, w = _draw(cfg, index)
    ev = TheoremEvaluator(u, interval, p=p, weight=w, tol=cfg.tol)
    plan = _plan(cfg)
    with np.errstate(all="ignore"):
        verdicts = ev.evaluate_plan([(tid, alpha, printed)
                                     for tid, _, alpha, printed in plan])
    a, b, p, seed = interval.a, interval.b, ev.p, cfg.seed
    u_descr, w_descr = to_grammar(u), to_grammar(w.v)
    return [{"theorem_id": name, "a": a, "b": b, "p": p, "alpha": alpha,
             "lhs": lhs, "mid": mid, "rhs": rhs, "slack_left": slack_left,
             "slack_right": slack_right, "holds": holds,
             "fn_descriptor": u_descr, "weight_descriptor": w_descr,
             "seed": seed, "instance_index": index}
            for (_, name, alpha, _), (lhs, mid, rhs, slack_left, slack_right,
                                      holds) in zip(plan, verdicts)]


def _plan(cfg: CampaignConfig) -> list:
    """(theorem, row name, alpha, strict_printed) of every row of an
    instance, in file order: theorem by theorem (plain, RL, EXP, then the
    printed probes), each at the alphas of its kernel's family, ascending."""
    ascending = tuple(sorted(cfg.alphas))
    alphas = {None: (None,), Family.RL: ascending,
              Family.EXP: tuple(a for a in ascending if a < 1.0)}
    plan = [(tid, tid.value, alpha, False)
            for family, theorems in _THEOREMS.items()
            for tid in theorems for alpha in alphas[family]]
    if cfg.printed_probe:
        plan += [(tid, tid.value + "_printed", alpha, True)
                 for tid in _PRINTED_THEOREMS
                 for alpha in alphas[_REQUIRES[tid].family]]
    return plan


def _resolve_workers(cfg: CampaignConfig) -> int:
    """The pool size: the requested workers (default: one per CPU), never
    more than the CPUs, the instances or ``HYPFRAC_THREADS``.  The pool
    starts every worker up front, and rows do not depend on the count."""
    cpus = os.cpu_count() or 1
    base = min(cfg.workers or cpus, cpus, cfg.n_instances)
    cap_env = os.environ.get("HYPFRAC_THREADS", "").strip()
    if cap_env:
        try:
            base = min(base, max(1, int(cap_env)))
        except ValueError:
            raise ValueError("HYPFRAC_THREADS must be an integer, got "
                             f"{cap_env!r}") from None
    return base


def run_campaign(cfg: CampaignConfig):
    """Returns (CampaignReport, rows).  Rows come theorem by theorem in
    plan order, then by instance index, then alpha ascending (the plan's
    order within an instance), independent of worker scheduling."""
    start = time.perf_counter()
    workers = _resolve_workers(cfg)
    indices = range(cfg.n_instances)
    if workers > 1:
        chunk = max(1, cfg.n_instances // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_instance = list(pool.map(instance_rows, itertools.repeat(cfg),
                                         indices, chunksize=chunk))
    else:
        per_instance = [instance_rows(cfg, i) for i in indices]
    by_theorem = {}
    for batch in per_instance:
        for r in batch:
            by_theorem.setdefault(r["theorem_id"], []).append(r)
    rows = [r for group in by_theorem.values() for r in group]

    per_theorem = {}
    probe = {}
    for tid, group in by_theorem.items():
        nonfinite, fail, worst, worst_row, worst_rel = _summary(group)
        if tid.endswith("_printed"):
            probe[tid.split("_")[0]] = {
                "instances": len(group), "violations": fail,
                "nonfinite": nonfinite, "worst_slack": worst,
                "worst_rel_slack": worst_rel,
            }
        else:
            per_theorem[tid] = {
                "pass": len(group) - nonfinite - fail, "fail": fail,
                "nonfinite": nonfinite, "worst_slack": worst,
                "worst_rel_slack": worst_rel,
                "worst_params": None if worst_row is None else dict(worst_row),
            }
    violations = sum(entry["fail"] for entry in per_theorem.values())
    nonfinite = sum(entry["nonfinite"] for entry in per_theorem.values())

    wall = time.perf_counter() - start
    config_echo = asdict(cfg)
    config_echo["alphas"] = list(cfg.alphas)
    config_echo["p_list"] = list(cfg.p_list) if cfg.p_list else None
    for key in ("pl_range", "length_range", "center_range"):
        config_echo[key] = list(config_echo[key])
    report = CampaignReport(
        artifact_version=__version__,
        config=config_echo,
        n_rows=len(rows),
        violations=violations,
        nonfinite=nonfinite,
        per_theorem=per_theorem,
        printed_constant_probe=probe,
        wall_time_s=wall,
    )
    return report, rows


def _summary(rows):
    """(nonfinite, failing, worst slack, the first row reaching it, worst
    relative slack) of one theorem's rows; the worst slacks are over the
    finite rows, and None without one."""
    nonfinite = fail = 0
    worst = worst_row = worst_rel = None
    for r in rows:
        slacks = [s for s in (r["slack_left"], r["slack_right"]) if s is not None]
        # a value that overflowed a double (mid shows in its slack) is no
        # verdict either way, and a nan never compares below the worst slack
        if not all(map(math.isfinite, [r["lhs"], r["rhs"], *slacks])):
            nonfinite += 1
            continue
        fail += not r["holds"]
        slack = min(slacks)
        if worst is None or slack < worst:
            worst, worst_row = slack, r
        # what holds tests against -tol
        rel = slack / max(1.0, abs(r["rhs"]))
        if worst_rel is None or rel < worst_rel:
            worst_rel = rel
    return nonfinite, fail, worst, worst_row, worst_rel


# ---------------------------------------------------------------------------
# serialization

def _cell(v, fields: dict) -> str:
    if isinstance(v, float):  # the most common cell: test it first
        return repr(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        # descriptors repeat on every row of an instance: quote each once
        field = fields.get(v)
        if field is None:
            field = fields[v] = _csv_field(v)
        return field
    return str(v)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted by the csv module's minimal rule
    (descriptors such as ``pow((x-0.9),4.0)`` hold commas)."""
    if not text:
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text])
    return buf.getvalue()


def _row_texts(fmt, gap):
    """The function that gives the texts of a row's theorem id, head,
    sides, holds and tail (see ``CSV_COLUMNS``) for a writer whose values
    are ``fmt(v)`` and where ``gap(key)`` precedes every key of a group but
    its first.

    Head and tail are formatted once per distinct values, keyed with their
    types (1 == 1.0 == True); values holding a float zero are formatted
    every time (0.0 == -0.0).  Sides that are floats or None go through one
    %-template per pattern of the two: %r for a float (``repr`` is
    ``float.__repr__``), and for None its text and %.0s, which prints none
    of its argument.  Sides holding a nan or an inf are formatted by fmt
    instead (JSON spells them NaN and Infinity).
    """
    fields = operator.itemgetter(*_HEAD, *_TAIL)
    sides_of = operator.itemgetter(*_SIDES)
    n_head = len(_HEAD)
    gaps = {keys: [gap(k) for k in keys[1:]] for keys in (_HEAD, _SIDES, _TAIL)}
    instances, templates, ids = {}, {}, {}

    def joined(keys, values):
        return fmt(values[0]) + "".join(
            [g + fmt(v) for g, v in zip(gaps[keys], values[1:])])

    def template(kinds):
        if not set(kinds) <= {float, type(None)}:
            return None
        form = "".join(
            g.replace("%", "%%")
            + ("%r" if kind is float else fmt(None).replace("%", "%%") + "%.0s")
            for g, kind in zip([""] + gaps[_SIDES], kinds))
        # a non-finite float is found by its text: the rest must not hold it
        return None if "nan" in form or "inf" in form else form

    def texts(r):
        values = fields(r)
        key = values + tuple(map(type, values))
        head_tail = instances.get(key)
        if head_tail is None:
            head_tail = (joined(_HEAD, values[:n_head]),
                         joined(_TAIL, values[n_head:]))
            if not any(v == 0 and type(v) is float for v in values):
                instances[key] = head_tail
        sides = sides_of(r)
        kinds = tuple(map(type, sides))
        form = templates.get(kinds, False)
        if form is False:
            form = templates[kinds] = template(kinds)
        text = None if form is None else form % sides
        if text is None or "nan" in text or "inf" in text:
            text = joined(_SIDES, sides)
        tid, holds = r["theorem_id"], r["holds"]
        tid_text = ids.get(tid)
        if tid_text is None:
            tid_text = fmt(tid)
            if type(tid) is str:
                ids[tid] = tid_text
        return (tid_text, head_tail[0], text,
                "true" if holds is True else "false" if holds is False
                else fmt(holds), head_tail[1])

    return texts


def rows_to_csv(rows) -> str:
    texts = _row_texts(functools.partial(_cell, fields={}), lambda k: ",")
    lines = [",".join(CSV_COLUMNS)]
    lines += ["%s,%s,%s,%s,%s" % texts(r) for r in rows]
    return "\n".join(lines) + "\n"


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(v, strings: dict) -> str:
    """``v`` as ``json.dumps`` writes it."""
    if isinstance(v, float):
        text = float.__repr__(v)  # not repr: numpy scalars print their type
        return _JSON_NON_FINITE.get(text, text)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, str):
        text = strings.get(v)
        if text is None:
            text = strings[v] = json.encoder.encode_basestring_ascii(v)
        return text
    raise TypeError(f"row value of type {type(v).__name__} is not JSON "
                    "serializable")


def rows_to_json(rows) -> str:
    """``json.dumps(rows, indent=2) + "\\n"`` for flat row dicts, written
    directly: ``indent`` makes ``json`` fall back to its pure-Python
    encoder.  Each distinct key sequence becomes one %-template; rows with
    the keys of ``CSV_COLUMNS``, in order, fill theirs from ``_row_texts``."""
    value = functools.partial(_json_value, strings={})
    texts = _row_texts(value, lambda k: ",\n    " + value(k) + ": ")
    campaign = tuple(CSV_COLUMNS)
    layouts = {}
    objects = []
    for r in rows:
        keys = tuple(r)
        layout = layouts.get(keys)
        if layout is None:
            shown = keys  # the keys ahead of the %s slots
            if keys == campaign:  # the five texts of _row_texts
                shown = ("theorem_id", _HEAD[0], _SIDES[0], "holds", _TAIL[0])
            items = [(value(k) + ": ").replace("%", "%%") + "%s" for k in shown]
            layout = layouts[keys] = (
                "  {\n    " + ",\n    ".join(items) + "\n  }" if items
                else "  {}", keys == campaign)
        template, is_campaign = layout
        objects.append(template % (texts(r) if is_campaign else
                                   tuple([value(v) for v in r.values()])))
    if not objects:
        return "[]\n"
    return "[\n" + ",\n".join(objects) + "\n]\n"


def write_rows(rows, path: str, fmt: str = "csv") -> None:
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def report_to_json(report: CampaignReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def write_report(report: CampaignReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(report_to_json(report))


# ---------------------------------------------------------------------------
# config files: flat key=value, comma-separated lists, '#' comments

_RANGE_KEYS = ("pl_range", "length_range", "center_range")
_LIST_KEYS = ("alphas", "p_list") + _RANGE_KEYS
_INT_KEYS = {"seed", "n_instances", "workers"}
_FLOAT_KEYS = {"tol"}
_BOOL_KEYS = {"printed_probe"}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _number(kind, text: str, lineno: int, key: str):
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"config line {lineno}: {key}: {exc}") from None


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key in _LIST_KEYS:
            out[key] = tuple(_number(float, v, lineno, key)
                             for v in value.split(",") if v.strip())
        elif key in _INT_KEYS:
            out[key] = _number(int, value, lineno, key)
        elif key in _FLOAT_KEYS:
            out[key] = _number(float, value, lineno, key)
        elif key in _BOOL_KEYS:
            if value.lower() not in _TRUE + _FALSE:
                raise ValueError(f"config line {lineno}: {key} must be "
                                 f"true or false, got {value!r}")
            out[key] = value.lower() in _TRUE
        elif key in CampaignConfig.__dataclass_fields__:
            out[key] = value
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return out


def load_config(path: str, overrides: dict | None = None) -> CampaignConfig:
    with open(path, encoding="utf-8") as fh:
        fields = parse_config_text(fh.read())
    if overrides:
        fields.update({k: v for k, v in overrides.items() if v is not None})
    return CampaignConfig(**fields)
