"""Randomized verification campaigns with machine-readable reports.

A campaign draws ``n_instances`` seeded instances (interval, hyperbolic
parameter, p-convex function, symmetric weight), evaluates the full
inequality suite on each across the configured fractional-order grid, and
writes two artifacts:

* a rows file (CSV by default) with one line per verdict - byte-identical
  across runs with the same config, independent of worker count.  The rows
  run theorem by theorem, instance by instance, alphas ascending: each
  instance's plan lists its rows in that order;
* a summary report (JSON) with per-theorem pass counts, the most negative
  slack seen with its full instance parameters, the most negative slack
  relative to max(1, |rhs|) (what ``holds`` tests), the printed-constant probe
  results for D4/D5, wall time and a config echo.  Rows with an inf or nan
  value count apart (``nonfinite``), never as violations or worst slacks.

Fractional orders >= 1 apply to the Riemann-Liouville family only.  The
probe rows re-evaluate D4/D5 with the as-printed right-hand constant
sech(p*(b-a)); they are reported but never counted as campaign violations.

The plan, the rows ``TheoremEvaluator.evaluate_plan`` takes, is built and
its alphas checked once per campaign.  The instances are evaluated a chunk
at a time, in index order: runs of at most ``CHUNK_INSTANCES`` consecutive
indices, each one ``evaluate_chunk`` of the plan as it is (one stacked
moment pass), made in a worker on a pool, whose tasks are chunks.  Each
instance becomes one block: the fields its rows share, the verdict tuples
of its plan and their texts, each value formatted once where the block is
evaluated; a row with an inf or nan value has no texts, and the report
counts it apart.  A verdict does not depend on the chunk it is evaluated
in, so the rows do not depend on the chunk size or the worker count.
``run_campaign`` returns the rows as a sequence over the blocks that builds
the row dicts when a row is first asked for.  The writers always write
campaign rows from the blocks' texts, as evaluated (a CSV and a JSON file
of one run format no float twice), one theorem at a time.  Any other rows
are written cell by cell.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import NamedTuple

from . import __version__
from .expressions import Interval
from .fractional import Family
from .generators import GenConfig, gen_p_convex, gen_symmetric_weight, rng_for
from .grammar import to_grammar
from .inequalities import (
    _REQUIRES,
    DEFAULT_SLACK_TOL,
    TheoremEvaluator,
    TheoremId,
    _plan_layout,
    evaluate_chunk,
)

# a row: its theorem id, fields its instance fixes (head), its alpha, the
# sides and slacks, holds, and more fields its instance fixes (tail)
_HEAD = ("a", "b", "p")
_SIDES = ("lhs", "mid", "rhs", "slack_left", "slack_right")
_TAIL = ("fn_descriptor", "weight_descriptor", "seed", "instance_index")
CSV_COLUMNS = ["theorem_id", *_HEAD, "alpha", *_SIDES, "holds", *_TAIL]

_THEOREMS = {family: tuple(t for t in TheoremId if _REQUIRES[t].family is family)
             for family in (None, Family.RL, Family.EXP)}
_PRINTED_THEOREMS = tuple(t for t in TheoremId if _REQUIRES[t].printed_constant)

# the most instances evaluated in one stacked moment pass (a chunk): the
# least on the plateau of cost per instance, which holds from 4 to 48, as
# the peak memory grows with the chunk (BENCH_27.json)
CHUNK_INSTANCES = 4


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 42
    n_instances: int = 1000
    alphas: tuple = (0.3, 0.5, 0.8, 1.0, 1.5)
    p_list: tuple | None = None          # explicit p grid; default: sample
    pl_range: tuple = (0.05, 5.0)        # sampled p * (b - a)
    length_range: tuple = (0.2, 4.0)
    center_range: tuple = (-1.5, 1.5)
    tol: float = DEFAULT_SLACK_TOL
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


class _Block(NamedTuple):
    """One evaluated instance: what its rows share, the verdict tuples of
    :meth:`TheoremEvaluator.evaluate_plan`, one per plan row, and their
    ``_side_texts``."""

    index: int
    a: float
    b: float
    p: float
    fn_descriptor: str
    weight_descriptor: str
    verdicts: tuple
    texts: list


def _chunk_blocks(cfg: CampaignConfig, plan: tuple, indices: range) -> list:
    """The blocks of a chunk of seeded instances (each pure in (cfg,
    index)) over the rows of ``plan`` (``_plan(cfg)``), in index order,
    from one ``evaluate_chunk``."""
    drawn = [(index, *_draw(cfg, index)) for index in indices]
    chunk = evaluate_chunk([TheoremEvaluator(u, interval, p=p, weight=w,
                                             tol=cfg.tol)
                            for _, u, interval, p, w in drawn], plan)
    return [_Block(index, interval.a, interval.b, p, to_grammar(u),
                   to_grammar(w.v), tuple(verdicts), _side_texts(verdicts))
            for (index, u, interval, p, w), verdicts in zip(drawn, chunk)]


def instance_rows(cfg: CampaignConfig, index: int) -> list:
    """All verdict rows for one seeded instance (pure in (cfg, index)), in
    plan order, as dicts with the keys of ``CSV_COLUMNS``."""
    plan = _plan(cfg)
    return list(_Rows(cfg.seed, plan,
                      _chunk_blocks(cfg, plan, range(index, index + 1))))


def _plan(cfg: CampaignConfig) -> tuple:
    """The rows (theorem, alpha, strict_printed) of an instance, as
    :meth:`TheoremEvaluator.evaluate_plan` takes them, in file order:
    theorem by theorem (plain, RL, EXP, then the printed probes), each at
    the alphas of its kernel's family, ascending.  An alpha out of its
    family's range raises here, before any instance: the evaluators' plan
    layout, which checks each alpha, is built (and cached) once."""
    ascending = tuple(sorted(cfg.alphas))
    alphas = {None: (None,), Family.RL: ascending,
              Family.EXP: tuple(a for a in ascending if a < 1.0)}
    plan = tuple((tid, alpha, False) for family, theorems in _THEOREMS.items()
                 for tid in theorems for alpha in alphas[family])
    if cfg.printed_probe:
        plan += tuple((tid, alpha, True) for tid in _PRINTED_THEOREMS
                      for alpha in alphas[_REQUIRES[tid].family])
    _plan_layout(plan)
    return plan


class _Rows(Sequence):
    """The rows of a campaign in file order: theorem by theorem (the plan's
    runs of one row name), then instance by instance, then the plan's order
    (alphas ascending).  A row's name (its ``theorem_id``) is its theorem's
    id, with ``_printed`` appended for a probe.  The row dicts, with the
    keys of ``CSV_COLUMNS``, are built from the blocks the first time a row
    is asked for, and kept: a change to one shows in later reads, as in a
    list, but not in the written files.  The writers write the rows from
    the blocks, one theorem at a time, with the texts each block carries."""

    def __init__(self, seed: int, plan: tuple, blocks: list):
        self.seed, self.plan, self.blocks = seed, plan, blocks
        self.dicts = None  # the row dicts, once built
        self.names = [tid.value + "_printed" if printed else tid.value
                      for tid, _, printed in plan]
        # per theorem: its row name and its slice of the plan
        self.groups = []
        for name, run in itertools.groupby(enumerate(self.names), lambda e: e[1]):
            run = [j for j, _ in run]
            self.groups.append((name, run[0], run[-1] + 1))

    def row(self, block: _Block, j: int) -> dict:
        """A fresh dict of plan row ``j`` of an instance."""
        lhs, mid, rhs, slack_left, slack_right, holds = block.verdicts[j]
        return {"theorem_id": self.names[j], "a": block.a, "b": block.b,
                "p": block.p, "alpha": self.plan[j][1], "lhs": lhs, "mid": mid,
                "rhs": rhs, "slack_left": slack_left, "slack_right": slack_right,
                "holds": holds, "fn_descriptor": block.fn_descriptor,
                "weight_descriptor": block.weight_descriptor,
                "seed": self.seed, "instance_index": block.index}

    def _list(self) -> list:
        if self.dicts is None:
            self.dicts = [self.row(block, j) for _, start, stop in self.groups
                          for block in self.blocks for j in range(start, stop)]
        return self.dicts

    def __len__(self) -> int:
        return len(self.blocks) * len(self.plan)

    def __getitem__(self, i):
        return self._list()[i]

    def __iter__(self):
        return iter(self._list())


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
    """Returns (CampaignReport, rows).  ``rows`` is a sequence that builds
    its row dicts when a row is first asked for: theorem by theorem in plan
    order, then by instance index, then alpha ascending (the plan's order
    within an instance), independent of worker scheduling.  A change to a
    row dict shows in later reads, not in what the writers write: they
    write the verdicts as evaluated.  An alpha grid out of range raises
    before any instance is evaluated."""
    start = time.perf_counter()
    workers = _resolve_workers(cfg)
    plan = _plan(cfg)
    n = cfg.n_instances
    size = CHUNK_INSTANCES if workers == 1 else min(
        CHUNK_INSTANCES, max(1, n // (workers * 8)))
    chunks = [range(i, min(n, i + size)) for i in range(0, n, size)]
    args = itertools.repeat(cfg), itertools.repeat(plan), chunks
    if workers > 1:
        # the pool's import costs a one-shot call 13-20 ms: load it here
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # about workers * 8 messages, as many chunks each: one message
            # per chunk made a 1000-instance run 10% slower (BENCH_27.json)
            parts = list(pool.map(_chunk_blocks, *args, chunksize=max(
                1, len(chunks) // (workers * 8))))
    else:
        parts = map(_chunk_blocks, *args)
    rows = _Rows(cfg.seed, plan, list(itertools.chain.from_iterable(parts)))
    per_theorem, probe = _summary(rows)
    violations = sum(entry["fail"] for entry in per_theorem.values())
    nonfinite = sum(entry["nonfinite"] for entry in per_theorem.values())

    wall = time.perf_counter() - start
    report = CampaignReport(
        artifact_version=__version__,
        config=dict(asdict(cfg), p_list=cfg.p_list or None),
        n_rows=len(rows),
        violations=violations,
        nonfinite=nonfinite,
        per_theorem=per_theorem,
        printed_constant_probe=probe,
        wall_time_s=wall,
    )
    return report, rows


def _summary(rows: _Rows) -> tuple:
    """The report's ``per_theorem`` and ``printed_constant_probe`` dicts,
    keyed by theorem id in file order: per theorem its rows (passing,
    failing, nonfinite), worst slack, worst relative slack and, for a
    theorem but not a probe, the first row reaching the worst slack.  The
    worst slacks are over the finite rows, and None without one; a row's
    slack is the least of its slacks that are not None, and its relative
    slack that over max(1, |rhs|), what holds tests against -tol.  A row
    is non-finite where the writers find it so, by its block's texts."""
    per_theorem, probe = {}, {}
    for name, start, stop in rows.groups:
        nonfinite = fail = 0
        worst = worst_at = worst_rel = None
        for block in rows.blocks:
            for j in range(start, stop):
                # a value that overflowed a double is no verdict either way
                if block.texts[j] is None:
                    nonfinite += 1
                    continue
                lhs, _, rhs, left, right, holds = block.verdicts[j]
                fail += not holds
                slack = right if left is None or right < left else left
                if worst is None or slack < worst:  # the first row of a tie
                    worst, worst_at = slack, (block, j)
                rel = slack / max(1.0, abs(rhs))
                if worst_rel is None or rel < worst_rel:
                    worst_rel = rel
        count = len(rows.blocks) * (stop - start)
        tid, _, printed = rows.plan[start]
        seen = {"nonfinite": nonfinite, "worst_slack": worst,
                "worst_rel_slack": worst_rel}
        if printed:
            probe[tid.value] = {"instances": count, "violations": fail, **seen}
        else:
            per_theorem[name] = {
                "pass": count - nonfinite - fail, "fail": fail, **seen,
                "worst_params": None if worst_at is None else rows.row(*worst_at)}
    return per_theorem, probe


# ---------------------------------------------------------------------------
# serialization

def _finite(texts) -> bool:
    """Whether the reprs of verdict values (floats, None, bools) show no
    inf or nan: only those reprs hold either word."""
    text = " ".join(texts)
    return "inf" not in text and "nan" not in text


def _side_texts(verdicts) -> list:
    """Per verdict tuple: the reprs of its values (a float side's ``repr``
    is what both writers write for it; the templates write holds
    themselves), or None for a tuple with an inf or nan value.  Each value
    gets its own text, never one shared by equal values: 0.0 and -0.0 are
    equal but print apart."""
    values = list(map(repr, itertools.chain.from_iterable(verdicts)))
    # back into tuples of six: five sides and holds
    texts = list(zip(*[iter(values)] * 6))
    if not _finite(values):
        texts = [t if _finite(t) else None for t in texts]
    return texts


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


def _row_lines(rows: _Rows, fmt, gap, begin: str, end: str):
    """The text of every campaign row in file order, one list of lines per
    theorem: ``begin``, the values as ``fmt`` writes them, each key but the
    first preceded by ``gap(key)``, then ``end``.  The fields an instance
    shares are formatted once per instance, a plan row's name and alpha
    once per plan, and the verdict values are the texts each block
    carries.  A plan row has one %-template per holds value,
    where a side is %s and a side that is None (fixed per plan row: a row
    without a MID) is fmt(None) and %.0s, which prints none of its
    argument, as is holds.  A row with an inf or nan side is written with
    its values formatted by fmt (JSON spells them NaN and Infinity)."""
    gaps = {k: gap(k) for k in CSV_COLUMNS}

    def fields(keys, values):
        return "".join([gaps[k] + fmt(v) for k, v in zip(keys, values)])

    shared = [(fields(_HEAD, (block.a, block.b, block.p)),
               fields(_TAIL, (block.fn_descriptor, block.weight_descriptor,
                              rows.seed, block.index)))
              for block in rows.blocks]
    null = fmt(None) + "%.0s"
    sides = {has_mid: "".join(
        gaps[k] + (null if not has_mid and k in ("mid", "slack_left") else "%s")
        for k in _SIDES) for has_mid in (False, True)}
    holds = [gaps["holds"] + fmt(h) + "%.0s%s" + end for h in (False, True)]
    templates = []
    for (tid, alpha, _), name in zip(rows.plan, rows.names):
        body = (begin + fmt(name) + "%s" + gaps["alpha"] + fmt(alpha)
                + sides[_REQUIRES[tid].has_mid])
        templates.append((body + holds[0], body + holds[1]))
    for _, start, stop in rows.groups:
        forms = templates[start:stop]
        lines = []
        for block, (head, tail) in zip(rows.blocks, shared):
            lines += [form[v[5]] % (head, *(t or map(fmt, v)), tail)
                      for form, v, t in zip(forms, block.verdicts[start:stop],
                                            block.texts[start:stop])]
        yield lines


def _csv_chunks(rows):
    """The CSV text of rows in pieces: the header line, then one piece per
    theorem for campaign rows (written from their blocks), else one piece
    written cell by cell."""
    fields = {}
    cell = lambda v: _cell(v, fields)
    yield ",".join(CSV_COLUMNS) + "\n"
    if isinstance(rows, _Rows):
        for lines in _row_lines(rows, cell, lambda k: ",", "", "\n"):
            yield "".join(lines)
    else:
        yield "".join([",".join([cell(r[k]) for k in CSV_COLUMNS]) + "\n"
                       for r in rows])


def _json_chunks(rows):
    """The text of ``rows_to_json`` in pieces: one piece per theorem (and
    the brackets and separators between them) for campaign rows, else one
    piece."""
    if not isinstance(rows, _Rows):
        yield json.dumps(list(rows), indent=2) + "\n"
        return
    yield "[\n"
    for i, lines in enumerate(_row_lines(
            rows, json.dumps, lambda k: f",\n    {json.dumps(k)}: ",
            '  {\n    "theorem_id": ', "\n  }")):
        if i:
            yield ",\n"
        yield ",\n".join(lines)
    yield "\n]\n"


def rows_to_csv(rows) -> str:
    """The CSV text of rows (dicts with the keys of ``CSV_COLUMNS``);
    campaign rows are written from their blocks, as evaluated."""
    return "".join(_csv_chunks(rows))


def rows_to_json(rows) -> str:
    """``json.dumps(list(rows), indent=2) + "\\n"``; campaign rows are
    written from their blocks, as evaluated, each value as ``json.dumps``
    writes it."""
    return "".join(_json_chunks(rows))


def write_rows(rows, path: str, fmt: str = "csv") -> None:
    """Write the text of ``rows_to_csv`` (``fmt`` "csv") or ``rows_to_json``
    to ``path``; campaign rows go out one theorem at a time, so the whole
    text is never held at once."""
    chunks = _csv_chunks(rows) if fmt == "csv" else _json_chunks(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def report_to_json(report: CampaignReport) -> str:
    return json.dumps(vars(report), indent=2) + "\n"


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
