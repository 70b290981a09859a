"""Randomized verification campaigns with machine-readable reports.

A campaign draws ``n_instances`` seeded instances (interval, hyperbolic
parameter, p-convex function, symmetric weight), evaluates the full
inequality suite on each across the configured fractional-order grid, and
writes two artifacts:

* a rows file (CSV by default) with one line per verdict - byte-identical
  across runs with the same config, independent of worker count;
* a summary report (JSON) with per-theorem pass counts, the most negative
  slack seen with its full instance parameters, the printed-constant probe
  results for D4/D5, wall time and a config echo.

Fractional orders >= 1 apply to the Riemann-Liouville family only.  The
probe rows re-evaluate D4/D5 with the as-printed right-hand constant
sech(p*(b-a)); they are reported but never counted as campaign violations.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from . import __version__
from .expressions import Interval
from .generators import GenConfig, gen_p_convex, gen_symmetric_weight, rng_for
from .grammar import to_grammar
from .inequalities import TheoremEvaluator, TheoremId

CSV_COLUMNS = [
    "theorem_id", "a", "b", "p", "alpha", "lhs", "mid", "rhs",
    "slack_left", "slack_right", "holds", "fn_descriptor",
    "weight_descriptor", "seed", "instance_index",
]

_PLAIN_THEOREMS = (TheoremId.HH_1_1, TheoremId.FEJER_1_2, TheoremId.D1,
                   TheoremId.D2, TheoremId.D3)
_RL_THEOREMS = (TheoremId.FHH, TheoremId.FHHF, TheoremId.D4, TheoremId.D6,
                TheoremId.D8)
_EXP_THEOREMS = (TheoremId.FHH2, TheoremId.FHHF2, TheoremId.D5, TheoremId.D7,
                 TheoremId.D9)

_ROW_ORDER = [t.value for t in _PLAIN_THEOREMS] + \
    [t.value for t in _RL_THEOREMS] + [t.value for t in _EXP_THEOREMS] + \
    ["D4_printed", "D5_printed"]
_ROW_RANK = {tid: i for i, tid in enumerate(_ROW_ORDER)}


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
        if self.output_format not in ("csv", "json"):
            raise ValueError("output_format must be csv or json")


@dataclass(frozen=True)
class CampaignReport:
    """Summary of one campaign run (the rows live in the rows file)."""

    artifact_version: str
    config: dict
    n_rows: int
    violations: int
    per_theorem: dict
    printed_constant_probe: dict
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def _row(tid_str, verdict, seed, index, u_descr, w_descr, alpha):
    return {
        "theorem_id": tid_str,
        "a": verdict.params["a"],
        "b": verdict.params["b"],
        "p": verdict.params["p"],
        "alpha": alpha,
        "lhs": verdict.lhs,
        "mid": verdict.mid,
        "rhs": verdict.rhs,
        "slack_left": verdict.slack_left,
        "slack_right": verdict.slack_right,
        "holds": verdict.holds,
        "fn_descriptor": u_descr,
        "weight_descriptor": w_descr,
        "seed": seed,
        "instance_index": index,
    }


def instance_rows(cfg: CampaignConfig, index: int) -> list:
    """All verdict rows for one seeded instance (pure in (cfg, index))."""
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
    u_descr = to_grammar(u)
    w_descr = to_grammar(w.v)
    ev = TheoremEvaluator(u, interval, p=p, weight=w, tol=cfg.tol)

    rows = []
    for tid in _PLAIN_THEOREMS:
        v = ev.evaluate(tid)
        rows.append(_row(tid.value, v, cfg.seed, index, u_descr, w_descr, None))
    exp_alphas = [a for a in cfg.alphas if a < 1.0]
    for alpha in cfg.alphas:
        for tid in _RL_THEOREMS:
            v = ev.evaluate(tid, alpha=alpha)
            rows.append(_row(tid.value, v, cfg.seed, index, u_descr, w_descr,
                             alpha))
    for alpha in exp_alphas:
        for tid in _EXP_THEOREMS:
            v = ev.evaluate(tid, alpha=alpha)
            rows.append(_row(tid.value, v, cfg.seed, index, u_descr, w_descr,
                             alpha))
    if cfg.printed_probe:
        for alpha in cfg.alphas:
            v = ev.evaluate(TheoremId.D4, alpha=alpha, strict_printed=True)
            rows.append(_row("D4_printed", v, cfg.seed, index, u_descr,
                             w_descr, alpha))
        for alpha in exp_alphas:
            v = ev.evaluate(TheoremId.D5, alpha=alpha, strict_printed=True)
            rows.append(_row("D5_printed", v, cfg.seed, index, u_descr,
                             w_descr, alpha))
    return rows


def _resolve_workers(cfg: CampaignConfig) -> int:
    base = cfg.workers if cfg.workers else (os.cpu_count() or 1)
    cap_env = os.environ.get("HYPFRAC_THREADS", "").strip()
    if cap_env:
        base = min(base, max(1, int(cap_env)))
    return max(1, base)


def run_campaign(cfg: CampaignConfig):
    """Returns (CampaignReport, rows).  Rows are ordered by
    (theorem, instance index, alpha), independent of worker scheduling."""
    start = time.perf_counter()
    workers = _resolve_workers(cfg)
    indices = range(cfg.n_instances)
    if workers > 1 and cfg.n_instances > 1:
        chunk = max(1, cfg.n_instances // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_instance = list(pool.map(_instance_worker,
                                         [(cfg, i) for i in indices],
                                         chunksize=chunk))
    else:
        per_instance = [instance_rows(cfg, i) for i in indices]
    rows = [r for batch in per_instance for r in batch]
    rows.sort(key=lambda r: (_ROW_RANK[r["theorem_id"]], r["instance_index"],
                             -1.0 if r["alpha"] is None else r["alpha"]))

    per_theorem = {}
    probe = {}
    violations = 0
    for r in rows:
        tid = r["theorem_id"]
        is_probe = tid.endswith("_printed")
        slacks = [s for s in (r["slack_left"], r["slack_right"]) if s is not None]
        worst = min(slacks)
        bucket = probe.setdefault(tid.split("_")[0], {
            "instances": 0, "violations": 0, "worst_slack": None,
        }) if is_probe else None
        if is_probe:
            bucket["instances"] += 1
            if not r["holds"]:
                bucket["violations"] += 1
            if bucket["worst_slack"] is None or worst < bucket["worst_slack"]:
                bucket["worst_slack"] = worst
            continue
        entry = per_theorem.setdefault(tid, {
            "pass": 0, "fail": 0, "worst_slack": None, "worst_params": None,
        })
        if r["holds"]:
            entry["pass"] += 1
        else:
            entry["fail"] += 1
            violations += 1
        if entry["worst_slack"] is None or worst < entry["worst_slack"]:
            entry["worst_slack"] = worst
            entry["worst_params"] = dict(r)

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
        per_theorem=per_theorem,
        printed_constant_probe=probe,
        wall_time_s=wall,
    )
    return report, rows


def _instance_worker(args):
    cfg, index = args
    return instance_rows(cfg, index)


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


def rows_to_csv(rows) -> str:
    fields = {}
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join([_cell(r[c], fields) for c in CSV_COLUMNS]) for r in rows]
    return "\n".join(lines) + "\n"


def write_rows(rows, path: str, fmt: str = "csv") -> None:
    if fmt == "csv":
        text = rows_to_csv(rows)
    else:
        text = json.dumps(rows, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def report_to_json(report: CampaignReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def write_report(report: CampaignReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(report_to_json(report))


# ---------------------------------------------------------------------------
# config files: flat key=value, comma-separated lists, '#' comments

_LIST_KEYS = {"alphas", "p_list", "pl_range", "length_range", "center_range"}
_INT_KEYS = {"seed", "n_instances", "workers"}
_FLOAT_KEYS = {"tol"}
_BOOL_KEYS = {"printed_probe"}


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
            out[key] = tuple(float(v) for v in value.split(",") if v.strip())
        elif key in _INT_KEYS:
            out[key] = int(value)
        elif key in _FLOAT_KEYS:
            out[key] = float(value)
        elif key in _BOOL_KEYS:
            out[key] = value.lower() in ("1", "true", "yes", "on")
        else:
            out[key] = value
    return out


def load_config(path: str, overrides: dict | None = None) -> CampaignConfig:
    with open(path, encoding="utf-8") as fh:
        fields = parse_config_text(fh.read())
    if overrides:
        fields.update({k: v for k, v in overrides.items() if v is not None})
    return CampaignConfig(**fields)
